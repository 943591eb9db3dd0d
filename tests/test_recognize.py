"""Recognition procedures, filters, certificates, and the push oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings

from support import (
    chain,
    many_repairs,
    merge_constructible,
    ranked_trees,
    relabel,
    star,
    union_trees_upto,
    wide_tree,
)
from uftree import recognize
from uftree.errors import CapExceeded
from uftree.forest import (
    enumerate_trees,
    export_trees,
    mutate,
    random_oplog,
    random_uf_tree,
    replay,
)
from uftree.recognize import (
    REASON_BUDGET,
    REASON_CERTIFICATE,
    REASON_COUNT_FILTER,
    REASON_MISSING_RANK,
    REASON_RANK_RANGE,
    REASON_SEARCH,
    REASON_UNION_TREE,
    Certificate,
    _minimal_candidates,
    _Search,
    _splits,
    brute_force_is_uf,
    check_certificate,
    count_filter,
    format_certificate,
    is_union_find_tree,
    is_union_tree,
    parse_certificate,
    satisfies_union_condition,
)
from uftree.reduction import make_apple, make_basket, make_flat_tree, parse_instance
from uftree.tree import (
    RankedTree,
    canonical_key,
    collapse,
    merge,
    node_key,
    push,
    singleton,
    subtree,
    subtree_keys,
)


# the trees of the prop4, rank-range and missing-rank filter tests below
ROOT_FILTER_FIXTURES = [
    make_apple(3),
    RankedTree((-1, 0, 0, 2, 0, 4), (3, 0, 1, 0, 2, 0)),
    RankedTree((-1, 0, 0, 1, 1, 2, 2), (2, 1, 1, 0, 0, 0, 0)),
]


def largest_export(n, seed):
    """The largest tree exported from a seeded op log with 3n operations."""
    trees = [e.tree for e in export_trees(replay(random_oplog(n, 3 * n, seed)))]
    return max(trees, key=lambda t: t.node_count)


class TestUnionCondition:
    def test_leaf(self):
        assert satisfies_union_condition(singleton(), 0)

    def test_apple_root_holds(self):
        apple = make_apple(3)
        assert satisfies_union_condition(apple, apple.root)

    def test_basket_root_misses_rank_two(self):
        basket = make_basket(3)
        assert not satisfies_union_condition(basket, basket.root)

    def test_positive_rank_singleton_fails(self):
        assert not satisfies_union_condition(singleton(1), 0)


class TestIsUnionTree:
    def test_singleton(self):
        assert is_union_tree(singleton())

    def test_chain_rejected(self):
        assert not is_union_tree(chain(2, 1, 0))

    def test_duplicate_ranks_allowed(self):
        assert is_union_tree(star(1, 0, 0, 0))

    def test_filled_flat_tree_shape(self):
        # rank-2 root over a leaf and two rank-1 nodes, each with a leaf
        t = RankedTree((-1, 0, 0, 0, 2, 3), (2, 0, 1, 1, 0, 0))
        assert is_union_tree(t)

    def test_matches_merge_construction_search(self):
        keys = union_trees_upto(6)
        for t in enumerate_trees(6):
            assert is_union_tree(t) == merge_constructible(t, keys), (t.parent, t.rank)


class TestCountFilter:
    def test_apple_fails(self):
        assert not count_filter(make_apple(1))

    def test_singleton_passes(self):
        assert count_filter(singleton())

    def test_basket_five(self):
        basket = make_basket(5)
        zeros = sum(1 for r in basket.rank if r == 0)
        assert zeros == 7
        assert count_filter(basket)

    def test_sound_against_oracle(self):
        for t in enumerate_trees(6):
            if not count_filter(t):
                assert not brute_force_is_uf(t), (t.parent, t.rank)


class TestRecognizer:
    def test_singleton_union_tree_reason(self):
        verdict = is_union_find_tree(singleton())
        assert verdict.accepted
        assert verdict.reason == REASON_UNION_TREE
        assert verdict.certificate is None
        # the witnessing push sequence is empty
        assert check_certificate(singleton(), Certificate(()))

    def test_union_trees_accept_without_pushes(self):
        for seed in range(10):
            t = random_uf_tree(14, seed=seed, collapse_prob=0.0)
            verdict = is_union_find_tree(t)
            assert verdict.reason == REASON_UNION_TREE
            assert verdict.certificate is None
            assert check_certificate(t, Certificate(()))

    def test_apple_rejected_by_count(self):
        verdict = is_union_find_tree(make_apple(3))
        assert not verdict.accepted
        assert verdict.reason == REASON_COUNT_FILTER

    def test_chain_rejected(self):
        verdict = is_union_find_tree(chain(2, 1, 0))
        assert not verdict.accepted
        assert verdict.reason.startswith("filter-")
        assert not brute_force_is_uf(chain(2, 1, 0))

    def test_rank_range_filter(self):
        # six nodes can never carry a rank-3 root, whatever the shape
        t = RankedTree((-1, 0, 0, 2, 0, 4), (3, 0, 1, 0, 2, 0))
        assert count_filter(t) and t.node_count < 1 << t.root_rank
        verdict = is_union_find_tree(t)
        assert verdict.reason == REASON_RANK_RANGE

    def test_missing_rank_filter(self):
        # both depth-one children have rank 1, so rank 0 is unreachable at the root
        t = RankedTree((-1, 0, 0, 1, 1, 2, 2), (2, 1, 1, 0, 0, 0, 0))
        assert count_filter(t)
        verdict = is_union_find_tree(t)
        assert verdict.reason == REASON_MISSING_RANK

    def test_collapsed_union_tree_accepted_with_certificate(self):
        t = merge(merge(singleton(), singleton()), merge(singleton(), singleton()))
        squashed = collapse(t, 3)
        verdict = is_union_find_tree(squashed)
        assert verdict.accepted
        assert verdict.reason == REASON_CERTIFICATE
        assert check_certificate(squashed, verdict.certificate)

    def test_one_child_table_per_search_node(self, monkeypatch):
        # a table per depth-one child would cost about three per child,
        # some 2,800 calls on this 1,833-node tree
        calls = []
        original = RankedTree.child_table

        def counted(self):
            calls.append(self.node_count)
            return original(self)

        monkeypatch.setattr(RankedTree, "child_table", counted)
        t = wide_tree(900)
        verdict = is_union_find_tree(t)
        assert len(calls) <= 20
        assert verdict.reason == REASON_CERTIFICATE
        assert check_certificate(t, verdict.certificate)

    def test_targets_that_all_receive_take_no_stack_frames(self):
        # a frame per target that receives would overflow at 1,200 targets
        t = many_repairs(1200)
        assert t.node_count == 4804
        verdict = is_union_find_tree(t)
        assert verdict.reason == REASON_CERTIFICATE
        assert len(verdict.certificate) == 1200
        assert check_certificate(t, verdict.certificate)

    def test_trees_the_root_decides_build_no_index(self, monkeypatch):
        # the index costs a child table and the subtree keys of every node;
        # a Union tree or a root-filter rejection needs neither
        calls = []
        table, keys = RankedTree.child_table, recognize.subtree_keys
        monkeypatch.setattr(RankedTree, "child_table", lambda t: calls.append(t) or table(t))
        monkeypatch.setattr(recognize, "subtree_keys", lambda *a: calls.append(a) or keys(*a))
        union = is_union_find_tree(random_uf_tree(500, 0, collapse_prob=0.0))
        reasons = [is_union_find_tree(t).reason for t in ROOT_FILTER_FIXTURES]
        assert union.reason == REASON_UNION_TREE
        assert reasons == [REASON_COUNT_FILTER, REASON_RANK_RANGE, REASON_MISSING_RANK]
        assert calls == []

    @given(ranked_trees(max_nodes=9))
    @settings(max_examples=80, deadline=None)
    def test_index_facts_match_the_subtrees(self, t):
        st = _Search(t, None)
        for x in range(t.node_count):
            sub, _ = subtree(t, x)
            assert st.zeros[x] == sub.rank.count(0)
            assert st.size[x] == sub.node_count
            assert st.union[x] == is_union_tree(sub)

    @pytest.mark.parametrize(
        "build, ticks",
        [
            (lambda: make_flat_tree(parse_instance("1,2,3,4,4;2")).tree, 191),
            (lambda: make_flat_tree(parse_instance("1,1,4;2")).tree, 40),
            (lambda: make_flat_tree(parse_instance("3,3,2,2,2;2")).tree, 99),
            # the gadget tail probe: splits that overfill a basket are never tried
            (lambda: make_flat_tree(parse_instance("9,8,7,6,5,4,3,2,2,2;3")).tree, 10079),
            (lambda: random_uf_tree(60, 0), 42),
            (lambda: random_uf_tree(100, 0), 51),
            (lambda: random_uf_tree(200, 4), 128),
            (lambda: random_uf_tree(400, 1), 940),
            (lambda: random_uf_tree(400, 2), 2120),
            # free children that outrank no pushed class are no targets
            (lambda: wide_tree(900), 7),
            # the same effort under any labeling of the same trees
            (lambda: relabel(make_flat_tree(parse_instance("1,2,3,4,4;2")).tree), 191),
            (lambda: relabel(make_flat_tree(parse_instance("1,2,3,4,4;2")).tree, 3), 191),
            (lambda: relabel(random_uf_tree(200, 4)), 128),
            (lambda: relabel(random_uf_tree(200, 4), 3), 128),
        ],
        ids=[
            "flat-12344", "flat-114", "flat-33222", "flat-probe3", "uf60", "uf100",
            "uf200-s4", "uf400-s1", "uf400-s2", "wide-k900",
            "flat-12344-reversed", "flat-12344-shuffled", "uf200-s4-reversed",
            "uf200-s4-shuffled",
        ],
    )
    def test_search_effort_is_pinned(self, build, ticks):
        # the smallest deciding budget: a change here changes the search itself
        t = build()
        assert is_union_find_tree(t, budget=ticks).reason != REASON_BUDGET
        assert is_union_find_tree(t, budget=ticks - 1).reason == REASON_BUDGET

    def test_search_rejection_names_the_search(self):
        # the root passes every filter; a filter that fired in some abandoned
        # sub-branch explains nothing about the whole tree
        verdict = is_union_find_tree(make_flat_tree(parse_instance("1,1,4;2")).tree)
        assert not verdict.accepted
        assert verdict.reason == REASON_SEARCH

    def test_pulls_of_positive_rank_free_children_count_toward_the_surplus_pool(self):
        # root 0 (rank 3) over leaf 1, the childless rank-1 node 2, rank-2
        # nodes 4 (over three leaves) and 9 (over one), and rank-1 nodes 6
        # and 11 (over two leaves each).  2 is pushed below 4, so the free
        # rank-1 class ranks at the lowest pushed class and is no target,
        # yet 9 must pull 11.  A pool that counted only rank-0 pulls would
        # refute the tree.
        t = RankedTree(
            (-1, 0, 0, 4, 0, 4, 0, 6, 6, 0, 9, 0, 11, 4, 11),
            (3, 0, 1, 0, 2, 0, 1, 0, 0, 2, 0, 1, 0, 0, 0),
        )
        verdict = is_union_find_tree(t)
        assert verdict.reason == REASON_CERTIFICATE
        assert (11, 9) in verdict.certificate.steps
        assert len(verdict.certificate) == 3
        assert check_certificate(t, verdict.certificate)

    def test_candidate_key_is_the_canonical_key_of_the_enriched_subtree(self):
        flat = make_flat_tree(parse_instance("1,2,3,4,4;2"))
        t, basket, apples = flat.tree, flat.basket_roots[0], list(flat.apple_roots[:2])
        table = t.child_table()
        keys = subtree_keys(t, table)
        enriched, _ = subtree(push(push(t, apples[0], basket), apples[1], basket), basket)
        child_keys = [keys[c] for c in table[basket]] + [keys[a] for a in apples]
        assert node_key(t.rank[basket], child_keys) == canonical_key(enriched)

    def test_memo_hits_skip_canonicalization(self, monkeypatch):
        # canonicalizing every candidate before the memo lookup would take 321
        calls = []
        original = recognize.canonical_form
        monkeypatch.setattr(recognize, "canonical_form", lambda t: calls.append(t) or original(t))
        assert is_union_find_tree(make_flat_tree(parse_instance("1,2,3,4,4;2")).tree).accepted
        assert len(calls) <= 120

    def test_pulls_are_decided_without_materializing_the_full_pull(self, monkeypatch):
        # probing the all-available pull first canonicalized 11,870 nodes here
        nodes = []
        original = recognize.canonical_form
        monkeypatch.setattr(
            recognize, "canonical_form", lambda t: nodes.append(t.node_count) or original(t)
        )
        t = largest_export(500, 1)
        assert t.node_count == 493
        assert is_union_find_tree(t).accepted
        assert sum(nodes) <= 2000

    def test_engine_trees_are_never_rejected(self):
        trees = [random_uf_tree(n, s) for n in (200, 400, 800) for s in range(4)]
        trees += [largest_export(n, 1) for n in (500, 1000, 2000)]
        for t in trees:
            verdict = is_union_find_tree(t, budget=2000)
            assert verdict.accepted or verdict.reason == REASON_BUDGET, t.node_count
            if verdict.certificate is not None:
                assert check_certificate(t, verdict.certificate), t.node_count

    def test_rejects_invalid_tree(self):
        with pytest.raises(ValueError):
            is_union_find_tree(RankedTree((-1, 0), (1, 1)))

    def test_budget_exhaustion_is_inconclusive(self):
        t = random_uf_tree(40, seed=11, collapse_prob=0.5)
        verdict = is_union_find_tree(t, budget=1)
        assert verdict.reason in (REASON_BUDGET, REASON_UNION_TREE)
        if verdict.reason == REASON_BUDGET:
            assert not verdict.accepted
            assert is_union_find_tree(t).accepted

    def test_oracle_agreement_small(self):
        for t in enumerate_trees(5):
            verdict = is_union_find_tree(t)
            assert verdict.accepted == brute_force_is_uf(t), (t.parent, t.rank)

    def test_oracle_agreement_on_mutated_engine_trees(self):
        # engine trees of 10-18 nodes, each mutated three times: big enough
        # for multi-class placement and pulls, small enough for the oracle
        negatives = 0
        for s in range(300):
            t = random_uf_tree(10 + s % 9, s)
            for k in range(3):
                t = mutate(t, 1000 * s + k)
            verdict = is_union_find_tree(t)
            assert verdict.accepted == brute_force_is_uf(t, max_nodes=64), s
            if verdict.certificate is not None:
                assert check_certificate(t, verdict.certificate), s
            negatives += not verdict.accepted
        assert negatives >= 50

    @given(ranked_trees(max_nodes=8, max_extra_rank=1))
    @settings(max_examples=80, deadline=None)
    def test_oracle_agreement_random(self, t):
        assert is_union_find_tree(t).accepted == brute_force_is_uf(t)

    @given(st_seed=ranked_trees(max_nodes=8, max_extra_rank=1))
    @settings(max_examples=60, deadline=None)
    def test_certificates_replay(self, st_seed):
        verdict = is_union_find_tree(st_seed)
        if verdict.certificate is not None:
            assert check_certificate(st_seed, verdict.certificate)
            # pushes strictly deepen: length is held below the depth-sum gap
            from uftree.tree import push as push_op

            final = st_seed
            for a, b in verdict.certificate.steps:
                final = push_op(final, a, b)
            gap = final.depth_sum() - st_seed.depth_sum()
            assert len(verdict.certificate) <= gap <= st_seed.node_count**2


def reference_candidates(limits, minima, balances, deficit):
    """Every vector up to the limits by total, then lexicographically, less
    those short of the deficit and those at or above a recorded minimum."""
    space = itertools.product(*(range(limit + 1) for limit in limits))
    for vec in sorted(space, key=lambda vec: (sum(vec), vec)):
        if sum(v * b for v, b in zip(vec, balances)) < deficit:
            continue
        if any(all(v >= m for v, m in zip(vec, low)) for low in minima):
            continue
        yield vec


def consumed(enumerate_, limits, balances, deficit, succeeds):
    """The vectors an enumeration yields to a consumer that records each
    success as a minimum, the way the pull search does."""
    minima, seen = [], []
    for vec in enumerate_(limits, minima, balances, deficit):
        seen.append(vec)
        if succeeds(vec):
            minima.append(vec)
    return seen


class TestMinimalCandidates:
    @pytest.mark.parametrize(
        "limits, balances, deficit, succeeds",
        [
            ([], [], 0, lambda vec: False),
            ([], [], 1, lambda vec: True),
            ([2, 3], [0, 0], 0, lambda vec: False),
            ([2, 3], [0, 0], 1, lambda vec: True),
            ([2, 1, 2], [0, 1, 0], 1, lambda vec: sum(vec) == 3),
            ([1, 2, 2], [2, 1, 0], -1, lambda vec: True),  # the zero vector wins
            ([1, 1, 1], [1, 1, 1], 2, lambda vec: vec[0] == 1),
        ],
    )
    def test_edge_cases_match_the_reference(self, limits, balances, deficit, succeeds):
        expected = consumed(reference_candidates, limits, balances, deficit, succeeds)
        assert consumed(_minimal_candidates, limits, balances, deficit, succeeds) == expected

    def test_random_cases_match_the_reference(self):
        # the order is part of the contract: search ticks follow it
        for seed in range(400):
            rng = random.Random(seed)
            n = rng.randint(0, 4)
            limits = [rng.randint(0, 3) for _ in range(n)]
            balances = [rng.randint(0, 3) for _ in range(n)]
            deficit = rng.randint(-2, sum(l * b for l, b in zip(limits, balances)) + 1)
            rate = rng.random()

            def succeeds(vec):
                return random.Random(f"{seed}/{vec}").random() < rate

            expected = consumed(reference_candidates, limits, balances, deficit, succeeds)
            got = consumed(_minimal_candidates, limits, balances, deficit, succeeds)
            assert got == expected, (limits, balances, deficit, rate)


def reference_splits(ranges, weights, lo, hi):
    """The filtered product the split walk must reproduce, order included."""
    return [
        vec
        for vec in itertools.product(*ranges)
        if lo <= sum(v * w for v, w in zip(vec, weights)) <= hi
    ]


class TestSplits:
    @pytest.mark.parametrize(
        "ranges, weights, lo, hi",
        [
            ([], [], 0, 0),  # the empty vector sums to 0
            ([], [], 1, 5),
            ([range(3, 4), range(0, 1)], [2, -1], 6, 6),
            ([range(3, 4), range(0, 1)], [2, -1], 7, 9),
            ([range(0, 3), range(1, 4)], [0, 0], -1, 1),
            ([range(0, 3), range(1, 4)], [0, 0], 1, 2),
            ([range(0, 4), range(2, 5), range(0, 3)], [-2, 3, -1], -3, 4),
            ([range(0, 4), range(0, 4)], [1, 1], 3, 2),  # an empty window
            ([range(2, 2), range(0, 3)], [1, 1], -9, 9),  # an empty range
        ],
    )
    def test_edge_cases_match_the_reference(self, ranges, weights, lo, hi):
        assert list(_splits(ranges, weights, lo, hi)) == reference_splits(ranges, weights, lo, hi)

    def test_random_cases_match_the_reference(self):
        # the order is part of the contract: the first success must not move
        for seed in range(300):
            rng = random.Random(seed)
            ranges = []
            for _ in range(rng.randint(0, 4)):
                start = rng.randint(0, 3)
                ranges.append(range(start, start + rng.randint(1, 4)))
            weights = [rng.randint(-4, 4) for _ in ranges]
            lo = rng.randint(-12, 12)
            hi = lo + rng.randint(-2, 10)
            expected = reference_splits(ranges, weights, lo, hi)
            assert list(_splits(ranges, weights, lo, hi)) == expected, (ranges, weights, lo, hi)


class TestOracle:
    def test_singleton(self):
        assert brute_force_is_uf(singleton())

    def test_apple_one(self):
        assert not brute_force_is_uf(make_apple(1))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            brute_force_is_uf(random_uf_tree(11, seed=0))

    def test_cap_override(self):
        assert brute_force_is_uf(random_uf_tree(12, seed=0), max_nodes=12)


class TestCertificates:
    def test_empty_on_union_tree(self):
        assert check_certificate(star(1, 0), Certificate(()))

    def test_empty_on_apple_fails(self):
        assert not check_certificate(make_apple(1), Certificate(()))

    def test_illegal_step_fails(self):
        assert not check_certificate(star(1, 0), Certificate(((0, 1),)))
        assert not check_certificate(star(1, 0), Certificate(((5, 0),)))

    # root 0 (rank 3) over 1 (rank 0), 2 (rank 1, over 3) and 4 (rank 2, over 5)
    REPLAY_TREE = RankedTree((-1, 0, 0, 2, 0, 4), (3, 0, 1, 0, 2, 0))

    @pytest.mark.parametrize(
        "steps, kind",
        [
            (((1, 9),), "unknown node id 9"),
            (((-1, 2),), "unknown node id -1"),
            (((2, 2),), "distinct"),
            (((0, 2),), "siblings"),
            (((3, 4),), "siblings"),
            (((4, 2),), "rank"),
            # after 1 moves below 2 it is no longer a sibling of 4
            (((1, 2), (1, 4)), "siblings"),
        ],
        ids=["unknown", "negative", "same-node", "root", "cousins", "rank", "moved"],
    )
    def test_each_illegal_kind_raises_and_fails_replay(self, steps, kind):
        t = self.REPLAY_TREE
        for x, y in steps[:-1]:
            t = push(t, x, y)
        with pytest.raises(ValueError, match=kind):
            push(t, *steps[-1])
        assert not check_certificate(self.REPLAY_TREE, Certificate(steps))

    def test_replay_does_not_rebuild_the_tree_per_step(self, monkeypatch):
        # rank-2 root over 51 leaves and a rank-1 node with a leaf; pushing
        # 50 leaves below the rank-1 node leaves a Union tree
        t = RankedTree((-1,) + (0,) * 52 + (52,), (2,) + (0,) * 51 + (1, 0))
        cert = Certificate(tuple((x, 52) for x in range(1, 51)))
        built = []
        original = RankedTree.__post_init__
        monkeypatch.setattr(RankedTree, "__post_init__", lambda s: built.append(s) or original(s))
        assert check_certificate(t, cert)
        assert len(built) <= 2

    def test_too_long_fails(self):
        steps = ((1, 2),) * 5  # above the 4-node quadratic bound? 16 allows 5
        long = Certificate(((1, 2),) * 17)
        assert not check_certificate(star(1, 0, 0, 0), long)
        assert len(steps) <= 16

    def test_text_round_trip(self):
        cert = Certificate(((3, 1), (2, 1)))
        text = format_certificate(cert)
        assert text == "2\npush 3 1\npush 2 1\n"
        assert parse_certificate(text) == cert

    def test_parse_errors(self):
        from uftree.errors import FormatError

        with pytest.raises(FormatError):
            parse_certificate("")
        with pytest.raises(FormatError):
            parse_certificate("1\nshove 1 2\n")
        with pytest.raises(FormatError):
            parse_certificate("2\npush 1 2\n")

    def test_trailing_lines_rejected(self):
        from uftree.errors import FormatError

        assert parse_certificate("1\npush 1 2\n\n") == Certificate(((1, 2),))
        with pytest.raises(FormatError) as err:
            parse_certificate("1\npush 1 2\n\npush 3 4\n")
        assert err.value.line == 4
