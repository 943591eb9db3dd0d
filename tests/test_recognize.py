"""Recognition procedures, filters, certificates, and the push oracle."""

import pytest
from hypothesis import given, settings

from support import chain, merge_constructible, ranked_trees, star, union_trees_upto, wide_tree
from uftree import recognize
from uftree.errors import CapExceeded
from uftree.forest import enumerate_trees, export_trees, random_oplog, random_uf_tree, replay
from uftree.recognize import (
    REASON_BUDGET,
    REASON_CERTIFICATE,
    REASON_COUNT_FILTER,
    REASON_MISSING_RANK,
    REASON_RANK_RANGE,
    REASON_SEARCH,
    REASON_UNION_TREE,
    Certificate,
    _extract_enriched,
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
    singleton,
    subtree_keys,
)


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

    @pytest.mark.parametrize(
        "build, ticks",
        [
            (lambda: make_flat_tree(parse_instance("1,2,3,4,4;2")).tree, 1203),
            (lambda: make_flat_tree(parse_instance("1,1,4;2")).tree, 160),
            (lambda: make_flat_tree(parse_instance("3,3,2,2,2;2")).tree, 464),
            (lambda: random_uf_tree(60, 0), 49),
            (lambda: random_uf_tree(100, 0), 62),
            (lambda: random_uf_tree(200, 4), 144),
        ],
        ids=["flat-12344", "flat-114", "flat-33222", "uf60", "uf100", "uf200-s4"],
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

    def test_candidate_key_is_the_canonical_key_of_the_enriched_subtree(self):
        flat = make_flat_tree(parse_instance("1,2,3,4,4;2"))
        t, basket, apples = flat.tree, flat.basket_roots[0], list(flat.apple_roots[:2])
        table = t.child_table()
        keys = subtree_keys(t, table)
        desc = {x: t.descendants(x) for x in [basket, *apples]}
        enriched, _ = _extract_enriched(t, desc, basket, apples)
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
