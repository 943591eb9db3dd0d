"""Recognition procedures, filters, certificates, and the push oracle."""

import collections
import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    benchmark_corpus,
    binomial,
    chain,
    count_stage_entries,
    from_spec,
    many_free_classes,
    many_needy_classes,
    many_repairs,
    merge_constructible,
    random_valid_tree,
    ranked_trees,
    record_canonical_forms,
    reference_keep_walk,
    reference_rank_two,
    relabel,
    star,
    union_trees_upto,
    wide_tree,
)
from uftree import recognize, tree
from uftree.errors import CapExceeded, InvalidTreeError
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
    _BudgetExhausted,
    _Class,
    _keep_choices,
    _minimal_candidates,
    _Search,
    _splits,
    _supplied,
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
    parse_tree,
    push,
    serialize_tree,
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

# A rank-5 root over x, B3, B2, B1 and five leaves, 32 nodes.  x has rank
# 4 and children y (rank 3, over a childless rank 2, a childless rank 1 and
# a leaf), a childless rank 2, a childless rank 1 and five leaves, so the
# search decides candidates a filter of size alone refutes.
SIZE_REFUTED = from_spec(
    (
        5,
        [(4, [(3, [(2, []), (1, []), binomial(0)]), (2, []), (1, [])] + [binomial(0)] * 5)]
        + [binomial(3), binomial(2), binomial(1)]
        + [binomial(0)] * 5,
    )
)

# Resuming past an untouched free target: refuted, and the oracle agrees.
RESUMED_PAST_FREE = RankedTree(
    (-1, 0, 0, 2, 0, 0, 4, 6, 6, 0, 0, 9, 9, 0, 13, 13, 9, 15),
    (3, 0, 1, 0, 2, 0, 1, 0, 0, 1, 1, 0, 0, 2, 0, 1, 0, 0),
)

# Root 0 (rank 4) over the rank-3 node 1 (over a leaf and a B1), the B2s 5
# and 9, the childless rank-1 node 13, the B1 14, the rank-1 node 16 over
# two leaves, and leaf 19.  13 must be pushed below 1, 5 or 9, and 9 is the
# last that can absorb it.  Node 1 pulls 9 and 5 may stay untouched, so 9
# is served as pulled and takes nothing: that walk leaves 13 over and is no
# witness.  Refuted; the oracle agrees.
LEFT_OVER = RankedTree(
    (-1, 0, 1, 1, 3, 0, 5, 5, 7, 0, 9, 9, 11, 0, 0, 14, 0, 16, 16, 0),
    (4, 3, 0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0),
)


# Root 0 (rank 2) over the childless rank-1 node 1, leaf 2 and the rank-1
# node 3 over three leaves.  Node 1 needs leaf 2 and the root must keep it:
# refuted by counting, with every root filter passed.
RANK_TWO_REFUTED = RankedTree((-1, 0, 0, 0, 3, 3, 3), (2, 1, 0, 1, 0, 0, 0))


def random_rank_two_tree(rng, n):
    """A rank-2 root over n - 1 nodes, each a depth-one child of rank 0 or 1
    or a leaf below an earlier depth-one rank-1 node."""
    parent, rank = [-1], [2]
    for _ in range(1, n):
        p = rng.choice([0] + [x for x in range(1, len(rank)) if parent[x] == 0 and rank[x] == 1])
        parent.append(p)
        rank.append(rng.randint(0, 1) if p == 0 else 0)
    return RankedTree(tuple(parent), tuple(rank))


# Root 0 (rank 3) over the rank-2 node 1 (over leaf 2), the rank-2 node 3
# (over the rank-1 node 4 with leaf 5, and leaves 6 and 7), the childless
# rank-1 nodes 8 and 9, and leaves 10 and 11.  The root keeps one of 8 and
# 9 and node 1 takes the other, so each needs a root leaf: 3's spare leaf
# never leaves 3.  With the leaf the root keeps that is three root leaves:
# refuted by counting, with every root filter passed.  One more root leaf,
# and it is accepted.
POOLED_SPARE = RankedTree(
    (-1, 0, 1, 0, 3, 4, 3, 3, 0, 0, 0, 0), (3, 2, 0, 2, 1, 0, 0, 0, 1, 1, 0, 0)
)


def random_rank_three_tree(rng, n):
    """A rank-3 root over n - 1 nodes, each below the root or an earlier node
    of positive rank, with a rank below its parent's."""
    parent, rank = [-1], [3]
    for _ in range(1, n):
        p = rng.choice([0] + [x for x in range(1, len(rank)) if rank[x] > 0])
        parent.append(p)
        rank.append(rng.randrange(rank[p]))
    return RankedTree(tuple(parent), tuple(rank))


def largest_export(n, seed):
    """The largest tree exported from a seeded op log with 3n operations."""
    trees = [e.tree for e in export_trees(replay(random_oplog(n, 3 * n, seed)))]
    return max(trees, key=lambda t: t.node_count)


def mutated_engine_tree(s):
    """Tree s of the oracle sweep: an engine tree of 10-18 nodes, mutated three times."""
    t = random_uf_tree(10 + s % 9, s)
    for k in range(3):
        t = mutate(t, 1000 * s + k)
    return t


# sweep tree -> its smallest deciding budget when rank 3 is backtracked;
# the test ids name the tree only
KEEP_CAP_SWEEP = {197: 8, 1070: 5, 1390: 5, 339: 5, 440: 5, 1088: 5, 1438: 13}
PULL_FLOOR_SWEEP = {82: 6, 258: 8, 535: 8, 544: 5, 917: 18}


def has_rank_two(st, kids):
    """Whether a counted subproblem is of rank 3: it has a rank-2 child."""
    return any(st.rank[c] == 2 for c in kids)


@pytest.fixture
def backtracked_rank_three(monkeypatch):
    """Rank-3 subproblems backtracked instead of counted, so trees of rank 3
    still exercise the keep stage, placement and the pull walk; rank-2
    subproblems stay counted."""
    count, backtrack = recognize._by_counting, recognize._backtrack
    monkeypatch.setattr(
        recognize,
        "_by_counting",
        lambda st, kids: backtrack(st, 3, kids) if has_rank_two(st, kids) else count(st, kids),
    )


@pytest.fixture
def searched(monkeypatch):
    """The donor rule declines every tree, so a tree that passes the root
    filters goes to the search: for the tests that pin the search's
    effort, walks, certificates and subproblems."""
    monkeypatch.setattr(recognize, "_by_donors", lambda *args: None)


def assert_decided_at_its_budget_as_the_oracle_says(s, ticks):
    t = mutated_engine_tree(s)
    verdict = is_union_find_tree(t, budget=ticks)
    assert verdict.reason != REASON_BUDGET
    assert is_union_find_tree(t, budget=ticks - 1).reason == REASON_BUDGET
    assert verdict.accepted == brute_force_is_uf(t, max_nodes=64), s
    if verdict.certificate is not None:
        assert check_certificate(t, verdict.certificate), s


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

    @pytest.mark.parametrize("x", [-1, 1])
    def test_unknown_node_is_refused(self, x):
        with pytest.raises(ValueError, match="unknown node id"):
            satisfies_union_condition(singleton(), x)


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

    def test_matches_the_definition(self):
        # random trees repeat child ranks and leave gaps; engine trees built
        # by merges alone, relabeled, are Union trees
        rng = random.Random(0)
        trees = list(enumerate_trees(7))
        trees += [random_valid_tree(rng, rng.randint(1, 40), rng.randint(0, 2)) for _ in range(300)]
        trees += [relabel(random_uf_tree(n, s, collapse_prob=0.0), s) for n in (5, 40) for s in range(20)]
        verdicts = []
        for t in trees:
            expected = all(satisfies_union_condition(t, x) for x in range(t.node_count))
            assert is_union_tree(t) == expected, (t.parent, t.rank)
            verdicts.append(expected)
        assert any(verdicts) and not all(verdicts)


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

    @pytest.mark.parametrize(
        "build, nodes, steps",
        [(many_needy_classes, 47_520, 1000), (many_free_classes, 49_952, 1)],
        ids=["needy", "free"],
    )
    def test_classes_take_no_stack_frames(self, build, nodes, steps):
        # a frame per needy class to keep, or per free class to pull from,
        # would overflow at 1,000 classes
        t = build(1000)
        assert t.node_count == nodes
        verdict = is_union_find_tree(t)
        assert verdict.reason == REASON_CERTIFICATE
        assert len(verdict.certificate) == steps
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
        index = recognize._index(t, set(zip(t.parent, t.rank)))
        st = _Search(t, None, index)
        # the rule's non-Union nodes, bottom-up, are the search's, and their
        # child lists complete into the child table
        needy = index[0]
        assert sorted(needy) == [x for x in range(t.node_count) if not st.union[x]]
        assert [t.rank[x] for x in needy] == sorted(t.rank[x] for x in needy)
        assert list(map(list, st.table)) == t.child_table()
        for x in range(t.node_count):
            sub, _ = subtree(t, x)
            assert st.surplus[x] == 2 * sub.rank.count(0) - sub.node_count
            assert st.size[x] == sub.node_count
            assert st.union[x] == is_union_tree(sub)

    @pytest.mark.parametrize(
        "build, ticks",
        [
            (lambda: make_flat_tree(parse_instance("1,2,3,4,4;2")).tree, 11),
            (lambda: make_flat_tree(parse_instance("1,1,4;2")).tree, 5),
            (lambda: make_flat_tree(parse_instance("3,3,2,2,2;2")).tree, 9),
            # the gadget tail probe: splits that overfill a basket are never
            # tried, and no keep vector keeps an apple
            (lambda: make_flat_tree(parse_instance("9,8,7,6,5,4,3,2,2,2;3")).tree, 17),
            (lambda: random_uf_tree(60, 0), 21),
            (lambda: random_uf_tree(100, 0), 26),
            # pull vectors below a rank's floor are never walked or ticked
            (lambda: random_uf_tree(100, 1), 384),
            (lambda: random_uf_tree(200, 4), 41),
            (lambda: random_uf_tree(400, 1), 834),
            (lambda: random_uf_tree(400, 2), 1913),
            # most of its ticks are keep counts the per-rank test refutes
            (lambda: random_uf_tree(400, 7), 1496),
            # unsolvable: the search refutes it
            (lambda: make_flat_tree(parse_instance("4,4,5,1,9,9,7,1;4")).tree, 20),
            # a rank-3 root: decided by counting, in the root's one tick
            (lambda: wide_tree(900), 1),
            # the same effort under any labeling of the same trees
            (lambda: relabel(make_flat_tree(parse_instance("1,2,3,4,4;2")).tree), 11),
            (lambda: relabel(make_flat_tree(parse_instance("1,2,3,4,4;2")).tree, 3), 11),
            (lambda: relabel(random_uf_tree(200, 4)), 41),
            (lambda: relabel(random_uf_tree(200, 4), 3), 41),
            # refuted: candidates too small for their rank are never searched
            (lambda: SIZE_REFUTED, 13),
            # a free target pulled below an earlier target receives nothing
            (lambda: random_uf_tree(200, 15), 268),
            # rank 3, so counted; the walk resumes past a free target left
            # untouched when it is backtracked (see the corpora-miss test)
            (lambda: RESUMED_PAST_FREE, 1),
            # a walk through every target that leaves a pushed child over
            (lambda: LEFT_OVER, 10),
            # rank 2 and rank 3 are decided by counting, in the root's one tick
            (lambda: RANK_TWO_REFUTED, 1),
            (lambda: POOLED_SPARE, 1),
        ],
        ids=[
            "flat-12344", "flat-114", "flat-33222", "flat-probe3", "uf60", "uf100",
            "uf100-s1", "uf200-s4", "uf400-s1", "uf400-s2", "uf400-s7", "flat-44519971",
            "wide-k900", "flat-12344-reversed", "flat-12344-shuffled", "uf200-s4-reversed",
            "uf200-s4-shuffled", "size-refuted", "uf200-s15", "resumed-past-free", "left-over",
            "rank-two-refuted", "rank-three-refuted",
        ],
    )
    def test_search_effort_is_pinned(self, build, ticks, searched):
        # the smallest deciding budget: a change here changes the search itself
        t = build()
        verdict = is_union_find_tree(t, budget=ticks)
        assert verdict.reason != REASON_BUDGET
        assert is_union_find_tree(t, budget=ticks - 1).reason == REASON_BUDGET
        if verdict.certificate is not None:
            assert check_certificate(t, verdict.certificate)

    def test_benchmark_corpora_are_searched_as_pinned(self, tmp_path, monkeypatch, searched):
        # verdict, ticks and certificate of the 71 seed-0 instances of the
        # engine-positives, gadget-yes and gadget-no benchmark corpora at
        # budget 20,000, in corpus order; an exhausted run counts as 20,001.
        # The answers are also pinned apart from the ticks, so a change of
        # effort cannot carry a change of certificate with it.
        instances = benchmark_corpus(tmp_path, monkeypatch)
        used = [0]
        tick = _Search.tick

        def counted(search, count=1):
            used[0] += count
            tick(search, count)

        monkeypatch.setattr(_Search, "tick", counted)
        digest, answers = hashlib.sha256(), hashlib.sha256()
        for inst in instances:
            used[0] = 0
            verdict = is_union_find_tree(inst.tree, budget=20_000)
            ticks = 20_001 if verdict.reason == REASON_BUDGET else used[0]
            steps = verdict.certificate.steps if verdict.certificate else None
            digest.update(repr((inst.id, verdict.reason, ticks, steps)).encode())
            answers.update(repr((inst.id, verdict.reason, steps)).encode())
        assert len(instances) == 71
        assert answers.hexdigest() == (
            "9505bd7df63da28f7d9b634737c5d7df5360a4d6d80d9e79ba084c04fb4d5dc0"
        )
        assert digest.hexdigest() == (
            "b082864637ce4f9ca3647ccb09b1ff9cfd2ce8bf534e8c48b34ea49e6381acd4"
        )

    def test_a_decided_pull_vector_is_ticked_once(self, tmp_path, monkeypatch):
        # over the 71 seed-0 benchmark instances at budget 20,000, the pull
        # walk charges nothing itself, and each decision one tick
        instances = benchmark_corpus(tmp_path, monkeypatch)
        ticks, decided = collections.Counter(), []
        tick, decide = _Search.tick, recognize._decide

        def counted(search, count=1):
            ticks[sys._getframe(1).f_code.co_name] += count
            tick(search, count)

        monkeypatch.setattr(_Search, "tick", counted)
        monkeypatch.setattr(recognize, "_decide", lambda *a: decided.append(1) or decide(*a))
        for inst in instances:
            is_union_find_tree(inst.tree, budget=20_000)
        assert "_iter_pulls" not in ticks
        assert ticks["_decide"] == len(decided) > 0

    def test_pull_walk_cost_is_pinned(self, tmp_path, monkeypatch, searched):
        # prefixes the candidate and split walks visit over the 37 seed-0
        # engine-positives trees at budget 20,000: work that ticks miss
        instances = benchmark_corpus(tmp_path, monkeypatch, gadgets=False)
        prefixes = count_stage_entries(monkeypatch, "choose")
        for inst in instances:
            is_union_find_tree(inst.tree, budget=20_000)
        assert len(instances) == 37
        assert prefixes[0] == 6741

    def test_keep_walk_cost_is_pinned(self, tmp_path, monkeypatch, searched):
        # keep levels entered over the 37 seed-0 engine-positives trees at
        # budget 20,000; walking below keep counts the per-rank test refutes
        # entered 22,062
        instances = benchmark_corpus(tmp_path, monkeypatch, gadgets=False)
        entered = count_stage_entries(monkeypatch, "keep")
        for inst in instances:
            is_union_find_tree(inst.tree, budget=20_000)
        assert len(instances) == 37
        assert entered[0] == 354

    def test_rank_two_subproblems_agree_with_the_oracle(self):
        # every rank-2 tree of 7 nodes, and seeded random ones of up to 10
        # nodes with their mutants: the closed form decides each search
        rng = random.Random(2)
        trees = [t for t in enumerate_trees(7) if t.root_rank == 2]
        assert len(trees) == 74
        for _ in range(200):
            t = random_rank_two_tree(rng, rng.randint(4, 10))
            trees += [t, mutate(t, rng.randrange(1 << 30))]
        reasons = collections.Counter()
        for t in trees:
            verdict = is_union_find_tree(t)
            assert verdict.accepted == brute_force_is_uf(t), (t.parent, t.rank)
            if verdict.certificate is not None:
                assert check_certificate(t, verdict.certificate), (t.parent, t.rank)
            reasons[verdict.reason] += 1
        assert reasons[REASON_CERTIFICATE] > 0 and reasons[REASON_SEARCH] > 0

    def test_rank_two_subproblems_are_counted_by_the_rank_two_rule(self, monkeypatch, searched):
        # every rank-2 tree of 7 nodes, seeded random ones of up to 12 nodes
        # with their mutants, and the rank-2 children met inside rank-3
        # subproblems: counting makes the plan the rank-2 rule makes
        rng = random.Random(5)
        trees = [t for t in enumerate_trees(7) if t.root_rank == 2]
        for _ in range(300):
            t = random_rank_two_tree(rng, rng.randint(4, 12))
            trees += [t, mutate(t, rng.randrange(1 << 30))]
        decided = collections.Counter()
        for t in trees:
            if t.root_rank == 2:
                st = _Search(t, None, recognize._index(t, set(zip(t.parent, t.rank))))
                plan = recognize._by_counting(st, st.table[t.root])
                assert plan == reference_rank_two(st, st.table[t.root]), (t.parent, t.rank)
                decided[plan is not None] += 1
        assert decided[True] > 100 and decided[False] > 100
        count, inner = recognize._by_counting, collections.Counter()

        def checked(st, kids):
            plan = count(st, kids)
            if not has_rank_two(st, kids):
                assert plan == reference_rank_two(st, kids), kids
                inner[plan is not None] += 1
            return plan

        monkeypatch.setattr(recognize, "_by_counting", checked)
        for _ in range(1000):
            is_union_find_tree(random_rank_three_tree(rng, rng.randint(8, 40)))
        assert inner[True] > 400, inner

    def test_a_wide_rank_two_tree_is_decided_in_one_tick(self, searched):
        # a rank-2 root over k childless rank-1 nodes and k + 1 leaves; the
        # generic search spent 100,001 ticks on it: the root's, a keep level
        # and its vector, and per childless rank-1 child its split and its
        # decided pull
        k = 49_999
        t = RankedTree((-1,) + (0,) * (2 * k + 1), (2,) + (1,) * k + (0,) * (k + 1))
        assert t.node_count == 100_000
        verdict = is_union_find_tree(t, budget=1)
        assert verdict.reason == REASON_CERTIFICATE
        assert len(verdict.certificate) == 49_999
        assert check_certificate(t, verdict.certificate)
        assert is_union_find_tree(t, budget=0).reason == REASON_BUDGET

    def test_a_rank_two_refutation_costs_the_root_tick(self):
        # the generic search ran out of budget 1 here, in its keep stage
        t = RANK_TWO_REFUTED
        assert count_filter(t) and t.node_count >= 1 << t.root_rank
        assert satisfies_union_condition(t, t.root) and not is_union_tree(t)
        assert is_union_find_tree(t, budget=1).reason == REASON_SEARCH
        assert not brute_force_is_uf(t)

    def test_rank_three_subproblems_agree_with_the_oracle(self):
        # seeded random rank-3 trees of 8-13 nodes with their mutants;
        # enumerate_trees stops at 7 nodes, below the smallest rank-3 tree
        rng = random.Random(3)
        reasons = collections.Counter()
        for _ in range(1000):
            t = random_rank_three_tree(rng, rng.randint(8, 13))
            for u in (t, mutate(t, rng.randrange(1 << 30))):
                verdict = is_union_find_tree(u)
                assert verdict.accepted == brute_force_is_uf(u, max_nodes=13), (u.parent, u.rank)
                if verdict.certificate is not None:
                    assert check_certificate(u, verdict.certificate), (u.parent, u.rank)
                reasons[verdict.reason] += 1
        assert reasons[REASON_CERTIFICATE] > 0 and reasons[REASON_SEARCH] > 0

    def test_spare_leaves_serve_only_their_own_rank_two_child(self):
        # pooling every spare leaf would accept POOLED_SPARE
        t = POOLED_SPARE
        more = RankedTree(t.parent + (0,), t.rank + (0,))
        assert (t.node_count, more.node_count) == (12, 13)
        assert is_union_find_tree(t).reason == REASON_SEARCH
        assert not brute_force_is_uf(t, max_nodes=13)
        verdict = is_union_find_tree(more)
        assert verdict.reason == REASON_CERTIFICATE
        assert check_certificate(more, verdict.certificate)
        assert brute_force_is_uf(more, max_nodes=13)

    def test_a_wide_rank_three_tree_is_decided_in_one_tick(self, searched):
        # a rank-3 root over a Union rank-2 node, k childless rank-1 nodes
        # and k + 1 leaves; the generic search spent 99,997 ticks on it: per
        # childless rank-1 child its split and its decided pull
        k = 49_997
        parent = (-1, 0, 1, 1, 3) + (0,) * (2 * k + 1)
        t = RankedTree(parent, (3, 2, 0, 1, 0) + (1,) * k + (0,) * (k + 1))
        assert t.node_count == 100_000
        verdict = is_union_find_tree(t, budget=1)
        assert verdict.reason == REASON_CERTIFICATE
        assert len(verdict.certificate) == 49_997
        assert check_certificate(t, verdict.certificate)
        assert is_union_find_tree(t, budget=0).reason == REASON_BUDGET

    def test_a_rank_three_refutation_costs_the_root_tick(self):
        t = POOLED_SPARE
        assert count_filter(t) and t.node_count >= 1 << t.root_rank
        assert satisfies_union_condition(t, t.root) and not is_union_tree(t)
        assert is_union_find_tree(t, budget=1).reason == REASON_SEARCH

    def test_search_rejection_names_the_search(self):
        # the root passes every filter; a filter that fired in some abandoned
        # sub-branch explains nothing about the whole tree
        verdict = is_union_find_tree(make_flat_tree(parse_instance("1,1,4;2")).tree)
        assert not verdict.accepted
        assert verdict.reason == REASON_SEARCH

    def test_search_paths_the_corpora_miss_give_their_verdicts(
        self, backtracked_rank_three, searched
    ):
        # the new cases of test_search_effort_is_pinned: a candidate the
        # size filter refutes, a free target pulled below an earlier one, a
        # walk resumed past an untouched free target (at rank 3, so it is
        # backtracked here), and a walk that ends with a pushed child left
        # over
        assert is_union_find_tree(SIZE_REFUTED).reason == REASON_SEARCH
        assert is_union_find_tree(LEFT_OVER).reason == REASON_SEARCH
        verdict = is_union_find_tree(random_uf_tree(200, 15))
        assert verdict.reason == REASON_CERTIFICATE
        assert len(verdict.certificate) == 23
        assert is_union_find_tree(RESUMED_PAST_FREE).reason == REASON_SEARCH
        assert not brute_force_is_uf(RESUMED_PAST_FREE, max_nodes=18)

    @pytest.mark.parametrize("n, s", [(31, 6019), (20, 48844)])
    def test_same_rank_pulls_that_overdraw_the_root_together_are_skipped(
        self, n, s, backtracked_rank_three
    ):
        # two free classes of one rank can each fit that rank's slack yet
        # take its last root child together; the pull walk's ceiling on the
        # rank's sum never generates such a vector.  Without the ceiling both
        # trees are accepted with certificates that do not replay.  The
        # oracle rejects the 20-node tree too, in about 35 s.
        t = random_uf_tree(n, s, 0.4)
        for k in range(4):
            t = mutate(t, 7919 * s + k)
        assert is_union_find_tree(t).reason == REASON_SEARCH

    def test_pulls_of_positive_rank_free_children_count_toward_the_surplus_pool(
        self, backtracked_rank_three
    ):
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

    @pytest.mark.parametrize(
        "t, accepted, ticks",
        [
            # root 0 (rank 3) over leaf 1, the childless rank-1 nodes 2 and 3
            # (surplus -1 each), a free rank-1 node 4 and a free rank-2 node.
            # Below rank 1 the root has only its own leaf, which must stay,
            # so neither 2 nor 3 is ever kept: both go below the rank-2
            # node.  Its surplus is 3 here, and 1 in the next tree, where 4
            # cannot be pulled in to help, as the root must keep a rank-1
            # child.
            (
                RankedTree(
                    (-1, 0, 0, 0, 0, 4, 0, 6, 6, 6, 6, 6, 11),
                    (3, 0, 1, 1, 1, 0, 2, 0, 0, 0, 0, 1, 0),
                ),
                True,
                5,
            ),
            (
                RankedTree(
                    (-1, 0, 0, 0, 0, 4, 4, 0, 7, 7, 7, 10),
                    (3, 0, 1, 1, 1, 0, 0, 2, 0, 0, 1, 0),
                ),
                False,
                3,
            ),
            # root 0 (rank 4) over a leaf, free children of ranks 1 and 2,
            # the rank-3 node 8 (surplus -1), which nothing outranks, and the
            # needy rank-2 node 13 over four leaves (surplus 3).  Only
            # pushing 13 below 8 repays 8, so the cap must count it.
            (
                RankedTree(
                    (-1, 0, 0, 2, 0, 4, 4, 6, 0, 8, 8, 8, 8, 0, 13, 13, 13, 13),
                    (4, 0, 1, 0, 2, 0, 1, 0, 3, 0, 0, 1, 1, 2, 0, 0, 0, 0),
                ),
                True,
                14,
            ),
        ],
        ids=["accept", "reject", "needy-graft"],
    )
    def test_a_needy_class_keeps_no_more_than_lower_ranks_can_repay(
        self, t, accepted, ticks, backtracked_rank_three
    ):
        # the budgets are the smallest that decide with rank 3 backtracked
        verdict = is_union_find_tree(t, budget=ticks)
        assert verdict.reason == (REASON_CERTIFICATE if accepted else REASON_SEARCH)
        assert brute_force_is_uf(t, max_nodes=18) == accepted
        assert is_union_find_tree(t, budget=ticks - 1).reason == REASON_BUDGET
        if accepted:
            assert check_certificate(t, verdict.certificate)

    @pytest.mark.parametrize("s", KEEP_CAP_SWEEP)
    def test_keep_caps_agree_with_the_oracle_on_sweep_trees(
        self, s, backtracked_rank_three, searched
    ):
        # trees of the 1,500-tree oracle sweep on which the keep stage caps a
        # needy class below its size, at their smallest deciding budget
        assert_decided_at_its_budget_as_the_oracle_says(s, KEEP_CAP_SWEEP[s])

    @pytest.mark.parametrize("s", PULL_FLOOR_SWEEP)
    def test_pull_floors_agree_with_the_oracle_on_sweep_trees(
        self, s, backtracked_rank_three, searched
    ):
        # trees of the 1,500-tree oracle sweep on which a rank's pull floor
        # of 2 or more cuts a vector that covers every missing rank, at
        # their smallest deciding budget
        assert_decided_at_its_budget_as_the_oracle_says(s, PULL_FLOOR_SWEEP[s])

    def test_candidate_key_is_the_canonical_key_of_the_enriched_subtree(self):
        flat = make_flat_tree(parse_instance("1,2,3,4,4;2"))
        t, basket, apples = flat.tree, flat.basket_roots[0], list(flat.apple_roots[:2])
        table = t.child_table()
        keys = subtree_keys(t, table)
        enriched, _ = subtree(push(push(t, apples[0], basket), apples[1], basket), basket)
        child_keys = [keys[c] for c in table[basket]] + [keys[a] for a in apples]
        assert node_key(t.rank[basket], child_keys) == canonical_key(enriched)

    def test_memo_hits_skip_canonicalization(self, monkeypatch):
        # canonicalizing every candidate before the memo lookup would take
        # 321; canonicalizing every success with steps took 16
        calls = record_canonical_forms(monkeypatch)
        assert is_union_find_tree(make_flat_tree(parse_instance("1,2,3,4,4;2")).tree).accepted
        assert len(calls) <= 6

    def test_benchmark_corpora_canonicalize_as_pinned(self, tmp_path, monkeypatch, searched):
        # canonical_form calls and nodes over the 71 seed-0 benchmark
        # instances at budget 20,000: only a part of the winning plan that
        # reuses the steps of an isomorphic twin is canonicalized, once per
        # side.  Storing every success in canonical ids took 759 calls over
        # 13,432 nodes, and translating the steps of every success, winning
        # or not, 76 over 886.
        instances = benchmark_corpus(tmp_path, monkeypatch)
        nodes = record_canonical_forms(monkeypatch)
        for inst in instances:
            is_union_find_tree(inst.tree, budget=20_000)
        assert (len(nodes), sum(nodes)) == (54, 762)

    def test_a_twin_reuses_the_steps_found_at_its_isomorphic_sibling(self, monkeypatch, searched):
        # root 0 (rank 4) over Union children of ranks 0-2 and the
        # isomorphic rank-3 nodes 8 and 16, listed in other orders.  Each
        # is a Union tree once a rank-1 child is pushed below its rank-2
        # child, which misses rank 1.  The steps found at 8 are memoized
        # and reused at 16, through both nodes' canonical ids.
        t = RankedTree(
            (-1, 0, 0, 2, 0, 4, 4, 6, 0, 8, 8, 10, 8, 12, 8, 14, 0, 16, 17, 16, 19, 16, 16, 22),
            (4, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 1, 0, 2, 0, 3, 2, 0, 1, 0, 0, 1, 0),
        )
        translated = []
        canonical_ids = recognize._canonical_ids
        monkeypatch.setattr(
            recognize,
            "_canonical_ids",
            lambda st, x, grafted: translated.append(x) or canonical_ids(st, x, grafted),
        )
        verdict = is_union_find_tree(t)
        assert verdict.certificate.steps == ((12, 14), (22, 17))
        assert check_certificate(t, verdict.certificate)
        assert translated == [8, 16]  # the origin, then its twin

    def test_a_twin_plan_is_built_once_per_key(self, monkeypatch):
        # root 0 (rank 4) over the isomorphic rank-3 nodes 8 and 22 and Union
        # children of ranks 0-2.  Below each rank-3 node, two rank-2 nodes
        # over three leaves each take a childless rank-1 sibling and push a
        # leaf below it, so the second rank-2 node is a twin of the first,
        # and 22 a twin of 8.  Building 8's plan once for both sides takes
        # four canonicalizations; building it again for 22 took six.
        leaf = binomial(0)
        x = (3, [(2, [leaf] * 3), (2, [leaf] * 3), (1, []), (1, []), (1, [leaf]), leaf])
        t = from_spec((4, [x, x, binomial(2), binomial(1), leaf]))
        nodes = record_canonical_forms(monkeypatch)
        verdict = is_union_find_tree(t)
        assert verdict.certificate.steps == (
            (12, 18), (13, 14), (17, 13), (21, 12), (26, 32), (27, 28), (31, 27), (35, 26)
        )
        assert check_certificate(t, verdict.certificate)
        assert nodes == [5, 5, 14, 14]

    def test_pulls_are_decided_without_materializing_the_full_pull(self, monkeypatch):
        # probing the all-available pull first canonicalized 11,870 nodes here
        nodes = record_canonical_forms(monkeypatch)
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

    @pytest.mark.parametrize(
        "call",
        [
            is_union_find_tree,
            lambda t: check_certificate(t, Certificate(())),
            brute_force_is_uf,
            lambda t: mutate(t, 0),
        ],
        ids=["recognize", "replay", "oracle", "mutate"],
    )
    def test_a_new_invalid_tree_raises_every_time(self, call):
        # nodes 1 and 2 are each other's parent: a cycle the Union count misses
        t = RankedTree((-1, 2, 1), (3, 1, 1))
        for _ in range(2):  # the kept result raises as the first check did
            with pytest.raises(InvalidTreeError, match="cyclic-parent-chain"):
                call(t)

    def test_a_parsed_tree_is_validated_once(self, monkeypatch):
        # parse_tree, recognition and replay share the validity kept on the
        # tree; each used to run the whole-array passes again
        passes = []
        invariants = tree._invariants
        monkeypatch.setattr(tree, "_invariants", lambda t: passes.append(t) or invariants(t))
        t = parse_tree(serialize_tree(make_flat_tree(parse_instance("1,2,3,4,4;2")).tree))
        verdict = is_union_find_tree(t)
        assert verdict.reason == REASON_CERTIFICATE
        assert check_certificate(t, verdict.certificate)
        assert passes == [t]

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
        # engine trees of 10-18 nodes, each mutated three times, small enough
        # for the oracle.  Their roots have rank 2 or 3, so they are decided
        # by counting; the next test holds the backtracking to the counting
        # on the same trees.
        negatives = 0
        for s in range(300):
            t = mutated_engine_tree(s)
            verdict = is_union_find_tree(t)
            assert verdict.accepted == brute_force_is_uf(t, max_nodes=64), s
            if verdict.certificate is not None:
                assert check_certificate(t, verdict.certificate), s
            negatives += not verdict.accepted
        assert negatives >= 50

    def test_root_reasons_follow_the_per_node_checks(self):
        # every tree of up to 7 nodes and every tree of the 1,500-tree oracle
        # sweep: the one pair set gives the Union test and the missing-rank
        # filter the answers of the per-node Union condition, in the old
        # order of the root filters; the oracle settles the small searches
        trees = list(enumerate_trees(7))
        trees += [mutated_engine_tree(s) for s in range(1500)]
        reasons = collections.Counter()
        for t in trees:
            root = t.root
            if all(satisfies_union_condition(t, x) for x in range(t.node_count)):
                expected = {REASON_UNION_TREE}
            elif not count_filter(t):
                expected = {REASON_COUNT_FILTER}
            elif t.node_count < 1 << t.rank[root]:
                expected = {REASON_RANK_RANGE}
            elif not satisfies_union_condition(t, root):
                expected = {REASON_MISSING_RANK}
            elif t.node_count <= 10:
                expected = {REASON_CERTIFICATE if brute_force_is_uf(t) else REASON_SEARCH}
            else:
                expected = {REASON_CERTIFICATE, REASON_SEARCH}
            reason = is_union_find_tree(t).reason
            assert reason in expected, (t.parent, t.rank)
            reasons[reason] += 1
        assert min(reasons.values()) > 0 and len(reasons) == 6, reasons

    def test_rank_three_counting_agrees_with_the_backtracking(self, monkeypatch, searched):
        # every rank-3 subproblem of the previous test's trees, of random
        # rank-3 trees of up to 40 nodes and of small engine trees, each
        # also mutated, is decided both ways; rank-2 ones are only counted
        decided = collections.Counter()
        count = recognize._by_counting

        def both(st, kids):
            plan = count(st, kids)
            if has_rank_two(st, kids):
                assert (plan is None) == (recognize._backtrack(st, 3, kids) is None), kids
                decided[plan is not None] += 1
            return plan

        monkeypatch.setattr(recognize, "_by_counting", both)
        rng = random.Random(4)
        trees = [random_rank_three_tree(rng, rng.randint(8, 40)) for _ in range(2000)]
        trees += [random_uf_tree(n, s) for n in (40, 80) for s in range(20)]
        trees += [mutate(t, s) for s, t in enumerate(trees)]
        trees += [mutated_engine_tree(s) for s in range(300)]
        for t in trees:
            verdict = is_union_find_tree(t)
            if verdict.certificate is not None:
                assert check_certificate(t, verdict.certificate), (t.parent, t.rank)
        assert decided[True] > 1000 and decided[False] > 1000

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


def engine_shapes() -> list[RankedTree]:
    """The 38 shapes of the engine-positives benchmark corpus and of the wide
    tree its known-defects run checks."""
    trees = [random_uf_tree(n, s) for n in (100, 200, 400, 800) for s in range(8)]
    trees += [largest_export(n, 1) for n in (500, 1000, 2000)]
    return trees + [wide_tree(k) for k in (200, 900, 1200)]


class TestDonorRule:
    # The rule costs no ticks and the search spends one at its root, so at
    # budget 0 a certificate comes from the rule and search-exhausted means
    # the rule declined.

    def test_engine_positive_shapes_are_accepted_without_the_search(self):
        # at budget 20,000 the search left 11 of them exhausted
        trees = engine_shapes()
        # the donors each node is handed, apart from the order of the steps
        digest, steps = hashlib.sha256(), 0
        for t in trees:
            verdict = is_union_find_tree(t, budget=0)
            assert verdict.reason == REASON_CERTIFICATE, t.node_count
            assert check_certificate(t, verdict.certificate), t.node_count
            digest.update(repr(sorted(verdict.certificate.steps)).encode())
            steps += len(verdict.certificate)
        assert len(trees) == 38
        assert steps == 1445
        assert digest.hexdigest() == (
            "14764a6baf3997f98633bea0cf0f0695be2d35021ff573766913588814cc4f6d"
        )

    def test_an_accepted_tree_builds_no_search_index(self, monkeypatch):
        # the rule reads only the non-Union nodes and their children; the
        # child table of every node and the subtree keys are the search's
        calls = []
        table, keys, search = RankedTree.child_table, recognize.subtree_keys, _Search
        monkeypatch.setattr(RankedTree, "child_table", lambda t: calls.append(t) or table(t))
        monkeypatch.setattr(recognize, "subtree_keys", lambda *a: calls.append(a) or keys(*a))
        monkeypatch.setattr(recognize, "_Search", lambda *a: calls.append(a) or search(*a))
        for t in engine_shapes():
            assert is_union_find_tree(t, budget=0).reason == REASON_CERTIFICATE, t.node_count
        assert calls == []

    def test_a_20000_node_engine_tree_is_accepted_without_the_search(self):
        t = random_uf_tree(20_000, 0)
        verdict = is_union_find_tree(t, budget=0)
        assert verdict.reason == REASON_CERTIFICATE
        assert check_certificate(t, verdict.certificate)
        assert len(verdict.certificate) == 1935

    def test_a_needy_child_that_must_go_below_a_sibling_is_left_to_the_search(self):
        # sweep tree 51: the root's rank-1 children 2 and 3 each miss rank
        # 0, and the root has two leaves, one of which it keeps.  A
        # certificate pushes 3 below the rank-2 child 5, where 3 takes one
        # of 5's spare leaves.  The rule never moves a node that misses a
        # rank, so 2 and 3 both want a root leaf and it declines this
        # positive; a rule that closes the gap flips the first assert.
        t = mutated_engine_tree(51)
        assert t.node_count == 16
        assert is_union_find_tree(t, budget=0).reason == REASON_BUDGET
        verdict = is_union_find_tree(t)
        assert verdict.reason == REASON_CERTIFICATE
        assert check_certificate(t, verdict.certificate)
        assert brute_force_is_uf(t, max_nodes=64)

    @pytest.mark.parametrize(
        "trees, reasons",
        [
            (
                lambda: enumerate_trees(7),
                {REASON_COUNT_FILTER: 982, REASON_RANK_RANGE: 138, REASON_UNION_TREE: 20,
                 REASON_MISSING_RANK: 13, REASON_CERTIFICATE: 9, REASON_BUDGET: 2},
            ),
            # of the 246 oracle positives among sweep trees 0-299, 104 are
            # Union trees and the rule accepts all but one of the rest
            (
                lambda: map(mutated_engine_tree, range(1500)),
                {REASON_UNION_TREE: 484, REASON_COUNT_FILTER: 15, REASON_MISSING_RANK: 60,
                 REASON_CERTIFICATE: 744, REASON_BUDGET: 197},
            ),
        ],
        ids=["upto7", "sweep"],
    )
    def test_accepts_only_what_the_oracle_accepts(self, trees, reasons):
        seen = collections.Counter()
        for t in trees():
            verdict = is_union_find_tree(t, budget=0)
            if verdict.reason == REASON_CERTIFICATE:
                assert check_certificate(t, verdict.certificate), (t.parent, t.rank)
                assert brute_force_is_uf(t, max_nodes=64), (t.parent, t.rank)
            seen[verdict.reason] += 1
        assert seen == reasons

    def test_partition_gadgets_go_to_the_search(self, tmp_path, monkeypatch):
        # every seed-0 gadget-yes and gadget-no instance: an apple wants its
        # weight in leaves and the root has one, so the root wants leaves and
        # the rule declines
        gadgets = [inst for inst in benchmark_corpus(tmp_path, monkeypatch) if inst.flat]
        assert len(gadgets) == 34
        for inst in gadgets:
            assert is_union_find_tree(inst.tree, budget=0).reason == REASON_BUDGET, inst.id


def reference_candidates(limits, minima, balances, deficit, groups, floors, ceilings):
    """Every vector up to the limits by total, then lexicographically, less
    those short of the deficit, those whose coordinates in some group sum
    below its floor or above its ceiling, and those at or above a recorded
    minimum."""
    space = itertools.product(*(range(limit + 1) for limit in limits))
    for vec in sorted(space, key=lambda vec: (sum(vec), vec)):
        if sum(v * b for v, b in zip(vec, balances)) < deficit:
            continue
        sums = [sum(v for v, g in zip(vec, groups) if g == h) for h in range(len(floors))]
        if any(not low <= total <= high for total, low, high in zip(sums, floors, ceilings)):
            continue
        if any(all(v >= m for v, m in zip(vec, low)) for low in minima):
            continue
        yield vec


def consumed(enumerate_, limits, balances, deficit, succeeds, groups, floors, ceilings):
    """The vectors an enumeration yields to a consumer that records each
    success as a minimum, the way the pull search does.  The enumeration
    leaves its other arguments as it found them."""
    minima, seen = [], []
    arguments = limits, balances, groups, floors, ceilings
    before = [list(argument) for argument in arguments]
    for vec in enumerate_(limits, minima, balances, deficit, groups, floors, ceilings):
        seen.append(vec)
        if succeeds(vec):
            minima.append(vec)
    assert [list(argument) for argument in arguments] == before
    return seen


class TestMinimalCandidates:
    # ceilings that do not bind are each group's capacity, the sum of its limits
    @pytest.mark.parametrize(
        "limits, balances, deficit, succeeds, groups, floors, ceilings",
        [
            ([], [], 0, lambda vec: False, [], [0], [0]),
            ([], [], 1, lambda vec: True, [], [0], [0]),
            ([2, 3], [0, 0], 0, lambda vec: False, [0, 1], [0, 0], [2, 3]),
            ([2, 3], [0, 0], 1, lambda vec: True, [0, 1], [0, 0], [2, 3]),
            ([2, 1, 2], [0, 1, 0], 1, lambda vec: sum(vec) == 3, [0, 1, 2], [0, 0, 0], [2, 1, 2]),
            # the zero vector wins
            ([1, 2, 2], [2, 1, 0], -1, lambda vec: True, [0, 1, 2], [0, 0, 0], [1, 2, 2]),
            ([1, 1, 1], [1, 1, 1], 2, lambda vec: vec[0] == 1, [0, 1, 2], [0, 0, 0], [1, 1, 1]),
            # one coordinate takes the whole total
            ([3], [2], 3, lambda vec: True, [0], [0], [3]),
            ([3], [2], 3, lambda vec: False, [0], [0], [3]),
            # a zero limit, and a last limit of zero
            ([0, 2, 0], [1, 1, 1], 1, lambda vec: False, [0, 1, 2], [0, 0, 0], [0, 2, 0]),
            ([2, 0], [1, 5], 1, lambda vec: vec == (2, 0), [0, 1], [0, 0], [2, 0]),
            # several coordinates of one group share its floor
            ([2, 1, 2], [0, 0, 0], 0, lambda vec: False, [0, 1, 0], [3, 0], [4, 1]),
            ([2, 1, 2], [1, 0, 1], 0, lambda vec: vec[1] == 1, [0, 1, 0], [2, 1], [4, 1]),
            # only the full vector
            ([1, 1, 1], [0, 0, 0], 0, lambda vec: False, [0, 0, 0], [3], [3]),
            # a floor above its group's capacity, or on a group with no coordinate
            ([1, 2], [1, 1], 0, lambda vec: True, [0, 1], [2, 0], [1, 2]),
            ([2], [1], 0, lambda vec: True, [0], [0, 1], [2, 0]),
            # floors at or below 0 cut nothing
            ([2, 3], [1, 0], 1, lambda vec: sum(vec) == 2, [0, 1], [-1, -3], [2, 3]),
            # a floored group's minimum still cuts the vectors above it
            ([2, 2, 1], [1, 0, 2], 2, lambda vec: vec[0] >= 1, [1, 0, 1], [1, 1], [2, 3]),
            # two coordinates of one group that fit its ceiling apart, not together
            ([1, 1], [1, 1], 1, lambda vec: False, [0, 0], [0], [1]),
            ([2, 2, 1], [1, 1, 0], 2, lambda vec: vec == (1, 1, 1), [0, 0, 1], [0, 1], [2, 1]),
            # a ceiling of 0 keeps its group out of every vector
            ([2, 2], [1, 1], 1, lambda vec: False, [0, 1], [0, 0], [0, 2]),
            # a ceiling below its group's floor admits nothing
            ([2, 2], [0, 0], 0, lambda vec: True, [0, 1], [2, 0], [1, 2]),
        ],
    )
    def test_edge_cases_match_the_reference(
        self, limits, balances, deficit, succeeds, groups, floors, ceilings
    ):
        case = limits, balances, deficit, succeeds, groups, floors, ceilings
        assert consumed(_minimal_candidates, *case) == consumed(reference_candidates, *case)

    def test_random_cases_match_the_reference(self):
        # the order is part of the contract: search ticks follow it
        for seed in range(400):
            rng = random.Random(seed)
            n = rng.randint(0, 4)
            limits = [rng.randint(0, 3) for _ in range(n)]
            balances = [rng.randint(0, 3) for _ in range(n)]
            deficit = rng.randint(-2, sum(l * b for l, b in zip(limits, balances)) + 1)
            groups = [rng.randint(0, 2) for _ in range(n)]
            # now and then one above a group's capacity, which no vector can meet
            capacity = [sum(l for l, g in zip(limits, groups) if g == h) for h in range(3)]
            floors = [rng.randint(-1, cap + (rng.random() < 0.1)) for cap in capacity]
            rate = rng.random()
            ceilings = [rng.randint(-1, cap) for cap in capacity]

            def succeeds(vec):
                return random.Random(f"{seed}/{vec}").random() < rate

            case = limits, balances, deficit, succeeds, groups, floors, ceilings
            expected = consumed(reference_candidates, *case)
            assert consumed(_minimal_candidates, *case) == expected, case
            # floors at or below 0 and ceilings at capacity leave the
            # unbounded sequence exactly
            unfloored = [min(floor, 0) for floor in floors]
            expected = consumed(reference_candidates, *case[:4], (), (), ())
            got = consumed(_minimal_candidates, *case[:4], groups, unfloored, capacity)
            assert got == expected, case

    def test_coordinates_take_no_stack_frames(self):
        # a frame per coordinate would overflow at 2,000
        walk = _minimal_candidates([1] * 2000, [], [0] * 2000, 0, [0] * 2000, [0], [2000])
        assert next(walk) == (0,) * 2000
        walk = _minimal_candidates([1] * 2000, [], [0] * 2000, 0, [0] * 2000, [2000], [2000])
        assert list(walk) == [(1,) * 2000]


def reference_splits(ranges, weights, lo, hi):
    """The filtered product the split walk must reproduce, order included."""
    return [
        vec
        for vec in itertools.product(*ranges)
        if lo <= sum(v * w for v, w in zip(vec, weights)) <= hi
    ]


def random_split_case(seed):
    """Seeded ranges, weights of either sign and a window, maybe empty."""
    rng = random.Random(seed)
    ranges = []
    for _ in range(rng.randint(0, 4)):
        start = rng.randint(0, 3)
        ranges.append(range(start, start + rng.randint(1, 4)))
    weights = [rng.randint(-4, 4) for _ in ranges]
    lo = rng.randint(-12, 12)
    return ranges, weights, lo, lo + rng.randint(-2, 10)


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
            # a frame per coordinate would overflow at 2,000
            ([range(1, 2)] * 2000, [1] * 2000, 2000, 2000),
        ],
    )
    def test_edge_cases_match_the_reference(self, ranges, weights, lo, hi):
        assert list(_splits(ranges, weights, lo, hi)) == reference_splits(ranges, weights, lo, hi)

    def test_random_cases_match_the_reference(self):
        # the order is part of the contract: the first success must not move
        for seed in range(300):
            ranges, weights, lo, hi = random_split_case(seed)
            expected = reference_splits(ranges, weights, lo, hi)
            assert list(_splits(ranges, weights, lo, hi)) == expected, (ranges, weights, lo, hi)

    def test_every_prefix_walked_leads_to_a_yielded_vector(self, monkeypatch):
        # the random cases, and windows strictly between two multiples of k
        # over weights all k or all -k, which hold no reachable sum although
        # the sums around them do; an interval bound walks those for nothing
        cases = [random_split_case(seed) for seed in range(300)]
        for k, n, sign in itertools.product((2, 3, 4), (3, 6, 9), (1, -1)):
            window = sorted((sign * (k * n + 1), sign * (k * n + k - 1)))
            cases.append(([range(0, 3)] * n, [sign * k] * n, *window))
        entered = count_stage_entries(monkeypatch, "_splits.<locals>.choose")
        for ranges, weights, lo, hi in cases:
            entered[0] = 0
            vectors = list(_splits(ranges, weights, lo, hi))
            assert entered[0] <= len(ranges) * len(vectors), (ranges, weights, lo, hi)


def small_search(budget):
    t = RankedTree((-1, 0), (1, 0))
    return _Search(t, budget, recognize._index(t, {(-1, 1), (0, 0)}))


class TestBudget:
    def test_a_charge_to_exactly_zero_passes_and_the_next_tick_raises(self):
        search = small_search(5)
        search.tick(3)
        search.tick(2)
        with pytest.raises(_BudgetExhausted):
            search.tick()

    def test_a_charge_past_the_budget_raises(self):
        with pytest.raises(_BudgetExhausted):
            small_search(5).tick(6)

    def test_no_budget_never_raises(self):
        search = small_search(None)
        search.tick(10**9)
        search.tick()


def passes_leaf_test(k, cls, per_rank, kept_per_rank, demand):
    """The per-rank test a keep leaf ran, with cls keeping k members."""
    kept, need = list(kept_per_rank), list(demand)
    kept[cls.rank] += k
    for r in cls.missing:
        need[r] += k
    return all(need[r] + max(kept[r], 1) <= per_rank[r] for r in range(len(per_rank)))


@st.composite
def last_classes(draw):
    """A last needy class, its keep counts, and the per-rank counts with
    every other needy class booked."""
    rank = draw(st.integers(1, 6))
    per_rank, kept_per_rank, demand = (
        draw(st.lists(st.integers(0, 6), min_size=rank, max_size=rank)) for _ in range(3)
    )
    cls_rank = draw(st.integers(0, rank - 1))
    missing = [r for r in range(cls_rank) if draw(st.booleans())]
    members = draw(st.integers(1, 6))
    cls = _Class(cls_rank, list(range(members)), 0, [], missing, [])
    counts = range(members, draw(st.integers(0, members)) - 1, -1)
    return cls, counts, per_rank, kept_per_rank, demand


class TestSupplied:
    @given(last_classes())
    @settings(max_examples=400, deadline=None)
    def test_keeps_exactly_the_counts_the_leaf_test_passes(self, case):
        cls, counts, *state = case
        passing = _supplied(cls, counts, *state)
        assert list(passing) == [k for k in counts if passes_leaf_test(k, cls, *state)]
        # the keep stage charges one tick per refuted count
        refuted = [k for k in counts if not passes_leaf_test(k, cls, *state)]
        assert len(counts) - len(passing) == len(refuted)

    @pytest.mark.parametrize("demand_1, expected", [(2, [1, 0]), (3, [])])
    def test_keeping_none_where_no_member_of_the_rank_is_kept(self, demand_1, expected):
        # a rank-1 class of two that misses rank 0, beside one free rank-1
        # child; three kept rank-2 children miss rank 1.  At k = 0 the free
        # child must stay for the root, so it supplies nothing
        cls = _Class(1, [7, 8], 0, [], [0], [])
        counts = range(2, -1, -1)
        state = [3, 3, 3], [0, 0, 3], [0, demand_1, 0]
        assert list(_supplied(cls, counts, *state)) == expected
        assert expected == [k for k in counts if passes_leaf_test(k, cls, *state)]

    def test_a_failing_rank_the_class_does_not_touch_refutes_every_count(self):
        # rank 2 keeps one child and must supply one more, but has only one
        cls = _Class(1, [7, 8, 9], 0, [], [0], [])
        counts = range(3, -1, -1)
        state = [9, 9, 1], [0, 0, 1], [0, 0, 1]
        assert list(_supplied(cls, counts, *state)) == []
        assert not any(passes_leaf_test(k, cls, *state) for k in counts)


@st.composite
def keep_layouts(draw):
    """A root rank, its needy classes as (rank, size, surplus, missing ranks)
    in decreasing rank, and the per-rank counts the keep choice reads."""
    rank = draw(st.integers(1, 5))
    ranks = sorted(draw(st.lists(st.integers(0, rank - 1), min_size=1, max_size=6)), reverse=True)
    classes = []
    for r in ranks:
        missing = [q for q in range(r) if draw(st.booleans())]
        classes.append((r, draw(st.integers(1, 3)), draw(st.integers(-2, 2)), missing))
    free_per_rank = draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank))
    per_rank = [f + sum(c[1] for c in classes if c[0] == r) for r, f in enumerate(free_per_rank)]
    # the root filters leave no rank without a child
    free_per_rank = [f + (n == 0) for f, n in zip(free_per_rank, per_rank)]
    per_rank = [max(n, 1) for n in per_rank]
    gain = draw(st.lists(st.integers(0, 6), min_size=rank, max_size=rank))
    return rank, classes, per_rank, free_per_rank, gain


class TestKeepChoices:
    @given(keep_layouts())
    @settings(max_examples=300, deadline=None)
    def test_refuted_counts_are_charged_what_the_full_walk_spends_below_them(self, layout):
        # so every passing vector is reached at the same tick as by a walk of
        # every vector, and the walk ends at the same tick
        rank, classes, per_rank, free_per_rank, gain = layout
        needy = [_Class(r, list(range(n)), s, [], missing) for r, n, s, missing in classes]
        search = small_search(10**9)
        reached = []
        for _ in _keep_choices(search, rank, needy, per_rank, free_per_rank, gain):
            search.tick()  # the leaf's own tick, as in _search
            reached.append((10**9 - search.budget, tuple(cls.kept for cls in needy)))
        expected = reference_keep_walk(rank, classes, per_rank, free_per_rank, gain)
        assert (reached, 10**9 - search.budget) == expected


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
        with pytest.raises(FormatError, match="header must be a step count"):
            parse_certificate("x\n")
        with pytest.raises(FormatError, match="non-integer node id"):
            parse_certificate("1\npush a 2\n")
        with pytest.raises(FormatError, match="step count must be at least 0, got -1"):
            parse_certificate("-1\n")

    def test_trailing_lines_rejected(self):
        from uftree.errors import FormatError

        assert parse_certificate("1\npush 1 2\n\n") == Certificate(((1, 2),))
        with pytest.raises(FormatError) as err:
            parse_certificate("1\npush 1 2\n\npush 3 4\n")
        assert err.value.line == 4

    def test_comment_lines_may_precede_the_header(self):
        from uftree.errors import FormatError

        assert parse_certificate("# found by check\n#\n1\npush 1 2\n") == Certificate(((1, 2),))
        with pytest.raises(FormatError, match="non-integer node id") as err:
            parse_certificate("# found by check\n1\npush a 2\n")
        assert err.value.line == 3

    def test_short_body_rejected_after_its_last_line(self):
        from uftree.errors import FormatError

        with pytest.raises(FormatError, match="expected 2 push lines, found 1") as err:
            parse_certificate("2\npush 1 2\n")
        assert err.value.line == 3

    def test_invalid_tree_raises(self):
        from uftree.errors import InvalidTreeError

        # nodes 1 and 2 are each other's parent: a cycle the Union count misses
        with pytest.raises(InvalidTreeError, match="cyclic-parent-chain"):
            check_certificate(RankedTree((-1, 2, 1), (0, 1, 1)), Certificate(()))
