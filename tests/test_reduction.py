"""Gadget compiler, Partition solver, and the solver/recognizer cross-check."""

import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    SOLVER_HARD_INSTANCE,
    count_split_walk,
    divisibility_no_instance,
    planted_three_partition,
)
from uftree import reduction
from uftree.errors import CapExceeded, FormatError
from uftree.recognize import (
    REASON_SEARCH,
    brute_force_is_uf,
    check_certificate,
    count_filter,
    is_union_find_tree,
)
from uftree.reduction import (
    VERIFY_NODE_CAP,
    FlatTree,
    PartitionInstance,
    PartitionSolution,
    extract_solution,
    check_flat_tree_size,
    format_instance,
    format_report,
    is_valid_solution,
    make_apple,
    make_basket,
    make_flat_tree,
    parse_instance,
    solve_partition,
    verify_reduction,
)
from uftree.tree import canonical_key, parse_tree, serialize_tree, subtree, validate


def rank_census(t) -> Counter:
    return Counter(t.rank)


class TestInstances:
    def test_parse_and_format(self):
        inst = parse_instance("1,2,3,4,4;2")
        assert inst.weights == (1, 2, 3, 4, 4)
        assert inst.parts == 2
        assert inst.target == 7
        assert format_instance(inst) == "1,2,3,4,4;2"

    @pytest.mark.parametrize(
        "text",
        ["", "1,2,3", "1,2;0", "1,x;2", "0,4;2", "1,2;2", ";2", "3,3;2;1"],
    )
    def test_bad_instances(self, text):
        with pytest.raises((FormatError, ValueError)):
            parse_instance(text)

    def test_divisibility_required(self):
        with pytest.raises(ValueError, match="divisible"):
            PartitionInstance((1, 2), 2)

    def test_no_weights(self):
        with pytest.raises(ValueError, match="at least one weight"):
            PartitionInstance((), 1)

    @pytest.mark.parametrize(
        "assignment", [(0, 1), (0, 1, 1, 0), (0, 2, 1)], ids=["short", "long", "part"]
    )
    def test_malformed_solution_is_invalid(self, assignment):
        inst = PartitionInstance((1, 1, 2), 2)
        assert is_valid_solution(inst, PartitionSolution((0, 0, 1)))
        assert not is_valid_solution(inst, PartitionSolution(assignment))


class TestGadgets:
    def test_apple_census(self):
        apple = make_apple(5)
        assert validate(apple)
        assert apple.node_count == 7
        assert rank_census(apple) == Counter({1: 5, 0: 1, 2: 1})
        assert not count_filter(apple)

    def test_apple_three(self):
        assert make_apple(3).node_count == 5

    def test_apple_requires_positive(self):
        with pytest.raises(ValueError):
            make_apple(0)

    def test_basket_census(self):
        basket = make_basket(5)
        assert validate(basket)
        assert basket.node_count == 9
        assert rank_census(basket) == Counter({0: 7, 1: 1, 3: 1})

    def test_basket_size_seven(self):
        assert make_basket(7).node_count == 11

    def test_basket_requires_positive(self):
        with pytest.raises(ValueError, match="basket size must be positive"):
            make_basket(0)

    def test_basket_alone_not_union_find(self):
        assert not brute_force_is_uf(make_basket(1), max_nodes=10)

    def test_apple_one_fails_count(self):
        assert not count_filter(make_apple(1))


class TestFlatTree:
    def test_reference_instance_node_count(self):
        flat = make_flat_tree(parse_instance("1,2,3,4,4;2"))
        assert flat.tree.node_count == 8 + (14 + 10) + 2 * 11 == 54
        assert validate(flat.tree)
        assert flat.tree.root_rank == 4

    def test_structure(self):
        inst = PartitionInstance((2, 2), 2)
        flat = make_flat_tree(inst)
        t = flat.tree
        assert len(flat.apple_roots) == 2
        assert len(flat.basket_roots) == 2
        for a, weight in zip(flat.apple_roots, inst.weights):
            assert t.rank[a] == 2
            kid_ranks = Counter(t.rank[c] for c in t.children_of(a))
            assert kid_ranks == Counter({1: weight, 0: 1})
        for b in flat.basket_roots:
            assert t.rank[b] == 3
            kid_ranks = Counter(t.rank[c] for c in t.children_of(b))
            assert kid_ranks == Counter({0: inst.target + 1, 1: 1})
        root_kids = Counter(t.rank[c] for c in t.children_of(t.root))
        assert root_kids == Counter({0: 1, 1: 1, 2: 1 + 2, 3: 2})

    def test_serialization_round_trip(self):
        flat = make_flat_tree(parse_instance("1,2,3,4,4;2"))
        parsed = parse_tree(serialize_tree(flat.tree))
        assert canonical_key(parsed) == canonical_key(flat.tree)

    @pytest.mark.parametrize("text", ["1,2,3,4,4;2", "9,8,7,6,5,4,3,2,2,2;3", "2,2;2"])
    def test_gadgets_are_the_standalone_shapes(self, text):
        inst = parse_instance(text)
        flat = make_flat_tree(inst)
        for root, weight in zip(flat.apple_roots, inst.weights):
            assert subtree(flat.tree, root)[0] == make_apple(weight)
        for root in flat.basket_roots:
            assert subtree(flat.tree, root)[0] == make_basket(inst.target)

    def test_total_node_formula(self):
        for weights, k in [((1, 1), 2), ((3, 3, 3), 3), ((5, 1, 2), 2)]:
            inst = PartitionInstance(weights, k)
            expected = 8 + sum(a + 2 for a in weights) + k * (inst.target + 4)
            assert make_flat_tree(inst).tree.node_count == expected
            check_flat_tree_size(inst, expected)  # a tree exactly at the cap passes
            with pytest.raises(CapExceeded):
                check_flat_tree_size(inst, expected - 1)


class TestSolver:
    def test_reference_instance(self):
        inst = parse_instance("1,2,3,4,4;2")
        sol = solve_partition(inst)
        assert sol is not None
        assert is_valid_solution(inst, sol)

    def test_trivial_pair(self):
        inst = PartitionInstance((2, 2), 2)
        sol = solve_partition(inst)
        assert sol is not None
        assert sorted(sol.assignment) == [0, 1]

    def test_unsolvable(self):
        assert solve_partition(parse_instance("1,1,4;2")) is None

    def test_exhaustive_against_direct_enumeration(self):
        import itertools

        def solvable_by_enumeration(inst):
            for combo in itertools.product(range(inst.parts), repeat=len(inst.weights)):
                sums = [0] * inst.parts
                for w, p in zip(inst.weights, combo):
                    sums[p] += w
                if all(s == inst.target for s in sums):
                    return True
            return False

        def multisets(total):
            def gen(remaining, cap):
                if remaining == 0:
                    yield ()
                    return
                for first in range(min(remaining, cap), 0, -1):
                    for rest in gen(remaining - first, first):
                        yield (first,) + rest
            for s in range(1, total + 1):
                yield from gen(s, s)

        for weights in multisets(10):
            for k in (2, 3):
                if sum(weights) % k == 0:
                    inst = PartitionInstance(weights, k)
                    got = solve_partition(inst)
                    assert (got is not None) == solvable_by_enumeration(inst)
                    if got is not None:
                        assert is_valid_solution(inst, got)

    def test_weight_cap(self):
        with pytest.raises(CapExceeded):
            solve_partition(PartitionInstance((1,) * 22, 2))

    def test_more_parts_than_weights_is_refuted_without_allocating(self):
        # each of the 10^7 parts would need a weight; a residual per part is 80 MB
        tracemalloc.start()
        try:
            assert solve_partition(PartitionInstance((10**7,), 10**7)) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_state_cap(self):
        # unbounded, the failed set grows past 3 GB on this instance without an answer
        with pytest.raises(CapExceeded, match="1000000 failed states"):
            solve_partition(parse_instance(SOLVER_HARD_INSTANCE))

    @pytest.mark.parametrize("cap, capped", [(1, True), (2, False)])
    def test_state_cap_counts_failed_states(self, monkeypatch, cap, capped):
        # the 4 fits no part of 3: one failed state refutes the instance
        monkeypatch.setattr(reduction, "SOLVER_STATE_CAP", cap)
        if capped:
            with pytest.raises(CapExceeded):
                solve_partition(parse_instance("1,1,4;2"))
        else:
            assert solve_partition(parse_instance("1,1,4;2")) is None

    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_solutions_always_balance(self, weights, parts):
        if sum(weights) % parts:
            return
        inst = PartitionInstance(tuple(weights), parts)
        sol = solve_partition(inst)
        if sol is not None:
            assert is_valid_solution(inst, sol)


class TestVerifyReduction:
    def test_positive_reference_instance(self):
        report = verify_reduction(parse_instance("1,2,3,4,4;2"))
        assert report.agree
        assert report.solver_solution is not None
        assert report.verdict.accepted
        assert report.extraction_valid
        # the extracted placement is itself a balanced partition
        assert is_valid_solution(report.instance, report.extracted)

    def test_negative_instance(self):
        report = verify_reduction(parse_instance("1,1,4;2"))
        assert report.agree
        assert report.solver_solution is None
        assert not report.verdict.accepted

    def test_trivial_instance(self):
        report = verify_reduction(PartitionInstance((2, 2), 2))
        assert report.agree and report.extraction_valid

    def test_certificate_replay_and_extraction(self):
        inst = parse_instance("1,2,3;2")
        flat = make_flat_tree(inst)
        verdict = is_union_find_tree(flat.tree)
        assert verdict.accepted
        assert check_certificate(flat.tree, verdict.certificate)
        sol = extract_solution(flat, verdict.certificate)
        assert sol is not None and is_valid_solution(inst, sol)

    def test_extraction_rejects_foreign_certificate(self):
        from uftree.recognize import Certificate

        flat = make_flat_tree(PartitionInstance((1, 1), 2))
        assert extract_solution(flat, Certificate(())) is None

    def test_extraction_rejects_a_misplaced_apple(self):
        from uftree.recognize import Certificate

        flat = make_flat_tree(PartitionInstance((1, 1), 2))
        (a, b), (p, q) = flat.apple_roots, flat.basket_roots
        assert extract_solution(flat, Certificate(((a, p), (b, q)))) is not None
        assert extract_solution(flat, Certificate(((a, b), (b, q)))) is None  # not a basket
        assert extract_solution(flat, Certificate(((a, p), (a, q), (b, q)))) is None  # twice

    def test_node_cap(self, monkeypatch):
        # the cap fires on the counted size, before the tree is built
        def refuse(inst):
            raise AssertionError("make_flat_tree called above the cap")

        monkeypatch.setattr(reduction, "make_flat_tree", refuse)
        with pytest.raises(CapExceeded, match="1020 nodes"):
            verify_reduction(PartitionInstance((250, 250), 2))
        with pytest.raises(CapExceeded):
            verify_reduction(PartitionInstance((10**7, 10**7), 2))

    # 243;1 builds exactly VERIFY_NODE_CAP nodes, 244;1 and 121,122;1 two more
    @pytest.mark.parametrize("text", ["1,1,1;3", "243;1", "244;1", "121,122;1"])
    def test_node_cap_counts_the_built_tree(self, text):
        inst = parse_instance(text)
        n = make_flat_tree(inst).tree.node_count
        if n > VERIFY_NODE_CAP:
            with pytest.raises(CapExceeded, match=f"{n} nodes"):
                verify_reduction(inst)
        else:
            assert verify_reduction(inst).agree

    def test_report_format(self):
        text = format_report(verify_reduction(parse_instance("2,2;2")))
        lines = dict(line.split("=", 1) for line in text.strip().splitlines())
        assert lines["weights"] == "2,2"
        assert lines["parts"] == "2"
        assert lines["target"] == "2"
        assert lines["solver"] == "solvable"
        assert lines["recognizer"] == "accepted"
        assert lines["agree"] == "true"
        assert lines["extraction"] == "valid"
        assert int(lines["certificate_steps"]) > 0


class TestHardGadgets:
    """Large gadgets whose answers come from their construction, not a solver."""

    @pytest.mark.parametrize("seed", range(5))
    def test_divisibility_no_gadgets_are_refuted_walking_only_splits_that_exist(
        self, seed, monkeypatch
    ):
        # ~12,000 nodes; the root's first basket has a one-sum window that no
        # sum of multiples of 4 reaches, and an interval-bounded split walk
        # spent 8-24 s there
        inst = divisibility_no_instance(seed)
        entered, bound = count_split_walk(monkeypatch)
        assert is_union_find_tree(make_flat_tree(inst).tree, budget=20_000).reason == REASON_SEARCH
        assert entered[0] <= bound[0]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("target", [60, 100])
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_planted_three_partitions_are_accepted(self, k, target, seed):
        inst = planted_three_partition(k, target, seed)
        flat = make_flat_tree(inst)
        verdict = is_union_find_tree(flat.tree, budget=20_000)
        assert verdict.accepted
        assert check_certificate(flat.tree, verdict.certificate)
        sol = extract_solution(flat, verdict.certificate)
        assert sol is not None and is_valid_solution(inst, sol)
