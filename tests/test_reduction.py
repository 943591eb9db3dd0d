"""Gadget compiler, Partition solver, and the solver/recognizer cross-check."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uftree.errors import CapExceeded, FormatError
from uftree.recognize import brute_force_is_uf, check_certificate, count_filter, is_union_find_tree
from uftree.reduction import (
    FlatTree,
    PartitionInstance,
    PartitionSolution,
    extract_solution,
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

    def test_node_cap(self):
        with pytest.raises(CapExceeded):
            verify_reduction(PartitionInstance((20, 20), 2), max_nodes=50)

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
