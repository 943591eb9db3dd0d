"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Stated runtime budgets are asserted.
"""

import random
import time

from support import merge_constructible, union_trees_upto
from uftree.forest import enumerate_trees, export_trees, random_oplog, random_uf_tree, replay
from uftree.recognize import (
    brute_force_is_uf,
    check_certificate,
    count_filter,
    is_union_find_tree,
    is_union_tree,
)
from uftree.reduction import (
    PartitionInstance,
    extract_solution,
    is_valid_solution,
    make_flat_tree,
    solve_partition,
    verify_reduction,
)
from uftree.tree import RankedTree, canonical_key, collapse, merge, push


def report(name: str, ok: bool, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status}: {name} ({time.perf_counter() - started:.2f}s)")


def instances_with_sum_up_to(total: int, parts: tuple[int, ...]):
    def multisets(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in multisets(remaining - first, first):
                yield (first,) + rest

    for s in range(1, total + 1):
        for weights in multisets(s, s):
            for k in parts:
                if s % k == 0:
                    yield PartitionInstance(weights, k)


def test_pipeline_fixture():
    started = time.perf_counter()
    # hand-encoded stages: s has four rank-1 children, one of
    # them (x) over four leaves including z; t is a rank-2 root (y) over two
    s = RankedTree((-1, 0, 0, 0, 0, 2, 2, 2, 2), (2, 1, 1, 1, 1, 0, 0, 0, 0))
    t = RankedTree((-1, 0, 0), (2, 0, 0))
    x, z, y = 2, 7, 9

    merged = merge(s, t)
    expected_merged = RankedTree(
        (-1, 0, 0, 0, 0, 2, 2, 2, 2, 0, 9, 9),
        (3, 1, 1, 1, 1, 0, 0, 0, 0, 2, 0, 0),
    )
    pushed = push(merged, x, y)
    expected_pushed = RankedTree(
        (-1, 0, 9, 0, 0, 2, 2, 2, 2, 0, 9, 9),
        (3, 1, 1, 1, 1, 0, 0, 0, 0, 2, 0, 0),
    )
    collapsed = collapse(pushed, z)
    expected_collapsed = RankedTree(
        (-1, 0, 0, 0, 0, 2, 2, 0, 2, 0, 9, 9),
        (3, 1, 1, 1, 1, 0, 0, 0, 0, 2, 0, 0),
    )

    ok = (
        canonical_key(merged) == canonical_key(expected_merged)
        and canonical_key(pushed) == canonical_key(expected_pushed)
        and canonical_key(collapsed) == canonical_key(expected_collapsed)
    )
    elapsed = time.perf_counter() - started
    report("merge/push/collapse pipeline fixture", ok and elapsed < 1.0, started)
    assert ok
    assert elapsed < 1.0


def test_positive_flat_tree_fixture():
    started = time.perf_counter()
    inst = PartitionInstance((1, 2, 3, 4, 4), 2)
    assert inst.target == 7
    flat = make_flat_tree(inst)
    verdict = is_union_find_tree(flat.tree)
    ok = verdict.accepted and verdict.certificate is not None
    ok = ok and check_certificate(flat.tree, verdict.certificate)
    solution = extract_solution(flat, verdict.certificate) if ok else None
    ok = ok and solution is not None and is_valid_solution(inst, solution)
    elapsed = time.perf_counter() - started
    report("positive flat tree (1,2,3,4,4 ; k=2)", ok and elapsed < 5.0, started)
    assert ok
    assert elapsed < 5.0


def test_negative_flat_tree_fixture():
    started = time.perf_counter()
    inst = PartitionInstance((1, 1, 4), 2)
    flat = make_flat_tree(inst)
    verdict = is_union_find_tree(flat.tree)
    solution = solve_partition(inst)
    ok = not verdict.accepted and solution is None
    elapsed = time.perf_counter() - started
    report("negative flat tree (1,1,4 ; k=2)", ok and elapsed < 5.0, started)
    assert ok
    assert elapsed < 5.0


def test_partition_equivalence_sweep():
    started = time.perf_counter()
    total = 0
    disagreements = 0
    for inst in instances_with_sum_up_to(16, (2, 3, 4)):
        rep = verify_reduction(inst)
        total += 1
        if not rep.agree or rep.extraction_valid is False:
            disagreements += 1
    ok = disagreements == 0 and total > 1100
    report(
        f"solver/recognizer agreement on {total} instances (sum<=16, k=2,3,4)",
        ok,
        started,
    )
    assert ok


def test_oracle_equivalence_on_enumeration():
    started = time.perf_counter()
    total = 0
    disagreements = 0
    for tree in enumerate_trees(6):
        total += 1
        verdict = is_union_find_tree(tree)
        if verdict.accepted != brute_force_is_uf(tree):
            disagreements += 1
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and elapsed < 600
    report(f"recognizer equals push oracle on {total} enumerated trees", ok, started)
    assert ok
    assert elapsed < 600


def test_union_tree_equivalence_on_enumeration():
    started = time.perf_counter()
    keys = union_trees_upto(6)
    total = 0
    disagreements = 0
    for tree in enumerate_trees(6):
        total += 1
        if is_union_tree(tree) != merge_constructible(tree, keys):
            disagreements += 1
    ok = disagreements == 0
    report(
        f"union-tree check equals merge-construction search on {total} trees",
        ok,
        started,
    )
    assert ok


def test_dsu_fuzz():
    started = time.perf_counter()
    failures = 0
    trees = 0
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.randrange(1, 65)
        ops = rng.randrange(0, 257)
        merge_only = seed % 2 == 1
        log = random_oplog(n, ops, seed, find_fraction=0.0 if merge_only else 0.3)
        for exported in export_trees(replay(log)):
            trees += 1
            if not is_union_find_tree(exported.tree).accepted:
                failures += 1
            if merge_only:
                if not is_union_tree(exported.tree):
                    failures += 1
                if exported.tree.root_rank != exported.tree.height():
                    failures += 1
    ok = failures == 0
    report(f"dsu fuzz: 1000 op logs, {trees} exported trees", ok, started)
    assert ok


def test_count_condition_census():
    started = time.perf_counter()
    violations = 0
    for seed in range(400):
        rng = random.Random(seed)
        log = random_oplog(rng.randrange(1, 65), rng.randrange(0, 257), seed)
        for exported in export_trees(replay(log)):
            if not count_filter(exported.tree):
                violations += 1
    for seed in range(100):
        if not count_filter(random_uf_tree(32, seed=seed, collapse_prob=0.4)):
            violations += 1
    oracle_misses = 0
    for tree in enumerate_trees(6):
        if not count_filter(tree) and brute_force_is_uf(tree):
            oracle_misses += 1
    ok = violations == 0 and oracle_misses == 0
    report("rank-0 count condition census", ok, started)
    assert ok


def test_certificate_bound_and_replay():
    started = time.perf_counter()
    emitted = 0
    bad = 0

    def take(tree):
        nonlocal emitted, bad
        verdict = is_union_find_tree(tree)
        if verdict.certificate is not None:
            emitted += 1
            if len(verdict.certificate) > tree.node_count**2:
                bad += 1
            if not check_certificate(tree, verdict.certificate):
                bad += 1

    take(make_flat_tree(PartitionInstance((1, 2, 3, 4, 4), 2)).tree)
    for seed in range(200):
        rng = random.Random(seed)
        log = random_oplog(rng.randrange(1, 65), rng.randrange(0, 257), seed)
        for exported in export_trees(replay(log)):
            take(exported.tree)
    for seed in range(100):
        take(random_uf_tree(40, seed=seed, collapse_prob=0.5))
    ok = bad == 0 and emitted > 100
    report(f"certificate bound and replay on {emitted} certificates", ok, started)
    assert ok
