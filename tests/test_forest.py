"""Forest engine: replay semantics, exports, generators, enumeration, mutation."""

import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import chain
from uftree.errors import FormatError
from uftree.forest import (
    Find,
    MakeSet,
    Union,
    enumerate_trees,
    export_trees,
    format_oplog,
    mutate,
    parse_oplog,
    random_oplog,
    random_uf_tree,
    replay,
)
from uftree.recognize import brute_force_is_uf, count_filter, is_union_find_tree, is_union_tree
from uftree.tree import RankedTree, canonical_key, collapse, merge, singleton, validate


class TestReplay:
    def test_single_union(self):
        forest = replay([MakeSet(2), Union(0, 1)])
        [exported] = export_trees(forest)
        assert exported.tree.parent == (-1, 0)
        assert exported.tree.rank == (1, 0)

    def test_union_composition_matches_merges(self):
        forest = replay([MakeSet(4), Union(0, 1), Union(2, 3), Union(0, 2)])
        [exported] = export_trees(forest)
        composed = merge(
            merge(singleton(), singleton()), merge(singleton(), singleton())
        )
        assert exported.tree.root_rank == 2
        assert canonical_key(exported.tree) == canonical_key(composed)

    def test_find_compresses_full_path(self):
        # build a depth-3 node, then find() it: every ancestor reattaches
        forest = replay(
            [
                MakeSet(8),
                Union(0, 1), Union(2, 3), Union(0, 2),  # rank-2 tree at 0
                Union(4, 5), Union(6, 7), Union(4, 6),  # rank-2 tree at 4
                Union(0, 4),                            # rank-3 tree, 4 at depth 1
            ]
        )
        assert forest.parent[6] == 4
        forest2 = replay(
            [
                MakeSet(8),
                Union(0, 1), Union(2, 3), Union(0, 2),
                Union(4, 5), Union(6, 7), Union(4, 6),
                Union(0, 4),
                Find(7),
            ]
        )
        # 7 and its former ancestors 6 and 4 now hang off the root
        assert forest2.parent[7] == 0
        assert forest2.parent[6] == 0
        assert forest2.parent[4] == 0

    def test_union_is_noop_within_class(self):
        forest = replay([MakeSet(2), Union(0, 1), Union(1, 0), Union(0, 1)])
        assert forest.rank[0] == 1

    def test_requires_leading_makeset(self):
        with pytest.raises(ValueError, match="make-set"):
            replay([Union(0, 1)])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out-of-range"):
            replay([MakeSet(2), Union(0, 5)])

    def test_deterministic(self):
        log = random_oplog(32, 100, seed=5)
        a = export_trees(replay(log))
        b = export_trees(replay(log))
        assert a == b

    def test_collapse_equivalence(self):
        # a find on the engine mirrors collapse() on the exported tree
        log = random_oplog(24, 120, seed=3, find_fraction=0.0)
        forest = replay(log)
        element = 17
        [before] = [e for e in export_trees(forest) if element in e.elements]
        node = before.elements.index(element)
        forest.find(element)
        [after] = [e for e in export_trees(forest) if element in e.elements]
        assert canonical_key(after.tree) == canonical_key(collapse(before.tree, node))


class TestExport:
    def test_fresh_forest_is_singletons(self):
        exported = export_trees(replay([MakeSet(3)]))
        assert len(exported) == 3
        assert all(e.tree == singleton() for e in exported)

    def test_partial_union(self):
        exported = export_trees(replay([MakeSet(3), Union(0, 1)]))
        assert len(exported) == 2
        assert {e.tree.node_count for e in exported} == {1, 2}

    def test_element_mapping(self):
        exported = export_trees(replay([MakeSet(4), Union(3, 1)]))
        [pair] = [e for e in exported if e.tree.node_count == 2]
        assert pair.elements == (1, 3)
        assert pair.tree.rank[pair.elements.index(3)] == 1


class TestOpLogText:
    def test_round_trip(self):
        log = [MakeSet(4), Union(0, 1), Find(1), Union(2, 3)]
        text = format_oplog(log)
        assert text == "makeset 4\nunion 0 1\nfind 1\nunion 2 3\n"
        assert parse_oplog(text) == log

    def test_comments_and_blanks_skipped(self):
        assert parse_oplog("# log\n\nmakeset 1\n") == [MakeSet(1)]

    @pytest.mark.parametrize("line", ["makeset", "union 0", "find a b", "link 0 1"])
    def test_bad_lines(self, line):
        with pytest.raises(FormatError):
            parse_oplog(line + "\n")


class TestRandomUfTree:
    def test_single_node(self):
        assert random_uf_tree(1, seed=0) == singleton()
        assert random_uf_tree(1, seed=99) == singleton()

    def test_outputs_are_union_find(self):
        for seed in range(25):
            t = random_uf_tree(20, seed=seed, collapse_prob=0.4)
            assert validate(t)
            assert is_union_find_tree(t).accepted, seed

    def test_merge_only_gives_union_tree_with_height_rank(self):
        for seed in range(25):
            t = random_uf_tree(17, seed=seed, collapse_prob=0.0)
            assert is_union_tree(t)
            assert t.root_rank == t.height()

    def test_deterministic(self):
        assert random_uf_tree(30, seed=7) == random_uf_tree(30, seed=7)
        assert random_uf_tree(30, seed=7) != random_uf_tree(30, seed=8)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            random_uf_tree(0, seed=0)
        with pytest.raises(ValueError):
            random_uf_tree(5, seed=0, collapse_prob=1.5)


class TestEnumeration:
    def test_one_node_corpus(self):
        trees = list(enumerate_trees(1))
        assert len(trees) == 2
        assert {t.rank[0] for t in trees} == {0, 1}

    def test_two_node_corpus(self):
        trees = [t for t in enumerate_trees(2) if t.node_count == 2]
        labelings = {(t.rank[0], t.rank[1]) for t in trees}
        assert labelings == {(1, 0), (2, 0), (2, 1)}

    def test_contains_three_chain(self):
        keys = {canonical_key(t) for t in enumerate_trees(3)}
        assert canonical_key(chain(2, 1, 0)) in keys

    def test_all_valid_and_distinct(self):
        seen = set()
        for t in enumerate_trees(6):
            assert validate(t)
            key = canonical_key(t)
            assert key not in seen
            seen.add(key)

    def test_rank_bounded_by_node_height(self):
        for t in enumerate_trees(5):
            table = t.child_table()
            height = [0] * t.node_count
            for x in sorted(range(t.node_count), key=t.depths().__getitem__, reverse=True):
                for c in table[x]:
                    height[x] = max(height[x], height[c] + 1)
            assert all(t.rank[x] <= height[x] + 1 for x in range(t.node_count))

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            list(enumerate_trees(8))
        with pytest.raises(ValueError):
            list(enumerate_trees(0))


class TestMutate:
    def test_singleton_has_no_mutation(self):
        with pytest.raises(ValueError, match="no legal mutation"):
            mutate(singleton(), seed=0)

    def test_deterministic(self):
        t = random_uf_tree(12, seed=4)
        assert mutate(t, seed=1) == mutate(t, seed=1)

    def test_draws_are_pinned(self):
        # one digest over seeded outputs, taken when mutate listed every
        # candidate and drew one with Random(seed).choice
        trees = [(random_uf_tree(n, s), s) for n in (1, 2, 3, 5, 10, 40, 200) for s in range(30)]
        trees += [(t, i) for i, t in enumerate(enumerate_trees(6))]
        digest = hashlib.sha256()
        for t, seed in trees:
            try:
                m = mutate(t, seed)
            except ValueError:
                digest.update(b"none")
            else:
                digest.update(repr((m.parent, m.rank)).encode())
        assert digest.hexdigest() == (
            "af5b6344486f845e62a6184c442bff58289dc71d90ae4def19775ee7791c6978"
        )

    def test_memory_stays_linear(self):
        # listing one candidate per (node, higher-ranked node) pair peaked
        # at ~400 MB here
        t = random_uf_tree(4000, 0)
        tracemalloc.start()
        try:
            assert validate(mutate(t, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_reparenting_needs_no_descendant_walk(self, monkeypatch):
        # ranks strictly decrease downward, so a higher-ranked node is never
        # a descendant; a descendant walk per node made mutate O(n^2)
        calls = []
        original = RankedTree.descendants
        monkeypatch.setattr(
            RankedTree, "descendants", lambda t, x: calls.append(x) or original(t, x)
        )
        m = mutate(random_uf_tree(200, seed=3), seed=5)
        assert validate(m)
        assert calls == []

    def test_output_validates(self):
        for seed in range(30):
            t = random_uf_tree(10, seed=seed)
            if t.node_count == 1:
                continue
            m = mutate(t, seed=seed)
            assert validate(m)
            assert m != t

    def test_expected_verdicts_from_oracle(self):
        flips = 0
        for seed in range(40):
            t = random_uf_tree(8, seed=seed, collapse_prob=0.3)
            try:
                m = mutate(t, seed=seed)
            except ValueError:
                continue  # e.g. a rank-1 star of leaves admits no mutation
            expected = brute_force_is_uf(m)
            assert is_union_find_tree(m).accepted == expected
            if not expected:
                flips += 1
        assert flips > 0  # mutations do produce negatives


class TestEngineInvariants:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_exported_trees_are_union_find(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randrange(1, 48)
        log = random_oplog(n, rng.randrange(0, 128), seed)
        for exported in export_trees(replay(log)):
            assert count_filter(exported.tree)
            assert is_union_find_tree(exported.tree).accepted

    def test_rank_size_bound(self):
        # a root of rank r always owns at least 2^r elements
        for seed in range(30):
            log = random_oplog(48, 200, seed)
            forest = replay(log)
            for exported in export_trees(forest):
                assert exported.tree.node_count >= 1 << exported.tree.root_rank
