"""Forest engine: replay semantics, exports, generators, enumeration, mutation."""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    chain,
    reference_export_trees,
    reference_parse_oplog,
    reference_replay,
)
from uftree.errors import FormatError
from uftree.forest import (
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
        forest = replay([("makeset", 2), ("union", 0, 1)])
        [exported] = export_trees(forest)
        assert exported.tree.parent == (-1, 0)
        assert exported.tree.rank == (1, 0)

    def test_union_composition_matches_merges(self):
        forest = replay([("makeset", 4), ("union", 0, 1), ("union", 2, 3), ("union", 0, 2)])
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
                ("makeset", 8),
                ("union", 0, 1), ("union", 2, 3), ("union", 0, 2),  # rank-2 tree at 0
                ("union", 4, 5), ("union", 6, 7), ("union", 4, 6),  # rank-2 tree at 4
                ("union", 0, 4),                                    # rank-3 tree, 4 at depth 1
            ]
        )
        assert forest.parent[6] == 4
        forest2 = replay(
            [
                ("makeset", 8),
                ("union", 0, 1), ("union", 2, 3), ("union", 0, 2),
                ("union", 4, 5), ("union", 6, 7), ("union", 4, 6),
                ("union", 0, 4),
                ("find", 7),
            ]
        )
        # 7 and its former ancestors 6 and 4 now hang off the root
        assert forest2.parent[7] == 0
        assert forest2.parent[6] == 0
        assert forest2.parent[4] == 0

    def test_union_is_noop_within_class(self):
        forest = replay([("makeset", 2), ("union", 0, 1), ("union", 1, 0), ("union", 0, 1)])
        assert forest.rank[0] == 1

    def test_requires_leading_makeset(self):
        with pytest.raises(ValueError, match="make-set"):
            replay([("union", 0, 1)])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out-of-range"):
            replay([("makeset", 2), ("union", 0, 5)])

    def test_random_oplog_needs_an_element(self):
        with pytest.raises(ValueError, match="at least one element"):
            random_oplog(0, 5, seed=0)

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
        exported = export_trees(replay([("makeset", 3)]))
        assert len(exported) == 3
        assert all(e.tree == singleton() for e in exported)

    def test_partial_union(self):
        exported = export_trees(replay([("makeset", 3), ("union", 0, 1)]))
        assert len(exported) == 2
        assert {e.tree.node_count for e in exported} == {1, 2}

    def test_element_mapping(self):
        exported = export_trees(replay([("makeset", 4), ("union", 3, 1)]))
        [pair] = [e for e in exported if e.tree.node_count == 2]
        assert pair.elements == (1, 3)
        assert pair.tree.rank[pair.elements.index(3)] == 1


class TestOpLogText:
    def test_round_trip(self):
        log = [("makeset", 4), ("union", 0, 1), ("find", 1), ("union", 2, 3)]
        text = format_oplog(log)
        assert text == "makeset 4\nunion 0 1\nfind 1\nunion 2 3\n"
        assert parse_oplog(text) == log

    def test_comments_and_blanks_skipped(self):
        assert parse_oplog("# log\n\nmakeset 1\n") == [("makeset", 1)]

    @pytest.mark.parametrize("line", ["makeset", "union 0", "find a b", "link 0 1"])
    def test_bad_lines(self, line):
        with pytest.raises(FormatError):
            parse_oplog(line + "\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("link 0 1", "unknown op 'link 0 1'"),
            ("makeset", "unknown op 'makeset'"),
            ("union 0", "unknown op 'union 0'"),
            ("find 1 2", "unknown op 'find 1 2'"),
            ("find x", "non-integer field in 'find x'"),
            ("union 0 1.0", "non-integer field in 'union 0 1.0'"),
        ],
    )
    def test_bad_line_messages(self, line, message):
        # an unknown word or a wrong field count is no bad operand
        with pytest.raises(FormatError) as info:
            parse_oplog(f"makeset 2\n  {line} \n")
        assert str(info.value) == f"line 2: {message}"
        assert info.value.line == 2


def parse_outcome(text: str, parse=parse_oplog):
    try:
        return parse(text)
    except FormatError as exc:
        return str(exc), exc.line


def malformed_oplog(rng: random.Random) -> str:
    """A random log's text with up to three defects, comments, blank lines
    and varied whitespace."""
    log = random_oplog(rng.randint(1, 20), rng.randint(0, 12), rng.randrange(1 << 30))
    rows = [[str(word) for word in op] for op in log]
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        i = rng.randrange(len(rows))
        kind = rng.randrange(7)
        if not rows[i]:
            continue
        if kind == 0:
            rows[i].pop()
        elif kind == 1:
            rows[i].append(rng.choice(("0", "x", "#")))
        elif kind == 2 and len(rows[i]) > 1:
            operand = rng.choice(("x", "1.0", "+3", "-1", "0x1", "1_0", "--1", ""))
            rows[i][rng.randrange(1, len(rows[i]))] = operand
        elif kind == 3:
            rows[i][0] = rng.choice(("link", "Union", "makeset#", "FIND", "unions"))
        elif kind == 4:
            rows.insert(i, rng.choice(([], ["#", "note"], ["#union", "0"], ["##"])))
        elif kind == 5:
            rows.insert(i, rng.choice((["makeset"], ["find"], ["union", "0"])))
        else:
            rows[i] = []
    seps = (" ", "  ", "\t", " \t ")
    lines = [
        rng.choice(("", " ", "\t")) + rng.choice(seps).join(row) + rng.choice(("", " ", "\t "))
        for row in rows
    ]
    return rng.choice(("\n", "\r\n")).join(lines) + "\n" * rng.randint(0, 2)


class TestParseMatchesPerLineReference:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n\n",
            "# only a comment\n",
            "#\n  # indented comment\n\tmakeset 2\n",
            "makeset 3\r\nunion 0 1\r\n\r\nfind 2\r\n",
            "makeset\t3\nunion\t0\t 1 \n",
            "makeset 4\nunion +3 -1\nfind -0\n",
            "makeset 2\nunion 0 1 1\n",
            "makeset 2\nunion 0\n",
            "makeset\n",
            "makeset 2 # trailing words\n",
            "makeset 2\nlink 0 1\n",
            "Makeset 2\n",
            "makeset 2\nfind one\n",
            "makeset 2\nfind 1.0\n",
            "makeset 2\x0cfind 1\x0bunion 0 1\n",
        ],
    )
    def test_fixed_texts(self, text):
        assert parse_outcome(text) == parse_outcome(text, reference_parse_oplog)

    def test_random_texts(self):
        rng = random.Random(0)
        errors = 0
        for _ in range(2000):
            text = malformed_oplog(rng)
            expected = parse_outcome(text, reference_parse_oplog)
            assert parse_outcome(text) == expected, text
            errors += isinstance(expected, tuple)
        assert 500 < errors < 1900  # both outcomes are well represented

    def test_one_kind_string_per_op_kind(self):
        # keeping the split-out word as the kind would hold one string per
        # op; a 300k-op log then cost ~15 MB more
        text = format_oplog(random_oplog(500, 4000, seed=2)) + "makeset 3\n"
        log = parse_oplog(text)
        assert {op[0] for op in log} == {"makeset", "union", "find"}
        assert len({id(op[0]) for op in log}) == 3


def multi_makeset_log(rng: random.Random, find_fraction: float) -> list:
    log, n = [], 0
    for _ in range(rng.randint(1, 5)):
        block = rng.randint(1, 30)
        log.append(("makeset", block))
        n += block
        for _ in range(rng.randint(0, 3 * block)):
            if rng.random() < find_fraction:
                log.append(("find", rng.randrange(n)))
            else:
                log.append(("union", rng.randrange(n), rng.randrange(n)))
    return log


class TestReplayMatchesReference:
    def seeded_logs(self):
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(1, 80)
            for find_fraction in (0.0, 0.3, 0.9):
                yield random_oplog(n, rng.randint(0, 4 * n), seed, find_fraction)
                yield multi_makeset_log(rng, find_fraction)

    def test_arrays_and_exports_match(self):
        for log in self.seeded_logs():
            forest, reference = replay(log), reference_replay(log)
            assert forest.parent == reference.parent, log
            assert forest.rank == reference.rank, log
            assert forest.element_count == reference.element_count
            exported = [(e.tree, e.elements) for e in export_trees(forest)]
            assert exported == reference_export_trees(reference), log

    @pytest.mark.parametrize(
        "log, message",
        [
            ([], "must start with a make-set block"),
            ([("union", 0, 1)], "must start with a make-set block"),
            ([("find", 0), ("makeset", 1)], "must start with a make-set block"),
            ([("makeset", 0)], "block size must be positive, got 0"),
            ([("makeset", 2), ("makeset", -3)], "block size must be positive, got -3"),
            ([("makeset", 2), ("union", 0, 5)], "out-of-range element 5"),
            ([("makeset", 2), ("union", 7, 5)], "out-of-range element 7"),
            ([("makeset", 2), ("union", -1, 0)], "out-of-range element -1"),
            ([("makeset", 2), ("union", 1, -2)], "out-of-range element -2"),
            ([("makeset", 2), ("find", 2)], "out-of-range element 2"),
            ([("makeset", 2), ("find", -1)], "out-of-range element -1"),
            ([("makeset", 2), ("link", 0, 1)], "unknown op"),
        ],
    )
    def test_errors_match(self, log, message):
        with pytest.raises(ValueError, match=message) as raised:
            replay(log)
        with pytest.raises(ValueError) as expected:
            reference_replay(log)
        assert str(raised.value) == str(expected.value)


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

    def test_draws_are_pinned(self):
        # one digest over seeded outputs, taken when the generator rebuilt a
        # RankedTree with merge or collapse on every step
        digest = hashlib.sha256()
        for n in (1, 2, 3, 5, 10, 17, 40, 100, 200, 400, 800):
            for s in range(30):
                for p in (0, 0.25, 0.4, 1):
                    t = random_uf_tree(n, s, p)
                    digest.update(repr((t.parent, t.rank)).encode())
        assert digest.hexdigest() == (
            "756e6b8cf55a305f39724a9f14aa348e907f07ca6597fa1e0c63e48b1e531fcf"
        )

    def test_a_large_draw_is_pinned(self):
        # taken when each collapse listed every tree's size for rng.choices
        t = random_uf_tree(4000, 0)
        assert hashlib.sha256(repr((t.parent, t.rank)).encode()).hexdigest() == (
            "cce250fa96179c61c914bf2e78712914b5a8294c99f656af4468bece1412858b"
        )

    def test_builds_one_tree(self, monkeypatch):
        # the forest does the steps; a tree per step made the generator
        # quadratic in n
        built = []
        original = RankedTree.__post_init__
        monkeypatch.setattr(
            RankedTree, "__post_init__", lambda t: built.append(1) or original(t)
        )
        t = random_uf_tree(4000, 0)
        assert t.node_count == 4000
        assert len(built) == 1


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
