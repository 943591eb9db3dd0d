"""Core tree model: validation, merge/collapse/push, ordering, canonical forms, text."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings

from support import (
    S_TREE,
    T_TREE,
    X_NODE,
    Y_NODE_MERGED,
    Z_NODE,
    chain,
    random_valid_tree,
    ranked_trees,
    reference_parse_tree_with_map,
    reference_validate,
    star,
)
from uftree.errors import CapExceeded, FormatError, InvalidTreeError
from uftree.forest import enumerate_trees, random_oplog, random_uf_tree, replay
from uftree.tree import (
    NO_PARENT,
    RANK_CAP,
    RankedTree,
    canonical_form,
    canonical_key,
    collapse,
    export_dot,
    induced_tree,
    legal_pushes,
    merge,
    parse_tree,
    parse_tree_with_map,
    precedes,
    push,
    serialize_tree,
    singleton,
    subtree,
    subtree_keys,
    validate,
)


class TestRankedTree:
    @pytest.mark.parametrize(
        "parent, rank, message",
        [((-1,), (0, 0), "equal length"), ((), (), "at least one node")],
    )
    def test_bad_arrays(self, parent, rank, message):
        with pytest.raises(ValueError, match=message):
            RankedTree(parent, rank)

    def test_root_of_a_rootless_tree(self):
        with pytest.raises(ValueError, match="no root"):
            RankedTree((1, 0), (0, 0)).root


class TestValidate:
    def test_singleton_accepts(self):
        assert validate(singleton())

    def test_equal_rank_edge_rejected(self):
        bad = RankedTree((-1, 0), (1, 1))
        res = validate(bad)
        assert not res
        assert res.reason == "rank-not-decreasing"
        assert res.node == 1

    def test_fixture_trees_accept(self):
        assert validate(S_TREE)
        assert validate(T_TREE)

    def test_multiple_roots(self):
        res = validate(RankedTree((-1, -1), (1, 0)))
        assert res.reason == "multiple-roots"

    def test_no_root(self):
        res = validate(RankedTree((1, 0), (1, 0)))
        assert res.reason == "no-root"

    def test_dangling_parent(self):
        res = validate(RankedTree((-1, 5), (1, 0)))
        assert res.reason == "dangling-parent"
        assert res.node == 1

    def test_cycle(self):
        res = validate(RankedTree((-1, 2, 1), (3, 1, 2)))
        assert res.reason == "cyclic-parent-chain"

    def test_negative_rank(self):
        assert validate(RankedTree((-1,), (-1,))).reason == "negative-rank"

    def test_rank_cap(self):
        assert validate(singleton(1 << 16))
        assert validate(singleton((1 << 16) + 1)).reason == "rank-above-cap"

    def test_raise_if_invalid(self):
        with pytest.raises(InvalidTreeError, match="rank-not-decreasing"):
            validate(RankedTree((-1, 0), (1, 1))).raise_if_invalid()


def defective_arrays(rng: random.Random) -> RankedTree:
    """Parent and rank arrays of a random valid tree, shuffled, with up to
    three defects: extra roots, self-loops, dangling parents, repointed
    parents (cycles, lost roots) and negative, over-cap or raised ranks."""
    n = rng.randint(1, 12)
    t = random_valid_tree(rng, n)
    parent, rank = list(t.parent), list(t.rank)
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        x = rng.randrange(n)
        kind = rng.randrange(7)
        if kind == 0:
            parent[x] = -1
        elif kind == 1:
            parent[x] = x
        elif kind == 2:
            parent[x] = rng.choice((n, n + 3, -2))
        elif kind == 3:
            parent[x] = rng.randrange(n)
        elif kind == 4:
            rank[x] = rng.choice((-1, -5))
        elif kind == 5:
            rank[x] = rng.choice((RANK_CAP, RANK_CAP + 1, RANK_CAP + 7))
        else:
            rank[x] = rng.randint(0, 4)
    new_id = list(range(n))
    rng.shuffle(new_id)
    shuffled_parent, shuffled_rank = [0] * n, [0] * n
    for x, p in enumerate(parent):
        shuffled_parent[new_id[x]] = new_id[p] if 0 <= p < n else p
        shuffled_rank[new_id[x]] = rank[x]
    return RankedTree(tuple(shuffled_parent), tuple(shuffled_rank))


class TestValidateMatchesPerNodeReference:
    def test_random_defects(self):
        rng = random.Random(0)
        reasons = set()
        for _ in range(4000):
            t = defective_arrays(rng)
            expected = reference_validate(t)
            assert validate(t) == expected, (t.parent, t.rank)
            reasons.add(expected.reason)
        assert reasons == {
            None,
            "multiple-roots",
            "no-root",
            "dangling-parent",
            "cyclic-parent-chain",
            "negative-rank",
            "rank-above-cap",
            "rank-not-decreasing",
        }


class TestMerge:
    def test_equal_rank_merge_gains_rank(self):
        merged = merge(S_TREE, T_TREE)
        assert merged.node_count == 12
        assert merged.root == 0
        assert merged.root_rank == 3
        assert merged.parent[Y_NODE_MERGED] == 0
        assert merged.rank[Y_NODE_MERGED] == 2
        assert validate(merged)

    def test_two_singletons(self):
        merged = merge(singleton(), singleton())
        assert merged.parent == (-1, 0)
        assert merged.rank == (1, 0)

    def test_lower_rank_keeps_root_rank(self):
        merged = merge(chain(2, 1, 0), singleton())
        assert merged.root_rank == 2
        assert merged.parent[3] == 0

    def test_precondition(self):
        with pytest.raises(ValueError, match="rank"):
            merge(singleton(), chain(1, 0))

    @given(ranked_trees(max_nodes=6), ranked_trees(max_nodes=6))
    def test_rank_rule_and_node_count(self, t, s):
        if t.root_rank < s.root_rank:
            t, s = s, t
        merged = merge(t, s)
        assert validate(merged)
        assert merged.node_count == t.node_count + s.node_count
        if s.root_rank < t.root_rank:
            assert merged.root_rank == t.root_rank
        else:
            assert merged.root_rank == t.root_rank + 1


class TestCollapse:
    def test_collapse_reattaches_ancestor_chain(self):
        pipeline = push(merge(S_TREE, T_TREE), X_NODE, Y_NODE_MERGED)
        collapsed = collapse(pipeline, Z_NODE)
        # z, x and y all hang off the root afterwards
        assert collapsed.parent[Z_NODE] == 0
        assert collapsed.parent[X_NODE] == 0
        assert collapsed.parent[Y_NODE_MERGED] == 0
        assert validate(collapsed)

    def test_collapse_at_root_is_identity(self):
        assert collapse(S_TREE, S_TREE.root) == S_TREE

    def test_collapse_depth_one_is_identity(self):
        assert collapse(S_TREE, 1) == S_TREE

    def test_unknown_node(self):
        with pytest.raises(ValueError, match="unknown node"):
            collapse(S_TREE, 99)

    @given(ranked_trees())
    def test_preserves_ranks_and_size_and_idempotent(self, t):
        for x in range(t.node_count):
            once = collapse(t, x)
            assert validate(once)
            assert once.rank == t.rank
            assert once.node_count == t.node_count
            assert collapse(once, x) == once


class TestPush:
    def test_push_moves_node_below_sibling(self):
        merged = merge(S_TREE, T_TREE)
        pushed = push(merged, X_NODE, Y_NODE_MERGED)
        assert pushed.parent[X_NODE] == Y_NODE_MERGED
        assert pushed.rank == merged.rank
        assert validate(pushed)

    def test_equal_ranks_rejected(self):
        two_leaves = star(1, 0, 0)
        with pytest.raises(ValueError, match="rank"):
            push(two_leaves, 1, 2)

    def test_not_siblings_rejected(self):
        with pytest.raises(ValueError, match="sibling"):
            push(chain(2, 1, 0), 2, 1)

    def test_depth_sum_grows_by_subtree_size(self):
        merged = merge(S_TREE, T_TREE)
        pushed = push(merged, X_NODE, Y_NODE_MERGED)
        moved = len(subtree(merged, X_NODE)[0].parent)
        assert pushed.depth_sum() == merged.depth_sum() + moved
        assert moved == 5

    @given(ranked_trees())
    def test_push_preserves_validity_ranks_and_order(self, t):
        for x, y in legal_pushes(t):
            pushed = push(t, x, y)
            assert validate(pushed)
            assert pushed.rank == t.rank
            assert precedes(t, pushed)


class TestPrecedes:
    def test_pushed_tree_follows_original(self):
        merged = merge(S_TREE, T_TREE)
        pushed = push(merged, X_NODE, Y_NODE_MERGED)
        assert precedes(merged, pushed)
        assert not precedes(pushed, merged)

    def test_reflexive(self):
        assert precedes(S_TREE, S_TREE)

    def test_mismatched_ranks_error(self):
        with pytest.raises(ValueError, match="rank"):
            precedes(chain(2, 0), chain(1, 0))

    def test_mismatched_sizes_error(self):
        with pytest.raises(ValueError, match="node set"):
            precedes(singleton(), chain(1, 0))

    def test_mismatched_roots_error(self):
        with pytest.raises(ValueError, match="same root"):
            precedes(RankedTree((-1, 0), (1, 0)), RankedTree((1, -1), (1, 0)))


def _all_trees_with(ranks, root):
    """Every parent function over fixed ranks where each parent outranks its child."""
    n = len(ranks)
    slots = []
    for x in range(n):
        if x == root:
            continue
        slots.append((x, [p for p in range(n) if ranks[p] > ranks[x]]))
    for combo in itertools.product(*(cands for _, cands in slots)):
        parent = [-1] * n
        for (x, _), p in zip(slots, combo):
            parent[x] = p
        t = RankedTree(tuple(parent), tuple(ranks))
        if validate(t):
            yield t


def _push_closure(trees):
    """Reachability via pushes over a shared (ranks, root) configuration."""
    index = {t: i for i, t in enumerate(trees)}
    reach = []
    for t in trees:
        seen = {t}
        frontier = [t]
        while frontier:
            cur = frontier.pop()
            for x, y in legal_pushes(cur):
                nxt = push(cur, x, y)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        reach.append({index[s] for s in seen})
    return index, reach


def test_precedes_equals_push_reachability_small():
    """Order containment coincides with push reachability, exhaustively.

    Runs over every rank multiset arising from the 6-node enumeration
    corpus; only rank comparisons matter, so these configurations cover all
    behaviors at this size.
    """
    from uftree.forest import enumerate_trees

    configs = {tuple(sorted(t.rank, reverse=True)) for t in enumerate_trees(6)}
    checked = 0
    for ranks in sorted(configs):
        trees = list(_all_trees_with(list(ranks), root=0))
        if len(trees) > 140:
            continue  # the largest configurations repeat smaller structure
        index, reach = _push_closure(trees)
        for s in trees:
            for t in trees:
                expected = index[t] in reach[index[s]]
                assert precedes(s, t) == expected, (ranks, s.parent, t.parent)
                checked += 1
    assert checked > 10_000


class TestSubtree:
    def test_whole_tree(self):
        sub, ids = subtree(S_TREE, 0)
        assert canonical_key(sub) == canonical_key(S_TREE)
        assert ids == tuple(range(9))

    def test_leaf(self):
        sub, ids = subtree(S_TREE, 5)
        assert sub == singleton()
        assert ids == (5,)

    def test_branch_subtree(self):
        sub, ids = subtree(S_TREE, X_NODE)
        assert sub.node_count == 5
        assert sub.root_rank == 1
        assert sorted(sub.rank) == [0, 0, 0, 0, 1]
        assert ids == (2, 5, 6, 7, 8)


class TestInducedTree:
    @staticmethod
    def per_node(parent, rank, nodes, root):
        to_new = {old: new for new, old in enumerate(nodes)}
        return RankedTree(
            tuple(NO_PARENT if old == root else to_new[parent[old]] for old in nodes),
            tuple(rank[old] for old in nodes),
        )

    def test_matches_per_node_relabel(self):
        rng = random.Random(0)
        for _ in range(300):
            t = random_valid_tree(rng, rng.randint(1, 30))
            x = rng.randrange(t.node_count)
            nodes = t.descendants(x)
            rng.shuffle(nodes)
            expected = self.per_node(t.parent, t.rank, nodes, x)
            assert induced_tree(t.parent, t.rank, nodes, x) == expected
            assert validate(expected)

    def test_forest_roots_are_their_own_parents(self):
        rng = random.Random(1)
        for seed in range(40):
            forest = replay(random_oplog(40, rng.randrange(80), seed))
            members = {}
            for x in range(forest.element_count):
                root = x  # no find: it would flatten the trees
                while forest.parent[root] != root:
                    root = forest.parent[root]
                members.setdefault(root, []).append(x)
            for root, nodes in members.items():
                rng.shuffle(nodes)
                expected = self.per_node(forest.parent, forest.rank, nodes, root)
                assert induced_tree(forest.parent, forest.rank, nodes, root) == expected

    def test_parent_outside_the_nodes_raises(self):
        t = chain(3, 2, 1, 0)  # node i is the parent of node i + 1
        with pytest.raises(KeyError):
            induced_tree(t.parent, t.rank, [0, 2, 3], 0)
        with pytest.raises(KeyError):
            induced_tree(t.parent, t.rank, [2, 3], 3)
        # a sibling of the root has the root's outside parent
        with pytest.raises(KeyError):
            induced_tree(S_TREE.parent, S_TREE.rank, [X_NODE, 1, Z_NODE], X_NODE)


class TestCanonical:
    def test_canonical_form_and_subtree_are_pinned(self):
        # one digest over seeded outputs, taken when each relabelled its
        # node list with its own loop
        trees = [random_uf_tree(n, s, 0.4) for n in (1, 2, 3, 5, 10, 40, 200) for s in range(10)]
        trees += list(enumerate_trees(6))
        digest = hashlib.sha256()
        for t in trees:
            canon, order = canonical_form(t)
            digest.update(repr((canon.parent, canon.rank, order)).encode())
            for x in range(t.node_count):
                sub, ids = subtree(t, x)
                digest.update(repr((sub.parent, sub.rank, ids)).encode())
        assert digest.hexdigest() == (
            "f6a17e76e9d6d6f7d8cea43b6fda07d7aa113de5d67b9e06e1bfcfa9bd9f68a7"
        )

    def test_singletons_equal(self):
        assert canonical_key(singleton()) == canonical_key(singleton())

    def test_sibling_order_ignored(self):
        a = RankedTree((-1, 0, 0, 1), (2, 1, 0, 0))
        b = RankedTree((-1, 0, 0, 2), (2, 0, 1, 0))
        assert canonical_key(a) == canonical_key(b)

    def test_distinct_rank_profile_differs(self):
        from uftree.reduction import make_apple, make_basket

        assert canonical_key(make_apple(2)) != canonical_key(make_basket(2))

    @given(ranked_trees(max_nodes=7))
    @settings(max_examples=60)
    def test_invariant_under_relabeling(self, t):
        canon, order = canonical_form(t)
        assert validate(canon)
        assert canonical_key(canon) == canonical_key(t)
        assert sorted(order) == list(range(t.node_count))
        # the canonical tree relabels t: ranks transport through the order map
        assert all(canon.rank[new] == t.rank[old] for new, old in enumerate(order))
        again, _ = canonical_form(canon)
        assert again == canon

    @given(ranked_trees(max_nodes=7))
    @settings(max_examples=60)
    def test_subtree_keys_match_extracted_subtrees(self, t):
        keys = subtree_keys(t, t.child_table())
        assert keys == [canonical_key(subtree(t, x)[0]) for x in range(t.node_count)]


class TestTextFormat:
    def test_serialize_singleton(self):
        assert serialize_tree(singleton()) == "1\n0 -1 0\n"

    def test_round_trip(self):
        for t in (S_TREE, T_TREE, chain(3, 2, 1, 0)):
            assert parse_tree(serialize_tree(t)) == t

    def test_comments_and_sparse_ids(self):
        text = "# fixture\n3\n5 -1 2\n10 5 1\n20 10 0\n"
        t, mapping = parse_tree_with_map(text)
        assert t == chain(2, 1, 0)
        assert mapping == {5: 0, 10: 1, 20: 2}

    def test_invalid_rank_edge_rejected(self):
        with pytest.raises(InvalidTreeError, match="rank-not-decreasing"):
            parse_tree("2\n0 -1 0\n1 0 1\n")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "header"),
            ("x\n", "node count"),
            ("0\n", "positive"),
            ("2\n0 -1 0\n", "expected 2 node lines"),
            ("1\n0 -1\n", "id parent rank"),
            ("1\n0 -1 zero\n", "non-integer"),
            ("2\n1 -1 1\n0 1 0\n", "strictly increasing"),
            ("1\n0 7 0\n", "unknown parent"),
            ("1\n0 -1 0\nleft-over\n", "trailing"),
        ],
    )
    def test_syntax_errors(self, text, fragment):
        with pytest.raises(FormatError, match=fragment):
            parse_tree(text)

    def test_node_cap_fires_from_header(self):
        with pytest.raises(CapExceeded):
            parse_tree("5\ngarbage\n", max_nodes=3)
        assert parse_tree(serialize_tree(S_TREE), max_nodes=9) == S_TREE

    def test_error_carries_line_number(self):
        with pytest.raises(FormatError) as err:
            parse_tree("2\n0 -1 1\nbroken\n")
        assert err.value.line == 3

    def test_trailing_content_is_reported_at_its_own_line(self):
        assert parse_tree("1\n0 -1 0\n\n \n") == singleton()
        with pytest.raises(FormatError, match="trailing") as err:
            parse_tree("# tree\n1\n0 -1 0\n\nleft-over\n")
        assert err.value.line == 5

    @given(ranked_trees())
    def test_parse_serialize_identity(self, t):
        assert parse_tree(serialize_tree(t)) == t


def parse_outcome(parse, text):
    """What a parser returns, or the type, message and line of what it raises."""
    try:
        return parse(text)
    except (FormatError, InvalidTreeError, CapExceeded) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def tree_text(rng: random.Random, t: RankedTree) -> tuple[list[str], list[list[str]]]:
    """Header lines and node-line fields of t, with dense or sparse ids."""
    n = t.node_count
    if rng.random() < 0.5:
        ids = list(range(n))
    else:
        ids = sorted(rng.sample(range(-3 * n, 3 * n), n))
    rows = [
        [str(ids[x]), str(-1 if p == -1 else ids[p]), str(t.rank[x])]
        for x, p in enumerate(t.parent)
    ]
    head = ["# tree"] * rng.randint(0, 1) + [str(n)]
    return head, rows


def malformed_text(rng: random.Random) -> str:
    """A random tree's text with up to two defects and varied whitespace."""
    t = random_valid_tree(rng, rng.randint(1, 10))
    head, rows = tree_text(rng, t)
    n = len(rows)
    for _ in range(rng.choice((0, 1, 1, 2))):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(8)
        if not rows[i] or not rows[j]:
            continue
        if kind == 0:  # one field moves to another line: balanced counts
            rows[j].append(rows[i].pop())
        elif kind == 1:
            rows[i].pop()
        elif kind == 2:
            rows[i].append(rng.choice(("0", "x")))
        elif kind == 3:
            rows[i][rng.randrange(len(rows[i]))] = rng.choice(("x", "1.0", ";", "0x1", "--1"))
        elif kind == 4:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 5:
            rows[i][0] = rows[j][0]
        elif kind == 6:
            rows[i][1 % len(rows[i])] = str(rng.choice((n, -2, 7 * n)))
        else:
            rows[i][-1] = str(rng.randint(0, 3))
    if rng.random() < 0.1:
        head[-1] = str(n + rng.choice((-1, 1)))
    seps = (" ", "  ", "\t", " \t ")
    lines = [
        rng.choice(("", " ", "\t")) + rng.choice(seps).join(row) + rng.choice(("", " ", "\t "))
        for row in rows
    ]
    return rng.choice(("\n", "\r\n")).join(head + lines) + "\n" * rng.randint(0, 2)


class TestParseMatchesPerLineReference:
    @pytest.mark.parametrize(
        "text",
        [
            "2\n0 -1\n1 0 0 0\n",  # a 2-field line, then a 4-field line
            "3\n0 -1 1\n1 0\n2 1 0 0\n",
            "2\n0\t-1\t1\n1\t0\t0\n",
            "2\n0   -1     1\n  1  0  0\n",
            "2\n0 -1 1 \t\n1 0 0   \n",
            "3\n5 -1 2\n10 5 1\n20 11 0\n",  # sparse ids, unknown parent
            "3\n0 -1 2\n1 0 1\n2 3 0\n",  # dense ids, parent n
            "3\n0 -1 2\n1 -2 1\n2 1 0\n",
            "3\n-1 -1 2\n0 -1 1\n1 0 0\n",  # id -1 but parent -1 is no parent
            "2\n0 -1 1\n1 0 ;\n",
            "2\n0 -1 1 ;\n1 0\n",
            "1\n0 -1 0\n\n  \n",
            "2\n0 -1 1\n1 0 0\nextra\n",
            "2\n0 -1 1\n1 0 0\n\t\nextra\n",  # trailing content after a blank line
            "2\n0 -1 1\n",
            "2\n0 +0 1\n1_0 0 0\n",
        ],
    )
    def test_fixed_texts(self, text):
        assert parse_outcome(parse_tree_with_map, text) == parse_outcome(
            reference_parse_tree_with_map, text
        )

    def test_random_texts(self):
        kinds = (
            "expected 'id parent rank'",
            "non-integer field",
            "node ids must be strictly increasing",
            "is reserved for 'no parent'",
            "unknown parent id",
            "rank-not-decreasing",
        )
        rng = random.Random(0)
        seen = set()
        for _ in range(3000):
            text = malformed_text(rng)
            expected = parse_outcome(reference_parse_tree_with_map, text)
            assert parse_outcome(parse_tree_with_map, text) == expected, text
            message = "" if isinstance(expected[0], RankedTree) else expected[1]
            seen.update(kind for kind in kinds if kind in message)
        assert seen == set(kinds)


class TestDot:
    def test_singleton(self):
        out = export_dot(singleton())
        assert out == 'digraph ranked_tree {\n  n0 [label="0:0"];\n}\n'

    def test_edges_point_to_parent(self):
        out = export_dot(chain(1, 0))
        assert '  n1 -> n0;' in out
        assert 'n0 [label="0:1"];' in out
