"""Core tree model: validation, merge/collapse/push, ordering, canonical forms, text."""

import itertools

import pytest
from hypothesis import given, settings

from support import S_TREE, T_TREE, X_NODE, Y_NODE_MERGED, Z_NODE, chain, ranked_trees, star
from uftree.errors import CapExceeded, FormatError, InvalidTreeError
from uftree.tree import (
    RankedTree,
    canonical_form,
    canonical_key,
    collapse,
    export_dot,
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


class TestCanonical:
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

    @given(ranked_trees())
    def test_parse_serialize_identity(self, t):
        assert parse_tree(serialize_tree(t)) == t


class TestDot:
    def test_singleton(self):
        out = export_dot(singleton())
        assert out == 'digraph ranked_tree {\n  n0 [label="0:0"];\n}\n'

    def test_edges_point_to_parent(self):
        out = export_dot(chain(1, 0))
        assert '  n1 -> n0;' in out
        assert 'n0 [label="0:1"];' in out
