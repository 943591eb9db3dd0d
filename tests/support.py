"""Shared builders, oracles, and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from uftree.tree import RankedTree, canonical_key, merge, singleton

# Pipeline fixture pair: a 9-node tree whose rank-1 child x carries four
# leaves (z is one of them), and a 3-node tree rooted at y.
S_TREE = RankedTree((-1, 0, 0, 0, 0, 2, 2, 2, 2), (2, 1, 1, 1, 1, 0, 0, 0, 0))
T_TREE = RankedTree((-1, 0, 0), (2, 0, 0))
X_NODE = 2
Z_NODE = 7
Y_NODE_MERGED = 9  # id of t's root after merge(S_TREE, T_TREE)


def chain(*ranks: int) -> RankedTree:
    """A path tree: chain(2, 1, 0) has a rank-2 root over a rank-1 over a leaf."""
    parent = (-1,) + tuple(range(len(ranks) - 1))
    return RankedTree(parent, ranks)


def star(root_rank: int, *leaf_ranks: int) -> RankedTree:
    parent = (-1,) + (0,) * len(leaf_ranks)
    return RankedTree(parent, (root_rank, *leaf_ranks))


def wide_tree(k: int) -> RankedTree:
    """Rank-3 root over 30 leaves, k rank-1 children each over a leaf, and
    one rank-2 child over a leaf: 2k + 33 nodes, Union-Find by one push."""
    parent = [-1] + [0] * 30
    for _ in range(k):
        parent += [0, len(parent)]
    parent += [0, len(parent)]
    rank = [3] + [0] * 30 + [1, 0] * k + [2, 0]
    return RankedTree(tuple(parent), tuple(rank))


def many_repairs(m: int) -> RankedTree:
    """Rank-3 root over a leaf, m rank-2 children each over a leaf, and m + 1
    rank-1 children each over a leaf: 4m + 4 nodes.  Every rank-2 child must
    stay and take one rank-1 child, so a certificate has m steps."""
    parent = [-1, 0]
    for _ in range(2 * m + 1):
        parent += [0, len(parent)]
    rank = [3, 0] + [2, 0] * m + [1, 0] * (m + 1)
    return RankedTree(tuple(parent), tuple(rank))


def relabel(t: RankedTree, seed: int | None = None) -> RankedTree:
    """t with its ids reversed, or shuffled by ``seed``: an isomorphic copy."""
    new_id = list(range(t.node_count - 1, -1, -1))
    if seed is not None:
        random.Random(seed).shuffle(new_id)
    parent = [0] * t.node_count
    rank = [0] * t.node_count
    for x, p in enumerate(t.parent):
        parent[new_id[x]] = p if p < 0 else new_id[p]
        rank[new_id[x]] = t.rank[x]
    return RankedTree(tuple(parent), tuple(rank))


def union_trees_upto(max_nodes: int) -> dict[int, set[bytes]]:
    """Canonical keys of every Union tree with at most max_nodes nodes.

    Independent oracle for the linear Union-tree check: builds the class
    bottom-up from singletons by exhaustive rank-respecting merges.
    """
    by_size: dict[int, dict[bytes, RankedTree]] = {1: {}}
    one = singleton()
    by_size[1][canonical_key(one)] = one
    for n in range(2, max_nodes + 1):
        by_size[n] = {}
        for a in range(1, n):
            b = n - a
            for t in by_size[a].values():
                for s in by_size[b].values():
                    if t.root_rank >= s.root_rank:
                        m = merge(t, s)
                        by_size[n][canonical_key(m)] = m
    return {n: set(keys) for n, keys in by_size.items()}


def merge_constructible(t: RankedTree, keys_by_size: dict[int, set[bytes]]) -> bool:
    """True iff some merge sequence of singletons builds a tree isomorphic to t."""
    return canonical_key(t) in keys_by_size.get(t.node_count, set())


@st.composite
def ranked_trees(draw, max_nodes: int = 9, max_extra_rank: int = 2):
    """Arbitrary valid ranked trees.

    Shape first (each node's parent is an earlier node), then ranks top-down:
    the root gets its height plus some slack, every child draws from
    [height(child), rank(parent) - 1], which is never empty.
    """
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    parent = [-1]
    for i in range(1, n):
        parent.append(draw(st.integers(min_value=0, max_value=i - 1)))

    children = [[] for _ in range(n)]
    for i in range(1, n):
        children[parent[i]].append(i)
    height = [0] * n
    for i in range(n - 1, 0, -1):
        height[parent[i]] = max(height[parent[i]], height[i] + 1)

    rank = [0] * n
    rank[0] = height[0] + draw(st.integers(min_value=0, max_value=max_extra_rank))
    for i in range(1, n):
        rank[i] = draw(st.integers(min_value=height[i], max_value=rank[parent[i]] - 1))
    return RankedTree(tuple(parent), tuple(rank))
