"""Ranked rooted trees and their elementary restructuring operations.

A ranked tree is a rooted tree whose nodes carry nonnegative integer ranks
that strictly decrease from parent to child.  Node ids are dense integers
``0..n-1``; the parent array stores ``-1`` at the root.  All operations are
pure: input trees are never mutated, results are fresh values.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import lt

from .errors import CapExceeded, FormatError, InvalidTreeError

NodeId = int

NO_PARENT = -1

# Any genuine union-by-rank tree on n nodes has root rank <= log2(n); the cap
# only bounds adversarial input, far above anything reachable in practice.
RANK_CAP = 1 << 16


@dataclass(frozen=True)
class RankedTree:
    """Immutable ranked tree over dense node ids.

    ``parent[i]`` is the parent of node ``i`` (``-1`` at the root) and
    ``rank[i]`` its rank.  Construction checks only array shape; use
    :func:`validate` to check the tree invariants on untrusted data.
    """

    parent: tuple[int, ...]
    rank: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parent", tuple(self.parent))
        object.__setattr__(self, "rank", tuple(self.rank))
        if len(self.parent) != len(self.rank):
            raise ValueError("parent and rank arrays must have equal length")
        if not self.parent:
            raise ValueError("a tree has at least one node")

    @cached_property
    def _validity(self) -> ValidationResult:
        # the arrays never change, so neither does validity: one check per tree
        return _invariants(self)

    @property
    def node_count(self) -> int:
        return len(self.parent)

    @property
    def root(self) -> NodeId:
        try:
            return self.parent.index(NO_PARENT)
        except ValueError:
            raise ValueError("tree has no root") from None

    @property
    def root_rank(self) -> int:
        return self.rank[self.root]

    def check_node(self, x: NodeId) -> None:
        if not 0 <= x < self.node_count:
            raise ValueError(f"unknown node id {x}")

    def children_of(self, x: NodeId) -> list[NodeId]:
        self.check_node(x)
        return [c for c, p in enumerate(self.parent) if p == x]

    def child_table(self) -> list[list[NodeId]]:
        """Children of every node, one list per id."""
        table: list[list[NodeId]] = [[] for _ in range(self.node_count)]
        for c, p in enumerate(self.parent):
            if p != NO_PARENT:
                table[p].append(c)
        return table

    def ancestors(self, x: NodeId):
        """Yield x, parent(x), ... up to and including the root."""
        self.check_node(x)
        while x != NO_PARENT:
            yield x
            x = self.parent[x]

    def is_ancestor(self, anc: NodeId, x: NodeId) -> bool:
        """True iff ``anc`` lies on the parent chain of ``x`` (non-strict)."""
        return any(a == anc for a in self.ancestors(x))

    def depths(self) -> list[int]:
        depth = [-1] * self.node_count
        for x in range(self.node_count):
            path = []
            y = x
            while y != NO_PARENT and depth[y] < 0:
                path.append(y)
                y = self.parent[y]
            base = 0 if y == NO_PARENT else depth[y] + 1
            for i, node in enumerate(reversed(path)):
                depth[node] = base + i
        return depth

    def depth_sum(self) -> int:
        return sum(self.depths())

    def height(self) -> int:
        return max(self.depths())

    def descendants(self, x: NodeId) -> list[NodeId]:
        """Nodes of the subtree rooted at x, ascending by id."""
        self.check_node(x)
        table = self.child_table()
        seen = [x]
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                nxt.extend(table[y])
            seen.extend(nxt)
            frontier = nxt
        return sorted(seen)


def singleton(rank: int = 0) -> RankedTree:
    return RankedTree((NO_PARENT,), (rank,))


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of :func:`validate`; truthy iff the tree is valid."""

    ok: bool
    reason: str | None = None
    node: int | None = None

    def __bool__(self) -> bool:
        return self.ok

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise InvalidTreeError(self.reason or "invalid tree", self.node)


def validate(t: RankedTree) -> ValidationResult:
    """Check the ranked-tree invariants on raw input.

    Accepts iff there is exactly one root, every parent pointer is in range,
    parent chains are acyclic, and ranks are nonnegative, capped, and
    strictly decreasing from parent to child.  Rejections carry the first
    violated invariant and the offending node.  The result is kept on t,
    so validating the same tree again costs nothing.
    """
    return t._validity


def _invariants(t: RankedTree) -> ValidationResult:
    """:func:`validate`, computed."""
    n = t.node_count
    parent, rank = t.parent, t.rank
    # Whole-array passes accept every valid tree.  Ranks strictly rise along
    # a parent chain, so with one root, in-range parents and decreasing ranks
    # there is no cycle; only a tree that fails them walks its chains below,
    # which find the first violation.  The sentinel rank above the cap is
    # what the root's parent -1 reads.
    if (
        parent.count(NO_PARENT) == 1
        and NO_PARENT <= min(parent)
        and max(parent) < n
        and 0 <= min(rank)
        and max(rank) <= RANK_CAP
        and all(map(lt, rank, map((*rank, RANK_CAP + 1).__getitem__, parent)))
    ):
        return ValidationResult(True)

    root = None
    for x, p in enumerate(t.parent):
        if p == NO_PARENT:
            if root is not None:
                return ValidationResult(False, "multiple-roots", x)
            root = x
        elif not 0 <= p < n:
            return ValidationResult(False, "dangling-parent", x)
        elif p == x:
            return ValidationResult(False, "cyclic-parent-chain", x)
    if root is None:
        return ValidationResult(False, "no-root", None)

    state = [0] * n  # 0 unvisited, 1 on current chain, 2 done
    for x in range(n):
        if state[x]:
            continue
        chain = []
        y = x
        while y != NO_PARENT and state[y] == 0:
            state[y] = 1
            chain.append(y)
            y = t.parent[y]
        if y != NO_PARENT and state[y] == 1:
            return ValidationResult(False, "cyclic-parent-chain", y)
        for node in chain:
            state[node] = 2

    for x, r in enumerate(t.rank):
        if r < 0:
            return ValidationResult(False, "negative-rank", x)
        if r > RANK_CAP:
            return ValidationResult(False, "rank-above-cap", x)
    for x, p in enumerate(t.parent):
        if p != NO_PARENT and t.rank[x] >= t.rank[p]:
            return ValidationResult(False, "rank-not-decreasing", x)
    return ValidationResult(True)


def merge(t: RankedTree, s: RankedTree) -> RankedTree:
    """Attach the root of ``s`` below the root of ``t``.

    Requires ``rank(t) >= rank(s)``.  The surviving root keeps its rank when
    strictly larger, and gains one on a tie.  Node ids of ``s`` are shifted
    by ``t.node_count`` so callers need not pre-disjoin the id spaces.
    """
    rt, rs = t.root_rank, s.root_rank
    if rt < rs:
        raise ValueError(f"merge requires rank(t) >= rank(s), got {rt} < {rs}")
    shift = t.node_count
    t_root = t.root
    parent = list(t.parent)
    rank = list(t.rank)
    for x, p in enumerate(s.parent):
        parent.append(t_root if p == NO_PARENT else p + shift)
        rank.append(s.rank[x])
    if rs == rt:
        rank[t_root] = rt + 1
    return RankedTree(tuple(parent), tuple(rank))


def collapse(t: RankedTree, x: NodeId) -> RankedTree:
    """Reattach x and every nonroot ancestor of x directly to the root.

    This is the structural effect of a path compression triggered at x.
    Ranks and node count are unchanged; collapsing at the root or at a
    depth-one node is the identity.
    """
    t.check_node(x)
    root = t.root
    parent = list(t.parent)
    y = x
    while y != root:
        parent[y] = root
        y = t.parent[y]
    return RankedTree(tuple(parent), t.rank)


def push(t: RankedTree, x: NodeId, y: NodeId) -> RankedTree:
    """Move x one level deeper, below its strictly higher-ranked sibling y."""
    error = push_error(t.parent, t.rank, x, y)
    if error is not None:
        raise ValueError(error)
    parent = list(t.parent)
    parent[x] = y
    return RankedTree(tuple(parent), t.rank)


def push_error(
    parent: Sequence[int], rank: Sequence[int], x: NodeId, y: NodeId
) -> str | None:
    """Why x cannot be pushed below y in the tree with these arrays, or None."""
    for z in (x, y):
        if not 0 <= z < len(parent):
            return f"unknown node id {z}"
    if x == y:
        return "push requires two distinct nodes"
    if parent[x] == NO_PARENT or parent[x] != parent[y]:
        return f"push requires siblings, got nodes {x} and {y}"
    if rank[x] >= rank[y]:
        return f"push requires rank({x}) < rank({y}), got {rank[x]} >= {rank[y]}"
    return None


def legal_pushes(t: RankedTree):
    """Yield every (x, y) pair for which push(t, x, y) is defined."""
    for siblings in t.child_table():
        for x in siblings:
            for y in siblings:
                if x != y and t.rank[x] < t.rank[y]:
                    yield x, y


def precedes(s: RankedTree, t: RankedTree) -> bool:
    """Ancestry-containment order: every ancestor in s is an ancestor in t.

    Defined only for trees on the same node set with the same root and the
    same rank function; anything else raises.  Equivalent to: t is reachable
    from s by a sequence of pushes.
    """
    if s.node_count != t.node_count:
        raise ValueError("precedes requires trees on the same node set")
    if s.rank != t.rank:
        raise ValueError("precedes requires identical rank functions")
    if s.root != t.root:
        raise ValueError("precedes requires the same root")
    return all(
        t.is_ancestor(p, x)
        for x, p in enumerate(s.parent)
        if p != NO_PARENT
    )


def subtree(t: RankedTree, x: NodeId) -> tuple[RankedTree, tuple[int, ...]]:
    """Extract the subtree rooted at x with re-densified ids.

    Returns the subtree and the id map: ``ids[new] = old``, ascending in the
    original ids so the renaming is stable.
    """
    ids = t.descendants(x)
    return induced_tree(t.parent, t.rank, ids, x), tuple(ids)


def induced_tree(
    parent: Sequence[int], rank: Sequence[int], nodes: Sequence[NodeId], root: NodeId
) -> RankedTree:
    """The tree on ``nodes`` with dense ids, node i being ``nodes[i]``, rooted at
    ``root`` whatever its parent entry (a Forest root is its own parent).  Any
    other node whose parent is not in ``nodes`` raises ``KeyError``."""
    to_new = dict(zip(nodes, range(len(nodes))))
    parents = list(map(parent.__getitem__, nodes))
    parents[to_new[root]] = None
    to_new[None] = NO_PARENT
    tree_parent = tuple(map(to_new.__getitem__, parents))
    return RankedTree(tree_parent, tuple(map(rank.__getitem__, nodes)))


def subtree_keys(t: RankedTree, table: list[list[NodeId]]) -> list[bytes]:
    """Canonical key of the subtree below every node, given t's child table.

    ``subtree_keys(t, t.child_table())[x] == canonical_key(subtree(t, x)[0])``:
    the bottom-up encoding of a node depends only on the subtree below it.
    Equal bytes iff the subtrees are isomorphic as unordered rank-labeled
    rooted trees.  t must be valid, so that ascending rank is bottom-up and
    every rank-0 node is a leaf; only positive-rank nodes are encoded.
    """
    enc, rank = [b"0()"] * t.node_count, t.rank  # node_key(0, [])
    for x in sorted(filter(rank.__getitem__, range(t.node_count)), key=rank.__getitem__):
        enc[x] = node_key(rank[x], map(enc.__getitem__, table[x]))
    return enc


def node_key(rank: int, child_keys: Iterable[bytes]) -> bytes:
    """Canonical key of a rank-``rank`` node over subtrees with these keys."""
    return b"%d(%s)" % (rank, b"".join(sorted(child_keys)))


def canonical_key(t: RankedTree) -> bytes:
    """Isomorphism-invariant key of a valid tree.

    Two trees get equal keys iff they are isomorphic as unordered rooted
    trees with rank labels.  Intended for memoization and deduplication at
    desk scale; the encoding grows quadratically on path-like trees.
    """
    return subtree_keys(t, t.child_table())[t.root]


def canonical_form(t: RankedTree) -> tuple[RankedTree, tuple[int, ...]]:
    """Relabel a valid tree t into its canonical representative.

    Isomorphic trees map to the identical canonical tree.  Returns the
    canonical tree and the id map ``order[canonical] = original``.
    """
    table = t.child_table()
    enc = subtree_keys(t, table)
    order: list[int] = []
    stack = [t.root]
    while stack:
        x = stack.pop()
        order.append(x)
        # reversed so the lexicographically smallest child is visited first
        stack.extend(sorted(table[x], key=lambda c: (enc[c], c), reverse=True))
    return induced_tree(t.parent, t.rank, order, order[0]), tuple(order)


def serialize_tree(t: RankedTree) -> str:
    """Render the tree text format: header line n, then "id parent rank"."""
    lines = [str(t.node_count)]
    for x in range(t.node_count):
        lines.append(f"{x} {t.parent[x]} {t.rank[x]}")
    return "\n".join(lines) + "\n"


def counted_lines(text: str, what: str, row: str, least: int, cap: int | None):
    """The body lines of a counted text format, and the line number of the first:
    after optional ``#`` lines, a header with a ``what`` count of at least
    ``least`` (above ``cap``, :class:`CapExceeded` before any body line is
    read), that many ``row`` lines, then blank lines only."""
    lines = text.splitlines()
    pos = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    if pos == len(lines):
        raise FormatError("missing header line", pos + 1)
    try:
        n = int(lines[pos])
    except ValueError:
        raise FormatError(f"header must be a {what} count, got {lines[pos]!r}", pos + 1) from None
    if n < least:
        bound = "positive" if least == 1 else f"at least {least}"
        raise FormatError(f"{what} count must be {bound}, got {n}", pos + 1)
    if cap is not None and n > cap:
        raise CapExceeded(f"tree has {n} nodes, cap is {cap}")
    body = lines[pos + 1 : pos + 1 + n]
    if len(body) < n:
        raise FormatError(f"expected {n} {row} lines, found {len(body)}", len(lines) + 1)
    for lineno, extra in enumerate(lines[pos + 1 + n :], pos + 2 + n):
        if extra.strip():
            raise FormatError(f"trailing content after {row} lines", lineno)
    return body, pos + 2


def _parse(
    text: str, max_nodes: int | None
) -> tuple[RankedTree, dict[int, int] | None]:
    """:func:`parse_tree_with_map`, with ``None`` for the map when the ids
    are already 0..n-1."""
    body, first = counted_lines(text, "node", "node", 1, max_nodes)
    n = len(body)

    # One split over every node line, with a ";" token between lines.  If
    # there are 4n - 1 tokens and the 3n outside every fourth slot are all
    # ints, the n - 1 separators fill those slots: three fields a line.
    tokens = " ; ".join(body).split()
    try:
        if len(tokens) != 4 * n - 1:
            raise ValueError
        ids = tuple(map(int, tokens[0::4]))
        parents = tuple(map(int, tokens[1::4]))
        rank = tuple(map(int, tokens[2::4]))
    except ValueError:
        ids = None
    del tokens
    if ids is None or not all(map(lt, ids, islice(ids, 1, None))):
        raise _node_line_error(body, first)

    if ids[0] == 0 and ids[-1] == n - 1:  # strictly increasing: exactly 0..n-1
        id_map = None
        parent = parents
        known = NO_PARENT <= min(parents) and max(parents) < n
    else:
        id_map = dict(zip(ids, range(n)))
        if NO_PARENT in id_map:
            raise _node_line_error(body, first)
        parent = tuple(map({**id_map, NO_PARENT: NO_PARENT}.get, parents))
        known = None not in parent
    if not known:
        present = set(ids)
        i = next(i for i, p in enumerate(parents) if p != NO_PARENT and p not in present)
        raise FormatError(f"unknown parent id {parents[i]}", first + i)

    tree = RankedTree(parent, rank)
    validate(tree).raise_if_invalid()
    return tree, id_map


def _node_line_error(lines: list[str], first_lineno: int) -> FormatError:
    """The error of the first node line that is not three integer fields
    with an id above the previous line's and other than -1, which as a
    parent means "none"."""
    previous = None
    for lineno, line in enumerate(lines, first_lineno):
        fields = line.split()
        if len(fields) != 3:
            return FormatError(f"expected 'id parent rank', got {line!r}", lineno)
        try:
            node, _, _ = map(int, fields)
        except ValueError:
            return FormatError(f"non-integer field in {line!r}", lineno)
        if previous is not None and node <= previous:
            return FormatError(f"node ids must be strictly increasing at id {node}", lineno)
        if node == NO_PARENT:
            return FormatError(f"node id {NO_PARENT} is reserved for 'no parent'", lineno)
        previous = node
    raise AssertionError("every node line is well formed")


def parse_tree_with_map(
    text: str, max_nodes: int | None = None
) -> tuple[RankedTree, dict[int, int]]:
    """Parse the tree text format, re-densifying arbitrary node ids but -1.

    Returns the tree plus the mapping from original ids to dense ids.
    Syntax problems raise :class:`FormatError` with a line number; trees
    that parse but violate the invariants raise :class:`InvalidTreeError`.
    A header count above ``max_nodes`` raises :class:`CapExceeded` before
    any node line is read.
    """
    tree, id_map = _parse(text, max_nodes)
    if id_map is None:
        id_map = dict(zip(range(tree.node_count), range(tree.node_count)))
    return tree, id_map


def parse_tree(text: str, max_nodes: int | None = None) -> RankedTree:
    return _parse(text, max_nodes)[0]


def export_dot(t: RankedTree) -> str:
    """DOT rendering: one digraph, edges child -> parent, labels "id:rank"."""
    lines = ["digraph ranked_tree {"]
    for x in range(t.node_count):
        lines.append(f'  n{x} [label="{x}:{t.rank[x]}"];')
    for x, p in enumerate(t.parent):
        if p != NO_PARENT:
            lines.append(f"  n{x} -> n{p};")
    lines.append("}")
    return "\n".join(lines) + "\n"
