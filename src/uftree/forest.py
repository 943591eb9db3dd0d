"""Instrumented disjoint-set forest plus test-instance generators.

The forest implements the classic union-by-rank strategy with full path
compression on find.  Union locates the two roots without compressing, so a
union-only history builds exactly a composition of root merges; explicit
finds are what introduce compressions.  Exported trees therefore land in
the class the recognizer accepts, which is the whole point: the engine is
the ground-truth positive generator for the recognition code, and the
enumerators and mutator below supply the exhaustive and negative corpora.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import FormatError
from .tree import NO_PARENT, RankedTree, collapse, merge, singleton, validate


@dataclass(frozen=True)
class MakeSet:
    count: int


@dataclass(frozen=True)
class Union:
    a: int
    b: int


@dataclass(frozen=True)
class Find:
    element: int


Op = MakeSet | Union | Find


class Forest:
    """Array-backed disjoint-set forest over elements 0..n-1.

    Single-writer: operations mutate in place.  ``rank`` is only meaningful
    at roots, as usual, but stale child entries are never read.
    """

    def __init__(self):
        self.parent: list[int] = []
        self.rank: list[int] = []

    @property
    def element_count(self) -> int:
        return len(self.parent)

    def check_element(self, x: int) -> None:
        if not 0 <= x < self.element_count:
            raise ValueError(f"out-of-range element {x}")

    def make_set_block(self, count: int) -> None:
        if count < 1:
            raise ValueError(f"make-set block size must be positive, got {count}")
        start = self.element_count
        self.parent.extend(range(start, start + count))
        self.rank.extend([0] * count)

    def root_of(self, x: int) -> int:
        """Root of x's tree, without touching the structure."""
        self.check_element(x)
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def find(self, x: int) -> int:
        """Root of x's tree, reattaching x and all its ancestors to the root."""
        root = self.root_of(x)
        while x != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        """Union-by-rank on the two roots; no-op when already joined.

        The lower-ranked root goes below the higher; on a tie the second
        tree's root goes below the first, whose rank grows by one.  Roots
        are located without path compression, so a find-free history is a
        pure merge composition.
        """
        ra, rb = self.root_of(a), self.root_of(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            self.parent[ra] = rb
        else:
            self.parent[rb] = ra
            if self.rank[ra] == self.rank[rb]:
                self.rank[ra] += 1


def replay(log: list) -> Forest:
    """Apply an op log to a fresh forest; the log must start with a MakeSet."""
    if not log or not isinstance(log[0], MakeSet):
        raise ValueError("op log must start with a make-set block")
    forest = Forest()
    for op in log:
        if isinstance(op, MakeSet):
            forest.make_set_block(op.count)
        elif isinstance(op, Union):
            forest.union(op.a, op.b)
        elif isinstance(op, Find):
            forest.find(op.element)
        else:
            raise ValueError(f"unknown op {op!r}")
    return forest


def parse_oplog(text: str) -> list:
    """Parse the op log format: "makeset n" / "union a b" / "find a" lines."""
    log = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if fields[0] == "makeset" and len(fields) == 2:
                log.append(MakeSet(int(fields[1])))
            elif fields[0] == "union" and len(fields) == 3:
                log.append(Union(int(fields[1]), int(fields[2])))
            elif fields[0] == "find" and len(fields) == 2:
                log.append(Find(int(fields[1])))
            else:
                raise FormatError(f"unknown op {line!r}", lineno)
        except ValueError:
            raise FormatError(f"non-integer field in {line!r}", lineno) from None
    return log


def format_oplog(log: list) -> str:
    lines = []
    for op in log:
        if isinstance(op, MakeSet):
            lines.append(f"makeset {op.count}")
        elif isinstance(op, Union):
            lines.append(f"union {op.a} {op.b}")
        elif isinstance(op, Find):
            lines.append(f"find {op.element}")
        else:
            raise ValueError(f"unknown op {op!r}")
    return "\n".join(lines) + "\n" if lines else ""


@dataclass(frozen=True)
class ExportedTree:
    """One tree of a forest, re-densified; elements[node_id] is the element."""

    tree: RankedTree
    elements: tuple[int, ...]


def export_trees(forest: Forest) -> list[ExportedTree]:
    """One ranked tree per root, ordered by root element."""
    members: dict[int, list[int]] = {}
    for x in range(forest.element_count):
        members.setdefault(forest.root_of(x), []).append(x)
    out = []
    for root in sorted(members):
        elements = sorted(members[root])
        to_new = {e: i for i, e in enumerate(elements)}
        parent = tuple(
            NO_PARENT if e == root else to_new[forest.parent[e]] for e in elements
        )
        rank = tuple(forest.rank[e] for e in elements)
        out.append(ExportedTree(RankedTree(parent, rank), tuple(elements)))
    return out


def random_oplog(
    n: int, op_count: int, seed: int, find_fraction: float = 0.3
) -> list:
    """Seeded random op log: one make-set block, then unions and finds."""
    if n < 1:
        raise ValueError("need at least one element")
    rng = random.Random(seed)
    log: list = [MakeSet(n)]
    for _ in range(op_count):
        if rng.random() < find_fraction:
            log.append(Find(rng.randrange(n)))
        else:
            log.append(Union(rng.randrange(n), rng.randrange(n)))
    return log


def random_uf_tree(n: int, seed: int, collapse_prob: float = 0.25) -> RankedTree:
    """Random n-node tree built by interleaved merges and collapses.

    Starts from n singletons; each step either collapses a random tree at a
    random node (probability ``collapse_prob``) or merges two random roots,
    until a single tree remains.  Deterministic per seed.  With
    ``collapse_prob=0`` the result is a pure merge composition, so a Union
    tree whose root rank equals its height.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if not 0.0 <= collapse_prob <= 1.0:
        raise ValueError("collapse_prob must be in [0, 1]")
    rng = random.Random(seed)
    forest = [singleton() for _ in range(n)]

    def merge_two() -> None:
        i, j = rng.sample(range(len(forest)), 2)
        if forest[i].root_rank < forest[j].root_rank:
            i, j = j, i
        forest[i] = merge(forest[i], forest[j])
        forest.pop(j)

    for _ in range(2 * n):
        if rng.random() < collapse_prob:
            weights = [t.node_count for t in forest]
            i = rng.choices(range(len(forest)), weights=weights)[0]
            forest[i] = collapse(forest[i], rng.randrange(forest[i].node_count))
        elif len(forest) > 1:
            merge_two()
    while len(forest) > 1:
        merge_two()
    return forest[0]


# --- exhaustive enumeration -------------------------------------------------

# A structure is (rank, sorted tuple of child structures); the node-wise rank
# bound rank <= height+1 keeps the corpus finite while retaining near-miss
# labelings such as a rank-1 leaf.

_ENUMERATION_CAP = 7


@lru_cache(maxsize=None)
def _structures(size: int) -> tuple:
    if size == 1:
        return ((0, ()), (1, ()))
    out = []
    for children in _child_multisets(size - 1):
        height = 1 + max(_struct_height(c) for c in children)
        min_rank = max(c[0] for c in children) + 1
        for r in range(min_rank, height + 2):
            out.append((r, children))
    return tuple(out)


@lru_cache(maxsize=None)
def _pool(max_size: int) -> tuple:
    # all structures of size <= max_size with their sizes, in a fixed order
    items = []
    for s in range(1, max_size + 1):
        for struct in _structures(s):
            items.append((s, struct))
    return tuple(items)


def _child_multisets(budget: int):
    """Multisets of structures totaling `budget` nodes, as sorted tuples.

    Uniqueness comes from choosing pool entries in nondecreasing position.
    """
    pool = _pool(budget)

    def rec(remaining: int, lo: int):
        if remaining == 0:
            yield ()
            return
        for idx in range(lo, len(pool)):
            size, struct = pool[idx]
            if size > remaining:
                continue
            for rest in rec(remaining - size, idx):
                yield (struct,) + rest
    for combo in rec(budget, 0):
        yield tuple(sorted(combo))


@lru_cache(maxsize=None)
def _struct_height(struct: tuple) -> int:
    rank, children = struct
    if not children:
        return 0
    return 1 + max(_struct_height(c) for c in children)


def _struct_to_tree(struct: tuple) -> RankedTree:
    parent: list[int] = []
    rank: list[int] = []

    def emit(node: tuple, par: int) -> None:
        parent.append(par)
        rank.append(node[0])
        me = len(parent) - 1
        for child in node[1]:
            emit(child, me)

    emit(struct, NO_PARENT)
    return RankedTree(tuple(parent), tuple(rank))


def enumerate_trees(max_nodes: int):
    """Every tree with at most max_nodes nodes, once per isomorphism class.

    Covers every unordered rooted shape with every rank labeling in which
    each node's rank is at most its height plus one; strictness toward the
    leaves is implied.  The stream includes invalid-for-recognition cases
    like a rank-1 singleton on purpose.
    """
    if not 1 <= max_nodes <= _ENUMERATION_CAP:
        raise ValueError(
            f"enumeration is bounded to {_ENUMERATION_CAP} nodes, got {max_nodes}"
        )
    for size in range(1, max_nodes + 1):
        for struct in _structures(size):
            yield _struct_to_tree(struct)


def mutate(t: RankedTree, seed: int) -> RankedTree:
    """One random validity-preserving perturbation of a tree.

    Candidates are nonroot rank bumps that stay below the parent's rank,
    rank decrements that stay above every child's, and reparentings under a
    strictly higher-ranked non-descendant.  The result always validates but
    need not be a Union-Find tree anymore; raises when no candidate exists
    (for instance on a rank-0 singleton).
    """
    validate(t).raise_if_invalid()
    root = t.root
    table = t.child_table()
    candidates: list[tuple] = []
    for x in range(t.node_count):
        p = t.parent[x]
        if p != NO_PARENT and t.rank[x] + 1 < t.rank[p]:
            candidates.append(("bump-up", x))
        floor = max((t.rank[c] for c in table[x]), default=-1)
        if t.rank[x] - 1 > floor and t.rank[x] - 1 >= 0:
            candidates.append(("bump-down", x))
    for x in range(t.node_count):
        if x == root:
            continue
        below = set(t.descendants(x))
        for p in range(t.node_count):
            if p != t.parent[x] and p not in below and t.rank[x] < t.rank[p]:
                candidates.append(("reparent", x, p))
    if not candidates:
        raise ValueError("tree admits no legal mutation")
    choice = random.Random(seed).choice(candidates)
    parent = list(t.parent)
    rank = list(t.rank)
    if choice[0] == "bump-up":
        rank[choice[1]] += 1
    elif choice[0] == "bump-down":
        rank[choice[1]] -= 1
    else:
        parent[choice[1]] = choice[2]
    return RankedTree(tuple(parent), tuple(rank))
