"""Union-by-rank disjoint-set forest plus test-instance generators.

The forest implements the classic union-by-rank strategy with full path
compression on find.  Union locates the two roots without compressing, so a
union-only history builds exactly a composition of root merges; explicit
finds are what introduce compressions.  Exported trees therefore land in
the class the recognizer accepts, which is the whole point: the engine is
the ground-truth positive generator for the recognition code (op logs and
``random_uf_tree`` both run on it), and the enumerators and mutator below
supply the exhaustive and negative corpora.

An op log is a list of plain tuples, the words of its text lines with the
operands as ints: ``("makeset", n)``, ``("union", a, b)``, ``("find", a)``.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .errors import FormatError
from .tree import NO_PARENT, NodeId, RankedTree, induced_tree, validate


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

    def makeset(self, count: int) -> None:
        """Add ``count`` singleton elements after the existing ones."""
        if count < 1:
            raise ValueError(f"make-set block size must be positive, got {count}")
        start = len(self.parent)
        self.parent.extend(range(start, start + count))
        self.rank.extend([0] * count)

    def find(self, x: int) -> int:
        """Root of x's tree, reattaching x and all its ancestors to the root."""
        parent = self.parent
        if not 0 <= x < len(parent):
            raise ValueError(f"out-of-range element {x}")
        root = x
        while parent[root] != root:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        """Union-by-rank on the two roots; no-op when already joined.

        The lower-ranked root goes below the higher; on a tie the second
        tree's root goes below the first, whose rank grows by one.  Roots
        are located without path compression, so a find-free history is a
        pure merge composition.
        """
        parent, rank = self.parent, self.rank
        n = len(parent)
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"out-of-range element {b if 0 <= a < n else a}")
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a == b:
            return
        if rank[a] < rank[b]:
            parent[a] = b
        else:
            parent[b] = a
            if rank[a] == rank[b]:
                rank[a] += 1


def replay(log: list) -> Forest:
    """Apply an op log to a fresh forest; the log must start with a make-set."""
    if not log or log[0][0] != "makeset":
        raise ValueError("op log must start with a make-set block")
    forest = Forest()
    makeset, union, find = forest.makeset, forest.union, forest.find
    for op in log:
        kind = op[0]
        if kind == "union":
            union(op[1], op[2])
        elif kind == "find":
            find(op[1])
        elif kind == "makeset":
            makeset(op[1])
        else:
            raise ValueError(f"unknown op {op!r}")
    return forest


def parse_oplog(text: str) -> list:
    """Parse the op log format: "makeset n" / "union a b" / "find a" lines.

    Each op is the tuple of its line's words with the operands as ints.  The
    kinds are the literals below, not the split-out words, so a long log
    holds three kind strings rather than one per op.
    """
    log = []
    append = log.append
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            match raw.split():
                case ["union", a, b]:
                    append(("union", int(a), int(b)))
                case ["find", x]:
                    append(("find", int(x)))
                case ["makeset", count]:
                    append(("makeset", int(count)))
                case []:
                    pass
                case [word, *_] if word[0] == "#":
                    pass
                case _:
                    raise FormatError(f"unknown op {raw.strip()!r}", lineno)
        except FormatError:
            raise
        except ValueError:
            raise FormatError(f"non-integer field in {raw.strip()!r}", lineno) from None
    return log


def format_oplog(log: list) -> str:
    """The op log text of ``log``: each op's words, one op per line."""
    return "".join(" ".join(map(str, op)) + "\n" for op in log)


@dataclass(frozen=True)
class ExportedTree:
    """One tree of a forest, re-densified; elements[node_id] is the element."""

    tree: RankedTree
    elements: tuple[int, ...]


def export_trees(forest: Forest) -> list[ExportedTree]:
    """One ranked tree per root, ordered by root element."""
    parent, rank = forest.parent, forest.rank
    # One pass over a copy of parent resolves each element's root; the
    # elements before x already point at theirs, which shortens x's walk.
    # Members are appended in ascending order.
    root = parent[:]
    members: dict[int, list[int]] = {}
    for x, r in enumerate(root):
        while root[r] != r:
            r = root[r]
        root[x] = r
        members.setdefault(r, []).append(x)
    return [
        ExportedTree(induced_tree(parent, rank, m, r), tuple(m)) for r, m in sorted(members.items())
    ]


def random_oplog(
    n: int, op_count: int, seed: int, find_fraction: float = 0.3
) -> list:
    """Seeded random op log: one make-set block, then unions and finds."""
    if n < 1:
        raise ValueError("need at least one element")
    rng = random.Random(seed)
    log: list = [("makeset", n)]
    for _ in range(op_count):
        if rng.random() < find_fraction:
            log.append(("find", rng.randrange(n)))
        else:
            log.append(("union", rng.randrange(n), rng.randrange(n)))
    return log


def random_uf_tree(n: int, seed: int, collapse_prob: float = 0.25) -> RankedTree:
    """Random n-node tree built by interleaved unions and finds on a Forest.

    Starts from n singletons; each step either runs a find at a random node
    of a random tree (probability ``collapse_prob``), collapsing its path,
    or unions the roots of two random trees, until a single tree remains.
    Deterministic per seed.  With ``collapse_prob=0`` the result is a pure
    merge composition, so a Union tree whose root rank equals its height.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if not 0.0 <= collapse_prob <= 1.0:
        raise ValueError("collapse_prob must be in [0, 1]")
    rng = random.Random(seed)
    engine = Forest()
    engine.makeset(n)
    # trees[s]: the elements of the tree in slot s by node id, root first
    # (merge order), or None once merged away; live: the slots of the trees
    # left, in the list order the draws index.  A slot's size stays put in
    # the Fenwick tree, and a merged-away slot weighs 0.
    trees: list[list[int] | None] = [[x] for x in range(n)]
    live, sizes = list(range(n)), _Fenwick(n)

    def merge_two() -> None:
        p, q = rng.sample(range(len(live)), 2)
        i, j = live[p], live[q]
        if engine.rank[trees[i][0]] < engine.rank[trees[j][0]]:
            i, j, q = j, i, p
        engine.union(trees[i][0], trees[j][0])
        sizes.add(i, len(trees[j]))
        sizes.add(j, -len(trees[j]))
        trees[i] += trees[j]
        trees[j] = None
        live.pop(q)

    for _ in range(2 * n):
        if rng.random() < collapse_prob:
            # rng.choices weighted by size: the first tree whose running size
            # exceeds random() * n, and the last tree should that round to n
            i = sizes.first_above(min(rng.random() * n, n - 1))
            engine.find(trees[i][rng.randrange(len(trees[i]))])
        elif len(live) > 1:
            merge_two()
    while len(live) > 1:
        merge_two()
    last = trees[live[0]]
    return induced_tree(engine.parent, engine.rank, last, last[0])


class _Fenwick:
    """Prefix sums of n non-negative slot weights, each 1 at the start, under
    point updates, and the first slot whose prefix sum exceeds a bound, each
    in O(log n)."""

    __slots__ = ("tree", "top")

    def __init__(self, n: int):
        # tree[i] sums the weights of slots i - (i & -i) .. i - 1
        self.tree = [i & -i for i in range(n + 1)]
        self.top = 1 << (n.bit_length() - 1)  # the widest span a descent can take

    def add(self, slot: int, delta: int) -> None:
        tree, i, end = self.tree, slot + 1, len(self.tree)
        while i < end:
            tree[i] += delta
            i += i & -i

    def first_above(self, bound: float) -> int:
        """The first slot whose prefix sum exceeds ``bound``, which must lie
        below the total."""
        tree, pos, total, step, end = self.tree, 0, 0, self.top, len(self.tree)
        while step:
            if pos + step < end and total + tree[pos + step] <= bound:
                pos += step
                total += tree[pos]
            step >>= 1
        return pos


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
    strictly higher-ranked node (never a descendant).  The result always
    validates but need not be a Union-Find tree anymore; raises when no
    candidate exists (for instance on a rank-0 singleton).
    """
    validate(t).raise_if_invalid()
    n = t.node_count
    table = t.child_table()
    bumps: list[tuple[NodeId, int]] = []
    for x in range(n):
        p = t.parent[x]
        if p != NO_PARENT and t.rank[x] + 1 < t.rank[p]:
            bumps.append((x, 1))
        floor = max((t.rank[c] for c in table[x]), default=-1)
        if t.rank[x] - 1 > floor and t.rank[x] - 1 >= 0:
            bumps.append((x, -1))
    # Reparentings are counted, not listed: x may move below every strictly
    # higher-ranked node but its parent, which a valid tree ranks above it.
    ranks = sorted(t.rank)
    moves = [n - bisect_right(ranks, r) - (p != NO_PARENT) for p, r in zip(t.parent, t.rank)]
    total = len(bumps) + sum(moves)
    if not total:
        raise ValueError("tree admits no legal mutation")
    # the index choice() would draw from the list of every candidate, bumps first
    i = random.Random(seed).randrange(total)
    parent = list(t.parent)
    rank = list(t.rank)
    if i < len(bumps):
        x, delta = bumps[i]
        rank[x] += delta
    else:
        i -= len(bumps)
        x = 0
        while i >= moves[x]:
            i -= moves[x]
            x += 1
        higher = (p for p in range(n) if p != t.parent[x] and t.rank[x] < t.rank[p])
        parent[x] = next(islice(higher, i, None))
    return RankedTree(tuple(parent), tuple(rank))
