"""Shared builders, oracles, and hypothesis strategies for the test suite."""

from __future__ import annotations

import importlib
import itertools
import random
from pathlib import Path

from hypothesis import strategies as st

from uftree import recognize
from uftree.errors import CapExceeded, FormatError
from uftree.reduction import PartitionInstance
from uftree.tree import (
    NO_PARENT,
    RANK_CAP,
    RankedTree,
    ValidationResult,
    canonical_key,
    merge,
    singleton,
)

# Pipeline fixture pair: a 9-node tree whose rank-1 child x carries four
# leaves (z is one of them), and a 3-node tree rooted at y.
S_TREE = RankedTree((-1, 0, 0, 0, 0, 2, 2, 2, 2), (2, 1, 1, 1, 1, 0, 0, 0, 0))
T_TREE = RankedTree((-1, 0, 0), (2, 0, 0))
X_NODE = 2
Z_NODE = 7
Y_NODE_MERGED = 9  # id of t's root after merge(S_TREE, T_TREE)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# unsolvable (the recognizer refutes its gadget), but the Partition solver
# fails over a million states on it without finishing
SOLVER_HARD_INSTANCE = (
    "259,256,180,161,161,246,300,234,291,221,279,210,159,229,151,169,177,287,158,204;6"
)


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


def binomial(j: int) -> tuple:
    """The rank-j binomial tree B_j, 2^j nodes, as a (rank, children) spec."""
    return (j, [binomial(i) for i in range(j)])


def from_spec(spec: tuple) -> RankedTree:
    """The tree a nested (rank, children) spec describes, root first."""
    parent, rank = [], []
    stack = [(spec, -1)]
    while stack:
        (r, kids), p = stack.pop()
        parent.append(p)
        rank.append(r)
        stack.extend((kid, len(parent) - 1) for kid in kids)
    return RankedTree(tuple(parent), tuple(rank))


def many_needy_classes(m: int) -> RankedTree:
    """Rank-5 root over m rank-4 children, one per triple (a, b, c) of
    {1..10}^3 in order, each over a leaves, b B1s and c B2s; m + 1 B3s; one
    each of B0, B1 and B2; and four more leaves.  Every rank-4 child is a
    needy class of its own that misses rank 3 and cannot move, so each
    takes one B3 and a certificate has m steps (47,520 nodes at m=1,000)."""
    triples = itertools.islice(itertools.product(range(1, 11), repeat=3), m)
    kids = [(4, [binomial(0)] * a + [binomial(1)] * b + [binomial(2)] * c) for a, b, c in triples]
    kids += [binomial(3)] * (m + 1) + [binomial(j) for j in range(3)] + [binomial(0)] * 4
    return from_spec((5, kids))


def many_free_classes(m: int) -> RankedTree:
    """Rank-4 root over a rank-3 child over a B0 and a B1; m free rank-2
    children, one per pair (a, b) of {1..32}^2 in order, each over a leaves
    and b B1s; and one each of B0, B1 and B3.  The rank-3 child misses rank
    2, so it pulls one of m + 2 free classes below it: a 1-step certificate
    (49,952 nodes at m=1,000)."""
    pairs = itertools.islice(itertools.product(range(1, 33), repeat=2), m)
    kids = [(3, [binomial(0), binomial(1)])]
    kids += [(2, [binomial(0)] * a + [binomial(1)] * b) for a, b in pairs]
    kids += [binomial(0), binomial(1), binomial(3)]
    return from_spec((4, kids))


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


# Reference copies of the per-node validator and node-line parser that the
# whole-array passes in uftree.tree replaced; the differential tests hold
# the library to their results, messages and line numbers.


def reference_validate(t: RankedTree) -> ValidationResult:
    n = t.node_count
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


def reference_parse_tree_with_map(
    text: str, max_nodes: int | None = None
) -> tuple[RankedTree, dict[int, int]]:
    lines = text.splitlines()
    pos = 0
    while pos < len(lines) and lines[pos].startswith("#"):
        pos += 1
    if pos >= len(lines):
        raise FormatError("missing header line", pos + 1)
    header = lines[pos]
    try:
        n = int(header)
    except ValueError:
        raise FormatError(f"header must be a node count, got {header!r}", pos + 1) from None
    if n < 1:
        raise FormatError(f"node count must be positive, got {n}", pos + 1)
    if max_nodes is not None and n > max_nodes:
        raise CapExceeded(f"tree has {n} nodes, cap is {max_nodes}")
    body = lines[pos + 1 :]
    if len(body) < n:
        raise FormatError(f"expected {n} node lines, found {len(body)}", len(lines) + 1)
    for i in range(n, len(body)):
        if body[i].strip():
            raise FormatError("trailing content after node lines", pos + 2 + i)

    rows: list[tuple[int, int, int]] = []
    for i in range(n):
        lineno = pos + 2 + i
        fields = body[i].split()
        if len(fields) != 3:
            raise FormatError(f"expected 'id parent rank', got {body[i]!r}", lineno)
        try:
            row = (int(fields[0]), int(fields[1]), int(fields[2]))
        except ValueError:
            raise FormatError(f"non-integer field in {body[i]!r}", lineno) from None
        if rows and row[0] <= rows[-1][0]:
            raise FormatError(f"node ids must be strictly increasing at id {row[0]}", lineno)
        if row[0] == NO_PARENT:
            raise FormatError(f"node id {NO_PARENT} is reserved for 'no parent'", lineno)
        rows.append(row)

    id_map = {orig: dense for dense, (orig, _, _) in enumerate(rows)}
    parent = []
    for i, (orig, par, _) in enumerate(rows):
        if par == NO_PARENT:
            parent.append(NO_PARENT)
        elif par in id_map:
            parent.append(id_map[par])
        else:
            raise FormatError(f"unknown parent id {par}", pos + 2 + i)
    rank = tuple(r for _, _, r in rows)

    tree = RankedTree(tuple(parent), rank)
    reference_validate(tree).raise_if_invalid()
    return tree, id_map


def random_valid_tree(rng: random.Random, n: int, slack: int = 2) -> RankedTree:
    """A valid ranked tree on n nodes: each node's parent an earlier node,
    ranks top-down with up to ``slack`` spare rank per edge, so child ranks
    repeat and leave gaps."""
    parent = [-1] + [rng.randrange(i) for i in range(1, n)]
    height = [0] * n
    for x in range(n - 1, 0, -1):
        height[parent[x]] = max(height[parent[x]], height[x] + 1)
    rank = [height[0] + rng.randint(0, slack)] + [0] * (n - 1)
    for x in range(1, n):
        rank[x] = rng.randint(height[x], rank[parent[x]] - 1)
    return RankedTree(tuple(parent), tuple(rank))


# Reference copies of the op-log parser and the forest engine as they were
# when each op was a frozen dataclass, with the ops as tuples; the
# equivalence tests hold the library to their ops, arrays, exports and
# error messages.


def reference_parse_oplog(text: str) -> list:
    log = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if fields[0] == "makeset" and len(fields) == 2:
                log.append(("makeset", int(fields[1])))
            elif fields[0] == "union" and len(fields) == 3:
                log.append(("union", int(fields[1]), int(fields[2])))
            elif fields[0] == "find" and len(fields) == 2:
                log.append(("find", int(fields[1])))
            else:
                raise FormatError(f"unknown op {line!r}", lineno)
        except FormatError:
            raise
        except ValueError:
            raise FormatError(f"non-integer field in {line!r}", lineno) from None
    return log


class ReferenceForest:
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
        self.check_element(x)
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def find(self, x: int) -> int:
        root = self.root_of(x)
        while x != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.root_of(a), self.root_of(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            self.parent[ra] = rb
        else:
            self.parent[rb] = ra
            if self.rank[ra] == self.rank[rb]:
                self.rank[ra] += 1


def reference_replay(log: list) -> ReferenceForest:
    if not log or log[0][0] != "makeset":
        raise ValueError("op log must start with a make-set block")
    forest = ReferenceForest()
    for op in log:
        if op[0] == "makeset":
            forest.make_set_block(op[1])
        elif op[0] == "union":
            forest.union(op[1], op[2])
        elif op[0] == "find":
            forest.find(op[1])
        else:
            raise ValueError(f"unknown op {op!r}")
    return forest


def reference_export_trees(forest: ReferenceForest) -> list[tuple]:
    """(tree, elements) per root, ordered by root element."""
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
        out.append((RankedTree(parent, rank), tuple(elements)))
    return out


def reference_keep_walk(rank: int, classes: list, per_rank, free_per_rank, gain):
    """Every keep vector of the needy ``classes``, walked without pruning.

    A class is (rank, size, surplus, missing ranks); classes come in
    decreasing rank, and each keeps its counts from the most down.  A class
    of the root's top child rank keeps all its members, the last class of a
    rank keeps one unless an earlier class of the rank keeps some or the
    rank has free children, and a class of negative surplus keeps at most
    ``gain[rank] // -surplus``.  The walk ticks once per level entered and
    once per vector, then applies the per-rank test to the vector: kept
    children missing rank r need as many unkept rank-r children, and the
    root keeps one child of each rank.  Returns the ticks spent up to each
    passing vector, with the vector, and the ticks spent in all.
    """
    passing, ticks = [], 0

    def walk(kept: tuple) -> None:
        nonlocal ticks
        ticks += 1
        if len(kept) == len(classes):
            for r in range(rank):
                demand = sum(k for (_, _, _, missing), k in zip(classes, kept) if r in missing)
                ours = sum(k for (q, *_), k in zip(classes, kept) if q == r)
                if demand + max(ours, 1) > per_rank[r]:
                    return
            passing.append((ticks, kept))
            return
        r, size, surplus, _ = classes[len(kept)]
        covered = any(k for (q, *_), k in zip(classes, kept) if q == r)
        later = any(q == r for q, *_ in classes[len(kept) + 1 :])
        low = 0 if covered or free_per_rank[r] or later else 1
        if r == rank - 1:
            low = size
        top = size if surplus >= 0 else min(size, gain[r] // -surplus)
        for k in range(top, low - 1, -1):
            walk(kept + (k,))

    walk(())
    return passing, ticks


def reference_rank_two(st, kids: list) -> tuple | None:
    """The plan of a rank-2 subproblem over ``kids`` in the index ``st``: the
    only push there moves a depth-one leaf below a rank-1 sibling, once, so
    each childless rank-1 child takes a leaf, the root keeps one, and the
    last leaves go, to the childless rank-1 children in id order."""
    zeros = sorted(c for c in kids if st.rank[c] == 0)
    leaves = sorted(c for c in kids if st.rank[c] == 1 and not st.table[c])
    if len(zeros) <= len(leaves) or len(zeros) == len(kids):  # or no rank-1 child
        return None
    return list(zip(reversed(zeros), leaves)), []


def benchmark_corpus(workdir, monkeypatch, gadgets: bool = True) -> list:
    """The seed-0 instances of the engine-positives benchmark corpus, then,
    with ``gadgets``, those of gadget-yes and gadget-no, in corpus order."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    instances = workloads.engine_setup(0, workdir).instances
    if gadgets:
        instances += workloads.gadget_setup(0, workdir, True).instances
        instances += workloads.gadget_setup(0, workdir, False).instances
    return instances


def divisibility_no_instance(seed: int) -> PartitionInstance:
    """40 weights ``4 * randint(25, 50)`` in 4 parts, redrawn until their sum
    is not a multiple of 16.  Every part then sums to a multiple of 4 and
    B = sum / 4 is not one: negative by construction, with no solver."""
    rng = random.Random(seed)
    while True:
        weights = tuple(4 * rng.randint(25, 50) for _ in range(40))
        if sum(weights) % 16:
            return PartitionInstance(weights, 4)


def planted_three_partition(k: int, target: int, seed: int) -> PartitionInstance:
    """k planted triples summing to ``target``, each weight strictly between
    target/4 and target/2, shuffled: positive by construction."""
    rng = random.Random(seed)
    low, high = target // 4 + 1, (target - 1) // 2
    weights: list[int] = []
    while len(weights) < 3 * k:
        a, b = rng.randint(low, high), rng.randint(low, high)
        if low <= target - a - b <= high:
            weights += [a, b, target - a - b]
    rng.shuffle(weights)
    return PartitionInstance(tuple(weights), k)


def count_stage_entries(monkeypatch, name: str) -> list[int]:
    """A one-element counter of the levels that ``recognize._depth_first``
    walks enter in stages whose qualified name ends with ``name``, counting
    from now."""
    entered = [0]
    depth_first = recognize._depth_first

    def counted(stage, depth, state=None):
        def counting(i, state):
            entered[0] += 1
            return stage(i, state)

        return depth_first(counting if stage.__qualname__.endswith(name) else stage, depth, state)

    monkeypatch.setattr(recognize, "_depth_first", counted)
    return entered


def count_split_walk(monkeypatch) -> tuple[list[int], list[int]]:
    """One-element counters, from now on, of the levels the ``_splits``
    walks enter and of ``len(ranges)`` summed over the vectors they yield.
    A walk that enters only prefixes of yielded vectors keeps the first at
    most the second."""
    entered, bound = count_stage_entries(monkeypatch, "_splits.<locals>.choose"), [0]
    splits = recognize._splits

    def counted(ranges, *args):
        for vector in splits(ranges, *args):
            bound[0] += len(ranges)
            yield vector

    monkeypatch.setattr(recognize, "_splits", counted)
    return entered, bound


def record_canonical_forms(monkeypatch) -> list[int]:
    """The node count of every tree recognition canonicalizes from now on."""
    nodes = []
    original = recognize.canonical_form
    monkeypatch.setattr(
        recognize, "canonical_form", lambda t: nodes.append(t.node_count) or original(t)
    )
    return nodes
