"""Recognition of merge-built (Union) and merge-plus-collapse (Union-Find) trees.

A Union tree is buildable from singletons by rank-respecting merges alone;
equivalently, every node's children ranks form exactly the set
``{0, ..., rank-1}``.  A Union-Find tree additionally allows path
compressions; equivalently, it can be transformed into a Union tree by a
sequence of pushes.  Union trees are recognized in linear time; Union-Find
recognition is NP-complete.  :func:`is_union_find_tree` runs the root
filters, then the donor rule (:func:`_by_donors`, one bottom-up count over
the non-Union nodes, which only accepts), then an exact memoized
backtracking search, and on acceptance returns a replayable push
certificate.  A search subproblem of rank 3 or less is decided by one
counting rule, :func:`_by_counting`; every level of the backtracking
above runs on one explicit-stack walk, :func:`_depth_first`, so Python
frames nest once per rank, not per child or class.
:func:`brute_force_is_uf` is an independent oracle for desk-scale
cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, compress
from operator import gt, not_

from .errors import CapExceeded, FormatError
from .tree import (
    NO_PARENT,
    NodeId,
    RankedTree,
    canonical_form,
    canonical_key,
    counted_lines,
    legal_pushes,
    node_key,
    push,
    push_error,
    subtree,  # not called here; perfbench's tracer wraps recognize.subtree
    subtree_keys,
    validate,
)

REASON_UNION_TREE = "union-tree"
REASON_CERTIFICATE = "certificate"
REASON_COUNT_FILTER = "filter-prop4"
REASON_RANK_RANGE = "filter-rank-range"
REASON_MISSING_RANK = "filter-missing-rank"
REASON_SEARCH = "search-refuted"
REASON_BUDGET = "search-exhausted"

ORACLE_NODE_CAP = 10


@dataclass(frozen=True)
class Certificate:
    """A positive witness: push steps transforming the tree into a Union tree.

    Steps use the input tree's node ids and are replayable in order; the
    length never exceeds the square of the node count.
    """

    steps: tuple[tuple[NodeId, NodeId], ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Verdict:
    """Outcome of Union-Find recognition.

    ``accepted`` iff ``reason`` is ``union-tree`` or ``certificate``; a
    certificate is attached exactly when the reason is ``certificate``.
    A rejection names the structural filter that refuted the whole tree,
    or is ``search-refuted`` when the tree passes every filter and the
    exhaustive search finds no push sequence.  ``search-exhausted`` only
    occurs when the caller set a budget and it ran out before the search
    completed; it is inconclusive, not a proof of rejection.
    """

    accepted: bool
    reason: str
    certificate: Certificate | None = None


def satisfies_union_condition(t: RankedTree, x: NodeId) -> bool:
    """True iff the children ranks of x form the set {0, ..., rank(x)-1}."""
    ranks = {t.rank[c] for c in t.children_of(x)}
    return ranks == set(range(t.rank[x]))


def is_union_tree(t: RankedTree) -> bool:
    """Linear check that every node satisfies the Union condition."""
    return _all_union(set(zip(t.parent, t.rank)), t.rank)


def _all_union(pairs: set[tuple[int, int]], rank: tuple[int, ...]) -> bool:
    """Whether the valid tree with these ranks and distinct (parent, rank)
    pairs is a Union tree.

    Children ranks already sit in 0..rank-1, so a node has at most rank
    distinct child ranks and the condition holds iff it has exactly rank
    of them.  Counted over every node at once: the pairs, the root's among
    them, number the rank sum plus one.
    """
    return len(pairs) == sum(rank) + 1


def count_filter(t: RankedTree) -> bool:
    """Necessary condition: at least as many rank-0 nodes as positive-rank ones.

    A False result certifies that the tree is not a Union-Find tree.
    """
    return 2 * t.rank.count(0) >= t.node_count


class _BudgetExhausted(Exception):
    pass


# How a subproblem becomes a Union tree: the pushes at its root, then one
# (key, node, grafts) part per child that is decided with the grafted
# subtrees below it, whose own plan the memo holds under its canonical key.
_Plan = tuple[list[tuple[NodeId, NodeId]], list[tuple[bytes, NodeId, list[NodeId]]]]

_Index = tuple[list[NodeId], list[list[NodeId]], list[bool]]  # see _index


def _index(t: RankedTree, pairs: set[tuple[int, int]]) -> _Index:
    """The non-Union nodes by rank, their children (any other node gets an
    empty tuple), and every Union flag, then a False for the root's parent.
    The nodes with fewer distinct child ranks in ``pairs`` than their rank
    fail (_all_union); the non-Union nodes are those and their ancestors."""
    n, rank, parent = t.node_count, t.rank, t.parent
    distinct = [0] * (n + 1)  # the root's pair lands on the spare last slot
    for p, _ in pairs:
        distinct[p] += 1
    union, table = [True] * n + [False], [()] * n + [[]]  # the root's parent last
    needy: list[NodeId] = []
    for x in compress(range(n), map(gt, rank, distinct)):
        while union[x]:
            union[x] = False
            table[x] = []
            needy.append(x)
            x = parent[x]
    for c in compress(range(n), map(not_, map(union.__getitem__, parent))):
        table[parent[c]].append(c)
    del table[n]
    return sorted(needy, key=rank.__getitem__), table, union


def _by_donors(t: RankedTree, index: _Index) -> list[tuple[NodeId, NodeId]] | None:
    """Push steps that make the tree a Union tree by handing Union subtrees
    down to the nodes that miss a rank, or None if the root runs short.

    Bottom-up, a non-Union node v wants, for each rank m below its own,
    ``1 + sum of wants(c)[m] - #children of rank m`` rank-m Union subtrees
    pushed below it by its siblings; the sum runs over v's non-Union
    children c, and the one is the rank-m child v keeps.  A want is kept as
    counted and read only where it is positive.  The root, last by rank,
    must want nothing.  Then the non-Union nodes hand out donors parents
    first: at each node the non-Union children take turns in ascending
    rank, and each takes the rank-m siblings it wants from the node's rank-m
    children and the donors handed down to it.  A child only wants ranks
    below its own, so every rank-m child is repaired before any child that
    takes it, and the count is what this hand-out needs.  Every push moves a
    sibling of strictly lower rank, so every step is legal.  It only accepts.
    """
    needy, table, union = index
    rank = t.rank
    want: dict[NodeId, list[int]] = {}  # non-Union nodes, bottom-up: by rank
    for x in needy:
        need = [1] * rank[x]
        for y in table[x]:
            need[rank[y]] -= 1
            if not union[y]:
                for m, w in enumerate(want[y]):
                    if w > 0:
                        need[m] += w
        want[x] = need
    if any(w > 0 for w in need):  # the root's, last by rank
        return None
    steps: list[tuple[NodeId, NodeId]] = []
    given = {x: []}  # the root's
    for v in reversed(want):
        spare: list[list[NodeId]] = [[] for _ in range(rank[v])]
        for y in given[v] + table[v]:
            spare[rank[y]].append(y)
        for c in sorted([c for c in table[v] if not union[c]], key=rank.__getitem__):
            given[c] = [spare[m].pop() for m, w in enumerate(want[c]) for _ in range(w)]
            steps += [(y, c) for y in given[c]]
    return steps


class _Search:
    """Shared state of one recognition run, and its index of every node.

    The search runs only on a tree that passes the root filters and that
    the donor rule (:func:`_by_donors`) declines.  Every subproblem it
    decides is a root rank over a list of the input tree's nodes: a push
    slides a depth-one child below a sibling and leaves every subtree
    below them untouched.  So one child table, one set of subtree keys
    and one bottom-up pass of per-node facts (rank-0 surplus, size, Union
    flag of the subtree below each node) serve every search node.  The
    table completes the child lists the rule read, and the flags are the
    rule's (:func:`_index`).
    """

    __slots__ = ("memo", "budget", "rank", "table", "keys", "surplus", "size", "union")

    def __init__(self, t: RankedTree, budget: int | None, index: _Index):
        # canonical key -> (x, grafted, plan): the subproblem that found its
        # plan, which names its own input-tree nodes; None if not UF
        self.memo: dict[bytes, tuple[NodeId, list[NodeId], _Plan] | None] = {}
        self.budget = budget
        self.rank, n, parent = t.rank, t.node_count, t.parent
        _, table, self.union = index
        for c in compress(range(n), map(self.union.__getitem__, parent)):
            p = parent[c]
            table[p] = table[p] or []  # a leaf keeps (): nothing goes below rank 0
            table[p].append(c)
        self.table, self.keys = table, subtree_keys(t, table)
        # by rank is bottom-up, and the root is alone at the top rank
        by_rank: list[list[NodeId]] = [[] for _ in range(max(self.rank) + 1)]
        for x, r in enumerate(self.rank):
            by_rank[r].append(x)
        surplus, size = [-1] * n, [1] * n
        for x in by_rank[0]:
            surplus[x] = 1
        for x in chain.from_iterable(by_rank[:-1]):  # the root adds into nothing
            p = parent[x]
            surplus[p] += surplus[x]
            size[p] += size[x]
        self.surplus, self.size = surplus, size

    def floors(self, rank: int, kids: list[NodeId], need: list[int]) -> list[int]:
        """``need`` less the kids of each rank, plus the needy kids of rank - 1
        that miss it.  Nothing outranks such a kid, so it stays, and each rank
        it misses takes a sibling of that rank while the root keeps another."""
        need = need[:]
        for c in kids:
            need[self.rank[c]] -= 1
            if self.rank[c] == rank - 1 and not self.union[c]:
                for r in set(range(rank - 1)).difference([self.rank[g] for g in self.table[c]]):
                    need[r] += 1
        return need

    def key(self, cls: _Class, grafted: list[NodeId]) -> bytes:
        """Canonical key of a member of cls with the grafted subtrees below it."""
        return node_key(cls.rank, cls.child_keys + [self.keys[y] for y in grafted])

    def tick(self, count: int = 1) -> None:
        if self.budget is not None:
            self.budget -= count
            if self.budget < 0:
                raise _BudgetExhausted


def _depth_first(stage, depth: int, state=None):
    """Yield the last level's state each time all ``depth`` levels hold an option.

    ``stage(i, state)`` yields a state per option at level i, given the
    state of level i - 1's option (``state`` at level 0), and keeps that
    option booked while it is suspended.  The levels sit on an explicit
    stack, so depth takes no Python frames.
    """
    stack = [iter((state,))]
    while stack:
        for state in stack[-1]:
            if len(stack) > depth:
                yield state
            else:
                stack.append(stage(len(stack) - 1, state))
            break
        else:
            stack.pop()


def _search(st: _Search, rank: int, kids: list[NodeId]) -> _Plan | None:
    """A plan, in input-tree ids, that makes a rank over kids a Union tree.

    The subproblem is a root of the given rank whose children are the
    input-tree nodes ``kids``, each with its subtree from the input tree.
    Returns None if no push sequence exists.  The caller has ruled out a
    Union tree and every structural filter.  Rank 3 or less is decided by
    counting, rank 2 as rank 3 without a rank-2 child (:func:`_by_counting`);
    only a higher rank is searched, by :func:`_backtrack`.
    """
    return _by_counting(st, kids) if rank <= 3 else _backtrack(st, rank, kids)


def _backtrack(st: _Search, rank: int, kids: list[NodeId]) -> _Plan | None:
    """:func:`_search` by backtracking, at any rank from 3 up."""
    # Split the depth-one children into isomorphism classes and sort the
    # classes into needy (their standalone subtree is not a Union tree, so
    # they must be repaired in place or pushed into a repair site) and free
    # (standalone Union trees).  A free child grafted below a sibling never
    # breaks membership, so in a normalized witness a free child moves only
    # to fill a concrete hole; free children are therefore pulled on demand
    # instead of being enumerated, which keeps wide collapse-heavy trees
    # tractable.
    groups: dict[tuple[int, bytes], list[NodeId]] = {}
    for c in sorted(kids):
        groups.setdefault((-st.rank[c], st.keys[c]), []).append(c)
    classes: list[_Class] = []
    free_per_rank, per_rank = [0] * rank, [0] * rank
    # by key between rank and id, so the search order is the same under
    # every labeling of the input tree; members are listed by id
    for (neg_rank, _), members in sorted(groups.items()):
        own = st.table[members[0]]
        cls = _Class(
            rank=-neg_rank,
            members=members,
            surplus=st.surplus[members[0]],
            child_keys=[st.keys[c] for c in own],
            missing=sorted(set(range(-neg_rank)) - {st.rank[c] for c in own}),
            free=st.union[members[0]],
        )
        classes.append(cls)
        per_rank[cls.rank] += len(members)
        if cls.free:
            free_per_rank[cls.rank] += len(members)
    needy = [cls for cls in classes if not cls.free]
    free = [cls for cls in classes if cls.free]

    # gain[r]: the most rank-0 surplus that kept children of rank r can
    # receive.  It comes from lower ranks, pushed or pulled, and each rank
    # keeps a child at the root: rank q gives its best per_rank[q] - 1.
    gain = [0, *accumulate(_best_surplus(classes, [n - 1 for n in per_rank]))]

    for kept_per_rank in _keep_choices(st, rank, needy, per_rank, free_per_rank, gain):
        st.tick()
        # slack[r]: pulls rank r can still lose while keeping one child at root
        slack = [kept_per_rank[r] + free_per_rank[r] - 1 for r in range(rank)]
        plan = _assign_targets(st, classes, needy, free, slack)
        if plan is not None:
            return plan
    return None


def _by_counting(st: _Search, kids: list[NodeId]) -> _Plan | None:
    """:func:`_search` at rank 3, and at rank 2 as rank 3 without a rank-2
    child.  Nothing outranks a rank-2 child, so each stays, and ends as a
    rank-2 subproblem, which this rule pairs in turn: it needs a rank-1
    child, and a leaf for each childless one plus one it keeps.  The root
    keeps a rank-1 child, one with children if it can.  Rank-2 children
    that lack rank 1 take the other rank-1 children with children first,
    those without spare leaves before the rest.  The childless rank-1
    children left fill spare leaves, which never leave their rank-2 child.
    Root leaves cover every deficit and each childless rank-1 child still
    at the root, the last leaves first, and the root keeps one.  Pushes at
    the root come first, then the pairings below each rank-2 child,
    memoized as a searched subproblem's plan is.
    """
    table, rank = st.table, st.rank
    # by kind, in id order: leaves, rank-1 children with children (full) and
    # without (bare), and rank-2 children
    leaves, full, bare, twos = [], [], [], []
    for c in sorted(kids):
        if rank[c] == 1:
            (full if table[c] else bare).append(c)
        else:
            (twos if rank[c] else leaves).append(c)
    # per rank-2 child: its leaves less its childless rank-1 children and the
    # leaf it keeps; a negative count is a deficit
    spare = {z: sum(1 if rank[c] == 0 else -(not table[c]) for c in table[z]) - 1 for z in twos}
    lacking = [z for z in twos if all(rank[c] == 0 for c in table[z])]
    if len(full) + len(bare) <= len(lacking):
        return None
    kept = (full or bare).pop(0)  # the rank-1 child the root keeps
    stay = [] if table[kept] else [kept]
    grafted: dict[NodeId, list[NodeId]] = {z: [] for z in twos}
    for z in sorted(lacking, key=lambda z: spare[z] > 0):
        y = full.pop() if full else bare.pop()
        grafted[z].append(y)
        spare[z] -= not table[y]  # a childless one takes a leaf
    for z in twos:
        while bare and spare[z] > 0:
            grafted[z].append(bare.pop())
            spare[z] -= 1
    stay += bare
    if len(leaves) <= sum(max(-e, 0) for e in spare.values()) + len(stay):
        return None
    pushes, parts = [(leaves.pop(), y) for y in stay], []
    for z in twos:
        grafted[z] += [leaves.pop() for _ in range(-spare[z])]
        pushes += [(y, z) for y in grafted[z]]
        key = node_key(2, [st.keys[c] for c in table[z] + grafted[z]])
        if key not in st.memo:
            st.memo[key] = (z, grafted[z], _by_counting(st, table[z] + grafted[z]))
        parts.append((key, z, grafted[z]))
    return pushes, parts


def _best_surplus(classes: list[_Class], caps: list[int]) -> list[int]:
    """Per rank r, the most rank-0 surplus that ``caps[r]`` unpulled members
    of rank r carry."""
    best, room = [0] * len(caps), caps[:]
    for cls in sorted(classes, key=lambda cls: -cls.surplus):
        take = min(len(cls.members) - cls.pulled, room[cls.rank])
        room[cls.rank] -= take
        best[cls.rank] += take * max(cls.surplus, 0)
    return best


def _keep_choices(st: _Search, rank: int, needy: list[_Class], per_rank, free_per_rank, gain):
    """Book, in turn, each keep vector of the needy classes that passes the
    per-rank test, and yield the members kept per rank.

    A needy child that stays becomes a repair site; one that is pushed must
    land below a strictly higher-ranked depth-one survivor, which root
    coverage guarantees except at the maximal child rank.  Free children
    always stay unless pulled later.  Classes are decided in decreasing
    rank, one per level of a :func:`_depth_first` walk, and keeping more is
    tried first so near-Union trees resolve with few pushes.  The walk
    ticks once per level entered and once per vector.  A keep count that
    :func:`_supplied` refutes has no passing completion, so it is never
    walked: it is charged at once what the walk below it would tick.
    """
    n = len(needy)
    # of the classes booked so far: members kept per rank, and how many kept
    # members miss each rank
    kept_per_rank, demand = [0] * rank, [0] * rank
    # cost[i][covered]: ticks from entering level i to leaving it, where
    # covered says an earlier class of needy[i]'s rank keeps a member
    cost = [(1, 1)] * (n + 1)
    later_same_rank = [a.rank == b.rank for a, b in zip(needy, needy[1:])] + [False]

    def counts(i: int, covered: bool) -> range:
        # The keep counts of needy[i], descending.  The last needy class of a
        # rank with no free members must keep coverage.  A kept member must
        # end with rank-0 surplus >= 0 (the count filter), so a class of
        # negative surplus keeps at most gain[rank] // -surplus of its
        # members, who share that gain; higher counts are never tried.
        cls = needy[i]
        min_keep = 0 if covered or free_per_rank[cls.rank] or later_same_rank[i] else 1
        if cls.rank == rank - 1:
            min_keep = len(cls.members)  # nothing outranks them, they cannot move
        top = len(cls.members)
        if cls.surplus < 0:
            top = min(top, gain[cls.rank] // -cls.surplus)
        return range(top, min_keep - 1, -1)

    def below(i: int, covered: bool, ks: range) -> int:
        # ticks the walk spends below the counts ks of needy[i]
        if later_same_rank[i]:
            zero = 0 in ks
            return (len(ks) - zero) * cost[i + 1][True] + zero * cost[i + 1][covered]
        return len(ks) * cost[i + 1][False]

    for i in range(n - 1, -1, -1):
        cost[i] = tuple(1 + below(i, covered, counts(i, covered)) for covered in (False, True))

    def keep(i: int, _):
        st.tick()
        cls = needy[i]
        covered = kept_per_rank[cls.rank] > 0
        ks = counts(i, covered)
        # the classes before i are booked and later ones count 0, so a count
        # this refutes is refuted under every booking of the later classes
        passing = _supplied(cls, ks, per_rank, kept_per_rank, demand)
        st.tick(below(i, covered, ks[: len(ks) - len(passing)]))
        for k in passing:
            cls.kept = k
            kept_per_rank[cls.rank] += k
            for r in cls.missing:
                demand[r] += k
            yield
            kept_per_rank[cls.rank] -= k
            for r in cls.missing:
                demand[r] -= k

    yield from (kept_per_rank for _ in _depth_first(keep, n))


def _supplied(cls: _Class, counts: range, per_rank, kept_per_rank, demand) -> range:
    """The descending keep ``counts`` of a needy class that pass the per-rank
    test, with the needy classes before it booked and later ones counting 0.

    A kept needy child missing rank r can only get it from an unkept child
    of rank r, as pushes never move nodes up, and the root keeps one of
    them: r passes iff ``demand[r] + max(kept_per_rank[r], 1) <= per_rank[r]``.
    Keeping k adds k to ``demand`` at the class's missing ranks and to
    ``kept_per_rank`` at its own, so no test gets easier as k grows, nor as
    later classes are booked: a refuted count has no passing completion.
    """
    room = [n - d - max(k, 1) for n, d, k in zip(per_rank, demand, kept_per_rank)]
    own = per_rank[cls.rank] - demand[cls.rank] - kept_per_rank[cls.rank]  # caps k >= 1
    cap = min([own] + [room[r] for r in cls.missing]) if min(room) >= 0 else -1
    return counts[max(0, counts.start - cap) :]


@dataclass
class _Class:
    """One isomorphism class of depth-one children: what all members share."""

    rank: int
    members: list[NodeId]
    surplus: int  # rank-0 minus positive-rank nodes in a member's subtree
    child_keys: list[bytes]  # keys of a member's own children
    missing: list[int]  # ranks below the members' rank absent among those
    # per rank, the least a member must pull (_Search.floors); set by the
    # first target of the class that pulls
    need: list[int] | None = None
    free: bool = False  # whether a member's subtree is a Union tree
    kept: int = 0  # of a needy class: its first `kept` members stay at depth one
    pulled: int = 0  # of a free class: its last `pulled` members are pulled below targets


def _assign_targets(
    st: _Search, classes: list[_Class], needy: list[_Class], free: list[_Class], slack: list[int]
) -> _Plan | None:
    """Distribute pushed children and on-demand free pulls over the targets.

    Targets are the kept needy children and the free children that outrank
    some pushed class; a free child below every pushed class can receive
    nothing.  They are served in decreasing rank, so by the time a free
    child takes its own turn it can no longer be pulled: pulls always come
    from strictly lower ranks.  For each target, every split of the
    still-unplaced needy children whose surplus fits the pool is tried;
    free pulls are then probed in ascending size, and each candidate
    subtree is decided immediately (memoized), so a hopeless target prunes
    the whole branch.  The last target able to absorb a needy class must
    take its remainder, unless it was pulled below an earlier target, so
    a walk can end with children left over.  Each target served is one
    level of a :func:`_depth_first` walk, so placement depth takes no
    Python frames.
    """
    pushed = [(cls, cls.members[cls.kept :]) for cls in needy if cls.kept < len(cls.members)]
    remaining = [len(members) for _, members in pushed]
    lowest = min((cls.rank for cls, _ in pushed), default=len(slack))  # the root's rank
    # a target is (node, its class, its position in the class); pulls take
    # free members from the end of their class
    targets: list[tuple[NodeId, _Class, int]] = []
    for cls in classes:
        served = len(cls.members) if cls.free and cls.rank > lowest else cls.kept
        targets.extend((x, cls, pos) for pos, x in enumerate(cls.members[:served]))
    plan: list[tuple[NodeId, _Class, list[NodeId]]] = []

    # Every target must end as a Union-Find tree, so its rank-0 surplus
    # ends >= 0 (the count filter), and grafts and pulls only move surplus
    # between targets.  So the targets still to serve can end with at most
    # the pool: their own surplus, every pushed child's, and the best pulls
    # from the free children that are no targets, at most slack[r] of rank
    # r; ranks above the lowest pushed one hold only targets, taken in
    # full.  A served target books the surplus it ends with.
    caps = [spare if r <= lowest else len(st.rank) for r, spare in enumerate(slack)]
    pool = sum(len(cls.members) * cls.surplus for cls in needy) + sum(_best_surplus(free, caps))

    def serve(ti: int, _):
        # one yield per way to serve target ti; its grafts, pulls and surplus
        # stay booked while the generator is suspended
        nonlocal pool
        x, cls, pos = targets[ti]
        if pool < 0:
            return
        if cls.free and pos >= len(cls.members) - cls.pulled:
            yield  # pulled below an earlier target, it receives nothing
            return
        # targets come in descending rank, so the next one has the highest
        # rank left; a class it cannot absorb must go here in full
        next_rank = targets[ti + 1][1].rank if ti + 1 < len(targets) else 0
        eligible = [j for j, (source, _) in enumerate(pushed) if source.rank < cls.rank]
        split_ranges = [
            range(remaining[j] if next_rank <= pushed[j][0].rank else 0, remaining[j] + 1)
            for j in eligible
        ]
        # free pulls add between 0 and reach to the grafts' surplus, at most
        # slack[r] of rank r, and the way must end between 0 and the pool
        reach = sum(_best_surplus([other for other in free if other.rank < cls.rank], slack))
        weights = [pushed[j][0].surplus for j in eligible]
        for counts in _splits(split_ranges, weights, -reach - cls.surplus, pool - cls.surplus):
            st.tick()
            if cls.free and not any(counts):
                pool -= cls.surplus
                yield  # an untouched free child is already a Union tree
                pool += cls.surplus
                continue
            grafted: list[NodeId] = []
            surplus = cls.surplus
            for j, take in zip(eligible, counts):
                source, members = pushed[j]
                used = len(members) - remaining[j]
                grafted.extend(members[used : used + take])
                remaining[j] -= take
                surplus += take * source.surplus
            for pulls in _iter_pulls(st, free, slack, x, cls, grafted, surplus):
                ends = surplus + sum(st.surplus[y] for y in pulls)
                plan.append((x, cls, grafted + pulls))
                pool -= ends
                yield
                pool += ends
                plan.pop()
            for j, take in zip(eligible, counts):
                remaining[j] += take

    for _ in _depth_first(serve, len(targets)):
        if not any(remaining):  # else the last absorbing target was pulled
            break
    else:
        return None

    pushes = [(y, x) for x, _, grafted in plan for y in grafted]
    return pushes, [(st.key(cls, grafted), x, grafted) for x, cls, grafted in plan]


def _splits(ranges: list[range], weights: list[int], lo: int, hi: int):
    """The vectors of ``itertools.product(*ranges)``, in its order, whose
    weighted sum against ``weights`` lies in ``[lo, hi]``.

    A prefix walk: ``reach[i]`` has a bit for exactly each sum coordinates
    i.. can add, offset by ``least[i]``.  A value is tried only if some rest
    then lands in the window, so every prefix walked leads to a yield.
    """
    n = len(ranges)
    least, reach = [0] * (n + 1), [0] * n + [1]
    for i in range(n - 1, -1, -1):
        r, w = ranges[i], weights[i]
        least[i] = least[i + 1] + min(r.start * w, (r.stop - 1) * w)
        for v in r:
            reach[i] |= reach[i + 1] << (least[i + 1] + v * w - least[i])

    def fits(i: int, total: int) -> bool:
        # reach[i] has a bit in the window left: its lowest at or above low
        low = max(lo - total - least[i], 0)
        sums = reach[i] >> low
        return sums > 0 and (sums & -sums).bit_length() <= hi - total - least[i] - low + 1

    def choose(i: int, state: tuple[int, tuple[int, ...]]):
        total, prefix = state
        for v in ranges[i]:
            if fits(i + 1, total + v * weights[i]):
                yield total + v * weights[i], prefix + (v,)

    if fits(0, 0):
        yield from (prefix for _, prefix in _depth_first(choose, n, (0, ())))


def _steps(st: _Search, plan: _Plan, built: dict[bytes, list]) -> list[tuple[NodeId, NodeId]]:
    """The push steps of a plan, in input-tree ids: its pushes by (-rank,
    id), then each part's steps in turn.

    A part's steps are those of the plan memoized under its key, built
    once per key into ``built``.  Steps found at another node set, an
    isomorphic twin, are translated: input ids -> canonical ids -> the
    twin's ids.
    """
    pushes, parts = plan
    steps = sorted(pushes, key=lambda step: (-st.rank[step[0]], step[0]))
    for key, x, grafted in parts:
        origin, found, inner = st.memo[key]
        if key not in built:
            built[key] = _steps(st, inner, built)
        inner = built[key]
        if inner and (origin, found) != (x, grafted):
            move = dict(zip(_canonical_ids(st, origin, found), _canonical_ids(st, x, grafted)))
            inner = [(move[a], move[b]) for a, b in inner]
        steps += inner
    return steps


def _canonical_ids(st: _Search, x: NodeId, grafted: list[NodeId]) -> list[NodeId]:
    """Input-tree ids of x's enriched subtree, listed by canonical id.

    The enriched subtree is x with the grafted subtrees below it.  It is
    materialized and canonicalized only when :func:`_steps` reuses push
    steps found at an isomorphic twin: the origin's list and the
    twin's, zipped, translate the origin's steps to the twin's nodes.
    """
    nodes, parent = [x], [NO_PARENT]
    for i, y in enumerate(nodes):  # breadth-first: the list grows while it is walked
        kids = st.table[y] + grafted if i == 0 else st.table[y]
        nodes.extend(kids)
        parent.extend([i] * len(kids))
    order = canonical_form(RankedTree(parent, [st.rank[y] for y in nodes]))[1]
    return [nodes[i] for i in order]


def _decide(st: _Search, x: NodeId, cls: _Class, grafted: list[NodeId]) -> bool:
    """Whether x, a member of cls, with the grafted subtrees below it is UF.

    Memoized by canonical key, which the index gives without building the
    subtree.  On a miss the search runs on the input tree's own nodes, and
    a success is stored as found: x, the grafts and the plan in input-tree
    ids.  No steps are built here; :func:`_steps` builds them from the
    winning plan.
    """
    st.tick()
    key = st.key(cls, grafted)
    if key not in st.memo:
        kids = st.table[x] + grafted
        # The pull walk reaches the rank-0 deficit and every rank's floor
        # (:func:`_iter_pulls`), so the candidate passes the count filter and
        # has every lower rank among its children: it is a Union tree iff
        # every child's subtree is, and of the filters only its size can fail.
        if all(st.union[c] for c in kids):
            plan = [], []
        elif 1 + sum(st.size[c] for c in kids) < 1 << cls.rank:
            plan = None
        else:
            plan = _search(st, cls.rank, kids)
        st.memo[key] = None if plan is None else (x, grafted, plan)
    return st.memo[key] is not None


def _iter_pulls(
    st: _Search,
    free: list[_Class],
    slack: list[int],
    x: NodeId,
    x_cls: _Class,
    grafted: list[NodeId],
    surplus: int,
):
    """Yield the minimal successful free pulls for x enriched with the grafts,
    whose rank-0 surplus is ``surplus``.

    Success is monotone: extra free children at the subtree's root never
    hurt.  Pull vectors are therefore tried in ascending total, and
    anything componentwise above an earlier success is skipped, because a
    witness pulling more than a minimal fix could have left the surplus at
    the root instead.  A success recorded during one total is above no
    other vector of that total, so the enumeration reads the successes
    once per total.  Vectors short of the rank-0 deficit, below a rank's
    floor (:meth:`_Search.floors`) or above its ``slack`` are never
    generated.  A yielded pull stays booked in its classes' ``pulled`` and
    in ``slack`` until the consumer asks for the next one; bookings made
    meanwhile are undone by then.
    """
    if x_cls.need is None:
        x_cls.need = st.floors(x_cls.rank, st.table[x_cls.members[0]], [1] * x_cls.rank)
    need = st.floors(x_cls.rank, grafted, x_cls.need) if grafted else x_cls.need
    # (class, available) entries; bookings are undone before the next
    # vector, so the last `available` members of each class are unpulled.
    # Floored, then high-surplus, wide classes first so every pruning rule
    # bites early; a free child's surplus is never negative (a Union tree).
    pool = sorted(
        (
            (cls, len(cls.members) - cls.pulled)
            for cls in free
            if cls.rank < x_cls.rank and len(cls.members) > cls.pulled
        ),
        key=lambda entry: (need[entry[0].rank] < 1, -entry[0].surplus, -entry[1]),
    )

    minima: list[tuple[int, ...]] = []
    limits = [avail for _, avail in pool]
    balances = [cls.surplus for cls, _ in pool]
    ranks = [cls.rank for cls, _ in pool]
    for vec in _minimal_candidates(limits, minima, balances, -surplus, ranks, need, slack):
        pulls: list[NodeId] = []
        for (cls, avail), v in zip(pool, vec):
            pulls.extend(cls.members[avail - v : avail])
        if not _decide(st, x, x_cls, grafted + pulls):
            continue
        minima.append(vec)
        for (cls, _), v in zip(pool, vec):
            cls.pulled += v
            slack[cls.rank] -= v
        yield pulls
        for (cls, _), v in zip(pool, vec):
            cls.pulled -= v
            slack[cls.rank] += v


def _minimal_candidates(
    limits: list[int], minima: list[tuple[int, ...]], balances: list[int], deficit: int,
    groups: list[int], floors: list[int], ceilings: list[int],
):
    """Vectors up to ``limits``, ascending by total and then lexicographically,
    whose weighted sum against ``balances`` reaches ``deficit``, whose
    coordinates in each group g (``groups[i]`` is i's) sum to at least
    ``floors[g]`` and at most ``ceilings[g]``, and that sit at or above none
    of the ``minima``.

    The consumer appends its successes to ``minima``.  One prefix walk per
    total, from the floors' sum up, caps each coordinate at what its group
    may still take and cuts a prefix that can no longer reach the deficit,
    fill the total, or meet every floor, or that sits at or above a minimum
    whose remaining coordinates are all zero; it carries down only the
    minima its prefix sits at or above.  ``minima`` is read once per total:
    a minimum recorded during total t has total t, so it is above no other
    vector of that total.
    """
    n = len(limits)
    limits = [min(limit, ceilings[g]) for limit, g in zip(limits, groups)]
    # room[i], power[i]: the most coordinates i.. add to the total and to the weighted sum
    room, power = [0] * (n + 1), [0] * (n + 1)
    after, cap = [0] * n, [0] * len(floors)  # after[i]: the most i's group adds after i
    for i in range(n - 1, -1, -1):
        room[i] = room[i + 1] + limits[i]
        power[i] = power[i + 1] + limits[i] * balances[i]
        after[i] = cap[groups[i]]
        cap[groups[i]] += limits[i]
    # what each group still lacks and may still take, booked per prefix
    short, spare = [max(f, 0) for f in floors], ceilings[:]
    if deficit > power[0] or any(f > min(c, k) for f, c, k in zip(short, cap, spare)):
        return

    def choose(i: int, state: tuple):
        # live: (minimum, its last nonzero index) for each minimum the prefix is
        # at or above; lack: sum(short); room[n] is 0, so the last v is the rest
        rest, need, prefix, live, lack = state
        g, owed = groups[i], short[groups[i]]
        low, high = max(0, rest - room[i + 1], owed - after[i]), rest - lack + owed
        for v in range(low, min(high, limits[i], spare[g]) + 1):
            left = need - v * balances[i]
            if left > power[i + 1]:
                continue
            above = live
            if live:
                above = [(m, last) for m, last in live if m[i] <= v]
                if any(last <= i for _, last in above):
                    break  # so is every larger v
            paid = min(v, owed)
            short[g] -= paid
            spare[g] -= v
            yield rest - v, left, prefix + (v,), above, lack - paid
            short[g] += paid
            spare[g] += v

    lack = sum(short)
    for total in range(lack, room[0] + 1):
        live = [(m, max(j for j, v in enumerate(m) if v)) for m in minima if any(m)]
        if len(live) < len(minima):
            return  # the zero vector is a minimum
        yield from (state[2] for state in _depth_first(choose, n, (total, deficit, (), live, lack)))


def is_union_find_tree(t: RankedTree, budget: int | None = None) -> Verdict:
    """Exact Union-Find recognition with a push certificate on acceptance.

    Three stages run in order.  A Union tree, or a tree a root filter
    refutes, is answered from the tree alone.  Then the donor rule
    (:func:`_by_donors`) tries to repair every non-Union subtree with Union
    siblings handed down from above; it costs no ticks and only accepts.
    A tree it declines goes to the search, which follows the
    characterization via pushes: pick the children that remain at depth
    one (their ranks must cover ``{0..rank(root)-1}``), push every other
    child below a strictly higher-ranked survivor, and recursively decide
    each enriched subtree.  The rule reads only the non-Union nodes and
    their children (:func:`_index`); a tree it declines gets the search's
    index of every node, which completes the rule's.  Each candidate
    subtree is a rank over input-tree nodes, memoized by canonical key and
    searched unless its Union flag or size decides it.  Targets are tried
    by rank, key and id, so the search effort does not depend on the
    labeling.  The search keeps plans, not steps; the certificate is
    assembled once, from the winning plan.

    ``budget`` caps the search effort in ticks; the root filters and the
    donor rule spend none, so at budget 0 only the search runs out.  Ticks
    go to keep levels and vectors, splits and subtree decisions; rank 3 or
    less is decided by one counting rule, so such a subproblem costs only
    its decision tick.  A keep count that the per-rank test rules out, with
    the classes before it booked and later ones counting 0, is charged in
    one step what walking every keep vector below it would cost: a tick per
    level entered and per vector.  Keep counts the surplus cap rules out,
    pull vectors below a rank's floor or above its slack, and splits whose
    rank-0 deficit no such vector covers are never searched and cost
    nothing; a split prefix that no split can complete is never walked.
    When the budget runs out the verdict is the inconclusive
    ``search-exhausted``; without one the search always ends with a definite
    answer.
    """
    validate(t).raise_if_invalid()
    pairs = set(zip(t.parent, t.rank))
    if _all_union(pairs, t.rank):
        return Verdict(True, REASON_UNION_TREE)
    # Every Union-Find tree passes the count filter, has at least 2^rank
    # nodes below a root of that rank, and keeps every lower rank among the
    # root's children, because pushes only move nodes down.
    root = t.root
    if not count_filter(t):
        return Verdict(False, REASON_COUNT_FILTER)
    if t.node_count < 1 << t.rank[root]:
        return Verdict(False, REASON_RANK_RANGE)
    if not all((root, r) in pairs for r in range(t.rank[root])):
        return Verdict(False, REASON_MISSING_RANK)

    index = _index(t, pairs)
    steps = _by_donors(t, index)
    if steps is not None:
        return Verdict(True, REASON_CERTIFICATE, Certificate(tuple(steps)))
    st = _Search(t, budget, index)
    try:
        st.tick()
        plan = _search(st, t.rank[root], st.table[root])
    except _BudgetExhausted:
        return Verdict(False, REASON_BUDGET)
    if plan is None:
        return Verdict(False, REASON_SEARCH)
    return Verdict(True, REASON_CERTIFICATE, Certificate(tuple(_steps(st, plan, {}))))


def brute_force_is_uf(t: RankedTree, max_nodes: int = ORACLE_NODE_CAP) -> bool:
    """Oracle: search every push-reachable tree for a Union tree.

    Exhaustive and independent of the recognizer's pruning: states are all
    trees reachable by legal pushes, deduplicated by canonical key.  Each
    push strictly increases the depth sum, which stays below n^2, so the
    walk terminates.  Only meant for small trees; raises above ``max_nodes``.
    """
    validate(t).raise_if_invalid()
    if t.node_count > max_nodes:
        raise CapExceeded(
            f"oracle is capped at {max_nodes} nodes, got {t.node_count}"
        )
    seen = {canonical_key(t)}
    frontier = [t]
    while frontier:
        cur = frontier.pop()
        if is_union_tree(cur):
            return True
        for x, y in legal_pushes(cur):
            nxt = push(cur, x, y)
            key = canonical_key(nxt)
            if key not in seen:
                seen.add(key)
                frontier.append(nxt)
    return False


def check_certificate(t: RankedTree, cert: Certificate) -> bool:
    """Independently replay a certificate.

    True iff every step is a legal push in sequence, the final tree is a
    Union tree, and the step count is at most ``node_count**2``.  Any
    illegal step yields False rather than an exception; an invalid tree
    raises :class:`InvalidTreeError`.
    """
    validate(t).raise_if_invalid()
    if len(cert.steps) > t.node_count**2:
        return False
    parent = list(t.parent)
    for x, y in cert.steps:
        if push_error(parent, t.rank, x, y) is not None:
            return False
        parent[x] = y
    return is_union_tree(RankedTree(parent, t.rank))


def format_certificate(cert: Certificate) -> str:
    """Replayable text form: header line with the step count, then push lines."""
    lines = [str(len(cert.steps))]
    lines.extend(f"push {x} {y}" for x, y in cert.steps)
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    body, first = counted_lines(text, "step", "push", 0, None)
    steps = []
    for lineno, line in enumerate(body, first):
        fields = line.split()
        if len(fields) != 3 or fields[0] != "push":
            raise FormatError(f"expected 'push x y', got {line!r}", lineno)
        try:
            steps.append((int(fields[1]), int(fields[2])))
        except ValueError:
            raise FormatError(f"non-integer node id in {line!r}", lineno) from None
    return Certificate(tuple(steps))
