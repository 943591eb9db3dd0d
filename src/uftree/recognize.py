"""Recognition of merge-built (Union) and merge-plus-collapse (Union-Find) trees.

A Union tree is buildable from singletons by rank-respecting merges alone;
equivalently, every node's children ranks form exactly the set
``{0, ..., rank-1}``.  A Union-Find tree additionally allows path
compressions; equivalently, it can be transformed into a Union tree by a
sequence of pushes.  Union trees are recognized in linear time; Union-Find
recognition is NP-complete, so :func:`is_union_find_tree` runs an exact
memoized backtracking search and, on acceptance, returns a replayable push
certificate.  :func:`brute_force_is_uf` is an independent oracle for
desk-scale cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, FormatError
from .tree import (
    NO_PARENT,
    NodeId,
    RankedTree,
    canonical_form,
    canonical_key,
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
    t.check_node(x)
    ranks = {t.rank[c] for c in t.children_of(x)}
    return ranks == set(range(t.rank[x]))


def is_union_tree(t: RankedTree) -> bool:
    """Linear check that every node satisfies the Union condition.

    Assumes a valid tree, where children ranks already sit below the parent
    rank; the condition then reduces to counting distinct child ranks.
    """
    distinct: list[set[int]] = [set() for _ in range(t.node_count)]
    for c, p in enumerate(t.parent):
        if p != NO_PARENT:
            distinct[p].add(t.rank[c])
    return all(len(d) == r for d, r in zip(distinct, t.rank))


def count_filter(t: RankedTree) -> bool:
    """Necessary condition: at least as many rank-0 nodes as positive-rank ones.

    A False result certifies that the tree is not a Union-Find tree.
    """
    zeros = sum(1 for r in t.rank if r == 0)
    return zeros >= t.node_count - zeros


class _BudgetExhausted(Exception):
    pass


class _Search:
    """Shared state of one recognition run, and its one index of the input tree.

    Every subproblem the search decides is a root rank over a list of the
    input tree's nodes: a push slides a depth-one child below a sibling
    and leaves every subtree below them untouched.  So one child table,
    one set of subtree keys and one bottom-up pass of per-node facts
    (rank-0 count, size, Union flag of the subtree below each node) serve
    every search node.
    """

    __slots__ = ("memo", "budget", "rank", "table", "keys", "zeros", "size", "union")

    def __init__(self, t: RankedTree, budget: int | None):
        # canonical key -> push steps in canonical-tree ids, or None if not UF
        self.memo: dict[bytes, tuple[tuple[int, int], ...] | None] = {}
        self.budget = budget
        self.rank = t.rank
        self.table = t.child_table()
        self.keys = subtree_keys(t, self.table)
        n = t.node_count
        self.zeros, self.size, self.union = [0] * n, [1] * n, [True] * n
        # ranks strictly decrease downward, so this order is bottom-up
        for x in sorted(range(n), key=t.rank.__getitem__):
            _, self.zeros[x], self.size[x], self.union[x] = self.facts(
                t.rank[x], self.table[x]
            )

    def facts(self, rank: int, kids: list[NodeId]) -> tuple[set[int], int, int, bool]:
        """Child ranks, rank-0 count, size and Union flag of a rank over kids."""
        ranks = {self.rank[c] for c in kids}
        zeros = (rank == 0) + sum(self.zeros[c] for c in kids)
        size = 1 + sum(self.size[c] for c in kids)
        return ranks, zeros, size, len(ranks) == rank and all(self.union[c] for c in kids)

    def tick(self) -> None:
        if self.budget is not None:
            self.budget -= 1
            if self.budget < 0:
                raise _BudgetExhausted


def _refute(rank: int, zeros: int, size: int, child_ranks: set[int]) -> str | None:
    """The first structural filter that proves a tree is not Union-Find, or None.

    Takes the tree's root rank, rank-0 count, size and root child ranks,
    and is meant for a valid tree that is not a Union tree.  Every
    Union-Find tree has at least as many rank-0 nodes as positive-rank
    ones (:func:`count_filter`), has at least ``2^rank`` nodes below a
    root of that rank, and keeps every rank below the root's among the
    root's children, because pushes only move nodes down.
    """
    if zeros < size - zeros:
        return REASON_COUNT_FILTER
    if size < (1 << rank):
        return REASON_RANK_RANGE
    if any(r not in child_ranks for r in range(rank)):
        return REASON_MISSING_RANK
    return None


def _search(st: _Search, rank: int, kids: list[NodeId]) -> tuple[tuple[int, int], ...] | None:
    """Push steps, in input-tree ids, that make a rank over kids a Union tree.

    The subproblem is a root of the given rank whose children are the
    input-tree nodes ``kids``, each with its subtree from the input tree.
    Returns None if no push sequence exists.
    """
    ranks, zeros, size, union = st.facts(rank, kids)
    if union:
        return ()
    if _refute(rank, zeros, size, ranks) is not None:
        return None

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
    needy: list[_Class] = []
    free: list[_Class] = []
    free_per_rank, per_rank = [0] * rank, [0] * rank
    # a target is (node, its class, the free class index or -1, its position
    # in the class); pulls take free members from the end of their class
    targets: list[tuple[NodeId, _Class, int, int]] = []
    # by key between rank and id, so the search order is the same under
    # every labeling of the input tree; members are listed by id
    for (neg_rank, _), members in sorted(groups.items()):
        own = st.table[members[0]]
        cls = _Class(
            rank=-neg_rank,
            members=members,
            surplus=2 * st.zeros[members[0]] - st.size[members[0]],
            child_keys=[st.keys[c] for c in own],
            missing=sorted(set(range(-neg_rank)) - {st.rank[c] for c in own}),
        )
        per_rank[cls.rank] += len(members)
        ci = -1
        if st.union[members[0]]:
            ci = len(free)
            free.append(cls)
            free_per_rank[cls.rank] += len(members)
        else:
            needy.append(cls)
        if cls.rank > 0:  # a rank-0 child is free and can receive nothing
            targets.extend((x, cls, ci, pos) for pos, x in enumerate(members))

    kept_per_rank, demand = [0] * rank, [0] * rank
    ctx = _Context(st, rank, needy, free, free_per_rank, per_rank, targets, kept_per_rank, demand)
    return _choose_kept(ctx, 0)


@dataclass
class _Class:
    """One isomorphism class of depth-one children: what all members share."""

    rank: int
    members: list[NodeId]
    surplus: int  # rank-0 minus positive-rank nodes in a member's subtree
    child_keys: list[bytes]  # keys of a member's own children
    missing: list[int]  # ranks below the members' rank absent among those
    kept: int = 0  # of a needy class: its first `kept` members stay at depth one


@dataclass
class _Context:
    st: _Search
    top_rank: int
    needy: list[_Class]
    free: list[_Class]
    free_per_rank: list[int]
    per_rank: list[int]  # depth-one children of each rank
    targets: list[tuple[NodeId, _Class, int, int]]  # every positive-rank child, in search order
    # of the needy classes decided so far: members kept per rank, and how
    # many kept members miss each rank
    kept_per_rank: list[int]
    demand: list[int]

    def key(self, cls: _Class, grafted: list[NodeId]) -> bytes:
        """Canonical key of a member of cls with the grafted subtrees below it."""
        return node_key(cls.rank, cls.child_keys + [self.st.keys[y] for y in grafted])


def _choose_kept(ctx: _Context, i: int) -> tuple[tuple[int, int], ...] | None:
    """Decide, class by class in decreasing rank, which needy children stay.

    A needy child that stays becomes a repair site; one that is pushed must
    land below a strictly higher-ranked depth-one survivor, which root
    coverage guarantees except at the maximal child rank.  Free children
    always stay unless pulled later.  Keeping more is tried first so
    near-Union trees resolve with few pushes.
    """
    ctx.st.tick()
    if i == len(ctx.needy):
        return _assign_targets(ctx)

    cls = ctx.needy[i]
    rank, members = cls.rank, cls.members
    # The last needy class of a rank with no free members must keep coverage.
    later_same_rank = i + 1 < len(ctx.needy) and ctx.needy[i + 1].rank == rank
    uncovered = ctx.kept_per_rank[rank] == 0 and ctx.free_per_rank[rank] == 0
    min_keep = 1 if uncovered and not later_same_rank else 0
    if rank == ctx.top_rank - 1:
        min_keep = len(members)  # nothing outranks them, they cannot move

    for k in range(len(members), min_keep - 1, -1):
        cls.kept = k
        ctx.kept_per_rank[rank] += k
        for r in cls.missing:
            ctx.demand[r] += k
        result = _choose_kept(ctx, i + 1)
        ctx.kept_per_rank[rank] -= k
        for r in cls.missing:
            ctx.demand[r] -= k
        if result is not None:
            return result
    return None


def _assign_targets(ctx: _Context) -> tuple[tuple[int, int], ...] | None:
    """Distribute pushed children and on-demand free pulls over the targets.

    Targets are the kept needy children and the free children that outrank
    some pushed class; a free child below every pushed class can receive
    nothing.  They are served in decreasing rank, so by the time a free
    child takes its own turn it can no longer be pulled: pulls always come
    from strictly lower ranks.  For each target, every split of the
    still-unplaced needy children whose surplus fits the pool is tried;
    free pulls are then probed in ascending size, and each candidate
    subtree is decided immediately (memoized), so a hopeless target prunes
    the whole branch.  A target that is the last one able to absorb a
    needy class must take that class's remainder.  The targets being
    served sit on an explicit stack, so placement depth takes no Python
    frames.
    """
    # Demand/supply precheck per rank: a kept needy child whose root misses
    # rank r can only receive it from a pushed needy child or a pulled free
    # child of that exact rank, because internal pushes never move nodes up.
    # Supply is every child of rank r that is not kept, less one free child
    # if none is kept, because the root keeps rank r.
    for r in range(ctx.top_rank):
        if ctx.demand[r] + max(ctx.kept_per_rank[r], 1) > ctx.per_rank[r]:
            return None

    pulled = [0] * len(ctx.free)
    # slack[r]: pulls rank r can still lose while keeping one child at root
    slack = [ctx.kept_per_rank[r] + ctx.free_per_rank[r] - 1 for r in range(ctx.top_rank)]
    pushed = [(cls, cls.members[cls.kept :]) for cls in ctx.needy if cls.kept < len(cls.members)]
    remaining = [len(members) for _, members in pushed]
    lowest = min((cls.rank for cls, _ in pushed), default=ctx.top_rank)
    targets = [t for t in ctx.targets if t[3] < t[1].kept or t[2] >= 0 and t[1].rank > lowest]
    plan: list[tuple[NodeId, _Class, list[NodeId]]] = []

    # Every target must end as a Union-Find tree, so its rank-0 surplus
    # ends >= 0 (the count filter), and grafts and pulls only move surplus
    # between targets.  So the targets still to serve can end with at most
    # the pool: their own surplus, every pushed child's, and the best pulls
    # from the free children that are no targets, at most slack[r] of rank
    # r.  A served target books the surplus it ends with.
    pool = sum(len(cls.members) * cls.surplus for cls in ctx.needy)
    spare = slack[:]
    for cls in sorted(ctx.free, key=lambda cls: -cls.surplus):
        take = len(cls.members)
        if cls.rank <= lowest:  # no target
            take = min(take, spare[cls.rank])
            spare[cls.rank] -= take
        pool += take * cls.surplus

    def serve(ti: int):
        # one yield per way to serve target ti; its grafts, pulls and surplus
        # stay booked while the generator is suspended
        nonlocal pool
        x, cls, ci, pos = targets[ti]
        if pool < 0:
            return
        if ci >= 0 and pos >= len(cls.members) - pulled[ci]:
            yield True  # pulled below an earlier target, it receives nothing
            return
        # targets come in descending rank, so the next one has the highest
        # rank left; a class it cannot absorb must go here in full
        next_rank = targets[ti + 1][1].rank if ti + 1 < len(targets) else 0
        eligible = [j for j, (source, _) in enumerate(pushed) if source.rank < cls.rank]
        split_ranges = [
            range(remaining[j] if next_rank <= pushed[j][0].rank else 0, remaining[j] + 1)
            for j in eligible
        ]
        # free pulls add between 0 and reach to the grafts' surplus, and the
        # way must end between 0 and the pool
        reach = sum(
            (len(free.members) - pulled[fi]) * free.surplus
            for fi, free in enumerate(ctx.free)
            if free.rank < cls.rank
        )
        weights = [pushed[j][0].surplus for j in eligible]
        for counts in _splits(split_ranges, weights, -reach - cls.surplus, pool - cls.surplus):
            ctx.st.tick()
            if ci >= 0 and not any(counts):
                pool -= cls.surplus
                yield True  # an untouched free child is already a Union tree
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
            for pulls in _iter_pulls(ctx, pulled, slack, x, cls, grafted, surplus):
                ends = surplus + sum(2 * ctx.st.zeros[y] - ctx.st.size[y] for y in pulls)
                plan.append((x, cls, grafted + pulls))
                pool -= ends
                yield True
                pool += ends
                plan.pop()
            for j, take in zip(eligible, counts):
                remaining[j] += take

    stack = []
    while len(stack) < len(targets) or any(remaining):
        if len(stack) < len(targets):
            stack.append(serve(len(stack)))
        while stack and not next(stack[-1], False):
            stack.pop()
        if not stack:
            return None

    steps = [(y, x) for x, _, grafted in plan for y in grafted]
    steps.sort(key=lambda step: (-ctx.st.rank[step[0]], step[0]))
    for x, cls, grafted in plan:
        inner = ctx.st.memo[ctx.key(cls, grafted)]
        if inner:
            ids = _canonical_ids(ctx.st, x, grafted)
            steps.extend((ids[a], ids[b]) for a, b in inner)
    return tuple(steps)


def _splits(ranges: list[range], weights: list[int], lo: int, hi: int):
    """The vectors of ``itertools.product(*ranges)``, in its order, whose
    weighted sum against ``weights`` lies in ``[lo, hi]``.

    The ranges are contiguous.  A prefix walk: the least and most the
    remaining coordinates can add bound each coordinate to the values
    that can still reach the window, so a cut prefix is never visited.
    """
    n = len(ranges)
    # least[i], most[i]: the least and most coordinates i.. add to the sum
    least, most = [0] * (n + 1), [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        ends = (ranges[i].start * weights[i], (ranges[i].stop - 1) * weights[i])
        least[i], most[i] = least[i + 1] + min(ends), most[i + 1] + max(ends)
    if lo > most[0] or hi < least[0]:
        return

    def walk(i: int, total: int, prefix: tuple[int, ...]):
        if i == n:
            yield prefix
            return
        w, first, last = weights[i], ranges[i].start, ranges[i].stop - 1
        # v * w must lie in [low, high] for some rest of the vector to fit;
        # the prefix can reach the window, so a zero weight admits every v
        low, high = lo - total - most[i + 1], hi - total - least[i + 1]
        if w > 0:
            first, last = max(first, -(-low // w)), min(last, high // w)
        elif w < 0:
            first, last = max(first, -(-high // w)), min(last, low // w)
        for v in range(first, last + 1):
            yield from walk(i + 1, total + v * w, prefix + (v,))

    yield from walk(0, 0, ())


def _canonical_ids(st: _Search, x: NodeId, grafted: list[NodeId]) -> list[NodeId]:
    """Input-tree ids of x's enriched subtree, listed by canonical id.

    The enriched subtree is x with the grafted subtrees below it.  It is
    materialized and canonicalized only to translate the push steps of a
    successful decision between the input tree and the memo.
    """
    nodes, parent = [x], [NO_PARENT]
    for i, y in enumerate(nodes):  # breadth-first: the list grows while it is walked
        kids = st.table[y] + grafted if i == 0 else st.table[y]
        nodes.extend(kids)
        parent.extend([i] * len(kids))
    order = canonical_form(RankedTree(parent, [st.rank[y] for y in nodes]))[1]
    return [nodes[i] for i in order]


def _decide(ctx: _Context, x: NodeId, cls: _Class, grafted: list[NodeId]) -> bool:
    """Whether x, a member of cls, with the grafted subtrees below it is UF.

    Memoized by canonical key, which the index gives without building the
    subtree.  On a miss the search runs on the input tree's own nodes; a
    successful decision with steps is canonicalized once, to store its
    steps in canonical-tree ids.
    """
    st = ctx.st
    st.tick()
    key = ctx.key(cls, grafted)
    if key not in st.memo:
        steps = _search(st, cls.rank, st.table[x] + grafted)
        if steps:
            to_canon = {y: i for i, y in enumerate(_canonical_ids(st, x, grafted))}
            steps = tuple((to_canon[a], to_canon[b]) for a, b in steps)
        st.memo[key] = steps
    return st.memo[key] is not None


def _iter_pulls(
    ctx: _Context,
    pulled: list[int],
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
    once per total.  Vectors that cannot possibly fix the subtree
    (missing positive ranks, rank-0 deficit) or that would hollow out the
    root's rank coverage are skipped without a search.  A yielded pull
    stays booked in ``pulled`` and ``slack`` until the consumer asks for
    the next one.
    """
    graft_ranks = {ctx.st.rank[y] for y in grafted}
    required = [r for r in x_cls.missing if r not in graft_ranks]
    # (class, free index, available) entries; bookings are undone before the
    # next vector, so the last `available` members of each class are unpulled.
    # High-surplus, wide classes first so both pruning rules bite early; a
    # free child's surplus is never negative, since it is a Union tree.
    pool = sorted(
        (
            (cls, ci, len(cls.members) - pulled[ci])
            for ci, cls in enumerate(ctx.free)
            if cls.rank < x_cls.rank and len(cls.members) > pulled[ci]
        ),
        key=lambda entry: (-entry[0].surplus, -entry[2]),
    )
    if not {cls.rank for cls, _, _ in pool}.issuperset(required):
        return

    minima: list[tuple[int, ...]] = []
    limits = [avail for _, _, avail in pool]
    balances = [cls.surplus for cls, _, _ in pool]
    for vec in _minimal_candidates(limits, minima, balances, -surplus):
        ctx.st.tick()
        vec_ranks = {cls.rank for (cls, _, _), v in zip(pool, vec) if v}
        if any(r not in vec_ranks for r in required):
            continue
        pulls: list[NodeId] = []
        for (cls, _, avail), v in zip(pool, vec):
            pulls.extend(cls.members[avail - v : avail])
        if not _decide(ctx, x, x_cls, grafted + pulls):
            continue
        minima.append(vec)
        for (cls, ci, _), v in zip(pool, vec):
            pulled[ci] += v
            slack[cls.rank] -= v
        # a pool rank had slack >= 0 (it has free members); a pull that
        # drives it negative would leave the rank absent from the root
        if all(slack[cls.rank] >= 0 for cls, _, _ in pool):
            yield pulls
        for (cls, ci, _), v in zip(pool, vec):
            pulled[ci] -= v
            slack[cls.rank] += v


def _minimal_candidates(
    limits: list[int], minima: list[tuple[int, ...]], balances: list[int], deficit: int
):
    """Vectors up to ``limits``, ascending by total and then lexicographically,
    whose weighted sum against ``balances`` reaches ``deficit`` and that sit
    at or above none of the ``minima``.

    The consumer appends its successes to ``minima``.  One prefix walk per
    total cuts a prefix that can no longer reach the deficit or fill the
    total, or that sits at or above a minimum whose remaining coordinates
    are all zero; it carries down only the minima its prefix sits at or
    above.  ``minima`` is read once per total: a minimum recorded during
    total t has total t, so it is above no other vector of that total.
    """
    n = len(limits)
    # room[i], power[i]: the most coordinates i.. add to the total and to the weighted sum
    room, power = [0] * (n + 1), [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        room[i] = room[i + 1] + limits[i]
        power[i] = power[i + 1] + limits[i] * balances[i]
    if deficit > power[0]:
        return
    if n == 0:
        yield ()
        return

    def walk(i: int, rest: int, need: int, prefix: tuple[int, ...], live: list):
        # live: (minimum, its last nonzero index) for each minimum the prefix is at or above
        if i == n - 1:  # the last coordinate takes the rest of the total
            if rest * balances[i] >= need and not (live and any(m[i] <= rest for m, _ in live)):
                yield prefix + (rest,)
            return
        for v in range(max(0, rest - room[i + 1]), min(rest, limits[i]) + 1):
            left = need - v * balances[i]
            if left > power[i + 1]:
                continue
            above = live
            if live:
                above = [(m, last) for m, last in live if m[i] <= v]
                if any(last <= i for _, last in above):
                    break  # so is every larger v
            yield from walk(i + 1, rest - v, left, prefix + (v,), above)

    for total in range(room[0] + 1):
        live = [(m, max(j for j, v in enumerate(m) if v)) for m in minima if any(m)]
        if len(live) < len(minima):
            return  # the zero vector is a minimum
        yield from walk(0, total, deficit, (), live)


def is_union_find_tree(t: RankedTree, budget: int | None = None) -> Verdict:
    """Exact Union-Find recognition with a push certificate on acceptance.

    The search follows the characterization via pushes: pick the children
    that remain at depth one (their ranks must cover ``{0..rank(root)-1}``),
    push every other child below a strictly higher-ranked survivor, and
    recursively decide each enriched subtree.  A Union tree, or a tree a
    root filter refutes, is answered from the tree alone.  Otherwise one
    index of the tree serves the whole search: every candidate subtree is
    a rank over input-tree nodes, pre-filtered by the same filters and
    memoized by canonical key.  Targets are tried in order of rank, key
    and id, so the search effort does not depend on the tree's labeling.

    ``budget`` caps the search effort, counted in subtree decisions and
    candidate probes; when it runs out the verdict is the inconclusive
    ``search-exhausted``.  Without a budget the search always terminates
    with a definite answer.
    """
    validate(t).raise_if_invalid()
    if is_union_tree(t):
        return Verdict(True, REASON_UNION_TREE)
    root = t.root
    root_ranks = {t.rank[c] for c in t.children_of(root)}
    reason = _refute(t.rank[root], t.rank.count(0), t.node_count, root_ranks)
    if reason is not None:
        return Verdict(False, reason)

    st = _Search(t, budget)
    try:
        st.tick()
        steps = _search(st, t.rank[root], st.table[root])
    except _BudgetExhausted:
        return Verdict(False, REASON_BUDGET)
    if steps is None:
        return Verdict(False, REASON_SEARCH)
    return Verdict(True, REASON_CERTIFICATE, Certificate(steps))


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
    illegal step yields False rather than an exception.
    """
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
    lines = text.splitlines()
    if not lines:
        raise FormatError("missing certificate header", 1)
    try:
        count = int(lines[0])
    except ValueError:
        raise FormatError(f"header must be a step count, got {lines[0]!r}", 1) from None
    if count < 0 or len(lines) < count + 1:
        raise FormatError(f"expected {count} push lines", len(lines) + 1)
    for i in range(count + 1, len(lines)):
        if lines[i].strip():
            raise FormatError(f"trailing content after {count} push lines", i + 1)
    steps = []
    for i in range(count):
        fields = lines[1 + i].split()
        if len(fields) != 3 or fields[0] != "push":
            raise FormatError(f"expected 'push x y', got {lines[1 + i]!r}", i + 2)
        try:
            steps.append((int(fields[1]), int(fields[2])))
        except ValueError:
            raise FormatError(f"non-integer node id in {lines[1 + i]!r}", i + 2) from None
    return Certificate(tuple(steps))
