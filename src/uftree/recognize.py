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

import itertools
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
    """Shared state of one recognition run."""

    __slots__ = ("memo", "budget")

    def __init__(self, budget: int | None):
        # canonical key -> push steps in canonical-tree ids, or None if not UF
        self.memo: dict[bytes, tuple[tuple[int, int], ...] | None] = {}
        self.budget = budget

    def tick(self) -> None:
        if self.budget is not None:
            self.budget -= 1
            if self.budget < 0:
                raise _BudgetExhausted


def _refute(t: RankedTree) -> str | None:
    """The first structural filter that proves t is not Union-Find, or None.

    Meant for a valid tree that is not a Union tree.  Every Union-Find tree
    has at least as many rank-0 nodes as positive-rank ones, has at least
    ``2^rank`` nodes below a root of that rank, and keeps every rank below
    the root's among the root's children, because pushes only move nodes
    down.
    """
    if not count_filter(t):
        return REASON_COUNT_FILTER
    if t.node_count < (1 << t.root_rank):
        return REASON_RANK_RANGE
    root_ranks = {t.rank[c] for c in t.children_of(t.root)}
    if any(r not in root_ranks for r in range(t.root_rank)):
        return REASON_MISSING_RANK
    return None


def _search(t: RankedTree, st: _Search) -> tuple[tuple[int, int], ...] | None:
    """Push steps that turn the canonical tree t into a Union tree, or None."""
    if is_union_tree(t):
        return ()
    if _refute(t) is not None:
        return None

    # One child table serves every per-child value below; building one per
    # child would make wide trees quadratic.
    table = t.child_table()
    root = t.root
    top_rank = t.rank[root]
    kids = table[root]
    by_rank: dict[int, list[NodeId]] = {}
    for c in kids:
        by_rank.setdefault(t.rank[c], []).append(c)

    # Split the depth-one children into isomorphism classes and sort the
    # classes into needy (their standalone subtree is not a Union tree, so
    # they must be repaired in place or pushed into a repair site) and free
    # (standalone Union trees).  A free child grafted below a sibling never
    # breaks membership, so in a normalized witness a free child moves only
    # to fill a concrete hole; free children are therefore pulled on demand
    # instead of being enumerated, which keeps wide collapse-heavy trees
    # tractable.
    desc: dict[NodeId, list[NodeId]] = {}
    for c in kids:
        nodes = [c]
        for y in nodes:  # breadth-first: the list grows while it is walked
            nodes.extend(table[y])
        desc[c] = sorted(nodes)
    keys = subtree_keys(t, table)
    needy: list[_Class] = []
    free: list[_Class] = []
    for r in sorted(by_rank, reverse=True):
        groups: dict[bytes, list[NodeId]] = {}
        for c in sorted(by_rank[r]):
            groups.setdefault(keys[c], []).append(c)
        for key in sorted(groups):
            members = groups[key]
            sub, _ = _extract_enriched(t, desc, members[0], [])
            own = table[members[0]]
            zeros = sub.rank.count(0)
            cls = _Class(
                rank=r,
                members=members,
                zeros=zeros,
                positives=sub.node_count - zeros,
                child_keys=[keys[c] for c in own],
                missing=sorted(set(range(r)) - {t.rank[c] for c in own}),
            )
            (free if is_union_tree(sub) else needy).append(cls)

    free_per_rank = [0] * top_rank
    for cls in free:
        free_per_rank[cls.rank] += len(cls.members)

    ctx = _Context(t, st, top_rank, needy, free, free_per_rank, desc, keys)
    return _choose_kept(ctx, 0, [0] * top_rank, [], [])


@dataclass
class _Class:
    """One isomorphism class of depth-one children: what all members share."""

    rank: int
    members: list[NodeId]
    zeros: int  # rank-0 nodes in a member's subtree
    positives: int  # positive-rank nodes in a member's subtree
    child_keys: list[bytes]  # keys of a member's own children
    missing: list[int]  # ranks below the members' rank absent among those


@dataclass
class _Context:
    tree: RankedTree
    st: _Search
    top_rank: int
    needy: list[_Class]
    free: list[_Class]
    free_per_rank: list[int]
    desc: dict[NodeId, list[NodeId]]  # descendants per depth-one child
    keys: list[bytes]  # canonical key of the subtree below every node

    def key(self, cls: _Class, grafted: list[NodeId]) -> bytes:
        """Canonical key of a member of cls with the grafted subtrees below it."""
        return node_key(cls.rank, cls.child_keys + [self.keys[y] for y in grafted])


def _choose_kept(
    ctx: _Context,
    i: int,
    kept_per_rank: list[int],
    kept: list[tuple[_Class, int]],
    pushed: list[tuple[_Class, list[NodeId]]],
) -> tuple[tuple[int, int], ...] | None:
    """Decide, class by class in decreasing rank, which needy children stay.

    A needy child that stays becomes a repair site; one that is pushed must
    land below a strictly higher-ranked depth-one survivor, which root
    coverage guarantees except at the maximal child rank.  Free children
    always stay unless pulled later.  Keeping more is tried first so
    near-Union trees resolve with few pushes.
    """
    ctx.st.tick()
    if i == len(ctx.needy):
        return _assign_targets(ctx, kept, pushed, kept_per_rank)

    cls = ctx.needy[i]
    rank, members = cls.rank, cls.members
    # The last needy class of a rank with no free members must keep coverage.
    later_same_rank = i + 1 < len(ctx.needy) and ctx.needy[i + 1].rank == rank
    min_keep = 0
    if (
        not later_same_rank
        and kept_per_rank[rank] == 0
        and ctx.free_per_rank[rank] == 0
    ):
        min_keep = 1
    if rank == ctx.top_rank - 1:
        min_keep = len(members)  # nothing outranks them, they cannot move

    for k in range(len(members), min_keep - 1, -1):
        kept_per_rank[rank] += k
        kept.append((cls, k))
        if k < len(members):
            pushed.append((cls, members[k:]))
        result = _choose_kept(ctx, i + 1, kept_per_rank, kept, pushed)
        if k < len(members):
            pushed.pop()
        kept.pop()
        kept_per_rank[rank] -= k
        if result is not None:
            return result
    return None


def _extract_enriched(
    t: RankedTree, desc: dict[NodeId, list[NodeId]], x: NodeId, grafted: list[NodeId]
) -> tuple[RankedTree, list[NodeId]]:
    """Subtree of x with each grafted sibling subtree attached below x.

    ``desc`` holds the descendants of every depth-one child.  With no
    grafts this is ``subtree(t, x)``, ids ascending in the same way.
    """
    ids = sorted(itertools.chain(desc[x], *(desc[y] for y in grafted)))
    to_new = {old: new for new, old in enumerate(ids)}
    roots = set(grafted)
    parent = tuple(
        NO_PARENT
        if old == x
        else to_new[x] if old in roots else to_new[t.parent[old]]
        for old in ids
    )
    rank = tuple(t.rank[old] for old in ids)
    return RankedTree(parent, rank), ids


def _assign_targets(
    ctx: _Context,
    kept: list[tuple[_Class, int]],
    pushed: list[tuple[_Class, list[NodeId]]],
    kept_per_rank: list[int],
) -> tuple[tuple[int, int], ...] | None:
    """Distribute pushed children and on-demand free pulls over the targets.

    Targets (kept needy children plus free children) are processed in
    decreasing rank, so by the time a free child takes its own turn it can
    no longer be pulled: pulls always come from strictly lower ranks.  For
    each target, every split of the still-unplaced needy children is tried;
    free pulls are then probed in ascending size, and each candidate
    subtree is decided immediately (memoized), so a hopeless target prunes
    the whole branch.  A target that is the last one able to absorb a needy
    class must take that class's remainder.
    """
    t = ctx.tree
    # Demand/supply precheck per rank: a kept needy child whose root misses
    # rank r can only receive it from a pushed needy child or a pulled free
    # child of that exact rank, because internal pushes never move nodes up.
    demand = [0] * ctx.top_rank
    for cls, k in kept:
        for r in cls.missing:
            demand[r] += k
    pushed_per_rank = [0] * ctx.top_rank
    for cls, members in pushed:
        pushed_per_rank[cls.rank] += len(members)
    for r in range(ctx.top_rank):
        free_avail = ctx.free_per_rank[r] - (1 if kept_per_rank[r] == 0 else 0)
        if demand[r] > free_avail + pushed_per_rank[r]:
            return None

    pulled = [0] * len(ctx.free)
    # slack[r]: pulls rank r can still lose while keeping one child at root
    slack = [
        kept_per_rank[r] + ctx.free_per_rank[r] - 1 for r in range(ctx.top_rank)
    ]

    # a target is (node, its class, the free class index or -1, its position
    # in the class); pulls take free members from the end of their class
    targets = [(x, cls, -1, 0) for cls, k in kept for x in cls.members[:k]]
    for ci, cls in enumerate(ctx.free):
        if cls.rank > 0:
            targets.extend((x, cls, ci, pos) for pos, x in enumerate(cls.members))
    targets.sort(key=lambda target: (-target[1].rank, target[0]))

    remaining = [len(members) for _, members in pushed]
    # suffix_best[i] = highest target rank at or after position i
    suffix_best = [0] * (len(targets) + 1)
    for i in range(len(targets) - 1, -1, -1):
        suffix_best[i] = max(suffix_best[i + 1], targets[i][1].rank)

    plan: list[tuple[NodeId, _Class, list[NodeId]]] = []

    def place(ti: int) -> bool:
        # Free targets that are pulled, or that have nothing left to
        # receive, stay as they are; a loop steps over them so that wide
        # trees do not take one stack frame per child.
        while ti < len(targets):
            x, cls, ci, pos = targets[ti]
            eligible = [j for j in range(len(pushed)) if pushed[j][0].rank < cls.rank]
            if ci < 0:
                break
            if pos < len(cls.members) - pulled[ci]:
                if any(remaining[j] for j in eligible):
                    break
                ctx.st.tick()  # an untouched free child is already a Union tree
            ti += 1
        if ti == len(targets):
            return not any(remaining)

        split_ranges = []
        for j in eligible:
            must_take_all = suffix_best[ti + 1] <= pushed[j][0].rank
            low = remaining[j] if must_take_all else 0
            split_ranges.append(range(low, remaining[j] + 1))
        for counts in itertools.product(*split_ranges):
            ctx.st.tick()
            if ci >= 0 and not any(counts):
                # an untouched free child is already a Union tree
                if place(ti + 1):
                    return True
                continue
            grafted: list[NodeId] = []
            stats = [0, 0]  # rank-0 and positive-rank node counts of the grafts
            for j, take in zip(eligible, counts):
                source, members = pushed[j]
                used = len(members) - remaining[j]
                grafted.extend(members[used : used + take])
                remaining[j] -= take
                stats[0] += take * source.zeros
                stats[1] += take * source.positives
            for pulls in _iter_pulls(ctx, pulled, slack, x, cls, grafted, stats):
                plan.append((x, cls, grafted + pulls))
                if place(ti + 1):
                    return True
                plan.pop()
            for j, take in zip(eligible, counts):
                remaining[j] += take
        return False

    if not place(0):
        return None

    level_one = [(y, x) for x, _, grafted in plan for y in grafted]
    level_one.sort(key=lambda step: (-t.rank[step[0]], step[0]))
    steps: list[tuple[int, int]] = list(level_one)
    for x, cls, grafted in plan:
        inner = ctx.st.memo[ctx.key(cls, grafted)]
        if inner:
            sub, ids = _extract_enriched(t, ctx.desc, x, grafted)
            order = canonical_form(sub)[1]
            steps.extend((ids[order[a]], ids[order[b]]) for a, b in inner)
    return tuple(steps)


def _decide(ctx: _Context, x: NodeId, cls: _Class, grafted: list[NodeId]) -> bool:
    """Whether x, a member of cls, with the grafted subtrees below it is UF.

    Memoized by canonical key: the subtree is materialized, canonicalized
    and searched only the first time its key is seen.
    """
    ctx.st.tick()
    key = ctx.key(cls, grafted)
    if key not in ctx.st.memo:
        sub, _ = _extract_enriched(ctx.tree, ctx.desc, x, grafted)
        ctx.st.memo[key] = _search(canonical_form(sub)[0], ctx.st)
    return ctx.st.memo[key] is not None


def _iter_pulls(
    ctx: _Context,
    pulled: list[int],
    slack: list[int],
    x: NodeId,
    x_cls: _Class,
    grafted: list[NodeId],
    graft_stats: list[int],
):
    """Yield the minimal successful free pulls for x enriched with the grafts.

    Success is monotone: extra free children at the subtree's root never
    hurt.  Pull vectors are therefore tried in ascending total, and
    anything componentwise above an earlier success is skipped, because a
    witness pulling more than a minimal fix could have left the surplus at
    the root instead.  Vectors that cannot possibly fix the subtree
    (missing positive ranks, rank-0 deficit) or that would hollow out the
    root's rank coverage are skipped without a search.  A yielded pull
    stays booked in ``pulled`` and ``slack`` until the consumer asks for
    the next one.
    """
    t, st = ctx.tree, ctx.st
    x_rank = x_cls.rank
    graft_ranks = {t.rank[y] for y in grafted}
    required = [r for r in x_cls.missing if r not in graft_ranks]
    zeros = x_cls.zeros + graft_stats[0]
    positives = x_cls.positives + graft_stats[1]

    pool = [
        ci
        for ci, cls in enumerate(ctx.free)
        if cls.rank < x_rank and len(cls.members) - pulled[ci] > 0
    ]
    pool_ranks = {ctx.free[ci].rank for ci in pool}
    if any(r not in pool_ranks for r in required):
        return

    def avail(ci: int) -> int:
        return len(ctx.free[ci].members) - pulled[ci]

    def balance(ci: int) -> int:
        # rank-0 surplus of one pulled child; never negative for a Union tree
        return ctx.free[ci].zeros - ctx.free[ci].positives

    deficit = positives - zeros
    # high-surplus, wide classes first so both pruning rules bite early
    pool.sort(key=lambda ci: (-balance(ci), -avail(ci)))
    limits = [avail(ci) for ci in pool]
    balances = [balance(ci) for ci in pool]

    minima: list[tuple[int, ...]] = []
    for vec in _minimal_candidates(limits, minima, balances, deficit):
        st.tick()
        vec_ranks = {ctx.free[ci].rank for ci, v in zip(pool, vec) if v}
        if any(r not in vec_ranks for r in required):
            continue
        pulls: list[NodeId] = []
        for ci, v in zip(pool, vec):
            if v:
                members = ctx.free[ci].members
                end = len(members) - pulled[ci]
                pulls.extend(members[end - v : end])
        if not _decide(ctx, x, x_cls, grafted + pulls):
            continue
        minima.append(vec)
        rank_loss: dict[int, int] = {}
        for ci, v in zip(pool, vec):
            if v:
                rank_loss[ctx.free[ci].rank] = rank_loss.get(ctx.free[ci].rank, 0) + v
        if all(loss <= slack[r] for r, loss in rank_loss.items()):
            for ci, v in zip(pool, vec):
                pulled[ci] += v
                slack[ctx.free[ci].rank] -= v
            yield pulls
            for ci, v in zip(pool, vec):
                pulled[ci] -= v
                slack[ctx.free[ci].rank] += v


def _minimal_candidates(
    limits: list[int], minima: list[tuple[int, ...]], balances: list[int], deficit: int
):
    """Count vectors ascending by total, pruned by minima and the deficit.

    Only vectors whose weighted sum against ``balances`` reaches ``deficit``
    can fix the subtree's rank-0 shortfall, so branches that can no longer
    reach it are cut.  ``minima`` is read live: entries appended by the
    consumer prune the remainder of the enumeration, since a prefix
    componentwise at or above a recorded minimum whose remaining
    coordinates are all zero only produces dominated vectors.
    """
    if not limits:
        if deficit <= 0:
            yield ()
        return
    n = len(limits)
    suffix_power = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_power[i] = suffix_power[i + 1] + limits[i] * balances[i]

    def dominated(prefix: tuple[int, ...]) -> bool:
        k = len(prefix)
        for m in minima:
            if all(v == 0 for v in m[k:]) and all(
                prefix[j] >= m[j] for j in range(k)
            ):
                return True
        return False

    def split(total: int, i: int, prefix: tuple[int, ...], need: int):
        if need > suffix_power[i]:
            return
        if dominated(prefix):
            return
        if i == n - 1:
            if total <= limits[i] and total * balances[i] >= need:
                vec = prefix + (total,)
                if not dominated(vec):
                    yield vec
            return
        for first in range(min(total, limits[i]) + 1):
            yield from split(
                total - first, i + 1, prefix + (first,), need - first * balances[i]
            )

    for total in range(sum(limits) + 1):
        yield from split(total, 0, (), deficit)


def is_union_find_tree(t: RankedTree, budget: int | None = None) -> Verdict:
    """Exact Union-Find recognition with a push certificate on acceptance.

    The search follows the characterization via pushes: pick the children
    that remain at depth one (their ranks must cover ``{0..rank(root)-1}``),
    push every other child below a strictly higher-ranked survivor, and
    recursively decide each enriched subtree.  Candidate subtrees are
    pre-filtered by the rank-0 count condition and the ``2^rank`` size
    bound, and memoized by canonical key.

    ``budget`` caps the search effort, counted in subtree decisions and
    candidate probes; when it runs out the verdict is the inconclusive
    ``search-exhausted``.  Without a budget the search always terminates
    with a definite answer.
    """
    validate(t).raise_if_invalid()
    if is_union_tree(t):
        return Verdict(True, REASON_UNION_TREE)
    reason = _refute(t)
    if reason is not None:
        return Verdict(False, reason)

    st = _Search(budget)
    canon, order = canonical_form(t)
    try:
        st.tick()
        steps = _search(canon, st)
    except _BudgetExhausted:
        return Verdict(False, REASON_BUDGET)
    if steps is None:
        return Verdict(False, REASON_SEARCH)
    steps = tuple((order[a], order[b]) for a, b in steps)
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
    cur = t
    for x, y in cert.steps:
        try:
            cur = push(cur, x, y)
        except ValueError:
            return False
    return is_union_tree(cur)


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
