"""Partition instances compiled into flat trees, plus a brute-force solver.

The compiler maps a k-way Partition instance (weights that must split into k
groups of equal sum) to a "flat tree" whose Union-Find membership is
equivalent to the instance's solvability: each weight becomes an apple that
must be pushed into exactly one basket, and a basket can absorb apples of
total weight at most its size without breaking the rank-0 count condition.
This is the gadget construction behind the NP-hardness of Union-Find tree
recognition; here it doubles as a cross-validation harness between an
independent solver and the recognizer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, FormatError
from .recognize import Certificate, Verdict, is_union_find_tree
from .tree import NO_PARENT, NodeId, RankedTree

SOLVER_WEIGHT_CAP = 20
VERIFY_NODE_CAP = 500


@dataclass(frozen=True)
class PartitionInstance:
    """Weights a1..am and a part count k with sum(weights) divisible by k."""

    weights: tuple[int, ...]
    parts: int

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if not self.weights:
            raise ValueError("instance needs at least one weight")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        if self.parts < 1:
            raise ValueError("part count must be positive")
        if sum(self.weights) % self.parts:
            raise ValueError(
                f"total weight {sum(self.weights)} is not divisible by {self.parts}"
            )

    @property
    def target(self) -> int:
        """Per-part sum B; also the basket size H of the compiled tree."""
        return sum(self.weights) // self.parts


@dataclass(frozen=True)
class PartitionSolution:
    """assignment[i] is the part (0..k-1) that receives weight i."""

    assignment: tuple[int, ...]


def is_valid_solution(inst: PartitionInstance, sol: PartitionSolution) -> bool:
    """Check a solution independently of any search: every part sums to B."""
    if len(sol.assignment) != len(inst.weights):
        return False
    if any(not 0 <= p < inst.parts for p in sol.assignment):
        return False
    sums = [0] * inst.parts
    for w, p in zip(inst.weights, sol.assignment):
        sums[p] += w
    return all(s == inst.target for s in sums)


def parse_instance(text: str) -> PartitionInstance:
    """Parse the instance format "a1,a2,...,am;k"."""
    line = text.strip()
    if ";" not in line:
        raise FormatError(f"expected 'a1,a2,...;k', got {line!r}")
    weights_part, _, parts_part = line.partition(";")
    try:
        weights = tuple(int(w) for w in weights_part.split(","))
        parts = int(parts_part)
    except ValueError:
        raise FormatError(f"non-integer field in {line!r}") from None
    try:
        return PartitionInstance(weights, parts)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_instance(inst: PartitionInstance) -> str:
    return ",".join(str(w) for w in inst.weights) + f";{inst.parts}"


def make_apple(a: int) -> RankedTree:
    """Apple of weight a: rank-2 root, one rank-0 child, a rank-1 children.

    Apples fail the rank-0 count condition on their own, which is what
    forces them to be pushed into baskets.
    """
    if a < 1:
        raise ValueError(f"apple weight must be positive, got {a}")
    parent = (NO_PARENT,) + (0,) * (a + 1)
    rank = (2, 0) + (1,) * a
    return RankedTree(parent, rank)


def make_basket(H: int) -> RankedTree:
    """Basket of size H: rank-3 root, H+1 rank-0 children, and a rank-1
    child that has a single rank-0 child."""
    if H < 1:
        raise ValueError(f"basket size must be positive, got {H}")
    parent = (NO_PARENT,) + (0,) * (H + 2) + (H + 2,)
    rank = (3,) + (0,) * (H + 1) + (1, 0)
    return RankedTree(parent, rank)


@dataclass(frozen=True)
class FlatTree:
    """A compiled instance: rank-4 root over the constant part, apples, baskets."""

    tree: RankedTree
    apple_roots: tuple[NodeId, ...]
    basket_roots: tuple[NodeId, ...]


def make_flat_tree(inst: PartitionInstance) -> FlatTree:
    """Compile an instance: one apple per weight, k baskets of size B.

    Children are laid out in a fixed order (constant part, apples in input
    order, baskets) so serialization is reproducible; the semantics are
    unordered.  Node count is 8 + sum(a_i + 2) + k*(B + 4).
    """
    # rank-4 root; constant children: rank-0 leaf; rank-1 over a leaf;
    # rank-2 over a leaf and a rank-1 node that has its own leaf
    parent = [NO_PARENT, 0, 0, 2, 0, 4, 4, 6]
    rank = [4, 0, 1, 0, 2, 0, 1, 0]

    def graft(gadget: RankedTree) -> NodeId:
        top = len(parent)
        parent.append(0)  # the gadget's root, its node 0, goes below the flat root
        parent.extend([top + p for p in gadget.parent[1:]])
        rank.extend(gadget.rank)
        return top

    apples = {a: make_apple(a) for a in set(inst.weights)}
    basket = make_basket(inst.target)
    apple_roots = [graft(apples[a]) for a in inst.weights]
    basket_roots = [graft(basket) for _ in range(inst.parts)]

    return FlatTree(
        RankedTree(tuple(parent), tuple(rank)),
        tuple(apple_roots),
        tuple(basket_roots),
    )


def solve_partition(inst: PartitionInstance) -> PartitionSolution | None:
    """Exhaustive k-way Partition search, or None when unsolvable.

    Weights are placed largest first; parts with equal residual capacity are
    interchangeable, so only one is tried, and failed states are memoized by
    (next weight, sorted residual capacities).
    """
    m = len(inst.weights)
    if m > SOLVER_WEIGHT_CAP:
        raise CapExceeded(f"solver is capped at {SOLVER_WEIGHT_CAP} weights, got {m}")
    order = sorted(range(m), key=lambda i: -inst.weights[i])
    residual = [inst.target] * inst.parts
    assignment = [-1] * m
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def place(i: int) -> bool:
        if i == m:
            return True
        state = (i, tuple(sorted(residual)))
        if state in failed:
            return False
        w = inst.weights[order[i]]
        tried: set[int] = set()
        for part in range(inst.parts):
            if residual[part] >= w and residual[part] not in tried:
                tried.add(residual[part])
                residual[part] -= w
                assignment[order[i]] = part
                if place(i + 1):
                    return True
                residual[part] += w
        failed.add(state)
        return False

    if not place(0):
        return None
    return PartitionSolution(tuple(assignment))


def extract_solution(
    flat: FlatTree, cert: Certificate
) -> PartitionSolution | None:
    """Recover a partition from a certificate's apple-to-basket placements.

    Returns None when the steps do not place every apple into exactly one
    basket; validity of the per-part sums is the caller's check.
    """
    apples = {x: i for i, x in enumerate(flat.apple_roots)}
    baskets = {x: j for j, x in enumerate(flat.basket_roots)}
    assignment = [-1] * len(flat.apple_roots)
    for x, y in cert.steps:
        if x in apples:
            if y not in baskets or assignment[apples[x]] != -1:
                return None
            assignment[apples[x]] = baskets[y]
    if any(p == -1 for p in assignment):
        return None
    return PartitionSolution(tuple(assignment))


@dataclass(frozen=True)
class ReductionReport:
    """Solver and recognizer verdicts for one instance, cross-validated."""

    instance: PartitionInstance
    solver_solution: PartitionSolution | None
    verdict: Verdict
    agree: bool
    extracted: PartitionSolution | None = None
    extraction_valid: bool | None = None


def verify_reduction(
    inst: PartitionInstance, max_nodes: int = VERIFY_NODE_CAP
) -> ReductionReport:
    """Run solver and recognizer on one instance and compare the verdicts.

    When both are positive, the certificate's apple placements are converted
    back into a partition and re-validated against the per-part target.
    """
    flat = make_flat_tree(inst)
    n = flat.tree.node_count
    if n > max_nodes:
        raise CapExceeded(f"flat tree has {n} nodes, cap is {max_nodes}")
    solution = solve_partition(inst)
    verdict = is_union_find_tree(flat.tree)
    agree = (solution is not None) == verdict.accepted

    extracted = None
    extraction_valid = None
    if solution is not None and verdict.accepted and verdict.certificate:
        extracted = extract_solution(flat, verdict.certificate)
        extraction_valid = extracted is not None and is_valid_solution(
            inst, extracted
        )
    return ReductionReport(inst, solution, verdict, agree, extracted, extraction_valid)


def format_report(report: ReductionReport) -> str:
    """Line-oriented key=value rendering of a reduction report."""
    inst = report.instance
    lines = [
        f"weights={','.join(str(w) for w in inst.weights)}",
        f"parts={inst.parts}",
        f"target={inst.target}",
        f"solver={'solvable' if report.solver_solution else 'unsolvable'}",
        f"recognizer={'accepted' if report.verdict.accepted else 'rejected'}",
        f"reason={report.verdict.reason}",
        f"agree={'true' if report.agree else 'false'}",
    ]
    if report.verdict.certificate is not None:
        lines.append(f"certificate_steps={len(report.verdict.certificate)}")
    if report.extracted is not None:
        for j in range(inst.parts):
            members = [
                str(i) for i, p in enumerate(report.extracted.assignment) if p == j
            ]
            lines.append(f"extracted_part{j}={','.join(members)}")
    if report.extraction_valid is not None:
        lines.append(
            f"extraction={'valid' if report.extraction_valid else 'invalid'}"
        )
    return "\n".join(lines) + "\n"
