"""Known-answer corpora for the uftree benchmark, and the timed steps over each.

Every recognition instance goes through the public command line,
``uftree.cli.main(["check", FILE, ...])``, from file read to exit code, in
this process and thread, one instance after the other (a closed loop).
Each instance carries a known answer that does not come from the
recognizer: engine-built trees are positive by construction, Partition
gadgets are classified by ``solve_partition``, and the forest log's union
verdict is checked against the definition of a Union tree.

The instance *shapes* of ``engine-positives`` and the gadget workloads are
fixed in this file; the run seed draws an isomorphic relabelling of every
tree (node ids, hence file bytes and certificates) and the order of each
gadget's weights.  Recognition canonicalizes before it searches, so every
seed does the same search work.  With seed-drawn shapes, the share of
instances that exhaust the budget moved the median by 25-45% between
seeds on a shared 2-core machine, far more than the regressions the
benchmark must catch.  The forest log is drawn from the seed outright,
because its 300,000 operations average the shape out.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "uftree" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no uftree sources under {SRC}")
sys.path.insert(0, str(SRC))

from uftree import cli, forest, recognize, reduction, tree  # noqa: E402
from uftree.errors import FormatError  # noqa: E402

BUDGET = 20_000  # the `uftree bench` default, fixed so decided shares repeat

ACCEPTED, REJECTED, UNDECIDED, FAILED = "accepted", "rejected", "undecided", "failed"
_VERDICT_OF_EXIT = {
    cli.EXIT_ACCEPTED: ACCEPTED,
    cli.EXIT_REJECTED: REJECTED,
    cli.EXIT_CAP: UNDECIDED,
}

# engine-positives: deep merge/collapse trees, shallow forest exports, and
# wide trees at sizes the recognizer survives
# random_uf_tree seeds per size: 21 of these 32 are decided at 20k ticks,
# and with the other instances there are enough for a tail above the median
UF_SEEDS = {n: range(8) for n in (100, 200, 400, 800)}
LOG_SIZES = (500, 1000, 2000)
LOG_SEED = 1  # two decided at 20k ticks, n=2000 exhausts the budget
WIDE_KS = (200, 900)
# known-defects: at k=1200 the wide tree overflows the default recursion
# limit, one frame per placement target; kept apart because it fails
DEFECT_WIDE_KS = (1200,)

# gadget workloads: k-way Partition draws, and two fixed tail probes
GADGET_DRAW_SEED = 0
GADGET_COUNT = 16
GADGET_PROBES = ("9,8,7,6,5,4,3,2,2,2;3", "1,2,3,4,4;2")

# forest-log: near the 100,000-node parse cap for the largest tree
LOG_ELEMENTS = 100_000
LOG_OPS = 300_000
# union checks of the largest tree per pipeline pass: one pass takes about
# 1.5 s, and one check per pass left a run's median on about ten checks
UNION_CHECKS = 3


@dataclass
class Instance:
    """One tree file with its known answer."""

    id: str
    path: Path
    tree: tree.RankedTree
    known: bool  # is a Union-Find tree (a Union tree in union mode)
    mode: str = "union-find"
    flat: reduction.FlatTree | None = None
    partition: reduction.PartitionInstance | None = None


@dataclass
class Outcome:
    """What one `check` did, and what the harness found on replaying it."""

    id: str
    known: bool
    verdict: str
    seconds: float
    exit: int | None = None
    error: str | None = None
    cert_steps: int | None = None
    cert_ok: bool | None = None
    extraction_ok: bool | None = None


@dataclass
class Corpus:
    instances: list[Instance] = field(default_factory=list)
    log_path: Path | None = None


@dataclass
class StepResult:
    """One timed step of a workload: one instance's check and its replay,
    or one forest-log pipeline with its union checks."""

    seconds: float
    outcomes: list[Outcome]
    extras: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    scale: float = 1.0  # brings its times to the reference speed


def run_check(inst: Instance) -> Outcome:
    """Run `uftree check` on one instance and replay what it printed."""
    argv = ["check", str(inst.path)]
    if inst.mode == "union":
        argv += ["--mode", "union"]
    else:
        argv += ["--budget", str(BUDGET), "--emit-certificate"]
    out = io.StringIO()
    # A `uftree check` process starts with an empty heap.  Freezing the
    # harness's objects keeps the collector inside the check from scanning
    # them; unfrozen, they made the forest-log check 1.5x slower at random.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
    except Exception as exc:  # a crash is a failed operation; the run goes on
        seconds = time.perf_counter() - start
        return Outcome(inst.id, inst.known, FAILED, seconds, error=type(exc).__name__)
    finally:
        gc.unfreeze()
    outcome = Outcome(inst.id, inst.known, _VERDICT_OF_EXIT.get(code, FAILED), seconds, exit=code)
    if outcome.verdict == ACCEPTED and inst.mode == "union-find":
        try:
            cert = recognize.parse_certificate(out.getvalue())
        except FormatError:
            outcome.cert_ok = False
            return outcome
        outcome.cert_steps = len(cert)
        outcome.cert_ok = recognize.check_certificate(inst.tree, cert)
        if inst.flat is not None:
            solution = reduction.extract_solution(inst.flat, cert)
            outcome.extraction_ok = solution is not None and reduction.is_valid_solution(
                inst.partition, solution
            )
    return outcome


def problems_of(outcome: Outcome) -> list[str]:
    """Correctness violations in one outcome; a crash is not one of them."""
    found = []
    if outcome.verdict in (ACCEPTED, REJECTED) and (outcome.verdict == ACCEPTED) != outcome.known:
        expected = ACCEPTED if outcome.known else REJECTED
        found.append(f"{outcome.id}: verdict {outcome.verdict}, known answer {expected}")
    if outcome.cert_ok is False:
        found.append(f"{outcome.id}: certificate does not replay")
    if outcome.extraction_ok is False:
        found.append(f"{outcome.id}: certificate is not a valid partition")
    return found


def check_step(inst: Instance) -> StepResult:
    start = time.perf_counter()
    outcome = run_check(inst)
    return StepResult(time.perf_counter() - start, [outcome], problems=problems_of(outcome))


def check_steps(corpus: Corpus, workdir: Path) -> list:
    return [functools.partial(check_step, inst) for inst in corpus.instances]


def forest_step(corpus: Corpus, workdir: Path) -> StepResult:
    """Op log text -> trees -> largest tree file -> union check -> every tree."""
    path = workdir / "forest-largest.tree"
    path.unlink(missing_ok=True)  # write a new file, not truncate the last pass's
    start = time.perf_counter()
    log = forest.parse_oplog(corpus.log_path.read_text(encoding="utf-8"))
    built = forest.replay(log)
    trees = forest.export_trees(built)
    log_to_trees = time.perf_counter() - start
    largest = max(trees, key=lambda e: e.tree.node_count).tree
    path.write_text(tree.serialize_tree(largest), encoding="utf-8")
    inst = Instance("forest-largest", path, largest, known=False, mode="union")
    outcomes = [run_check(inst) for _ in range(UNION_CHECKS)]
    union_flags = [recognize.is_union_tree(e.tree) for e in trees]
    seconds = time.perf_counter() - start

    known = is_union_by_definition(largest)
    result = StepResult(seconds, outcomes)
    for outcome in outcomes:
        outcome.known = known
        result.problems += problems_of(outcome)
    result.extras = {
        "log_to_trees_s": log_to_trees,
        "union_check_s": statistics.median(o.seconds for o in outcomes),
    }
    if sum(e.tree.node_count for e in trees) != built.element_count:
        result.problems.append("forest-log: exported trees do not cover every element")
    wrong = sum(flag != is_union_by_definition(e.tree) for flag, e in zip(union_flags, trees))
    if wrong:
        result.problems.append(f"forest-log: is_union_tree wrong on {wrong} exported trees")
    return result


def forest_steps(corpus: Corpus, workdir: Path) -> list:
    return [functools.partial(forest_step, corpus, workdir)]


def is_union_by_definition(t: tree.RankedTree) -> bool:
    """Reference: every node's child ranks are exactly {0, ..., rank-1}."""
    child_ranks: list[set[int]] = [set() for _ in t.parent]
    for c, p in enumerate(t.parent):
        if p != tree.NO_PARENT:
            child_ranks[p].add(t.rank[c])
    return all(ranks == set(range(r)) for ranks, r in zip(child_ranks, t.rank))


def relabel(t: tree.RankedTree, rng: random.Random) -> tuple[tree.RankedTree, list[int]]:
    """An isomorphic copy with shuffled node ids; ``new_id[old]`` maps them."""
    n = t.node_count
    new_id = list(range(n))
    rng.shuffle(new_id)
    parent = [0] * n
    rank = [0] * n
    for old, p in enumerate(t.parent):
        parent[new_id[old]] = tree.NO_PARENT if p == tree.NO_PARENT else new_id[p]
        rank[new_id[old]] = t.rank[old]
    return tree.RankedTree(tuple(parent), tuple(rank)), new_id


def wide_tree(k: int) -> tree.RankedTree:
    """Rank-3 root over 30 leaves, k rank-1 children each over a leaf, and
    one rank-2 child over a leaf (2,433 nodes at k=1200)."""
    parent = [tree.NO_PARENT]
    rank = [3]

    def add(r: int, p: int) -> int:
        parent.append(p)
        rank.append(r)
        return len(parent) - 1

    for _ in range(30):
        add(0, 0)
    for _ in range(k):
        add(0, add(1, 0))
    add(0, add(2, 0))
    return tree.RankedTree(tuple(parent), tuple(rank))


def largest_exported(n: int, seed: int) -> tree.RankedTree:
    trees = forest.export_trees(forest.replay(forest.random_oplog(n, 3 * n, seed)))
    return max(trees, key=lambda e: e.tree.node_count).tree


def write_instance(workdir: Path, inst_id: str, t: tree.RankedTree, known: bool, **kw) -> Instance:
    path = workdir / f"{inst_id}.tree"
    path.write_text(tree.serialize_tree(t), encoding="utf-8")
    return Instance(inst_id, path, t, known, **kw)


def engine_setup(seed: int, workdir: Path, uf_seeds=UF_SEEDS, log_sizes=LOG_SIZES,
                 wide_ks=WIDE_KS) -> Corpus:
    rng = random.Random(seed)
    # seed-major order spreads each size over the pass, so that one slow
    # stretch of a shared machine does not hit every instance near the
    # median at once
    uf = sorted(((n, s) for n, seeds in uf_seeds.items() for s in seeds), key=lambda ns: ns[1])
    shapes = [(f"uf-n{n}-s{s}", forest.random_uf_tree(n, s)) for n, s in uf]
    shapes += [(f"log-n{n}", largest_exported(n, LOG_SEED)) for n in log_sizes]
    shapes += [(f"wide-k{k}", wide_tree(k)) for k in wide_ks]
    return Corpus([
        write_instance(workdir, inst_id, relabel(t, rng)[0], known=True)
        for inst_id, t in shapes
    ])


def defect_setup(seed: int, workdir: Path) -> Corpus:
    return Corpus([
        write_instance(workdir, f"wide-k{k}", wide_tree(k), known=True) for k in DEFECT_WIDE_KS
    ])


def partition_draws():
    """Endless k-way Partition instances: k in {2,3,4}, 5-8 weights of 1-9."""
    rng = random.Random(GADGET_DRAW_SEED)
    while True:
        parts = rng.choice((2, 3, 4))
        weights = tuple(rng.randint(1, 9) for _ in range(rng.randint(5, 8)))
        if sum(weights) % parts == 0:
            yield reduction.PartitionInstance(weights, parts)


def gadget_instance(workdir: Path, inst_id: str, inst: reduction.PartitionInstance,
                    known: bool, rng: random.Random | None) -> Instance:
    flat = reduction.make_flat_tree(inst)
    if rng is not None:
        t, new_id = relabel(flat.tree, rng)
        flat = reduction.FlatTree(
            t,
            tuple(new_id[x] for x in flat.apple_roots),
            tuple(new_id[x] for x in flat.basket_roots),
        )
    return write_instance(workdir, inst_id, flat.tree, known, flat=flat, partition=inst)


def gadget_setup(seed: int, workdir: Path, solvable: bool, count: int = GADGET_COUNT,
                 probes=GADGET_PROBES) -> Corpus:
    """`count` drawn instances that `solve_partition` classifies as `solvable`,
    then (for the solvable side) the fixed probes, which the seed leaves alone."""
    rng = random.Random(seed)
    corpus = Corpus()
    for i, drawn in enumerate(partition_draws()):
        if len(corpus.instances) == count:
            break
        if (reduction.solve_partition(drawn) is not None) != solvable:
            continue
        weights = list(drawn.weights)
        rng.shuffle(weights)
        shuffled = reduction.PartitionInstance(tuple(weights), drawn.parts)
        corpus.instances.append(gadget_instance(workdir, f"draw{i}", shuffled, solvable, rng))
    if solvable:
        for j, text in enumerate(probes):
            probe = reduction.parse_instance(text)
            known = reduction.solve_partition(probe) is not None
            corpus.instances.append(gadget_instance(workdir, f"probe{j}", probe, known, None))
    return corpus


def forest_setup(seed: int, workdir: Path, elements: int = LOG_ELEMENTS,
                 ops: int = LOG_OPS) -> Corpus:
    path = workdir / "forest.log"
    path.write_text(forest.format_oplog(forest.random_oplog(elements, ops, seed)),
                    encoding="utf-8")
    return Corpus(log_path=path)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object  # (seed, workdir) -> Corpus
    steps: object  # (corpus, workdir) -> the steps of one pass, each () -> StepResult
    listed: bool = True  # in BENCHMARK.json; an unlisted workload runs only under --report


WORKLOADS = {
    w.name: w
    for w in (
        Workload("engine-positives", engine_setup, check_steps),
        Workload("gadget-yes", lambda seed, wd: gadget_setup(seed, wd, True), check_steps),
        Workload("gadget-no", lambda seed, wd: gadget_setup(seed, wd, False), check_steps),
        Workload("forest-log", forest_setup, forest_steps),
        Workload("known-defects", defect_setup, check_steps, listed=False),
    )
}
