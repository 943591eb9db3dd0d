"""Batch command-line surface over parsing, recognition, reduction, and generation.

Exit codes are the machine contract: 0 accepted/solved/agreeing, 1 rejected
or unsolvable, 2 malformed input or usage, 3 a resource cap was exceeded.
Data goes to stdout, diagnostics to stderr; nothing is interactive.  The
environment variable ``UFTREE_SEED`` supplies the default seed; a value
that is not an integer is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import forest, recognize, reduction
from .errors import CapExceeded, FormatError, InvalidTreeError
from .tree import RankedTree, export_dot, parse_tree, serialize_tree

EXIT_ACCEPTED = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_CAP = 3

PARSE_NODE_CAP = 100_000
DEFAULT_COLLAPSE_PROB = 0.25


def _default_seed() -> int:
    value = os.environ.get("UFTREE_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"UFTREE_SEED must be an integer, got {value!r}") from None


def _load_tree(path: str, max_nodes: int | None) -> RankedTree:
    cap = max_nodes if max_nodes is not None else PARSE_NODE_CAP
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_tree(text, max_nodes=cap)


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_check(args: argparse.Namespace) -> int:
    if args.budget is not None and args.budget < 0:
        raise ValueError(f"--budget must be at least 0, got {args.budget}")
    tree = _load_tree(args.file, args.max_nodes)
    if args.mode == "union":
        ok = recognize.is_union_tree(tree)
        print(f"union: {'accepted' if ok else 'rejected'}", file=sys.stderr)
        return EXIT_ACCEPTED if ok else EXIT_REJECTED
    verdict = recognize.is_union_find_tree(tree, budget=args.budget)
    print(f"union-find: {verdict.reason}", file=sys.stderr)
    if verdict.reason == recognize.REASON_BUDGET:
        return EXIT_CAP
    if verdict.accepted and args.emit_certificate:
        cert = verdict.certificate or recognize.Certificate(())
        sys.stdout.write(recognize.format_certificate(cert))
    return EXIT_ACCEPTED if verdict.accepted else EXIT_REJECTED


def cmd_reduce(args: argparse.Namespace) -> int:
    inst = reduction.parse_instance(args.instance)
    flat = reduction.make_flat_tree(inst)
    _write_output(serialize_tree(flat.tree), args.output)
    return EXIT_ACCEPTED


def cmd_solve(args: argparse.Namespace) -> int:
    inst = reduction.parse_instance(args.instance)
    solution = reduction.solve_partition(inst)
    if solution is None:
        print("unsolvable", file=sys.stderr)
        return EXIT_REJECTED
    for j in range(inst.parts):
        members = [str(w) for w, p in zip(inst.weights, solution.assignment) if p == j]
        sys.stdout.write(f"part{j}={'+'.join(members)}\n")
    return EXIT_ACCEPTED


def cmd_verify(args: argparse.Namespace) -> int:
    inst = reduction.parse_instance(args.instance)
    report = reduction.verify_reduction(inst)
    sys.stdout.write(reduction.format_report(report))
    return EXIT_ACCEPTED if report.agree else EXIT_REJECTED


def cmd_gen(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.kind == "union":
        tree = forest.random_uf_tree(args.nodes, seed, collapse_prob=0.0)
    elif args.kind == "uf":
        tree = forest.random_uf_tree(args.nodes, seed, DEFAULT_COLLAPSE_PROB)
    else:
        tree = forest.mutate(
            forest.random_uf_tree(args.nodes, seed, DEFAULT_COLLAPSE_PROB), seed
        )
    _write_output(serialize_tree(tree), args.output)
    return EXIT_ACCEPTED


def cmd_oracle(args: argparse.Namespace) -> int:
    cap = args.max_nodes if args.max_nodes is not None else recognize.ORACLE_NODE_CAP
    tree = _load_tree(args.file, cap)
    ok = recognize.brute_force_is_uf(tree, max_nodes=cap)
    print(f"oracle: {'accepted' if ok else 'rejected'}", file=sys.stderr)
    return EXIT_ACCEPTED if ok else EXIT_REJECTED


def cmd_dot(args: argparse.Namespace) -> int:
    tree = _load_tree(args.file, args.max_nodes)
    _write_output(export_dot(tree), args.output)
    return EXIT_ACCEPTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uftree",
        description="Ranked-tree toolkit: recognize merge/compress histories, "
        "compile Partition instances to trees, generate test corpora.",
    )
    parser.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        help="node cap for parsing (default 100000) and the oracle (default 10)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="recognize a tree file")
    p.add_argument("file")
    p.add_argument("--mode", choices=["union", "union-find"], default="union-find")
    p.add_argument(
        "--emit-certificate",
        action="store_true",
        help="on acceptance, write the replayable push certificate to stdout",
    )
    p.add_argument("--budget", type=int, default=None, help="search step limit")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reduce", help="compile a Partition instance to a flat tree")
    p.add_argument("instance", help="format: a1,a2,...;k")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("solve", help="solve a Partition instance by brute force")
    p.add_argument("instance")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="cross-check solver and recognizer verdicts")
    p.add_argument("instance")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a tree deterministically from a seed")
    p.add_argument("kind", choices=["uf", "union", "mutant"])
    p.add_argument("-n", "--nodes", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", help="run the brute-force push search on a tree file")
    p.add_argument("file")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("dot", help="export a tree file as DOT")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the contract
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.max_nodes is not None and args.max_nodes < 1:
            raise ValueError(f"--max-nodes must be at least 1, got {args.max_nodes}")
        return args.func(args)
    except CapExceeded as exc:
        print(f"uftree: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (RecursionError, MemoryError) as exc:
        # running out of stack or memory decides nothing, so it must not
        # read as exit 1 (rejected)
        print(f"uftree: resource limit exceeded ({type(exc).__name__})", file=sys.stderr)
        return EXIT_CAP
    except (FormatError, InvalidTreeError, OSError, ValueError) as exc:
        print(f"uftree: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
