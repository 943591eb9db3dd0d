"""Command surface: exit codes, output channels, determinism."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from support import (
    SOLVER_HARD_INSTANCE,
    benchmark_corpus,
    divisibility_no_instance,
    many_needy_classes,
    many_repairs,
    wide_tree,
)
from uftree import cli, forest, recognize, reduction, tree
from uftree.cli import main
from uftree.forest import random_uf_tree
from uftree.recognize import check_certificate, parse_certificate
from uftree.reduction import format_instance, make_flat_tree, parse_instance
from uftree.tree import parse_tree, serialize_tree, singleton


def assert_one_usage_line(capsys, option):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("uftree: ") and option in lines[0]


def write_tree(tmp_path, tree, name="input.tree"):
    path = tmp_path / name
    path.write_text(serialize_tree(tree))
    return str(path)


@pytest.fixture
def flat_tree_file(tmp_path):
    flat = make_flat_tree(parse_instance("1,2,3,4,4;2"))
    return write_tree(tmp_path, flat.tree), flat


class TestCheck:
    def test_flat_tree_accepted(self, flat_tree_file):
        path, _ = flat_tree_file
        assert main(["check", path]) == 0

    def test_apple_rejected(self, tmp_path):
        from uftree.reduction import make_apple

        path = write_tree(tmp_path, make_apple(2))
        assert main(["check", path, "--mode", "union-find"]) == 1

    def test_union_mode(self, tmp_path):
        path = write_tree(tmp_path, singleton())
        assert main(["check", path, "--mode", "union"]) == 0

    def test_certificate_emission_replays(self, flat_tree_file, capsys):
        path, flat = flat_tree_file
        assert main(["check", path, "--emit-certificate"]) == 0
        cert = parse_certificate(capsys.readouterr().out)
        assert check_certificate(flat.tree, cert)
        assert len(cert.steps) <= flat.tree.node_count**2

    def test_union_mode_reaches_each_layer_once(self, tmp_path, monkeypatch):
        # per-layer timings wrap these module globals; a layer reached some
        # other way would read zero
        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for module, name in ((cli, "parse_tree"), (tree, "validate"), (recognize, "is_union_tree")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        path = write_tree(tmp_path, random_uf_tree(300, 0, collapse_prob=0.0))
        assert main(["check", path, "--mode", "union"]) == 0
        assert sorted(calls) == ["is_union_tree", "parse_tree", "validate"]

    def test_parse_error_is_usage(self, tmp_path):
        path = tmp_path / "bad.tree"
        path.write_text("not a tree\n")
        assert main(["check", str(path)]) == 2

    def test_invalid_tree_is_usage(self, tmp_path):
        path = tmp_path / "bad.tree"
        path.write_text("2\n0 -1 0\n1 0 1\n")
        assert main(["check", str(path)]) == 2

    def test_node_id_minus_one_is_a_format_error(self, tmp_path, capsys):
        # a parent field of -1 always means "no parent", so no node could
        # sit below a node with id -1; -2 is an ordinary id
        path = tmp_path / "minus-one.tree"
        path.write_text("3\n-1 -1 2\n0 -1 1\n1 0 0\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2: node id -1 is reserved" in err
        path.write_text("3\n-2 -1 2\n0 -2 1\n1 0 0\n")
        assert main(["check", str(path)]) == 1  # parsed, then too small for rank 2
        assert "union-find: filter-prop4" in capsys.readouterr().err

    def test_missing_file_is_usage(self):
        assert main(["check", "/nonexistent/file.tree"]) == 2

    def test_node_cap_exceeded(self, tmp_path, flat_tree_file):
        path, _ = flat_tree_file
        assert main(["--max-nodes", "10", "check", path]) == 3

    def test_budget_exhaustion_exit(self, flat_tree_file):
        path, _ = flat_tree_file
        assert main(["check", path, "--budget", "1"]) == 3

    def test_negative_budget_is_usage(self, flat_tree_file, capsys):
        path, _ = flat_tree_file
        assert main(["check", path, "--budget", "-1"]) == 2
        assert_one_usage_line(capsys, "--budget")

    def test_zero_budget_is_valid(self, tmp_path, flat_tree_file):
        path, _ = flat_tree_file
        assert main(["check", path, "--budget", "0"]) == 3
        assert main(["check", write_tree(tmp_path, singleton()), "--budget", "0"]) == 0

    def test_an_engine_tree_is_accepted_at_zero_budget(self, tmp_path, capsys):
        # the donor rule accepts it before the search, which spends no tick
        t = random_uf_tree(800, 0)
        argv = ["check", write_tree(tmp_path, t), "--budget", "0", "--emit-certificate"]
        assert main(argv) == 0
        assert check_certificate(t, parse_certificate(capsys.readouterr().out))

    def test_partition_gadgets_still_exhaust_a_zero_budget(self, tmp_path, monkeypatch):
        # the donor rule declines every seed-0 gadget-yes tree, so the search
        # runs and its first tick exhausts the budget
        instances = benchmark_corpus(tmp_path, monkeypatch)
        gadgets = [inst for inst in instances if inst.flat and inst.known]
        assert len(gadgets) == 18
        for inst in gadgets:
            assert main(["check", str(inst.path), "--budget", "0"]) == 3, inst.id

    def test_a_large_op_log_export_is_accepted(self, tmp_path, capsys):
        # a 19,666-node tree that the search alone left exhausted at 20,000
        trees = forest.export_trees(forest.replay(forest.random_oplog(20_000, 60_000, 1)))
        t = max((e.tree for e in trees), key=lambda t: t.node_count)
        argv = ["check", write_tree(tmp_path, t), "--budget", "20000", "--emit-certificate"]
        assert main(argv) == 0
        assert check_certificate(t, parse_certificate(capsys.readouterr().out))

    @pytest.mark.parametrize("k", [1200, 49_980])
    def test_wide_trees_accepted_up_to_the_parse_cap(self, tmp_path, capsys, k):
        # a stack frame per rank-1 child would overflow at k=1200; k=49,980
        # gives 99,993 nodes, just under the default cap
        t = wide_tree(k)
        assert main(["check", write_tree(tmp_path, t), "--emit-certificate"]) == 0
        cert = parse_certificate(capsys.readouterr().out)
        assert len(cert) == 1 and check_certificate(t, cert)

    def test_many_repair_sites_accepted(self, tmp_path, capsys):
        # a stack frame per target that receives would overflow here: exit 3
        t = many_repairs(1200)
        assert main(["check", write_tree(tmp_path, t), "--emit-certificate"]) == 0
        cert = parse_certificate(capsys.readouterr().out)
        assert len(cert) == 1200 and check_certificate(t, cert)

    def test_many_needy_classes_accepted(self, tmp_path, capsys):
        # a stack frame per needy class would overflow here: exit 3
        t = many_needy_classes(1000)
        assert main(["check", write_tree(tmp_path, t), "--emit-certificate"]) == 0
        cert = parse_certificate(capsys.readouterr().out)
        assert len(cert) == 1000 and check_certificate(t, cert)

    def test_recursion_limit_is_not_a_rejection(self, flat_tree_file, capsys, monkeypatch):
        from uftree import recognize

        def overflow(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(recognize, "is_union_find_tree", overflow)
        path, _ = flat_tree_file
        assert main(["check", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("uftree: ") and err.count("\n") == 1


class TestReductionCommands:
    def test_solve_positive(self, capsys):
        assert main(["solve", "1,2,3,4,4;2"]) == 0
        out = capsys.readouterr().out
        assert "part0=" in out and "part1=" in out

    def test_solve_negative(self):
        assert main(["solve", "1,1,4;2"]) == 1

    def test_solve_bad_format(self):
        assert main(["solve", "1,2,3"]) == 2

    def test_solve_past_the_state_cap_is_a_resource_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(reduction, "SOLVER_STATE_CAP", 20_000)
        assert main(["solve", SOLVER_HARD_INSTANCE]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "uftree: solver is capped at 20000 failed states\n"

    def test_reduce_writes_flat_tree(self, tmp_path, capsys):
        out_file = tmp_path / "flat.tree"
        assert main(["reduce", "1,2,3,4,4;2", "-o", str(out_file)]) == 0
        tree = parse_tree(out_file.read_text())
        assert tree.node_count == 54

    def test_reduce_stdout(self, capsys):
        assert main(["reduce", "2,2;2"]) == 0
        tree = parse_tree(capsys.readouterr().out)
        assert tree.root_rank == 4

    def test_reduce_above_the_parse_cap_is_a_resource_limit(self, capsys, monkeypatch):
        # 600,020 nodes, which `check` would refuse to parse; none is built
        def unbuilt(inst):
            raise AssertionError("make_flat_tree was called")

        monkeypatch.setattr(reduction, "make_flat_tree", unbuilt)
        assert main(["reduce", "150000,150000;2"]) == 3
        assert "600020 nodes, cap is 100000" in capsys.readouterr().err

    @pytest.mark.parametrize("cap, code", [(24, 0), (23, 3)])
    def test_reduce_takes_the_node_cap_of_check(self, tmp_path, cap, code):
        # "1,1;2" compiles to exactly 24 nodes
        out_file = tmp_path / "flat.tree"
        assert main(["--max-nodes", str(cap), "reduce", "1,1;2", "-o", str(out_file)]) == code
        assert out_file.exists() == (code == 0)
        if code == 0:
            assert parse_tree(out_file.read_text(), max_nodes=cap).node_count == cap

    def test_a_reduced_divisibility_no_gadget_is_refuted_within_its_budget(self, tmp_path):
        # 40 weights, ~12,000 nodes: negative by construction, exit 1
        out_file = tmp_path / "flat.tree"
        text = format_instance(divisibility_no_instance(0))
        assert main(["reduce", text, "-o", str(out_file)]) == 0
        assert main(["check", str(out_file), "--budget", "20000"]) == 1

    def test_verify_agreement(self, capsys):
        assert main(["verify", "1,2,3,4,4;2"]) == 0
        out = capsys.readouterr().out
        assert "agree=true" in out
        assert "extraction=valid" in out

    def test_verify_negative_agreement(self, capsys):
        assert main(["verify", "1,1,4;2"]) == 0
        assert "agree=true" in capsys.readouterr().out

    @pytest.mark.parametrize("instance", ["250,250;2", "10000000,10000000;2"])
    def test_verify_above_the_node_cap_is_a_resource_limit(self, capsys, instance):
        # the second gadget would have ~4e7 nodes; the cap fires before it is built
        assert main(["verify", instance]) == 3
        assert "cap is 500" in capsys.readouterr().err


class TestGen:
    def test_gen_then_check(self, tmp_path):
        out = tmp_path / "gen.tree"
        assert main(["gen", "uf", "-n", "1", "--seed", "3", "-o", str(out)]) == 0
        assert main(["check", str(out)]) == 0

    def test_gen_union_mode(self, tmp_path):
        out = tmp_path / "u.tree"
        assert main(["gen", "union", "-n", "20", "--seed", "5", "-o", str(out)]) == 0
        assert main(["check", str(out), "--mode", "union"]) == 0

    def test_gen_deterministic(self, capsys):
        assert main(["gen", "uf", "-n", "25", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "uf", "-n", "25", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("UFTREE_SEED", "42")
        assert main(["gen", "uf", "-n", "12"]) == 0
        via_env = capsys.readouterr().out
        assert main(["gen", "uf", "-n", "12", "--seed", "42"]) == 0
        assert capsys.readouterr().out == via_env

    def test_malformed_seed_env_is_usage(self, capsys, monkeypatch):
        monkeypatch.setenv("UFTREE_SEED", "abc")
        assert main(["gen", "uf", "-n", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("uftree:") and "UFTREE_SEED" in lines[0]

    @pytest.mark.parametrize("cap, code", [(50, 0), (49, 3)])
    def test_gen_takes_the_node_cap_of_check(self, tmp_path, cap, code):
        out_file = tmp_path / "gen.tree"
        capped = ["--max-nodes", str(cap)]
        assert main(capped + ["gen", "uf", "-n", "50", "-o", str(out_file)]) == code
        assert out_file.exists() == (code == 0)
        if code == 0:
            assert main(capped + ["check", str(out_file)]) == 0

    def test_gen_above_the_parse_cap_is_a_resource_limit(self, capsys, monkeypatch):
        # `check` would refuse the file; nothing is drawn
        def undrawn(*args, **kwargs):
            raise AssertionError("random_uf_tree was called")

        monkeypatch.setattr(forest, "random_uf_tree", undrawn)
        assert main(["gen", "uf", "-n", "200000"]) == 3
        assert capsys.readouterr().err == "uftree: tree has 200000 nodes, cap is 100000\n"

    def test_gen_mutant(self, tmp_path, capsys):
        assert main(["gen", "mutant", "-n", "14", "--seed", "2"]) == 0
        tree = parse_tree(capsys.readouterr().out)
        assert tree.node_count == 14

    @pytest.mark.parametrize("kind", ["uf", "mutant"])
    def test_gen_prints_the_library_tree_at_its_defaults(self, capsys, kind):
        assert main(["gen", kind, "-n", "40", "--seed", "7"]) == 0
        t = random_uf_tree(40, 7)
        expected = serialize_tree(t if kind == "uf" else forest.mutate(t, 7))
        assert capsys.readouterr().out == expected


class TestOracleAndDot:
    def test_oracle_small_tree(self, tmp_path, capsys):
        path = write_tree(tmp_path, parse_tree("3\n0 -1 2\n1 0 1\n2 1 0\n"))
        assert main(["oracle", path]) == 1

    def test_oracle_accepts_singleton(self, tmp_path):
        path = write_tree(tmp_path, singleton())
        assert main(["oracle", path]) == 0

    def test_oracle_cap(self, tmp_path, flat_tree_file):
        path, _ = flat_tree_file
        assert main(["oracle", path]) == 3

    def test_oracle_cap_override(self, tmp_path):
        path = write_tree(tmp_path, random_uf_tree(12, seed=1))
        assert main(["--max-nodes", "12", "oracle", path]) == 0

    def test_dot_singleton(self, tmp_path, capsys):
        path = write_tree(tmp_path, singleton())
        assert main(["dot", path]) == 0
        assert '"0:0"' in capsys.readouterr().out


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_node_cap_below_one_is_usage(self, flat_tree_file, capsys, cap):
        path, _ = flat_tree_file
        assert main(["--max-nodes", cap, "check", path]) == 2
        assert_one_usage_line(capsys, "--max-nodes")

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2


class TestParserReuse:
    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            if kwargs.get("prog") == "uftree":  # subcommand parsers are named "uftree <command>"
                built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        path = write_tree(tmp_path, singleton())
        for _ in range(50):
            assert main(["check", path]) == 0
        assert len(built) == 1

    def test_no_option_outlives_its_call(self, tmp_path, monkeypatch, capsys):
        budgets = []
        decide = recognize.is_union_find_tree

        def recorded(t, budget=None):
            budgets.append(budget)
            return decide(t, budget=budget)

        monkeypatch.setattr(recognize, "is_union_find_tree", recorded)
        path = write_tree(tmp_path, singleton())
        assert main(["check", path, "--budget", "5"]) == 0
        assert main(["check", path]) == 0
        assert budgets == [5, None]
        assert main(["check", path, "--mode", "union"]) == 0
        capsys.readouterr()
        assert main(["check", path]) == 0
        assert capsys.readouterr().err == "union-find: union-tree\n"

    @pytest.mark.parametrize("argv", [["check"], ["frobnicate"], ["check", "x", "--budget", "a"]])
    def test_a_usage_error_leaves_the_parser_usable(self, tmp_path, argv):
        assert main(argv) == 2
        assert main(["check", write_tree(tmp_path, singleton())]) == 0


class TestOneShotProcess:
    # the exit-code contract of `python -m uftree.cli`, one process per call
    def run(self, *args):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "uftree.cli", *args],
            env=env, capture_output=True, text=True, timeout=60,
        )

    def test_accepted_with_a_certificate_that_replays(self, flat_tree_file):
        path, flat = flat_tree_file
        result = self.run("check", path, "--emit-certificate")
        assert result.returncode == 0, result.stderr
        assert result.stderr == "union-find: certificate\n"
        assert check_certificate(flat.tree, parse_certificate(result.stdout))

    def test_rejected(self, tmp_path):
        from uftree.reduction import make_apple

        result = self.run("check", write_tree(tmp_path, make_apple(2)))
        assert result.returncode == 1, result.stderr
        assert result.stdout == ""

    def test_malformed_file_is_usage(self, tmp_path):
        path = tmp_path / "bad.tree"
        path.write_text("not a tree\n")
        result = self.run("check", str(path))
        assert result.returncode == 2
        assert result.stderr.startswith("uftree: ")

    def test_zero_budget_is_a_resource_limit(self, flat_tree_file):
        path, _ = flat_tree_file
        result = self.run("check", path, "--budget", "0")
        assert result.returncode == 3
        assert result.stderr == "union-find: search-exhausted\n"
