"""Command surface: exit codes, output channels, determinism."""

import pytest

from support import many_repairs, wide_tree
from uftree.cli import main
from uftree.recognize import check_certificate, parse_certificate
from uftree.reduction import make_flat_tree, parse_instance
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

    def test_parse_error_is_usage(self, tmp_path):
        path = tmp_path / "bad.tree"
        path.write_text("not a tree\n")
        assert main(["check", str(path)]) == 2

    def test_invalid_tree_is_usage(self, tmp_path):
        path = tmp_path / "bad.tree"
        path.write_text("2\n0 -1 0\n1 0 1\n")
        assert main(["check", str(path)]) == 2

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

    def test_reduce_writes_flat_tree(self, tmp_path, capsys):
        out_file = tmp_path / "flat.tree"
        assert main(["reduce", "1,2,3,4,4;2", "-o", str(out_file)]) == 0
        tree = parse_tree(out_file.read_text())
        assert tree.node_count == 54

    def test_reduce_stdout(self, capsys):
        assert main(["reduce", "2,2;2"]) == 0
        tree = parse_tree(capsys.readouterr().out)
        assert tree.root_rank == 4

    def test_verify_agreement(self, capsys):
        assert main(["verify", "1,2,3,4,4;2"]) == 0
        out = capsys.readouterr().out
        assert "agree=true" in out
        assert "extraction=valid" in out

    def test_verify_negative_agreement(self, capsys):
        assert main(["verify", "1,1,4;2"]) == 0
        assert "agree=true" in capsys.readouterr().out


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

    def test_gen_mutant(self, tmp_path, capsys):
        assert main(["gen", "mutant", "-n", "14", "--seed", "2"]) == 0
        tree = parse_tree(capsys.readouterr().out)
        assert tree.node_count == 14


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
        from uftree.forest import random_uf_tree

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
