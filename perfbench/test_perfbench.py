"""Tests of the benchmark's own code, on corpora small enough to run in seconds.

Run with:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
import workloads
from spans import Tracer, per_layer
from workloads import ACCEPTED, FAILED, Workload, check_steps

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_engine(seed, workdir):
    return workloads.engine_setup(
        seed, workdir, uf_seeds={30: range(3), 60: range(3)}, log_sizes=(60,), wide_ks=(12,)
    )


def tiny_gadgets(seed, workdir):
    return workloads.gadget_setup(seed, workdir, True, count=2, probes=("1,2,3,4,4;2",))


def one_pass(corpus, workdir):
    results = [step() for step in check_steps(corpus, workdir)]
    return [o for r in results for o in r.outcomes], [p for r in results for p in r.problems]


def run_quietly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def test_same_seed_gives_same_verdicts_and_decided_share(tmp_path):
    def verdicts(seed, sub):
        (tmp_path / sub).mkdir()
        outcomes, problems = one_pass(tiny_engine(seed, tmp_path / sub), tmp_path / sub)
        assert not problems
        return [(o.id, o.verdict) for o in outcomes]

    first, again, other = verdicts(7, "a"), verdicts(7, "b"), verdicts(8, "c")
    assert first == again
    assert (tmp_path / "a" / "uf-n30-s0.tree").read_text() == (
        tmp_path / "b" / "uf-n30-s0.tree").read_text()
    # another seed relabels the same shapes: new bytes, same search, same verdicts
    assert (tmp_path / "a" / "uf-n30-s0.tree").read_text() != (
        tmp_path / "c" / "uf-n30-s0.tree").read_text()
    assert first == other
    assert any(v == ACCEPTED for _, v in first)


def test_gadget_certificates_become_valid_partitions(tmp_path):
    outcomes, problems = one_pass(tiny_gadgets(3, tmp_path), tmp_path)
    assert not problems
    accepted = [o for o in outcomes if o.verdict == ACCEPTED]
    assert accepted and all(o.cert_ok and o.extraction_ok for o in accepted)


def test_planted_wrong_known_answer_fails_the_run(tmp_path, monkeypatch):
    def planted(seed, workdir):
        corpus = tiny_engine(seed, workdir)
        corpus.instances[0].known = False  # an engine tree is positive
        return corpus

    monkeypatch.setitem(workloads.WORKLOADS, "planted", Workload("planted", planted, check_steps))
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    code, last = run_quietly(["--workload", "planted", "--seed", "1", "--seconds", "0"])
    assert code == 1
    assert last["correct"] is False and last["metrics"] == {}


def test_certificate_that_does_not_replay_is_caught(tmp_path):
    corpus = tiny_engine(1, tmp_path)
    accepted = [i for i in corpus.instances if workloads.run_check(i).verdict == ACCEPTED]
    victim = next(i for i in accepted if i.tree.node_count == 60)
    # the harness replays against a different tree than the file it wrote
    victim.tree = next(i for i in accepted if i.tree.node_count == 30).tree
    problems = workloads.problems_of(workloads.run_check(victim))
    assert any("does not replay" in p for p in problems)


def test_crash_and_usage_exit_are_failed_operations_and_the_pass_goes_on(tmp_path, monkeypatch):
    corpus = tiny_engine(2, tmp_path)
    corpus.instances[0].path = tmp_path / "missing.tree"  # exit 2 on a valid input
    real_main = workloads.cli.main

    def crash_on_second(argv):
        if argv[1] == str(corpus.instances[1].path):
            raise RecursionError("maximum recursion depth exceeded")
        return real_main(argv)

    monkeypatch.setattr(workloads.cli, "main", crash_on_second)
    outcomes, problems = one_pass(corpus, tmp_path)
    assert [o.verdict for o in outcomes[:2]] == [FAILED, FAILED]
    assert outcomes[1].error == "RecursionError"
    assert all(o.verdict != FAILED for o in outcomes[2:])
    assert not problems


def test_forest_step_checks_union_verdicts(tmp_path):
    corpus = workloads.forest_setup(5, tmp_path, elements=300, ops=900)
    result = workloads.forest_step(corpus, tmp_path)
    assert not result.problems
    assert len(result.outcomes) == workloads.UNION_CHECKS
    assert {o.verdict for o in result.outcomes} <= {ACCEPTED, "rejected"}
    assert set(result.extras) == {"log_to_trees_s", "union_check_s"}


def test_tail_is_highest_percentile_with_ten_instances_beyond():
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(15) == 50.0
    assert run.tail_percentile(3) == 50.0
    values = [float(i) for i in range(1, 42)]  # 41 instances: p75.6, ten beyond it
    assert run.percentile(values, run.tail_percentile(41)) == pytest.approx(31.24, abs=0.01)
    assert sum(v > run.percentile(values, run.tail_percentile(41)) for v in values) == 10
    assert run.percentile(values, 50.0) == 21.0
    assert run.percentile([7.0], 50.0) == 7.0


def test_steps_are_scaled_by_the_reference_job_around_them(monkeypatch):
    # before, between and after the two steps
    monkeypatch.setattr(run, "reference_seconds", iter([0.002, 0.006, 0.004]).__next__)

    def step(inst_id):
        outcome = workloads.Outcome(inst_id, True, ACCEPTED, 0.5)
        return lambda: workloads.StepResult(1.0, [outcome])

    results = run.timed_steps([step("a"), step("b")], 0.0)
    # mean reference 4 ms, as REFERENCE_S, then 5 ms: the host ran 1.25x slower
    assert [r.scale for r in results] == pytest.approx([1.0, 0.8])
    summary = run.summarize(results, 2)
    assert summary["metrics"]["corpus_s"] == pytest.approx(1.8)
    assert summary["extras"]["wall_corpus_s"] == pytest.approx(2.0)
    assert summary["metrics"]["verdict_p50_ms"] == pytest.approx(450.0)
    assert summary["extras"]["wall_verdict_p50_ms"] == pytest.approx(500.0)


def test_tracer_records_layers_and_restores_originals(tmp_path):
    corpus = tiny_gadgets(4, tmp_path)
    originals = (workloads.recognize.canonical_form, workloads.tree.RankedTree.__dict__["child_table"])
    tracer = Tracer()
    tracer.install()
    begin = tracer.mark()
    one_pass(corpus, tmp_path)
    tracer.uninstall()
    totals = tracer.totals(begin, tracer.mark())
    assert (workloads.recognize.canonical_form,
            workloads.tree.RankedTree.__dict__["child_table"]) == originals
    assert totals["cli.main.calls"] == len(corpus.instances)
    assert 0 <= totals["tree.canonical_form.self_s"] <= totals["tree.canonical_form.s"]
    metrics = per_layer(totals, 0.0)
    assert metrics["cli.exit.0"]["value"] + metrics["cli.exit.3"]["value"] == len(corpus.instances)
    assert 0.0 < metrics["recognize.memo.hit_ratio"]["value"] < 1.0
    tracer.write(tmp_path / "spans.jsonl")
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(spans) == len(tracer.start)
    assert {s["instance"] for s in spans} == {i.id for i in corpus.instances}
    assert all(s["parent"] < i and s["start"] <= s["end"] for i, s in enumerate(spans))


def test_traced_run_prints_per_layer_metrics_and_writes_its_spans(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", Workload("tiny", tiny_gadgets, check_steps))
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    code, last = run_quietly(["--workload", "tiny", "--seed", "2", "--seconds", "0", "--trace", "1"])
    assert code == 0 and last["correct"] is True
    assert set(last["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert last["attempted"] == 2 * 3  # one untraced and one traced pass
    spans = (tmp_path / "work" / "spans-tiny.jsonl").read_text().splitlines()
    assert len(spans) > last["metrics"]["tree.canonical_form.calls"]["value"]
    assert {json.loads(line)["name"] for line in spans} >= {"cli.main", "tree.canonical_form"}


def test_verdict_that_changes_between_checks_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", Workload("tiny", tiny_gadgets, check_steps))
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    real_main = workloads.cli.main
    calls = Counter()

    def undecided_on_second_check(argv):
        calls[argv[1]] += 1
        return workloads.cli.EXIT_CAP if calls[argv[1]] == 2 else real_main(argv)

    monkeypatch.setattr(workloads.cli, "main", undecided_on_second_check)
    result = run.run_workload("tiny", 1, 0.0, traced=True)  # two passes
    assert any("differs between checks" in p for p in result["problems"])


def test_compare_fails_only_on_a_flipped_definite_verdict(tmp_path, capsys):
    def write(name, verdict):
        run_record = {"workload": "w", "trace": 0, "seed": 0,
                      "metrics": {"corpus_s": {"value": 1.0, "unit": "s"}},
                      "extras": {"failed_frac": 0.0},
                      "instances": [{"id": "a", "verdict": verdict}]}
        path = tmp_path / name
        path.write_text(json.dumps({"runs": [run_record]}))
        return str(path)

    undecided, accepted, rejected = write("u", "undecided"), write("a", ACCEPTED), write("r", "rejected")
    assert run.compare(undecided, accepted) == 0
    assert run.compare(accepted, rejected) == 1
    assert "flipped" in capsys.readouterr().out


def test_benchmark_json_names_what_the_runs_print():
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        name for name, w in workloads.WORKLOADS.items() if w.listed
    ]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    layer_units = {name: m["unit"] for name, m in per_layer({}, 0.0).items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layer_units
    metric_map = json.loads((HERE / "metric_map.json").read_text())
    assert set(metric_map) - {"_note"} == set(layer_units)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gadget-yes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", ["engine-positives", "gadget-yes", "gadget-no"])
def test_listed_search_workloads_have_undecided_and_decided_instances(name):
    # decided shares strictly between 0 and 1 are what make decided_frac move
    record = json.loads((HERE / "baseline" / "seed0.json").read_text())
    (entry,) = [r for r in record["runs"] if r["workload"] == name]
    verdicts = {i["verdict"] for i in entry["instances"]}
    assert "undecided" in verdicts and verdicts & {ACCEPTED, "rejected"}

