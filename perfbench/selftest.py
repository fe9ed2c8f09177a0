"""The benchmark's own tests, at a tiny size.

    python3 -m pytest -q perfbench/selftest.py

(The file name keeps it out of the repository's default test collection.)
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import summarize  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, roots, self_times  # noqa: E402

TINY = {
    "e1_awake_scale": dataclasses.replace(
        workloads.WORKLOADS["e1_awake_scale"], sizes=(32, 64), warmup_n=16),
    "engines_pregen": dataclasses.replace(
        workloads.WORKLOADS["engines_pregen"], n=300, warmup_n=32, runs_per_pass=1),
    "sweep_tiny_parallel": dataclasses.replace(
        workloads.WORKLOADS["sweep_tiny_parallel"], repetitions=3, warmup_n=16),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Point run.py at the tiny workloads and a scratch output directory."""
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def run_cli(capsys, workload, seed=1, trace=0):
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.01", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    lines, result = run_cli(capsys, workload, trace=trace)
    units = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    env = json.loads(next(line for line in lines if line.startswith("# env "))[6:])
    assert env["seed"] == 1 and env["jobs2_backend"]
    assert {"nproc", "python", "numpy", "networkx"} <= set(env)


def test_planted_non_maximal_set_counts_as_failure(tiny, capsys, monkeypatch):
    import repro.experiments.executor as executor

    honest = executor.run_mis

    def drop_one_member(*args, **kwargs):
        result = honest(*args, **kwargs)
        result.mis.discard(min(result.mis))  # still independent, no longer maximal
        return result

    monkeypatch.setattr(executor, "run_mis", drop_one_member)
    _, result = run_cli(capsys, "e1_awake_scale")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_check_counts_each_bad_output():
    graph = workloads.by_name("gnp", 40, seed=3)
    key = ("gnp", 40, 3)
    good = workloads.run_mis(graph, "luby", seed=1)
    bad_mis = sorted(good.mis)[1:]
    outputs = [workloads.Output(0, "luby", sorted(good.mis), True, key, {}),
               workloads.Output(1, "luby", bad_mis, True, key, {})]
    one = workloads.Pass(label="p", tasks=3, rows_digest="d", outputs=outputs)
    outcome = workloads.check([one])
    assert (outcome.attempted, outcome.failed) == (3, 2)  # one bad MIS + one missing output
    assert not outcome.correct
    # A duplicated result cannot stand in for a missing one.
    twice = workloads.Pass(label="q", tasks=2, rows_digest="d", outputs=outputs[:1] * 2)
    outcome = workloads.check([twice])
    assert outcome.failed == 1 and "two results" in outcome.problems[0]


@pytest.mark.parametrize("workload", list(TINY))
def test_workload_seed_changes_the_inputs(workload):
    spec = TINY[workload]
    assert spec.inputs_digest(1) == spec.inputs_digest(1)
    assert spec.inputs_digest(1) != spec.inputs_digest(2)


@pytest.mark.parametrize("workload", list(TINY))
def test_traced_and_untraced_runs_give_the_same_rows_digest(tmp_path, workload):
    spec = TINY[workload]
    _, untraced, _ = workloads.measure(spec, 5, 0.0, tmp_path, 0.0, [])
    tracer = Tracer()
    _, traced, passes = workloads.trace(spec, 5, tmp_path, tracer)
    assert untraced.correct and traced.correct, traced.problems
    assert untraced.rows_digest == traced.rows_digest
    assert len({one.rows_digest for one in passes}) == 1
    # Self times account for the traced wall time.
    wall = sum(span["end"] - span["start"] for span in roots(tracer.spans))
    assert sum(self_times(tracer.spans).values()) == pytest.approx(wall, rel=1e-9)


def test_tracing_restores_every_patched_attribute(tmp_path):
    import repro.experiments.executor as executor
    import repro.experiments.store as store

    before = (executor.run_mis, executor.by_name, store.ResultStore.__dict__["append"])
    workloads.trace(TINY["e1_awake_scale"], 2, tmp_path, Tracer())
    assert (executor.run_mis, executor.by_name, store.ResultStore.__dict__["append"]) == before


def test_summarizer_prints_a_table_that_sums_to_the_wall(tiny, capsys):
    run_cli(capsys, "sweep_tiny_parallel", trace=1)
    files = sorted((tiny / "spans").glob("*.jsonl"))
    assert len(files) == 1
    text = summarize.summarize(files)
    assert "== sweep_tiny_parallel" in text
    assert "graphs.generate" in text and "store.append" in text
    assert text.strip().splitlines()[-1].endswith("100.0%")
