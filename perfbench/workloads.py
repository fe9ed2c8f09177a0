"""The benchmark's workloads, their timed passes and their correctness check.

Each workload turns the ``--seed`` into its inputs, sets up, then runs
*passes* over those same inputs.  The untraced mode repeats passes until
the timed walls add up to ``--seconds`` and reports medians; the traced
mode runs one untraced pass and one traced pass of the same inputs and
reports per-layer numbers from the spans (see :mod:`spans`).  Every pass
of one invocation must produce the same canonical ``SweepResult.rows()``
digest, and every MIS a pass produced is re-verified against a graph the
benchmark regenerates itself.

README.md in this directory says why each workload exists and which
layer metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

import networkx
import numpy

from repro.core.mis import verify_mis
from repro.errors import VerificationError
from repro.experiments.backends import resolve_backend
from repro.experiments.executor import SweepTask, plan_sweep_tasks
from repro.experiments.harness import MISRunResult, run_mis
from repro.experiments.store import CODE_SCHEMA_VERSION, ResultStore
from repro.experiments.sweeps import SweepResult, run_sweep
from repro.graphs.generators import build_csr, by_name

from probe import ChildProbes, SpeedProbe, reference_seconds
from spans import Tracer, self_times, totals

#: End-to-end metrics (untraced runs) and their units.
END_TO_END = {"tasks_per_s": "tasks/s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: Algorithms whose simulation time is reported separately.
TRACED_ALGORITHMS = ("awake_mis", "luby", "rank_greedy")

#: Per-layer metrics (traced runs) and their units.  A layer that is not on
#: a workload's path reads 0 there.
PER_LAYER = {
    "graphs.generate_s": "s",
    "graphs.generate_calls": "count",
    "graphs.edges_per_s": "edges/s",
    "graphs.csr_build_s": "s",
    "executor.graph_cache_hit_frac": "frac",
    "sim.network_build_s": "s",
    **{f"sim.simulate_s.{a}": "s" for a in TRACED_ALGORITHMS},
    **{f"sim.awake_node_rounds_per_s.{a}": "1/s" for a in TRACED_ALGORITHMS},
    "sim.awake_node_rounds": "count",
    "sim.messages": "count",
    "algorithms.awake_max_mean": "rounds",
    "algorithms.node_avg_awake_mean": "rounds",
    "algorithms.rounds_mean": "rounds",
    "core.verify_s": "s",
    "harness.record_s": "s",
    "store.append_s": "s",
    "store.bytes_written": "B",
    "dispatch.busy_s": "s",
    "dispatch.efficiency": "frac",
    "dispatch.overhead_s": "s",
    "dispatch.arrival_gap_p50_s": "s",
    "dispatch.arrival_gap_p99_s": "s",
    "dispatch.requeues": "count",
    "dispatch.worker_restarts": "count",
    "trace.overhead_frac": "frac",
}

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def derive_seed(workload: str, seed: int, salt: str = "") -> int:
    """Deterministic 63-bit seed for one workload input stream."""
    return random.Random(f"{workload}:{seed}:{salt}").randrange(2**63)


def digest(data: Any) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process (and, if asked, of its largest child)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is KiB on Linux


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def environment(workload: str, seed: int) -> Dict[str, Any]:
    """What the numbers of this run depend on besides the code."""
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "jobs2_backend": type(resolve_backend(None, jobs=2, total=2)).__name__,
        "schema": CODE_SCHEMA_VERSION,
    }


class Output(NamedTuple):
    """One task's result as the check sees it."""

    task: int  #: grid index (sweeps) or position in the pass (engines)
    algorithm: str
    mis: List[Any]
    verified: bool  #: the program's own verdict
    graph: Tuple[str, int, int]  #: (family, n, graph_seed)
    metrics: Dict[str, Any]  #: compact metrics, as in the store record


@dataclass
class Pass:
    """One pass over a workload's inputs."""

    label: str
    tasks: int
    wall: float = 0.0
    rows_digest: str = ""
    error: Optional[BaseException] = None
    outputs: List[Output] = field(default_factory=list)
    #: A sweep pass's results stay in its store file until :func:`check`
    #: deletes it, so the benchmark holds no per-pass data that would count
    #: in ``peak_rss_mb``.
    store: Optional[Path] = None
    store_bytes: int = 0
    arrivals: List[float] = field(default_factory=list)
    telemetry: Dict[str, Any] = field(default_factory=dict)
    worker_restarts: int = 0
    #: Speed-probe samples taken while the pass ran (see :mod:`probe`).
    speed: List[float] = field(default_factory=list)

    @property
    def reference_wall(self) -> float:
        return reference_seconds(self.wall, self.speed)

    def iter_outputs(self) -> Iterator[Output]:
        yield from self.outputs
        if self.store is None or not self.store.exists():
            return
        for record in ResultStore(self.store).records():
            if record.get("kind") == "result":
                task, data = SweepTask.from_json(record["task"]), record["result"]
                yield Output(record["index"], task.algorithm, data["mis"], data["verified"],
                             (task.family, task.n, task.graph_seed), data["metrics"])


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    rows_digest: str = ""

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def check(passes: List[Pass]) -> Outcome:
    """Re-verify every MIS and require one rows digest across all passes.

    Each distinct ``(family, n, graph_seed)`` graph is regenerated once with
    ``by_name``.  A task fails if its pass raised before producing it, if
    the program flagged it unverified, or if its MIS is not a maximal
    independent set of the regenerated graph.  A second result for one task
    is a problem of its own.
    """
    outcome = Outcome()
    graphs: Dict[Tuple[str, int, int], Any] = {}
    for one in passes:
        outcome.attempted += one.tasks
        if one.error is not None:
            outcome.problems.append(f"{one.label}: raised {one.error!r}")
        produced = set()
        for output in one.iter_outputs():
            if output.task in produced:
                outcome.problems.append(f"{one.label}: task {output.task} has two results")
                continue
            produced.add(output.task)
            key = output.graph
            if key not in graphs:
                graphs[key] = by_name(key[0], key[1], seed=key[2])
            try:
                verify_mis(graphs[key], output.mis, label=f"{output.algorithm} on {key}")
            except VerificationError as error:
                outcome.failed += 1
                outcome.problems.append(f"{one.label}: {error}")
                continue
            if not output.verified:
                outcome.failed += 1
                outcome.problems.append(f"{one.label}: program flagged {key} unverified")
        outcome.failed += one.tasks - len(produced)
        if one.store is not None:
            one.store.unlink(missing_ok=True)
    digests = sorted({one.rows_digest for one in passes if one.error is None})
    if len(digests) > 1:
        outcome.problems.append(f"rows digests disagree across passes: {digests}")
    outcome.rows_digest = ",".join(digests)
    return outcome


# --------------------------------------------------------------------------- #
# Workloads driven through run_sweep (e1_awake_scale, sweep_tiny_parallel)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepWorkload:
    """``run_sweep`` with a ``ResultStore`` over one planned grid."""

    name: str
    algorithms: Tuple[str, ...]
    families: Tuple[str, ...]
    sizes: Tuple[int, ...]
    repetitions: int
    jobs: int
    warmup_n: int = 64

    def sweep_seed(self, seed: int) -> int:
        return derive_seed(self.name, seed)

    def tasks(self, seed: int) -> List[SweepTask]:
        return plan_sweep_tasks(list(self.algorithms), list(self.sizes),
                                families=self.families,
                                repetitions=self.repetitions,
                                seed=self.sweep_seed(seed))

    def inputs_digest(self, seed: int) -> str:
        return digest([task.to_json() for task in self.tasks(seed)])

    def prepare(self, seed: int, work_dir: Path, tracer: Optional[Tracer] = None) -> None:
        """Warm-up: one tiny serial sweep through the same code paths."""
        path = work_dir / f"{self.name}-{os.getpid()}-warmup.jsonl"
        path.unlink(missing_ok=True)
        with ResultStore(path) as store:
            run_sweep(list(self.algorithms), [self.warmup_n], families=self.families,
                      repetitions=1, seed=derive_seed(self.name, seed, "warmup"),
                      jobs=1, keep_runs=False, store=store)
        path.unlink()

    def run_pass(self, seed: int, state: None, work_dir: Path, label: str,
                 jobs: Optional[int] = None, backend: Any = None,
                 tracer: Optional[Tracer] = None) -> Pass:
        jobs = self.jobs if jobs is None else jobs
        one = Pass(label=label, tasks=len(self.tasks(seed)))
        path = work_dir / f"{self.name}-{os.getpid()}-{label}.jsonl"
        path.unlink(missing_ok=True)
        store = ResultStore(path)
        stamp = one.arrivals.append

        def progress(*_: Any) -> None:
            stamp(time.perf_counter())

        span = tracer.span("pass", jobs=jobs) if tracer is not None else nullcontext()
        started = time.perf_counter()
        try:
            with span:
                result = run_sweep(list(self.algorithms), list(self.sizes),
                                   families=self.families, repetitions=self.repetitions,
                                   seed=self.sweep_seed(seed), jobs=jobs,
                                   keep_runs=False, store=store, backend=backend,
                                   progress=progress)
        except Exception as error:  # reported as failed tasks, not a crash
            one.error = error
        finally:
            store.close()
            one.wall = time.perf_counter() - started
        if one.error is None:
            one.rows_digest = digest(result.rows())
            one.telemetry = result.telemetry or {}
        if backend is not None:
            one.worker_restarts = getattr(backend, "worker_restarts", 0)
        one.arrivals.insert(0, started)
        one.store = path
        if path.exists():
            one.store_bytes = path.stat().st_size
        return one


# --------------------------------------------------------------------------- #
# Simulator engines on a pre-built CSR graph (engines_pregen)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class EnginesWorkload:
    """Unmetered ``run_mis`` on one graph built in set-up, over several run seeds."""

    name: str
    algorithms: Tuple[str, ...]
    family: str
    n: int
    runs_per_pass: int
    warmup_n: int = 256
    jobs: int = 1

    def seeds(self, seed: int) -> Tuple[int, List[int]]:
        rng = random.Random(derive_seed(self.name, seed))
        graph_seed = rng.randrange(2**63)
        return graph_seed, [rng.randrange(2**63) for _ in range(self.runs_per_pass)]

    def inputs_digest(self, seed: int) -> str:
        return digest([self.family, self.n, *self.seeds(seed)])

    def prepare(self, seed: int, work_dir: Path, tracer: Optional[Tracer] = None) -> Any:
        """Warm up both engines on a small graph, then build the CSR graph."""
        graph_seed, run_seeds = self.seeds(seed)
        small = build_csr(self.family, self.warmup_n, seed=graph_seed).view()
        for algorithm in self.algorithms:
            run_mis(small, algorithm, seed=run_seeds[0], enforce_congest=False,
                    collect_raw=False)
        if tracer is None:
            return build_csr(self.family, self.n, seed=graph_seed).view()
        hook = ("repro.graphs.generators", "by_name", "graphs.generate")
        with tracer.patched([hook]), tracer.span("graphs.build_csr", n=self.n):
            return build_csr(self.family, self.n, seed=graph_seed).view()

    def run_pass(self, seed: int, state: Any, work_dir: Path, label: str,
                 tracer: Optional[Tracer] = None, **_: Any) -> Pass:
        graph_seed, run_seeds = self.seeds(seed)
        key = (self.family, self.n, graph_seed)
        one = Pass(label=label, tasks=len(run_seeds) * len(self.algorithms))
        results: List[Tuple[str, MISRunResult]] = []
        span = tracer.span("pass", jobs=1) if tracer is not None else nullcontext()
        started = time.perf_counter()
        one.arrivals.append(started)
        try:
            with span:
                for run_seed in run_seeds:
                    for algorithm in self.algorithms:
                        task_span = (tracer.span("harness.run_mis", task=len(results),
                                                 algorithm=algorithm)
                                     if tracer is not None else nullcontext())
                        with task_span:
                            result = run_mis(state, algorithm, seed=run_seed,
                                             enforce_congest=False, collect_raw=False)
                        results.append((algorithm, result))
                        one.arrivals.append(time.perf_counter())
        except Exception as error:  # reported as failed tasks, not a crash
            one.error = error
        finally:
            one.wall = time.perf_counter() - started
        sweep = SweepResult()
        for algorithm, result in results:
            sweep.cell_for(algorithm, self.family, self.n, keep_runs=False).add(result)
            one.outputs.append(Output(len(one.outputs), algorithm, sorted(result.mis),
                                      result.verified, key, result.metrics.to_json_dict()))
        one.rows_digest = digest(sweep.rows())
        return one


WORKLOADS: Dict[str, Any] = {
    "e1_awake_scale": SweepWorkload(
        name="e1_awake_scale", algorithms=("awake_mis",), families=("gnp", "rgg"),
        sizes=(2000, 4000, 8000), repetitions=1, jobs=1),
    "engines_pregen": EnginesWorkload(
        name="engines_pregen", algorithms=("luby", "rank_greedy"), family="rgg",
        n=20000, runs_per_pass=2),
    "sweep_tiny_parallel": SweepWorkload(
        name="sweep_tiny_parallel", algorithms=("luby", "rank_greedy"),
        families=("gnp",), sizes=(32, 64), repetitions=250, jobs=2),
}


# --------------------------------------------------------------------------- #
# The two modes
# --------------------------------------------------------------------------- #
def measure(workload: Any, seed: int, seconds: float, work_dir: Path,
            import_s: float, import_speed: List[float],
            ) -> Tuple[Dict[str, float], Outcome, List[Pass]]:
    """Untraced mode: end-to-end metrics over passes totalling *seconds*.

    Times are in reference seconds (:func:`probe.reference_seconds`), from
    probe samples taken by the processes doing the work: this one for
    set-up and serial passes, the pool workers for a parallel pass.
    """
    setups = []
    state = None
    with SpeedProbe() as setup_probe:
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            state = workload.prepare(seed, work_dir)
            setups.append(time.perf_counter() - started)
    passes: List[Pass] = []
    while not passes or sum(one.wall for one in passes) < seconds:
        label = f"timed{len(passes)}"
        probe = (SpeedProbe() if workload.jobs == 1
                 else ChildProbes(work_dir / f"probe-{os.getpid()}-{label}"))
        with probe:
            one = workload.run_pass(seed, state, work_dir, label)
        one.speed = probe.samples
        passes.append(one)
        if one.error is not None:
            break
    rss = peak_rss_mb(children=workload.jobs > 1)
    outcome = check(passes)
    metrics = {
        "tasks_per_s": statistics.median(one.tasks / one.reference_wall for one in passes),
        "setup_s": reference_seconds(import_s + statistics.median(setups),
                                     import_speed + setup_probe.samples),
        "peak_rss_mb": rss,
    }
    return metrics, outcome, passes


def trace(workload: Any, seed: int, work_dir: Path,
          tracer: Tracer) -> Tuple[Dict[str, float], Outcome, List[Pass]]:
    """Traced mode: per-layer metrics from one traced pass.

    Order: set-up (traced), one untraced serial pass (the reference for
    ``trace.overhead_frac``), for a parallel workload one real parallel
    pass under a ``dispatch.parallel_sweep`` span (its workers are not
    traced), then the traced serial pass of the same tasks.
    """
    with tracer.span("setup"):
        state = workload.prepare(seed, work_dir, tracer)
    with SpeedProbe() as probe:
        untraced = workload.run_pass(seed, state, work_dir, "untraced", jobs=1)
    untraced.speed = probe.samples
    passes = [untraced]
    parallel = None
    if workload.jobs > 1:
        backend = resolve_backend(None, jobs=workload.jobs, total=untraced.tasks)
        with tracer.span("dispatch.parallel_sweep", jobs=workload.jobs):
            parallel = workload.run_pass(seed, state, work_dir, "parallel",
                                         backend=backend)
        passes.append(parallel)
    serial_backend = (resolve_backend(None, jobs=1, total=untraced.tasks)
                      if isinstance(workload, SweepWorkload) else None)
    if isinstance(workload, SweepWorkload):
        tracer.task_ids = {task: index for index, task in enumerate(workload.tasks(seed))}
    with tracer.patched(), SpeedProbe() as probe:
        traced = workload.run_pass(seed, state, work_dir, "traced", jobs=1,
                                   backend=serial_backend, tracer=tracer)
    traced.speed = probe.samples
    passes.append(traced)
    metrics = layer_metrics(tracer, untraced, parallel or traced, traced, workload.jobs)
    return metrics, check(passes), passes


def layer_metrics(tracer: Tracer, untraced: Pass, dispatched: Pass, traced: Pass,
                  jobs: int) -> Dict[str, float]:
    """Per-layer metrics from the spans and the traced pass's outputs."""
    spans = tracer.spans
    own = self_times(spans)
    metrics: Dict[str, float] = {}

    generate_s = totals(spans, "graphs.generate")
    edges = sum(span.get("edges", 0) for span in spans if span["name"] == "graphs.generate")
    metrics["graphs.generate_s"] = generate_s
    metrics["graphs.generate_calls"] = sum(1 for s in spans if s["name"] == "graphs.generate")
    metrics["graphs.edges_per_s"] = edges / generate_s if generate_s else 0.0
    metrics["graphs.csr_build_s"] = totals(spans, "graphs.build_csr", own)
    cache = traced.telemetry.get("graph_cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    metrics["executor.graph_cache_hit_frac"] = cache.get("hits", 0) / lookups if lookups else 0.0

    metrics["sim.network_build_s"] = totals(spans, "sim.network_build")
    outputs = list(traced.iter_outputs())
    for algorithm in TRACED_ALGORITHMS:
        simulate_s = totals(spans, "harness.run_mis", own, algorithm=algorithm)
        awake = sum(o.metrics["total_awake_rounds"] for o in outputs
                    if o.algorithm == algorithm)
        metrics[f"sim.simulate_s.{algorithm}"] = simulate_s
        metrics[f"sim.awake_node_rounds_per_s.{algorithm}"] = (
            awake / simulate_s if simulate_s else 0.0)
    metrics["sim.awake_node_rounds"] = sum(o.metrics["total_awake_rounds"] for o in outputs)
    metrics["sim.messages"] = sum(o.metrics["total_messages"] for o in outputs)
    count = max(1, len(outputs))
    metrics["algorithms.awake_max_mean"] = sum(o.metrics["awake_complexity"] for o in outputs) / count
    metrics["algorithms.node_avg_awake_mean"] = (
        sum(o.metrics["node_averaged_awake"] for o in outputs) / count)
    metrics["algorithms.rounds_mean"] = sum(o.metrics["round_complexity"] for o in outputs) / count

    metrics["core.verify_s"] = totals(spans, "core.verify")
    metrics["harness.record_s"] = totals(spans, "harness.record")
    metrics["store.append_s"] = totals(spans, "store.append", own)
    metrics["store.bytes_written"] = traced.store_bytes

    (root,) = [s for s in spans if s["name"] == "pass"]
    busy = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"])
    wall = dispatched.wall
    gaps = [b - a for a, b in zip(dispatched.arrivals, dispatched.arrivals[1:])]
    metrics["dispatch.busy_s"] = busy
    metrics["dispatch.efficiency"] = busy / (jobs * wall)
    metrics["dispatch.overhead_s"] = jobs * wall - busy
    metrics["dispatch.arrival_gap_p50_s"] = percentile(gaps, 0.50)
    metrics["dispatch.arrival_gap_p99_s"] = percentile(gaps, 0.99)
    metrics["dispatch.requeues"] = dispatched.telemetry.get("scheduler", {}).get("requeues", 0)
    metrics["dispatch.worker_restarts"] = dispatched.worker_restarts
    metrics["trace.overhead_frac"] = (
        (traced.reference_wall - untraced.reference_wall) / untraced.reference_wall)
    return metrics
