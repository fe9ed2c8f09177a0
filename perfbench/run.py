"""Run one workload of the repro-mis benchmark and print its metrics.

    python3 perfbench/run.py --workload e1_awake_scale --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics
(tracing off); ``--trace 1`` prints the per-layer metrics of a traced pass
and writes its spans to ``.perfbench/spans/<workload>-seed<seed>.jsonl``
(summarise with ``python3 perfbench/summarize.py``).  Human-readable lines
start with ``#``; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["e1_awake_scale", "engines_pregen", "sweep_tiny_parallel"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from probe import SpeedProbe
    with SpeedProbe() as import_probe:
        import workloads
        from spans import Tracer, roots
    import_s = time.perf_counter() - STARTED

    workload = workloads.WORKLOADS[args.workload]
    work_dir = OUT / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = workloads.environment(args.workload, args.seed)
    if args.trace:
        tracer = Tracer()
        metrics, outcome, passes = workloads.trace(workload, args.seed, work_dir, tracer)
        units = workloads.PER_LAYER
        span_dir = OUT / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        span_file = span_dir / f"{args.workload}-seed{args.seed}.jsonl"
        wall = sum(span["end"] - span["start"] for span in roots(tracer.spans))
        tracer.write(span_file, {"env": env, "traced_wall_s": wall,
                                 "rows_digest": outcome.rows_digest})
    else:
        metrics, outcome, passes = workloads.measure(workload, args.seed, args.seconds,
                                                     work_dir, import_s, import_probe.samples)
        units = workloads.END_TO_END

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# inputs_digest {workload.inputs_digest(args.seed)}")
    print(f"# rows_digest {outcome.rows_digest} (schema {env['schema']})")
    print("# passes " + " ".join(
        f"{one.label}={one.wall:.3f}s" + (f"({one.reference_wall:.3f}ref_s)" if one.speed else "")
        for one in passes))
    print(f"# failed_frac {outcome.failed / max(1, outcome.attempted):.6g} "
          f"({outcome.failed}/{outcome.attempted})")
    for problem in outcome.problems[:20]:
        print(f"# problem: {problem}")
    if args.trace:
        print(f"# spans {span_file}")
    for name, unit in units.items():
        print(f"# {name:40s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
