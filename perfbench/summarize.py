"""Print the per-layer self-time table of the benchmark's traced runs.

    python3 perfbench/summarize.py [SPAN_FILE ...]

Without arguments it reads every ``.perfbench/spans/*.jsonl`` that
``run.py --trace 1`` wrote, and prints one table per workload (files of
the same workload, i.e. other seeds, are added together).  A layer's self
time is its spans' duration minus the time their child spans cover, so the
column sums to the traced wall time.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from spans import layer_key, roots, self_times

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    header: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.pop("kind") == "header":
                header = record
            else:
                spans.append(record)
    return header, spans


def summarize(paths: Sequence[Path]) -> str:
    layers: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(lambda: [0, 0.0]))
    walls: Dict[str, float] = defaultdict(float)
    seeds: Dict[str, List[int]] = defaultdict(list)
    for path in paths:
        header, spans = load(path)
        workload = header["env"]["workload"]
        seeds[workload].append(header["env"]["seed"])
        walls[workload] += sum(span["end"] - span["start"] for span in roots(spans))
        own = self_times(spans)
        for span in spans:
            row = layers[workload][layer_key(span)]
            row[0] += 1
            row[1] += own[span["id"]]
    lines = []
    for workload in sorted(layers):
        wall = walls[workload]
        total = sum(row[1] for row in layers[workload].values())
        lines.append(f"== {workload} (seeds {sorted(seeds[workload])}, "
                     f"traced wall {wall:.3f} s) ==")
        lines.append(f"{'layer':36s} {'spans':>7s} {'self_s':>10s} {'share':>7s}")
        ordered = sorted(layers[workload].items(), key=lambda item: -item[1][1])
        for name, (calls, self_s) in ordered:
            lines.append(f"{name:36s} {calls:7d} {self_s:10.4f} {self_s / wall:7.1%}")
        lines.append(f"{'total':36s} {'':7s} {total:10.4f} {total / wall:7.1%}")
        lines.append("")
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    paths = [Path(arg) for arg in argv] or sorted((ROOT / ".perfbench" / "spans").glob("*.jsonl"))
    if not paths:
        print("no span files; run perfbench/run.py --trace 1 first", file=sys.stderr)
        return 1
    print(summarize(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
