"""Shared configuration for the benchmark harness.

Each benchmark file regenerates one experiment of DESIGN.md §3 (E1–E8).  The
benchmarks print the experiment's table (so running
``pytest benchmarks/ --benchmark-only -s`` reproduces every experiment
table) and use pytest-benchmark to time the underlying measurement, which
keeps the harness honest about simulation cost.

Sizes are deliberately moderate so the full benchmark suite completes in a
few minutes on a laptop; pass ``--repro-scale=full`` for the larger sweeps.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--repro-scale",
        action="store",
        default="default",
        choices=["smoke", "default", "full"],
        help="sweep scale used by the experiment benchmarks",
    )


@pytest.fixture(scope="session")
def repro_scale(request):
    return request.config.getoption("--repro-scale")


@pytest.fixture
def bench_record():
    """Record one benchmark's numbers into the perf-trajectory JSON file.

    When the environment variable ``REPRO_BENCH_JSON`` names a file, calling
    the fixture as ``bench_record(name, **numbers)`` merges ``{name:
    numbers}`` into that file (read-modify-write, so several benchmarks can
    contribute to one artifact).  CI uploads the result as ``BENCH_pr.json``
    and the committed ``BENCH_seed.json`` holds the baseline; without the
    variable the fixture is a no-op, so local runs stay side-effect free.
    """
    def record(name: str, **numbers):
        target = os.environ.get("REPRO_BENCH_JSON")
        if not target:
            return
        path = Path(target)
        payload = {}
        if path.exists() and path.stat().st_size > 0:
            payload = json.loads(path.read_text(encoding="utf-8"))
        payload[name] = numbers
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")

    return record
