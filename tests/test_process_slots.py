"""Process-backed worker slots (repro.experiments.worker --slots N).

With ``--slots N > 1`` each coordinator connection is served by its own
slot *subprocess* mapping the serving process's shared-memory CSR graph
cache read-only.  These tests pin the contracts the tentpole makes:

* byte identity with serial under both ``fork`` and ``spawn`` start
  methods (and under the historical ``--slot-mode thread``);
* telemetry names the *executing* process — the hello pid is the slot
  subprocess, not the serving process;
* no shared-memory segment outlives the worker (graceful shutdown
  unlinks everything; the leak check reads /dev/shm, not bookkeeping).
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError
from repro.experiments.backends import make_backend
from repro.experiments.shm_cache import SEGMENT_PREFIX, active_segments
from repro.experiments.sweeps import run_sweep
from repro.experiments.worker import serve

GRID = dict(algorithms=["luby", "vt_mis"], sizes=[16, 32],
            families=("gnp",), repetitions=2, seed=99)


def _worker_segments(pid):
    """Live /dev/shm segments owned by worker process *pid*."""
    return [name for name in active_segments()
            if name.startswith(f"{SEGMENT_PREFIX}-{pid}-")]


@pytest.fixture(scope="module")
def serial_rows():
    sweep = run_sweep(**GRID)
    return repr(sweep.rows()), repr(sweep.fits("awake_max"))


class TestProcessSlotEquivalence:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_byte_identical_to_serial_under_both_start_methods(
            self, spawn_socket_worker, serial_rows, start_method):
        process, address = spawn_socket_worker(
            slots=2, start_method=start_method)
        sweep = run_sweep(**GRID, backend=make_backend(
            workers=f"{address}*2"))
        assert (repr(sweep.rows()),
                repr(sweep.fits("awake_max"))) == serial_rows
        assert process.poll() is None

    def test_explicit_thread_mode_still_byte_identical(
            self, spawn_socket_worker, serial_rows):
        """--slot-mode thread restores the historical in-process slots;
        the bytes must not care which mode served them."""
        process, address = spawn_socket_worker(slots=2, slot_mode="thread")
        sweep = run_sweep(**GRID, backend=make_backend(
            workers=f"{address}*2"))
        assert (repr(sweep.rows()),
                repr(sweep.fits("awake_max"))) == serial_rows
        # Thread mode never creates shared segments.
        assert _worker_segments(process.pid) == []

    def test_single_slot_process_mode_byte_identical(
            self, spawn_socket_worker, serial_rows):
        """--slots 1 defaults to thread mode, but process mode can be
        forced explicitly — and still matches serial."""
        _, address = spawn_socket_worker(slots=1, slot_mode="process")
        sweep = run_sweep(**GRID, backend=make_backend(workers=address))
        assert (repr(sweep.rows()),
                repr(sweep.fits("awake_max"))) == serial_rows


class TestSlotProcessTelemetry:
    def test_hello_pid_is_the_slot_subprocess(self, spawn_socket_worker):
        """Telemetry must name the process that *executed* the tasks:
        two slots of one worker report two distinct pids, neither of
        which is the serving process."""
        process, address = spawn_socket_worker(slots=2)
        backend = make_backend(workers=f"{address}*2")
        run_sweep(**GRID, backend=backend)
        (row,) = backend.telemetry()["workers"]
        pids = row["worker_pids"]
        assert len(pids) == 2 and len(set(pids)) == 2
        assert process.pid not in pids
        assert all(isinstance(pid, int) for pid in pids)

    def test_thread_slots_report_the_serving_process(
            self, spawn_socket_worker):
        process, address = spawn_socket_worker(slots=2, slot_mode="thread")
        backend = make_backend(workers=f"{address}*2")
        run_sweep(**GRID, backend=backend)
        (row,) = backend.telemetry()["workers"]
        assert row["worker_pids"] == [process.pid]


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="no /dev/shm on this platform")
class TestSegmentLifecycle:
    def test_graceful_shutdown_unlinks_every_segment(
            self, spawn_socket_worker):
        """After the sweep the segments are still cached (that's the
        point); after SIGTERM the worker's shutdown path must have
        unlinked them all."""
        process, address = spawn_socket_worker(slots=2)
        run_sweep(**GRID, backend=make_backend(workers=f"{address}*2"))
        assert _worker_segments(process.pid)  # cache is warm

        process.terminate()
        process.wait(timeout=10)
        assert _worker_segments(process.pid) == []

    def test_bounded_worker_exit_unlinks_every_segment(
            self, spawn_socket_worker):
        """A --max-connections worker that exits on its own budget takes
        the same unlink path as SIGTERM."""
        process, address = spawn_socket_worker(slots=2, max_connections=2)
        run_sweep(**GRID, backend=make_backend(workers=f"{address}*2"))
        assert process.wait(timeout=10) == 0
        assert _worker_segments(process.pid) == []


class TestServeValidation:
    def test_invalid_slot_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="slot mode"):
            serve("127.0.0.1:0", slot_mode="fibers")

    def test_start_method_requires_process_mode(self):
        with pytest.raises(ConfigurationError, match="--start-method"):
            serve("127.0.0.1:0", slots=2, slot_mode="thread",
                  start_method="spawn")

    def test_invalid_start_method_rejected(self):
        with pytest.raises(ConfigurationError, match="start method"):
            serve("127.0.0.1:0", slots=2, start_method="teleport")
