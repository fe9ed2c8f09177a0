"""Tests for the pluggable execution backends (repro.experiments.backends).

Backends are (scheduler × transport) compositions; the cross-backend
byte-identity matrix lives in ``tests/test_executor.py`` (it extends the
historical jobs=1-vs-jobs=4 test) and the transport/scheduler layers have
their own suites (``test_transports.py``, ``test_schedulers.py``).  This
file covers the backend facade itself: name selection rules, CLI-style
composition (``make_backend``), the framed worker protocol, and how
socket workers report crash loops, configuration errors and task
exceptions back to the coordinator — and that the serial and process
backends re-raise a task's own exception unwrapped.
"""

from __future__ import annotations

import io
import json
import struct

import pytest

from repro.errors import (ConfigurationError, MessageTooLargeError,
                          WorkerCrashError)
from repro.experiments.backends import (
    BACKENDS,
    SOCKET_WORKERS_ENV,
    WORKER_FAULT_DIR_ENV,
    ComposedBackend,
    InlineTransport,
    available_backends,
    make_backend,
    resolve_backend,
)
from repro.experiments.executor import (SweepTask, iter_indexed_results,
                                        plan_sweep_tasks, run_task)
from repro.experiments.sweeps import run_sweep
from repro.experiments.worker import read_frame, write_frame

GRID = dict(algorithms=["luby", "vt_mis"], sizes=[16, 32],
            families=("gnp",), repetitions=2, seed=99)


def enable_socket_backend(name, request, monkeypatch):
    """Point the socket backend at the session worker pool when needed."""
    if name == "socket":
        monkeypatch.setenv(SOCKET_WORKERS_ENV,
                           request.getfixturevalue("socket_workers"))


class TestResolveBackend:
    def test_default_is_serial_for_one_worker(self):
        backend = resolve_backend(None, jobs=1)
        assert isinstance(backend, ComposedBackend)
        assert backend.transport.name == "inline"

    def test_default_is_process_pool_for_many_workers(self):
        backend = resolve_backend(None, jobs=4)
        assert backend.transport.name == "process"
        assert backend.jobs == 4

    def test_tiny_grids_stay_in_process(self):
        # A pool for <= 1 task is pure overhead.
        assert resolve_backend(None, jobs=4,
                               total=1).transport.name == "inline"
        assert resolve_backend(None, jobs=4,
                               total=0).transport.name == "inline"

    def test_names_resolve_to_their_transports(self):
        for name, transport_cls in BACKENDS.items():
            backend = resolve_backend(name, jobs=2)
            assert isinstance(backend, ComposedBackend)
            assert isinstance(backend.transport, transport_cls)

    def test_backend_objects_pass_through(self):
        backend = ComposedBackend(jobs=2)
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected_with_known_list(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_backend("cluster")
        message = str(excinfo.value)
        assert "unknown backend 'cluster'" in message
        for name in available_backends():
            assert name in message

    @pytest.mark.parametrize("name", ["thread", "async", "subprocess"])
    def test_removed_names_rejected_with_known_list(self, name):
        # The thread and stdio-pipe transports are gone; their old
        # selector strings must fail loudly, never fall back silently.
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_backend(name, jobs=2)
        message = str(excinfo.value)
        assert f"unknown backend '{name}'" in message
        assert "['process', 'serial', 'socket']" in message

    def test_available_backends_is_sorted(self):
        assert available_backends() == sorted(BACKENDS)
        assert available_backends() == ["process", "serial", "socket"]

    def test_names_compose_the_documented_pairs(self):
        """The backend strings are (fifo × transport) compositions."""
        pairs = {"serial": ("fifo", "inline"),
                 "process": ("fifo", "process"),
                 "socket": ("fifo", "socket")}
        for name, (scheduler, transport) in pairs.items():
            backend = resolve_backend(name, jobs=2)
            assert backend.scheduler.name == scheduler
            assert backend.transport.name == transport


class TestMakeBackend:
    """CLI-style composition: --backend/--scheduler/--workers."""

    def test_all_none_defers_to_the_jobs_driven_default(self):
        assert make_backend() is None

    def test_backend_name_alone(self):
        backend = make_backend(backend="process", jobs=3)
        assert isinstance(backend, ComposedBackend)
        assert backend.transport.name == "process"
        assert backend.jobs == 3

    def test_scheduler_overrides_the_default_ordering(self):
        backend = make_backend(backend="process", scheduler="large-first",
                               jobs=2)
        assert backend.scheduler.name == "large-first"
        assert backend.transport.name == "process"

    def test_scheduler_alone_keeps_the_jobs_driven_transport(self):
        assert make_backend(scheduler="large-first",
                            jobs=1).transport.name == "inline"
        assert make_backend(scheduler="large-first",
                            jobs=4).transport.name == "process"

    @pytest.mark.parametrize("name", ["serial", "process", "socket"])
    def test_max_attempts_reaches_every_backend(self, name, monkeypatch):
        """Regression: the serial and process constructors used to drop
        *max_attempts*, leaving the scheduler at its default of 3."""
        monkeypatch.setenv(SOCKET_WORKERS_ENV, "127.0.0.1:1")
        backend = make_backend(backend=name, jobs=2, max_attempts=7)
        assert backend.scheduler.max_attempts == 7

    @pytest.mark.parametrize("scheduler",
                             ["fifo", "large-first", "cost-model"])
    @pytest.mark.parametrize("name", ["serial", "process", "socket"])
    def test_every_backend_composes_with_every_scheduler(
            self, name, scheduler, monkeypatch):
        monkeypatch.setenv(SOCKET_WORKERS_ENV, "127.0.0.1:1")
        backend = make_backend(backend=name, scheduler=scheduler, jobs=2)
        assert isinstance(backend, ComposedBackend)
        assert isinstance(backend.transport, BACKENDS[name])
        assert backend.scheduler.name == scheduler
        assert backend.name == f"{scheduler}+{backend.transport.name}"
        assert backend.jobs == 2

    def test_workers_imply_the_socket_transport(self):
        backend = make_backend(workers="127.0.0.1:1,127.0.0.1:2")
        assert backend.transport.name == "socket"
        assert backend.transport.workers == "127.0.0.1:1,127.0.0.1:2"

    def test_workers_rejected_for_other_backends(self):
        for name in ("serial", "process"):
            with pytest.raises(ConfigurationError, match="--workers"):
                make_backend(backend=name, workers="127.0.0.1:1")

    def test_unknown_backend_rejected(self):
        for name in ("cluster", "thread", "async"):
            with pytest.raises(ConfigurationError, match="unknown backend"):
                make_backend(backend=name)

    def test_socket_backend_without_workers_fails_at_open_not_construct(
            self, monkeypatch):
        monkeypatch.delenv(SOCKET_WORKERS_ENV, raising=False)
        backend = resolve_backend("socket", jobs=2)  # construction is lazy
        tasks = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                 repetitions=1, seed=1)
        with pytest.raises(ConfigurationError, match="worker addresses"):
            list(backend.submit_tasks(tasks))

    def test_make_backend_socket_without_workers_fails_fast(
            self, monkeypatch):
        """The CLI-composition path must refuse an unrunnable socket
        selection immediately — naming both the flag and the env var —
        instead of deferring to session-open time (by which point the
        CLI has already stamped a results-store header)."""
        monkeypatch.delenv(SOCKET_WORKERS_ENV, raising=False)
        with pytest.raises(ConfigurationError) as excinfo:
            make_backend(backend="socket")
        message = str(excinfo.value)
        assert "--workers" in message
        assert SOCKET_WORKERS_ENV in message

    def test_make_backend_socket_env_var_satisfies_the_fail_fast_check(
            self, monkeypatch):
        monkeypatch.setenv(SOCKET_WORKERS_ENV, "127.0.0.1:1")
        backend = make_backend(backend="socket")
        assert backend.transport.name == "socket"

    def test_make_backend_rejects_malformed_workers_eagerly(self):
        with pytest.raises(ConfigurationError,
                           match="invalid worker address"):
            make_backend(workers="127.0.0.1:notaport")
        with pytest.raises(ConfigurationError,
                           match="invalid worker address"):
            make_backend(backend="socket", workers="host:8750*0")

    def test_make_backend_rejects_malformed_env_workers_eagerly(
            self, monkeypatch):
        """The env-var fallback is validated as eagerly as the flag: a
        garbage REPRO_WORKERS must fail at composition time, not after
        the CLI has stamped a results-store header."""
        monkeypatch.setenv(SOCKET_WORKERS_ENV, "garbage")
        with pytest.raises(ConfigurationError,
                           match="invalid worker address"):
            make_backend(backend="socket")

    def test_make_backend_rejects_empty_workers_eagerly(self, monkeypatch):
        # An explicit-but-empty --workers must not slip past the
        # fail-fast check just because it is not None.
        monkeypatch.delenv(SOCKET_WORKERS_ENV, raising=False)
        with pytest.raises(ConfigurationError, match="worker addresses"):
            make_backend(backend="socket", workers="")

    def test_make_backend_composes_cost_model(self):
        backend = make_backend(scheduler="cost-model", jobs=2)
        assert backend.scheduler.name == "cost-model"
        assert backend.transport.name == "process"

    def test_make_backend_passes_window_and_batch_to_the_socket_transport(
            self):
        from repro.experiments.transports import ADAPTIVE_WINDOW_CAP

        backend = make_backend(workers="127.0.0.1:1", window=4, max_batch=8)
        assert backend.transport.window == 4
        assert backend.transport.max_batch == 8
        backend = make_backend(workers="127.0.0.1:1", window="adaptive")
        assert backend.transport.window == ADAPTIVE_WINDOW_CAP
        # Untouched selectors keep the transport defaults.
        assert make_backend(workers="127.0.0.1:1").transport.max_batch == 1

    def test_make_backend_rejects_window_for_non_socket_selections(self):
        for selector in (dict(backend="serial"), dict(backend="process"),
                         dict()):
            with pytest.raises(ConfigurationError,
                               match="--window/--max-batch"):
                make_backend(window=4, **selector)
            with pytest.raises(ConfigurationError,
                               match="--window/--max-batch"):
                make_backend(max_batch=8, **selector)

    def test_make_backend_rejects_invalid_window_values_eagerly(self):
        with pytest.raises(ConfigurationError, match="invalid window"):
            make_backend(workers="127.0.0.1:1", window="turbo")
        with pytest.raises(ConfigurationError, match="invalid max_batch"):
            make_backend(workers="127.0.0.1:1", max_batch=0)


class TestBackendStreams:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_empty_task_list_yields_nothing(self, name):
        # No transport session is even opened for an empty grid, so the
        # socket backend needs no live workers here.
        backend = resolve_backend(name, jobs=2)
        assert list(backend.submit_tasks([])) == []

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_indices_address_the_submitted_list(self, name, request,
                                                monkeypatch):
        enable_socket_backend(name, request, monkeypatch)
        tasks = plan_sweep_tasks(**GRID)
        backend = resolve_backend(name, jobs=2)
        reference = {index: run_task(task)
                     for index, task in enumerate(tasks)}
        for index, result in backend.submit_tasks(tasks):
            assert result.mis == reference[index].mis
            assert result.seed == reference[index].seed

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_abandoning_the_stream_shuts_down_cleanly(self, name, request,
                                                      monkeypatch):
        enable_socket_backend(name, request, monkeypatch)
        tasks = plan_sweep_tasks(**GRID)
        stream = iter_indexed_results(tasks, jobs=2, backend=name)
        next(stream)
        stream.close()  # must not hang on queued work or live workers

    @pytest.mark.parametrize("jobs, expected", [(1, 1), (2, 2), (8, 3)])
    def test_session_slots_never_exceed_the_task_count(self, jobs,
                                                       expected):
        opened = []

        class RecordingTransport(InlineTransport):
            def open(self, slots):
                opened.append(slots)
                return super().open(slots)

        tasks = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                 repetitions=3, seed=5)
        assert len(tasks) == 3
        backend = ComposedBackend(transport=RecordingTransport(), jobs=jobs)
        assert sorted(i for i, _ in backend.submit_tasks(tasks)) == [0, 1, 2]
        assert opened == [expected]


class TestWorkerProtocol:
    def test_frame_round_trip(self):
        buffer = io.BytesIO()
        record = {"kind": "task", "index": 3, "task": {"n": 16}}
        write_frame(buffer, record)
        buffer.seek(0)
        assert read_frame(buffer) == record

    def test_frames_are_length_prefixed(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"kind": "task"})
        raw = buffer.getvalue()
        (length,) = struct.unpack(">I", raw[:4])
        assert length == len(raw) - 4
        assert json.loads(raw[4:].decode("utf-8")) == {"kind": "task"}

    def test_truncated_frame_reads_as_eof(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"kind": "task", "index": 1})
        torn = io.BytesIO(buffer.getvalue()[:-3])
        assert read_frame(torn) is None
        assert read_frame(io.BytesIO(b"\x00\x00")) is None
        assert read_frame(io.BytesIO(b"")) is None

    def test_short_reads_are_looped_not_mistaken_for_eof(self):
        """Regression for the short-read bug: ``stream.read(n)`` may
        legally return fewer than *n* bytes mid-stream — guaranteed on
        sockets once frames span TCP segments, possible on pipes.  The
        old reader treated any short read as a torn frame; feeding the
        frames one byte at a time must reproduce every record."""
        buffer = io.BytesIO()
        records = [{"kind": "task", "index": i, "task": {"n": 16 + i}}
                   for i in range(3)]
        for record in records:
            write_frame(buffer, record)
        dribble = _DribbleStream(buffer.getvalue())
        assert [read_frame(dribble) for _ in range(3)] == records
        assert read_frame(dribble) is None  # then a clean EOF

    def test_short_read_ending_in_eof_is_still_torn(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"kind": "task", "index": 9})
        dribble = _DribbleStream(buffer.getvalue()[:-1])
        assert read_frame(dribble) is None


class _DribbleStream:
    """A binary stream whose ``read`` returns at most one byte at a time."""

    def __init__(self, data: bytes) -> None:
        self._buffer = io.BytesIO(data)

    def read(self, count: int) -> bytes:
        return self._buffer.read(min(1, count))


class TestSocketWorkerErrors:
    """How a socket worker's failures surface at the coordinator."""

    def test_crash_looping_task_raises_instead_of_spinning(
            self, tmp_path, spawn_socket_worker):
        # With a one-attempt budget the single injected crash exhausts it:
        # the backend must surface a WorkerCrashError, not retry forever.
        # Two process slots let the serving process outlive the exit-17
        # fault, so only the attempt budget can stop the sweep.
        task = plan_sweep_tasks(**GRID)[0]
        (tmp_path / f"crash-run_seed-{task.run_seed}").write_text("")
        _, address = spawn_socket_worker(
            extra_env={WORKER_FAULT_DIR_ENV: str(tmp_path)}, slots=2)
        backend = make_backend(workers=f"{address}*2", max_attempts=1)
        with pytest.raises(WorkerCrashError, match="crashed its worker"):
            run_sweep(**GRID, backend=backend)

    def test_configuration_error_in_worker_re_raises_as_itself(
            self, socket_workers):
        # A configuration mistake inside a worker must come back as a
        # ConfigurationError (clean CLI rendering on every backend), not
        # wrapped in WorkerCrashError — matching the serial backend.
        good = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                repetitions=1, seed=7)
        bad = SweepTask(algorithm="luby", family="not-a-family", n=16,
                        graph_seed=1, run_seed=2)
        backend = make_backend(workers=socket_workers)
        with pytest.raises(ConfigurationError,
                           match="unknown graph family 'not-a-family'"):
            list(backend.submit_tasks([*good, bad]))

    def test_task_exception_propagates_without_killing_the_worker(
            self, socket_workers):
        # A non-configuration task exception (here: a CONGEST budget of 0
        # bits) is an error frame, not a crash: the worker survives and
        # the coordinator re-raises with the worker traceback.
        bad = SweepTask(algorithm="luby", family="gnp", n=16,
                        graph_seed=1, run_seed=2,
                        params=(("message_bit_limit", 0),))
        backend = make_backend(workers=socket_workers)
        with pytest.raises(WorkerCrashError, match="failed in worker"):
            list(backend.submit_tasks([bad]))

    def test_restart_counter_starts_at_zero(self, socket_workers):
        backend = make_backend(workers=socket_workers)
        run_sweep(algorithms=["luby"], sizes=[16], repetitions=1, seed=1,
                  backend=backend)
        assert backend.worker_restarts == 0


@pytest.mark.parametrize("name", ["serial", "process"])
class TestLocalWorkerErrors:
    """In-process and pool failures re-raise the task's own exception."""

    def test_configuration_error_re_raises_as_itself(self, name):
        good = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                repetitions=1, seed=7)
        bad = SweepTask(algorithm="luby", family="not-a-family", n=16,
                        graph_seed=1, run_seed=2)
        backend = make_backend(backend=name, jobs=2)
        with pytest.raises(ConfigurationError,
                           match="unknown graph family 'not-a-family'"):
            list(backend.submit_tasks([*good, bad]))

    def test_task_exception_re_raises_unwrapped(self, name):
        # The socket backend wraps a worker-side failure in
        # WorkerCrashError; locally the original exception type survives.
        bad = SweepTask(algorithm="luby", family="gnp", n=16,
                        graph_seed=1, run_seed=2,
                        params=(("message_bit_limit", 0),))
        backend = make_backend(backend=name, jobs=2)
        with pytest.raises(MessageTooLargeError, match="limit 0"):
            list(backend.submit_tasks([bad]))

    def test_clean_sweep_counts_no_restarts_or_requeues(self, name):
        backend = make_backend(backend=name, jobs=2)
        run_sweep(algorithms=["luby"], sizes=[16], repetitions=2, seed=1,
                  backend=backend)
        assert backend.worker_restarts == 0
        assert backend.scheduler.requeues == 0
