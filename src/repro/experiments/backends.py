"""Execution backends: (scheduler × transport) compositions.

The execution layer is split into two orthogonal pieces —

* :mod:`repro.experiments.schedulers` owns *what runs when* (task
  ordering, retry/requeue, crash-loop accounting), and
* :mod:`repro.experiments.transports` owns *how bytes move* (in-process,
  a local process pool, socket workers over TCP) —

and a backend is a :class:`ComposedBackend` pairing one of each.  The
``backend=`` strings name the transport; the scheduler defaults to
``fifo``::

    serial  == fifo × inline
    process == fifo × process
    socket  == fifo × socket      (workers via --workers / REPRO_WORKERS)

A backend implements one method::

    submit_tasks(tasks) -> iterator of (index, MISRunResult)

yielding ``(position-in-tasks, compact result)`` pairs as executions
finish.  Because all seeds are fixed before submission
(:func:`~repro.experiments.executor.plan_sweep_tasks`), the pairs carry
byte-identical results for every scheduler × transport × jobs
combination; only arrival order and the failure model differ.  Closing
the returned generator early cancels queued work and shuts workers down.

Selection goes through :func:`resolve_backend` (backend names, composed
objects) or :func:`make_backend` (CLI-style ``--backend``/``--scheduler``/
``--workers`` selectors).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type, Union

from repro.errors import ConfigurationError
from repro.experiments.executor import (BackendLike, SweepTask,
                                        graph_cache_stats, resolve_jobs)
from repro.experiments.harness import MISRunResult
from repro.experiments.schedulers import (SCHEDULERS, CostModelScheduler,
                                          FifoScheduler,
                                          LargeFirstScheduler, Scheduler,
                                          available_schedulers,
                                          resolve_scheduler)
from repro.experiments.transports import (  # noqa: F401 - re-exported
    ADAPTIVE_WINDOW, SOCKET_WORKERS_ENV, WORKER_FAULT_DIR_ENV,
    InlineTransport, ProcessTransport, SocketTransport, Transport,
    parse_worker_addresses, resolve_max_batch, resolve_transport,
    resolve_window)


class ComposedBackend:
    """One scheduler driving one transport.

    The scheduler dispatches tasks (in policy order, with retry/requeue
    and crash-loop accounting) into the transport's slots; the transport
    moves the frames and reports completions and slot deaths.  Opening
    and closing the transport session brackets the result stream, so an
    abandoned generator still tears every worker down deterministically.
    """

    def __init__(self, scheduler: Union[None, str, Scheduler] = None,
                 transport: Optional[Transport] = None,
                 jobs: Optional[int] = None, max_attempts: int = 3) -> None:
        self.jobs = resolve_jobs(jobs)
        self.scheduler = resolve_scheduler(scheduler,
                                           max_attempts=max_attempts)
        self.transport = resolve_transport(transport, jobs=self.jobs)
        self._graph_cache: Optional[Dict] = None

    @property
    def name(self) -> str:
        return f"{self.scheduler.name}+{self.transport.name}"

    @property
    def worker_restarts(self) -> int:
        """Cumulative worker replacements (crash-recovery accounting)."""
        return self.transport.restarts

    def telemetry(self) -> Dict:
        """Machine-readable pipeline telemetry for this backend.

        The transport's per-connection/per-worker counter snapshot (RTT
        estimates, frames, acks, batches, reconnects, bytes, windows —
        see :mod:`repro.experiments.telemetry`) plus the scheduler's
        retry accounting and — once a sweep has run — the coordinator's
        graph-cache counters (hits/misses/evictions, captured just
        before session teardown clears the cache).  Purely
        observational: reading it never touches a result byte.
        """
        data = self.transport.telemetry()
        data["scheduler"] = {"name": self.scheduler.name,
                             "requeues": self.scheduler.requeues}
        if self._graph_cache is not None:
            data["graph_cache"] = dict(self._graph_cache)
        return data

    def submit_tasks(
        self, tasks: Sequence[SweepTask],
    ) -> Iterator[Tuple[int, MISRunResult]]:
        task_list = list(tasks)
        if not task_list:
            return
        slots = max(1, min(self.jobs, len(task_list)))
        session = self.transport.open(slots)
        try:
            yield from self.scheduler.run(task_list, session)
        finally:
            # Capture the coordinator-side graph-cache counters before the
            # session teardown clears them (close() calls cache_clear so
            # sweeps never pin graphs beyond their lifetime).
            self._graph_cache = graph_cache_stats()
            # Deterministic teardown on completion, error and abandonment
            # alike: cancel queued work, shut every slot down.
            session.close()


#: Selectable backends (the CLI's ``--backend`` choices): each name picks
#: the transport a :class:`ComposedBackend` drives.
BACKENDS: Dict[str, Type[Transport]] = {
    "serial": InlineTransport,
    "process": ProcessTransport,
    "socket": SocketTransport,
}


def available_backends() -> List[str]:
    """Backend names accepted by ``--backend`` / ``resolve_backend``."""
    return sorted(BACKENDS)


def _check_backend_name(backend: str) -> None:
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend '{backend}'; known: {available_backends()}"
        )


def resolve_backend(backend: BackendLike, jobs: Optional[int] = 1,
                    total: Optional[int] = None) -> ComposedBackend:
    """Turn a backend selector into a backend object.

    ``None`` preserves the historical ``jobs``-driven choice: serial when
    one worker would be used (or the grid has at most one task — a pool
    would be pure overhead), the process pool otherwise.  A name from
    :data:`BACKENDS` composes ``fifo`` with that transport under *jobs*;
    anything else is assumed to already be a backend object and returned
    as-is.
    """
    if backend is None:
        workers = resolve_jobs(jobs)
        if total is not None and total <= 1:
            workers = 1
        return ComposedBackend(jobs=workers)
    if isinstance(backend, str):
        _check_backend_name(backend)
        return ComposedBackend(transport=BACKENDS[backend](), jobs=jobs)
    return backend


def make_backend(backend: Optional[str] = None,
                 scheduler: Optional[str] = None,
                 workers: Union[None, str, Sequence[str]] = None,
                 jobs: Optional[int] = 1,
                 max_attempts: int = 3,
                 window: Union[None, int, str] = None,
                 max_batch: Union[None, int, str] = None,
                 ) -> Optional[ComposedBackend]:
    """Compose a backend from CLI-style selectors.

    Returns ``None`` when every selector is ``None`` — the historical
    jobs-driven default (which also knows the grid size) then applies in
    :func:`resolve_backend`.  ``--backend`` picks the transport,
    ``--scheduler`` the dispatch order, and ``--workers`` implies the
    socket backend.  ``--window`` / ``--max-batch`` tune the socket
    transport's pipelining (see :mod:`repro.experiments.transports`);
    ``None`` keeps its defaults (adaptive window, no batching).

    Socket misconfiguration fails *here*, not at session-open time: a
    sweep that cannot possibly run (no ``--workers``, no
    :data:`SOCKET_WORKERS_ENV`, or an unparseable worker list) must be
    refused before the caller touches anything stateful — in particular
    before the CLI stamps a results-store header for a sweep that never
    starts.
    """
    if backend is not None:
        _check_backend_name(backend)
    if workers is not None:
        if backend not in (None, "socket"):
            raise ConfigurationError(
                "--workers only applies to the socket backend "
                "(--backend socket, or --workers alone)"
            )
        backend = "socket"
    pipeline_options = {name: value for name, value
                        in (("window", window), ("max_batch", max_batch))
                        if value is not None}
    if pipeline_options and backend != "socket":
        raise ConfigurationError(
            "--window/--max-batch only apply to the socket backend: "
            "combine them with --workers or --backend socket"
        )
    if backend is None and scheduler is None:
        return None
    transport: Optional[Transport] = None
    if backend == "socket":
        transport = SocketTransport(workers, **pipeline_options)
        # Resolve the addresses that will actually be dialled — the
        # explicit flag, or the environment fallback — so a typo'd or
        # empty list fails here, not mid-way through setup.
        transport.addresses()
    elif backend is not None:
        transport = BACKENDS[backend]()
    return ComposedBackend(scheduler=scheduler, transport=transport,
                           jobs=jobs, max_attempts=max_attempts)


__all__ = [
    "ComposedBackend", "BACKENDS", "available_backends", "resolve_backend",
    "make_backend",
    "Scheduler", "FifoScheduler", "LargeFirstScheduler",
    "CostModelScheduler", "SCHEDULERS",
    "available_schedulers", "resolve_scheduler",
    "Transport", "InlineTransport", "ProcessTransport", "SocketTransport",
    "resolve_transport", "parse_worker_addresses",
    "ADAPTIVE_WINDOW", "resolve_window", "resolve_max_batch",
    "WORKER_FAULT_DIR_ENV", "SOCKET_WORKERS_ENV",
]
