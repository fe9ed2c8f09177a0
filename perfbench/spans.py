"""In-memory span recorder for the benchmark's traced pass.

A span is one call into a layer: name, start, end, the span that was open
when it began (its parent) and the sweep task it belongs to.  Spans stay in
memory until :meth:`Tracer.write` dumps them as JSON lines.

Layers called *inside* the program (``run_task`` → ``by_name`` →
``run_mis`` → ``build_network`` …) are observed from outside: for the
duration of :meth:`Tracer.patched`, the module attribute that the caller
resolves at call time is swapped for a timing wrapper and restored
afterwards.  Nothing under ``src/`` records a span, and the untraced passes
run with every attribute untouched.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``(module, attribute, span name)`` for every layer boundary inside the
#: program.  ``module`` may name a class as ``package.module:Class``.
LAYER_HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.transports", "run_task", "executor.run_task"),
    ("repro.experiments.executor", "by_name", "graphs.generate"),
    ("repro.graphs.generators", "by_name", "graphs.generate"),
    ("repro.experiments.executor", "run_mis", "harness.run_mis"),
    ("repro.sim.runner", "build_network", "sim.network_build"),
    ("repro.experiments.harness", "is_independent_set", "core.verify"),
    ("repro.experiments.harness", "is_maximal_independent_set", "core.verify"),
    ("repro.experiments.harness:MISRunResult", "to_record", "harness.record"),
    ("repro.experiments.store:ResultStore", "append", "store.append"),
)


class Tracer:
    """Records nested spans; one instance per traced invocation."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        #: Planned task -> grid index, so ``run_task`` spans carry the id
        #: that ``ResultStore.append`` later receives for the same task.
        self.task_ids: Dict[Any, int] = {}

    @contextmanager
    def span(self, name: str, task: Any = None,
             **tags: Any) -> Iterator[Dict[str, Any]]:
        parent = self._stack[-1] if self._stack else None
        if task is None and parent is not None:
            task = parent["task"]
        record: Dict[str, Any] = {
            "id": len(self.spans), "name": name,
            "parent": None if parent is None else parent["id"],
            "task": task, "start": time.perf_counter(), "end": None,
        }
        record.update(tags)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, original: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            tags: Dict[str, Any] = {}
            task = None
            if name == "executor.run_task":
                task = tracer.task_ids.get(args[0])
                tags["algorithm"] = args[0].algorithm
            elif name == "store.append":
                task = args[1]  # (self, index, task, result)
            elif name == "harness.run_mis":
                tags["algorithm"] = kwargs.get("algorithm", args[1] if len(args) > 1 else None)
            with tracer.span(name, task=task, **tags) as record:
                result = original(*args, **kwargs)
            if name == "graphs.generate":
                record["edges"] = result.number_of_edges()
            return result

        return traced

    @contextmanager
    def patched(self, hooks: Sequence[Tuple[str, str, str]] = LAYER_HOOKS) -> Iterator[None]:
        """Swap every hook target for a timing wrapper, restoring on exit."""
        restore = []
        try:
            for target, attribute, name in hooks:
                module_name, _, class_name = target.partition(":")
                owner: Any = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                    original = owner.__dict__.get(attribute)
                else:
                    original = getattr(owner, attribute, None)
                if original is None:
                    print(f"# trace: {target}.{attribute} not found; "
                          f"'{name}' time stays in its caller", file=sys.stderr)
                    continue
                setattr(owner, attribute, self._wrap(name, original))
                restore.append((owner, attribute, original))
            yield
        finally:
            for owner, attribute, original in reversed(restore):
                setattr(owner, attribute, original)

    def write(self, path: Any, header: Dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "header", **header}) + "\n")
            for record in self.spans:
                handle.write(json.dumps({"kind": "span", **record}) + "\n")


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children never overlap (the traced passes are single-threaded), so
    summing their durations is the covered interval.
    """
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_key(span: Dict[str, Any]) -> str:
    """Summary row a span's self time belongs to (simulation split by algorithm)."""
    if span["name"] == "harness.run_mis":
        return f"sim.simulate[{span.get('algorithm')}]"
    return span["name"]


def roots(spans: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [span for span in spans if span["parent"] is None]


def totals(spans: Sequence[Dict[str, Any]], name: str,
           own: Optional[Dict[int, float]] = None, **match: Any) -> float:
    """Summed duration (or self time, given *own*) of spans called *name*."""
    total = 0.0
    for span in spans:
        if span["name"] != name or any(span.get(k) != v for k, v in match.items()):
            continue
        total += own[span["id"]] if own is not None else span["end"] - span["start"]
    return total
