"""RPL001 — RNG discipline.

All randomness flows through seeded :class:`random.Random` instances handed
down from the sweep plan (``repro.rng``).  Module-level ``random.*`` calls
and unseeded ``Random()`` constructions create hidden global state that
breaks byte-identical replay; they are only legitimate inside ``rng.py``
itself, which implements the ``None``-seed escape hatch.  The same holds for
numpy: the legacy module-level ``numpy.random.*`` functions share one
global generator, and a generator or bit generator built with no seed is
OS-seeded.

Separately, task-execution modules (worker, transports, backends,
schedulers) must never *derive* seeds: seeds are fixed at plan time in
``plan_sweep_tasks`` so every backend executes an identical task list.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import ClassVar, Iterator

from ..astutils import resolved_call_name
from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..registry import Rule, register

#: random-module functions that consume the hidden global generator.
_MODULE_FUNCS = frozenset(
    {
        "random",
        "randrange",
        "randint",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "seed",
        "setstate",
    }
)

#: numpy.random constructors that are OS-seeded when called without a seed.
_NUMPY_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "RandomState",
        "SeedSequence",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
    }
)

#: Legacy numpy.random functions that consume the hidden global RandomState.
_NUMPY_MODULE_FUNCS = frozenset(
    {
        "rand",
        "randn",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "randint",
        "random_integers",
        "bytes",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "exponential",
        "binomial",
        "poisson",
        "geometric",
        "beta",
        "gamma",
        "seed",
        "set_state",
    }
)


@register
class RngDiscipline(Rule):
    code = "RPL001"
    name = "rng-discipline"
    summary = (
        "no module-level random.*/numpy.random.* calls or unseeded generators "
        "outside rng.py; execution modules never derive seeds"
    )
    default_exclude: ClassVar = ["src/repro/rng.py"]
    default_options: ClassVar = {
        # Modules on the task-execution path: they receive fully planned
        # tasks and must not mint new randomness of their own.
        "execution_modules": [
            "src/repro/experiments/worker.py",
            "src/repro/experiments/transports.py",
            "src/repro/experiments/backends.py",
            "src/repro/experiments/schedulers.py",
        ],
        "seed_derivers": [
            "repro.rng.make_rng",
            "repro.rng.derive_seed",
            "repro.rng.spawn_rng",
            "repro.rng.spawn_rngs",
        ],
    }

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        in_execution_module = any(
            fnmatch.fnmatch(ctx.path, pattern)
            for pattern in self.options["execution_modules"]
        )
        derivers = frozenset(self.options["seed_derivers"])
        deriver_tails = frozenset(name.rsplit(".", 1)[-1] for name in derivers)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolved_call_name(node, ctx.imports)
            if resolved is None:
                continue
            module, _, func = resolved.rpartition(".")
            if module == "numpy.random" and func in _NUMPY_MODULE_FUNCS:
                yield self.diagnostic(
                    ctx,
                    node,
                    f"call to the legacy `{resolved}()` uses numpy's global "
                    "generator; build a seeded generator in repro.rng instead",
                )
            elif module == "numpy.random" and func in _NUMPY_CONSTRUCTORS and not (
                node.args or node.keywords
            ):
                yield self.diagnostic(
                    ctx,
                    node,
                    f"unseeded `{resolved}()` is OS-seeded and irreproducible; "
                    "pass an explicit seed or build it in repro.rng",
                )
            elif module == "random" and func in _MODULE_FUNCS:
                yield self.diagnostic(
                    ctx,
                    node,
                    f"call to the module-level `{resolved}()` bypasses the seeded "
                    "RNG discipline; thread a random.Random from repro.rng instead",
                )
            elif resolved in ("random.Random", "random.SystemRandom") and not (
                node.args or node.keywords
            ):
                yield self.diagnostic(
                    ctx,
                    node,
                    f"unseeded `{resolved}()` is OS-seeded and irreproducible; "
                    "pass an explicit seed or use repro.rng.make_rng",
                )
            elif in_execution_module and (
                resolved in derivers or resolved in deriver_tails
            ):
                yield self.diagnostic(
                    ctx,
                    node,
                    f"`{resolved}` called from a task-execution module; seeds "
                    "derive at plan time (plan_sweep_tasks) only",
                )
