"""repro — reproduction of "Distributed MIS in O(log log n) Awake Complexity".

The package implements, from scratch in Python:

* a **SLEEPING-CONGEST simulator** (:mod:`repro.sim`) that measures awake and
  round complexity exactly as the paper defines them,
* the paper's algorithms (:mod:`repro.algorithms`): ``VT-MIS``, ``LDT-MIS``,
  ``LDT-MIS-ROUND`` and the main ``Awake-MIS``, plus the baselines the paper
  compares against (Luby, naive greedy, an O(log n)-awake sleeping baseline),
* the supporting machinery: virtual binary trees, labeled distance trees with
  their transmission-schedule procedures, sequential randomized greedy MIS,
  residual sparsity and shattering analyses (:mod:`repro.core`,
  :mod:`repro.ldt`, :mod:`repro.analysis`),
* workload generators (:mod:`repro.graphs`) and an experiment harness
  (:mod:`repro.experiments`) that regenerates every claim catalogued in
  ``DESIGN.md`` §3.

Quickstart
----------

>>> from repro import graphs, run_mis
>>> graph = graphs.gnp_graph(200, expected_degree=8, seed=1)
>>> result = run_mis(graph, algorithm="awake_mis", seed=1)
>>> result.verified, result.metrics.awake_complexity  # doctest: +SKIP
(True, 47)
"""

from repro._version import __version__
from repro.experiments.harness import available_algorithms, run_mis

__all__ = ["__version__", "available_algorithms", "run_mis"]
