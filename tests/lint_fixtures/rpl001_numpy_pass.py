# repro-lint-fixture: path=src/repro/graphs/demo.py
# expect: none
"""Seeded numpy generators and their methods are the supported pattern."""

import numpy as np
from numpy.random import MT19937, Generator

from repro.rng import python_mt19937


def sample(nodes, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(nodes))
    draws = python_mt19937(seed).random(len(nodes))
    bits = Generator(MT19937(seed=seed)).integers(0, 2**32)
    return order, draws, bits
