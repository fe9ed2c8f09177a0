# repro-lint-fixture: path=src/repro/graphs/demo.py
# expect: RPL001:10 RPL001:11 RPL001:12 RPL001:13 RPL001:14 RPL001:18 RPL001:19 RPL001:20
"""Unseeded numpy generators and numpy's legacy global generator are flagged."""

import numpy as np
import numpy.random as npr
from numpy.random import PCG64, default_rng


rng = np.random.default_rng()
bits = np.random.MT19937()
state = npr.RandomState()
pcg = PCG64()
other = default_rng()


def noisy(nodes):
    np.random.seed(3)
    np.random.shuffle(nodes)
    return npr.rand(len(nodes))
