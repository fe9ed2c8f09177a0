"""Seeded randomness helpers.

All randomized components of the library accept either an integer seed or a
:class:`random.Random` instance.  These helpers normalise the two forms and
derive independent per-node generators from a single master seed so that
simulations are reproducible while still giving every node its own private
source of randomness (as the SLEEPING-CONGEST model requires).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional, Set, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy

SeedLike = Union[int, random.Random, None]

#: Large prime used to decorrelate derived seeds.
_DERIVE_PRIME = 2_147_483_647


def make_rng(seed: SeedLike = None) -> random.Random:
    """Return a :class:`random.Random` for *seed*.

    ``None`` produces an OS-seeded generator, an ``int`` produces a
    deterministic generator, and an existing :class:`random.Random` is
    returned unchanged (so callers can share a generator).
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def derive_seed(master: SeedLike, index: int) -> int:
    """Derive a deterministic child seed from *master* for entity *index*.

    Used to give each simulated node an independent private generator that is
    nevertheless fully determined by the run's master seed.
    """
    if isinstance(master, random.Random):
        # Draw a base value once per call; deterministic given generator state.
        base = master.randrange(2**63)
    elif master is None:
        base = random.randrange(2**63)
    else:
        base = int(master)
    return (base * _DERIVE_PRIME + 0x9E3779B9 * (index + 1)) % (2**63)


def spawn_rng(master: SeedLike, index: int) -> random.Random:
    """Return an independent generator for entity *index* under *master*."""
    return random.Random(derive_seed(master, index))


def spawn_rngs(master: SeedLike, count: int) -> List[random.Random]:
    """Spawn *count* generators for indices ``0..count-1`` under *master*.

    Bit-for-bit identical to ``[spawn_rng(master, i) for i in range(count)]``
    — the batched path below only rearranges the seed arithmetic — but much
    faster for integer masters, because the derived seeds are computed as
    one numpy array operation and the generators are seeded through the C
    layer directly.  ``Random`` and ``None`` masters draw a fresh base per
    index, so they keep the per-index loop.
    """
    if not isinstance(master, int):
        return [spawn_rng(master, index) for index in range(count)]
    base = int(master) * _DERIVE_PRIME
    golden = 0x9E3779B9
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy-less hosts
        np = None
    if np is None or count < 1024:
        return [
            random.Random((base + golden * (index + 1)) % (2**63))
            for index in range(count)
        ]
    # (x % 2**63) == (x mod 2**64) & (2**63 - 1): uint64 wraparound
    # arithmetic followed by a mask reproduces derive_seed exactly.
    seeds = (
        np.uint64(base % 2**64)
        + np.uint64(golden) * np.arange(1, count + 1, dtype=np.uint64)
    ) & np.uint64(2**63 - 1)
    try:
        import _random
    except ImportError:  # pragma: no cover - non-CPython runtimes
        return list(map(random.Random, seeds.tolist()))
    # random.Random(s) is __new__ + the pure-Python seed() wrapper, which
    # only version-checks, calls the C seed, and resets gauss_next — doing
    # those three steps directly halves construction time at 20k+ nodes.
    # Equivalence (getstate() included) is pinned by tests/test_rng.py.
    new = random.Random.__new__
    cls = random.Random
    c_seed = _random.Random.seed
    rngs: List[random.Random] = []
    append = rngs.append
    for value in seeds.tolist():
        rng = new(cls)
        c_seed(rng, value)
        rng.gauss_next = None
        append(rng)
    return rngs


def python_mt19937(seed: int) -> "numpy.random.Generator":
    """Return a numpy generator that replays ``random.Random(seed)``'s stream.

    Both are MT19937 and CPython seeds through ``init_by_array``, so loading
    the stdlib state into numpy's bit generator makes ``integers(0, 2**32,
    dtype=uint32)`` yield the same words and ``random()`` the same doubles
    (numpy's ``next_double`` is CPython's ``genrand_res53``).
    """
    import numpy as np

    *key, pos = random.Random(seed).getstate()[1]
    bit_generator = np.random.MT19937()
    bit_generator.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(key, dtype=np.uint32), "pos": pos},
    }
    return np.random.Generator(bit_generator)


def random_unique_ids(
    count: int, id_space: int, rng: Optional[random.Random] = None
) -> List[int]:
    """Sample *count* distinct integer IDs from ``[1, id_space]``.

    The paper's algorithms assume unique IDs drawn from a range ``[1, I]``
    that may be polynomially (or more) larger than the number of nodes.  IDs
    are sampled without replacement.
    """
    if count > id_space:
        raise ValueError(
            f"cannot draw {count} unique ids from a space of size {id_space}"
        )
    rng = rng or random.Random()
    if id_space <= 4 * count:
        population = list(range(1, id_space + 1))
        return rng.sample(population, count)
    chosen: Set[int] = set()
    while len(chosen) < count:
        chosen.add(rng.randint(1, id_space))
    result = list(chosen)
    rng.shuffle(result)
    return result
