"""Deterministic seeded sampling.

Every randomized check in the workbench draws from a per-trial stream
keyed by (seed, labels, counter), so results are reproducible under a
fixed seed and independent of evaluation order.  CPython seeds Random
from strings via SHA-512, which is stable across runs and platforms.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import islice


def rng_stream(seed: int, *labels: object) -> random.Random:
    key = "argshift|" + "|".join(str(x) for x in (seed,) + labels)
    return random.Random(key)


def integer_coords(rng: random.Random, dim: int, bound: int,
                   nonzero: bool = True) -> tuple[int, ...]:
    """Integer coordinates in [-bound, bound], redrawn until some
    coordinate is nonzero unless nonzero is False, drawn as randint draws
    them, by rejection on getrandbits (oracle: randint_coords)."""
    if bound < 1:
        raise ValueError("bound must be positive")
    if nonzero and dim < 1:
        raise ValueError("no nonzero point in dimension 0")
    w = 2 * bound + 1
    draws = filter(w.__gt__, iter(partial(rng.getrandbits, w.bit_length()), -1))
    while True:
        pt = tuple(map((-bound).__add__, islice(draws, dim)))
        if not nonzero or any(pt):
            return pt

