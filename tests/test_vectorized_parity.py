"""Bit-for-bit parity between the vectorized waterfill and its scalar
reference (DESIGN.md §14).

The simulator's golden traces only stay byte-identical if the array code
replays the scalar float sequences exactly, so these tests compare with
``==`` on every element — no tolerances anywhere.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.simulate.resources import (
    waterfill,
    waterfill_into,
    waterfill_weighted,
    waterfill_weighted_into,
)

_INF = math.inf


def _vec_waterfill(capacity: float, caps: list[float | None]) -> list[float]:
    arr = np.array([_INF if c is None else c for c in caps], dtype=np.float64)
    out = np.empty(len(caps), dtype=np.float64)
    waterfill_into(capacity, arr, out)
    return [float(x) for x in out]


def _vec_weighted(
    capacity: float, caps: list[float | None], weights: list[float]
) -> list[float]:
    arr = np.array([_INF if c is None else c for c in caps], dtype=np.float64)
    w = np.array(weights, dtype=np.float64)
    out = np.empty(len(caps), dtype=np.float64)
    waterfill_weighted_into(capacity, arr, w, out)
    return [float(x) for x in out]


def _random_caps(rng: random.Random, n: int) -> list[float | None]:
    caps: list[float | None] = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.3:
            caps.append(None)  # uncapped
        elif roll < 0.4:
            caps.append(0.0)  # fully saturated consumer
        else:
            caps.append(rng.uniform(0.0, 4.0))
    return caps


class TestWaterfillParity:
    """Seeded property sweep: vectorized == scalar, element by element."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 24, 25, 100])
    def test_capped_mix(self, seed, n):
        rng = random.Random(1000 * seed + n)
        caps = _random_caps(rng, n)
        capacity = rng.uniform(0.01, 3.0 * n)
        assert _vec_waterfill(capacity, caps) == waterfill(capacity, caps)

    @pytest.mark.parametrize("n", [1, 2, 24, 1000, 10_000])
    def test_all_uncapped(self, n):
        # The common compute-flow shape: nobody clipped, pure division chain.
        capacity = 123.456
        assert _vec_waterfill(capacity, [None] * n) == waterfill(
            capacity, [None] * n
        )

    def test_all_caps_zero(self):
        caps = [0.0] * 8
        assert _vec_waterfill(5.0, caps) == waterfill(5.0, caps) == [0.0] * 8

    def test_single_flow(self):
        assert _vec_waterfill(7.5, [None]) == waterfill(7.5, [None]) == [7.5]
        assert _vec_waterfill(7.5, [2.0]) == waterfill(7.5, [2.0]) == [2.0]

    def test_capacity_exhausted_early(self):
        # Tiny capacity: the <=EPS early-out triggers mid-fill on both paths.
        caps = [1.0, None, 0.5, None]
        assert _vec_waterfill(1e-12, caps) == waterfill(1e-12, caps)
        assert _vec_waterfill(1.0, caps) == waterfill(1.0, caps)

    @pytest.mark.parametrize("n", [1, 2, 24, 10_000])
    def test_large_uniform_caps(self, n):
        # Every cap binds: the clipped prefix covers the whole sorted order.
        caps = [0.25] * n
        capacity = 0.5 * n
        assert _vec_waterfill(capacity, caps) == waterfill(capacity, caps)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 24, 100])
    def test_weighted_mix(self, seed, n):
        rng = random.Random(9000 * seed + n)
        caps = _random_caps(rng, n)
        weights = [rng.uniform(0.1, 5.0) for _ in range(n)]
        capacity = rng.uniform(0.01, 3.0 * n)
        assert _vec_weighted(capacity, caps, weights) == waterfill_weighted(
            capacity, caps, weights
        )

    def test_weighted_equal_weights_degenerates(self):
        caps = [1.0, None, 0.0, 3.0, None]
        got = _vec_weighted(10.0, caps, [1.0] * 5)
        assert got == waterfill_weighted(10.0, caps, [1.0] * 5)

    def test_duplicate_caps_stable_order(self):
        # Ties in the sort key must resolve in input order on both paths.
        caps = [2.0, 2.0, None, 2.0, None, 2.0]
        assert _vec_waterfill(7.0, caps) == waterfill(7.0, caps)
