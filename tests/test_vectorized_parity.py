"""The waterfill fills checked against an exact water-level oracle.

The fluid layer allocates rates with the sequential progressive fills
:func:`waterfill` and :func:`waterfill_weighted` only, at every flow count.
These cases pin them to the definition of weighted max-min fairness, computed
independently in exact rational arithmetic: each consumer gets
``min(cap_i, w_i * L)`` for the one water level ``L`` that spends the whole
capacity (or every cap binds first).  The sweep reaches 100-10,000 consumers,
well past anything a node resource carries in the paper workloads.

(The module name dates from when these cases compared an array twin of the
fill with the scalar one; DESIGN.md §14 records why that twin was removed.)
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.simulate.resources import waterfill, waterfill_weighted


def _oracle(
    capacity: float, caps: list[float | None], weights: list[float] | None = None
) -> list[float]:
    """Exact weighted max-min fair rates, found by raising the water level.

    Consumers whose cap binds at the current level are fixed at their cap and
    the level is recomputed over the rest; fixing them can only raise the
    level, so a consumer once fixed stays fixed.
    """
    n = len(caps)
    w = [Fraction(1)] * n if weights is None else [Fraction(x) for x in weights]
    cap = [None if c is None else Fraction(c) for c in caps]
    left = Fraction(capacity)
    free = set(range(n))
    level = Fraction(0)
    while free:
        level = left / sum(w[i] for i in free)
        binding = [i for i in free if cap[i] is not None and cap[i] <= w[i] * level]
        if not binding:
            break
        for i in binding:
            free.remove(i)
            left -= cap[i]
    return [float(w[i] * level) if i in free else float(cap[i]) for i in range(n)]


def _check(got: list[float], capacity: float, caps, weights=None) -> None:
    # The fills stop handing out capacity once under 1e-12 is left, so the
    # absolute tolerance covers that residue; the relative one covers
    # rounding along the sequential division chain.
    assert len(got) == len(caps)
    assert got == pytest.approx(_oracle(capacity, caps, weights), rel=1e-9, abs=1e-9)
    assert sum(got) <= capacity * (1 + 1e-12)
    for r, c in zip(got, caps):
        assert r >= 0.0
        assert c is None or r <= c


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
    """Seeded property sweep: the fills equal the exact oracle."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 24, 25, 100])
    def test_capped_mix(self, seed, n):
        rng = random.Random(1000 * seed + n)
        caps = _random_caps(rng, n)
        capacity = rng.uniform(0.01, 3.0 * n)
        _check(waterfill(capacity, caps), capacity, caps)

    @pytest.mark.parametrize("n", [1, 2, 24, 1000, 10_000])
    def test_all_uncapped(self, n):
        # The common compute-flow shape: nobody clipped, pure division chain.
        capacity = 123.456
        _check(waterfill(capacity, [None] * n), capacity, [None] * n)

    def test_all_caps_zero(self):
        caps = [0.0] * 8
        assert waterfill(5.0, caps) == [0.0] * 8

    def test_single_flow(self):
        assert waterfill(7.5, [None]) == [7.5]
        assert waterfill(7.5, [2.0]) == [2.0]

    def test_capacity_exhausted_early(self):
        # Tiny capacity: the <=EPS early-out triggers before anyone is served.
        caps = [1.0, None, 0.5, None]
        assert waterfill(1e-12, caps) == [0.0] * 4
        _check(waterfill(1.0, caps), 1.0, caps)

    @pytest.mark.parametrize("n", [1, 2, 24, 10_000])
    def test_large_uniform_caps(self, n):
        # Every cap binds exactly: capacity is twice the sum of the caps.
        caps = [0.25] * n
        assert waterfill(0.5 * n, caps) == caps

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 24, 100])
    def test_weighted_mix(self, seed, n):
        rng = random.Random(9000 * seed + n)
        caps = _random_caps(rng, n)
        weights = [rng.uniform(0.1, 5.0) for _ in range(n)]
        capacity = rng.uniform(0.01, 3.0 * n)
        _check(waterfill_weighted(capacity, caps, weights), capacity, caps, weights)

    def test_weighted_equal_weights_degenerates(self):
        caps = [1.0, None, 0.0, 3.0, None]
        got = waterfill_weighted(10.0, caps, [1.0] * 5)
        assert got == waterfill(10.0, caps)
        _check(got, 10.0, caps)

    def test_duplicate_caps_stable_order(self):
        # No cap binds, so the fill is the plain division chain, handed out
        # in stable cap order: the tied caps in input order, then the
        # uncapped consumers.
        caps = [2.0, 2.0, None, 2.0, None, 2.0]
        got = waterfill(7.0, caps)
        _check(got, 7.0, caps)
        chain = waterfill(7.0, [None] * 6)
        assert [got[i] for i in (0, 1, 3, 5, 2, 4)] == chain
