"""Seeded inputs for the end-to-end benchmark.

Every array a workload feeds the program comes from here, derived from the
run's ``--seed`` alone: the same seed gives bit-identical inputs, another
seed gives other inputs of the same shape.  The program under test receives
only these arrays.

The series are multi-periodic plus noise, with level shifts and spikes at
seeded positions: level shifts and spikes move the window the search picks,
which is what makes warm-started searches fall back, so a stream that never
drifts would hide that path.
"""

from __future__ import annotations

import numpy as np

#: Points per aggregated pane, shared by every streaming workload.
PANE_SIZE = 10

#: Per-stream history lengths are staggered by this many points times
#: ``stream % 10``, so refresh boundaries land at ten different offsets inside
#: an ingest batch: some inline, one at the batch end (deferred to the tick).
STAGGER = PANE_SIZE


def series(seed: int, stream: int, n: int) -> np.ndarray:
    """One stream's values: two periods, noise, level shifts and spikes."""
    rng = np.random.default_rng([seed, stream])
    t = np.arange(n, dtype=np.float64)
    fast, slow = rng.uniform(150.0, 600.0), rng.uniform(1500.0, 5000.0)
    values = (
        rng.uniform(0.5, 1.5) * np.sin(2 * np.pi * t / fast + rng.uniform(0, 2 * np.pi))
        + rng.uniform(0.5, 2.0) * np.sin(2 * np.pi * t / slow + rng.uniform(0, 2 * np.pi))
        + rng.normal(0.0, 0.3, n)
    )
    shifts = np.zeros(n)
    count = rng.poisson(n / 4000)
    np.add.at(shifts, rng.integers(0, n, count), rng.normal(0.0, 1.5, count))
    values += np.cumsum(shifts)
    count = rng.poisson(n / 1500)
    values[rng.integers(0, n, count)] += rng.choice([-1.0, 1.0], count) * rng.uniform(
        3.0, 6.0, count
    )
    return values


class StreamInputs:
    """History plus a pool of future rounds for each of ``streams`` streams.

    Round ``r`` of stream ``i`` carries ``round_points`` points with
    timestamps continuing the history at cadence 1; its values cycle through
    a pool of ``pool_rounds`` generated rounds, so a long run needs no more
    memory than a short one.  With ``messy=True`` each pooled round is shuffled
    within blocks of 8 points (inside a 16-point watermark) with probability
    1%, and each value is NaN with probability 0.5%.
    """

    def __init__(
        self,
        seed: int,
        streams: int,
        history: int,
        round_points: int,
        pool_rounds: int,
        messy: bool = False,
    ) -> None:
        self.round_points = round_points
        self.pool_rounds = pool_rounds
        self._histories: list[np.ndarray] = []
        self._pools: list[np.ndarray] = []
        self._orders: list[np.ndarray | None] = []
        self._offsets = np.arange(round_points, dtype=np.float64)
        for i in range(streams):
            length = history + STAGGER * (i % 10)
            values = series(seed, i, length + round_points * pool_rounds)
            self._histories.append(values[:length])
            pool = values[length:].reshape(pool_rounds, round_points).copy()
            orders = None
            if messy:
                rng = np.random.default_rng([seed, i, 1])
                orders = np.tile(np.arange(round_points), (pool_rounds, 1))
                for r in np.flatnonzero(rng.random(pool_rounds) < 0.01):
                    for start in range(0, round_points, 8):
                        orders[r, start : start + 8] = rng.permutation(orders[r, start : start + 8])
                pool[rng.random(pool.shape) < 0.005] = np.nan
            self._pools.append(pool)
            self._orders.append(orders)

    def stream_id(self, i: int) -> str:
        return f"s{i:02d}"

    def history(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        values = self._histories[i]
        return np.arange(values.size, dtype=np.float64), values

    def batch(self, i: int, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Round ``r`` of stream ``i`` as ``(timestamps, values)`` in arrival order."""
        slot = r % self.pool_rounds
        timestamps = self._histories[i].size + r * self.round_points + self._offsets
        values = self._pools[i][slot]
        orders = self._orders[i]
        if orders is None:
            return timestamps, values
        return timestamps[orders[slot]], values[orders[slot]]


class BatchInputs:
    """Dashboard batches of ``size`` series drawn from a generated pool.

    Batch ``b`` is the second half of batch ``b - 1`` followed by ``size / 2``
    series no engine has seen (a pool series plus the offset ``b``, so its
    content, and with it the ACF-cache key, is new).  Half of every batch
    after the first therefore repeats unchanged, and half is unseen.  A run
    cycles through the whole pool, so the pool's size sets how much a run's
    search work depends on the seed: about 6% between seeds at 96 series,
    10% at 48 (quartile spread of candidates evaluated over ten seeds).
    """

    def __init__(self, seed: int, size: int = 24, points: int = 20_000, pool: int = 96) -> None:
        self.half = size // 2
        self._pool = [series(seed, 1000 + j, points) for j in range(pool)]

    def unseen(self, b: int) -> list[np.ndarray]:
        count = len(self._pool)
        return [self._pool[(self.half * b + k) % count] + float(b) for k in range(self.half)]

    def batch(self, b: int, previous: list[np.ndarray] | None = None) -> list[np.ndarray]:
        """Batch ``b``; pass batch ``b - 1`` to reuse its arrays for the repeat half."""
        repeat = previous[self.half :] if previous is not None else self.unseen(b - 1)
        return repeat + self.unseen(b)
