"""Point cloud subsampling: greedy farthest-point and seeded random.

Both samplers draw randomness from a small splitmix-style 64-bit mixer
implemented here, so identical (cloud, n, seed) inputs give identical
output on every platform, independent of numpy's generator internals.
"""

from __future__ import annotations

import numpy as np

from .embedding import PointCloud
from .errors import NTooLargeError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Deterministic 64-bit mixing generator.

    State advances by the golden-ratio increment and each output is
    finalized with two xor-multiply rounds. Small, seedable, and stable
    across platforms, which is all the samplers need.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """A value in [0, n) via the multiply-high reduction."""
        if n <= 0:
            raise ValueError("bound must be positive")
        return (self.next_u64() * n) >> 64


def _checked_total(cloud: PointCloud, n: int) -> int:
    """The cloud's size, once a subsample of n points is known to fit in it."""
    total = len(cloud)
    if n < 1:
        raise ValueError("subsample size must be at least 1")
    if n > total:
        raise NTooLargeError(f"requested {n} points from a cloud of {total}")
    return total


def maxmin(cloud: PointCloud, n: int, seed: int = 0) -> PointCloud:
    """Greedy farthest-point subsample of size n, in selection order.

    The first point is drawn uniformly from the seed; each following pick
    maximizes the distance to everything already chosen, ties resolved
    toward the lowest index. The result spreads points close to evenly
    over the cloud, so it covers the cloud at least as well as a random
    pick of the same size on average. Raises ValueError when a distance
    it computes overflows float64.
    """
    total = _checked_total(cloud, n)
    pts = cloud.points
    rng = SplitMix64(seed)
    chosen = [rng.below(total)]
    # Kept on np.linalg.norm rather than embedding.pairwise: the norm sums
    # 8 or more coordinates pairwise, not in order, so on clouds of 8+
    # dimensions the two differ in the last bit, and switching could
    # change which points are picked, and with them the subsample's bytes.
    # Coordinates are finite, so a norm is inf only by overflow; that
    # raises rather than sending argmax to the first infinite distance.
    try:
        with np.errstate(over="raise"):
            mind = np.linalg.norm(pts - pts[chosen[0]], axis=1)
            for _ in range(n - 1):
                nxt = int(np.argmax(mind))  # argmax takes the first max: lowest index
                chosen.append(nxt)
                np.minimum(mind, np.linalg.norm(pts - pts[nxt], axis=1), out=mind)
    except FloatingPointError:
        raise ValueError("distance overflow: points about 1e154 or more apart") from None
    return PointCloud(pts[chosen])


def random_subsample(cloud: PointCloud, n: int, seed: int = 0) -> PointCloud:
    """Seeded uniform subsample without replacement, in selection order."""
    total = _checked_total(cloud, n)
    rng = SplitMix64(seed)
    # Partial Fisher-Yates over a virtual index list: ``moved`` holds only
    # the slots a swap has changed, so the cost is O(n), not O(total).
    moved: dict[int, int] = {}
    picks = []
    for i in range(n):
        j = i + rng.below(total - i)
        picks.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return PointCloud(cloud.points[picks])
