"""Seeded RNG, maxmin landmark picking, random subsampling."""

import numpy as np
import pytest

from topoperiod import NTooLargeError, PointCloud, maxmin, random_subsample
from topoperiod.subsampling import SplitMix64

from oracles import maxmin_brute, random_subsample_list


def _random_cloud(seed: int, count: int, dim: int = 2) -> PointCloud:
    rng = SplitMix64(seed)
    pts = np.array(
        [[(rng.next_u64() >> 11) / 2**53 for _ in range(dim)] for _ in range(count)]
    )
    return PointCloud(pts)


def _covering_radius(cloud: PointCloud, sub: PointCloud) -> float:
    from scipy.spatial.distance import cdist

    return float(cdist(cloud.points, sub.points).min(axis=1).max())


class TestSplitMix64:
    def test_known_first_output(self):
        # Standard reference value for this generator seeded with zero.
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

    def test_below_range_and_determinism(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        xs = [a.below(7) for _ in range(200)]
        ys = [b.below(7) for _ in range(200)]
        assert xs == ys
        assert set(xs) <= set(range(7))

    def test_streams_differ_by_seed(self):
        assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()

    def test_below_rejects_an_empty_range(self):
        with pytest.raises(ValueError, match="bound must be positive"):
            SplitMix64(0).below(0)


class TestMaxmin:
    def test_three_collinear_points(self):
        cloud = PointCloud(np.array([[0.0], [1.0], [10.0]]))
        sub = maxmin(cloud, 2, seed=3)
        got = sorted(sub.points[:, 0].tolist())
        assert got == [0.0, 10.0]

    def test_square_with_center(self):
        pts = np.array(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
        )
        sub = maxmin(PointCloud(pts), 4, seed=1)
        got = {tuple(p) for p in sub.points.tolist()}
        assert got == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}

    def test_full_size_is_permutation(self):
        cloud = _random_cloud(100, 12)
        sub = maxmin(cloud, 12, seed=5)
        assert sorted(map(tuple, sub.points.tolist())) == sorted(
            map(tuple, cloud.points.tolist())
        )

    def test_matches_reference_implementation(self):
        for seed in range(8):
            cloud = _random_cloud(200 + seed, 30)
            sub = maxmin(cloud, 9, seed=seed)
            expect = maxmin_brute(cloud.points, 9, seed)
            assert np.array_equal(sub.points, expect)

    def test_covers_better_than_random_on_average(self):
        cloud = _random_cloud(77, 150)
        n = 12
        mm = _covering_radius(cloud, maxmin(cloud, n, seed=0))
        rand = np.mean(
            [
                _covering_radius(cloud, random_subsample(cloud, n, seed=s))
                for s in range(20)
            ]
        )
        assert mm <= rand

    def test_determinism(self):
        cloud = _random_cloud(9, 40)
        a = maxmin(cloud, 10, seed=4)
        b = maxmin(cloud, 10, seed=4)
        assert np.array_equal(a.points, b.points)

    def test_oversized_request_rejected(self):
        cloud = _random_cloud(1, 5)
        with pytest.raises(NTooLargeError):
            maxmin(cloud, 6, seed=0)

    def test_nonpositive_request_rejected(self):
        cloud = _random_cloud(1, 5)
        with pytest.raises(ValueError):
            maxmin(cloud, 0, seed=0)

    def test_overflowing_distance_rejected(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [1e200, 0.0], [-1e200, 0.0]]))
        with pytest.raises(ValueError, match="distance overflow"):
            maxmin(cloud, 2, seed=0)


class TestRandomSubsample:
    def test_subset_and_distinct(self):
        cloud = _random_cloud(55, 60)
        sub = random_subsample(cloud, 25, seed=1)
        assert len(sub) == 25
        pool = {tuple(p) for p in cloud.points.tolist()}
        picked = [tuple(p) for p in sub.points.tolist()]
        assert set(picked) <= pool
        assert len(set(picked)) == 25

    def test_determinism_and_seed_sensitivity(self):
        cloud = _random_cloud(56, 60)
        a = random_subsample(cloud, 20, seed=7)
        b = random_subsample(cloud, 20, seed=7)
        c = random_subsample(cloud, 20, seed=8)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_full_size_is_permutation(self):
        cloud = _random_cloud(57, 15)
        sub = random_subsample(cloud, 15, seed=2)
        assert sorted(map(tuple, sub.points.tolist())) == sorted(
            map(tuple, cloud.points.tolist())
        )

    def test_oversized_request_rejected(self):
        cloud = _random_cloud(58, 5)
        with pytest.raises(NTooLargeError):
            random_subsample(cloud, 6, seed=0)

    def test_nonpositive_request_rejected(self):
        cloud = _random_cloud(59, 5)
        with pytest.raises(ValueError):
            random_subsample(cloud, -1, seed=0)

    @pytest.mark.parametrize("total", [100, 257, 1000])
    def test_matches_full_list_oracle(self, total):
        cloud = _random_cloud(60 + total, total)
        for seed in (0, 1, 7, 12345, 2**40 + 3):
            for n in (1, 5, 100, total):
                got = random_subsample(cloud, n, seed=seed)
                want = random_subsample_list(cloud.points, n, seed)
                assert np.array_equal(got.points, want), (seed, n)
