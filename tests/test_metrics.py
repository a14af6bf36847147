"""Hausdorff distance on clouds, bottleneck distance on diagrams."""

import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from topoperiod import (
    DimensionMismatchError,
    EmptyCloudError,
    PersistenceDiagram,
    PersistenceInterval,
    PointCloud,
    bottleneck,
    delay_embed,
    find_delay,
    h1_diagram,
    hausdorff,
    normalize,
    random_subsample,
    synthesize,
)
from topoperiod import metrics
from topoperiod.embedding import pairwise
from topoperiod.subsampling import SplitMix64

from fixtures import noise_signal, wheeze_model
from oracles import bottleneck_exhaustive, bottleneck_kuhn, hausdorff_brute


def _random_cloud(seed: int, count: int, dim: int = 2) -> PointCloud:
    rng = SplitMix64(seed)
    pts = np.array(
        [[(rng.next_u64() >> 11) / 2**53 for _ in range(dim)] for _ in range(count)]
    )
    return PointCloud(pts)


def _full_tree(p: np.ndarray, q: np.ndarray) -> float:
    """The largest nearest-neighbor distance from p into q, every point queried."""
    tree = cKDTree(q, balanced_tree=False, compact_nodes=False)
    return float(tree.query(p)[0].max())


def _cloud_pair(seed: int, dim: int, n: int, m: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Two clouds of n and m points: Gaussian, half-integer (ties),
    duplicated points, or a graph-like signal and a perturbed copy on
    the same time grid."""
    rng = np.random.default_rng(seed)
    if kind == "gauss":
        return rng.normal(size=(n, dim)), rng.normal(size=(m, dim))
    if kind == "half":
        return np.round(rng.normal(size=(n, dim)) * 4) / 2, np.round(rng.normal(size=(m, dim)) * 4) / 2
    if kind == "dup":
        base = rng.normal(size=(max(1, min(n, m) // 3), dim))
        return base[rng.integers(0, len(base), n)], base[rng.integers(0, len(base), m)]
    t = np.arange(max(n, m), dtype=float)[:, None] / 4000.0
    x = np.sin(2 * np.pi * rng.uniform(50, 500, dim - 1) * t + rng.uniform(0, 6, dim - 1))
    p = np.hstack((t, x))
    q = p + np.hstack((np.zeros_like(t), rng.normal(scale=10.0 ** rng.uniform(-8, -1), size=x.shape)))
    return p[:n], q[:m]


def _diagram(pairs: list[tuple[float, float]], dim: int = 1) -> PersistenceDiagram:
    return PersistenceDiagram(
        tuple(PersistenceInterval(dim, b, d) for b, d in pairs)
    )


def _pairs(diagram: PersistenceDiagram, dim: int = 1) -> list[tuple[float, float]]:
    return [(iv.birth, iv.death) for iv in diagram.in_dim(dim)]


def _grid_diagram(rng: SplitMix64, count: int) -> PersistenceDiagram:
    """Small-integer endpoints, so costs tie; about one in four has zero length."""
    ivs = []
    for _ in range(count):
        b = float(rng.below(9))
        ivs.append(PersistenceInterval(1, b, b + float(rng.below(4))))
    return PersistenceDiagram(tuple(ivs))


def _embedding_diagram(signal, seed: int) -> PersistenceDiagram:
    normed = normalize(signal)
    return h1_diagram(random_subsample(delay_embed(normed, find_delay(normed)), 60, seed))


# Endpoints on a half-integer grid, so costs tie; death == birth is allowed.
_grid_intervals = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 4)).map(lambda p: (p[0] / 2, (p[0] + p[1]) / 2)),
    max_size=4,
)
_essential_births = st.lists(st.integers(0, 8).map(lambda k: (k / 2, math.inf)), max_size=1)


def _random_diagram(seed: int, count: int, essentials: int = 0) -> PersistenceDiagram:
    rng = SplitMix64(seed)
    ivs = []
    for _ in range(count):
        b = (rng.next_u64() >> 11) / 2**53
        d = b + (rng.next_u64() >> 11) / 2**53
        ivs.append(PersistenceInterval(1, b, d))
    for _ in range(essentials):
        ivs.append(PersistenceInterval(1, (rng.next_u64() >> 11) / 2**53, math.inf))
    return PersistenceDiagram(tuple(ivs))


class TestHausdorff:
    def test_identical_clouds(self):
        cloud = _random_cloud(1, 9)
        assert hausdorff(cloud, cloud) == 0.0

    def test_single_pair(self):
        a = PointCloud(np.array([[0.0, 0.0]]))
        b = PointCloud(np.array([[3.0, 4.0]]))
        assert hausdorff(a, b) == 5.0

    def test_asymmetric_direction_dominates(self):
        a = PointCloud(np.array([[0.0], [1.0]]))
        b = PointCloud(np.array([[0.0], [1.0], [10.0]]))
        assert hausdorff(a, b) == 9.0

    def test_matches_reference_implementation(self):
        for seed in range(10):
            a = _random_cloud(100 + seed, 12 + seed)
            b = _random_cloud(200 + seed, 9 + seed)
            assert hausdorff(a, b) == pytest.approx(
                hausdorff_brute(a.points, b.points), abs=1e-12
            )

    def test_metric_axioms(self):
        clouds = [_random_cloud(300 + s, 8 + s) for s in range(3)]
        a, b, c = clouds
        assert hausdorff(a, b) == hausdorff(b, a)
        assert hausdorff(a, a) == 0.0
        assert hausdorff(a, b) > 0.0
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12

    def test_tree_path_matches_direct_path(self):
        # Grids large enough to cross the pair-count cutoff take the
        # nearest-neighbor tree route; a shifted copy has a known answer.
        g = np.stack(
            np.meshgrid(np.arange(50, dtype=float), np.arange(42, dtype=float)),
            axis=-1,
        ).reshape(-1, 2)
        a = PointCloud(g)
        b = PointCloud(g + np.array([0.3, 0.4]))
        assert len(a) * len(b) > metrics._TREE_PAIRS
        assert hausdorff(a, b) == pytest.approx(0.5, abs=1e-12)

        small_a = PointCloud(g[:200])
        small_b = PointCloud(g[:200] + np.array([0.3, 0.4]))
        assert hausdorff(small_a, small_b) == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 300),
        st.integers(1, 300),
        st.sampled_from(["gauss", "half", "dup", "graph"]),
        st.sampled_from([1, 5, 128]),
    )
    def test_pruned_tree_equals_full_query(self, seed, dim, n, m, kind, seeds):
        # The tree branch forced on small clouds, with fewer seed queries
        # too, so that the pruning runs on clouds of a few points.
        p, q = _cloud_pair(seed, dim, n, m, kind)
        want = max(_full_tree(p, q), _full_tree(q, p))
        with mock.patch.object(metrics, "_TREE_PAIRS", 0), \
                mock.patch.object(metrics, "_SEED_QUERIES", seeds):
            got = hausdorff(PointCloud(p), PointCloud(q))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @mock.patch.object(metrics, "_SEED_QUERIES", 1)
    def test_partner_bound_equal_to_the_lower_bound(self):
        # p[0] is the one seed: its partner bound is 100 and its nearest
        # distance L = 5. p[1]'s partner bound is exactly L * L = 25, and
        # its nearest distance is L too.
        p = np.array([[0.0, 0.0], [3.0, -1.0], [100.0, 100.0]])
        q = np.array([[0.0, 10.0], [3.0, 4.0], [100.0, 100.0]])
        assert metrics._directed_tree(p, q) == _full_tree(p, q) == 5.0
        p[1] = [3.0, -2.0]
        assert metrics._directed_tree(p, q) == _full_tree(p, q) == 6.0

    def test_no_more_points_than_seed_queries(self):
        p, q = _cloud_pair(3, 4, metrics._SEED_QUERIES, 5000, "gauss")
        assert metrics._directed_tree(p, q) == _full_tree(p, q)
        assert metrics._directed_tree(p[:3], q) == _full_tree(p[:3], q)

    def test_tree_branch_equals_full_query_on_signal_graphs(self):
        # A noisy tone and its smoothed copy on one 4 kHz grid, past the
        # fork: the graph pairs the model residual compares.
        rng = np.random.default_rng(7)
        t = np.arange(2500) / 4000.0
        x = np.sin(2 * np.pi * 300 * t) + rng.normal(scale=0.01, size=t.size)
        p = np.column_stack((t, x))
        q = np.column_stack((t, np.convolve(x, np.ones(3) / 3, "same")))
        assert len(p) * len(q) > metrics._TREE_PAIRS
        want = max(_full_tree(p, q), _full_tree(q, p))
        assert hausdorff(PointCloud(p), PointCloud(q)) == want

    @pytest.mark.parametrize("block", [1, 7, 1000, 1 << 16])
    def test_blocked_direct_branch_equals_full_matrix(self, block):
        for dim, n, m in [(1, 37, 400), (2, 300, 250), (9, 120, 90), (3, 1, 50)]:
            p, q = _cloud_pair(dim * n, dim, n, m, "gauss")
            d = pairwise(p, q)
            want = max(d.min(axis=1).max(), d.min(axis=0).max())
            with mock.patch.object(metrics, "_BLOCK_PAIRS", block):
                got = hausdorff(PointCloud(p), PointCloud(q))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_direct_branch_memory_is_bounded(self):
        p, q = _cloud_pair(11, 2, 1500, 1500, "gauss")
        a, b = PointCloud(p), PointCloud(q)
        tracemalloc.start()
        try:
            hausdorff(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One full float64 matrix is 18 MB.
        assert peak < 1500 * 1500 * 8 // 4

    # 1001 copies give 2002 x 2002 point pairs, past the k-d tree fork.
    @pytest.mark.parametrize("copies", [1, 1001], ids=["direct", "tree"])
    def test_overflowing_result_rejected(self, copies):
        near = PointCloud(np.tile([[0.0, 0.0], [1.0, 1.0]], (copies, 1)))
        far = PointCloud(np.tile([[1e200, 0.0], [2e200, 0.0]], (copies, 1)))
        with pytest.raises(ValueError, match="distance overflow"):
            hausdorff(near, far)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("copies", [1, 401], ids=["direct", "tree"])
    def test_overflow_outside_the_result_is_ignored(self, copies):
        corners = [[1e200, 1e200], [-1e200, 1e200], [1e200, -1e200], [-1e200, -1e200]]
        cloud = PointCloud(np.tile(corners + [[0.0, 0.0]], (copies, 1)))
        assert hausdorff(cloud, cloud) == 0.0

    def test_empty_cloud_rejected(self):
        cloud = _random_cloud(5, 4)
        with pytest.raises(EmptyCloudError):
            hausdorff(cloud, PointCloud(np.empty((0, 2))))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            hausdorff(_random_cloud(6, 4, dim=2), _random_cloud(7, 4, dim=3))


class TestBottleneck:
    def test_identical_diagrams(self):
        d = _random_diagram(1, 5)
        assert bottleneck(d, d, 1) == 0.0

    def test_single_bar_to_empty(self):
        assert bottleneck(_diagram([(0.0, 2.0)]), _diagram([]), 1) == 1.0

    def test_shifted_bar(self):
        a = _diagram([(0.0, 2.0)])
        b = _diagram([(0.5, 2.5)])
        assert bottleneck(a, b, 1) == 0.5

    def test_diagonal_beats_bad_pairing(self):
        # Matching the long bar to the distant short one costs more than
        # sending both to the diagonal.
        a = _diagram([(0.0, 2.0)])
        b = _diagram([(10.0, 10.2)])
        assert bottleneck(a, b, 1) == 1.0

    def test_dim_filtering(self):
        a = PersistenceDiagram(
            (PersistenceInterval(0, 0.0, 5.0), PersistenceInterval(1, 0.0, 2.0))
        )
        b = PersistenceDiagram((PersistenceInterval(1, 0.0, 2.0),))
        assert bottleneck(a, b, 1) == 0.0
        assert bottleneck(a, b, 0) == 2.5
        # No interval has a negative dimension, so asking for one is an error.
        with pytest.raises(ValueError, match="at least 0"):
            bottleneck(a, PersistenceDiagram(()), -1)

    def test_essential_count_mismatch_is_infinite(self):
        a = _random_diagram(2, 3, essentials=1)
        b = _random_diagram(3, 3, essentials=0)
        assert bottleneck(a, b, 1) == math.inf

    def test_essential_bars_match_by_sorted_births(self):
        a = _diagram([(0.0, math.inf), (1.0, math.inf)])
        b = _diagram([(0.2, math.inf), (1.5, math.inf)])
        assert bottleneck(a, b, 1) == 0.5

    def test_symmetry_and_self_distance(self):
        for seed in range(5):
            a = _random_diagram(10 + seed, 4, essentials=seed % 2)
            b = _random_diagram(20 + seed, 3, essentials=seed % 2)
            assert bottleneck(a, b, 1) == bottleneck(b, a, 1)
            assert bottleneck(a, a, 1) == 0.0

    def test_matches_exhaustive_oracle(self):
        for seed in range(30):
            rng = SplitMix64(500 + seed)
            a = _random_diagram(1000 + seed, rng.below(4), essentials=rng.below(2))
            b = _random_diagram(2000 + seed, rng.below(4), essentials=rng.below(2))
            got = bottleneck(a, b, 1)
            want = bottleneck_exhaustive(
                [(iv.birth, iv.death) for iv in a.in_dim(1)],
                [(iv.birth, iv.death) for iv in b.in_dim(1)],
            )
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(_grid_intervals, _essential_births, _grid_intervals, _essential_births)
    def test_property_matches_exhaustive_oracle(self, fin_a, ess_a, fin_b, ess_b):
        a, b = fin_a + ess_a, fin_b + ess_b
        got = bottleneck(_diagram(a), _diagram(b), 1)
        assert got == bottleneck_exhaustive(a, b)

    def test_matches_kuhn_oracle_on_tied_diagrams(self):
        rng = SplitMix64(8101)
        for trial in range(24):
            a = _grid_diagram(rng, 20 + rng.below(101))
            b = _grid_diagram(rng, 20 + rng.below(101))
            assert bottleneck(a, b, 1) == bottleneck_kuhn(_pairs(a), _pairs(b)), trial

    def test_matches_kuhn_oracle_on_random_diagrams(self):
        for seed in range(8):
            a = _random_diagram(3000 + seed, 20 + 14 * seed, essentials=seed % 2)
            b = _random_diagram(4000 + seed, 120 - 11 * seed, essentials=seed % 2)
            assert bottleneck(a, b, 1) == bottleneck_kuhn(_pairs(a), _pairs(b)), seed

    def test_matches_kuhn_oracle_on_delay_embedding_diagrams(self):
        signals = [synthesize(wheeze_model(i), 4000) for i in (0, 2, 4)] + [noise_signal(1)]
        diagrams = [_embedding_diagram(s, seed) for s in signals for seed in (0, 1)]
        for a, b in zip(diagrams, diagrams[1:] + diagrams[:1]):
            for dim in (0, 1):
                assert bottleneck(a, b, dim) == bottleneck_kuhn(_pairs(a, dim), _pairs(b, dim))

    @pytest.mark.parametrize(
        "birth, death",
        [(math.nan, 1.0), (math.inf, math.inf), (0.5, math.nan), (0.5, -math.inf), (2.0, 1.0)],
        ids=["nan-birth", "inf-birth", "nan-death", "minus-inf-death", "death-below-birth"],
    )
    def test_malformed_interval_rejected(self, birth, death):
        a = _diagram([(0.0, 2.0), (birth, death)])
        with pytest.raises(ValueError, match="dimension-1 intervals"):
            bottleneck(a, _diagram([(0.5, 1.0)]), 1)

    def test_needs_no_recursion_depth(self):
        # Augmenting paths run on an explicit stack; a recursive search
        # goes as deep as its longest path and fails under this limit.
        a, b = _random_diagram(5001, 300), _random_diagram(5002, 300)
        want = bottleneck(a, b, 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            got = bottleneck(a, b, 1)
        finally:
            sys.setrecursionlimit(limit)
        assert got == want

    def test_triangle_inequality(self):
        ds = [_random_diagram(40 + s, 4) for s in range(3)]
        a, b, c = ds
        ab = bottleneck(a, b, 1)
        bc = bottleneck(b, c, 1)
        ac = bottleneck(a, c, 1)
        assert ac <= ab + bc + 1e-12

    def test_stability_under_perturbation(self):
        # With edge-length filtration values an edge can stretch by twice
        # the largest point displacement (both endpoints moving apart), so
        # the sharp stability constant is 2: barcodes move by at most
        # twice the Hausdorff distance between the clouds. Two points at
        # {0, 1} nudged to {h, 1-h} realize the constant exactly.
        for seed in range(5):
            cloud = _random_cloud(600 + seed, 25)
            rng = SplitMix64(700 + seed)
            eta = 0.02
            angles = [
                2 * math.pi * ((rng.next_u64() >> 11) / 2**53)
                for _ in range(len(cloud))
            ]
            mags = [eta * ((rng.next_u64() >> 11) / 2**53) for _ in range(len(cloud))]
            jitter = np.array(
                [[m * math.cos(a), m * math.sin(a)] for a, m in zip(angles, mags)]
            )
            moved = PointCloud(cloud.points + jitter)
            d_h = hausdorff(cloud, moved)
            assert d_h <= eta
            da = h1_diagram(cloud)
            db = h1_diagram(moved)
            for dim in (0, 1):
                assert bottleneck(da, db, dim) <= 2.0 * d_h + 1e-12

    def test_stability_constant_is_sharp(self):
        h = 0.1
        a = PointCloud(np.array([[0.0], [1.0]]))
        b = PointCloud(np.array([[h], [1.0 - h]]))
        assert hausdorff(a, b) == pytest.approx(h, abs=1e-15)
        d_b = bottleneck(h1_diagram(a), h1_diagram(b), 0)
        assert d_b == pytest.approx(2.0 * h, abs=1e-15)
