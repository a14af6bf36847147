"""Rips filtrations, barcode reduction, Betti curves."""

import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoperiod import (
    EmptyCloudError,
    Filtration,
    PersistenceDiagram,
    PersistenceInterval,
    PointCloud,
    betti_curve,
    delay_embed,
    find_delay,
    h1_diagram,
    normalize,
    persistent_homology,
    random_subsample,
    rips_filtration,
    synthesize,
)
from topoperiod.embedding import pairwise
from topoperiod.persistence import _APPARENT_PREFIX, _GROW_BLOCK, _sorted_edges
from topoperiod.subsampling import SplitMix64

from fixtures import noise_signal, wheeze_model
from oracles import (
    diagram_multiset,
    h1_diagram_heap,
    persistent_beta1,
    persistent_homology_boundary,
    rank_diagram,
)


def _random_cloud(seed: int, count: int, dim: int = 2) -> PointCloud:
    rng = SplitMix64(seed)
    pts = np.array(
        [[(rng.next_u64() >> 11) / 2**53 for _ in range(dim)] for _ in range(count)]
    )
    return PointCloud(pts)


def _square() -> PointCloud:
    return PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def _circle(n: int = 64) -> PointCloud:
    t = 2 * np.pi * np.arange(n) / n
    return PointCloud(np.column_stack((np.cos(t), np.sin(t))))


_GROWER_CLOUDS = ("random", "integer", "over_block")


def _grower_cloud(kind: str) -> PointCloud:
    """Clouds for the clique grower: random, tied with duplicates, or big."""
    if kind == "random":
        return _random_cloud(31, 9)
    if kind == "integer":
        rng = SplitMix64(33)
        pts = np.array([[rng.below(3), rng.below(3)] for _ in range(12)], dtype=float)
        assert len({tuple(p) for p in pts.tolist()}) < len(pts)
        return PointCloud(pts)
    # Every vertex set is a simplex, so there are C(16, 3) = 560 triangles
    # and C(16, 4) = 1820 tetrahedra to grow from.
    return _random_cloud(34, 16)


class TestRipsFiltration:
    def test_equilateral_triangle(self):
        side = 1.0
        pts = PointCloud(
            np.array([[0.0, 0.0], [side, 0.0], [side / 2, side * math.sqrt(3) / 2]])
        )
        f = rips_filtration(pts, max_dim=2)
        assert [s.shape[0] for s in f.simplices] == [3, 3, 1]
        assert np.array_equal(f.values[0], [0.0, 0.0, 0.0])
        assert np.allclose(f.values[1], side, atol=1e-12)
        assert f.values[2][0] == f.values[1].max()

    def test_two_points(self):
        pts = PointCloud(np.array([[0.0], [3.0]]))
        f = rips_filtration(pts, max_dim=2)
        assert [s.shape[0] for s in f.simplices] == [2, 1, 0]
        assert f.values[1][0] == 3.0

    def test_unit_square_threshold_cut(self):
        f = rips_filtration(_square(), max_dim=2, max_eps=1.0)
        assert f.simplices[1].shape[0] == 4
        assert np.array_equal(f.values[1], [1.0, 1.0, 1.0, 1.0])
        assert {tuple(e) for e in f.simplices[1].tolist()} == {
            (0, 1),
            (0, 3),
            (1, 2),
            (2, 3),
        }
        assert f.simplices[2].shape[0] == 0

    def test_single_point(self):
        f = rips_filtration(PointCloud(np.array([[2.0, 2.0]])), max_dim=2)
        assert f.n_vertices == 1
        assert [s.shape[0] for s in f.simplices] == [1, 0, 0]

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyCloudError):
            rips_filtration(PointCloud(np.empty((0, 2))), max_dim=2)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            rips_filtration(_square(), max_dim=0)
        with pytest.raises(ValueError):
            rips_filtration(_square(), max_dim=2, max_eps=-1.0)
        for cloud in (_square(), PointCloud(np.array([[2.0, 2.0]]))):
            with pytest.raises(ValueError):
                h1_diagram(cloud, max_eps=-1.0)

    def test_nan_cutoff_rejected(self):
        # NaN is not below zero either, yet it is no cutoff: every
        # comparison with it fails, so it would keep no edge.
        for cloud in (_square(), PointCloud(np.array([[2.0, 2.0]]))):
            with pytest.raises(ValueError, match="max_eps"):
                h1_diagram(cloud, max_eps=math.nan)
            for max_dim in (1, 2, 3):
                with pytest.raises(ValueError, match="max_eps"):
                    rips_filtration(cloud, max_dim=max_dim, max_eps=math.nan)

    def test_max_dim_checked_before_the_cloud(self):
        with pytest.raises(ValueError, match="max_dim"):
            rips_filtration(PointCloud(np.empty((0, 2))), max_dim=0)

    def test_iteration_order_and_closure(self):
        for kind, max_dim in product(_GROWER_CLOUDS, [2, 3, 4]):
            f = rips_filtration(_grower_cloud(kind), max_dim=max_dim)
            value_of: dict[tuple[int, ...], float] = {}
            for d in range(f.max_dim + 1):
                assert f.simplices[d].dtype == np.int64 and f.values[d].dtype == np.float64
                rows = [tuple(int(v) for v in r) for r in f.simplices[d]]
                vals = f.values[d].tolist()
                assert all(len(r) == d + 1 and list(r) == sorted(set(r)) for r in rows)
                keys = list(zip(vals, rows))
                assert keys == sorted(keys)
                for value, verts in keys:
                    for drop in range(len(verts) if d else 0):
                        face = verts[:drop] + verts[drop + 1 :]
                        assert value_of[face] <= value
                    value_of[verts] = value
            assert len(value_of) == len(f), (kind, max_dim)

    def test_value_is_vertex_set_diameter(self):
        from scipy.spatial.distance import pdist, squareform

        for kind, max_dim in product(_GROWER_CLOUDS, [2, 3, 4]):
            cloud = _grower_cloud(kind)
            dist = squareform(pdist(cloud.points))
            f = rips_filtration(cloud, max_dim=max_dim)
            for d in range(2, max_dim + 1):
                assert len(f.simplices[d]) > 0, (kind, max_dim)
                for row, value in zip(f.simplices[d].tolist(), f.values[d].tolist()):
                    assert value == max(dist[i, j] for i, j in combinations(row, 2))

    def test_over_block_cloud_spans_several_blocks(self):
        f = rips_filtration(_grower_cloud("over_block"), max_dim=4)
        assert len(f.simplices[2]) > _GROW_BLOCK and len(f.simplices[3]) > _GROW_BLOCK


class TestPersistentHomology:
    def test_single_point(self):
        diagram = persistent_homology(rips_filtration(PointCloud(np.zeros((1, 2)))))
        assert diagram.to_dicts() == [{"dim": 0, "birth": 0.0, "death": None}]

    def test_unit_square(self):
        diagram = persistent_homology(rips_filtration(_square(), max_dim=2))
        h0 = diagram.in_dim(0)
        assert sorted((iv.birth, iv.death) for iv in h0) == [
            (0.0, 1.0),
            (0.0, 1.0),
            (0.0, 1.0),
            (0.0, math.inf),
        ]
        h1 = diagram.in_dim(1)
        assert len(h1) == 1
        assert h1[0].birth == 1.0
        assert h1[0].death == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_circle_dominant_class(self):
        # Sixty-four points on the unit circle carry exactly one loop
        # class below a 1.85 cutoff. Its birth is the adjacent-point
        # spacing; the death level is pinned by rank computations below.
        diagram = h1_diagram(_circle(), max_eps=1.85)
        h1 = diagram.in_dim(1)
        assert len(h1) == 1
        birth = 2 * math.sin(math.pi / 64)
        death = 2 * math.sin(22 * math.pi / 64)
        assert h1[0].birth == pytest.approx(birth, abs=1e-12)
        assert h1[0].death == pytest.approx(death, abs=1e-12)

        pts = _circle().points
        slack = 1e-9
        level_below = 2 * math.sin(21 * math.pi / 64)
        assert persistent_beta1(pts, birth + slack, birth + slack) == 1
        assert persistent_beta1(pts, birth + slack, level_below + slack) == 1
        assert persistent_beta1(pts, birth + slack, death - slack) == 1
        assert persistent_beta1(pts, birth + slack, death + slack) == 0

    def test_truncated_loop_is_essential(self):
        diagram = h1_diagram(_circle(), max_eps=1.0)
        essential = diagram.essential(1)
        assert len(essential) == 1
        assert essential[0].birth == pytest.approx(2 * math.sin(math.pi / 64), abs=1e-12)
        assert diagram.finite(1) == []

    def test_matches_rank_oracle_on_small_clouds(self):
        for seed in range(25):
            cloud = _random_cloud(400 + seed, 4 + seed % 4)
            diagram = persistent_homology(rips_filtration(cloud, max_dim=2))
            assert diagram_multiset(diagram) == rank_diagram(cloud.points)

    def test_order_invariance(self):
        cloud = _random_cloud(55, 12)
        rng = SplitMix64(7)
        perm = np.arange(12)
        for i in range(11, 0, -1):
            j = rng.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        shuffled = PointCloud(cloud.points[perm])
        a = persistent_homology(rips_filtration(cloud, max_dim=2))
        b = persistent_homology(rips_filtration(shuffled, max_dim=2))
        assert diagram_multiset(a) == diagram_multiset(b)

    def test_scale_equivariance(self):
        cloud = _random_cloud(56, 14)
        scaled = PointCloud(cloud.points * 2.5)
        a = persistent_homology(rips_filtration(cloud, max_dim=2))
        b = persistent_homology(rips_filtration(scaled, max_dim=2))
        assert len(a) == len(b)
        for iv_a, iv_b in zip(a.intervals, b.intervals):
            assert iv_a.dim == iv_b.dim
            assert iv_b.birth == pytest.approx(2.5 * iv_a.birth, rel=1e-12, abs=1e-12)
            if iv_a.is_finite:
                assert iv_b.death == pytest.approx(2.5 * iv_a.death, rel=1e-12)
            else:
                assert not iv_b.is_finite

    def test_euler_consistency(self):
        # With simplices up to dimension n-1 nothing is truncated on n
        # points, so the alternating simplex count must equal the
        # alternating Betti sum at every scale.
        for n, seed in [(5, 70), (6, 71)]:
            cloud = _random_cloud(seed, n)
            f = rips_filtration(cloud, max_dim=n - 1)
            diagram = persistent_homology(f)
            curves = [betti_curve(diagram, d) for d in range(n - 1)]
            values = np.unique(np.concatenate(f.values))
            probes = np.concatenate(([-(1.0)], values, values + 1e-9, [values.max() + 1]))
            for eps in probes:
                chi_simplices = sum(
                    (-1) ** d * int(np.count_nonzero(f.values[d] <= eps))
                    for d in range(n)
                )
                chi_homology = sum((-1) ** d * curves[d](eps) for d in range(n - 1))
                assert chi_simplices == chi_homology

    @pytest.mark.parametrize("max_dim", [3, 4])
    def test_octahedron_has_one_dimension_two_bar(self, max_dim):
        # The six points +-e_i span an octahedron surface at sqrt(2); the
        # cross-polytope's antipodal edges, all of length 2, fill it in.
        octahedron = PointCloud(np.vstack((np.eye(3), -np.eye(3))))
        diagram = persistent_homology(rips_filtration(octahedron, max_dim=max_dim))
        assert diagram.in_dim(2) == [PersistenceInterval(2, math.sqrt(2.0), 2.0)]
        assert diagram.in_dim(1) == []
        assert [iv.death for iv in diagram.in_dim(0)] == [math.sqrt(2.0)] * 5 + [math.inf]
        assert [iv.dim for iv in diagram.intervals if iv.dim >= 3] == []

    def test_missing_facet_rejected(self):
        # A hand-built filtration that is not closed under faces: a
        # triangle without its edge (0, 2), and a tetrahedron without its
        # triangle (0, 1, 2), whose two-vertex prefix is still present.
        f = rips_filtration(_square(), max_dim=3)
        keep = [e != [0, 2] for e in f.simplices[1].tolist()]
        no_edge = Filtration(
            4, 2, (f.simplices[0], f.simplices[1][keep], f.simplices[2]),
            (f.values[0], f.values[1][keep], f.values[2]),
        )
        assert f.simplices[2][0].tolist() == [0, 1, 2]
        no_triangle = Filtration(
            4, 3, f.simplices[:2] + (f.simplices[2][1:], f.simplices[3]),
            f.values[:2] + (f.values[2][1:], f.values[3]),
        )
        for broken in (no_edge, no_triangle):
            with pytest.raises(ValueError, match="missing a facet"):
                persistent_homology(broken)

    def test_component_count_at_zero(self):
        cloud = _random_cloud(60, 17)
        diagram = persistent_homology(rips_filtration(cloud, max_dim=1))
        curve = betti_curve(diagram, 0)
        assert curve(0.0) == 17
        samples = [curve(e) for e in np.linspace(0, 2, 40)]
        assert all(a >= b for a, b in zip(samples, samples[1:]))
        assert sum(1 for iv in diagram.in_dim(0) if not iv.is_finite) == 1


_grid_points = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=12
)


class TestH1DiagramAgreement:
    def test_random_clouds(self):
        for seed, count in [(80, 30), (81, 45), (82, 60)]:
            cloud = _random_cloud(seed, count)
            fast = h1_diagram(cloud)
            slow = persistent_homology(rips_filtration(cloud, max_dim=2))
            assert fast == slow

    def test_duplicate_points(self):
        base = _random_cloud(83, 12).points
        cloud = PointCloud(np.vstack((base, base[:3])))
        fast = h1_diagram(cloud)
        slow = persistent_homology(rips_filtration(cloud, max_dim=2))
        assert fast == slow

    def test_truncated_threshold(self):
        cloud = _random_cloud(84, 40)
        cut = 0.45 * cloud.diameter()
        fast = h1_diagram(cloud, max_eps=cut)
        slow = persistent_homology(rips_filtration(cloud, max_dim=2, max_eps=cut))
        assert fast == slow

    @pytest.mark.parametrize("side", [3, 4, 5, 6, 7])
    def test_grid_clouds_cut_at_tied_distances(self, side):
        grid = np.array([[i, j] for i in range(side) for j in range(side)], dtype=float)
        cloud = PointCloud(grid)
        cuts = [1.0, math.sqrt(2.0)] + (["auto"] if side <= 4 else [])
        for cut in cuts:
            fast = h1_diagram(cloud, max_eps=cut)
            slow = persistent_homology(rips_filtration(cloud, max_dim=2, max_eps=cut))
            assert fast == slow

    def test_integer_clouds_with_duplicate_points(self):
        rng = SplitMix64(85)
        for count in (10, 18, 26):
            pts = np.array([[rng.below(4), rng.below(4)] for _ in range(count)], dtype=float)
            cloud = PointCloud(pts)
            assert len({tuple(p) for p in pts.tolist()}) < count
            for cut in ("auto", 1.0, 2.0):
                fast = h1_diagram(cloud, max_eps=cut)
                slow = persistent_homology(rips_filtration(cloud, max_dim=2, max_eps=cut))
                assert fast == slow

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(_grid_points, st.sampled_from(["auto", 0.0, 1.0, math.sqrt(2.0)]))
    def test_property_small_integer_clouds(self, points, cut):
        # Small-integer points repeat and tie their distances.
        cloud = PointCloud(np.array(points, dtype=float))
        fast = h1_diagram(cloud, max_eps=cut)
        assert fast == persistent_homology(rips_filtration(cloud, max_dim=2, max_eps=cut))

    @pytest.mark.parametrize(
        "index", [0, 2, 4, None], ids=["wheeze0", "wheeze2", "wheeze4", "noise1"]
    )
    def test_delay_embedding_clouds(self, index):
        # Wheeze and noise embeddings: most of their reductions add the
        # columns of apparent pairs, which are built only when needed.
        signal = noise_signal(1) if index is None else synthesize(wheeze_model(index), 4000)
        normed = normalize(signal)
        sub = random_subsample(delay_embed(normed, find_delay(normed)), 60, 0)
        for cut in ("auto", 0.3 * sub.diameter()):
            fast = h1_diagram(sub, max_eps=cut)
            slow = persistent_homology(rips_filtration(sub, max_dim=2, max_eps=cut))
            assert fast == slow

    def test_tiny_clouds(self):
        one = PointCloud(np.array([[1.0, 2.0]]))
        assert h1_diagram(one).to_dicts() == [{"dim": 0, "birth": 0.0, "death": None}]
        twin = PointCloud(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert h1_diagram(twin).to_dicts() == [{"dim": 0, "birth": 0.0, "death": None}]


_half_integer_clouds = st.integers(1, 3).flatmap(
    lambda dim: st.lists(
        st.tuples(*[st.integers(0, 6).map(lambda k: k / 2) for _ in range(dim)]),
        min_size=1,
        max_size=14,
    )
)
_random_clouds = st.integers(1, 3).flatmap(
    lambda dim: st.lists(
        st.tuples(*[st.floats(-100.0, 100.0, allow_nan=False) for _ in range(dim)]),
        min_size=1,
        max_size=14,
    )
)


def _gaussian_points(seed: int, count: int, dim: int, rounded: bool) -> np.ndarray:
    points = np.random.default_rng(seed).normal(size=(count, dim))
    return np.round(points, 1) if rounded else points


# Clouds of 3-9 points: integer grids and cube corners repeat points and
# tie distances; Gaussian clouds rounded to one decimal tie some.
_oracle_clouds = st.one_of(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=3, max_size=9),
    st.lists(st.tuples(*[st.integers(0, 1)] * 3), min_size=3, max_size=9),
    st.builds(
        _gaussian_points,
        st.integers(0, 2**32 - 1),
        st.integers(3, 9),
        st.integers(1, 3),
        st.booleans(),
    ),
)


class TestBoundaryEngineOracle:
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(
        _oracle_clouds, st.integers(1, 4), st.sampled_from(["auto", 0.0, 0.5, 1.0, 1.5])
    )
    def test_property_matches_the_former_boundary_engine(self, points, max_dim, cut):
        cloud = PointCloud(np.array(points, dtype=float))
        filtration = rips_filtration(cloud, max_dim=max_dim, max_eps=cut)
        assert persistent_homology(filtration) == persistent_homology_boundary(filtration)


class TestH1DiagramEnclosingRadius:
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.one_of(_random_clouds, _half_integer_clouds))
    def test_auto_cutoff_gives_the_diameter_diagram(self, points):
        cloud = PointCloud(np.array(points, dtype=float))
        fast = h1_diagram(cloud)
        assert fast == h1_diagram(cloud, max_eps=cloud.diameter())
        assert fast == persistent_homology(rips_filtration(cloud, max_dim=2))

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.one_of(_random_clouds, _half_integer_clouds), st.floats(0.0, 2.0))
    def test_cutoff_at_or_above_the_radius_gives_the_auto_diagram(self, points, stretch):
        cloud = PointCloud(np.array(points, dtype=float))
        radius = float(pairwise(cloud.points).max(axis=1).min())
        cutoff = radius + stretch * (cloud.diameter() - radius)
        assert h1_diagram(cloud, max_eps=cutoff) == h1_diagram(cloud)

    def test_cutoff_above_the_radius_keeps_the_auto_edges(self):
        cloud = _random_cloud(3, 60)
        auto = _sorted_edges(cloud, "auto", enclosing=True)[2]
        capped = _sorted_edges(cloud, cloud.diameter(), enclosing=True)[2]
        assert capped.size == auto.size < len(cloud) * (len(cloud) - 1) // 2

    def test_polygon_bar_dies_at_the_tied_enclosing_radius(self):
        # Eight lattice points on the circle of radius sqrt(5), and the
        # centre: all eight spokes tie at the enclosing radius sqrt(5), half
        # the diameter. The octagon's loop is born at its longest side, 2,
        # and dies at sqrt(5), when the centre cones it off.
        ring = [(2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1)]
        cloud = PointCloud(np.array(ring + [(0, 0)], dtype=float))
        spokes = np.linalg.norm(cloud.points[:8], axis=1)
        assert np.all(spokes == math.sqrt(5.0))
        assert math.sqrt(5.0) < cloud.diameter()
        fast = h1_diagram(cloud)
        assert [(iv.birth, iv.death) for iv in fast.in_dim(1)] == [(2.0, math.sqrt(5.0))]
        assert fast == h1_diagram(cloud, max_eps=math.sqrt(5.0))
        assert fast == h1_diagram(cloud, max_eps=cloud.diameter())
        assert fast == persistent_homology(rips_filtration(cloud, max_dim=2))

    def test_apparent_vertex_past_the_scanned_prefix(self):
        # The first _APPARENT_PREFIX vertices sit in a far cluster, so every
        # apparent pair among the near points has its smallest vertex past
        # them and is found only by the full-row rescan.
        far = np.zeros((_APPARENT_PREFIX, 2))
        far[:, 0] = 100.0 + 0.1 * np.arange(_APPARENT_PREFIX)
        near = _random_cloud(86, 12).points
        cloud = PointCloud(np.vstack((far, near)))
        rank = _sorted_edges(cloud, "auto", enclosing=True)[1]
        firsts = []
        for u, v in combinations(range(_APPARENT_PREFIX, len(cloud)), 2):
            below = np.flatnonzero(np.maximum(rank[u], rank[v]) < rank[u, v])
            if below.size:
                firsts.append(int(below[0]))
        assert firsts and min(firsts) >= _APPARENT_PREFIX
        fast = h1_diagram(cloud)
        assert fast == h1_diagram_heap(cloud)
        assert fast == persistent_homology(rips_filtration(cloud, max_dim=2))

    def test_cutoff_leaving_an_essential_loop(self):
        # A ring of 12 and its centre, cut between the ring's side and its
        # radius: the centre stays alone and the ring's last edge has no
        # triangle, so every key of its column falls in the sentinel tail.
        cloud = PointCloud(np.vstack((_circle(12).points, [[0.0, 0.0]])))
        side = 2 * math.sin(math.pi / 12)
        fast = h1_diagram(cloud, max_eps=0.75)
        assert len(fast.essential(0)) == 2
        [loop] = fast.essential(1)
        assert loop.birth == pytest.approx(side, abs=1e-12)
        assert fast == h1_diagram_heap(cloud, max_eps=0.75)
        assert fast == persistent_homology(rips_filtration(cloud, max_dim=2, max_eps=0.75))

    def test_overflowing_kept_edge_rejected(self):
        corners = [[1e200, 1e200], [-1e200, 1e200], [1e200, -1e200], [-1e200, -1e200]]
        cloud = PointCloud(np.array(corners + [[0.0, 0.0]]))
        with pytest.raises(ValueError, match="distance overflow"):
            h1_diagram(cloud)
        with pytest.raises(ValueError, match="distance overflow"):
            rips_filtration(cloud, max_dim=1)

    @pytest.mark.filterwarnings("error")
    def test_cutoff_that_drops_the_overflowing_edges_keeps_the_diagram(self):
        # The centre is 1e154 from both ends, which are 2e154 apart: only
        # that distance overflows, and the enclosing radius leaves it out.
        cloud = PointCloud(np.array([[0.0, 0.0], [1e154, 0.0], [-1e154, 0.0]]))
        fast = h1_diagram(cloud)
        assert [(iv.dim, iv.birth, iv.death) for iv in fast.intervals] == [
            (0, 0.0, 1e154), (0, 0.0, 1e154), (0, 0.0, math.inf)
        ]
        assert fast == persistent_homology(rips_filtration(cloud, max_dim=2, max_eps=1e154))
        with pytest.raises(ValueError, match="distance overflow"):
            rips_filtration(cloud, max_dim=2)


class TestH1DiagramHeapOracle:
    @pytest.mark.parametrize("size", [100, 200])
    @pytest.mark.parametrize(
        "index", [0, 2, 4, None], ids=["wheeze0", "wheeze2", "wheeze4", "noise1"]
    )
    def test_delay_embedding_clouds(self, index, size):
        signal = noise_signal(1) if index is None else synthesize(wheeze_model(index), 4000)
        normed = normalize(signal)
        sub = random_subsample(delay_embed(normed, find_delay(normed)), size, 0)
        assert h1_diagram(sub) == h1_diagram_heap(sub)

    @pytest.mark.parametrize("side", [3, 4, 5, 6])
    def test_grids_cut_at_tied_distances(self, side):
        grid = PointCloud(np.array([[i, j] for i in range(side) for j in range(side)], dtype=float))
        for cut in (1.0, math.sqrt(2.0)):
            assert h1_diagram(grid, max_eps=cut) == h1_diagram_heap(grid, max_eps=cut)

    def test_cloud_cut_below_connectivity(self):
        # Two loops 10 apart cut at 1: the union-find never gets down to one
        # component, so the sweep runs over every edge.
        ring = _circle(12).points
        cloud = PointCloud(np.vstack((ring, ring + 10.0)))
        fast = h1_diagram(cloud, max_eps=1.0)
        assert len(fast.essential(0)) == 2
        assert fast == h1_diagram_heap(cloud, max_eps=1.0)


class TestH1DiagramRankOracle:
    def test_matches_rank_oracle_on_small_clouds(self):
        rng = SplitMix64(3006)
        for trial in range(200):
            count = 2 + rng.below(7)
            dim = 2 + rng.below(2)
            cloud = _random_cloud(rng.next_u64(), count, dim)
            assert diagram_multiset(h1_diagram(cloud)) == rank_diagram(cloud.points), trial

    @pytest.mark.parametrize("side", [3, 4])
    def test_grids_match_rank_oracle_at_tied_cutoffs(self, side):
        grid = np.array([[i, j] for i in range(side) for j in range(side)], dtype=float)
        for cut in (1.0, math.sqrt(2.0)):
            fast = h1_diagram(PointCloud(grid), max_eps=cut)
            assert diagram_multiset(fast) == rank_diagram(grid, max_eps=cut)


class TestBettiCurve:
    def test_square_frozen_values(self):
        diagram = persistent_homology(rips_filtration(_square(), max_dim=2))
        b0 = betti_curve(diagram, 0)
        b1 = betti_curve(diagram, 1)
        assert b0(1.2) == 1
        assert b1(1.2) == 1
        assert b0(-0.1) == 0
        assert b1(math.sqrt(2.0)) == 0
        assert b1(2.0) == 0

    def test_square_thresholds(self):
        diagram = persistent_homology(rips_filtration(_square(), max_dim=2))
        assert np.allclose(betti_curve(diagram, 0).thresholds, [0.0, 1.0])
        assert np.allclose(
            betti_curve(diagram, 1).thresholds, [1.0, math.sqrt(2.0)], atol=1e-12
        )

    def test_half_open_convention(self):
        curve = betti_curve(
            PersistenceDiagram((PersistenceInterval(0, 1.0, 3.0),)), 0
        )
        assert curve(1.0) == 1
        assert curve(3.0) == 0
        assert curve(2.999999) == 1


def _assert_filtration_order(cloud: PointCloud, cut, enclosing: bool) -> np.ndarray:
    """The kept edges are sorted by (value, iu, ju), and rank indexes them."""
    rank, iu, ju, ev = _sorted_edges(cloud, cut, enclosing)[1:]
    assert (np.lexsort((ju, iu, ev)) == np.arange(ev.size)).all()
    assert (rank[iu, ju] == np.arange(ev.size)).all()
    return ev


class TestSortedEdges:
    @pytest.mark.parametrize("side", [3, 5, 8, 10])
    def test_grid_ties_keep_index_order(self, side):
        grid = np.array([[i, j] for i in range(side) for j in range(side)], dtype=float)
        for cut in ("auto", 1.0, math.sqrt(2.0), 3.0):
            for enclosing in (False, True):
                ev = _assert_filtration_order(PointCloud(grid), cut, enclosing)
                assert (ev[1:] == ev[:-1]).any()

    def test_integer_clouds_with_duplicate_points(self):
        rng = SplitMix64(86)
        for count in (10, 40, 90):
            pts = np.array([[rng.below(4), rng.below(4)] for _ in range(count)], dtype=float)
            _assert_filtration_order(PointCloud(pts), "auto", False)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        st.one_of(_grid_points, _half_integer_clouds, _random_clouds),
        st.sampled_from(["auto", 0.0, 1.0, math.sqrt(2.0)]),
        st.booleans(),
    )
    def test_property_order(self, points, cut, enclosing):
        _assert_filtration_order(PointCloud(np.array(points, dtype=float)), cut, enclosing)


class TestDiagramOrder:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        st.lists(
            st.builds(
                PersistenceInterval,
                st.integers(0, 2),
                st.sampled_from([0.0, 0.5, 1.0]),
                st.sampled_from([0.5, 1.0, 2.0, math.inf]),
            ),
            max_size=30,
        )
    )
    def test_canonical_order_is_the_interval_order(self, intervals):
        assert PersistenceDiagram(tuple(intervals)).intervals == tuple(sorted(intervals))


class TestDiagramSerialization:
    def test_round_trip(self):
        cloud = _random_cloud(90, 20)
        diagram = h1_diagram(cloud)
        back = PersistenceDiagram.from_dicts(diagram.to_dicts())
        assert back == diagram

    def test_essential_death_is_null(self):
        diagram = PersistenceDiagram(
            (PersistenceInterval(1, 0.5, math.inf), PersistenceInterval(0, 0.0, 2.0))
        )
        rows = diagram.to_dicts()
        assert {r["death"] for r in rows} == {None, 2.0}
        assert PersistenceDiagram.from_dicts(rows) == diagram

    def test_interval_properties(self):
        iv = PersistenceInterval(1, 0.25, 1.25)
        assert iv.is_finite
        assert iv.length == 1.0
        assert not PersistenceInterval(0, 0.0, math.inf).is_finite
