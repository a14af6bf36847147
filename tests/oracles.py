"""Independent reference implementations used only by the test suite.

Everything here is deliberately written with different algorithms and
different data structures than the library: persistence comes from GF(2)
ranks of boundary submatrices instead of column reduction, the bottleneck
distance from exhaustive matching enumeration instead of binary search,
the ellipse parameters from a least-squares conic fit. Slow is fine; these
only ever see tiny inputs. The library's former engines
(``bottleneck_kuhn``, ``h1_diagram_heap``, ``random_subsample_list``,
``fit_envelope_loop``, ``split_gap_runs_loop``, ``best_phase_scan``,
``envelope_pchip_scipy``, ``persistent_homology_boundary``) are kept too, as oracles for inputs too big for
the exhaustive ones, and so are its per-line CSV readers
(``load_csv_loop``, ``read_cloud_csv_loop``).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from pathlib import Path

import numpy as np

from topoperiod.embedding import PointCloud
from topoperiod.errors import EmptyAudioError, InsufficientPeaksError, MalformedHeaderError
from topoperiod.model import _GAP_SHIFT, _GAP_WINDOW, _PHI_GRID
from topoperiod.persistence import (
    Filtration,
    PersistenceDiagram,
    PersistenceInterval,
    _dim0,
    _facet_ranks,
    _sorted_edges,
)
from topoperiod.signal_io import Signal


def gf2_rank(columns: list[int]) -> int:
    """Rank over GF(2) of a matrix given as column bitmasks."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            lead = col.bit_length() - 1
            if lead in pivots:
                col ^= pivots[lead]
            else:
                pivots[lead] = col
                rank += 1
                break
    return rank


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    n = len(points)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = math.dist(points[i], points[j])
    return d


def rank_diagram(
    points: np.ndarray, max_eps: float | None = None, decimals: int = 9
) -> Counter:
    """Dimension 0/1 persistence multiset via persistent Betti ranks.

    For sublevel complexes K_1 ⊆ ... ⊆ K_L at the distinct filtration
    values, the rank of the map H_p(K_i) → H_p(K_j) is

        beta_p(i, j) = rank([D_{p+1}(K_j) | E_i]) - rank D_p(K_i)
                       - rank D_{p+1}(K_j)

    where D is the boundary matrix and E_i the indicator columns of the
    p-simplices present in K_i (a boundary supported on K_i simplices is a
    K_i cycle, which turns the intersection dimension into pure ranks).
    Interval multiplicities follow by inclusion-exclusion over the grid,
    essential classes from the last column of the table. Zero-length
    intervals never appear because the grid only has distinct values.

    Returns a Counter keyed by (dim, birth, death) with death = math.inf
    for essential classes, values rounded to ``decimals``.
    """
    n = len(points)
    dist = _pairwise_distances(points)

    edges = [
        (dist[i, j], i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if max_eps is None or dist[i, j] <= max_eps
    ]
    triangles = [
        (max(dist[i, j], dist[i, k], dist[j, k]), i, j, k)
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
        if max_eps is None or max(dist[i, j], dist[i, k], dist[j, k]) <= max_eps
    ]

    levels = sorted({0.0} | {e[0] for e in edges} | {t[0] for t in triangles})
    nlev = len(levels)
    edge_index = {(i, j): idx for idx, (_, i, j) in enumerate(edges)}

    # Column bitmasks of the two boundary matrices of the full complex.
    # Rows of D1 are vertices, rows of D2 are edges.
    d1_cols = [(1 << i) | (1 << j) for (_, i, j) in edges]
    d2_cols = [
        (1 << edge_index[(i, j)])
        | (1 << edge_index[(i, k)])
        | (1 << edge_index[(j, k)])
        for (_, i, j, k) in triangles
    ]

    # Simplex counts and matrix column lists per level, cumulative.
    edge_upto = [[] for _ in range(nlev)]
    tri_upto = [[] for _ in range(nlev)]
    for li, v in enumerate(levels):
        edge_upto[li] = [d1_cols[e] for e in range(len(edges)) if edges[e][0] <= v]
        tri_upto[li] = [d2_cols[t] for t in range(len(triangles)) if triangles[t][0] <= v]
    edge_ids_upto = [
        [e for e in range(len(edges)) if edges[e][0] <= v] for v in levels
    ]

    rank_d1 = [gf2_rank(edge_upto[li]) for li in range(nlev)]
    rank_d2 = [gf2_rank(tri_upto[li]) for li in range(nlev)]

    def beta(p: int, li: int, lj: int) -> int:
        if li < 0:
            return 0
        if p == 0:
            # All vertices are present from level 0, so the map on H0 is
            # onto and the rank equals the component count of K_j.
            return n - rank_d1[lj]
        cols = list(tri_upto[lj]) + [1 << e for e in edge_ids_upto[li]]
        return gf2_rank(cols) - rank_d1[li] - rank_d2[lj]

    table = {
        p: [[beta(p, li, lj) for lj in range(nlev)] for li in range(nlev)]
        for p in (0, 1)
    }

    out: Counter = Counter()
    for p in (0, 1):
        bt = table[p]
        for li in range(nlev):
            for lj in range(li + 1, nlev):
                prev_i = bt[li - 1] if li > 0 else None
                mu = bt[li][lj - 1] - bt[li][lj]
                if prev_i is not None:
                    mu -= prev_i[lj - 1] - prev_i[lj]
                if mu:
                    out[(p, round(levels[li], decimals), round(levels[lj], decimals))] = (
                        out[(p, round(levels[li], decimals), round(levels[lj], decimals))]
                        + mu
                    )
            ess = bt[li][nlev - 1] - (bt[li - 1][nlev - 1] if li > 0 else 0)
            if ess:
                out[(p, round(levels[li], decimals), math.inf)] += ess
    return +out


def diagram_multiset(diagram, dims=(0, 1), decimals: int = 9) -> Counter:
    """The implementation's diagram as a Counter comparable to rank_diagram."""
    out: Counter = Counter()
    for iv in diagram.intervals:
        if iv.dim in dims:
            death = math.inf if math.isinf(iv.death) else round(iv.death, decimals)
            out[(iv.dim, round(iv.birth, decimals), death)] += 1
    return out


def persistent_beta1(points: np.ndarray, eps_i: float, eps_j: float) -> int:
    """Rank of the map H1(K_i) -> H1(K_j) between two Rips sublevels.

    Same rank identity as rank_diagram, evaluated at a single level pair,
    which keeps it usable on clouds whose full grid would be too slow.
    """
    if eps_i > eps_j:
        raise ValueError("eps_i must not exceed eps_j")
    n = len(points)
    dist = _pairwise_distances(points)

    edges = [
        (dist[i, j], i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if dist[i, j] <= eps_j
    ]
    edge_index = {(i, j): idx for idx, (_, i, j) in enumerate(edges)}

    d1_i = [(1 << i) | (1 << j) for (v, i, j) in edges if v <= eps_i]
    e_i = [1 << edge_index[(i, j)] for (v, i, j) in edges if v <= eps_i]
    d2_j = [
        (1 << edge_index[(i, j)])
        | (1 << edge_index[(i, k)])
        | (1 << edge_index[(j, k)])
        for i in range(n)
        for j in range(i + 1, n)
        if dist[i, j] <= eps_j
        for k in range(j + 1, n)
        if max(dist[i, j], dist[i, k], dist[j, k]) <= eps_j
    ]
    return gf2_rank(d2_j + e_i) - gf2_rank(d1_i) - gf2_rank(d2_j)


def bottleneck_exhaustive(a: list[tuple[float, float]], b: list[tuple[float, float]]) -> float:
    """Bottleneck distance by enumerating every partial matching.

    Intervals are (birth, death) pairs; death may be math.inf. Essential
    intervals only match essential intervals. Finite intervals match across
    at L-infinity cost or to the diagonal at half their length.
    """
    ess_a = sorted(x[0] for x in a if math.isinf(x[1]))
    ess_b = sorted(x[0] for x in b if math.isinf(x[1]))
    if len(ess_a) != len(ess_b):
        return math.inf
    best_ess = 0.0
    if ess_a:
        best_ess = math.inf
        for perm in itertools.permutations(range(len(ess_b))):
            cost = max(abs(ea - ess_b[p]) for ea, p in zip(ess_a, perm))
            best_ess = min(best_ess, cost)

    fa = [x for x in a if not math.isinf(x[1])]
    fb = [x for x in b if not math.isinf(x[1])]
    diag_a = [(d - b0) / 2.0 for b0, d in fa]
    diag_b = [(d - b0) / 2.0 for b0, d in fb]

    best_fin = math.inf
    idx_b = range(len(fb))
    for k in range(0, min(len(fa), len(fb)) + 1):
        for subset_a in itertools.combinations(range(len(fa)), k):
            for images in itertools.permutations(idx_b, k):
                used_b = set(images)
                cost = 0.0
                for i, j in zip(subset_a, images):
                    cost = max(
                        cost,
                        abs(fa[i][0] - fb[j][0]),
                        abs(fa[i][1] - fb[j][1]),
                    )
                for i in range(len(fa)):
                    if i not in subset_a:
                        cost = max(cost, diag_a[i])
                for j in range(len(fb)):
                    if j not in used_b:
                        cost = max(cost, diag_b[j])
                best_fin = min(best_fin, cost)
    if not fa and not fb:
        best_fin = 0.0
    return max(best_ess, best_fin)


def bottleneck_kuhn(a: list[tuple[float, float]], b: list[tuple[float, float]]) -> float:
    """Bottleneck distance by a plain binary search with recursive Kuhn matching.

    The library's former search, kept as an oracle for diagrams too big
    to enumerate: every candidate cost, adjacency rebuilt at every step,
    a fresh matching per step. Intervals are (birth, death) pairs as in
    ``bottleneck_exhaustive``. The recursion is as deep as the longest
    augmenting path, so keep the inputs to a few hundred intervals.
    """
    ess_a = sorted(x[0] for x in a if math.isinf(x[1]))
    ess_b = sorted(x[0] for x in b if math.isinf(x[1]))
    if len(ess_a) != len(ess_b):
        return math.inf
    ess_cost = max((abs(x - y) for x, y in zip(ess_a, ess_b)), default=0.0)

    fin_a = np.array([x for x in a if not math.isinf(x[1])], dtype=np.float64).reshape(-1, 2)
    fin_b = np.array([x for x in b if not math.isinf(x[1])], dtype=np.float64).reshape(-1, 2)
    diag_a = (fin_a[:, 1] - fin_a[:, 0]) / 2.0
    diag_b = (fin_b[:, 1] - fin_b[:, 0]) / 2.0
    if len(fin_a) == 0 or len(fin_b) == 0:
        return max(ess_cost, float(np.concatenate((diag_a, diag_b, [0.0])).max()))
    cost = np.maximum(
        np.abs(fin_a[:, 0, None] - fin_b[None, :, 0]),
        np.abs(fin_a[:, 1, None] - fin_b[None, :, 1]),
    )

    def saturates(adj: list[list[int]], must: list[int], n_right: int) -> bool:
        match_right = [-1] * n_right

        def augment(i: int, seen: list[bool]) -> bool:
            for j in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    if match_right[j] == -1 or augment(match_right[j], seen):
                        match_right[j] = i
                        return True
            return False

        return all(augment(i, [False] * n_right) for i in must)

    def feasible(t: float) -> bool:
        ok = cost <= t
        for edges, diag in ((ok, diag_a), (ok.T, diag_b)):
            must = [i for i in range(len(diag)) if diag[i] > t]
            adj = [list(np.nonzero(row)[0]) for row in edges]
            if must and not saturates(adj, must, edges.shape[1]):
                return False
        return True

    candidates = np.unique(np.concatenate((cost.ravel(), diag_a, diag_b, [0.0])))
    lo = 0
    hi = int(np.searchsorted(candidates, max(diag_a.max(), diag_b.max())))
    best = candidates[hi]
    while lo <= hi:
        mid = (lo + hi) // 2
        if feasible(float(candidates[mid])):
            best = candidates[mid]
            hi = mid - 1
        else:
            lo = mid + 1
    return max(ess_cost, float(best))


def _pop_pivot(heap: list[tuple[int, int]], srcs: list[list[int]], pos: list[int]) -> int:
    """Pop the smallest key held by an odd number of sources, or return -1.

    ``heap`` holds ``(srcs[s][pos[s]], s)`` for each source s not yet used
    up; every popped entry is replaced by its source's next one.
    """
    while heap:
        x = heap[0][0]
        parity = 0
        while heap and heap[0][0] == x:
            s = heap[0][1]
            pos[s] += 1
            if pos[s] < len(srcs[s]):
                heapq.heapreplace(heap, (srcs[s][pos[s]], s))
            else:
                heapq.heappop(heap)
            parity ^= 1
        if parity:
            return x
    return -1


def h1_diagram_heap(cloud, max_eps="auto") -> PersistenceDiagram:
    """Dimension 0 and 1 persistence by the library's former coboundary engine.

    Kept as an oracle for clouds too big for ``rank_diagram``. A triangle
    is keyed ``rank of its last edge * n³ + sorted vertex triple``, each
    coboundary column is built sorted, and an addition chain is a lazy
    k-way merge of sorted key lists through a min-heap. Apparent pairs
    are found as in the library; the edge prelude and union-find sweep
    are the library's own.
    """
    _, rank, iu, ju, ev = _sorted_edges(cloud, max_eps)
    n = len(cloud)
    n_edges = int(iu.size)
    out, tree_edge = _dim0(n, iu, ju, ev)
    adj = rank < n_edges
    n3 = n**3

    def triple(u, v, w):
        lo = np.minimum(u, w)
        hi = np.maximum(v, w)
        return (lo * n + (u + v + w - lo - hi)) * n + hi

    cycle_edges = np.flatnonzero(~tree_edge)
    apparent_pivot = np.full(n_edges, -1, dtype=np.int64)
    for start in range(0, cycle_edges.size, 512):
        t = cycle_edges[start : start + 512]
        below = np.maximum(rank[iu[t]], rank[ju[t]]) < t[:, None]
        w = below.argmax(axis=1)
        hit = below[np.arange(t.size), w]
        t, w = t[hit], w[hit]
        apparent_pivot[t] = t * n3 + triple(iu[t], ju[t], w)

    def coboundary(t: int) -> np.ndarray:
        u, v = int(iu[t]), int(ju[t])
        ws = np.flatnonzero(adj[u] & adj[v])
        tstar = np.maximum(np.maximum(rank[u, ws], rank[v, ws]), t).astype(np.int64)
        return np.sort(tstar * n3 + triple(u, v, ws))

    stored: dict[int, np.ndarray] = {}

    def column(key: int):
        col = stored.get(key)
        if col is None and apparent_pivot[key // n3] == key:
            col = stored[key] = coboundary(key // n3)
        return col

    for t in cycle_edges[apparent_pivot[cycle_edges] < 0][::-1].tolist():
        srcs = [coboundary(t).tolist()]
        pos = [0]
        heap = [(srcs[0][0], 0)] if srcs[0] else []
        while (low := _pop_pivot(heap, srcs, pos)) >= 0 and (other := column(low)) is not None:
            if other.size > 1:
                heapq.heappush(heap, (int(other[1]), len(srcs)))
            srcs.append(other.tolist())
            pos.append(1)
        if low < 0:
            out.append(PersistenceInterval(1, float(ev[t]), math.inf))
            continue
        tails = np.concatenate([np.asarray(src[p:], dtype=np.int64) for src, p in zip(srcs, pos)])
        vals, counts = np.unique(tails, return_counts=True)
        stored[low] = np.concatenate(([low], vals[counts % 2 == 1]))
        if ev[low // n3] > ev[t]:
            out.append(PersistenceInterval(1, float(ev[t]), float(ev[low // n3])))

    return PersistenceDiagram(tuple(out))


def persistent_homology_boundary(filtration: Filtration) -> PersistenceDiagram:
    """Persistence of a filtration by the library's former boundary engine.

    Boundary matrices are reduced from the top dimension down, every
    column a big-integer bitmask over facet ranks; the lows of one
    dimension are births, so their columns are skipped one dimension
    below. Cycle edges no triangle pairs are essential. Kept as an oracle
    for ``persistent_homology``, which reduces coboundaries instead.
    """
    edges = filtration.simplices[1]
    edge_vals = filtration.values[1]
    n = filtration.n_vertices
    out, tree_edge = _dim0(n, edges[:, 0], edges[:, 1], edge_vals)

    cleared: set[int] = set()
    for p in range(filtration.max_dim, 1, -1):
        cols = filtration.simplices[p]
        col_vals = filtration.values[p]
        rows = filtration.simplices[p - 1]
        row_vals = filtration.values[p - 1]
        paired_rows, zero_cols = _reduce_boundary(_facet_ranks(rows, cols, n), cleared)
        if p < filtration.max_dim:
            # Nothing one dimension up paired a vanished column (those
            # were skipped), so it is an essential p-class.
            out.extend(
                PersistenceInterval(p, float(col_vals[c]), math.inf) for c in zero_cols
            )
        for row_rank, col_rank in paired_rows.items():
            birth = float(row_vals[row_rank])
            death = float(col_vals[col_rank])
            if death > birth:
                out.append(PersistenceInterval(p - 1, birth, death))
        cleared = set(paired_rows)

    if filtration.max_dim >= 2:
        for r in np.nonzero(~tree_edge)[0]:
            if int(r) not in cleared:
                out.append(PersistenceInterval(1, float(edge_vals[r]), math.inf))

    return PersistenceDiagram(tuple(out))


def _reduce_boundary(
    facet_ranks: np.ndarray, skip_cols: set[int]
) -> tuple[dict[int, int], list[int]]:
    """Column-reduce one boundary matrix over GF(2) in filtration order.

    Returns the pairing (row rank of each pivot mapped to its column
    rank) and the columns that reduced to zero.
    """
    pivot_col_of_row: dict[int, int] = {}
    stored: dict[int, int] = {}
    zero_cols: list[int] = []
    for c, facets in enumerate(zip(*facet_ranks.tolist())):
        if c in skip_cols:
            continue
        col = 0
        for r in facets:
            col ^= 1 << r
        while col:
            low = col.bit_length() - 1
            other = stored.get(low)
            if other is None:
                stored[low] = col
                pivot_col_of_row[low] = c
                break
            col ^= other
        else:
            zero_cols.append(c)
    return pivot_col_of_row, zero_cols


def fit_conic(points: np.ndarray) -> tuple[float, float, float]:
    """Least-squares central conic fit a·x² + b·xy + c·y² = 1.

    Returns (rotation_deg in [0, 90), major radius, minor radius). Only
    meaningful for points tracing an origin-centered ellipse.
    """
    x, y = points[:, 0], points[:, 1]
    design = np.column_stack((x * x, x * y, y * y))
    coef, *_ = np.linalg.lstsq(design, np.ones(len(points)), rcond=None)
    a, b, c = coef
    quad = np.array([[a, b / 2.0], [b / 2.0, c]])
    evals, evecs = np.linalg.eigh(quad)
    radii = 1.0 / np.sqrt(evals)
    # eigh sorts ascending, so the first eigenvector's axis is the major one
    major_axis = evecs[:, 0]
    angle = math.degrees(math.atan2(major_axis[1], major_axis[0])) % 180.0
    if angle >= 90.0:
        angle -= 90.0
        radii = radii[::-1]
    return angle, float(max(radii)), float(min(radii))


def hausdorff_brute(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance with plain loops."""

    def directed(p: np.ndarray, q: np.ndarray) -> float:
        return max(min(math.dist(x, y) for y in q) for x in p)

    return max(directed(a, b), directed(b, a))


class _SplitMix:
    """Same deterministic stream as the library's SplitMix64."""

    def __init__(self, seed: int) -> None:
        self.state = seed & 0xFFFFFFFFFFFFFFFF

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return (self.next_u64() * n) >> 64


def maxmin_brute(points: np.ndarray, n: int, seed: int = 0) -> np.ndarray:
    """Greedy farthest-point subsample recomputed from the definition.

    Every index is a candidate each round (already-chosen ones sit at
    distance zero and lose any tie to the lowest index), matching the
    argmax convention of the implementation under test.
    """
    total = len(points)
    rng = _SplitMix(seed)
    chosen = [rng.below(total)]
    for _ in range(n - 1):
        best_idx, best_dist = 0, -1.0
        for cand in range(total):
            dmin = min(math.dist(points[cand], points[c]) for c in chosen)
            if dmin > best_dist:
                best_dist, best_idx = dmin, cand
        chosen.append(best_idx)
    return points[chosen]


def random_subsample_list(points: np.ndarray, n: int, seed: int = 0) -> np.ndarray:
    """Seeded partial Fisher-Yates over a full list of indices.

    The library's former loop: it builds ``list(range(total))`` and swaps
    its prefix, drawing the same ``below`` stream as the library.
    """
    total = len(points)
    rng = _SplitMix(seed)
    idx = list(range(total))
    for i in range(n):
        j = i + rng.below(total - i)
        idx[i], idx[j] = idx[j], idx[i]
    return points[idx[:n]]


def zero_crossing_lags(v: np.ndarray) -> list[int]:
    """Integer lags nearest to the sign changes of a curve, one sample at a time.

    Zero samples are skipped; a sign change between adjacent samples is
    interpolated linearly, one across zeros sits at the first zero.
    """
    lags: list[int] = []
    prev_sign = 0
    prev_idx = -1
    for j in range(v.size):
        sign = int(v[j] > 0) - int(v[j] < 0)
        if sign == 0:
            continue
        if prev_sign != 0 and sign != prev_sign:
            if prev_idx == j - 1:
                frac = v[j - 1] / (v[j - 1] - v[j])
                lag = int(round((j - 1) + frac))
            else:
                lag = prev_idx + 1
            lags.append(max(lag, 1))
        prev_sign = sign
        prev_idx = j
    return lags


def zero_crossing_times(x: np.ndarray, rate: float) -> np.ndarray:
    """Times where a sampled signal changes sign, one sample at a time."""
    times: list[float] = []
    prev_sign = 0
    prev_idx = -1
    for i in range(x.size):
        sign = int(x[i] > 0) - int(x[i] < 0)
        if sign == 0:
            continue
        if prev_sign != 0 and sign != prev_sign:
            if prev_idx == i - 1:
                frac = x[i - 1] / (x[i - 1] - x[i])
                times.append(((i - 1) + frac) / rate)
            else:
                times.append((prev_idx + 1) / rate)
        prev_sign = sign
        prev_idx = i
    return np.asarray(times)


def critical_lags(v: np.ndarray) -> list[int]:
    """Lags where the discrete derivative changes sign, one step at a time.

    A run of zero derivative counts as one flat extremum at its midpoint.
    """
    crit: list[int] = []
    prev_sign = 0
    prev_pos = -1
    for i, di in enumerate(np.diff(v)):
        sign = int(di > 0) - int(di < 0)
        if sign == 0:
            continue
        if prev_sign != 0 and sign != prev_sign:
            crit.append(int(round((prev_pos + 1 + i) / 2)))
        prev_sign = sign
        prev_pos = i
    return crit


def fit_envelope_loop(s) -> np.ndarray:
    """Envelope rows of a signal, one pair of nonzero differences at a time.

    The library's former ``fit_envelope``: a rise followed by a fall is a
    maximum at the midpoint (floored) of the flat run between them.
    """
    x = s.samples
    d = np.diff(x)
    nz = np.nonzero(d)[0]
    rows: list[tuple[float, float]] = []
    for a, b in zip(nz, nz[1:]):
        if d[a] > 0 and d[b] < 0:
            mid = (a + 1 + b) // 2
            if x[mid] > 0:
                rows.append((mid / s.sample_rate_hz, float(x[mid])))
    if len(rows) < 2:
        raise InsufficientPeaksError(
            f"found {len(rows)} positive local maxima, need at least 2"
        )
    return np.asarray(rows)


def split_gap_runs_loop(gaps: np.ndarray) -> list[int]:
    """Split points of a gap sequence, one window pair at a time.

    The library's former ``_split_gap_runs``: both window means are taken
    by ``np.mean`` at every scan position.
    """
    n = gaps.size
    w = _GAP_WINDOW
    splits: list[int] = []
    i = w
    while i + w <= n:
        mu_l = float(np.mean(gaps[i - w : i]))
        mu_r = float(np.mean(gaps[i : i + w]))
        if abs(mu_l - mu_r) > _GAP_SHIFT * mu_l:
            lo = max(1, i - 2)
            hi = min(n - 1, i + w)
            jumps = np.abs(gaps[lo : hi + 1] - gaps[lo - 1 : hi])
            bp = lo + int(np.argmax(jumps))
            if not splits or bp > splits[-1]:
                splits.append(bp)
            i = bp + w
        else:
            i += 1
    return splits


def best_phase_scan(x: np.ndarray, amps: np.ndarray, theta: np.ndarray) -> int:
    """Grid index of the least squared error, scoring every grid phase directly.

    The library's former initial-phase search in ``fit_model``.
    """
    grid = 2.0 * math.pi * np.arange(_PHI_GRID) / _PHI_GRID
    errs = [float(np.sum((x - amps * np.sin(theta + phi)) ** 2)) for phi in grid]
    return int(np.argmin(errs))


def envelope_pchip_scipy(envelope, t) -> np.ndarray | None:
    """A model envelope at times t through ``scipy.interpolate.PchipInterpolator``.

    The library's former ``envelope_at`` for two or more breakpoints.
    Returns None where scipy rejects the breakpoint slopes as not finite.
    """
    from scipy.interpolate import PchipInterpolator

    ts = np.asarray([p[0] for p in envelope])
    amps = np.asarray([p[1] for p in envelope])
    with np.errstate(all="ignore"):
        try:
            interp = PchipInterpolator(ts, amps)
        except ValueError:
            return None
        return np.asarray(interp(np.clip(t, ts[0], ts[-1])))


def load_csv_loop(path) -> Signal:
    """``load_csv`` as one ``float`` call per line."""
    rate = 1.0
    samples: list[float] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("sample_rate="):
                try:
                    rate = float(body.split("=", 1)[1])
                except ValueError as exc:
                    raise MalformedHeaderError(f"{path}:{lineno}: bad sample rate") from exc
            continue
        try:
            value = float(line)
            if not math.isfinite(value):
                raise ValueError("not finite")
        except ValueError as exc:
            raise MalformedHeaderError(f"{path}:{lineno}: not a number: {line!r}") from exc
        samples.append(value)
    if len(samples) < 2:
        raise EmptyAudioError(f"{path}: fewer than two samples")
    return Signal(np.asarray(samples, dtype=np.float64), rate)


def read_cloud_csv_loop(path) -> PointCloud:
    """``read_cloud_csv`` as one ``float`` call per coordinate."""
    rows: list[list[float]] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
            if not all(map(math.isfinite, row)):
                raise ValueError("not finite")
        except ValueError as exc:
            raise MalformedHeaderError(f"{path}:{lineno}: bad point: {line!r}") from exc
        rows.append(row)
    if not rows:
        return PointCloud(np.empty((0, 2)))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise MalformedHeaderError(f"{path}: inconsistent coordinate counts")
    return PointCloud(np.asarray(rows, dtype=np.float64))


def pcm24_assembly(data: bytes) -> np.ndarray:
    """24-bit PCM bytes as ``load_wav`` once decoded them: int64 byte
    assembly and manual sign extension, scaled by 2^23. A partial
    trailing sample is dropped."""
    raw = np.frombuffer(data, dtype=np.uint8)
    raw = raw[: (raw.size // 3) * 3].reshape(-1, 3).astype(np.int64)
    vals = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
    vals = vals - ((vals & 0x800000) << 1)
    return vals.astype(np.float64) / float(1 << 23)
