"""Distances between point clouds and between persistence diagrams.

The bottleneck distance is computed exactly: the optimum is always one of
the finitely many candidate costs (pairwise interval distances and
diagonal projection costs), so a search over the sorted candidates with a
bipartite matching feasibility test at each step finds it (Efrat, Itai &
Katz 2001; Kerber, Morozov & Nigmetov 2017).

- **Bounded candidates.** No interval can be served for less than the
  cheaper of its diagonal cost and its cheapest cross cost, and matching
  nothing across is always feasible, so only the candidates between the
  largest such bound and the largest diagonal cost are searched. The
  search tries the bound first and gallops upward from it before it
  bisects, because the answer is most often the bound or just above it.
- **Prefix adjacency.** Each row of the cost matrix is argsorted once per
  call; the neighbours of an interval at threshold t are then the first
  ``deg`` entries of its sorted row, turned into a Python list only as
  far as some step has needed.
- **Iterative, warm-started matching.** Augmenting paths are found on an
  explicit stack, so there is no recursion depth limit. Each side keeps
  its matching from step to step, minus the pairs that cost more than
  the new threshold and the intervals that need no longer be matched.
"""

from __future__ import annotations

import math

import numpy as np

from .embedding import PointCloud
from .errors import DimensionMismatchError, EmptyCloudError
from .persistence import PersistenceDiagram


def hausdorff(a: PointCloud, b: PointCloud) -> float:
    """Symmetric Hausdorff distance between two clouds.

    The larger of the two directed distances, where the directed distance
    is the worst nearest-neighbor distance from one cloud into the other.
    Euclidean throughout.
    """
    if len(a) == 0 or len(b) == 0:
        raise EmptyCloudError("Hausdorff distance needs two nonempty clouds")
    if a.dim != b.dim:
        raise DimensionMismatchError(f"cloud dimensions differ: {a.dim} vs {b.dim}")
    if len(a) * len(b) > 4_000_000:
        from scipy.spatial import cKDTree

        d_ab = cKDTree(b.points).query(a.points)[0].max()
        d_ba = cKDTree(a.points).query(b.points)[0].max()
        return float(max(d_ab, d_ba))
    from scipy.spatial.distance import cdist

    d = cdist(a.points, b.points)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _interval_arrays(diagram: PersistenceDiagram, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(birth, death) rows of the finite intervals and births of the essential ones.

    Raises ``ValueError`` on the intervals ``PersistenceDiagram.from_dicts``
    rejects: a birth that is not finite, or a death that is NaN or below
    its birth.
    """
    ivs = [iv for iv in diagram.intervals if iv.dim == dim]
    births, deaths = np.array(
        [iv.birth for iv in ivs] + [iv.death for iv in ivs], dtype=np.float64
    ).reshape(2, -1)
    if not (np.isfinite(births).all() and (births <= deaths).all()):
        raise ValueError(
            f"dimension-{dim} intervals need finite births and deaths not below them"
        )
    finite = np.isfinite(deaths)
    return np.column_stack((births[finite], deaths[finite])), births[~finite]


def _cover(rows: list[list[int]], deg: list[int], must: list[int],
           slot: list[int], match_r: list[int]) -> bool:
    """Extend a matching until it covers every left node in ``must``.

    Left node i is adjacent to the first ``deg[i]`` entries of ``rows[i]``
    and matched to ``rows[i][slot[i]]`` (``slot[i] == -1``: unmatched);
    ``match_r`` is the inverse. Every left node matched on entry must be
    in ``must``. Searches then start from the unmatched mandatory nodes
    only and draw optional nodes in through no path, so a search that
    fails with fresh marks proves that no matching covers ``must``
    (Berge). Augmenting paths are found depth-first on an explicit stack:
    no recursion. The searches of one phase share their marks, so a phase
    visits each right node once; a root that fails after another root of
    its phase succeeded is tried again in the next phase.
    """
    n_right = len(match_r)
    pending = [root for root in must if slot[root] == -1]
    while pending:
        seen = bytearray(n_right)
        grown = False
        retry = []
        for root in pending:
            path, pos = [root], [0]
            while path:
                i = path[-1]
                row, d, k = rows[i], deg[i], pos[-1]
                while k < d and seen[row[k]]:
                    k += 1
                if k == d:
                    path.pop()
                    pos.pop()
                    continue
                pos[-1] = k + 1
                j = row[k]
                seen[j] = 1
                if match_r[j] == -1:
                    for i, k in zip(path, pos):
                        slot[i] = k - 1
                        match_r[rows[i][k - 1]] = i
                    grown = True
                    break
                path.append(match_r[j])
                pos.append(0)
            else:
                if not grown:
                    return False
                retry.append(root)
        pending = retry
    return True


class _Side:
    """One side's feasibility test: can its mandatory intervals be covered?

    Each row of ``cost`` is argsorted once, so the neighbours of left
    node i at threshold t are a prefix of its sorted row. Only the longest
    prefix a step has needed is kept as a Python list. The matching is
    kept from step to step. Before each step its pairs that cost more
    than t and its left nodes that are no longer mandatory are dropped;
    what is left is valid at t and a warm start for ``_cover``.
    """

    def __init__(self, cost: np.ndarray, diag: np.ndarray) -> None:
        self.cost, self.diag = cost, diag
        self.order = np.argsort(cost, axis=1, kind="stable")
        self.rows: list[list[int]] = [[] for _ in range(cost.shape[0])]
        self.width = np.zeros(cost.shape[0], dtype=np.intp)
        self.diag_list = diag.tolist()
        self.slot = [-1] * cost.shape[0]
        self.match_r = [-1] * cost.shape[1]

    def feasible(self, t: float) -> bool:
        must = np.flatnonzero(self.diag > t).tolist()
        if not must:
            return True
        deg_arr = np.count_nonzero(self.cost <= t, axis=1)
        deg = deg_arr.tolist()
        wider = np.flatnonzero(deg_arr > self.width)
        for i in wider.tolist():
            self.rows[i] = self.order[i, : deg[i]].tolist()
        self.width[wider] = deg_arr[wider]
        slot, match_r = self.slot, self.match_r
        for i, k in enumerate(slot):
            if k != -1 and (k >= deg[i] or self.diag_list[i] <= t):
                slot[i] = -1
                match_r[self.rows[i][k]] = -1
        return _cover(self.rows, deg, must, slot, match_r)


def bottleneck(a: PersistenceDiagram, b: PersistenceDiagram, dim: int) -> float:
    """Exact bottleneck distance between two diagrams in one dimension.

    Finite intervals may be matched to each other (L-infinity cost) or to
    the diagonal (half their length); essential intervals only to other
    essential intervals. Diagrams with different essential counts are
    infinitely far apart.

    The answer is the smallest candidate cost t at which a matching exists
    whose every assignment costs at most t. Only the candidates between
    a lower bound and the largest diagonal cost are searched (see the
    module docstring); the search tests the lower bound, gallops upward
    until a test succeeds, then bisects. A test at t covers the intervals
    of A whose diagonal cost exceeds t, then those of B: in a bipartite
    graph both sets can be covered by one matching when each can be
    covered alone (Mendelsohn-Dulmage). The matching is grown with
    iterative augmenting paths over prefix adjacency, warm-started from
    the previous step, and the answer is the same float the plain binary
    search over all candidates gives.
    """
    fin_a, ess_a = _interval_arrays(a, dim)
    fin_b, ess_b = _interval_arrays(b, dim)

    if len(ess_a) != len(ess_b):
        return math.inf
    ess_cost = 0.0
    if len(ess_a):
        # Matching sorted births pairwise minimizes the worst birth gap.
        ess_cost = float(np.max(np.abs(np.sort(ess_a) - np.sort(ess_b))))

    m, n = len(fin_a), len(fin_b)
    if m == 0 and n == 0:
        return ess_cost
    diag_a = (fin_a[:, 1] - fin_a[:, 0]) / 2.0
    diag_b = (fin_b[:, 1] - fin_b[:, 0]) / 2.0
    if m == 0 or n == 0:
        only = diag_a if n == 0 else diag_b
        return max(ess_cost, float(only.max()))

    cost = np.maximum(
        np.abs(fin_a[:, 0, None] - fin_b[None, :, 0]),
        np.abs(fin_a[:, 1, None] - fin_b[None, :, 1]),
    )
    lb = max(
        np.minimum(diag_a, cost.min(axis=1)).max(),
        np.minimum(diag_b, cost.min(axis=0)).max(),
    )
    top = max(diag_a.max(), diag_b.max())
    values = np.concatenate((cost.ravel(), diag_a, diag_b))
    candidates = np.unique(values[(values >= lb) & (values <= top)])
    side_a, side_b = _Side(cost, diag_a), _Side(cost.T, diag_b)
    lo, hi = 0, len(candidates) - 1
    span = 0  # each failed test doubles the next step up: a gallop from lb
    while lo < hi:
        mid = min(lo + span, (lo + hi) // 2)
        t = float(candidates[mid])
        if side_a.feasible(t) and side_b.feasible(t):
            hi = mid
        else:
            lo = mid + 1
            span = 2 * span + 1
    return max(ess_cost, float(candidates[lo]))
