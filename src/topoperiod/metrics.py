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
- **One mask per step.** A test at t compares the cost matrix with t
  once; an interval's neighbours are read off its row of that mask only
  when a search reaches it.
- **Iterative, warm-started matching.** Augmenting paths are found on an
  explicit stack, so there is no recursion depth limit. Each side keeps
  its matching from step to step, minus the pairs that cost more than
  the new threshold and the intervals that need no longer be matched.
"""

from __future__ import annotations

import math

import numpy as np

from .embedding import PointCloud, _finite_distance, pairwise
from .errors import DimensionMismatchError, EmptyCloudError
from .persistence import PersistenceDiagram


# Above this many point pairs (len(a) * len(b)), ``hausdorff`` finds
# nearest neighbours with a k-d tree instead of computing every distance.
_TREE_PAIRS = 4_000_000
# Points of the larger partner bounds that the tree queries first, for L.
_SEED_QUERIES = 128
# Distances per ``pairwise`` block of the direct branch (512 KiB each).
_BLOCK_PAIRS = 1 << 16


def hausdorff(a: PointCloud, b: PointCloud) -> float:
    """Symmetric Hausdorff distance between two clouds.

    The larger of the two directed distances, where the directed distance
    is the worst nearest-neighbor distance from one cloud into the other.
    Euclidean throughout.

    Up to 4 000 000 point pairs (``len(a) * len(b)``) every distance is
    computed with ``pairwise``, a block of rows of ``a`` at a time, so
    memory stays bounded; above that, a k-d tree finds the nearest
    neighbors, so memory stays linear in the cloud sizes, and most points
    need no query (``_directed_tree``). The two paths sum squared
    coordinates in different orders, and on clouds of 8 or more
    dimensions they disagree in the last bit on about a fifth of random
    cloud pairs. The bytes ``topoperiod dist hausdorff`` prints for such
    clouds therefore depend on which side of the size fork the pair
    falls. On both sides a result that overflows float64 raises
    ValueError; overflowed distances that the result does not read, such
    as those between far-apart points of ``c`` in ``hausdorff(c, c)``, do
    not.
    """
    if len(a) == 0 or len(b) == 0:
        raise EmptyCloudError("Hausdorff distance needs two nonempty clouds")
    if a.dim != b.dim:
        raise DimensionMismatchError(f"cloud dimensions differ: {a.dim} vs {b.dim}")
    if len(a) * len(b) > _TREE_PAIRS:
        return _finite_distance(
            max(_directed_tree(a.points, b.points), _directed_tree(b.points, a.points))
        )
    p, q = a.points, b.points
    rows = max(1, _BLOCK_PAIRS // len(q))
    row_max = 0.0
    col_min = np.full(len(q), np.inf)
    for start in range(0, len(p), rows):
        d = pairwise(p[start : start + rows], q)
        row_max = max(row_max, float(d.min(axis=1).max()))
        np.minimum(col_min, d.min(axis=0), out=col_min)
    return _finite_distance(max(row_max, float(col_min.max())))


def _directed_tree(p: np.ndarray, q: np.ndarray) -> float:
    """The largest k-d tree nearest-neighbor distance from the rows of p into q.

    Equal to ``cKDTree(q).query(p)[0].max()``, bit for bit, but most
    points need no query. The partner of ``p[i]`` is
    ``q[min(i, len(q) - 1)]``; for two graphs on one time grid it is the
    sample at the same instant. ``u[i]``, the squared distance to the
    partner summed in coordinate order, bounds the squared nearest
    distance of ``p[i]`` for any two clouds. The ``_SEED_QUERIES`` (128)
    points of largest ``u`` are queried first; the largest of their distances is
    L, a lower bound of the answer. Then only the points with
    ``u * (1 + 8 * dim * eps) >= L * L`` are queried, and the answer is
    the larger of L and their maximum.

    A skipped point's nearest distance is at most its partner distance,
    which is below L, so it cannot exceed the answer. The margin covers
    the rounding that separates ``u`` and ``L * L`` from the tree's own
    squared distances: the tree squares the same coordinate differences
    but sums them in another order in 8 or more dimensions, and L is a
    rounded square root (relative error below ``(dim + 3) * eps`` in
    all; sums of underflowed squares are exact). So even the tree's
    rounded distance from a skipped point to its partner is at most L,
    and the answer is always the tree's own distance for the point that
    attains it. A ``u`` or an answer that overflows is ``inf``.
    """
    from scipy.spatial import cKDTree

    # The unbalanced, uncompacted tree builds faster; the search is exact
    # whatever the tree's shape.
    tree = cKDTree(q, balanced_tree=False, compact_nodes=False)
    if len(p) <= _SEED_QUERIES:
        return float(tree.query(p)[0].max())
    partner = q[np.minimum(np.arange(len(p)), len(q) - 1)]
    with np.errstate(over="ignore"):
        u = p[:, 0] - partner[:, 0]
        u *= u
        for k in range(1, p.shape[1]):
            diff = p[:, k] - partner[:, k]
            diff *= diff
            u += diff
        seeds = np.argpartition(u, len(p) - _SEED_QUERIES)[-_SEED_QUERIES:]
        low = float(tree.query(p[seeds])[0].max())
        rest = u * (1 + 8 * p.shape[1] * np.finfo(np.float64).eps) >= low * low
    rest[seeds] = False
    if not rest.any():
        return low
    return max(low, float(tree.query(p[rest])[0].max()))


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


def _cover(adj: np.ndarray, must: list[int], match_l: list[int],
           match_r: list[int]) -> bool:
    """Extend a matching until it covers every left node in ``must``.

    Left node i is adjacent to the right nodes j with ``adj[i, j]`` and
    matched to ``match_l[i]`` (-1: unmatched); ``match_r`` is the inverse.
    Every left node matched on entry must be in ``must``. Searches then
    start from the unmatched mandatory nodes only and draw optional nodes
    in through no path, so a search that fails with fresh marks proves
    that no matching covers ``must`` (Berge). Augmenting paths are found
    depth-first on an explicit stack: no recursion. A row's neighbour list
    is built when a search first visits it. The searches of one phase
    share their marks, so a phase visits each right node once; a root
    that fails after another root of its phase succeeded is tried again
    in the next phase.
    """
    rows: list[list[int] | None] = [None] * len(match_l)
    pending = [root for root in must if match_l[root] == -1]
    while pending:
        seen = bytearray(len(match_r))
        grown = False
        retry = []
        for root in pending:
            path, pos = [root], [0]
            while path:
                i = path[-1]
                row = rows[i]
                if row is None:
                    row = rows[i] = adj[i].nonzero()[0].tolist()
                d, k = len(row), pos[-1]
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
                        match_l[i] = rows[i][k - 1]
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

    The matching is kept from step to step as column ids. Before each
    step its pairs that cost more than t and its left nodes that are no
    longer mandatory are dropped; what is left is valid at t and a warm
    start for ``_cover``.
    """

    def __init__(self, cost: np.ndarray, diag: np.ndarray) -> None:
        self.cost, self.diag = cost, diag
        self.match_l = [-1] * cost.shape[0]
        self.match_r = [-1] * cost.shape[1]

    def feasible(self, t: float) -> bool:
        must = self.diag > t
        if not must.any():
            return True
        adj = self.cost <= t
        match_l, match_r = self.match_l, self.match_r
        for i, j in enumerate(match_l):
            if j != -1 and not (must[i] and adj[i, j]):
                match_l[i] = match_r[j] = -1
        return _cover(adj, np.flatnonzero(must).tolist(), match_l, match_r)


def bottleneck(a: PersistenceDiagram, b: PersistenceDiagram, dim: int) -> float:
    """Exact bottleneck distance between two diagrams in one dimension.

    Finite intervals may be matched to each other (L-infinity cost) or to
    the diagonal (half their length); essential intervals only to other
    essential intervals. Diagrams with different essential counts are
    infinitely far apart.

    The answer is the smallest candidate cost t at which a matching exists
    whose every assignment costs at most t. The search tests the lower
    bound of the module docstring, gallops upward until a test succeeds,
    then bisects. A test at t covers the intervals of A whose diagonal
    cost exceeds t, then those of B: in a bipartite graph both sets can
    be covered by one matching when each can be covered alone
    (Mendelsohn-Dulmage). Each side grows its matching with iterative
    augmenting paths over the mask ``cost <= t``, warm-started from its
    previous step. The answer is the same float the plain binary search
    over all candidates gives.
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
