"""Vietoris-Rips filtrations and persistent homology over GF(2).

A Rips filtration on a point cloud assigns every simplex the largest
pairwise distance among its vertices. Persistent homology then pairs the
simplex that creates each homology class with the simplex that fills it
in, producing birth/death intervals per dimension. Dimension 0 is handled
with a union-find sweep (which yields the same interval multiset as
matrix reduction, since every vertex is born at 0) and dimensions 1 and
up by reducing coboundary columns, one dimension at a time from the
bottom up: the simplices paired one dimension below are cleared, so
their columns are never reduced, and the top dimension is never a column.
Both engines start from one prelude: the edges within the cutoff in
filtration order and a matrix of each vertex pair's edge rank, with a
sentinel past the last edge where there is no edge.
``rips_filtration`` grows each dimension from the one below by adding a
common neighbour above a simplex's last vertex, triangles included, and
``persistent_homology`` finds the row of every facet by the dense rank
of its vertex prefixes, the same lookup in every dimension, and groups
the cofaces of each simplex from it.
``h1_diagram`` gives dimensions 0 and 1 from the same edges and ranks
without storing triangles. Its "auto" cutoff is the enclosing radius
``min_i max_j d(i, j)``, not the diameter: from that radius on the
complex is a cone on the centre point, so every later edge gives only
zero-length bars. One scan classifies every kept edge: edge t=(u,v) is
an apparent pair when some w has both edges to u and v ranked below t,
and pairs with the triangle of the smallest such w, which a test of the
first few vertices finds for most edges. Such an edge closes a cycle,
so the union-find sweep runs over the other edges only, and a
coboundary column is built only for the cycle edges among them. A
triangle is keyed by the rank of its longest edge times n plus the
vertex opposite that edge, so its owner edge is ``key // n``, which
finds an apparent column when a reduction needs it.
Columns are added by XOR into one dense boolean working column indexed by
key, so an addition needs no sort and no merge; the keys of non-triangles
land in a tail past the last real key, so no column is filtered.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .embedding import PointCloud, _finite_distance, pairwise
from .errors import EmptyCloudError


@dataclass(frozen=True)
class Filtration:
    """Simplices of a filtered complex, grouped and sorted by dimension.

    ``simplices[d]`` is an (n_d, d+1) integer array of vertex ids, each
    row ascending; ``values[d]`` the matching filtration values. Rows are
    ordered by (value, lexicographic vertex order), so a row's index is
    its rank among simplices of that dimension. Every face of a simplex
    appears at an earlier or equal value.
    """

    n_vertices: int
    max_dim: int
    simplices: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return int(sum(v.size for v in self.values))


def _sorted_edges(
    cloud: PointCloud, max_eps: float | str | None, enclosing: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distances, edge ranks and the edges within the cutoff in filtration order.

    Returns ``(dist, rank, iu, ju, ev)``: edge t joins ``iu[t] < ju[t]``
    at value ``ev[t]``, sorted by (value, iu, ju), and the int32 matrix
    ``rank`` holds t at ``[iu[t], ju[t]]`` and ``[ju[t], iu[t]]`` and the
    sentinel ``len(ev)`` at every pair that is not an edge, the diagonal
    included. "auto" (or None) as ``max_eps`` truncates nothing. With
    ``enclosing`` the cutoff is at most the enclosing radius
    ``min_i max_j d(i, j)``, past which only zero-length bars are born
    (see ``h1_diagram``). Raises ValueError when a kept edge's length
    overflows float64; a cutoff that drops every such edge keeps the
    diagram.
    """
    if len(cloud) == 0:
        raise EmptyCloudError("cannot compute persistence of an empty cloud")
    dist = pairwise(cloud.points)
    eps = math.inf
    if max_eps is not None and max_eps != "auto":
        eps = float(max_eps)
        # NaN fails every comparison, so this also rejects a NaN cutoff.
        if not eps >= 0:
            raise ValueError("max_eps must be nonnegative")
    if enclosing:
        eps = min(eps, float(dist.max(axis=1).min()))
    # np.nonzero yields (iu, ju) in lexicographic order, which a stable
    # sort keeps among tied values. The default sort is several times
    # faster but may shuffle ties, so a stable one re-sorts only then.
    iu, ju = np.nonzero(np.triu(dist <= eps, 1))
    vals = dist[iu, ju]
    order = np.argsort(vals)
    if (vals[order[1:]] == vals[order[:-1]]).any():
        order = np.argsort(vals, kind="stable")
    iu, ju, ev = iu[order], ju[order], vals[order]
    if ev.size:  # the longest kept edge
        _finite_distance(float(ev[-1]))
    rank = np.full(dist.shape, ev.size, dtype=np.int32)
    rank[iu, ju] = rank[ju, iu] = np.arange(ev.size, dtype=np.int32)
    return dist, rank, iu, ju, ev


def _dim0(
    n: int, iu: np.ndarray, ju: np.ndarray, ev: np.ndarray
) -> tuple[list[PersistenceInterval], np.ndarray]:
    """Dimension-0 intervals and the spanning-tree edges, by a Kruskal sweep.

    Every vertex is born at value 0 and each component-merging edge
    kills exactly one class at its own value, so union-find over the
    sorted edges reproduces the interval multiset of full reduction. The
    sweep stops once one component is left: every later edge closes a
    cycle.
    """
    out: list[PersistenceInterval] = []
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree_edge = np.zeros(len(ev), dtype=bool)
    components = n
    for idx, (u, v, val) in enumerate(zip(iu.tolist(), ju.tolist(), ev.tolist())):
        ru = find(u)
        rv = find(v)
        if ru != rv:
            parent[ru] = rv
            tree_edge[idx] = True
            components -= 1
            if val > 0.0:
                out.append(PersistenceInterval(0, 0.0, val))
            if components == 1:
                break
    out.extend(PersistenceInterval(0, 0.0, math.inf) for _ in range(components))
    return out, tree_edge


def rips_filtration(
    cloud: PointCloud, max_dim: int = 2, max_eps: float | str | None = "auto"
) -> Filtration:
    """Build the Rips filtration of a cloud up to a simplex dimension.

    Parameters
    ----------
    cloud : PointCloud
        Nonempty input cloud.
    max_dim : int
        Largest simplex dimension to include; 2 (triangles) is enough to
        resolve the death of every 1-dimensional class.
    max_eps : float, "auto", or None
        Distance cutoff for simplex inclusion. "auto" (or None) uses the
        cloud diameter, so nothing is truncated.
    """
    if max_dim < 1:
        raise ValueError("max_dim must be at least 1")
    dist, rank, iu, ju, ev = _sorted_edges(cloud, max_eps)
    adj = rank < len(ev)
    n = len(cloud)

    simplices: list[np.ndarray] = [
        np.arange(n, dtype=np.int64).reshape(-1, 1),
        np.column_stack((iu, ju)).astype(np.int64),
    ]
    values: list[np.ndarray] = [np.zeros(n), ev]

    for _ in range(2, max_dim + 1):
        rows, vals = _grow_cliques(simplices[-1], values[-1], dist, adj)
        simplices.append(rows)
        values.append(vals)

    return Filtration(
        n_vertices=n,
        max_dim=max_dim,
        simplices=tuple(simplices),
        values=tuple(values),
    )


# Rows of (d-1)-simplices grown at a time; bounds the (rows, n) masks.
_GROW_BLOCK = 512


def _grow_cliques(
    prev: np.ndarray, prev_vals: np.ndarray, dist: np.ndarray, adj: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Grow (d-1)-simplices into d-simplices by one common neighbor.

    Each simplex gains every vertex above its last one that is adjacent
    to all of its vertices; the new value is the larger of the old one
    and the distances to the new vertex. Rows come back in filtration
    order: by value, then lexicographically by vertices.
    """
    width = prev.shape[1] + 1
    idx = np.arange(adj.shape[0])
    parts: list[np.ndarray] = [np.empty((0, width), dtype=np.int64)]
    part_vals: list[np.ndarray] = [np.empty(0)]
    for start in range(0, len(prev), _GROW_BLOCK):
        block = prev[start : start + _GROW_BLOCK]
        common = idx > block[:, -1:]
        for c in range(block.shape[1]):
            common &= adj[block[:, c]]
        r, v = np.nonzero(common)
        grown = block[r]
        parts.append(np.column_stack((grown, v)))
        part_vals.append(
            np.maximum(prev_vals[start + r], dist[grown, v[:, None]].max(axis=1))
        )
    rows = np.concatenate(parts)
    vals = np.concatenate(part_vals)
    order = np.lexsort(tuple(rows[:, c] for c in range(width - 1, -1, -1)) + (vals,))
    return rows[order], vals[order]


@dataclass(frozen=True, order=True)
class PersistenceInterval:
    """One barcode interval; ``death`` is ``math.inf`` for essential classes."""

    dim: int
    birth: float
    death: float

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.death)

    @property
    def length(self) -> float:
        return self.death - self.birth


_INTERVAL_KEY = operator.attrgetter("dim", "birth", "death")


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of persistence intervals, stored in canonical order."""

    intervals: tuple[PersistenceInterval, ...]

    def __post_init__(self) -> None:
        # The order of the intervals' generated __lt__, by a key: key tuples
        # compare in C, not through a Python call per comparison.
        ordered = sorted(self.intervals, key=_INTERVAL_KEY)
        object.__setattr__(self, "intervals", tuple(ordered))

    def __len__(self) -> int:
        return len(self.intervals)

    def in_dim(self, dim: int) -> list[PersistenceInterval]:
        return [iv for iv in self.intervals if iv.dim == dim]

    def finite(self, dim: int) -> list[PersistenceInterval]:
        return [iv for iv in self.intervals if iv.dim == dim and iv.is_finite]

    def essential(self, dim: int) -> list[PersistenceInterval]:
        return [iv for iv in self.intervals if iv.dim == dim and not iv.is_finite]

    def to_dicts(self) -> list[dict]:
        """JSON-ready form: death is null for essential intervals."""
        return [
            {
                "dim": iv.dim,
                "birth": iv.birth,
                "death": iv.death if iv.is_finite else None,
            }
            for iv in self.intervals
        ]

    @classmethod
    def from_dicts(cls, rows: list[dict]) -> "PersistenceDiagram":
        """Inverse of ``to_dicts``: a null death is an essential class.

        Raises ``ValueError`` naming the row when a row is not an object,
        lacks its dim or birth, its dim is not an integer of at least 0,
        its birth or death is not a number (a bool or string is none),
        its birth is not finite, or its death is NaN, ``-Infinity`` or
        below its birth. Zero-length intervals are accepted.
        """
        return cls(tuple(_interval_from_dict(i, r) for i, r in enumerate(rows)))


def _is_number(x: object) -> bool:
    # A bool is an int to isinstance; JSON numbers are mostly floats.
    return type(x) is float or (isinstance(x, (int, float)) and not isinstance(x, bool))


def _interval_from_dict(index: int, row: object) -> PersistenceInterval:
    if not isinstance(row, dict):
        raise ValueError(f"diagram row {index} is not an object: {row!r}")
    for key in ("dim", "birth"):
        if key not in row:
            raise ValueError(f"diagram row {index} lacks {key!r}: {row!r}")
    dim, birth, death = row["dim"], row["birth"], row.get("death")
    if type(dim) is not int or dim < 0:
        raise ValueError(f"diagram row {index} needs an integer dim of at least 0: {row!r}")
    if not (_is_number(birth) and (death is None or _is_number(death))):
        raise ValueError(f"diagram row {index} needs a numeric birth and death: {row!r}")
    try:
        birth = float(birth)
        death = math.inf if death is None else float(death)
    except OverflowError:  # an integer past the float range
        raise ValueError(f"diagram row {index} has a number past float range: {row!r}") from None
    # NaN fails every comparison, so this also rejects a NaN death.
    if not (math.isfinite(birth) and birth <= death):
        raise ValueError(
            f"diagram row {index} needs a finite birth and a death that is null "
            f"or not below it: {row!r}"
        )
    return PersistenceInterval(dim, birth, death)


def persistent_homology(filtration: Filtration) -> PersistenceDiagram:
    """Compute the persistence diagram of a Rips filtration.

    Homology is reported for dimensions 0 through ``max_dim - 1``; classes
    of dimension ``max_dim`` cannot die without one-higher simplices, so
    they are artifacts of the dimension cutoff and are not emitted.
    Zero-length intervals are discarded.

    Dimension 0 comes from the union-find sweep. Each dimension p from 1
    up reduces coboundary columns over GF(2), which gives the same pairs
    as reducing boundaries (de Silva, Morozov and Vejdemo-Johansson,
    2011): one column per p-simplex, holding the ranks of its cofaces,
    reduced in reverse filtration order, its pivot its smallest coface.
    The pivots of dimension p - 1 (the spanning-tree edges for p = 1)
    are paired already, so their columns are cleared: skipped. A column
    that keeps a pivot pairs the p-simplex with that coface; one that
    reduces to zero is an essential p-class.

    Returns
    -------
    PersistenceDiagram
        Intervals sorted by (dim, birth, death), death ``inf`` for classes
        that never die within the filtration.
    """
    simplices, values = filtration.simplices, filtration.values
    n = filtration.n_vertices
    out, cleared = _dim0(n, simplices[1][:, 0], simplices[1][:, 1], values[1])
    for p in range(1, filtration.max_dim):
        facet_ranks = _facet_ranks(simplices[p], simplices[p + 1], n)
        width = facet_ranks.shape[0]
        # Entry c * width + k names coface c's k-th facet, so a stable sort
        # by facet rank lists each row's cofaces in ascending order.
        order = np.argsort(facet_ranks.T.ravel(), kind="stable")
        cofaces = (order // width).astype(np.int32)
        counts = np.bincount(facet_ranks.ravel(), minlength=len(simplices[p]))
        bounds = np.append(0, counts.cumsum()).tolist()
        # A reduced column, by its pivot.
        reduced: dict[int, np.ndarray] = {}
        for s in np.flatnonzero(~cleared)[::-1].tolist():
            col = cofaces[bounds[s] : bounds[s + 1]]
            while col.size and (other := reduced.get(int(col[0]))) is not None:
                col = np.setxor1d(col, other, assume_unique=True)
            birth = float(values[p][s])
            if not col.size:
                out.append(PersistenceInterval(p, birth, math.inf))
                continue
            reduced[int(col[0])] = col
            death = float(values[p + 1][col[0]])
            if death > birth:
                out.append(PersistenceInterval(p, birth, death))
        cleared = np.zeros(len(simplices[p + 1]), dtype=bool)
        cleared[list(reduced)] = True
    return PersistenceDiagram(tuple(out))


def _facet_ranks(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Row rank of each facet of each column, one array per dropped vertex.

    Every row and facet is named by the dense rank of its vertex prefix,
    refined one vertex at a time as ``rank * n + vertex``, so no key
    exceeds ``len(rows) * n``. A facet whose prefix is not among the
    rows' prefixes is missing from the filtration, a ``ValueError``.
    """
    width = cols.shape[1]
    facets = np.concatenate([np.delete(cols, drop, axis=1) for drop in range(width)])
    row_key = rows[:, 0]
    facet_key = facets[:, 0]
    for c in range(1, width - 1):
        prefixes, row_key = np.unique(row_key * n + rows[:, c], return_inverse=True)
        query = facet_key * n + facets[:, c]
        facet_key = np.searchsorted(prefixes, query)
        if not np.array_equal(np.append(prefixes, -1)[facet_key], query):
            raise ValueError("filtration is missing a facet of one of its simplices")
    row_of_key = np.empty(len(rows), dtype=np.int64)
    row_of_key[row_key] = np.arange(len(rows))
    return row_of_key[facet_key].reshape(width, -1)


# Vertices every kept edge is first tested against for an apparent pair;
# only the edges with no hit among them rescan their whole rows.
_APPARENT_PREFIX = 8


def h1_diagram(cloud: PointCloud, max_eps: float | str | None = "auto") -> PersistenceDiagram:
    """Dimension 0 and 1 persistence of a cloud without storing triangles.

    Produces the same diagram as ``persistent_homology`` of a max_dim=2
    Rips filtration by the same coboundary reduction of the edges: one
    column per edge, holding the triangles that contain it, reduced in
    reverse filtration order, its pivot its smallest triangle. But it
    works from the edge ranks alone: a triangle is a key computed when a
    column needs it, never stored, and pairs found without a reduction
    need no column.

    The filtration stops at the enclosing radius ``r = min_i max_j
    d(i, j)`` when ``max_eps`` is "auto" (or None) or above r, not at the
    diameter or at ``max_eps`` as ``rips_filtration`` does, and the
    diagram is the same. Let c be a vertex with ``max_j d(c, j) = r``.
    At every scale ``eps >= r``, c is joined to every vertex, and every
    simplex gains c without exceeding eps, so the complex is a cone on
    c: it is connected and has no 1-dimensional homology. So every bar
    of positive length dies by r, and an edge or triangle of value above
    r only opens and closes zero-length bars, which are never reported.
    The simplices of value at most r are a prefix of the filtration
    order, so their pairs are the same as in the full filtration.

    A triangle is keyed ``rank * n + w``: the rank of its longest edge and
    the vertex opposite that edge, so its owner edge is ``key // n``. Most
    edges t=(u,v) are apparent pairs: some w has both edges to u and v
    ranked below t. The pivot of t is then ``t * n + w`` for the smallest
    such w, which no column reduced before t can hold, so t pairs with it
    as a zero-length bar and needs no column. The first few vertices are
    tested for every kept edge at once, and only the edges without a hit
    among them are tested against every vertex. An apparent edge's ends
    are already joined through w by edges ranked below it, so it is no
    spanning-tree edge: the union-find sweep over the other edges finds
    the same tree, whose edges are the dimension-0 deaths.

    Only the remaining cycle edges are reduced, each in one dense GF(2)
    working column of ``(n_edges + 1) * n`` bytes, allocated once per
    call: adding a column XORs its keys in place, the next pivot is the
    first set byte past the last one below ``n_edges * n``, and the
    touched keys are cleared when the column is done. A coboundary holds
    one key per w; where w is u or v or is not joined to both, the
    sentinel edge rank puts its key in the last n bytes, which no pivot
    scan reads, so no key needs filtering out. A pivot of an earlier
    reduced column is reduced by that column: the odd-count keys of its
    sources, summed on first use and kept in place of them. A pivot that
    is its owner's apparent triangle is reduced by the owner's
    coboundary, built each time, since one is rarely needed twice. Each
    reduced column still holds all its sources until a later pivot needs
    it, and most never do, so the peak memory is that of every source of
    every reduced column.
    """
    # Indexing rather than unpacking into ``_`` lets the distances go now.
    rank, iu, ju, ev = _sorted_edges(cloud, max_eps, enclosing=True)[1:]
    n = len(cloud)
    n_edges = int(iu.size)
    top = n_edges * n

    def first_apparent(t: np.ndarray, width: int) -> np.ndarray:
        # For each edge of t, the first w < width whose edges to both ends
        # rank below it, or -1; argmax finds the first True of a row.
        below = np.maximum(rank[iu[t], :width], rank[ju[t], :width]) < t[:, None]
        w = below.argmax(axis=1)
        return np.where(below[np.arange(t.size), w], w, -1)

    # apparent[t] is the vertex of t's apparent triangle, or -1. Blocks of
    # edges bound the temporaries of the full-row rescan.
    apparent = first_apparent(np.arange(n_edges), _APPARENT_PREFIX)
    misses = np.flatnonzero(apparent < 0)
    for start in range(0, misses.size, 512):
        block = misses[start : start + 512]
        apparent[block] = first_apparent(block, n)
    # An apparent edge is no tree edge, so the sweep skips it.
    rest = np.flatnonzero(apparent < 0)
    out, tree_edge = _dim0(n, iu[rest], ju[rest], ev[rest])

    # rank * n as int64 for the keys; the int32 rank keeps the test above fast.
    rank_n = rank.astype(np.int64) * n
    opposite = np.arange(n)

    def coboundary(t: int) -> np.ndarray:
        # Unsorted keys of the triangles on edge t=(u, v), one per w: the
        # largest of the keys with (u, w), (v, w) or t as the longest edge,
        # since an edge of higher rank gives a key of at least its rank * n.
        # The sentinel rank sends w = u, w = v and every w not joined to
        # both to a key of at least ``top``.
        u, v = int(iu[t]), int(ju[t])
        return np.maximum(np.maximum(rank_n[u] + v, rank_n[v] + u), t * n + opposite)

    # A reduced column waits, keyed by its pivot, as its list of sources
    # until a later pivot needs it; the odd-count keys of their
    # concatenation are the column, which then replaces the list.
    pending: dict[int, list[np.ndarray]] = {}

    # Below ``top`` a column's keys are distinct, so XOR into the dense
    # column is its GF(2) sum; every addition clears the pivot and sets
    # nothing below it. The sentinel tail past ``top`` is never read.
    work = np.zeros(top + n, dtype=bool)
    live = work[:top]
    for t in rest[~tree_edge][::-1].tolist():
        srcs = [coboundary(t)]
        work[srcs[0]] = True
        low = t * n
        while True:
            low += int(live[low:].argmax())
            if not live[low]:
                break
            if low in pending:
                if len(pending[low]) > 1:
                    keys, counts = np.unique(np.concatenate(pending[low]), return_counts=True)
                    pending[low] = [keys[counts % 2 == 1]]
                other = pending[low][0]
            elif apparent[low // n] == low % n:
                other = coboundary(low // n)
            else:
                break
            work[other] ^= True
            srcs.append(other)
        if not live[low]:
            out.append(PersistenceInterval(1, float(ev[t]), math.inf))
            continue
        pending[low] = srcs
        for src in srcs:
            work[src] = False
        if ev[low // n] > ev[t]:
            out.append(PersistenceInterval(1, float(ev[t]), float(ev[low // n])))

    return PersistenceDiagram(tuple(out))


@dataclass(frozen=True)
class BettiCurve:
    """Betti number of one dimension as a step function of the scale."""

    dim: int
    births: np.ndarray
    deaths: np.ndarray

    def __call__(self, eps: float) -> int:
        alive = np.searchsorted(self.births, eps, side="right")
        dead = np.searchsorted(self.deaths, eps, side="right")
        return int(alive - dead)

    @property
    def thresholds(self) -> np.ndarray:
        """Scales where the count can change, ascending and unique."""
        finite_deaths = self.deaths[np.isfinite(self.deaths)]
        return np.unique(np.concatenate((self.births, finite_deaths)))


def betti_curve(diagram: PersistenceDiagram, dim: int) -> BettiCurve:
    """Step function counting intervals with ``birth <= eps < death``."""
    ivs = diagram.in_dim(dim)
    births = np.sort(np.asarray([iv.birth for iv in ivs]))
    deaths = np.sort(np.asarray([iv.death for iv in ivs]))
    return BettiCurve(dim=dim, births=births, deaths=deaths)
