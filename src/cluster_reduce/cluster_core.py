"""Point clusters in P^n(C): group action, subspace degrees, stability.

A point cluster is a formal sum of points of projective space, stored as a
multiset of :class:`ProjectivePoint`. Stability is decided by comparing, for
every linear subspace L, the number of cluster points on L against the bound
(dim L + 1) * deg(Z) / (n + 1); the subspace search is restricted to spans of
subsets of the cluster's own points, which is enough because a maximizing
subspace can always be shrunk to the span of the points it contains. One
depth-first walk over those subsets (:func:`_flats`) counts the points on
each span from residuals that every extension of a subset shares.

Every rank question, "is u on span(S)?", is decided by :func:`_join` on
exact integer minors of the points' coordinates at 2^-prec. The walk runs in
hardware doubles and asks it only inside a rounding band: every residual
carries a bound e, a few units of 2^-53 raised by 1 + 2/nu at each new
direction of norm nu. Below a direction that doubles cannot carry, made from
a residual inside the band, e is infinite and every decision is exact.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import mpmath as mp

from ._precision import _fixed, _man_exp, half_eps, to_mpc
from .errors import DimensionError, InvalidPointError, SingularMatrixError
from .lattice import UnimodularTransform, _extend


def _dot(a, b):
    """Hermitian inner product sum conj(a_i) b_i in hardware doubles."""
    return sum(x.conjugate() * y for x, y in zip(a, b))


def _project_out(w, basis):
    """w less its components along the orthonormal ``basis``, in doubles."""
    for b in basis:
        c = _dot(b, w)
        w = [y - c * x for x, y in zip(b, w)]
    return w


def _same_direction(a, b, tol2):
    """Projective equality of unit vectors in doubles: the squared sine of
    their angle, a projection residual (no cancellation), is below ``tol2``."""
    w = _project_out(b, [a])
    return _dot(w, w).real < tol2


def _exact_rows(points):
    """Each point as the rows (X, Y) and (-Y, X) of Z^(2n+2), for its
    coordinates X + iY at 2^-prec of their largest real or imaginary part:
    a complex span is the real span of its points' rows."""
    prec, out = mp.mp.prec, []
    for p in points:
        top = max(e + abs(m).bit_length() for c in p.coords for m, e in map(_man_exp, (c.real, c.imag)) if m)
        X, Y = zip(*(_fixed(c, prec - top) for c in p.coords))
        out.append((X + Y, tuple(-y for y in Y) + X))
    return out


_NO_SPAN = ((), (1,), ())  # the empty span: no rows, the minor d_0 = 1, no lam rows


def _join(span, rows):
    """The span ``(basis rows, d, lam)`` grown by the point of ``rows``, or
    None when the point is on it: when the squared sine of its row v against
    the span, det G(S + v) / (det G(S) |v|^2) = d_(k+1) / (d_k |v|^2) on the
    exact minors of :func:`lattice._extend`, is below 2^(-prec), the square
    of the package's one threshold. The span is closed under i, so the
    second row, i v, has the same sine."""
    t = -2 * (-mp.mp.prec // 2)  # 2^-t = half_eps()^2
    basis, d, lam = span
    for v in rows:
        row = [sum(map(operator.mul, v, b)) for b in basis + (v,)]
        new = _extend(d, lam, row)
        if new[-1] << t < d[-1] * row[-1]:
            return None
        basis, d, lam = basis + (v,), d + (new[-1],), lam + (new,)
    return basis, d, lam


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of P^n(C) given by n+1 homogeneous coordinates.

    Coordinates are finite mpmath complex numbers; at least one must be
    nonzero. Two points are equal when their coordinate vectors are
    proportional to the package's threshold (see :meth:`is_same`).
    """

    coords: tuple

    def __post_init__(self):
        coords = tuple(to_mpc(c) for c in self.coords)
        if not coords:
            raise InvalidPointError("point needs at least one coordinate")
        if not all(map(mp.isfinite, coords)):
            raise InvalidPointError("a homogeneous coordinate is not finite")
        if all(c == 0 for c in coords):
            raise InvalidPointError("all homogeneous coordinates are zero")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    def norm(self):
        """The Hermitian norm: one square root of the sum of squares, which
        ``fsum`` forms exactly and rounds once."""
        return mp.sqrt(mp.fsum(self.coords, absolute=True, squared=True))

    def unit(self) -> tuple:
        """Coordinates rescaled to Hermitian norm 1."""
        nrm = self.norm()
        return tuple(c / nrm for c in self.coords)

    def conjugate(self) -> "ProjectivePoint":
        return ProjectivePoint(tuple(c.conjugate() for c in self.coords))

    def is_same(self, other: "ProjectivePoint") -> bool:
        """Projective equality: the sine of the angle between coordinate
        vectors is below 2^(-prec/2), as :func:`_join` decides it."""
        if self.n != other.n:
            return False
        a, b = _exact_rows((self, other))
        return _join(_join(_NO_SPAN, a), b) is None

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.is_same(other)

    __hash__ = None  # tolerant equality is incompatible with hashing

    def __repr__(self):
        inside = " : ".join(mp.nstr(c, 8) for c in self.coords)
        return f"({inside})"


@dataclass(frozen=True)
class PointCluster:
    """Multiset of points of a common P^n; repeated entries encode multiplicity."""

    points: tuple

    def __post_init__(self):
        pts = tuple(
            p if isinstance(p, ProjectivePoint) else ProjectivePoint(tuple(p))
            for p in self.points
        )
        if not pts:
            raise InvalidPointError("a point cluster must contain at least one point")
        n = pts[0].n
        if any(p.n != n for p in pts):
            raise DimensionError("all points of a cluster must share the ambient dimension")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points[0].n

    @property
    def degree(self) -> int:
        return len(self.points)

    def conjugate(self) -> "PointCluster":
        return PointCluster(tuple(p.conjugate() for p in self.points))

    def is_conjugation_fixed(self) -> bool:
        return self.same_cluster(self.conjugate())

    def same_cluster(self, other: "PointCluster") -> bool:
        """Multiset equality by greedy matching: each point of ``self`` in
        turn takes the first remaining equal point of ``other``. Equal
        coordinates are equal; other pairs are tested by :func:`_join`, on
        rows and one-point spans made when first needed."""
        if not isinstance(other, PointCluster):
            return NotImplemented
        if self.n != other.n or self.degree != other.degree:
            return False
        rows = functools.cache(lambda side: _exact_rows((self, other)[side].points))
        span = functools.cache(lambda k: _join(_NO_SPAN, rows(0)[k]))
        remaining = list(range(other.degree))
        for k, p in enumerate(self.points):
            same = (i for i in remaining if p.coords == other.points[i].coords or _join(span(k), rows(1)[i]) is None)
            match = next(same, None)
            if match is None:
                return False
            remaining.remove(match)
        return True

    __eq__ = same_cluster
    __hash__ = None

    def __repr__(self):
        return "PointCluster(" + " + ".join(repr(p) for p in self.points) + ")"


@dataclass(frozen=True)
class ScaledCluster:
    """A point cluster with a chosen coordinate row vector for each point.

    ``==`` compares the rows entry by entry. D depends on the rows only
    through the cluster and the product of their scalings, the one datum a
    scaled cluster carries beyond the underlying cluster.
    """

    reps: tuple

    def __post_init__(self):
        object.__setattr__(self, "reps", tuple(tuple(to_mpc(c) for c in row) for row in self.reps))
        self.cluster()  # every row a point of one P^n, by the checks of PointCluster

    @property
    def n(self) -> int:
        return len(self.reps[0]) - 1

    @property
    def degree(self) -> int:
        return len(self.reps)

    def cluster(self) -> PointCluster:
        """Forget the scalings."""
        return PointCluster(tuple(ProjectivePoint(r) for r in self.reps))

    def scale_point(self, index: int, factor) -> "ScaledCluster":
        """Rescale one row; multiplies the total scaling by ``factor``."""
        factor = to_mpc(factor)
        rows = list(self.reps)
        rows[index] = tuple(factor * c for c in rows[index])
        return ScaledCluster(tuple(rows))

    def __repr__(self):
        return f"ScaledCluster(m={self.degree}, n={self.n})"


@dataclass(frozen=True)
class SubspaceWitness:
    """A linear subspace showing a stability bound violated or met with equality.

    ``dim`` is the projective dimension k, ``spanning_points`` a subset of the
    cluster spanning the subspace, ``contained`` how many cluster points lie on
    it (with multiplicity).
    """

    dim: int
    spanning_points: tuple
    contained: int


@dataclass(frozen=True)
class StabilityClass:
    """Classification outcome.

    ``margin`` is the smallest slack (k+1) * m - (n+1) * phi(k) over the
    tested dimensions: positive for stable bounds, zero when some bound is
    met with equality, negative when violated. It is None when a proof
    decides stability without counting (the flexes of a smooth curve).
    """

    is_split: bool
    is_semi_stable: bool
    is_stable: bool
    witness: Optional[SubspaceWitness] = None
    margin: Optional[int] = None

    def __post_init__(self):
        if self.is_stable and not self.is_semi_stable:
            raise ValueError("stable implies semi-stable")
        if self.is_stable and self.is_split:
            raise ValueError("a split cluster cannot be stable")


def normalize_cluster(cluster: PointCluster) -> ScaledCluster:
    """Scaled cluster whose rows all have Hermitian norm 1."""
    return ScaledCluster(tuple(p.unit() for p in cluster.points))


def _as_matrix(g, size):
    M = mp.matrix(g)
    if M.rows != M.cols:
        raise DimensionError("transformation matrix must be square")
    if M.rows != size:
        raise DimensionError(f"matrix size {M.rows} does not match ambient dimension {size - 1}")
    return M


def act(cluster: PointCluster, g) -> PointCluster:
    """Apply the coordinate change sending each row vector P to P * g.

    ``g`` must be an (n+1) x (n+1) matrix of determinant 1 (up to 2^(-prec/2)).
    A :class:`UnimodularTransform` acts by its integer rows, with its exact
    determinant in place of ``mp.det``.
    Composition satisfies act(act(Z, g), h) = act(Z, g*h).
    """
    size = cluster.n + 1
    if isinstance(g, UnimodularTransform):
        if g.size != size:
            raise DimensionError(f"matrix size {g.size} does not match ambient dimension {size - 1}")
        rows, det = g.matrix, g.det()
    else:
        M = _as_matrix(g, size)
        rows, det = M.tolist(), mp.det(M)
    det_tol = half_eps()
    if abs(det) < det_tol:
        raise SingularMatrixError("transformation matrix is singular")
    if abs(det - 1) > det_tol * (1 + abs(det)):
        raise SingularMatrixError(f"determinant {mp.nstr(mp.mpc(det), 8)} is not 1")
    return PointCluster(tuple(
        ProjectivePoint(tuple(sum(c * r[j] for c, r in zip(p.coords, rows)) for j in range(size))) for p in cluster.points
    ))


def phi(cluster: PointCluster, k: int) -> int:
    """Maximum number of cluster points on a common k-dimensional subspace.

    phi(-1) = 0 and phi(n) = deg Z; the function is nondecreasing in k.
    Candidate subspaces are spans of subsets of the cluster's distinct points,
    walked by :func:`_flats` down to subsets of k+1 points.
    """
    n = cluster.n
    if not -1 <= k <= n:
        raise ValueError(f"k must lie in [-1, {n}], got {k}")
    if k == -1:
        return 0
    if k == n:
        return cluster.degree
    return _walk(cluster.points, k + 1)[k][0]


def _walk(points, depth):
    """:func:`_flats` of the points, on units in doubles rounded from their
    :func:`_exact_rows`, whose largest part is about 1."""
    rows = _exact_rows(points)
    scale, units = 2**mp.mp.prec, []
    for x, _ in rows:
        v = [complex(a / scale, b / scale) for a, b in zip(x[: len(x) // 2], x[len(x) // 2 :])]
        nrm = math.hypot(*map(abs, v))
        units.append([c / nrm for c in v])
    return _flats(units, depth, rows)


def _flats(units, depth, rows):
    """phi(k) for k < ``depth``, each with the indices of distinct points
    spanning a subspace that attains it: a list of ``(count, subset)``.

    ``units`` are the cluster's unit vectors in doubles and ``rows`` the
    points' :func:`_exact_rows`; equal points are grouped under their first
    index. One depth-first walk visits the subsets of at most ``depth``
    distinct points in lexicographic order. Each node carries every unit's
    residual against the span of its subset; a child adding point i takes
    the parent's residual of u_i, with a second Gram-Schmidt pass against
    the path's basis, as its new direction, and every residual loses its
    component along it. A point on the span adds no direction and the child
    keeps its parent's span. A subset of s points is a candidate for
    phi(s-1), and the subset of every distinct point for every higher k
    too: extending a subset by one more distinct point spans a subspace
    containing the old one, so it never holds fewer points. Each level keeps
    its first strict maximizer.

    Every residual carries a rounding bound e: it starts at c = 8 (n+1)
    2^-53, and a new direction of norm nu raises it to e (1 + 2/nu) + c/nu,
    since an error in a residual tilts the direction made from it by 1/nu.
    A residual above 2e (and 2^(-prec/2)) is off the span for certain, and a
    subset's points and their equals are on it by construction. Any other
    residual, and a sine of two units inside the band of a one-point span,
    is decided by :func:`_join` against the subset's exact span, made once
    per subset. A residual found off there keeps a positive r2. A child
    whose new direction is such a residual, which doubles cannot carry,
    takes e = inf: below it every decision is exact and no residual in
    doubles is updated.
    """
    tol2 = float(half_eps() ** 2)  # 0.0 where it underflows, below every band
    e0 = 2.0**-50 * len(units[0])
    best = [(0, None)] * depth

    @functools.cache
    def span(subset):
        """The exact span of the subset's points."""
        if not subset:
            return _NO_SPAN
        parent = span(subset[:-1])
        return _join(parent, rows[subset[-1]]) or parent

    def visit(start, subset, basis, resid, resid2, e):
        band2 = max(tol2, 4 * e * e)
        for j in range(start, len(distinct)):
            i = distinct[j]
            child = subset + (i,)
            if resid2[i] == 0:
                child_basis, child_resid, child_resid2, child_e = basis, resid, resid2, e
            else:
                child_basis, child_e = basis, math.inf
                if resid2[i] >= band2:  # a direction that doubles carry
                    w = _project_out(resid[i], basis)
                    nrm = _dot(w, w).real ** 0.5
                    q = [y / nrm for y in w]
                    child_basis, child_e = basis + [q], e * (1 + 2 / nrm) + e0 / nrm
                child_band2 = max(tol2, 4 * child_e * child_e)
                child_resid, child_resid2 = [], []
                for idx, (r, r2) in enumerate(zip(resid, resid2)):
                    if r2:
                        if child_e < math.inf:
                            c = _dot(q, r)
                            # |r - c q|^2 = |r|^2 - |c|^2 up to a few units of
                            # tol2 and of e; no child reads a leaf's residuals,
                            # so a leaf forms one only near the band
                            r2 -= c.real * c.real + c.imag * c.imag
                            if len(child) < depth or r2 <= 16 * max(tol2, child_e):
                                r = [y - c * x for x, y in zip(q, r)]
                                r2 = _dot(r, r).real
                        if reps[idx] in child:
                            r2 = 0
                        elif r2 < child_band2:
                            r2 = 0 if _join(span(child), rows[idx]) is None else max(r2, math.ulp(0))
                    child_resid.append(r)
                    child_resid2.append(r2)
            count = child_resid2.count(0)
            last = depth if len(child) == len(distinct) else len(child)
            for k in range(len(child) - 1, last):
                if count > best[k][0]:
                    best[k] = (count, child)
            if len(child) < depth:
                visit(j + 1, child, child_basis, child_resid, child_resid2, child_e)

    band2 = max(tol2, 64 * e0 * e0)  # 2e after a first direction (nu = 1)
    reps, distinct = [], []
    for k, u in enumerate(units):
        same = (r for r in distinct if _same_direction(units[r], u, band2) and _join(span((r,)), rows[k]) is None)
        r = next(same, k)
        if r == k:
            distinct.append(k)
        reps.append(r)
    visit(0, (), [], [list(u) for u in units], [1] * len(units), e0)
    return best


def _independent(rows):
    """The indices of a greedy basis of the points of ``rows``, each point
    that :func:`_join` finds off the span of the points kept before it, and
    their span."""
    basis, span = [], _NO_SPAN
    for i, r in enumerate(rows):
        grown = _join(span, r)
        if grown is not None:
            basis.append(i)
            span = grown
    return basis, span


def _is_split(rows):
    """Split detection.

    A cluster is split when two disjoint nonempty linear subspaces jointly
    contain it. That happens exactly when the points fail to span the ambient
    space, or when their linear matroid is disconnected. The components of
    the matroid are the connected components of its fundamental-circuit
    graph for any basis (Oxley, Matroid Theory, ch. 4), so one greedy basis
    decides the question for every m.
    """
    components = _matroid_components(rows)
    return len(components) > 1 or components[0][1] < len(rows[0][0]) // 2


def _matroid_components(rows):
    """Connected components of the linear matroid of the points of ``rows``,
    as ``(group, rank)`` pairs: lists of indices and their rank.

    Links every point u outside the greedy basis B of :func:`_independent`
    to the b of B in its fundamental circuit, those with u off span(B - b).
    A point equal to a b of B links to b alone, as the walk groups equals,
    also where span(B - b) comes within the threshold of it.
    """
    basis, _ = _independent(rows)
    others = {b: functools.reduce(_join, [rows[c] for c in basis if c != b], _NO_SPAN) for b in basis}
    label = list(range(len(rows)))
    for u, row in enumerate(rows):
        if u not in basis:
            equal = [b for b in basis if _join(_join(_NO_SPAN, rows[b]), row) is None][:1]
            circuit = equal or [b for b in basis if _join(others[b], row) is not None]
            linked = {label[u]} | {label[b] for b in circuit}
            label = [min(linked) if x in linked else x for x in label]
    groups = {}
    for i, x in enumerate(label):
        groups.setdefault(x, []).append(i)
    return [(group, sum(i in basis for i in group)) for group in groups.values()]


def _is_polystable(cluster: PointCluster) -> bool:
    """Whether a spanning cluster is a direct sum of clusters each stable in
    its own span: classify's strict bounds on each component of its linear
    matroid, with its rank r in place of n+1, on its ambient coordinates."""
    points = cluster.points
    for group, rank in _matroid_components(_exact_rows(points)):
        walk = _walk([points[i] for i in group], rank - 1) if rank > 1 else []
        if any(rank * count >= (k + 1) * len(group) for k, (count, _) in enumerate(walk)):
            return False
    return True


def classify(cluster: PointCluster) -> StabilityClass:
    """Split / semi-stable / stable classification with a witness subspace.

    Semi-stable means (n+1) * phi(k) <= (k+1) * m for every 0 <= k <= n-1,
    stable means the inequality is strict. Both comparisons are exact integer
    arithmetic once the phi values are known. The witness records a subspace
    violating the bound (not semi-stable), or achieving it with equality
    (semi-stable but not stable).

    Only a cluster that the counts leave unstable is tested for a split: if
    Z1 in L1 and Z2 in L2 split a stable one, with k1+1 + k2+1 <= n+1 linear
    dimensions, adding the strict bounds (n+1) |Z_i| <= (n+1) phi(k_i) <
    (k_i+1) m gives (n+1) m < (k1+k2+2) m <= (n+1) m. A cluster that does
    not span has phi(n-1) = m, so it is not even semi-stable.
    """
    n = cluster.n
    m = cluster.degree
    semi = True
    stable = True
    witness = None
    margin = None
    for k, (count, subset) in enumerate(_walk(cluster.points, n)):
        lhs = (n + 1) * count
        rhs = (k + 1) * m
        slack = rhs - lhs
        if margin is None or slack < margin:
            margin = slack
        if lhs > rhs or (lhs == rhs and stable):
            stable = False
            witness = SubspaceWitness(k, tuple(cluster.points[i] for i in subset), count)
        if lhs > rhs:
            semi = False
            break
    split = not stable and _is_split(_exact_rows(cluster.points))
    return StabilityClass(
        is_split=split,
        is_semi_stable=semi,
        is_stable=stable,
        witness=witness,
        margin=margin,
    )
