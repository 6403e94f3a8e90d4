"""Point clusters in P^n(C): group action, subspace degrees, stability.

A point cluster is a formal sum of points of projective space, stored as a
multiset of :class:`ProjectivePoint`. Stability is decided by comparing, for
every linear subspace L, the number of cluster points on L against the bound
(dim L + 1) * deg(Z) / (n + 1); the subspace search is restricted to spans of
subsets of the cluster's own points, which is enough because a maximizing
subspace can always be shrunk to the span of the points it contains. One
depth-first walk over those subsets (:func:`_flats`) counts the points on
each span from residuals that every extension of a subset shares.

The walk runs in hardware doubles first, with a rounding bound e on every
residual: a few units of 2^-53, raised by 1 + 2/nu at each new direction of
norm nu, which an error tilts by 1/nu. A residual above 2e is off the span
for certain; one inside the band is decided at the working precision, and
one found off there, or a cluster not in doubles, reruns the walk at it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import mpmath as mp

from ._precision import half_eps, to_mpc
from .errors import DimensionError, InvalidPointError, SingularMatrixError
from .lattice import UnimodularTransform


def _dot(a, b):
    """Hermitian inner product sum conj(a_i) b_i, in the arithmetic of the
    entries: hardware doubles for built-in complex, else one rounding at the
    working precision."""
    if isinstance(a[0], complex):
        return sum(x.conjugate() * y for x, y in zip(a, b))
    return mp.fdot(b, a, conjugate=True)


def _project_out(w, basis, passes=2):
    """w less its components along the orthonormal ``basis``: modified
    Gram-Schmidt, by default with a second pass."""
    for _ in range(passes):
        for b in basis:
            c = _dot(b, w)
            w = [y - c * x for x, y in zip(b, w)]
    return w


def _same_direction(a, b, tol2=None):
    """Projective equality of unit vectors: the squared sine of their angle,
    a projection residual (no cancellation), is below ``tol2``, by default
    2^(-prec)."""
    w = _project_out(b, [a], 1)
    return _dot(w, w).real < (half_eps() ** 2 if tol2 is None else tol2)


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of P^n(C) given by n+1 homogeneous coordinates.

    Coordinates are mpmath complex numbers; at least one must be nonzero.
    Two points are equal when their coordinate vectors are proportional,
    tested at the working precision (see :meth:`is_same`).
    """

    coords: tuple

    def __post_init__(self):
        coords = tuple(to_mpc(c) for c in self.coords)
        if not coords:
            raise InvalidPointError("point needs at least one coordinate")
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
        vectors is below 2^(-prec/2)."""
        if self.n != other.n:
            return False
        return _same_direction(self.unit(), other.unit())

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
        coordinates are equal; other pairs are tested by
        :func:`_same_direction`, on units made when first needed."""
        if not isinstance(other, PointCluster):
            return NotImplemented
        if self.n != other.n or self.degree != other.degree:
            return False
        unit = functools.cache(lambda side, i: (self, other)[side].points[i].unit())
        remaining = list(range(other.degree))
        for k, p in enumerate(self.points):
            same = (i for i in remaining if p.coords == other.points[i].coords or _same_direction(unit(0, k), unit(1, i)))
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

    Equality is modulo rescaling the rows by factors whose product is 1, so a
    scaled cluster carries exactly one more datum than the underlying cluster:
    the product of the chosen scalings.
    """

    reps: tuple

    def __post_init__(self):
        rows = tuple(tuple(to_mpc(c) for c in row) for row in self.reps)
        if not rows:
            raise InvalidPointError("a scaled cluster must contain at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionError("all rows must have the same length")
        for r in rows:
            if all(c == 0 for c in r):
                raise InvalidPointError("zero row in scaled cluster")
        object.__setattr__(self, "reps", rows)

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

    def conjugate(self) -> "ScaledCluster":
        return ScaledCluster(tuple(tuple(mp.conj(c) for c in row) for row in self.reps))

    def same_scaled(self, other: "ScaledCluster") -> bool:
        """Equality modulo rescalings with product 1 (rows kept in order)."""
        if self.n != other.n or self.degree != other.degree:
            return False
        tol = half_eps()
        prod = mp.mpc(1)
        for a, b in zip(self.reps, other.reps):
            j = max(range(len(a)), key=lambda i: abs(a[i]))
            if abs(b[j]) == 0:
                return False
            lam = b[j] / a[j]
            if any(abs(b[i] - lam * a[i]) > tol * (1 + abs(lam)) for i in range(len(a))):
                return False
            prod *= lam
        return abs(prod - 1) < tol * self.degree

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


def conjugate(cluster: PointCluster) -> PointCluster:
    """Replace every coordinate by its complex conjugate."""
    return cluster.conjugate()


def _column_matrix(vectors):
    """Matrix whose columns are the given vectors."""
    return mp.matrix([list(row) for row in zip(*vectors)])


def _adapted_basis(units):
    """Unitary basis of C^(n+1) whose leading vectors span the given unit vectors.

    Modified Gram-Schmidt with a second pass runs over the unit vectors and
    then over e_0..e_n; a vector within 2^(-prec/2) of the span so far adds
    nothing. Returns ``(basis, kept)``: the first ``len(kept)`` basis vectors
    span the input, so ``len(kept)`` is its numerical rank, and the rest span
    the orthogonal complement. ``kept`` indexes the input vectors that added a
    direction: a greedy basis of their linear matroid.
    """
    n1 = len(units[0])
    rank_tol = half_eps()
    axes = [tuple(mp.mpc(int(i == j)) for j in range(n1)) for i in range(n1)]
    basis, kept = [], []
    for idx, v in enumerate(list(units) + axes):
        if len(basis) == n1:
            break
        w = _project_out(list(v), basis)
        nrm = mp.sqrt(mp.fsum(w, absolute=True, squared=True))
        if nrm < rank_tol:
            continue
        basis.append([y / nrm for y in w])
        if idx < len(units):
            kept.append(idx)
    return basis, kept


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


class _Rerun(Exception):
    """A decision that hardware doubles cannot carry."""


def _walk(points, depth):
    """:func:`_flats` of the points, in doubles unless a coordinate does not
    convert to a finite double or a norm to a normal one."""
    vectors = [[complex(c) for c in p.coords] for p in points]
    norms = [math.hypot(*map(abs, v)) for v in vectors]
    if all(sys.float_info.min <= nrm < math.inf for nrm in norms):
        return _flats([[c / nrm for c in v] for v, nrm in zip(vectors, norms)], depth, points)
    return _flats([p.unit() for p in points], depth)


def _flats(units, depth, points=None):
    """phi(k) for k < ``depth``, each with the indices of distinct points
    spanning a subspace that attains it: a list of ``(count, subset)``.

    ``units`` are the cluster's unit vectors; equal points are grouped under
    their first index. One depth-first walk visits the subsets of at most
    ``depth`` distinct points in lexicographic order. Each node carries
    every unit's residual against the span of its subset; a child adding
    point i takes the parent's residual of u_i, with a second Gram-Schmidt
    pass against the path's basis, as its new direction, and every residual
    loses its component along it. A point on the span adds no direction and
    the child keeps its parent's span. A subset of s points is a candidate
    for phi(s-1), and the subset of every distinct point for every higher k
    too: extending a subset by one more distinct point spans a subspace
    containing the old one, so it never holds fewer points. Each level keeps
    its first strict maximizer.

    The walk computes in the arithmetic of ``units``. At the working
    precision a unit is on a span when its residual's squared norm is below
    tol2 = 2^(-prec). Units in doubles, given with their ``points``, carry a
    rounding bound e on every residual: it starts at c = 8 (n+1) 2^-53, and
    a new direction of norm nu raises it to e (1 + 2/nu) + c/nu, since an
    error in a residual tilts the direction made from it by 1/nu. A residual
    above 2e (and 2^(-prec/2)) is off the span for certain, and a subset's
    points and their equals are on it by construction. Any other residual,
    and a sine of two units inside the band of a one-point span, is decided
    from the points at the working precision: by the rank test of
    :func:`_adapted_basis` against the subset's points, whose basis is made
    once per subset, or by :meth:`ProjectivePoint.is_same`. "On" joins the
    unit to the span. "Off" is a direction that the doubles cannot carry:
    the walk then reruns on the points' working-precision units.
    """
    tol2 = half_eps() ** 2
    e0 = 0 if points is None else 2.0**-50 * len(units[0])
    best = [(0, None)] * depth
    exact_unit = functools.cache(lambda i: points[i].unit())

    @functools.cache
    def exact_basis(subset):
        """Orthonormal basis of the subset's span at the working precision."""
        if not subset:
            return ()
        w = _project_out(exact_unit(subset[-1]), exact_basis(subset[:-1]))
        nrm2 = _dot(w, w).real
        return exact_basis(subset[:-1]) + (() if nrm2 < tol2 else ([y / nrm2**0.5 for y in w],))

    def visit(start, subset, basis, resid, resid2, e):
        for j in range(start, len(distinct)):
            i = distinct[j]
            child = subset + (i,)
            if resid2[i] == 0:
                child_basis, child_resid, child_resid2, child_e = basis, resid, resid2, e
            else:
                w = _project_out(resid[i], basis, 1)
                nrm = _dot(w, w).real ** 0.5
                q = [y / nrm for y in w]
                child_e = e * (1 + 2 / nrm) + e0 / nrm
                band2 = max(tol2, 4 * child_e * child_e)
                child_basis, child_resid, child_resid2 = basis + [q], [], []
                for idx, (r, r2) in enumerate(zip(resid, resid2)):
                    if r2:
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
                        elif r2 < band2:
                            if points is not None:
                                v = _project_out(exact_unit(idx), exact_basis(child))
                                if _dot(v, v).real >= tol2:
                                    raise _Rerun
                            r2 = 0
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
    try:
        for k, u in enumerate(units):
            r = next((r for r in distinct if _same_direction(units[r], u, band2)), k)
            if r == k:
                distinct.append(k)
            elif points is not None and not points[r].is_same(points[k]):
                raise _Rerun
            reps.append(r)
        visit(0, (), [], [list(u) for u in units], [1] * len(units), e0)
    except _Rerun:
        return _flats([p.unit() for p in points], depth)
    return best


def _is_split(units):
    """Split detection.

    A cluster is split when two disjoint nonempty linear subspaces jointly
    contain it. That happens exactly when the points fail to span the ambient
    space, or when their linear matroid is disconnected. The components of
    the matroid are the connected components of its fundamental-circuit
    graph for any basis (Oxley, Matroid Theory, ch. 4), so one greedy basis
    and one solve per remaining point decide the question for every m.
    """
    _, basis_idx = _adapted_basis(units)
    if len(basis_idx) < len(units[0]):
        return True
    return len(_matroid_components(units, basis_idx)) > 1


def _matroid_components(units, basis_idx):
    """Connected components of the linear matroid of spanning unit vectors.

    Links every vector outside the basis ``basis_idx`` to the basis vectors
    appearing in its fundamental circuit. Returns lists of indices.
    """
    m = len(units)
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    rank_tol = half_eps()
    basis_cols = _column_matrix([units[j] for j in basis_idx])
    for i in range(m):
        if i in basis_idx:
            continue
        coeffs = mp.lu_solve(basis_cols, mp.matrix(units[i]))
        for j, bi in enumerate(basis_idx):
            if abs(coeffs[j]) > rank_tol:
                union(i, bi)
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _component_clusters(cluster: PointCluster) -> list:
    """The components of a spanning cluster's linear matroid, each as a
    cluster in the coordinates of an orthonormal basis of its own span (the
    spans are independent and fill the space: the cluster is their sum)."""
    units = [p.unit() for p in cluster.points]
    _, basis_idx = _adapted_basis(units)
    out = []
    for group in _matroid_components(units, basis_idx):
        basis, kept = _adapted_basis([units[i] for i in group])
        span = basis[: len(kept)]
        out.append(PointCluster(tuple(
            ProjectivePoint(tuple(_dot(b, units[i]) for b in span)) for i in group
        )))
    return out


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
    split = not stable and _is_split([p.unit() for p in cluster.points])
    return StabilityClass(
        is_split=split,
        is_semi_stable=semi,
        is_stable=stable,
        witness=witness,
        margin=margin,
    )
