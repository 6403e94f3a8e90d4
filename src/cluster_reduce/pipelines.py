"""End-to-end reduction pipelines for clusters, binary forms, pencils, ternary forms.

Every pipeline produces a :class:`ReductionReport`. The reported ``transform``
U is a single coordinate change: it acts on forms by substitution
F -> F(U x) and on point rows by the contragredient P -> P * U^(-T); the
covariant Gram transforms as G -> U^T G U, which is what the LLL step
reduces.

A pencil's base points need no elimination: at each root of its
determinant cubic, which its binary reduction has found, the member is a
line pair, and the lines of two pairs cross at the four points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import mpmath as mp

from ._precision import _fixed, _from_fixed, half_eps, working_precision
from .cluster_core import PointCluster, ProjectivePoint, StabilityClass, act, classify
from .covariant import _tyler_in_doubles, minimize
from .errors import (
    ClusterReduceError,
    ConvergenceError,
    DegeneratePencilError,
    InputFormatError,
    NotPositiveDefiniteError,
    RealityError,
    StabilityError,
)
from .lattice import GramMatrix, UnimodularTransform, congruence, lll_reduce
from .polyalg import (
    MultiPoly,
    RootSet,
    _binary_form_roots,
    _intersection_in_doubles,
    _second_partials,
    curve_intersection,
    hessian,
    pencil_cubic,
    substitute,
)


@dataclass(frozen=True)
class ReductionReport:
    """Bundle of covariant, transformation and reduced object for one run."""

    kind: str
    covariant: GramMatrix
    reduced_gram: GramMatrix
    transform: UnimodularTransform
    reduced: object
    diagnostics: dict
    pencil_transform: Optional[tuple] = None
    extras: dict = field(default_factory=dict)


# the largest degrees the form pipelines take, checked before any exact
# algebra: x0^N + x1^N takes about 1 s at N = 100 and 16 s at N = 400, and
# a ternary form with small coefficients about 4 s at degree 8 (README)
MAX_BINARY_DEGREE = 100
MAX_TERNARY_DEGREE = 8


def _require_degree_at_most(F: MultiPoly, bound: int, what: str):
    if F.total_degree() > bound:
        raise InputFormatError(f"{what} of degree {F.total_degree()} is above the bound of {bound}")


def _require_exact_integer(F: MultiPoly, what: str):
    for _, c in F.terms:
        if not isinstance(c, int):
            raise InputFormatError(f"{what} must have integer coefficients")


def _gram_height(G: GramMatrix):
    """Spread of the Gram: its largest absolute entry. Its determinant is 1
    up to rounding, so it needs no normalization: :func:`minimize` scales
    the covariant to determinant 1 and the transforms are unimodular."""
    return max(abs(v) for r in G.matrix for v in r)


def _reduce_core(cls, cluster: PointCluster, what: str, back=None):
    """The reduction shared by every pipeline: requires the caller's class
    ``cls`` stable (from :func:`classify` for numeric input, from exact facts
    for forms), takes the covariant from :func:`minimize`, which starts from
    the closed form for n+2 points and stops at a gradient well inside LLL's
    tie window, and LLL-reduces its real part, the Gram matrix: every
    cluster here is fixed by conjugation, so the covariant is real and an
    imaginary part is rounding, which is dropped unchecked.
    A cluster found on F(U0 x) comes with ``back`` = U0^-1, which carries
    its Gram G' to the input's coordinates as G = U0^-T G' U0^-1 before LLL,
    so that U does not depend on U0. The real part of the positive definite
    covariant is positive definite, so a Gram that LLL finds otherwise is
    the rounding of the working precision: ConvergenceError says so.
    Returns (covariant result, G, reduced Gram, U), U from LLL unchanged."""
    if not cls.is_stable:
        raise StabilityError(f"{what} is not stable", classification=cls, witness=cls.witness)
    result = minimize(cluster, check_stability=False)
    G = GramMatrix([[mp.re(v) for v in r] for r in result.z.matrix])
    if back is not None:
        G = congruence(G, back)
    try:
        reduced_gram, U = lll_reduce(G)
    except NotPositiveDefiniteError as exc:
        raise _short_of_precision(f"LLL of the real Gram of the covariant failed ({exc})") from exc
    return result, G, reduced_gram, U


def _diagnostics(cls, result, before, after, residuals=(), **extra) -> dict:
    return {
        "precision": mp.mp.prec,
        "iterations": result.iterations,
        "gradient_norm": result.final_gradient_norm,
        "newton_stop": result.stop,
        "residuals": tuple(residuals),
        "stability": cls,
        "height_before": before,
        "height_after": after,
        "height_warning": bool(after > before),
        **extra,
    }


def reduce_cluster(cluster: PointCluster, prec=None) -> ReductionReport:
    """LLL-reduced representative of the SL(n+1, Z)-orbit of a real stable cluster.

    The cluster must be fixed by complex conjugation, since the reduction
    happens through the real Gram matrix of the covariant. The returned
    transform has determinant +1 and the reduced cluster is
    act(cluster, U^(-T)), whose covariant is the reduced Gram.
    """
    with working_precision(prec):
        cls = classify(cluster)
        if cls.is_stable and not cluster.is_conjugation_fixed():
            raise RealityError("cluster is not fixed by conjugation; no integral reduction")
        result, G, reduced_gram, U = _reduce_core(cls, cluster, "cluster")
        if U.det() == -1:
            U = U.negate_column(U.size - 1)
            reduced_gram = congruence(G, U)
        return ReductionReport(
            kind="cluster",
            covariant=G,
            reduced_gram=reduced_gram,
            transform=U,
            reduced=act(cluster, U.inverse_transpose()),
            diagnostics=_diagnostics(
                cls,
                result,
                _gram_height(G),
                _gram_height(reduced_gram),
                theta=result.theta,
            ),
        )


def reduce_binary_form(F: MultiPoly, prec=None) -> ReductionReport:
    """Reduce a binary form through the covariant of its root cluster in P^1.

    Cubics use the closed-form covariant of three points in general position;
    higher degrees run the covariant solver. The returned transform U
    substitutes into the form: reduced = F(U x). A degree above
    ``MAX_BINARY_DEGREE`` raises InputFormatError.
    """
    if F.nvars != 2:
        raise InputFormatError("binary form must have 2 variables")
    if not F.is_homogeneous() or F.total_degree() < 3:
        raise InputFormatError("need a homogeneous binary form of degree >= 3")
    _require_degree_at_most(F, MAX_BINARY_DEGREE, "binary form")
    with working_precision(prec):
        # the exact class from one squarefree split (a factor x1 counts roots
        # at infinity): classify's margin d - 2 max k; split at <= 2 roots
        factors = F.to_sympy().sqf_list()[1]
        margin = F.total_degree() - 2 * max(k for _, k in factors)
        split = sum(f.total_degree() for f, _ in factors) <= 2
        cls = StabilityClass(split, margin >= 0, margin > 0, margin=margin)
        if not cls.is_stable:  # before any root finding
            raise StabilityError("root cluster is not stable", classification=cls)
        cluster = _binary_form_roots(F, factors)
        result, G, reduced_gram, U = _reduce_core(cls, cluster, "root cluster")
        reduced = substitute(F, U)
        return ReductionReport(
            kind="binary-form",
            covariant=G,
            reduced_gram=reduced_gram,
            transform=U,
            reduced=reduced,
            diagnostics=_diagnostics(cls, result, F.height(), reduced.height()),
            extras={"root_cluster": cluster},
        )


def _short_of_precision(what: str):
    return ConvergenceError(f"{what} at the working precision of {mp.mp.prec} bits")


def _norm2(z) -> int:
    return z[0] * z[0] + z[1] * z[1]


def _quotient(z, w, shift) -> tuple:
    """(z / w) 2^shift for Gaussian integers z and w != 0, floored."""
    n = _norm2(w)
    return ((z[0] * w[0] + z[1] * w[1]) << shift) // n, ((z[1] * w[0] - z[0] * w[1]) << shift) // n


def _cross(u, v) -> list:
    """u x v for vectors of Gaussian integers (x, y), exact."""
    out = []
    for k in range(3):
        (a, b), (c, d) = u[(k + 1) % 3], v[(k + 2) % 3]
        (e, f), (g, h) = u[(k + 2) % 3], v[(k + 1) % 3]
        out.append((a * c - b * d - e * g + f * h, a * d + b * c - e * h - f * g))
    return out


def _line_pair(C, T) -> tuple:
    """The two lines (g, h) of a symmetric 3x3 matrix C of rank 2 with
    Gaussian-integer entries at scale 2^-T, which is proportional to
    g h^T + h g^T: its adjugate, exact at 2^-2T, is -p p^T for the lines'
    meeting point p = g x h. With i the index of the largest |adj(C)_ii|,
    p = adj(C)_i / sqrt(-adj(C)_ii) up to sign, at 2^-T, and C + [p]_x,
    where [p]_x x = p x x, is 2 h g^T or 2 g h^T: its row and its column at
    its largest entry are the two lines (Richter-Gebert, Perspectives on
    Projective Geometry, 11.3). A pivot whose root is zero at 2^-T is
    missing precision, since the exact adjugate of a rank-2 matrix is not
    zero."""
    B = [_cross(C[(i + 1) % 3], C[(i + 2) % 3]) for i in range(3)]
    i = max(range(3), key=lambda k: _norm2(B[k][k]))
    root = _fixed(mp.sqrt(-_from_fixed(*B[i][i], 2 * T)), T)
    if root == (0, 0):
        raise _short_of_precision("a degenerate pencil member has a zero adjugate")
    (ax, ay), (bx, by), (cx, cy) = (_quotient(b, root, 0) for b in B[i])
    skew = (((0, 0), (-cx, -cy), (bx, by)), ((cx, cy), (0, 0), (-ax, -ay)), ((-bx, -by), (ax, ay), (0, 0)))
    R = [[(x + u, y + v) for (x, y), (u, v) in zip(r, q)] for r, q in zip(C, skew)]
    a, b = divmod(max(range(9), key=lambda k: _norm2(R[k // 3][k % 3])), 3)
    return R[a], [row[b] for row in R]


def _base_points(roots: PointCluster, pencil, basis) -> RootSet:
    """The four base points of a ``pencil`` (Q1, Q2) from two roots (s : t)
    of its squarefree cubic det(s M1 + t M2), on Gaussian integers at scale
    2^-T, T = prec + 20 for the ambient precision prec. As max(|s|, |t|) >= 1,
    the scale keeps every bit of the roots, and only a square root and the
    divisions round. Each root gives s M1 + t M2 exactly, a member of rank 2
    that :func:`_line_pair` splits into two opposite sides of the base
    points' quadrangle. (Exact arithmetic needs no change to the reduced
    basis.) The lines of one pair cross those of the other at the four
    points, each divided by its coordinate of largest modulus, which becomes
    1. As in :func:`curve_intersection`, a point carries its residual on the
    reduced ``basis`` (Q1p, Q2p): for its unit vector u, max(|Q1p(u)|,
    |Q2p(u)|) over the larger coefficient norm, from
    :meth:`MultiPoly.evaluate`, which must be below 2^(-prec/2), or
    ConvergenceError is raised."""
    T = mp.mp.prec + 20
    M1, M2 = (_second_partials(Q) for Q in pencil)
    pairs = []
    for root in roots.points[:2]:
        (sx, sy), (tx, ty) = (_fixed(c, T) for c in root.coords)
        C = [[(sx * a + tx * b, sy * a + ty * b) for a, b in zip(r1, r2)] for r1, r2 in zip(M1, M2)]
        pairs.append(_line_pair(C, T))
    norm = max(Q.coeff_norm() for Q in basis)
    found = []
    for line, other in itertools.product(*pairs):
        v = _cross(line, other)
        k = max(range(3), key=lambda j: _norm2(v[j]))
        if v[k] == (0, 0):
            raise _short_of_precision("two lines of degenerate pencil members coincide")
        point = ProjectivePoint(tuple(
            mp.mpc(1) if j == k else _from_fixed(*_quotient(z, v[k], T), T) for j, z in enumerate(v)
        ))
        u = point.unit()
        resid = max(abs(Q.evaluate(u)) for Q in basis) / norm
        if resid >= half_eps():
            raise _short_of_precision(f"base point residual {mp.nstr(resid, 5)} is not below 2^({-mp.mp.prec // 2})")
        found.append((point, 1, resid))
    return RootSet(tuple(found), (False,) * 4)


def reduce_quadric_pencil(Q1: MultiPoly, Q2: MultiPoly, prec=None) -> ReductionReport:
    """Reduce a pencil of ternary quadrics whose generic member is smooth.

    Stages: (a) the binary cubic det(x M1 + y M2); (b) its reduction gives a
    new pencil basis (rows of the 2x2 pencil transform combine Q1, Q2, signs
    normalized so each new member has positive leading coefficient); (c) the
    four base points, where the line pairs of the members at two of the
    cubic's roots cross (:func:`_base_points`); (d) the closed-form
    covariant of the base points; (e) LLL; (f) substitution into both
    quadrics. The coordinate transform and the pencil transform commute and
    are reported separately.
    """
    for Q in (Q1, Q2):
        _require_exact_integer(Q, "pencil quadrics")
    with working_precision(prec):
        cubic = pencil_cubic(Q1, Q2)
        if cubic.is_zero() or cubic.total_degree() != 3:
            raise DegeneratePencilError("pencil determinant cubic is degenerate")
        try:  # a binary cubic is stable exactly when its roots are distinct
            binary_report = reduce_binary_form(cubic)
        except StabilityError as exc:
            raise DegeneratePencilError("pencil determinant cubic has repeated roots") from exc
        Ub = binary_report.transform
        # rows of W = Ub^T express the new pencil basis in terms of (Q1, Q2)
        W = [list(row) for row in Ub.transpose().matrix]
        members = []
        for i in range(2):
            member = W[i][0] * Q1 + W[i][1] * Q2
            if member.terms and member.terms[0][1] < 0:
                member = -member
                W[i] = [-W[i][0], -W[i][1]]
            members.append(member)
        Q1p, Q2p = members
        base = _base_points(binary_report.extras["root_cluster"], (Q1, Q2), (Q1p, Q2p))
        # the cubic is squarefree, so the four base points are distinct, and
        # they are stable with margin 1: were three on a line, every member
        # would contain it and the cubic would vanish
        cls = StabilityClass(False, True, True, margin=1)
        result, G, reduced_gram, U = _reduce_core(cls, base.cluster(), "base point cluster")
        finals = (substitute(Q1p, U), substitute(Q2p, U))
        return ReductionReport(
            kind="quadric-pencil",
            covariant=G,
            reduced_gram=reduced_gram,
            transform=U,
            reduced=finals,
            diagnostics=_diagnostics(
                cls,
                result,
                max(Q1.height(), Q2.height()),
                max(f.height() for f in finals),
                residuals=(r for _, _, r in base.roots),
            ),
            pencil_transform=tuple(tuple(r) for r in W),
            extras={
                "pencil_cubic": cubic,
                "reduced_pencil_cubic": binary_report.reduced,
                "pencil_basis": (Q1p, Q2p),
                "base_points": base,
            },
        )


PRECONDITIONING_PASSES = 8


def _double_pass(F: MultiPoly, H: MultiPoly):
    """One reduction of a ternary form F with Hessian H in hardware doubles:
    its flexes from :func:`_intersection_in_doubles`, by the exact pass's
    projection rule, their covariant in doubles from
    :func:`_tyler_in_doubles`, and LLL at 53 bits, with a column negated for
    determinant +1. Doubles resolve the Gram only down to about 2^-45 of its
    largest diagonal entry, so it is floored there: a form too distorted for
    doubles stays positive definite at 53 bits and is reduced as far as they
    resolve it, and the next pass goes on from there. Returns U."""
    Q = _tyler_in_doubles(_intersection_in_doubles(F, H))
    floor = 2.0**-45 * max(Q[a][a].real for a in range(3))
    with mp.workprec(53):
        G = GramMatrix([[Q[a][b].real + (floor if a == b else 0) for b in range(3)] for a in range(3)])
        _, U = lll_reduce(G)
    return U if U.det() == 1 else U.negate_column(U.size - 1)


def _precondition(F: MultiPoly, H: MultiPoly):
    """An exact integer substitution U0 found in doubles: repeat
    :func:`_double_pass` on F(U0 x) and its Hessian, from U0 = I and the
    Hessian H of F, until a pass returns the identity or after
    ``PRECONDITIONING_PASSES`` passes, so that U0 is the product of the
    passes' LLL transforms. The form height may rise on the way while the
    covariant keeps improving, so it is recorded, not used to stop. A pass
    that fails where doubles do not suffice (an arithmetic, value or package
    error) ends preconditioning with the U0 found so far, and the record
    says why: U0 only conditions the exact pass, whose result does not
    depend on it. Returns F(U0 x), its Hessian, U0 and the record of the
    passes."""
    identity = UnimodularTransform(tuple(tuple(int(i == j) for j in range(3)) for i in range(3)))
    U0, heights, stop = identity, [], "pass cap"
    for _ in range(PRECONDITIONING_PASSES):
        try:
            U = _double_pass(F, H)
        except (ArithmeticError, ValueError, ClusterReduceError) as exc:
            stop = f"pass failed: {type(exc).__name__}: {exc}"
            break
        if U == identity:
            heights.append(F.height())
            stop = "identity"
            break
        F, U0 = substitute(F, U), U0 @ U
        H = hessian(F)
        heights.append(F.height())
    return F, H, U0, {"passes": len(heights), "heights": heights, "stop": stop, "transform": U0}


def reduce_ternary_form(F: MultiPoly, prec=None, seed=0) -> ReductionReport:
    """Reduce an irreducible ternary form through its inflection-point cluster.

    The inflection points are the intersections of the curve with its Hessian
    curve. Points singular on the curve are removed, found exactly by
    :func:`curve_intersection`; only nodes with uninflected branches are
    accepted (each absorbs intersection multiplicity 6; a cusp, a tacnode or
    a node with a flex on a branch, a flecnode, absorbs more and raises
    StabilityError), and the classical genus conditions g > 0 and
    r < d(d-2)/4 are enforced. A smooth curve's flexes are stable, a nodal
    curve's are classified; their covariant drives the LLL reduction.

    A preconditioning stage first finds an integer U0 of determinant 1 by
    whole reductions in hardware doubles (:func:`_precondition`), and the
    flexes are found by :func:`curve_intersection` of the well-conditioned
    F(U0 x) with its Hessian, by the passes' projection rule (so a cycle
    that the last pass took costs the exact pass one more elimination). The
    residuals refer to these forms after the projection that succeeded,
    which the same call reproduces: the projections are fixed. By
    equivariance, z(F(U0 x)) = U0^T z(F) U0, their Gram is carried back
    exactly by U0^-1 and LLL-reduced from the identity, so U does not depend
    on U0. The covariant, flexes (placed at U0 v), H and transform refer to F.
    ``diagnostics["preconditioning"]`` records the passes and U0. Nothing
    reads ``seed``; it stays in the signature for callers that still pass it.

    Default precision is 212 bits for degree <= 3 and 424 bits above. A
    degree above ``MAX_TERNARY_DEGREE``, a form reducible over Q and a cone,
    lines through one point over C, whose Hessian vanishes, raise InputFormatError.
    """
    if F.nvars != 3:
        raise InputFormatError("ternary form must have 3 variables")
    d = F.total_degree()
    if not F.is_homogeneous() or d < 3:
        raise InputFormatError("need a homogeneous ternary form of degree >= 3")
    _require_degree_at_most(F, MAX_TERNARY_DEGREE, "ternary form")
    _require_exact_integer(F, "ternary form")
    if prec is None:
        prec = 212 if d <= 3 else 424
    with working_precision(prec):
        _, factors = F.to_sympy().factor_list()
        if len(factors) != 1 or factors[0][1] != 1:
            raise InputFormatError("form is reducible; the pipeline needs an irreducible curve")
        H = hessian(F)
        if H.is_zero():
            raise InputFormatError("the Hessian vanishes: the curve is a union of concurrent lines")
        F1, H1, U0, passes = _precondition(F, H)
        inter = curve_intersection(F1, H1)
        # a singular point of F is singular on its Hessian curve too, so the
        # exact flag of curve_intersection finds the singular points of F
        flexes = [root for root, sing in zip(inter.roots, inter.singular) if not sing]
        nodes = [mult for (_, mult, _), sing in zip(inter.roots, inter.singular) if sing]
        for mult in nodes:
            if mult != 6:
                raise StabilityError(
                    f"a singular point meets the Hessian with multiplicity {mult}, not 6: it is not a node with "
                    "uninflected branches (it may be a cusp, a tacnode or a flecnode); no inflection cluster"
                )
        # a smooth curve (r = 0, d >= 3) has genus >= 1
        r = len(nodes)
        genus = (d - 1) * (d - 2) // 2 - r
        if genus <= 0 or 4 * r >= d * (d - 2):
            raise StabilityError(f"nodal curve out of range: genus {genus}, {r} nodes")
        # by Bezout's total d 3(d-2) and 6 per node, the flexes number
        # 3d(d-2) - 6r with multiplicity, so they are not counted
        pts = tuple(v for v, mult, _ in flexes for _ in range(mult))
        cluster = PointCluster(pts)
        # the flexes of a smooth curve are stable: a line holds at most
        # d(d-2) of the 3d(d-2), a point at most d-2
        cls = classify(cluster) if r else StabilityClass(False, True, True)
        result, G, reduced_gram, U = _reduce_core(cls, cluster, "inflection cluster", back=U0.inverse())
        reduced = substitute(F, U)
        placed = PointCluster(tuple(
            ProjectivePoint(tuple(mp.fsum(U0.matrix[k][a] * v.coords[a] for a in range(3)) for k in range(3)))
            for v in pts
        ))
        return ReductionReport(
            kind="ternary-form",
            covariant=G,
            reduced_gram=reduced_gram,
            transform=U,
            reduced=reduced,
            diagnostics=_diagnostics(
                cls,
                result,
                F.height(),
                reduced.height(),
                residuals=(resid for _, _, resid in flexes),
                nodes=r,
                preconditioning=passes,
            ),
            extras={"inflection_cluster": placed, "hessian": H},
        )
