"""End-to-end reduction pipelines for clusters, binary forms, pencils, ternary forms.

Every pipeline produces a :class:`ReductionReport`. The reported ``transform``
U is a single coordinate change: it acts on forms by substitution
F -> F(U x) and on point rows by the contragredient P -> P * U^(-T); the
covariant Gram transforms as G -> U^T G U, which is what the LLL step
reduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import mpmath as mp
import sympy as sp

from ._precision import (
    default_rank_tol,
    max_abs_entry,
    max_imag_entry,
    real_part,
    working_precision,
)
from .cluster_core import PointCluster, act, classify, normalize_cluster, rank_of
from .covariant import CovariantResult, HermitianForm, grad_D, minimize, simplex_covariant
from .errors import (
    DegeneratePencilError,
    DegeneratePositionError,
    DimensionError,
    InputFormatError,
    RealityError,
    StabilityError,
)
from .lattice import GramMatrix, UnimodularTransform, congruence, lll_reduce
from .polyalg import MultiPoly, binary_form_roots, curve_intersection, hessian, substitute

DEFAULT_DELTA = 0.99


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


def _require_exact_integer(F: MultiPoly, what: str):
    for _, c in F.terms:
        if not isinstance(c, int):
            raise InputFormatError(f"{what} must have integer coefficients")


def _real_gram(z: HermitianForm, tol=None) -> GramMatrix:
    M = z.mat()
    if tol is None:
        tol = default_rank_tol()
    imag = max_imag_entry(M)
    scale = max_abs_entry(M)
    if imag > tol * (1 + scale):
        raise RealityError(
            "covariant has a significant imaginary part; the input is not "
            "conjugation-fixed, so only the complex covariant is defined"
        )
    return GramMatrix.from_matrix(real_part(M))


def _gram_height(G: GramMatrix):
    """Spread of the determinant-1 normalized Gram: max absolute entry."""
    M = G.mat()
    d = mp.det(M)
    M = M / mp.root(d, G.size)
    return max_abs_entry(M)


def _covariant_of_cluster(cluster, tol, max_iter, warm_start=True) -> CovariantResult:
    """Descent covariant of a cluster the caller has already classified stable."""
    initial = None
    if warm_start and cluster.degree == cluster.n + 2:
        try:
            initial = simplex_covariant(cluster)
        except (DegeneratePositionError, DimensionError):
            initial = None
    return minimize(
        cluster, tol=tol, max_iter=max_iter, initial=initial, check_stability=False
    )


def reduce_cluster(
    cluster: PointCluster,
    prec=None,
    tol=None,
    delta=DEFAULT_DELTA,
    max_iter=1000,
) -> ReductionReport:
    """LLL-reduced representative of the SL(n+1, Z)-orbit of a real stable cluster.

    The cluster must be fixed by complex conjugation, since the reduction
    happens through the real Gram matrix of the covariant. The returned
    transform has determinant +1 and the reduced cluster is
    act(cluster, U^(-T)), whose covariant is the reduced Gram.
    """
    with working_precision(prec):
        cls = classify(cluster)
        if not cls.is_stable:
            raise StabilityError(
                "cluster is not stable", classification=cls, witness=cls.witness
            )
        if not cluster.is_conjugation_fixed():
            raise RealityError(
                "cluster is not fixed by conjugation; compute the complex "
                "covariant instead (no integral reduction is defined)"
            )
        result = _covariant_of_cluster(cluster, tol, max_iter)
        G = _real_gram(result.z)
        reduced_gram, U = lll_reduce(G, delta=delta)
        if U.det() == -1:
            U = U.negate_column(U.size - 1)
            reduced_gram = congruence(G, U)
        reduced_cluster = act(cluster, U.inverse_transpose().mat())
        height_before = _gram_height(G)
        height_after = _gram_height(reduced_gram)
        diagnostics = {
            "precision": mp.mp.prec,
            "iterations": result.iterations,
            "gradient_norm": result.final_gradient_norm,
            "residuals": (),
            "stability": cls,
            "height_before": height_before,
            "height_after": height_after,
            "height_warning": bool(height_after > height_before),
            "theta": result.theta,
        }
        return ReductionReport(
            kind="cluster",
            covariant=G,
            reduced_gram=reduced_gram,
            transform=U,
            reduced=reduced_cluster,
            diagnostics=diagnostics,
        )


def reduce_binary_form(
    F: MultiPoly,
    prec=None,
    tol=None,
    delta=DEFAULT_DELTA,
    max_iter=1000,
) -> ReductionReport:
    """Reduce a binary form through the covariant of its root cluster in P^1.

    Cubics use the closed-form covariant of three points in general position;
    higher degrees run the descent. The returned transform U substitutes into
    the form: reduced = F(U x).
    """
    if F.nvars != 2:
        raise DimensionError("binary form must have 2 variables")
    if not F.is_homogeneous() or F.total_degree() < 3:
        raise InputFormatError("need a homogeneous binary form of degree >= 3")
    with working_precision(prec):
        cluster = binary_form_roots(F)
        if not cluster.is_conjugation_fixed():
            raise RealityError("roots of a real form must be conjugation-closed")
        cls = classify(cluster)
        if not cls.is_stable:
            raise StabilityError(
                "root cluster is not stable (a root carries at least half "
                "the degree)",
                classification=cls,
                witness=cls.witness,
            )
        if cluster.degree == 3:
            z = simplex_covariant(cluster)
            iterations = 0
            gnorm = grad_D(normalize_cluster(cluster), z).norm()
        else:
            result = _covariant_of_cluster(cluster, tol, max_iter, warm_start=False)
            z = result.z
            iterations = result.iterations
            gnorm = result.final_gradient_norm
        G = _real_gram(z)
        reduced_gram, U = lll_reduce(G, delta=delta)
        reduced = substitute(F, U)
        diagnostics = {
            "precision": mp.mp.prec,
            "iterations": iterations,
            "gradient_norm": gnorm,
            "residuals": (),
            "stability": cls,
            "height_before": F.height(),
            "height_after": reduced.height(),
            "height_warning": bool(reduced.height() > F.height()),
        }
        return ReductionReport(
            kind="binary-form",
            covariant=G,
            reduced_gram=reduced_gram,
            transform=U,
            reduced=reduced,
            diagnostics=diagnostics,
            extras={"root_cluster": cluster},
        )


def _second_partials(Q: MultiPoly):
    """Integer matrix of second partial derivatives of a ternary quadric."""
    M = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            dd = Q.diff(i).diff(j)
            M[i][j] = dd.coeff((0, 0, 0))
    return M


def pencil_cubic(Q1: MultiPoly, Q2: MultiPoly) -> MultiPoly:
    """det(x * M1 + y * M2) for the second-partial matrices of two quadrics."""
    M1 = _second_partials(Q1)
    M2 = _second_partials(Q2)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    E = [[x * M1[i][j] + y * M2[i][j] for j in range(3)] for i in range(3)]
    return (
        E[0][0] * (E[1][1] * E[2][2] - E[1][2] * E[2][1])
        - E[0][1] * (E[1][0] * E[2][2] - E[1][2] * E[2][0])
        + E[0][2] * (E[1][0] * E[2][1] - E[1][1] * E[2][0])
    )


def _is_squarefree_binary(c: MultiPoly) -> bool:
    """Squarefree test for a binary form: no repeated root, infinity included."""
    deg = c.total_degree()
    coeffs = [0] * (deg + 1)
    for (a, _b), co in c.terms:
        coeffs[a] += co
    e = max(k for k in range(deg + 1) if coeffs[k] != 0)
    if deg - e > 1:
        return False  # root at infinity with multiplicity >= 2
    t = sp.Symbol("t")
    poly = sp.Poly(list(reversed(coeffs[: e + 1])), t)
    return sp.gcd(poly, poly.diff(t)).total_degree() == 0


def reduce_quadric_pencil(
    Q1: MultiPoly,
    Q2: MultiPoly,
    prec=None,
    tol=None,
    delta=DEFAULT_DELTA,
    max_iter=1000,
    seed=0,
) -> ReductionReport:
    """Reduce a pencil of ternary quadrics whose generic member is smooth.

    Stages: (a) the binary cubic det(x M1 + y M2); (b) its reduction gives a
    new pencil basis (rows of the 2x2 pencil transform combine Q1, Q2, signs
    normalized so each new member has positive leading coefficient); (c) the
    four base points; (d) the closed-form covariant of the base points; (e)
    LLL; (f) substitution into both quadrics. The coordinate transform and the
    pencil transform commute and are reported separately.
    """
    for Q in (Q1, Q2):
        if Q.nvars != 3 or not Q.is_homogeneous() or Q.total_degree() != 2:
            raise InputFormatError("pencil members must be ternary quadrics")
        _require_exact_integer(Q, "pencil quadrics")
    with working_precision(prec):
        cubic = pencil_cubic(Q1, Q2)
        if cubic.is_zero() or cubic.total_degree() != 3:
            raise DegeneratePencilError("pencil determinant cubic is degenerate")
        if not _is_squarefree_binary(cubic):
            raise DegeneratePencilError(
                "pencil determinant cubic has repeated roots"
            )
        binary_report = reduce_binary_form(
            cubic, tol=tol, delta=delta, max_iter=max_iter
        )
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
        base = curve_intersection(Q1p, Q2p, seed=seed)
        if len(base.roots) < 4 or any(m != 1 for _, m, _ in base.roots):
            raise DegeneratePencilError(
                "pencil has fewer than four distinct base points"
            )
        base_cluster = base.cluster()
        if not base_cluster.is_conjugation_fixed():
            raise RealityError("base points of a real pencil must be conjugation-closed")
        cls = classify(base_cluster)
        general = all(
            rank_of(list(t)) == 3
            for t in _triples(base_cluster.points)
        )
        if general:
            z = simplex_covariant(base_cluster)
            iterations = 0
            gnorm = grad_D(normalize_cluster(base_cluster), z).norm()
        else:
            if not cls.is_stable:
                raise StabilityError(
                    "base points are neither in general position nor stable",
                    classification=cls,
                    witness=cls.witness,
                )
            result = _covariant_of_cluster(base_cluster, tol, max_iter, warm_start=False)
            z = result.z
            iterations = result.iterations
            gnorm = result.final_gradient_norm
        G = _real_gram(z)
        reduced_gram, U = lll_reduce(G, delta=delta)
        finals = (substitute(Q1p, U), substitute(Q2p, U))
        height_before = max(Q1.height(), Q2.height())
        height_after = max(f.height() for f in finals)
        diagnostics = {
            "precision": mp.mp.prec,
            "iterations": iterations,
            "gradient_norm": gnorm,
            "residuals": tuple(r for _, _, r in base.roots),
            "stability": cls,
            "height_before": height_before,
            "height_after": height_after,
            "height_warning": bool(height_after > height_before),
        }
        return ReductionReport(
            kind="quadric-pencil",
            covariant=G,
            reduced_gram=reduced_gram,
            transform=U,
            reduced=finals,
            diagnostics=diagnostics,
            pencil_transform=tuple(tuple(r) for r in W),
            extras={
                "pencil_cubic": cubic,
                "reduced_pencil_cubic": binary_report.reduced,
                "pencil_basis": (Q1p, Q2p),
                "base_points": base,
            },
        )


def _triples(points):
    m = len(points)
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                yield (points[i], points[j], points[k])


def reduce_ternary_form(
    F: MultiPoly,
    prec=None,
    tol=None,
    delta=DEFAULT_DELTA,
    max_iter=1000,
    seed=0,
) -> ReductionReport:
    """Reduce an irreducible ternary form through its inflection-point cluster.

    The inflection points are the intersections of the curve with its Hessian
    curve. Points singular on the curve are removed; only plain nodes are
    accepted (each absorbs intersection multiplicity 6), and the classical
    genus conditions g > 0 and r < d(d-2)/4 are enforced. The remaining
    cluster must be stable; its covariant drives the LLL reduction.

    Default precision is 212 bits for degree <= 3 and 424 bits above.
    """
    if F.nvars != 3:
        raise DimensionError("ternary form must have 3 variables")
    d = F.total_degree()
    if not F.is_homogeneous() or d < 3:
        raise InputFormatError("need a homogeneous ternary form of degree >= 3")
    _require_exact_integer(F, "ternary form")
    if prec is None:
        prec = 212 if d <= 3 else 424
    with working_precision(prec):
        _, factors = sp.factor_list(F.to_sympy().as_expr(), *sp.symbols("x0:3"))
        if len(factors) != 1 or factors[0][1] != 1:
            raise InputFormatError("form is reducible; the pipeline needs an irreducible curve")
        H = hessian(F)
        inter = curve_intersection(F, H, seed=seed)
        grads = [F.diff(i) for i in range(3)]
        gnorms = [g.coeff_norm() for g in grads]
        sing_tol = mp.mpf(2) ** (-mp.mp.prec // 4)
        inflections = []
        nodes = []
        for p, mult, resid in inter.roots:
            u = p.unit()
            gval = max(abs(g.evaluate(u)) / gn for g, gn in zip(grads, gnorms))
            if gval < sing_tol:
                nodes.append((p, mult))
            else:
                inflections.append((p, mult, resid))
        r = len(nodes)
        if r:
            if any(mult != 6 for _, mult in nodes):
                raise StabilityError(
                    "curve has a non-nodal singularity; the inflection cluster "
                    "is not defined by this pipeline"
                )
            genus = (d - 1) * (d - 2) // 2 - r
            if genus <= 0 or 4 * r >= d * (d - 2):
                raise StabilityError(
                    f"nodal curve out of range: genus {genus}, {r} nodes"
                )
        pts = []
        for p, mult, _ in inflections:
            pts.extend([p] * mult)
        expected = 3 * d * (d - 2) - 6 * r
        if len(pts) != expected:
            raise StabilityError(
                f"inflection count {len(pts)} does not match the expected {expected}"
            )
        cluster = PointCluster(tuple(pts))
        cls = classify(cluster)
        if not cls.is_stable:
            raise StabilityError(
                "inflection cluster is not stable",
                classification=cls,
                witness=cls.witness,
            )
        if not cluster.is_conjugation_fixed():
            raise RealityError("inflection cluster is not conjugation-fixed")
        result = _covariant_of_cluster(cluster, tol, max_iter, warm_start=False)
        G = _real_gram(result.z)
        reduced_gram, U = lll_reduce(G, delta=delta)
        reduced = substitute(F, U)
        diagnostics = {
            "precision": mp.mp.prec,
            "iterations": result.iterations,
            "gradient_norm": result.final_gradient_norm,
            "residuals": tuple(rr for _, _, rr in inflections),
            "stability": cls,
            "height_before": F.height(),
            "height_after": reduced.height(),
            "height_warning": bool(reduced.height() > F.height()),
            "nodes": r,
        }
        return ReductionReport(
            kind="ternary-form",
            covariant=G,
            reduced_gram=reduced_gram,
            transform=U,
            reduced=reduced,
            diagnostics=diagnostics,
            extras={"inflection_cluster": cluster, "hessian": H},
        )
