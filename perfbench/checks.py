"""Checks of every program output, computed apart from the program.

Each check is exact integer or rational arithmetic, a sympy recomputation or
a numpy oracle; none compares against a stored copy of an earlier output.
``check(op, out)`` returns the names of the checks an output fails, with a
reason each; an empty list means the output is correct. ``self_test`` feeds
each check a corrupted copy of a correct output and reports whether the check
rejected it.
"""

from __future__ import annotations

import copy
import decimal
from fractions import Fraction

import mpmath as mp
import numpy as np
import sympy as sp

from gen import X, form_expr, poly_terms, substitute
from oracle import tyler_covariant

LLL_DELTA = Fraction(99, 100)
LLL_SLACK = Fraction(1, 10**9)
TYLER_TOL = 1e-6
DISTINCT_TOL = mp.mpf(10) ** -10
EVAL_PREC = 848


# -- exact linear algebra ------------------------------------------------------


def int_det(M):
    """Determinant of a square integer matrix by fraction-free elimination."""
    A = [list(map(int, r)) for r in M]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if A[r][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1]


def int_inverse(U):
    """Exact inverse of an integer matrix of determinant +-1 (adjugate)."""
    n = len(U)
    d = int_det(U)
    minor = lambda i, j: [[U[a][b] for b in range(n) if b != j] for a in range(n) if a != i]
    return [[(-1) ** (i + j) * int_det(minor(j, i)) * d for j in range(n)] for i in range(n)]


def _fractions(M):
    return [[Fraction(v) for v in row] for row in M]


def _congruence(G, U):
    n = len(U)
    return [
        [sum(U[a][i] * G[a][b] * U[b][j] for a in range(n) for b in range(n)) for j in range(n)]
        for i in range(n)
    ]


def gso(G):
    """Gram-Schmidt coefficients mu and squared lengths B of a Gram matrix."""
    n = len(G)
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (G[i][j] - sum(mu[j][k] * mu[i][k] * B[k] for k in range(j))) / B[j]
        B[i] = G[i][i] - sum(mu[i][k] ** 2 * B[k] for k in range(i))
        if B[i] <= 0:
            raise ArithmeticError("Gram matrix is not positive definite")
    return mu, B


# -- individual checks (each returns a reason string, or None) ----------------


def check_unimodular(U):
    if not all(isinstance(v, int) for row in U for v in row) or any(len(r) != len(U) for r in U):
        return "transform is not a square integer matrix"
    d = int_det(U)
    return None if d in (1, -1) else f"det U = {d}"


def check_congruence(G, U, R):
    """R equals U^T G U up to the rounding of the printed entries."""
    G, R = _fractions(G), _fractions(R)
    expect = _congruence(G, U)
    n = len(U)
    scale = max(abs(v) for row in G for v in row) * sum(abs(v) for row in U for v in row) ** 2
    err = max(abs(expect[i][j] - R[i][j]) for i in range(n) for j in range(n))
    return None if err <= scale * Fraction(1, 10**40) else f"|U^T G U - R| = {float(err):.3g}"


def check_lll(R):
    """Size reduction and the Lovasz condition at delta = 0.99."""
    try:
        mu, B = gso(_fractions(R))
    except ArithmeticError as exc:
        return str(exc)
    n = len(R)
    for i in range(n):
        for j in range(i):
            if abs(mu[i][j]) > Fraction(1, 2) + LLL_SLACK:
                return f"|mu[{i}][{j}]| = {float(abs(mu[i][j])):.6g} > 1/2"
    for k in range(1, n):
        if B[k] < (LLL_DELTA - mu[k][k - 1] ** 2) * B[k - 1] * (1 - LLL_SLACK):
            return f"Lovasz condition fails at k = {k}"
    return None


def check_covariant(rows, R):
    """R agrees up to scale with the inverse Tyler scatter of the points."""
    norms = np.linalg.norm(rows, axis=1)
    Q = tyler_covariant(rows / norms[:, None])
    if np.abs(Q.imag).max() > TYLER_TOL * np.abs(Q).max():
        return "Tyler covariant of a conjugation-fixed cluster is not real"
    Q = Q.real / np.linalg.norm(Q.real)
    Rf = np.array([[float(Fraction(v)) for v in row] for row in R])
    Rf /= np.linalg.norm(Rf)
    err = np.abs(Q - Rf).max()
    return None if err <= TYLER_TOL else f"covariant differs from Tyler's by {err:.3g}"


def _mp_rows(points):
    return [[mp.mpc(mp.mpf(re), mp.mpf(im)) for re, im in p] for p in points]


def _unit(row):
    nrm = mp.sqrt(mp.fsum(abs(c) ** 2 for c in row))
    return [c / nrm for c in row]


def _transformed_rows(points, U):
    """Rows P U^(-T) in high precision, returned as unit complex doubles."""
    Vt = [list(r) for r in zip(*int_inverse(U))]
    with mp.workprec(EVAL_PREC):
        out = []
        for p in _mp_rows(points):
            row = [mp.fsum(p[a] * Vt[a][j] for a in range(len(p))) for j in range(len(p))]
            out.append([complex(c) for c in _unit(row)])
    return np.array(out)


def check_points_on_curves(points, curves, prec, expected):
    """Points vanish on every curve, are pairwise distinct and number ``expected``."""
    if len(points) != expected:
        return f"{len(points)} points, Bezout gives {expected}"
    bound = mp.mpf(2) ** (-(prec // 2))
    with mp.workprec(EVAL_PREC):
        units = [_unit(p) for p in _mp_rows(points)]
        for terms in curves:
            norm = mp.sqrt(mp.fsum(mp.mpf(c) ** 2 for c in terms.values()))
            for u in units:
                val = mp.fsum(c * u[0] ** a * u[1] ** b * u[2] ** d for (a, b, d), c in terms.items())
                if abs(val) / norm >= bound:
                    return f"residual {mp.nstr(abs(val) / norm, 5)} not below 2^-{prec // 2}"
        for i in range(len(units)):
            for j in range(i):
                inner = mp.fsum(mp.conj(x) * y for x, y in zip(units[i], units[j]))
                sine = mp.sqrt(max(mp.mpf(0), 1 - abs(inner) ** 2))
                if sine < DISTINCT_TOL:
                    return f"points {j} and {i} coincide"
    return None


def _terms_of_json(poly):
    return {tuple(t["exp"]): int(t["coeff"]) for t in poly["terms"]}


def hessian_terms(terms):
    F = form_expr(terms)
    return poly_terms(sp.Matrix(3, 3, lambda i, j: sp.diff(F, X[i], X[j])).det())


# -- per operation ---------------------------------------------------------------


def _report_checks(G, U, R, rows_before):
    """Checks shared by every reduction: U, R = U^T G U, LLL, Tyler on P U^(-T)."""
    return {
        "unimodular": lambda: check_unimodular(U),
        "congruence": lambda: check_unimodular(U) or check_congruence(G, U, R),
        "lll": lambda: check_lll(R),
        "covariant": lambda: check_unimodular(U) or check_covariant(_transformed_rows(rows_before, U), R),
    }


def _cluster_reduction_checks(op, out):
    U = out["transform"]
    checks = _report_checks(out["covariant"], U, out["reduced_gram"], op["points"])

    def substitution():
        if check_unimodular(U):
            return "transform is not unimodular"
        Vt = [list(r) for r in zip(*int_inverse(U))]
        size = len(U)
        for p, q in zip(op["points"], out["reduced"]):
            for j in range(size):
                want = (
                    sum(int(p[a][0]) * Vt[a][j] for a in range(size)),
                    sum(int(p[a][1]) * Vt[a][j] for a in range(size)),
                )
                got = tuple(Fraction(v) for v in q[j])
                if got != want:
                    return f"reduced coordinate {q[j]} is not {want}"
        return None

    checks["substitution"] = substitution
    return checks


def _pencil_checks(op, out):
    U = out["transform"]
    q1 = _terms_of_json(op["pencil"]["q1"])
    q2 = _terms_of_json(op["pencil"]["q2"])
    base = out["base_points"]["points"]
    checks = _report_checks(out["covariant"]["matrix"], U, out["reduced_gram"]["matrix"], base)

    def substitution():
        W = out["pencil_transform"]
        if check_unimodular(U) or check_unimodular(W):
            return "transform or pencil transform is not unimodular"
        for i in range(2):
            member = {e: W[i][0] * q1.get(e, 0) + W[i][1] * q2.get(e, 0) for e in set(q1) | set(q2)}
            want = substitute({e: c for e, c in member.items() if c}, U)
            if _terms_of_json(out["reduced"][i]) != want:
                return f"reduced quadric {i} is not (W Q)(U x)"
        return None

    checks["substitution"] = substitution
    checks["points"] = lambda: check_points_on_curves(base, [q1, q2], out["diagnostics"]["precision"], 4)
    return checks


def _quartic_checks(op, out):
    U = out["transform"]
    F = _terms_of_json(op["form"])
    pts = out["inflection_cluster"]
    checks = _report_checks(out["covariant"], U, out["reduced_gram"], pts)

    def substitution():
        if check_unimodular(U):
            return "transform is not unimodular"
        got = {tuple(e): int(c) for e, c in out["reduced"]}
        return None if got == substitute(F, U) else "reduced form is not F(U x)"

    d = sum(next(iter(F)))
    checks["substitution"] = substitution
    checks["points"] = lambda: check_points_on_curves(
        pts, [F, hessian_terms(F)], out["precision"], 3 * d * (d - 2)
    )
    return checks


def _classify_checks(op, out):
    return {
        "classification": lambda: None
        if out == op["expected"]
        else f"program says {out}, planted {op['planted']} and oracle say {op['expected']}"
    }


CHECKS = {
    "reduce": _cluster_reduction_checks,
    "pencil": _pencil_checks,
    "quartic": _quartic_checks,
    "classify": _classify_checks,
}


def check(op, out):
    """[(check name, reason)] for every check the output fails."""
    if out is None:
        return [("ran", "the operation raised")]
    failures = []
    for name, fn in CHECKS[op["op"]](op, out).items():
        try:
            reason = fn()
        except (ArithmeticError, KeyError, TypeError, ValueError, IndexError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        if reason:
            failures.append((name, reason))
    return failures


def height(op, out):
    """Largest absolute coefficient (forms) or coordinate part (clusters)."""
    if op["op"] == "quartic":
        return max(abs(int(c)) for _, c in out["reduced"])
    if op["op"] == "pencil":
        return max(abs(int(t["coeff"])) for q in out["reduced"] for t in q["terms"])
    if op["op"] == "reduce":
        return int(max(abs(Fraction(v)) for p in out["reduced"] for c in p for v in c))
    return None


# -- self-test -------------------------------------------------------------------


def _flip_entry_of_U(op, out):
    U = out["transform"]
    for i in range(len(U)):
        for j in range(len(U)):
            U[i][j] += 1
            if int_det(U) not in (1, -1):
                return
            U[i][j] -= 1


def _gram(out):
    g = out["reduced_gram"]
    return g["matrix"] if isinstance(g, dict) else g


def _shear_reduced_gram(op, out):
    """Replace R by E^T R E with E adding 5 times b1 to b2: no longer size-reduced."""
    M = _fractions(_gram(out))
    E = [[int(i == j) + 5 * (i == 0 and j == 1) for j in range(len(M))] for i in range(len(M))]
    _gram(out)[:] = [[_dec(v) for v in row] for row in _congruence(M, E)]


def _dec(v):
    """A Fraction as a decimal string of 80 significant digits."""
    with decimal.localcontext(decimal.Context(prec=80)):
        return str(decimal.Decimal(v.numerator) / v.denominator)


def _perturb_covariant(op, out):
    R = _gram(out)
    R[0][1] = R[1][0] = _dec(Fraction(R[0][1]) * (1 + Fraction(1, 10**4)) + Fraction(1, 10**4) * Fraction(R[0][0]))


def _move_reduced(op, out):
    if op["op"] == "reduce":
        out["reduced"][0][0][0] = str(int(Fraction(out["reduced"][0][0][0])) + 1)
    elif op["op"] == "pencil":
        out["reduced"][0]["terms"][0]["coeff"] = str(int(out["reduced"][0]["terms"][0]["coeff"]) + 1)
    else:
        out["reduced"][0][1] = str(int(out["reduced"][0][1]) + 1)


def _points_of(op, out):
    return out["base_points"]["points"] if op["op"] == "pencil" else out["inflection_cluster"]


def _move_point(op, out):
    p = _points_of(op, out)[0]
    p[0][0] = _dec(Fraction(p[0][0]) + Fraction(1, 10**20) * (1 + abs(Fraction(p[0][0]))))


def _duplicate_point(op, out):
    pts = _points_of(op, out)
    pts[1] = copy.deepcopy(pts[0])


def _drop_point(op, out):
    _points_of(op, out).pop()


def _flip_class(op, out):
    out["is_stable"] = not out["is_stable"]


# corruption -> the check that must reject it, per operation kind
CORRUPTIONS = {
    "reduce": [
        ("unimodular", _flip_entry_of_U),
        ("congruence", _perturb_covariant),
        ("lll", _shear_reduced_gram),
        ("covariant", _perturb_covariant),
        ("substitution", _move_reduced),
    ],
    "classify": [("classification", _flip_class)],
}
CORRUPTIONS["pencil"] = CORRUPTIONS["reduce"] + [
    ("points", _move_point),
    ("points", _duplicate_point),
    ("points", _drop_point),
]
CORRUPTIONS["quartic"] = CORRUPTIONS["pencil"]


def self_test(op, out):
    """[(corruption, check, rejected)] for one correct output of an operation."""
    results = []
    for name, corrupt in CORRUPTIONS[op["op"]]:
        bad = copy.deepcopy(out)
        corrupt(op, bad)
        failed = {n for n, _ in check(op, bad)}
        results.append((corrupt.__name__.lstrip("_"), name, name in failed))
    return results
