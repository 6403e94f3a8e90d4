"""The cluster distance function and its minimizing Hermitian covariant.

For a scaled cluster with rows P_j and a positive definite Hermitian Q the
distance is

    D = sum_j log( conj(P_j) Q P_j^T ) - m/(n+1) * log det Q .

For a stable cluster D has a unique critical point on the determinant-1 slice;
that minimizer is the covariant z(Z) and exp(min D) is theta. With Q = S^H S
the curve lambda -> S^H exp(lambda B) S is a geodesic, along which D is convex
(Wiesel 2012). In this transported chart, with W_j = w_j w_j^H for the unit
images w_j = S P_j^T / |S P_j^T|, the gradient and the Hessian are

    G = sum_j W_j - m/(n+1) * I,   H[B] = sum_j ((W_j B + B W_j)/2 - tr(B W_j) W_j).

The minimizer is found by damped Riemannian Newton in mixed precision, as
iterative refinement: the residual in Python integers, the stop tests at the
working precision, the correction in hardware doubles. The residual is one
fixed-point kernel: the images, their norms (``math.isqrt``), the unit
images, D and G are Gaussian integers at a scale 2^-S that follows the
magnitudes of the Cholesky factor L of Q, so that they keep 20 bits beyond
the working precision however ill-conditioned Q is. Each iteration solves
H[B] = -G over a real basis of the trace-free Hermitian B in doubles, with G
scaled by a power of two, and steps along the geodesic by
Y = exp(lambda B/2) - I in doubles, applied as L <- L (I + Y) in the same
kernel, whose outer sum gives the new Q exactly at 2^-2S, factored again at
the working precision. D and G do not depend on the scale of Q, and the
steps are trace-free, so only the last iterate is scaled to determinant 1,
through its Cholesky diagonal (log det Q = 2 sum_i log L_ii). The step
length halves from 1
until the change of D, evaluated in doubles, meets Armijo's 1/4 by more than
its rounding, or until lambda |B|_F <= 1/10, which proves that decrease
without an evaluation. It stops once the Frobenius norm of G is at most the
tolerance, by default 2^(-3 prec/4), or at most 2^(1-prec) kappa(Q), below
which the rounding of Q decides it, provided its square is at most
2^(-prec/2); a gradient stuck above that, or above the tolerance after
NEWTON_ITERATIONS iterations, raises ConvergenceError. The start is the
closed form (sum_j g_j g_j^H)^-1 over n+2 points in general position scaled
by simplex weights, which is exact: a second fixed-point kernel inverts the
first n+1 points by Gauss-Jordan elimination in Gaussian integers at a
scale widened by the magnitudes of its pivots, and forms the inverse of the
sum exactly there as an outer sum. Otherwise the start is the covariant in
hardware doubles, in the same chart and in Python's built-in complex, which
the preconditioning passes of the ternary pipeline run too: Tyler's
fixed-point iteration until the gradient is small, then Newton steps in
doubles, or the last iterate where it does not settle; the identity where
either start fails or is not positive definite and finite. Newton then only
refines it, gaining 45 to 50 bits per iteration. Every Hermitian form is
kept as rows, and every Cholesky factor, of an iterate at the working
precision or of a matrix in doubles, comes from the one
:func:`hermitian_cholesky`, which gives the determinants and the inverses
too, but for the fixed-point L^-1 of :func:`_resolution`.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import mpmath as mp

from ._precision import (
    _fixed,
    _from_fixed,
    check_hermitian,
    half_eps,
    hermitian_cholesky,
    short_of_precision,
    to_mpc,
    working_precision,
)
from .cluster_core import (
    PointCluster,
    ScaledCluster,
    _exact_rows,
    _independent,
    _is_polystable,
    _join,
    classify,
)
from .errors import (
    ConvergenceError,
    DegeneratePositionError,
    DimensionError,
    NotPositiveDefiniteError,
    StabilityError,
)

NEWTON_ITERATIONS = 1000  # the solver's budget, read at each call
# theta's stop on semi-stable clusters that are not stable, where the gradient
# falls only sublinearly: 2^(-3 prec/4) lies beyond NEWTON_ITERATIONS there
SEMI_STABLE_TOL = 1e-12


@dataclass(frozen=True)
class HermitianForm:
    """Positive definite Hermitian matrix, which matters only up to positive
    real scaling: D does not depend on the scale. The stored representative
    need not have determinant 1, and ``==`` compares it entry by entry; use
    :meth:`normalized` for the determinant-1 representative.
    """

    matrix: tuple

    def __post_init__(self):
        rows = tuple(tuple(to_mpc(v) for v in r) for r in self.matrix)
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise DimensionError("Hermitian form matrix must be square")
        object.__setattr__(self, "matrix", rows)

    @classmethod
    def from_matrix(cls, M) -> "HermitianForm":
        return cls(M.tolist())

    @property
    def n(self) -> int:
        return len(self.matrix) - 1

    def mat(self):
        return mp.matrix(self.matrix)

    def check(self):
        """Validate Hermitian symmetry and positive definiteness."""
        check_hermitian(self.matrix, NotPositiveDefiniteError("matrix is not Hermitian"))
        hermitian_cholesky(self.matrix)
        return self

    def det(self):
        """The determinant, from the Cholesky diagonal of the lower triangle.
        Raises NotPositiveDefiniteError unless the form is positive definite:
        an indefinite matrix of positive determinant is no form."""
        return mp.exp(_log_det(hermitian_cholesky(self.matrix)))

    def normalized(self) -> "HermitianForm":
        """Determinant-1 representative (divide by det^(1/(n+1))); raises
        NotPositiveDefiniteError unless the form is positive definite."""
        root = mp.root(self.det(), self.n + 1)
        return HermitianForm([[v / root for v in r] for r in self.matrix])

    def __repr__(self):
        return f"HermitianForm(n={self.n})"


@dataclass(frozen=True)
class TangentDirection:
    """Trace-free Hermitian matrix: a tangent vector at the identity."""

    matrix: tuple

    def __post_init__(self):
        rows = tuple(tuple(to_mpc(v) for v in r) for r in self.matrix)
        object.__setattr__(self, "matrix", rows)

    def mat(self):
        return mp.matrix(self.matrix)

    def check(self):
        bound = check_hermitian(self.matrix, ValueError("tangent direction is not Hermitian"))
        if abs(sum(r[i] for i, r in enumerate(self.matrix))) > bound * len(self.matrix):
            raise ValueError("tangent direction has nonzero trace")
        return self

    def norm(self):
        return _frobenius_norm(self.matrix)


@dataclass(frozen=True)
class CovariantResult:
    z: HermitianForm
    theta: object
    iterations: int
    final_gradient_norm: object
    stop: Optional[str]  # what stopped Newton: "tol", "resolution", or None if it failed
    transcript: tuple  # (iteration, D, step) per iterate, step the NewtonStep that reached it


@dataclass(frozen=True)
class NewtonStep:
    """One accepted step of the covariant's Newton loop: the length ``lam``
    along the direction B, the slope <G, B> of D there, lam |B|_F, and what
    certified that D fell by at least lam * slope / 4: "armijo" (its change
    evaluated in doubles) or "length" (the bound lam |B|_F <= 1/10)."""

    lam: object
    slope: object
    length: object
    certified_by: str


@dataclass(frozen=True)
class DivergenceWitness:
    """One-parameter family Q_lambda pushing D to -infinity (or to its infimum).

    ``basis`` holds an orthonormal basis of C^(n+1) whose first ``subspace_dim``
    columns span the offending subspace, the span of the independent cluster
    ``points``, where ``cluster_core._join`` decides which points lie; Q_lambda
    has eigenvalue lambda^-(n-k) there and lambda^(k+1) on the complement, so
    det Q_lambda = 1.
    """

    basis: tuple
    points: tuple

    @property
    def subspace_dim(self) -> int:  # linear dimension k+1
        return len(self.points)

    def _eigenvalues(self, lam):
        n1 = len(self.basis)
        k1 = self.subspace_dim
        return [lam ** (-(n1 - k1))] * k1 + [lam**k1] * (n1 - k1)

    def distance_at(self, zc: ScaledCluster, lam):
        """D(zc, Q_lambda), evaluated in the eigenbasis so arbitrarily large
        lambda works; det Q_lambda = 1 by construction.

        A row that ``cluster_core._join`` finds on the exact span of
        ``points``, at the precision of the call, keeps only its components
        on the subspace, so that no rounding noise leaks into the complement,
        where lambda^(k+1) would amplify it without bound; other rows keep all.
        """
        B = self.basis
        evals = self._eigenvalues(mp.mpf(lam))
        _, span = _independent(_exact_rows(self.points))
        total = mp.mpf(0)
        for row, exact in zip(zc.reps, _exact_rows(zc.cluster().points)):
            size = self.subspace_dim if _join(span, exact) is None else len(B)
            w2 = [abs(sum(mp.conj(b[i]) * c for b, c in zip(B, row))) ** 2 for i in range(size)]
            total += mp.log(mp.fsum(e * w for e, w in zip(evals, w2)))
        return total


@dataclass(frozen=True)
class ThetaResult:
    value: object
    attained: bool
    stability: object
    witness: Optional[DivergenceWitness] = None


def _log_det(L):
    """log det Q for Q = L L^H, from the rows of its Cholesky factor L."""
    return 2 * mp.fsum(mp.log(row[i]) for i, row in enumerate(L))


def _factor_bits(L):
    """The scale 2^-S at which the fixed-point kernel holds the factor L and
    the unit rows it meets, S = prec + 20 + c: the truncation of L and of a
    unit row P to 2^-S then moves L^H P by less than 2^-(prec+20) |L^H P|,
    however ill-conditioned L is, so the kernel keeps 20 guard bits. A fixed
    S would lose the small entries of an ill-conditioned factor.

    c follows the magnitudes (mpmath's ``mag``) of L: hi of its largest
    entry, lo of its smallest diagonal entry, which is real. The truncation
    moves L^H P by under sqrt(2) 2^-S (n1 + sqrt(n1) |L|), and
    |L^H P| >= 1 / |L^-1|. With L = diag (I + N) for N strictly lower,
    |N| < sqrt(n1 (n1-1) / 2) 2^(hi-lo+1) =: nu and
    |L^-1| <= n1 max(1, nu)^(n1-1) 2^(1-lo), so for n1 of bit length b
    c = max(hi, 0) - lo + 2b + 3 + (n1 - 1) max(0, hi - lo + b)."""
    n1 = len(L)
    b = n1.bit_length()
    hi = max(mp.mag(v) for i, row in enumerate(L) for v in row[: i + 1] if v)
    lo = min(mp.mag(row[i]) for i, row in enumerate(L))
    return mp.mp.prec + 20 + max(hi, 0) - lo + 2 * b + 3 + (n1 - 1) * max(0, hi - lo + b)


def _fixed_factor(L, S):
    """The lower triangle of L as Gaussian integers at scale 2^-S; 0 above."""
    return [[_fixed(v, S) for v in row[: i + 1]] + [(0, 0)] * (len(L) - i - 1) for i, row in enumerate(L)]


def _images(L, reps):
    """(ws, S, D, Lf): the unit images w_j = L^H P_j / |L^H P_j| as rows of
    Gaussian integers (x, y) at scale 2^-S, S from :func:`_factor_bits`, D
    at Q = L L^H for the rows of the Cholesky factor L, and L at 2^-S (Lf).

    L and the unit rows P_j are truncated to 2^-S, so each L^H P_j is exact at
    2^-2S and |L^H P_j|^2 at 2^-4S; its norm is ``math.isqrt`` of that, and
    the unit image one floor division per entry, within 2^-S. Since
    det Q = (prod_i L_ii)^2, n1 D is one logarithm, taken 20 bits above the
    working precision, of (prod_j |L^H P_j|^2)^n1 / (prod_i L_ii)^(2m)."""
    n1, m = len(L), len(reps)
    S = _factor_bits(L)
    Lf = _fixed_factor(L, S)
    cols = list(zip(*Lf))
    ws, prod = [], 1
    for row in reps:
        P = [_fixed(c, S) for c in row]
        u = []
        for k, col in enumerate(cols):  # L is lower triangular: L_ak = 0 for a < k
            re = im = 0
            for (x, y), (a, b) in zip(P[k:], col[k:]):
                re += x * a + y * b
                im += y * a - x * b
            u.append((re, im))
        nrm2 = sum(x * x + y * y for x, y in u)
        nrm = math.isqrt(nrm2)
        ws.append([((x << S) // nrm, (y << S) // nrm) for x, y in u])
        prod *= nrm2
    with mp.extraprec(20):
        D = mp.log(mp.mpf((prod, -4 * S * m)) ** n1 / mp.fprod(row[i] for i, row in enumerate(L)) ** (2 * m)) / n1
    return ws, S, +D, Lf


def _outer_sum(rows):
    """sum_j r_j r_j^H for rows of Gaussian integers (x, y) at scale 2^-S, as
    rows of Gaussian integers at 2^-2S: exact, and Hermitian by
    construction."""
    cols = list(zip(*rows))
    M = [[None] * len(cols) for _ in cols]
    for a, ca in enumerate(cols):
        M[a][a] = (sum(x * x + y * y for x, y in ca), 0)
        for b in range(a + 1, len(cols)):
            re = im = 0
            for (x, y), (u, v) in zip(ca, cols[b]):
                re += x * u + y * v
                im += y * u - x * v
            M[a][b], M[b][a] = (re, im), (re, -im)
    return M


def _from_fixed_rows(M, S):
    return [[_from_fixed(x, y, S) for x, y in r] for r in M]


def _frobenius_norm(rows):
    return mp.sqrt(mp.fsum((v for r in rows for v in r), absolute=True, squared=True))


def _gradient(ws, S, n1):
    """G = sum_j w_j w_j^H - m/(n+1) I for the unit images at 2^-S, as rows
    of Gaussian integers at 2^-2S, and its Frobenius norm as an mpf: returns
    (G, norm)."""
    G = _outer_sum(ws)
    diag = (len(ws) << (2 * S)) // n1
    for a in range(n1):
        G[a][a] = (G[a][a][0] - diag, 0)
    return G, mp.mpf((math.isqrt(sum(x * x + y * y for row in G for x, y in row)), -2 * S))


def _form_factor(Q, n1):
    """The Cholesky factor of a caller's form Q, given as a HermitianForm or
    rows. Raises DimensionError unless Q is n1 x n1 and
    NotPositiveDefiniteError unless it is Hermitian (the factorization reads
    only the lower triangle) and positive definite."""
    rows = (Q if isinstance(Q, HermitianForm) else HermitianForm(Q)).matrix
    if len(rows) != n1:
        raise DimensionError("form size does not match cluster dimension")
    check_hermitian(rows, NotPositiveDefiniteError("matrix is not Hermitian"))
    return hermitian_cholesky(rows)


def eval_D(zc: ScaledCluster, Q: HermitianForm):
    """Distance of a scaled cluster from a positive definite Hermitian form.

    Invariant under positive scaling of Q; rescaling one row by lambda adds
    log |lambda|^2.
    """
    return _images(_form_factor(Q, zc.n + 1), zc.reps)[2]


def grad_D(zc: ScaledCluster, Q: HermitianForm) -> TangentDirection:
    """Riesz representative of the derivative of D in the transported chart.

    With Q = S^H S (S from the Cholesky factorization) the directional
    derivative of D along lambda -> S^H exp(lambda B) S equals the Frobenius
    pairing of the returned matrix with B, for every trace-free Hermitian B.
    """
    ws, S, _, _ = _images(_form_factor(Q, zc.n + 1), zc.reps)
    G, _ = _gradient(ws, S, zc.n + 1)
    return TangentDirection(_from_fixed_rows(G, 2 * S))


def _trace_free_basis(n1):
    """A real basis of the trace-free Hermitian matrices, each as (row, col, entry) triples."""
    basis = [((a, a, 1), (n1 - 1, n1 - 1, -1)) for a in range(n1 - 1)]
    for a in range(n1):
        for b in range(a + 1, n1):
            basis.append(((a, b, 1), (b, a, 1)))
            basis.append(((a, b, 1j), (b, a, -1j)))
    return basis


def _newton_direction(wd, G, T, basis):
    """The Newton direction in hardware doubles: (B, e, slope, norm, fallback)
    for the direction 2^e B solving H[B] = -G, whose slope <G, 2^e B> is
    2^(2e) ``slope`` and whose Frobenius norm is 2^e ``norm``, for G as rows
    of Gaussian integers at 2^-T.

    G is divided by the power of two 2^e of its largest entry before it is
    rounded (the equation is linear in G), so that a gradient far below the
    range of doubles keeps its digits. In the basis E_k, H_kl = Re tr(E_k E_l M)
    - sum_j t_jk t_jl with M = G + m/(n+1) I and t_jk = tr(E_k W_j) over the
    rounded unit images, and g_k = tr(E_k G) from G's entries: sum_j t_jk, the
    same number, cancels to 2^-53 m in doubles. B = -G (``fallback``) where the
    Cholesky factorization of H fails or B is not a finite descent direction.
    """
    n1, m = len(G), len(wd)
    e = max(max(abs(x), abs(y)).bit_length() for row in G for x, y in row) - T
    unit, one = 1 << (T + e), 1 << T
    Gd = [[complex(x / unit, y / unit) for x, y in row] for row in G]
    M = [[complex(x / one, y / one) + (m / n1 if a == b else 0) for b, (x, y) in enumerate(row)]
         for a, row in enumerate(G)]
    # each E_k has two entries (a, b, c): t_jk = Re(c w_b conj(w_a) + c2 w_b2 conj(w_a2))
    wc = [[v.conjugate() for v in w] for w in wd]
    t = [[(c * w[b] * v[a] + c2 * w[b2] * v[a2]).real for w, v in zip(wd, wc)] for (a, b, c), (a2, b2, c2) in basis]
    g = [sum(c * Gd[b][a] for a, b, c in E).real for E in basis]
    d = len(basis)
    H = [[0.0] * d for _ in range(d)]
    for k, Ek in enumerate(basis):
        for l in range(k, d):
            H[k][l] = H[l][k] = sum(
                c * c2 * M[f][a] for a, b, c in Ek for b2, f, c2 in basis[l] if b2 == b
            ).real - sum(map(operator.mul, t[k], t[l]))
    try:
        C = hermitian_cholesky(H)
        y = []
        for k in range(d):
            y.append((-g[k] - sum(C[k][l] * y[l] for l in range(k))) / C[k][k])
        x = [0.0] * d
        for k in reversed(range(d)):
            x[k] = ((y[k] - sum(C[l][k].conjugate() * x[l] for l in range(k + 1, d))) / C[k][k]).real
        slope = sum(gk * xk for gk, xk in zip(g, x))
        B = [[0j] * n1 for _ in range(n1)]
        for xk, Ek in zip(x, basis):
            for a, b, c in Ek:
                B[a][b] += xk * c
        norm = math.sqrt(sum(abs(v) ** 2 for row in B for v in row))
    except (ArithmeticError, NotPositiveDefiniteError):
        slope = norm = math.nan
    if not (slope < 0 and math.isfinite(slope) and math.isfinite(norm)):
        gnorm2 = sum(abs(v) ** 2 for row in Gd for v in row)
        return [[-v for v in row] for row in Gd], e, -gnorm2, math.sqrt(gnorm2), True
    return B, e, slope, norm, False


def _matmul_in_doubles(A, B):
    n = len(A)
    return [[sum(A[a][k] * B[k][b] for k in range(n)) for b in range(n)] for a in range(n)]


def _expm1_in_doubles(B, p):
    """(Y, f) with 2^f Y = exp(2^p B) - I in built-in complex, for Hermitian B.

    Where |2^p B|_F <= 1/20 it is the Taylor series sum_k 2^(p(k-1)) B^k / k!
    with f = p, which keeps the digits of a step far below the range of
    doubles; above that the series on 2^(p-s) B, squared s times as
    Y <- 2Y + Y^2, with f = 0.
    """
    size = math.ldexp(math.sqrt(sum(abs(v) ** 2 for row in B for v in row)), p)
    s = 0 if size <= 1 / 20 else math.ceil(math.log2(20 * size))
    if s:
        B, p = [[v * math.ldexp(1.0, p - s) for v in row] for row in B], 0
    ratio = math.ldexp(1.0, p)
    Y = term = B
    for k in range(2, 30):
        term = [[v * ratio / k for v in row] for row in _matmul_in_doubles(term, B)]
        if max(abs(v) for row in term for v in row) <= 2.0**-60 * max(abs(v) for row in Y for v in row):
            break
        Y = [[u + v for u, v in zip(r, q)] for r, q in zip(Y, term)]
    for _ in range(s):
        Y = [[2 * u + v for u, v in zip(r, q)] for r, q in zip(Y, _matmul_in_doubles(Y, Y))]
    return Y, p


def _change_in_doubles(wd, Y):
    """The change of D from Q = L L^H to L (I+Y) (I+Y)^H L^H, in doubles:
    sum_j log |(I+Y) w_j|^2 - 2m/(n+1) log det(I+Y) over the rounded unit
    images w_j. log det(I+Y) is twice the sum of the
    logs of its Cholesky diagonal, which raises NotPositiveDefiniteError
    where I + Y is not positive definite in doubles."""
    n1, m = len(Y), len(wd)
    K = hermitian_cholesky([[Y[a][b] + (a == b) for b in range(n1)] for a in range(n1)])
    total = -4 * m / n1 * sum(math.log(K[a][a]) for a in range(n1))
    for w in wd:
        v = [w[a] + sum(Y[a][b] * w[b] for b in range(n1)) for a in range(n1)]
        total += math.log(sum(abs(c) ** 2 for c in v) / sum(abs(c) ** 2 for c in w))
    return total


def _simplex_form(units):
    """n+2 times the closed-form covariant of n+2 unit points u_0, ...,
    u_(n+1) in general position, as mpc rows: conj(Y) ((n+2) I - J) Y^T for
    Y = V^-1 diag(1/c), V the rows u_0, ..., u_n and c = u_(n+1) V^-1. Over
    the rows g_i = c_i u_i and g_(n+1) = u_(n+1) this is (n+2) times
    (sum_j g_j g_j^H)^-1, since the sum is V^T diag(c) (I + J) diag(conj c)
    conj(V) and (I + J)^-1 = I - J/(n+2).

    It runs on Gaussian integers at scale 2^-T: V^-1 by Gauss-Jordan
    elimination with partial pivoting, c exact at 2^-2T, Y by one division
    per entry, and the form exact at 2^-2T as the outer sum over the columns
    y_i of Y and their differences y_i - y_k, i < k, which is
    (n+2) sum_i y_i y_i^H - s s^H for s = sum_i y_i: positive definite by
    construction. A pivot or a c_i of modulus below 2^(-prec/2) raises
    DegeneratePositionError.

    T = prec + 20 + 2b + 3 + w, with the guard bits of :func:`_factor_bits`.
    The truncation moves V by about 2^-T. V has unit rows, so its cofactors
    are at most 1 (Hadamard) and |V^-1| <= 1/|det V| <= 2^(n1 - sum_k mag p_k)
    over the pivots p_k; each column of Y then moves, relative to itself, by
    about 2^-T |V^-1| max|c| / min|c|, hence w = n1 - sum_k mag p_k +
    mag max|c| - mag min|c|. w is read off an elimination with 32 bits to
    spare, which is repeated, again with 32 to spare, only where w exceeds
    them."""
    n1, prec = len(units) - 1, mp.mp.prec
    base = prec + 20 + 2 * n1.bit_length() + 3
    T = base + 32
    while True:
        one = 1 << T
        pts = [[_fixed(c, T) for c in u] for u in units]
        A = [row + [(one if a == i else 0, 0) for a in range(n1)] for i, row in enumerate(pts[:n1])]
        w = n1
        for k in range(n1):
            r = max(range(k, n1), key=lambda i: A[i][k][0] ** 2 + A[i][k][1] ** 2)
            A[k], A[r] = A[r], A[k]
            px, py = A[k][k]
            p2 = px * px + py * py
            if p2 < 1 << (2 * T - 2 * (prec // 2)):
                raise DegeneratePositionError("the first n+1 points are linearly dependent")
            w -= (p2.bit_length() + 1) // 2 - T
            # columns before k are 0 in every row but their own pivot's
            piv = A[k][k:] = [(((x * px + y * py) << T) // p2, ((y * px - x * py) << T) // p2)
                              for x, y in A[k][k:]]
            for row in A[:k] + A[k + 1 :]:
                a, b = row[k]
                row[k:] = [(x - ((a * u - b * v) >> T), y - ((a * v + b * u) >> T))
                           for (x, y), (u, v) in zip(row[k:], piv)]
        cols = list(zip(*(row[n1:] for row in A)))  # of V^-1
        c = [(sum(x * u - y * v for (x, y), (u, v) in zip(pts[n1], col)),
              sum(x * v + y * u for (x, y), (u, v) in zip(pts[n1], col))) for col in cols]
        c2 = [x * x + y * y for x, y in c]
        if min(c2) < 1 << (4 * T - 2 * (prec // 2)):
            raise DegeneratePositionError("the last point lies in a coordinate subspace of the others")
        mags = [(v.bit_length() + 1) // 2 - 2 * T for v in c2]
        w += max(mags) - min(mags)
        if base + w <= T:
            break
        T = base + w + 32
    # the rows conj(y_i): their outer sum has entries sum_i conj(Y_ai) Y_bi
    rows = [[(((x * cx + y * cy) << (2 * T)) // d, -(((y * cx - x * cy) << (2 * T)) // d)) for x, y in col]
            for (cx, cy), d, col in zip(c, c2, cols)]
    rows += [[(x - u, y - v) for (x, y), (u, v) in zip(a, b)] for a, b in itertools.combinations(rows, 2)]
    return _from_fixed_rows(_outer_sum(rows), 2 * T)


def _start(cluster: PointCluster, reps):
    """The rows of the solver's starting form: for n+2 points in general
    position the closed form of :func:`_simplex_form` over the unit rows
    ``reps``, which is the covariant, and otherwise the covariant in doubles
    of :func:`_tyler_in_doubles` over them (Tyler's sweeps, finished by
    Newton steps in doubles), or the identity where that fails. :func:`_newton`
    starts from the identity too where this start is not positive definite."""
    n1 = cluster.n + 1
    if cluster.degree == n1 + 1:
        with contextlib.suppress(DegeneratePositionError):
            return _simplex_form(reps)
    try:
        tyler = _tyler_in_doubles([[complex(c) for c in r] for r in reps])
    except (ArithmeticError, NotPositiveDefiniteError):
        return [[mp.mpf(a == b) for b in range(n1)] for a in range(n1)]
    return [[mp.mpc(v) for v in r] for r in tyler]


def _lower_inverse(K):
    """Inverse of a nonsingular lower triangular matrix by substitution, in
    the arithmetic of its entries (built-in or mpmath); reads K[i][k], k <= i."""
    n = len(K)
    X = [[0] * n for _ in range(n)]
    for i in range(n):
        X[i][i] = 1 / K[i][i]
        for j in range(i):
            X[i][j] = -sum(K[i][k] * X[k][j] for k in range(j, i)) / K[i][i]
    return X


def _resolution(Lf, S):
    """2^(1-prec) * kappa(Q) for Q = L L^H, with kappa(Q) bounded by
    tr(Q) tr(Q^-1) = (|L|_F |L^-1|_F)^2: the gradient norm below which the
    rounding of Q itself decides G, since L is the exact factor only of a
    form within 2^(-prec) |Q| of Q. L^-1 comes by substitution in the
    integers ``Lf`` of L at 2^-S, each entry truncated to 2^-S."""
    X = [[(0, 0)] * len(Lf) for _ in Lf]
    for i, row in enumerate(Lf):
        d = row[i][0]  # the real diagonal entry
        X[i][i] = ((1 << (2 * S)) // d, 0)
        for j in range(i):
            re = im = 0
            for (a, b), (x, y) in zip(row[j:i], (r[j] for r in X[j:i])):
                re += a * x - b * y
                im += a * y + b * x
            X[i][j] = (-re // d, -im // d)
    norm2 = [sum(x * x + y * y for r in M for x, y in r) for M in (Lf, X)]
    return mp.mpf((norm2[0] * norm2[1], 1 - mp.mp.prec - 4 * S))


def _newton(reps, n1, tol, initial):
    """Damped Riemannian Newton loop from the rows ``initial``, or from the
    identity where their factorization fails; returns the
    :class:`CovariantResult` at the last iterate and ``failure``, None once
    the loop has converged and otherwise why it stopped. The result's
    transcript lists (iteration, D, step) per iterate, ``step`` the
    :class:`NewtonStep` that reached it (None at the start).

    Each iteration is a step of
    iterative refinement: the residual in the fixed-point kernel of
    :func:`_images` and :func:`_gradient`, the stop tests at the working
    precision, the correction in hardware doubles. The loop has converged
    once the gradient norm is at most ``tol`` (stop "tol"), or once it is at
    most the resolution of Q = L L^H at the working precision
    (:func:`_resolution`), below which no step can lower it, and its square
    is at most 2^(-prec/2) (stop "resolution"): one more Newton step would
    then move Q by about that square, inside LLL's tie window. A gradient at
    the resolution but above 2^(-prec/4) is a shortfall of the working
    precision, and a failure, as is a gradient above ``tol`` after
    NEWTON_ITERATIONS iterations. Otherwise the Newton direction B comes from
    :func:`_newton_direction`, good to about 50 bits, so that each iteration
    gains 45 to 50 bits; Y = exp(lambda B/2) - I in doubles is applied in
    the kernel's integers as L <- L (I + Y), and L L^H, exact there, is
    factored again at the working precision. D, G and the resolution do not
    depend on the scale of Q, which the trace-free steps keep to about
    2^-50 each, so only the last iterate is scaled to determinant 1, through
    its Cholesky diagonal.

    The step length lambda halves from 1 until one of two tests holds; a
    value that overflows or is not finite in doubles rejects that lambda.

    - "armijo": the change of D, evaluated in doubles by
      :func:`_change_in_doubles`, plus its rounding bound
      2^-44 m (n+1) exp(2 lambda |B|_F), is at most lambda slope/4, where
      slope = <G, B>.
    - "length": lambda |B|_F <= 1/10, and lambda <= 1/m for the fallback
      B = -G. Then D falls by at least lambda slope/4 with no evaluation.
      Along the geodesic f(lambda) = D(L e^(lambda B) L^H) - D(L L^H) is
      sum_j K_j(lambda), where K_j(lambda) = log w_j^H e^(lambda B) w_j is the
      cumulant generating function of the eigenvalues b_i of B under the
      weights |v_i^H w_j|^2. Its third derivative is a third central moment,
      so |K_j'''| <= (b_max - b_min) K_j'' <= 2 |B| K_j''. Hence
      f''(lambda) <= f''(0) e^(2 lambda |B|) and
      f(lambda) <= lambda slope + (lambda^2/2) f''(0) e^(2 lambda |B|).
      For the Newton direction f''(0) = <B, H[B]> = -slope, so
      f(lambda) <= lambda slope (1 - (lambda/2) e^(2 lambda |B|)), at most
      0.39 lambda slope for lambda <= 1; the margin to 1/4 leaves room for
      <B, H[B]> up to 20% above -slope, where B is rounded in doubles. For
      B = -G, f''(0) = sum_j Var_j(B) <= m |G|^2 = -m slope, and lambda <= 1/m
      gives the same bound.
    """
    try:
        Q, L = initial, hermitian_cholesky(initial)
    except NotPositiveDefiniteError:
        Q = L = [[mp.mpf(a == b) for b in range(n1)] for a in range(n1)]  # its own Cholesky factor
    basis = _trace_free_basis(n1)
    m, max_iter = len(reps), NEWTON_ITERATIONS
    transcript, step, stop, failure = [], None, None, None
    for it in range(max_iter + 1):
        ws, S, D, Lf = _images(L, reps)
        G, gnorm = _gradient(ws, S, n1)
        transcript.append((it, D, step))
        if gnorm <= tol:
            stop = "tol"
            break
        if gnorm <= _resolution(Lf, S):
            if gnorm**2 <= half_eps():
                stop = "resolution"
            else:
                failure = f"gradient norm {mp.nstr(gnorm, 8)} at iteration {it} is at the resolution"
                failure += " of the iterate, above 2^(-prec/4)"
            break
        if it == max_iter:
            failure = f"gradient norm {mp.nstr(gnorm, 8)} above tolerance after {it} iterations"
            break
        one = 1 << S
        wd = [[complex(x / one, y / one) for x, y in w] for w in ws]
        B, e, slope, norm, fallback = _newton_direction(wd, G, 2 * S, basis)
        for h in itertools.count():
            length = math.ldexp(norm, e - h)  # lambda |B|_F at lambda = 2^-h
            if length <= 0.1:
                if not fallback or 2**h >= m:
                    certified_by = "length"
                    break
                continue
            try:
                Y = _expm1_in_doubles(B, e - h - 1)[0]  # unscaled: |lambda B/2|_F > 1/20
                change = _change_in_doubles(wd, Y) + 2.0**-44 * m * n1 * math.exp(2 * length)
            except (ArithmeticError, ValueError, NotPositiveDefiniteError):
                continue
            if change <= math.ldexp(slope, 2 * e - h) / 4:
                certified_by = "armijo"
                break
        Y, f = _expm1_in_doubles(B, e - h - 1)
        # Q1 = L (I+Y) (I+Y)^H L^H, exact at 2^-2S over the columns of
        # L (I+Y), each entry L_ak + sum_c L_ac Y_ck truncated to 2^-S
        Yf = [[_fixed(y, S + f) for y in row] for row in Y]
        cols = []
        for k in range(n1):
            col = []
            for a, row in enumerate(Lf):
                re = im = 0
                for (x, y), (u, v) in zip(row[: a + 1], (r[k] for r in Yf)):
                    re += x * u - y * v
                    im += x * v + y * u
                col.append((row[k][0] + (re >> S), row[k][1] + (im >> S)))
            cols.append(col)
        Q1 = _from_fixed_rows(_outer_sum(cols), 2 * S)
        try:
            L = hermitian_cholesky(Q1)
        except NotPositiveDefiniteError:
            failure = f"the Newton step left the positive definite cone at iteration {it}"
            break
        Q = Q1
        step = NewtonStep(mp.ldexp(1, -h), mp.ldexp(slope, 2 * e), mp.ldexp(norm, e - h), certified_by)
    scale = mp.exp(-_log_det(L) / n1)
    z = HermitianForm([[v * scale for v in row] for row in Q])
    return CovariantResult(z, mp.e**D, it, gnorm, stop, tuple(transcript)), failure


def minimize(cluster: PointCluster, tol=None, prec=None, check_stability=True) -> CovariantResult:
    """Minimize D over determinant-1 Hermitian forms; returns the covariant.

    The input must be stable unless ``check_stability`` is disabled; one
    that is not then needs ``tol=SEMI_STABLE_TOL``, as :func:`theta` passes,
    to stop. The solver starts from :func:`_start`: the closed form for n+2
    points in general position, else the covariant in doubles (Tyler's
    sweeps finished by Newton steps), else the identity; the minimizer does
    not depend on it, only the number of iterations does. It is Newton with the
    gradient and the stop tests at the working precision and each correction
    in doubles (:func:`_newton`), and theta is reported for the unit-norm
    scaling of the cluster. It stops once the gradient norm is at most
    ``tol``, by default 2^(-3 prec/4), well inside LLL's 2^(-prec/2) tie
    window; ``stop`` names the criterion that ended Newton, and the
    transcript keeps, per iteration, D and the :class:`NewtonStep` that
    reached it. A gradient that the working precision cannot bring inside
    the tie window, or that is above ``tol`` after NEWTON_ITERATIONS
    iterations, raises ConvergenceError.
    """
    with working_precision(prec):
        if check_stability:
            cls = classify(cluster)
            if not cls.is_stable:
                message = "cluster is not stable; the distance function has no minimizer"
                raise StabilityError(message, classification=cls, witness=cls.witness)
        tol = half_eps() ** 1.5 if tol is None else mp.mpf(tol)
        reps = tuple(p.unit() for p in cluster.points)
        result, failure = _newton(reps, cluster.n + 1, tol, _start(cluster, reps))
        if failure is not None:
            raise short_of_precision(failure, best=result)
        return result


def _witness_from_subspace(witness_points):
    """The witness family of the span of ``witness_points``: a greedy basis
    of them, and the unitary Q of the QR factorization of its units, an
    orthonormal basis of C^(n+1) whose leading columns span the witness."""
    kept = tuple(witness_points[i] for i in _independent(_exact_rows(witness_points))[0])
    Q = mp.qr(mp.matrix([p.unit() for p in kept]).T)[0]
    return DivergenceWitness(basis=tuple(map(tuple, Q.tolist())), points=kept)


def theta(zc: ScaledCluster, prec=None) -> ThetaResult:
    """Infimum of exp(D) for the given scaling, with degenerate cases flagged.

    D is evaluated for that scaling at the covariant of :func:`minimize`.
    Stable input: the attained minimum, or ConvergenceError naming the
    working precision where Newton fails. Semi-stable but not stable: the
    infimum, estimated at minimize's last iterate, which stops at
    SEMI_STABLE_TOL, and by the witness family, and attained exactly when the
    cluster is polystable.
    Unstable: value 0 together with a witness family along which D diverges
    to -infinity.
    """
    with working_precision(prec):
        cluster = zc.cluster()
        cls = classify(cluster)
        witness = None if cls.is_stable else _witness_from_subspace(cls.witness.spanning_points)
        if not cls.is_semi_stable:
            return ThetaResult(value=mp.mpf(0), attained=False, stability=cls, witness=witness)
        tol = None if cls.is_stable else SEMI_STABLE_TOL
        try:
            result, failure = minimize(cluster, tol, check_stability=False), None
        except ConvergenceError as exc:
            result, failure = exc.best, exc
        value = mp.e ** eval_D(zc, result.z)
        if cls.is_stable:
            if failure is not None:
                failure.best = ThetaResult(value=value, attained=False, stability=cls)
                raise failure
            return ThetaResult(value=value, attained=True, stability=cls)
        # semi-stable, not stable: Newton may run out of iterations on its
        # way to an infimum at infinity, so its failure is no error here.
        # The infimum is attained iff the cluster is polystable, a direct
        # sum of clusters each stable in its own span; either way the witness
        # family decreases to it (D is convex and bounded along that geodesic)
        attained = cls.is_split and _is_polystable(cluster)
        value = min(value, mp.e ** witness.distance_at(zc, mp.e ** mp.mpf(4 * mp.mp.prec)))
        return ThetaResult(value=value, attained=attained, stability=cls, witness=witness)


def simplex_covariant(cluster: PointCluster, prec=None) -> HermitianForm:
    """Closed-form covariant of n+2 points in general position.

    Scale the first n+1 unit points u_i by the c_i with sum_i c_i u_i equal to
    the last point u_(n+1). The covariant is (sum_i |c_i|^2 u_i u_i^H +
    u_(n+1) u_(n+1)^H)^-1: the Tyler step with simplex weights, since the
    standard simplex has covariant (n+2) I - J, proportional to (I + J)^-1.
    It is formed exactly in Python integers by :func:`_simplex_form`, the
    start of :func:`minimize` on such clusters, and rounded once to the
    working precision. Agrees with :func:`minimize` up to the solver
    tolerance. Raises DegeneratePositionError unless the points are in
    general position at the working precision.
    """
    with working_precision(prec):
        n = cluster.n
        m = cluster.degree
        if m != n + 2:
            raise DimensionError(f"need exactly n+2 = {n + 2} points, got {m}")
        return HermitianForm(_simplex_form([p.unit() for p in cluster.points])).normalized()


def _tyler_in_doubles(points):
    """The covariant of a cluster in built-in complex: Tyler's fixed-point
    iteration Q^-1 <- sum_j u_j u_j^H / (u_j^H Q u_j) over the unit rows u_j
    of ``points``, from the identity, finished by Newton steps. As in
    :func:`minimize`, Q = L L^H is kept as a factor and each step reads the
    unit images w_j of L^H u_j and the gradient G = M - m/(n+1) I, where
    M = sum_j w_j w_j^H.

    While |G|_F is above 2^-7 m a step is a Tyler sweep, which converges
    from anywhere but only linearly: L <- L K^-H for the Cholesky factor K
    of M + 2^-45 m I (so no ill-conditioned matrix is inverted). The ridge
    keeps K invertible where the points are collinear to the resolution of
    doubles, and, being a multiple of I, it does not move the fixed point
    M = m/(n+1) I. From 2^-7 m on a step is Newton's, as in :func:`_newton`:
    B from :func:`_newton_direction` and L <- L (I + Y) for
    Y = exp(lambda B/2) - I from :func:`_expm1_in_doubles`, lambda halved
    from 1 until lambda |B|_F <= 1/10, which decreases D with no evaluation;
    a Tyler sweep stands in where the direction falls back to -G. A Newton
    step that overflows or is not finite ends the iteration at the last
    finite iterate. It stops once |G|_F is at most 2^-40 m, or at most
    2^-20 m and no smaller than at the step before, where the rounding of
    doubles decides it, and otherwise after 100 steps of either kind.
    Returns the last iterate Q = L L^H, which Newton at the working
    precision refines like any other start. It is the start of
    :func:`minimize` for clusters other than n+2 points in general
    position, and the covariant of the preconditioning passes."""
    n1 = len(points[0])
    m = len(points)
    basis = _trace_free_basis(n1)
    L = [[complex(a == b) for b in range(n1)] for a in range(n1)]
    last = float("inf")
    for _ in range(100):
        M = [[0j] * n1 for _ in range(n1)]
        images = []
        # the conjugated columns of L; M is Hermitian, so only b >= a is summed
        Lc = [[L[a][i].conjugate() for a in range(n1)] for i in range(n1)]
        for p in points:
            w = [sum(map(operator.mul, col, p)) for col in Lc]
            nrm2 = sum(abs(c) ** 2 for c in w)
            images.append((w, nrm2))
            for a in range(n1):
                for b in range(a, n1):
                    M[a][b] += w[a] * w[b].conjugate() / nrm2
        for a in range(n1):
            for b in range(a):
                M[a][b] = M[b][a].conjugate()
        gnorm = sum(abs(M[a][b] - (m / n1 if a == b else 0)) ** 2 for a in range(n1) for b in range(n1)) ** 0.5
        if gnorm <= 2.0**-40 * m or last <= gnorm <= 2.0**-20 * m:
            break
        last = gnorm
        if gnorm <= 2.0**-7 * m:
            # G as Gaussian integers at 2^-1074, where every double is exact
            G = [[_fixed(M[a][b] - (m / n1 if a == b else 0), 1074) for b in range(n1)] for a in range(n1)]
            wd = [[c / math.sqrt(nrm2) for c in w] for w, nrm2 in images]
            B, e, _, norm, fallback = _newton_direction(wd, G, 1074, basis)
            if not fallback:
                h = 0
                while math.ldexp(norm, e - h) > 0.1:
                    h += 1
                try:
                    Y, f = _expm1_in_doubles(B, e - h - 1)
                    scale = math.ldexp(1.0, f)
                    L1 = [[u + v * scale for u, v in zip(r, q)] for r, q in zip(L, _matmul_in_doubles(L, Y))]
                    if not math.isfinite(sum(abs(v) ** 2 for row in L1 for v in row)):
                        break
                except (ArithmeticError, ValueError):
                    break
                L = L1
                continue
        for a in range(n1):
            M[a][a] += 2.0**-45 * m
        X = _lower_inverse(hermitian_cholesky(M))
        L = [[sum(L[a][k] * X[b][k].conjugate() for k in range(n1)) for b in range(n1)] for a in range(n1)]
    return [[sum(L[a][k] * L[b][k].conjugate() for k in range(n1)) for b in range(n1)] for a in range(n1)]
