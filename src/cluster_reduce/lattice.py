"""LLL reduction of positive definite Gram matrices with exact transform tracking.

The algorithm works directly on the quadratic form: Gram-Schmidt data is kept
in multiprecision floats while the accumulated basis change U is kept in exact
integers, so U^T G U is exact in the congruence sense. Columns of U are the
basis vectors. Deterministic conventions: size reduction rounds half-integers
toward zero, where any mu within 2^(-prec/2) of a half-integer counts as one
(so rounding noise cannot decide a tie), ties in the Lovasz comparison prefer
not swapping, and the Gram-Schmidt data is recomputed from scratch every 32
swaps to stop drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from ._precision import half_eps, hermitian_cholesky
from .errors import (
    ConvergenceError,
    DimensionError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)


@dataclass(frozen=True)
class GramMatrix:
    """Real symmetric positive definite matrix with multiprecision entries."""

    matrix: tuple

    def __post_init__(self):
        rows = tuple(tuple(mp.mpf(mp.mpmathify(v)) for v in r) for r in self.matrix)
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise DimensionError("Gram matrix must be square")
        object.__setattr__(self, "matrix", rows)

    @classmethod
    def from_matrix(cls, M) -> "GramMatrix":
        return cls(tuple(tuple(mp.re(M[i, j]) for j in range(M.cols)) for i in range(M.rows)))

    @property
    def size(self) -> int:
        return len(self.matrix)

    def mat(self):
        M = mp.matrix(self.size, self.size)
        for i in range(self.size):
            for j in range(self.size):
                M[i, j] = self.matrix[i][j]
        return M

    def check(self):
        tol = half_eps()
        M = self.mat()
        scale = max(abs(M[i, j]) for i in range(self.size) for j in range(self.size))
        for i in range(self.size):
            for j in range(i):
                if abs(M[i, j] - M[j, i]) > tol * (1 + scale):
                    raise NotPositiveDefiniteError("Gram matrix is not symmetric")
        try:
            hermitian_cholesky(M)
        except ValueError as exc:
            raise NotPositiveDefiniteError(str(exc)) from exc
        return self


def _int_det(rows):
    """Exact determinant of a square integer matrix (fraction-free)."""
    n = len(rows)
    M = [[Fraction(v) for v in r] for r in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det *= M[col][col]
        inv = M[col][col]
        for r in range(col + 1, n):
            factor = M[r][col] / inv
            M[r] = [M[r][k] - factor * M[col][k] for k in range(n)]
    assert det.denominator == 1
    return int(det)


@dataclass(frozen=True)
class UnimodularTransform:
    """Integer matrix of determinant +-1, stored exactly."""

    matrix: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in r) for r in self.matrix)
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise DimensionError("unimodular transform must be square")
        object.__setattr__(self, "matrix", rows)
        if _int_det(rows) not in (1, -1):
            raise SingularMatrixError("matrix determinant is not +-1")

    @property
    def size(self) -> int:
        return len(self.matrix)

    def det(self) -> int:
        return _int_det(self.matrix)

    def inverse(self) -> "UnimodularTransform":
        """Exact integer inverse (adjugate divided by the +-1 determinant)."""
        n = self.size
        d = self.det()
        rows = self.matrix
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = [
                    [rows[a][b] for b in range(n) if b != j]
                    for a in range(n)
                    if a != i
                ]
                cof = _int_det(minor) if n > 1 else 1
                adj[j][i] = (-1) ** (i + j) * cof
        return UnimodularTransform(tuple(tuple(v * d for v in r) for r in adj))

    def transpose(self) -> "UnimodularTransform":
        return UnimodularTransform(tuple(zip(*self.matrix)))

    def inverse_transpose(self) -> "UnimodularTransform":
        return self.inverse().transpose()

    def __matmul__(self, other: "UnimodularTransform") -> "UnimodularTransform":
        n = self.size
        a, b = self.matrix, other.matrix
        return UnimodularTransform(
            tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            )
        )

    def mat(self):
        M = mp.matrix(self.size, self.size)
        for i in range(self.size):
            for j in range(self.size):
                M[i, j] = self.matrix[i][j]
        return M

    def negate_column(self, j: int) -> "UnimodularTransform":
        rows = [list(r) for r in self.matrix]
        for i in range(self.size):
            rows[i][j] = -rows[i][j]
        return UnimodularTransform(tuple(tuple(r) for r in rows))


def congruence(G: GramMatrix, U: UnimodularTransform) -> GramMatrix:
    """U^T G U, evaluated with the exact integer U."""
    return GramMatrix.from_matrix(_congruence(G.mat(), U.matrix))


def _congruence(Gm, U):
    """U^T Gm U for an mpmath matrix Gm and integer rows U: the upper triangle
    as one fsum per entry, mirrored into the lower."""
    n = Gm.rows
    out = mp.matrix(n, n)
    for i in range(n):
        for j in range(i, n):
            out[i, j] = mp.fsum(U[a][i] * Gm[a, b] * U[b][j] for a in range(n) for b in range(n))
            out[j, i] = out[i, j]
    return out


def _gso_from_gram(Gm):
    """Gram-Schmidt data (mu, B) of the basis underlying a Gram matrix."""
    n = Gm.rows
    mu = [[mp.mpf(0)] * n for _ in range(n)]
    B = [mp.mpf(0)] * n
    r = [[mp.mpf(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            r[i][j] = Gm[i, j] - mp.fsum(mu[j][k] * r[i][k] for k in range(j))
            if B[j] == 0:
                raise NotPositiveDefiniteError("Gram matrix is singular")
            mu[i][j] = r[i][j] / B[j]
        B[i] = Gm[i, i] - mp.fsum(mu[i][k] * r[i][k] for k in range(i))
        if B[i] <= 0:
            raise NotPositiveDefiniteError("Gram matrix is not positive definite")
        r[i][i] = B[i]
        mu[i][i] = mp.mpf(1)
    return mu, B


def _round_half_toward_zero(x, tie):
    """Nearest integer to x, rounding toward zero any x within ``tie`` of a
    half-integer: sign(x) * ceil(|x| - 1/2 - tie)."""
    q = int(mp.ceil(abs(x) - mp.mpf("0.5") - tie))
    return -q if x < 0 else q


def lll_reduce(G: GramMatrix, delta=0.99):
    """LLL reduction of a positive definite Gram matrix.

    Returns ``(reduced, U)`` with ``reduced = U^T G U`` satisfying size
    reduction (|mu_ij| <= 1/2 + 2^(-prec/2)) and the Lovasz condition at
    ``delta``. U has determinant +-1; callers needing determinant +1 may flip
    a column sign, which preserves both conditions.
    """
    if not isinstance(G, GramMatrix):
        G = GramMatrix(tuple(tuple(r) for r in G))
    if not (mp.mpf("0.25") < mp.mpf(delta) < 1):
        raise ValueError("delta must lie in (1/4, 1)")
    delta = mp.mpf(delta)
    G.check()
    n = G.size
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Gm = G.mat()
    cur = _congruence(Gm, U)
    mu, B = _gso_from_gram(cur)
    tie = half_eps()
    swaps = 0
    rounds = 0
    round_limit = 1000 * n * n * max(mp.mp.prec, 64)
    k = 1
    while k < n:
        rounds += 1
        if rounds > round_limit:
            raise ConvergenceError(
                "LLL failed to terminate; the Gram matrix is likely too "
                "ill-conditioned for the working precision"
            )
        # size-reduce column k; this leaves all Gram-Schmidt vectors and all
        # mu rows other than row k untouched, so only row k needs updating
        for j in range(k - 1, -1, -1):
            q = _round_half_toward_zero(mu[k][j], tie)
            if q:
                for a in range(n):
                    U[a][k] -= q * U[a][j]
                # b_k <- b_k - q b_j in the running Gram matrix
                gkk = cur[k, k] - 2 * q * cur[k, j] + q * q * cur[j, j]
                for a in range(n):
                    cur[a, k] -= q * cur[a, j]
                    cur[k, a] = cur[a, k]
                cur[k, k] = gkk
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        # strict inequality: on ties prefer not swapping
        if B[k] < (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            for a in range(n):
                U[a][k], U[a][k - 1] = U[a][k - 1], U[a][k]
            for a in range(n):
                cur[a, k], cur[a, k - 1] = cur[a, k - 1], cur[a, k]
            for a in range(n):
                cur[k, a], cur[k - 1, a] = cur[k - 1, a], cur[k, a]
            swaps += 1
            if swaps % 32 == 0:
                cur = _congruence(Gm, U)
            mu, B = _gso_from_gram(cur)
            k = max(k - 1, 1)
        else:
            k += 1
    transform = UnimodularTransform(tuple(tuple(row) for row in U))
    return congruence(G, transform), transform


def is_lll_reduced(G: GramMatrix, delta=0.99, slack=mp.mpf("1e-9")) -> bool:
    """Check size reduction and the Lovasz condition, with relative slack."""
    if not isinstance(G, GramMatrix):
        G = GramMatrix(tuple(tuple(r) for r in G))
    G.check()
    delta = mp.mpf(delta)
    slack = mp.mpf(slack)
    mu, B = _gso_from_gram(G.mat())
    n = G.size
    for i in range(n):
        for j in range(i):
            if abs(mu[i][j]) > mp.mpf("0.5") * (1 + slack):
                return False
    for k in range(1, n):
        lhs = B[k]
        rhs = (delta - mu[k][k - 1] ** 2) * B[k - 1]
        if lhs < rhs * (1 - slack) - slack * B[k - 1]:
            return False
    return True
