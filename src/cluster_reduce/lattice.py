"""LLL reduction of positive definite Gram matrices with exact transform tracking.

The algorithm works directly on the quadratic form: Gram-Schmidt data is kept
in multiprecision floats while the accumulated basis change U is kept in exact
integers, so U^T G U is exact in the congruence sense. Columns of U are the
basis vectors. The Gram-Schmidt data is read off the Cholesky factor L of G
once, as mu_ij = L_ij / L_jj and B_i = L_ii^2; after that size reduction
updates one row of mu and a swap updates mu and B in O(n) (Cohen, A Course in
Computational Algebraic Number Theory, 1993, Algorithm 2.6.3), so no Gram
matrix is kept between steps. The Lovasz parameter is fixed at delta = 0.99:
LLL stands in for the fundamental domain of the reduction theory, so delta is
a convention of the program, not an input. Deterministic conventions: size
reduction rounds half-integers toward zero, where any mu within 2^(-prec/2)
of a half-integer counts as one (so rounding noise cannot decide a tie), and
ties in the Lovasz comparison prefer not swapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from ._precision import check_hermitian, half_eps, hermitian_cholesky, to_mpf
from .errors import (
    ConvergenceError,
    DimensionError,
    InputFormatError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)


@dataclass(frozen=True)
class GramMatrix:
    """Real symmetric positive definite matrix with multiprecision entries."""

    matrix: tuple

    def __post_init__(self):
        rows = tuple(tuple(to_mpf(v) for v in r) for r in self.matrix)
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise DimensionError("Gram matrix must be square")
        object.__setattr__(self, "matrix", rows)

    @classmethod
    def from_matrix(cls, M) -> "GramMatrix":
        """The real parts of the entries of an mpmath matrix."""
        return cls([[mp.re(v) for v in r] for r in M.tolist()])

    @property
    def size(self) -> int:
        return len(self.matrix)

    def mat(self):
        return mp.matrix(self.matrix)

    def check(self):
        _gso(self)
        return self


def _int_matrix(rows) -> DomainMatrix:
    """An integer matrix as sympy's DomainMatrix over ZZ, which takes every
    determinant, inverse and product of one exactly."""
    return DomainMatrix.from_list([list(r) for r in rows], ZZ)


def _int_rows(M: DomainMatrix) -> tuple:
    return tuple(tuple(int(v) for v in r) for r in M.to_list())


def _int_det(rows):
    """Exact determinant of a square integer matrix (Bareiss's fraction-free
    elimination)."""
    return int(_int_matrix(rows).det())


@dataclass(frozen=True)
class UnimodularTransform:
    """Integer matrix of determinant +-1, stored exactly."""

    matrix: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.matrix)
        if not all(isinstance(v, int) and not isinstance(v, bool) for r in rows for v in r):
            raise InputFormatError("unimodular transform entries must be integers")
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
        """Exact integer inverse: the adjugate times the +-1 determinant."""
        adj, det = _int_matrix(self.matrix).adj_det()
        return UnimodularTransform(_int_rows(adj * det))

    def transpose(self) -> "UnimodularTransform":
        return UnimodularTransform(tuple(zip(*self.matrix)))

    def inverse_transpose(self) -> "UnimodularTransform":
        return self.inverse().transpose()

    def __matmul__(self, other: "UnimodularTransform") -> "UnimodularTransform":
        return UnimodularTransform(_int_rows(_int_matrix(self.matrix) * _int_matrix(other.matrix)))

    def mat(self):
        return mp.matrix(self.matrix)

    def negate_column(self, j: int) -> "UnimodularTransform":
        rows = [list(r) for r in self.matrix]
        for i in range(self.size):
            rows[i][j] = -rows[i][j]
        return UnimodularTransform(tuple(tuple(r) for r in rows))


def congruence(G: GramMatrix, U: UnimodularTransform) -> GramMatrix:
    """U^T G U, evaluated with the exact integer U: the upper triangle as one
    fsum per entry, mirrored into the lower."""
    n = G.size
    g, u = G.matrix, U.matrix
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            out[i][j] = out[j][i] = mp.fsum(u[a][i] * g[a][b] * u[b][j] for a in range(n) for b in range(n))
    return GramMatrix(out)


def _gso(G: GramMatrix):
    """Gram-Schmidt data (mu, B) of the basis underlying G, from one Cholesky
    factorization G = L L^T: mu_ij = L_ij / L_jj (row i holds j < i) and
    B_i = L_ii^2. Raises NotPositiveDefiniteError unless G is symmetric to
    2^(-prec/2) and positive definite."""
    n = G.size
    check_hermitian(G.matrix, NotPositiveDefiniteError("Gram matrix is not symmetric"))
    L = hermitian_cholesky(G.matrix)
    mu = [[L[i][j] / L[j][j] for j in range(i)] for i in range(n)]
    return mu, [L[i][i] ** 2 for i in range(n)]


# made once: 1/2; DELTA, the double nearest 0.99, which no precision rounds;
# and the relative slack of is_lll_reduced
_HALF = mp.mpf(0.5)
DELTA = mp.mpf(0.99)
_SLACK = mp.mpf("1e-9")


def _round_half_toward_zero(x, tie):
    """Nearest integer to x, rounding toward zero any x within ``tie`` of a
    half-integer: sign(x) * ceil(|x| - 1/2 - tie)."""
    q = int(mp.ceil(abs(x) - _HALF - tie))
    return -q if x < 0 else q


def lll_reduce(G: GramMatrix):
    """LLL reduction of a positive definite Gram matrix.

    Returns ``(reduced, U)`` with ``reduced = U^T G U`` satisfying size
    reduction (|mu_ij| <= 1/2 + 2^(-prec/2)) and the Lovasz condition at
    ``DELTA`` = 0.99. U has determinant +-1; callers needing determinant +1
    may flip a column sign, which preserves both conditions.
    """
    mu, B = _gso(G)
    n = G.size
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    tie = half_eps()
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
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        # strict inequality: on ties prefer not swapping
        m = mu[k][k - 1]
        if B[k] < (DELTA - m**2) * B[k - 1]:
            for a in range(n):
                U[a][k], U[a][k - 1] = U[a][k - 1], U[a][k]
            # exchange b_{k-1} and b_k (Cohen, Algorithm 2.6.3, sub-algorithm SWAP)
            Bnew = B[k] + m**2 * B[k - 1]
            mu[k - 1], mu[k] = mu[k][: k - 1], mu[k - 1] + [m * B[k - 1] / Bnew]
            B[k - 1], B[k] = Bnew, B[k - 1] * B[k] / Bnew
            for row in mu[k + 1 :]:
                t = row[k]
                row[k] = row[k - 1] - m * t
                row[k - 1] = t + mu[k][k - 1] * row[k]
            k = max(k - 1, 1)
        else:
            k += 1
    transform = UnimodularTransform(tuple(tuple(row) for row in U))
    return congruence(G, transform), transform


def is_lll_reduced(G: GramMatrix) -> bool:
    """Check size reduction and the Lovasz condition at ``DELTA``, with a
    relative slack of 1e-9."""
    mu, B = _gso(G)
    n = G.size
    for i in range(n):
        for j in range(i):
            if abs(mu[i][j]) > _HALF * (1 + _SLACK):
                return False
    for k in range(1, n):
        lhs = B[k]
        rhs = (DELTA - mu[k][k - 1] ** 2) * B[k - 1]
        if lhs < rhs * (1 - _SLACK) - _SLACK * B[k - 1]:
            return False
    return True
