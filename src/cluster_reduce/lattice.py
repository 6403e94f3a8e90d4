"""LLL reduction of positive definite Gram matrices with exact transform tracking.

The algorithm works on the quadratic form in exact integers: the entries of
G are dyadic, so G 2^-e is an integer matrix for their smallest exponent e,
and the integral LLL of Cohen (A Course in Computational Algebraic Number
Theory, 1993, Algorithm 2.6.7) decides every step on it by exact integer
comparisons. The basis change U (its columns are the basis vectors) is kept
in exact integers too, so U^T G U is exact in the congruence sense. The
Lovasz parameter is fixed at delta = 0.99: LLL stands in for the fundamental
domain of the reduction theory, so delta is a convention of the program, not
an input. Deterministic conventions: size reduction rounds half-integers
toward zero, where any mu within 2^(-prec/2) of a half-integer counts as one
(so the error of a covariant cannot decide a tie), and ties in the Lovasz
comparison prefer not swapping. :func:`is_lll_reduced` and
:meth:`GramMatrix.check` decide on the same exact minors by the same rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath as mp
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from ._precision import _man_exp, check_hermitian, to_mpf
from .errors import (
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
        """self, or NotPositiveDefiniteError as :func:`_minors` decides."""
        _minors(self)
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
    """Integer matrix of determinant +-1, stored exactly, with that determinant."""

    matrix: tuple
    _det: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.matrix)
        if not all(isinstance(v, int) and not isinstance(v, bool) for r in rows for v in r):
            raise InputFormatError("unimodular transform entries must be integers")
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise DimensionError("unimodular transform must be square")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "_det", _int_det(rows))
        if self._det not in (1, -1):
            raise SingularMatrixError("matrix determinant is not +-1")

    @property
    def size(self) -> int:
        return len(self.matrix)

    def det(self) -> int:
        return self._det

    def inverse(self) -> "UnimodularTransform":
        """Exact integer inverse num / den from sympy's fraction-free
        elimination, a third of the adjugate's cost."""
        num, den = _int_matrix(self.matrix).inv_den()
        return UnimodularTransform(tuple(tuple(v // int(den) for v in r) for r in _int_rows(num)))

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


def _integers(G: GramMatrix):
    """(C, e) with C = G 2^-e exact integers, e the smallest exponent in G."""
    me = [[_man_exp(v) for v in r] for r in G.matrix]
    e = min(x for r in me for _, x in r)
    return [[m << (x - e) for m, x in r] for r in me], e


def congruence(G: GramMatrix, U: UnimodularTransform) -> GramMatrix:
    """U^T G U with the exact integer U: each entry of the upper triangle is
    exact over :func:`_integers`, then rounded once and mirrored."""
    n, (g, e), u = G.size, _integers(G), U.matrix
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        gu = [sum(ga[b] * u[b][i] for b in range(n)) for ga in g]  # column i of G U
        for j in range(i, n):
            out[i][j] = out[j][i] = mp.ldexp(sum(u[a][j] * gu[a] for a in range(n)), e)
    return GramMatrix(out)


def _extend(d, lam, row):
    """One step of Cohen's Algorithm 2.6.7, step 2: the lam row of b_k from
    the minors d[0..k], the lam rows of b_0..b_(k-1) and ``row``, the inner
    products b_k . b_j for j <= k; its last entry is the next minor d[k+1]."""
    out = []
    for j, u in enumerate(row):
        other = lam[j] if j < len(lam) else out  # b_j, or b_k itself
        for i in range(j):
            u = (d[i + 1] * u - out[i] * other[i]) // d[i]
        out.append(u)
    return out


def _minors(G: GramMatrix):
    """(d, lam) of Cohen's Algorithm 2.6.7, step 2, on C of :func:`_integers`:
    the exact leading minors d[i] (d[0] = 1) and the triangular rows
    lam[i][j] = d[j+1] mu_ij (j <= i) of :func:`_extend`.
    NotPositiveDefiniteError unless G is symmetric to 2^(-prec/2), finite
    and positive definite, which Sylvester's criterion on d decides."""
    check_hermitian(G.matrix, NotPositiveDefiniteError("Gram matrix is not symmetric"))
    try:
        C = _integers(G)[0]
    except InputFormatError as exc:
        raise NotPositiveDefiniteError(f"Gram matrix entry {exc}") from None
    d, lam = [1], []
    for k in range(G.size):  # on the lower triangle
        lam.append(_extend(d, lam, C[k][: k + 1]))
        d.append(lam[k][k])
        if d[-1] <= 0:
            raise NotPositiveDefiniteError("Gram matrix is not positive definite")
    return d, lam


# made once: DELTA, the double nearest 0.99, which no precision rounds
DELTA = mp.mpf(0.99)


def lll_reduce(G: GramMatrix):
    """LLL reduction of a positive definite Gram matrix.

    Returns ``(reduced, U)`` with ``reduced = U^T G U`` satisfying size
    reduction (|mu_ij| <= 1/2 + 2^(-prec/2)) and the Lovasz condition at
    ``DELTA`` = 0.99. U has determinant +-1; callers needing determinant +1
    may flip a column sign, which preserves both conditions.

    It starts from the exact minors d and lam of :func:`_minors`, which
    decide positive definiteness before any step: size reduction rounds
    mu = lam_kj / d_(j+1), and b_(k-1), b_k swap where
    d_(k+1) d_(k-1) < DELTA d_k^2 - lam_k(k-1)^2.
    """
    d, lam = _minors(G)
    n, h = G.size, mp.mp.prec // 2  # mu within 2^-h of a half-integer rounds toward zero
    U = [[int(i == j) for i in range(n)] for j in range(n)]  # the columns
    k = 1
    while k < n:
        # size-reduce column k, which changes row k of lam only
        for j in range(k - 1, -1, -1):
            x, dj = lam[k][j], d[j + 1]
            # ceil(|x| / dj - 1/2 - 2^-h), as minus the floor of its negative
            q = -(((dj << h) + 2 * dj - (abs(x) << (h + 1))) // (dj << (h + 1)))
            if q > 0:
                q = -q if x < 0 else q
                U[k] = [a - q * b for a, b in zip(U[k], U[j])]
                for i in range(j):
                    lam[k][i] -= q * lam[j][i]
                lam[k][j] -= q * dj
        m = lam[k][k - 1]  # the Lovasz test is strict: on ties prefer not swapping
        if (d[k + 1] * d[k - 1] + m * m) << -DELTA.exp < DELTA.man * d[k] * d[k]:
            U[k - 1], U[k] = U[k], U[k - 1]
            # exchange b_(k-1) and b_k (Cohen, Algorithm 2.6.7, sub-algorithm SWAP)
            lam[k - 1][: k - 1], lam[k][: k - 1] = lam[k][: k - 1], lam[k - 1][: k - 1]
            new = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for row in lam[k + 1 :]:
                t, row[k] = row[k], (d[k + 1] * row[k - 1] - m * row[k]) // d[k]
                row[k - 1] = (new * t + m * row[k]) // d[k + 1]
            d[k] = new
            k = max(k - 1, 1)
        else:
            k += 1
    transform = UnimodularTransform(tuple(zip(*U)))
    return congruence(G, transform), transform


def is_lll_reduced(G: GramMatrix) -> bool:
    """Whether G meets the conditions that :func:`lll_reduce` guarantees, as
    it decides them on the exact minors of :func:`_minors`: size reduction
    |lam_ij| / d_(j+1) <= 1/2 + 2^-(prec//2), its tie window, and the Lovasz
    condition d_(k+1) d_(k-1) + lam_k(k-1)^2 >= DELTA d_k^2, DELTA read
    exactly. So it holds exactly when lll_reduce(G) keeps the basis."""
    d, lam = _minors(G)
    n, h = G.size, mp.mp.prec // 2
    size = all(abs(lam[i][j]) << (h + 1) <= (d[j + 1] << h) + 2 * d[j + 1] for i in range(n) for j in range(i))
    return size and all(
        (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) << -DELTA.exp >= DELTA.man * d[k] ** 2 for k in range(1, n)
    )
