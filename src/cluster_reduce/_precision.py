"""Working-precision helpers built on mpmath.

All numerical code in this package runs at the ambient mpmath precision.
Entry points that accept a ``prec`` argument (in bits) wrap their body in
``working_precision(prec)``. Every tolerance decision (rank, point
identification, conjugation matching, root certificates, LLL ties) compares
against :func:`half_eps` of the ambient precision, so the precision is the
only numeric setting.
"""

from __future__ import annotations

import mpmath as mp

from .errors import NotPositiveDefiniteError

DEFAULT_PREC = 212


def working_precision(prec=None):
    """Context manager setting the mpmath binary precision (no-op if None)."""
    return mp.workprec(prec if prec is not None else mp.mp.prec)


def half_eps():
    """2^(-prec/2) at the ambient precision: the package's one threshold."""
    return mp.mpf(2) ** (-mp.mp.prec // 2)


def to_mpc(value):
    """Convert ints, Fractions, strings, floats or mpmath numbers to mpc."""
    if isinstance(value, mp.mpc):
        return value
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return mp.mpc(mp.mpmathify(value[0]), mp.mpmathify(value[1]))
    return mp.mpc(mp.mpmathify(value))


def frobenius_norm(M):
    return mp.sqrt(sum(abs(M[i, j]) ** 2 for i in range(M.rows) for j in range(M.cols)))


def max_abs_entry(M):
    return max(abs(M[i, j]) for i in range(M.rows) for j in range(M.cols))


def hermitize(M):
    """Average a nearly Hermitian matrix with its conjugate transpose."""
    return (M + M.transpose_conj()) / 2


def real_part(M):
    R = mp.matrix(M.rows, M.cols)
    for i in range(M.rows):
        for j in range(M.cols):
            R[i, j] = mp.re(M[i, j])
    return R


def max_imag_entry(M):
    return max(abs(mp.im(M[i, j])) for i in range(M.rows) for j in range(M.cols))


def hermitian_cholesky(A):
    """Lower triangular L with A = L L^H for Hermitian positive definite A.

    Unlike the library routine this uses no absolute pivot threshold, so
    matrices with entries spanning thousands of orders of magnitude factor
    fine; a nonpositive pivot raises NotPositiveDefiniteError.
    """
    n = A.rows
    rows = [[] for _ in range(n)]  # rows[i] holds L[i, :j] at step j
    for j in range(n):
        d = mp.re(A[j, j]) - mp.fsum(rows[j], absolute=True, squared=True)
        if d <= 0:
            raise NotPositiveDefiniteError("matrix is not positive-definite")
        ljj = mp.sqrt(d)
        for i in range(j + 1, n):
            rows[i].append((A[i, j] - mp.fdot(rows[i], rows[j], conjugate=True)) / ljj)
        rows[j].append(ljj)
    return mp.matrix([row + [0] * (n - len(row)) for row in rows])
