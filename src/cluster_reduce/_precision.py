"""Working-precision helpers built on mpmath.

All numerical code in this package runs at the ambient mpmath precision.
Entry points that accept a ``prec`` argument (in bits) wrap their body in
``working_precision(prec)``. Every tolerance decision (rank, point
identification, conjugation matching, scaled-cluster equality and the
witness family's subspace, all by ``cluster_core._join``, the residual gate
of every point a pipeline places, LLL ties) compares against
:func:`half_eps` of the ambient precision, so the precision is the only
numeric setting, and :func:`short_of_precision` makes the one error that
says it falls short.

Hermitian matrices travel as rows. One Cholesky factorization,
:func:`hermitian_cholesky`, serves the working precision and hardware
doubles alike: it takes rows and computes in the arithmetic of their
entries, and its one pivot test rejects every pivot that is not positive
and finite. It gives the factor, the determinant (twice the sum of the logs
of its diagonal) and, with the covariant's ``_lower_inverse``, the inverse
factor L^-1; the covariant's ``_resolution`` takes L^-1 in fixed point
instead, and LLL decides on a Gram's exact leading minors.
:func:`check_hermitian` is the one symmetry test beside it.

The fixed-point kernels (Aberth's second phase and the fiber points in
``polyalg``, the covariant's Newton residual and closed form, LLL's exact
Gram, and classify's integer rows of the points) hold numbers as integers
at a scale 2^-S. They share the three conversions: :func:`_man_exp` reads an mpf or float as m 2^e exactly,
:func:`_fixed` truncates a number to a Gaussian integer at 2^-S, and
:func:`_from_fixed` rounds one back to the working precision.
"""

from __future__ import annotations

import math

import mpmath as mp
from mpmath.libmp import from_man_exp, round_nearest

from .errors import ConvergenceError, InputFormatError, NotPositiveDefiniteError

DEFAULT_PREC = 212


def working_precision(prec=None):
    """Context manager setting the mpmath binary precision (no-op if None)."""
    return mp.workprec(prec if prec is not None else mp.mp.prec)


def half_eps():
    """2^(-prec/2) at the ambient precision: the package's one threshold."""
    return mp.mpf(2) ** (-mp.mp.prec // 2)


def short_of_precision(what: str, best=None):
    """ConvergenceError("``what`` at the working precision of N bits") for
    the ambient N, with ``best``: the one error that more bits cure."""
    return ConvergenceError(f"{what} at the working precision of {mp.mp.prec} bits", best=best)


def to_mpf(value, kind=mp.mpf):
    """An mpf, or a ``kind``, from an int, Fraction, string, float or mpmath
    number; a boolean is no number (InputFormatError)."""
    if isinstance(value, bool):
        raise InputFormatError(f"{value!r} is a boolean, not a number")
    return kind(mp.mpmathify(value))


def to_mpc(value):
    """:func:`to_mpf` to mpc, of a number or of a (re, im) pair of reals."""
    if isinstance(value, mp.mpc):
        return value
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return mp.mpc(to_mpf(value[0]), to_mpf(value[1]))
    return to_mpf(value, mp.mpc)


def _man_exp(x) -> tuple:
    """(m, e) with x = m 2^e exactly for a finite mpf or float x, read from
    the mpf's ``_mpf_`` = (sign, mantissa, exponent, bits), where
    ``man_exp`` would drop the sign, or from the float's integer ratio.
    Raises InputFormatError on an infinity or a NaN."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InputFormatError(f"{x} is not finite")
        m, d = x.as_integer_ratio()
        return m, 1 - d.bit_length()
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        raise InputFormatError(f"{x} is not finite")
    return (-man if sign else man), exp


def _fixed(z, S) -> tuple:
    """The finite mpc, mpf or built-in complex z as the Gaussian integer
    (X, Y) with (X + iY) 2^-S = z, each part rounded toward zero."""
    out = []
    for m, e in (_man_exp(z.real), _man_exp(z.imag)):
        e += S
        v = abs(m) << e if e >= 0 else abs(m) >> -e
        out.append(-v if m < 0 else v)
    return tuple(out)


def _from_fixed(X, Y, S):
    """(X + iY) 2^-S as an mpc at the ambient precision, each part rounded to
    nearest, as mpmath's constructors round."""
    prec = mp.mp.prec
    return mp.mp.make_mpc((from_man_exp(X, -S, prec, round_nearest), from_man_exp(Y, -S, prec, round_nearest)))


def hermitian_cholesky(A):
    """Rows of the lower triangular L with A = L L^H, for the rows of a
    Hermitian positive definite A, of which A[i][j] is read for j <= i only;
    L has 0 above the diagonal.

    It computes in the arithmetic of the entries: mpmath numbers at the
    working precision, or built-in complex and float in hardware doubles.
    Unlike the library routine it uses no absolute pivot threshold, so
    matrices with entries spanning thousands of orders of magnitude factor
    fine. Its one pivot test raises NotPositiveDefiniteError unless
    0 < d < inf for the pivot d = A[j][j] - sum_k |L[j][k]|^2, which rejects
    zero, negative, NaN and infinite pivots alike.
    """
    n = len(A)
    L = [[0] * n for _ in range(n)]
    for j in range(n):
        d = A[j][j].real - sum((v * v.conjugate()).real for v in L[j][:j])
        if not 0 < d < math.inf:
            raise NotPositiveDefiniteError("matrix is not positive-definite")
        L[j][j] = d**0.5
        for i in range(j + 1, n):
            L[i][j] = (A[i][j] - sum(L[i][k] * L[j][k].conjugate() for k in range(j))) / L[j][j]
    return L


def check_hermitian(rows, error):
    """Raise ``error`` unless rows[i][j] and conj(rows[j][i]) agree to
    2^(-prec/2) (1 + max |entry|) for all i and j; returns that bound."""
    bound = half_eps() * (1 + max(abs(v) for r in rows for v in r))
    if any(abs(r[j] - mp.conj(rows[j][i])) > bound for i, r in enumerate(rows) for j in range(i + 1)):
        raise error
    return bound
