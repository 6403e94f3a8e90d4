"""Exact multivariate polynomials and multiprecision root finding.

MultiPoly is a value type: sorted terms with exact integer or rational
coefficients. Its arithmetic, Hessians, pencil cubics and substitutions run in
sympy's sparse ring (``sympy.polys.rings``, over ZZ unless a coefficient is a
fraction). The exact layer never rounds; the numeric layer (Aberth-Ehrlich
iteration, and the points of a curve intersection evaluated from its exact
representation) works at the ambient mpmath precision, which the pipelines
set. Every point that a pipeline places (a root of a binary form, a point
of a curve intersection, a base point of a pencil) passes one residual
gate, :func:`_gate`, whose failure is missing precision. A binary form has
one root path: the squarefree split that its pipeline already made, Aberth
on each factor, and the gate against the whole form. There is no
public univariate root finder or resultant; curve intersection takes its
resultant and subresultants from sympy in one sequence. Every polynomial
whose roots are sought reaches Aberth's iteration as coprime Python
integers, and it takes no other coefficients. The iteration runs in two
arithmetics: first in Python's built-in complex, from Bini points computed
with ``math`` and ``cmath``, then, from the roots that doubles gave, in
Python integers: fixed-point iterates at the working precision plus guard
bits, on the exact integer coefficients, so that Horner's rounding error
does not grow with the coefficients. The first phase alone, uncertified,
finds the points of the preconditioning passes of the ternary pipeline. The
fiber points and residuals of a curve intersection are fixed-point Gaussian
integers too; mpmath holds only the results.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath as mp
import sympy as sp
from sympy.polys.domains import QQ, ZZ
from sympy.polys.rings import PolyRing

from ._precision import _fixed, _from_fixed, half_eps, short_of_precision, to_mpc
from .cluster_core import PointCluster, ProjectivePoint
from .errors import (
    CommonComponentError,
    ConvergenceError,
    DimensionError,
    EliminationError,
    InputFormatError,
)

_VAR_ALIASES = {"x": 0, "y": 1, "z": 2, "w": 3}


def _coerce_coeff(c):
    if isinstance(c, bool):
        raise InputFormatError(f"coefficient {c!r} is a boolean, not an integer")
    if isinstance(c, int):
        return c
    if isinstance(c, str):
        try:
            c = Fraction(c if "/" in c else int(c))
        except (ValueError, ZeroDivisionError):
            pass
    if isinstance(c, sp.Rational):
        c = Fraction(int(c.p), int(c.q))
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise InputFormatError(f"coefficient {c!r} is not an exact integer or rational")


@functools.lru_cache(maxsize=None)
def _ring(nvars: int, domain) -> PolyRing:
    """sympy's sparse polynomial ring over ``domain`` in x0 ... x(nvars-1)."""
    return PolyRing([f"x{i}" for i in range(nvars)], domain)


def _from_ring(p) -> "MultiPoly":
    """The MultiPoly of an element of a ring from :func:`_ring`."""
    dom = p.ring.domain
    conv = int if dom.is_ZZ else (lambda c: Fraction(int(dom.numer(c)), int(dom.denom(c))))
    return MultiPoly(p.ring.ngens, tuple((e, conv(c)) for e, c in p.items()))


@dataclass(frozen=True)
class MultiPoly:
    """Exact polynomial in ``nvars`` variables x0, x1, ...; it computes in sympy's sparse ring."""

    nvars: int
    terms: tuple  # tuple of (exponent tuple, coefficient), sorted, no zeros

    def __post_init__(self):
        clean = {}
        for exp, c in (self.terms.items() if isinstance(self.terms, dict) else self.terms):
            exp = tuple(exp)
            if not all(isinstance(e, int) and not isinstance(e, bool) for e in exp):
                raise InputFormatError("exponents must be integers")
            if len(exp) != self.nvars:
                raise DimensionError("exponent vector length does not match nvars")
            if any(e < 0 for e in exp):
                raise InputFormatError("negative exponent")
            c = _coerce_coeff(c)
            if c != 0:
                clean[exp] = clean.get(exp, 0) + c
        items = tuple(sorted(((e, c) for e, c in clean.items() if c != 0), reverse=True))
        object.__setattr__(self, "terms", items)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, (((0,) * nvars, c),))

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, ((exp, 1),))

    @classmethod
    def from_dict(cls, nvars: int, d) -> "MultiPoly":
        return cls(nvars, tuple(d.items()))

    @classmethod
    def from_text(cls, text: str, nvars: Optional[int] = None) -> "MultiPoly":
        return _parse_poly_text(text, nvars)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {sum(e) for e, _ in self.terms}
        return len(degs) == 1

    def coeff(self, exp) -> object:
        exp = tuple(exp)
        for e, c in self.terms:
            if e == exp:
                return c
        return 0

    def height(self) -> object:
        """Maximum absolute value of the coefficients."""
        if not self.terms:
            return 0
        return max(abs(c) for _, c in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _in_ring(self, *others) -> tuple:
        """``self`` and ``others`` (MultiPolys or exact numbers) as elements of
        one sparse ring: over ZZ, or over QQ where some coefficient is a Fraction."""
        polys = [self]
        for o in others:
            o = o if isinstance(o, MultiPoly) else MultiPoly.constant(self.nvars, o)
            if o.nvars != self.nvars:
                raise DimensionError("mixed variable counts")
            polys.append(o)
        if any(isinstance(c, Fraction) for p in polys for _, c in p.terms):
            ring = _ring(self.nvars, QQ)
            return tuple(
                ring.from_dict({e: QQ(c.numerator, c.denominator) for e, c in p.terms}) for p in polys
            )
        ring = _ring(self.nvars, ZZ)
        return tuple(ring.from_dict(dict(p.terms)) for p in polys)

    def __add__(self, other):
        a, b = self._in_ring(other)
        return _from_ring(a + b)

    def __sub__(self, other):
        a, b = self._in_ring(other)
        return _from_ring(a - b)

    def __neg__(self):
        return _from_ring(-self._in_ring()[0])

    def __mul__(self, other):
        a, b = self._in_ring(other)
        return _from_ring(a * b)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        (p,) = self._in_ring()
        return _from_ring(p**k if k else p.ring.one)

    def diff(self, var: int) -> "MultiPoly":
        return _from_ring(self._in_ring()[0].diff(var))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, values: Sequence) -> mp.mpc:
        """Numeric value at the given coordinates as an mpc at the ambient
        precision prec, computed on Gaussian integers at scale 2^-S: one
        table of powers v, v^2, ..., v^d per coordinate and each term's
        product are truncated to 2^-S, the terms times the integers
        c * scale (scale clears the denominators) are summed exactly, and
        only the sum over scale is rounded. For total degree d and nonzero
        coordinates of at least 2^-lo, S = prec + 20 + d (lo + 2) keeps each
        term within 2^-(prec+4) |c_e v^e|, so the value is within a few units
        of 2^-prec sum |c_e v^e|."""
        vals = [to_mpc(v) for v in values]
        if len(vals) != self.nvars:
            raise DimensionError("wrong number of coordinates")
        if not self.terms:
            return mp.mpc(0)
        exps = [e for e, _ in self.terms]
        lo = max([0, *(-mp.mag(v) for v in vals if v)])
        S = mp.mp.prec + 20 + max(map(sum, exps)) * (lo + 2)
        one = 1 << S
        powers = []
        for v, top in zip(vals, map(max, zip(*exps))):
            x, y = _fixed(v, S)
            table = [(one, 0)]
            for _ in range(top):
                a, b = table[-1]
                table.append(((a * x - b * y) >> S, (a * y + b * x) >> S))
            powers.append(table)
        scale = math.lcm(*(c.denominator for _, c in self.terms))
        re = im = 0
        for e, c in self.terms:
            factors = [table[k] for table, k in zip(powers, e) if k]
            a, b = factors.pop() if factors else (one, 0)
            for x, y in factors:
                a, b = (a * x - b * y) >> S, (a * y + b * x) >> S
            c = c.numerator * (scale // c.denominator)
            re += c * a
            im += c * b
        return _from_fixed(re, im, S) / scale

    def coeff_norm(self):
        """Euclidean norm of the coefficient vector as an mpf."""
        return mp.sqrt(mp.fsum(mp.mpf(abs(int(c.numerator) if isinstance(c, Fraction) else c)) ** 2
                               / (int(c.denominator) ** 2 if isinstance(c, Fraction) else 1)
                               for _, c in self.terms)) if self.terms else mp.mpf(0)

    # -- conversion and display -------------------------------------------

    def to_sympy(self):
        gens = sp.symbols(f"x0:{self.nvars}")
        d = {e: sp.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else sp.Integer(c)
             for e, c in self.terms}
        if not d:
            return sp.Poly(0, *gens)
        return sp.Poly.from_dict(d, *gens)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            mono = " ".join(
                f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k
            )
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag} * {mono}"
            else:
                body = f"{mag}"
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return self.to_text()


_VAR_TOKEN = r"x\d+|[xyzw]"
_TERM_RE = re.compile(
    rf"(?P<coeff>\d+(?:/\d+)?)?\s*\*?\s*"
    rf"(?P<mono>(?:{_VAR_TOKEN})(?:\^\d+)?(?:\s*\*?\s*(?:{_VAR_TOKEN})(?:\^\d+)?)*)?\s*$"
)
_FACTOR_RE = re.compile(rf"(?P<var>{_VAR_TOKEN})(?:\^(?P<exp>\d+))?")


def _var_index(token: str) -> int:
    """The index of a token of ``_VAR_TOKEN``: x<k> or an alias, so no
    token is unknown."""
    return int(token[1:]) if len(token) > 1 else _VAR_ALIASES[token]


def _parse_poly_text(text: str, nvars: Optional[int]) -> MultiPoly:
    s = text.strip().replace("**", "^").replace("−", "-")
    if not s:
        raise InputFormatError("empty polynomial text")
    # split into signed terms (no parentheses), at least one as s is not empty
    chunks = []
    buf = ""
    for ch in s:
        if ch in "+-" and buf.strip(" *"):
            chunks.append(buf.strip())
            buf = ch
        else:
            buf += ch
    if buf.strip():
        chunks.append(buf.strip())
    raw_terms = []
    max_var = -1
    for chunk in chunks:
        sgn = 1
        body = chunk
        while body and body[0] in "+-":
            if body[0] == "-":
                sgn = -sgn
            body = body[1:].lstrip()
        if not body:
            raise InputFormatError(f"dangling sign in {text!r}")
        mtc = _TERM_RE.match(body)
        if not mtc or (mtc.group("coeff") is None and not mtc.group("mono")):
            raise InputFormatError(f"could not parse term {chunk!r}")
        try:
            coeff = Fraction(mtc.group("coeff") or 1)
        except ZeroDivisionError:
            raise InputFormatError(f"zero denominator in term {chunk!r}") from None
        exps = {}
        if mtc.group("mono"):
            for fm in _FACTOR_RE.finditer(mtc.group("mono")):
                idx = _var_index(fm.group("var"))
                exps[idx] = exps.get(idx, 0) + int(fm.group("exp") or 1)
                max_var = max(max_var, idx)
        raw_terms.append((sgn * coeff, exps))
    width = nvars if nvars is not None else max_var + 1
    if width <= 0:
        width = 1
    d = {}
    for coeff, exps in raw_terms:
        if exps and max(exps) >= width:
            raise InputFormatError("variable index exceeds nvars")
        e = tuple(exps.get(i, 0) for i in range(width))
        d[e] = d.get(e, 0) + coeff
    return MultiPoly(width, tuple(d.items()))


# ---------------------------------------------------------------------------
# exact operations


def hessian(F: MultiPoly) -> MultiPoly:
    """Determinant of the matrix of second partials of a ternary form."""
    if F.nvars != 3:
        raise DimensionError("hessian needs a polynomial in exactly 3 variables")
    if not F.is_homogeneous():
        raise InputFormatError("hessian input must be homogeneous")
    if F.total_degree() < 2:
        raise InputFormatError("hessian needs degree at least 2")
    (f,) = F._in_ring()
    return _from_ring(_det3([[f.diff(i).diff(j) for j in range(3)] for i in range(3)]))


def pencil_cubic(Q1: MultiPoly, Q2: MultiPoly) -> MultiPoly:
    """det(x * M1 + y * M2) for the second-partial matrices of two ternary quadrics."""
    for Q in (Q1, Q2):
        if Q.nvars != 3 or not Q.is_homogeneous() or Q.total_degree() != 2:
            raise InputFormatError("pencil members must be ternary quadrics")
    x, y = _ring(2, QQ if any(isinstance(c, Fraction) for Q in (Q1, Q2) for _, c in Q.terms) else ZZ).gens
    M1, M2 = _second_partials(Q1), _second_partials(Q2)
    return _from_ring(_det3([[x * a + y * b for a, b in zip(r1, r2)] for r1, r2 in zip(M1, M2)]))


def _second_partials(Q: MultiPoly) -> list:
    """The 3x3 matrix of second partials of a ternary quadric: entry (i, j)
    sums c e_i (e_j - [i = j]) over the terms c x^e."""
    return [[sum(c * e[i] * (e[j] - (i == j)) for e, c in Q.terms) for j in range(3)] for i in range(3)]


def _det3(E):
    """Cofactor expansion of a 3x3 determinant, exact for ring elements."""
    return (
        E[0][0] * (E[1][1] * E[2][2] - E[1][2] * E[2][1])
        - E[0][1] * (E[1][0] * E[2][2] - E[1][2] * E[2][0])
        + E[0][2] * (E[1][0] * E[2][1] - E[1][1] * E[2][0])
    )


def substitute(F: MultiPoly, U) -> MultiPoly:
    """Exact linear substitution F(U x): row i of U replaces variable i."""
    rows = U.matrix if hasattr(U, "matrix") else [list(r) for r in U]
    n = F.nvars
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionError("substitution matrix size must equal nvars")
    unit = [tuple(int(t == j) for t in range(n)) for j in range(n)]
    f, *linear = F._in_ring(*(MultiPoly(n, tuple(zip(unit, row))) for row in rows))
    return _from_ring(f.compose(list(zip(f.ring.gens, linear))))


# ---------------------------------------------------------------------------
# numeric root finding


def _bini_initial_points(log_abs):
    """Starting points for the simultaneous iteration, in ``math`` and
    ``cmath``, from ``log_abs``: log2 |a_k| for the descending coefficients
    a_k, None where a_k = 0.

    Radii come from the upper convex hull of (k, log2 |a_k|), k counted from
    the constant term; angles are spread uniformly with an irrational offset
    per hull segment to break symmetry. Each point r e^(i theta) is the pair
    (log2 r, e^(i theta)), since r may lie outside the double range.
    """
    pts = [(k, h) for k, h in enumerate(reversed(log_abs)) if h is not None]
    # upper convex hull (pts sorted by k already): drop points below a chord
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    out = []
    for seg, ((k1, h1), (k2, h2)) in enumerate(zip(hull, hull[1:])):
        width = k2 - k1
        for j in range(width):
            theta = 2 * math.pi * (j + 0.25) / width + 0.6180339887 * (seg + 1)
            out.append(((h1 - h2) / width, complex(math.cos(theta), math.sin(theta))))
    return out


def _horner_pair(coeffs, x):
    """p(x) and p'(x) by a joint Horner scheme in built-in complex."""
    p = dp = 0
    for c in coeffs:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def _at_rounding_level(p, abs_coeffs, x):
    """Stopping test of MPSolve in doubles: is |p(x)| within Horner's
    rounding error at x?

    Evaluating p at x with unit roundoff u = 2^-53 is off by up to about
    2d u sum |a_i| |x|^i, so once |p(x)| <= 4(d+1) u sum |a_i| |x|^i the point
    x is an exact root of a polynomial whose coefficients differ from p's by
    a few ulps, and no further iteration in doubles can improve it (Bini &
    Fiorentino, Numer. Algorithms 23, 2000). ``abs_coeffs`` are the
    descending |a_i|.
    """
    r = abs(x)
    bound = 0
    for a in abs_coeffs:
        bound = bound * r + a
    return abs(p) <= 4 * len(abs_coeffs) * bound / 2**53


def _aberth(cs, z, maxsteps):
    """Aberth-Ehrlich sweeps in built-in complex over the descending
    coefficients ``cs`` from the start points ``z``. A root stops once
    ``_at_rounding_level`` holds or its correction falls below
    2^-53 max(1, |z|); raises ConvergenceError, with the current
    approximations as ``best``, when some root meets neither test within
    ``maxsteps`` sweeps. A root at a critical point or on another root is
    moved by 1 + t(1 ± i), 0 <= t < 1e-8, or to t(1 ± i) where it is 0."""
    d = len(z)
    abs_cs = [abs(c) for c in cs]
    converged = [False] * d
    rnd = random.Random(1729)
    for _ in range(maxsteps):
        for i in range(d):
            if converged[i]:
                continue
            p, dp = _horner_pair(cs, z[i])
            if _at_rounding_level(p, abs_cs, z[i]):
                converged[i] = True
                continue
            if dp == 0:
                t = 1e-8 * (1 + 1j) * rnd.random()
                z[i] = z[i] * (1 + t) if z[i] else t
                continue
            newton = p / dp
            s = 0
            collide = False
            for j in range(d):
                if j == i:
                    continue
                diff = z[i] - z[j]
                if diff == 0:
                    collide = True
                    break
                s += 1 / diff
            if collide:
                t = 1e-8 * (1 - 1j) * rnd.random()
                z[i] = z[i] * (1 + t) if z[i] else t
                continue
            denom = 1 - newton * s
            w = newton if denom == 0 else newton / denom
            z[i] = z[i] - w
            if abs(w) <= 2.0**-53 * max(1, abs(z[i])):
                converged[i] = True
        if all(converged):
            return z
    raise ConvergenceError(
        f"{d - sum(converged)} of {d} roots did not converge in {maxsteps} Aberth sweeps",
        best=z,
    )


def _horner_fixed(A, x, y, S) -> tuple:
    """p(z) and p'(z) at z = (x + iy) 2^-S by a joint Horner scheme in Python
    integers, for the descending integers ``A`` of p at scale 2^-S (each a
    stands for a 2^-S); returns (P, Q, dP, dQ) for p(z) = (P + iQ) 2^-S and
    p'(z) = (dP + i dQ) 2^-S. Each step truncates by under sqrt(2) units of
    2^-S, so p(z) is off by under sqrt(2) sum_{k<d} |z|^k units, whatever
    the size of the coefficients."""
    p = q = dp = dq = 0
    for a in A:
        dp, dq = ((dp * x - dq * y) >> S) + p, ((dp * y + dq * x) >> S) + q
        p, q = ((p * x - q * y) >> S) + a, (p * y + q * x) >> S
    return p, q, dp, dq


def _aberth_fixed(A, z):
    """Aberth-Ehrlich sweeps in Python integers over the descending integers
    ``A`` of degree d from the start points ``z`` (nonzero mpc); returns the
    roots as mpc at the ambient precision prec.

    Each iterate is a pair of integers (X, Y) for (X + iY) 2^-S, where S is
    prec plus 20 + 2d guard bits, widened by log2 of the largest start and
    by -log2 of the smallest, so that the roots and the Aberth sums
    s = sum_j 1/(z - z_j) keep prec + 20 + 2d bits. Horner's pair
    (:func:`_horner_fixed`), s and the correction w = p / (p' - p s) (the
    Newton step p / p' over 1 - (p / p') s) are integer products, shifts and
    floor divisions. A root stops once |p(x)| is within four times the
    truncation bound of :func:`_horner_fixed`
    (MPSolve's rule, Bini & Fiorentino, Numer. Algorithms 23, 2000, restated
    for this arithmetic), or once |w| <= 2^-prec max(1, |x|). Raises
    ConvergenceError, with the current approximations as ``best``, when some
    root meets neither test within ``ABERTH_SWEEPS`` sweeps (the module
    constant, read at each call)."""
    d, prec = len(z), mp.mp.prec
    mags = [mp.mag(r) for r in z]
    S = prec + 20 + 2 * d + max([0, *mags]) + max([0, *(-m for m in mags)])
    one = 1 << S
    A = [a << S for a in A]
    X, Y = (list(t) for t in zip(*(_fixed(r, S) for r in z)))
    converged = [False] * d
    rnd = random.Random(1729)

    def jitter(i, sign):
        # z *= 1 + t (1 + sign i), 0 <= t < 2^-27, or z = t (1 + sign i)
        # where z = 0, which no factor moves
        t = rnd.getrandbits(20)
        x, y = (X[i], Y[i]) if X[i] or Y[i] else (one, 0)
        X[i] += ((x - sign * y) * t) >> 47
        Y[i] += ((y + sign * x) * t) >> 47

    for _ in range(ABERTH_SWEEPS):
        if all(converged):
            break
        for i in range(d):
            if converged[i]:
                continue
            x, y = X[i], Y[i]
            p, q, dp, dq = _horner_fixed(A, x, y, S)
            # sum_{k<d} |x|^k at scale 2^-S, |x| rounded up
            r = math.isqrt(x * x + y * y) + 1
            bound = one
            for _k in range(d - 1):
                bound = ((bound * r) >> S) + one
            if (p * p + q * q) << (2 * S) <= 16 * bound * bound:
                converged[i] = True
                continue
            if not (dp or dq):
                jitter(i, 1)
                continue
            sr = si = 0
            collide = False
            for j in range(d):
                if j == i:
                    continue
                ex, ey = x - X[j], y - Y[j]
                n = ex * ex + ey * ey
                if not n:
                    collide = True
                    break
                sr += (ex << (2 * S)) // n
                si -= (ey << (2 * S)) // n
            if collide:
                jitter(i, -1)
                continue
            er, ei = dp - ((p * sr - q * si) >> S), dq - ((p * si + q * sr) >> S)
            if not (er or ei):
                er, ei = dp, dq
            n = er * er + ei * ei
            wr = ((p * er + q * ei) << S) // n
            wi = ((q * er - p * ei) << S) // n
            X[i], Y[i] = x - wr, y - wi
            if (wr * wr + wi * wi) << (2 * prec) <= max(one * one, X[i] ** 2 + Y[i] ** 2):
                converged[i] = True
    roots = [_from_fixed(x, y, S) for x, y in zip(X, Y)]
    if not all(converged):
        raise ConvergenceError(
            f"{d - sum(converged)} of {d} roots did not converge in {ABERTH_SWEEPS} Aberth sweeps",
            best=roots,
        )
    return roots


def _strip_zero_roots(coeffs):
    """(coefficients without trailing zeros, number of zero roots)."""
    coeffs = list(coeffs)
    if not coeffs or coeffs[0] == 0:
        raise InputFormatError("leading coefficient must be nonzero")
    zero_roots = 0
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
        zero_roots += 1
    return coeffs, zero_roots


ABERTH_SWEEPS = 500


def aberth_roots(coeffs):
    """Aberth-Ehrlich simultaneous iteration for all complex roots, at the
    ambient precision prec.

    ``coeffs`` is a descending list of Python ints with nonzero leading
    coefficient; any other coefficient (a bool, float, Fraction or mpmath
    number) raises InputFormatError. Zero roots are stripped exactly and
    come last as exact zeros; the others are raw approximations, one per
    root with multiplicity.

    The iteration runs in two phases. The first, in built-in complex, is
    :func:`_roots_in_doubles`; its roots start the second, :func:`_aberth_fixed`,
    in Python integers on the exact coefficients, with fixed-point iterates
    at 2^-S for S of prec plus 20 + 2d guard bits, widened to the magnitudes
    of the starts. There a root stops once its correction falls below
    2^-prec max(1, |z|), so a root inside the unit disc is accurate relative
    to 1, as the point (z : 1) needs, or once |p(z)| is within the truncation
    error of fixed-point Horner at z, a few units of 2^-S times
    sum_{k<d} |z|^k: z is then an exact root of a polynomial within a few
    units of 2^-S, coefficient by coefficient, of the integral one. The Bini
    points start the second phase instead where doubles do not give exactly
    one finite nonzero start per root: a nonzero coefficient or a root
    underflows, or the first phase fails with no finite approximations.
    Raises ConvergenceError, with the current approximations (mpc) as
    ``best``, when some root meets neither test within ``ABERTH_SWEEPS``
    sweeps of the second phase (the module constant, read at each call).
    """
    for c in coeffs:
        if not isinstance(c, int) or isinstance(c, bool):
            raise InputFormatError(f"coefficient {c!r} is not a Python int")
    coeffs, zero_roots = _strip_zero_roots(coeffs)
    d = len(coeffs) - 1
    if d == 0:
        return [mp.mpc(0)] * zero_roots
    try:
        roots = _aberth_fixed(coeffs, _starts(coeffs))
    except ConvergenceError as exc:
        exc.best = exc.best + [mp.mpc(0)] * zero_roots
        raise
    return roots + [mp.mpc(0)] * zero_roots


def _starts(coeffs):
    """Start points for the second phase of :func:`aberth_roots` on the
    integer coefficients ``coeffs`` (no zero root): the roots in doubles, or
    the best approximations of a first phase that did not converge, when
    these are one finite nonzero point per root; otherwise the Bini points
    of the integers, whose radii may lie outside the double range. A root
    that is 0 in doubles has underflowed, and would give the fixed point of
    the second phase no scale."""
    try:
        z = _roots_in_doubles(coeffs)
    except ConvergenceError as exc:
        z = exc.best
    except ArithmeticError:
        z = None
    if z is None or not all(cmath.isfinite(r) and r for r in z):
        logs = [math.log2(abs(a)) if a else None for a in coeffs]
        return [mp.ldexp(1, math.floor(h)) * mp.mpc(2.0 ** (h % 1) * u) for h, u in _bini_initial_points(logs)]
    return [mp.mpc(r) for r in z]


def _doubles(*coeff_lists):
    """The lists of integers as built-in complex, all divided by one power
    of two that puts the largest entry near 2^52, so that no entry
    overflows."""
    scale = mp.ldexp(1, max(mp.mag(c) for cs in coeff_lists for c in cs) - 53)
    return [[complex(c / scale) for c in cs] for cs in coeff_lists]


def _roots_in_doubles(coeffs):
    """All complex roots of a polynomial (descending integer coefficients)
    in built-in complex: :func:`_aberth` at 53 bits, at most 100 sweeps,
    from the Bini points of the coefficients scaled by :func:`_doubles`,
    zero roots stripped exactly; a constant has no Bini point, and its
    empty sweep returns no root. Uncertified: it is the
    first phase of :func:`aberth_roots` and the root finder of the
    preconditioning passes. Raises ArithmeticError where a nonzero
    coefficient underflows to 0 in doubles or a start point overflows, and
    ConvergenceError as :func:`_aberth` does."""
    coeffs, zero_roots = _strip_zero_roots(coeffs)
    (cs,) = _doubles(coeffs)
    if any(c == 0 and a != 0 for a, c in zip(coeffs, cs)):
        raise ArithmeticError("a coefficient underflows in doubles")
    z = [2.0**h * u for h, u in _bini_initial_points([math.log2(abs(c)) if c else None for c in cs])]
    return _aberth(cs, z, 100) + [0j] * zero_roots


# ---------------------------------------------------------------------------
# curve intersection


@dataclass(frozen=True)
class RootSet:
    """Solution points with multiplicities and per-point residuals."""

    roots: tuple  # (ProjectivePoint, multiplicity, residual)
    singular: tuple  # per root: singular on both curves (decided exactly)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m, _ in self.roots)

    def cluster(self) -> PointCluster:
        pts = []
        for p, m, _ in self.roots:
            pts.extend([p] * m)
        return PointCluster(tuple(pts))


def _gate(forms, points) -> list:
    """The one test of the points a pipeline places: the residual of each of
    the ``points`` on the ``forms``, max_P |P(u)| / max_P ||P|| at its unit
    vector u by :meth:`MultiPoly.evaluate`. One at or above 2^(-prec/2) at
    the ambient precision is missing precision: :func:`short_of_precision`."""
    norm = max(P.coeff_norm() for P in forms)
    residuals = []
    for point in points:
        u = point.unit()
        resid = max(abs(P.evaluate(u)) for P in forms) / norm
        if resid >= half_eps():
            raise short_of_precision(f"residual {mp.nstr(resid, 5)} at {point} is not below 2^({-mp.mp.prec // 2})")
        residuals.append(resid)
    return residuals


def _binary_form_roots(F: MultiPoly, factors) -> tuple:
    """Root cluster in P^1 of a binary form F, multiplicities included, at
    the ambient precision, from its squarefree split ``factors`` =
    [(f(x0, x1), k)] (sympy Polys), so that the form is factored once, and
    the residual of each distinct point.

    The point (1 : 0) takes the degree drop of the dehomogenization
    p(t) = F(t, 1). Each factor of positive degree at x1 = 1 is a squarefree
    factor of p; :func:`aberth_roots` finds its simple roots (a factor t
    included: it strips zero roots exactly), and each root carries the
    factor's exact multiplicity k. Nothing is merged, since no two of these
    roots coincide. Each distinct point, (1 : 0) included, where F vanishes
    exactly, passes :func:`_gate` on F, and carries its residual.
    """
    d, e = F.total_degree(), F.degree_in(0)
    found = [(ProjectivePoint((1, 0)), d - e)] if e < d else []
    x1 = sp.Symbol("x1")
    for f, k in factors:
        f = f.eval(x1, 1)
        if f.degree() >= 1:
            found.extend((ProjectivePoint((r, 1)), k) for r in aberth_roots(_int_coeffs(f)))
    residuals = _gate((F,), [p for p, _ in found])
    cluster = PointCluster(tuple(p for p, k in found for _ in range(k)))
    assert cluster.degree == d
    return cluster, residuals


# the projections of an intersection in the order tried: the identity, the two
# coordinate cycles (all that the preconditioning passes try), then nine shears
_PROJECTIONS = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((-2, -2, 3), (0, -1, 1), (-1, 2, -1)),
    ((-3, 1, 0), (-2, 1, 0), (2, 2, -1)),
    ((-1, 0, -1), (1, 2, -2), (-2, -3, 2)),
    ((-2, -1, 2), (2, 2, -1), (-1, 1, 3)),
    ((3, -1, 2), (3, -2, 3), (1, 1, -1)),
    ((-2, 2, 1), (-1, -1, 0), (2, -3, -1)),
    ((-2, -2, -3), (1, -1, -2), (-3, 0, 1)),
    ((1, 0, 1), (3, 1, -2), (2, 0, 1)),
    ((1, -1, 1), (-3, -2, -2), (3, 3, 2)),
)


def curve_intersection(F: MultiPoly, G: MultiPoly) -> RootSet:
    """All intersection points of two coprime ternary curves, with multiplicity.

    The exact half (:func:`_projected`) tries the 12 fixed ``_PROJECTIONS``,
    the identity first, until one gives a clean elimination: after an
    integer shear S keeping (1:0:0) off both curves, one exact subresultant
    sequence in x0 of F(S x) and G(S x) at x2 = 1 gives the resultant R(β)
    and the subresultants S_j, and :func:`_fiber_parts` splits each
    squarefree factor of R (exact multiplicities) into parts whose fibers
    hold one point each, or the next projection is tried. The
    preconditioning passes of the ternary pipeline run the same half over
    the first three projections. The refinement (:func:`_refine`) finds the
    roots once per part, on β alone. A zero v of F(S x) and G(S x) is
    reported at S v with its residual on the sheared forms from
    :func:`_gate`, whose failure is missing precision, not a bad projection:
    no further shear. S is not returned, but the sequence is fixed, so
    the same call reproduces it. Points singular on both curves are flagged
    in ``singular``. Curves that share a component raise
    CommonComponentError from the first projection off both of them.
    """
    for P in (F, G):
        if P.nvars != 3:
            raise DimensionError("curve intersection needs ternary forms")
        if not P.is_homogeneous() or P.total_degree() < 1:
            raise InputFormatError("inputs must be homogeneous of positive degree")
    return _refine(*_projected(F, G, _PROJECTIONS))


class _ShearFailure(Exception):
    pass


_X0, _BETA = sp.symbols("x0 beta")


def _dehom(P: MultiPoly):
    """P(x0, β, 1) as an integer sympy Poly in (x0, β), denominators cleared."""
    d = {}
    for (a, b, _), c in P.terms:
        d[(a, b)] = d.get((a, b), 0) + sp.Rational(c)
    return sp.Poly.from_dict(d, _X0, _BETA).clear_denoms(convert=True)[1]


def _x0_coeffs(P) -> list:
    """Coefficients of P(x0, β) in x0, ascending, as Polys in β."""
    cs = [{} for _ in range(max(P.degree(_X0), 0) + 1)]
    for (a, b), c in P.as_dict().items():
        cs[a][(b,)] = c
    return [sp.Poly.from_dict(d or {(0,): 0}, _BETA) for d in cs]


def _int_coeffs(p) -> list:
    """Descending coefficients of a univariate Poly, scaled to coprime integers."""
    return [int(c) for c in p.clear_denoms(convert=True)[1].primitive()[1].all_coeffs()]


def _at(P, xi, h):
    """P(ξ(β), β) modulo h(β), by Horner's rule in x0."""
    acc = sp.Poly(0, _BETA, domain=sp.QQ)
    for c in reversed(_x0_coeffs(P)):
        acc = (acc * xi + c).rem(h)
    return acc


def _fiber_parts(f, mult, levels, Fd, Gd):
    """Split a squarefree factor f(β) of R, of multiplicity ``mult``, into
    (part, c, singular) by gcds with the leading coefficients c_j of
    ``levels``, S_j = Σ c_i(β) x0^i by degree, the last with a constant c_j:
    where c_j is the first that does not vanish, the fiber holds one point,
    x0 = ξ = −c[j−1]/(j c[j]) (x0 = −a0/a1 for j = 1). For j ≥ 2 the exact
    congruence S_j ≡ c_j (x0 − ξ)^j modulo the part certifies it, or
    _ShearFailure is raised, and points singular on both curves are split
    off by an exact gcd with the partials at ξ. A factor of multiplicity 1
    is one part with c from S_1, and no gcd: as (1:0:0) lies off both
    curves, the order of a root β of R is the sum of the intersection
    multiplicities on the fiber x1 = β, so order 1 is one transversal point,
    smooth on both curves, where F(x0, β) and G(x0, β), with constant
    leading coefficients, have a gcd of degree 1: c_1(β) ≠ 0."""
    if mult == 1:
        yield f, _x0_coeffs(levels[0]), False
        return
    for Sj in levels:
        if f.degree() < 1:
            return
        c = _x0_coeffs(Sj)
        j = len(c) - 1
        g = f.gcd(c[j])
        part, f = f.quo(g), g
        if part.degree() < 1:
            continue
        if j == 1:
            yield part, c, False
            continue
        h = part.to_field()
        xi = (-c[j - 1] * (j * c[j]).invert(h)).rem(h)
        # S_j = c_j (x0 - xi)^j iff its derivatives of order < j - 1 vanish at
        # xi (the one of order j - 1 does, by the choice of xi)
        if any(not _at(Sj.diff((_X0, k)) if k else Sj, xi, h).is_zero for k in range(j - 1)):
            raise _ShearFailure("two intersection points on one fiber")
        # F = 0 at the point, so by Euler's identity the x2-partial vanishes
        # with the other two
        s = h
        for P in (Fd, Gd):
            for v in (_X0, _BETA):
                s = s.gcd(_at(P.diff(v), xi, h))
        for sub, singular in ((h.quo(s), False), (s, True)):
            if sub.degree() > 0:
                yield sub, c, singular


def _fiber_point(c):
    """Integer coefficients (descending in β) of the numerator and the
    denominator of x0 = −c[j−1]/(j c[j]) on a fiber, j = len(c) − 1."""
    j = len(c) - 1
    return ([int(v) for v in p.all_coeffs()] for p in (c[j - 1], j * c[j]))


def _intersect_with_shear(F, G, S, d1, d2):
    """The exact half of the intersection of F and G from the projection S:
    (S, F(S x), G(S x), parts), one (part, k, c, singular) per part that
    :func:`_fiber_parts` splits from a squarefree factor, of multiplicity
    k, of the resultant R(β) of F(S x) and G(S x) at x2 = 1 in x0. Raises
    _ShearFailure where S gives no clean elimination."""
    if S != _PROJECTIONS[0]:
        F, G = substitute(F, S), substitute(G, S)
    if F.coeff((d1, 0, 0)) == 0 or G.coeff((d2, 0, 0)) == 0:
        raise _ShearFailure("projection center lies on a curve")
    Fd, Gd = _dehom(F), _dehom(G)
    # the last member of an abnormal sequence is not the resultant, so take
    # both from one call
    R, prs = Fd.resultant(Gd, includePRS=True)
    # with (1:0:0) off both curves each factor of each keeps its full degree
    # in x0, so the resultant vanishes exactly when the curves share a component
    if R.is_zero:
        raise CommonComponentError("curves share a common component")
    if R.degree() != d1 * d2:
        raise _ShearFailure("resultant dropped degree or has a root at infinity")
    levels = [P for P in reversed(prs[1:]) if P.degree(_X0) > 0]
    _, factors = R.sqf_list()
    return S, F, G, [(part, k, c, sing) for f, k in factors for part, c, sing in _fiber_parts(f, k, levels, Fd, Gd)]


def _projected(F, G, projections):
    """:func:`_intersect_with_shear` from the first clean one of ``projections``."""
    d1, d2 = F.total_degree(), G.total_degree()
    for S in projections:
        try:
            return _intersect_with_shear(F, G, S, d1, d2)
        except _ShearFailure as exc:
            failure = exc
    raise EliminationError(f"no projection produced a clean elimination: {failure}")


def _intersection_in_doubles(F: MultiPoly, G: MultiPoly) -> list:
    """Intersection points of two ternary curves in built-in complex, for a
    preconditioning pass: the exact half of :func:`curve_intersection` over
    the identity and the coordinate cycles, which keep the conditioning,
    unlike a shear; then each part's roots β by :func:`_roots_in_doubles`
    and x0 from its fiber formula, untested. EliminationError unless each
    part has multiplicity 1, one transversal point per root (never at a
    node); ConvergenceError or ArithmeticError where doubles do not do."""
    try:
        S, _, _, parts = _projected(F, G, _PROJECTIONS[:3])
        if any(k > 1 for _, k, _, _ in parts):
            raise EliminationError
    except EliminationError:
        raise EliminationError("no coordinate projection gives a squarefree resultant") from None
    points = []
    for part, _, c, _ in parts:
        num, den = _doubles(*_fiber_point(c))
        for beta in _roots_in_doubles(_int_coeffs(part)):
            v = (-_horner_pair(num, beta)[0] / _horner_pair(den, beta)[0], beta, 1)
            points.append([sum(S[k][a] * v[a] for a in range(3)) for k in range(3)])
    if not all(cmath.isfinite(c) for p in points for c in p):
        raise ArithmeticError("an intersection point is not finite in doubles")
    return points


def _fiber_points(num, den, roots):
    """x0 = -num(beta)/den(beta) as mpc at each of the ``roots`` beta, for the
    integer coefficients of :func:`_fiber_point`: :func:`_horner_fixed` at
    scale 2^-T, T = prec + 20 for the ambient precision prec, and one complex
    floor division. The truncation, under 2^-T sqrt(2) sum_{k<deg} |beta|^k,
    is below 2^-prec times the leading term where |beta| >= 1 and below
    2^-prec, against the point (x0, beta, 1) of norm at least 1, where
    |beta| < 1."""
    T = mp.mp.prec + 20
    num, den = ([a << T for a in cs] for cs in (num, den))
    out = []
    for beta in roots:
        x, y = _fixed(beta, T)
        p, q, *_ = _horner_fixed(num, x, y, T)
        r, s, *_ = _horner_fixed(den, x, y, T)
        n = r * r + s * s
        out.append(_from_fixed(-((p * r + q * s) << T) // n, -((q * r - p * s) << T) // n, T))
    return out


def _refine(S, Fs, Gs, parts):
    """The RootSet of the exact half (S, F(S x), G(S x), parts) of
    :func:`curve_intersection`, at the ambient precision: β by
    :func:`aberth_roots` on each part, x0 by :func:`_fiber_points`, and one
    call of :func:`_gate` on Fs and Gs over the points v = (x0, β, 1), each
    reported at S v with its residual. Every root of R, of degree d1 d2, is
    placed: no count."""
    found, singular = [], []
    for part, mult, c, sing in parts:
        betas = aberth_roots(_int_coeffs(part))
        for beta, x0 in zip(betas, _fiber_points(*_fiber_point(c), betas)):
            found.append((ProjectivePoint((x0, beta, 1)), mult))
            singular.append(sing)
    residuals = _gate((Fs, Gs), [v for v, _ in found])
    return RootSet(tuple(
        (ProjectivePoint(tuple(mp.fsum(S[k][a] * v.coords[a] for a in range(3)) for k in range(3))), mult, resid)
        for (v, mult), resid in zip(found, residuals)
    ), tuple(singular))
