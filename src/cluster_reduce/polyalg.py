"""Exact multivariate polynomials and multiprecision root finding.

MultiPoly stores a sparse exponent-to-coefficient map with exact integer or
rational coefficients. The exact layer (arithmetic, Hessians, resultants,
substitution) never rounds; the numeric layer (Aberth-Ehrlich iteration,
curve intersection) works at a caller-chosen binary precision with residual
certificates on every reported root.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath as mp
import sympy as sp

from ._precision import to_mpc, working_precision
from .cluster_core import PointCluster, ProjectivePoint
from .errors import (
    CommonComponentError,
    ConvergenceError,
    DimensionError,
    EliminationError,
    InputFormatError,
)
from .lattice import _int_det

_VAR_ALIASES = {"x": 0, "y": 1, "z": 2, "w": 3}


def _coerce_coeff(c):
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, str):
        return int(c) if "/" not in c else Fraction(c)
    if isinstance(c, sp.Integer):
        return int(c)
    if isinstance(c, sp.Rational):
        return Fraction(int(c.p), int(c.q))
    raise InputFormatError(f"coefficient {c!r} is not an exact integer or rational")


@dataclass(frozen=True)
class MultiPoly:
    """Sparse exact polynomial in ``nvars`` variables x0, x1, ..."""

    nvars: int
    terms: tuple  # tuple of (exponent tuple, coefficient), sorted, no zeros

    def __post_init__(self):
        clean = {}
        for exp, c in (self.terms.items() if isinstance(self.terms, dict) else self.terms):
            exp = tuple(int(e) for e in exp)
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
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, ())

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

    def as_dict(self) -> dict:
        return dict(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _binop(self, other, sign):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        if self.nvars != other.nvars:
            raise DimensionError("mixed variable counts")
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) + sign * c
        return MultiPoly(self.nvars, tuple(d.items()))

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return MultiPoly(self.nvars, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.nvars, tuple((e, c * other) for e, c in self.terms))
        if self.nvars != other.nvars:
            raise DimensionError("mixed variable counts")
        d = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                d[e] = d.get(e, 0) + c1 * c2
        return MultiPoly(self.nvars, tuple(d.items()))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def diff(self, var: int) -> "MultiPoly":
        d = {}
        for e, c in self.terms:
            if e[var] == 0:
                continue
            ne = tuple(v - 1 if i == var else v for i, v in enumerate(e))
            d[ne] = d.get(ne, 0) + c * e[var]
        return MultiPoly(self.nvars, tuple(d.items()))

    def primitive(self) -> "MultiPoly":
        """Divide by the integer content (sign preserved)."""
        if not self.terms:
            return self
        from math import gcd

        if any(isinstance(c, Fraction) for _, c in self.terms):
            return self
        g = 0
        for _, c in self.terms:
            g = gcd(g, abs(c))
        if g <= 1:
            return self
        return MultiPoly(self.nvars, tuple((e, c // g) for e, c in self.terms))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, values: Sequence) -> mp.mpc:
        """Numeric value at the given coordinates (mpmath arithmetic)."""
        vals = [to_mpc(v) for v in values]
        if len(vals) != self.nvars:
            raise DimensionError("wrong number of coordinates")
        total = mp.mpc(0)
        for e, c in self.terms:
            term = mp.mpc(int(c.numerator), 0) / int(c.denominator) if isinstance(c, Fraction) else mp.mpc(c)
            for v, k in zip(vals, e):
                if k:
                    term *= v**k
            total += term
        return total

    def coeff_norm(self):
        """Euclidean norm of the coefficient vector as an mpf."""
        return mp.sqrt(mp.fsum(mp.mpf(abs(int(c.numerator) if isinstance(c, Fraction) else c)) ** 2
                               / (int(c.denominator) ** 2 if isinstance(c, Fraction) else 1)
                               for _, c in self.terms)) if self.terms else mp.mpf(0)

    def univariate_coeffs(self, var: int, others: Sequence) -> list:
        """Coefficients (descending) of the polynomial in ``var`` obtained by
        substituting numeric values for every other variable."""
        vals = list(others)
        if len(vals) != self.nvars - 1:
            raise DimensionError("need values for every other variable")
        deg = max((e[var] for e, _ in self.terms), default=0)
        out = [mp.mpc(0)] * (deg + 1)
        for e, c in self.terms:
            term = mp.mpc(int(c.numerator), 0) / int(c.denominator) if isinstance(c, Fraction) else mp.mpc(c)
            vi = 0
            for i, k in enumerate(e):
                if i == var:
                    continue
                v = to_mpc(vals[vi])
                vi += 1
                if k:
                    term *= v**k
            out[deg - e[var]] += term
        return out

    # -- conversion and display -------------------------------------------

    def to_sympy(self):
        gens = sp.symbols(f"x0:{self.nvars}")
        d = {e: sp.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else sp.Integer(c)
             for e, c in self.terms}
        if not d:
            return sp.Poly(0, *gens)
        return sp.Poly.from_dict(d, *gens)

    @classmethod
    def from_sympy(cls, poly, nvars: int) -> "MultiPoly":
        if not isinstance(poly, sp.Poly):
            poly = sp.Poly(poly, *sp.symbols(f"x0:{nvars}"))
        terms = {}
        for exp, c in poly.as_dict().items():
            terms[tuple(exp)] = _coerce_coeff(sp.nsimplify(c) if not isinstance(c, (sp.Integer, sp.Rational)) else c)
        return cls(nvars, tuple(terms.items()))

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
    if token.startswith("x") and len(token) > 1 and token[1:].isdigit():
        return int(token[1:])
    if token in _VAR_ALIASES:
        return _VAR_ALIASES[token]
    raise InputFormatError(f"unknown variable {token!r}")


def _parse_poly_text(text: str, nvars: Optional[int]) -> MultiPoly:
    s = text.strip().replace("**", "^").replace("−", "-")
    if not s:
        raise InputFormatError("empty polynomial text")
    # split into signed terms (the format has no parentheses)
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
        coeff = Fraction(mtc.group("coeff")) if mtc.group("coeff") else Fraction(1)
        exps = {}
        if mtc.group("mono"):
            for fm in _FACTOR_RE.finditer(mtc.group("mono")):
                idx = _var_index(fm.group("var"))
                exps[idx] = exps.get(idx, 0) + int(fm.group("exp") or 1)
                max_var = max(max_var, idx)
        raw_terms.append((sgn * coeff, exps))
    if not raw_terms:
        raise InputFormatError(f"could not parse polynomial {text!r}")
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
    H = [[F.diff(i).diff(j) for j in range(3)] for i in range(3)]
    return (
        H[0][0] * (H[1][1] * H[2][2] - H[1][2] * H[2][1])
        - H[0][1] * (H[1][0] * H[2][2] - H[1][2] * H[2][0])
        + H[0][2] * (H[1][0] * H[2][1] - H[1][1] * H[2][0])
    )


def resultant(p: MultiPoly, q: MultiPoly, var: int) -> MultiPoly:
    """Exact resultant eliminating variable ``var`` (subresultant arithmetic).

    Follows the classical convention res(p, q) = lc(p)^deg(q) * prod q(roots
    of p); swapping the arguments multiplies by (-1)^(deg p * deg q). The
    backing computation normalizes the argument order, so the sign is
    restored here when p has the smaller degree.
    """
    if p.nvars != q.nvars:
        raise DimensionError("mixed variable counts")
    dp = p.degree_in(var)
    dq = q.degree_in(var)
    if dp < 1 or dq < 1:
        raise EliminationError(
            "both inputs must have positive degree in the eliminated variable; "
            "apply a linear change of variables first"
        )
    gens = sp.symbols(f"x0:{p.nvars}")
    res = sp.resultant(p.to_sympy().as_expr(), q.to_sympy().as_expr(), gens[var])
    out = MultiPoly.from_sympy(sp.Poly(res, *gens), p.nvars)
    if dp < dq and (dp * dq) % 2 == 1:
        out = -out
    return out


def substitute(F: MultiPoly, U) -> MultiPoly:
    """Exact linear substitution F(U x): row i of U replaces variable i."""
    rows = U.matrix if hasattr(U, "matrix") else [list(r) for r in U]
    n = F.nvars
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionError("substitution matrix size must equal nvars")
    linear = []
    for i in range(n):
        d = {}
        for j, v in enumerate(rows[i]):
            v = _coerce_coeff(v)
            if v:
                e = tuple(1 if t == j else 0 for t in range(n))
                d[e] = v
        linear.append(MultiPoly(n, tuple(d.items())))
    # cache powers of each substituted variable
    max_deg = [0] * n
    for e, _ in F.terms:
        for i, k in enumerate(e):
            max_deg[i] = max(max_deg[i], k)
    powers = []
    for i in range(n):
        plist = [MultiPoly.constant(n, 1)]
        for _ in range(max_deg[i]):
            plist.append(plist[-1] * linear[i])
        powers.append(plist)
    out = MultiPoly.zero(n)
    for e, c in F.terms:
        term = MultiPoly.constant(n, c)
        for i, k in enumerate(e):
            if k:
                term = term * powers[i][k]
        out = out + term
    return out


# ---------------------------------------------------------------------------
# numeric root finding


def _bini_initial_points(coeffs):
    """Starting points for the simultaneous iteration.

    Radii come from the upper convex hull of (k, log |a_k|); angles are spread
    uniformly with an irrational offset per hull segment to break symmetry.
    """
    d = len(coeffs) - 1
    pts = [(k, mp.log(abs(c))) for k, c in enumerate(reversed(coeffs)) if c != 0]
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
    seg = 0
    for (k1, h1), (k2, h2) in zip(hull, hull[1:]):
        r = mp.e ** ((h1 - h2) / (k2 - k1))
        width = k2 - k1
        for j in range(width):
            theta = 2 * mp.pi * (j + mp.mpf("0.25")) / width + mp.mpf("0.6180339887") * (seg + 1)
            out.append(r * (mp.cos(theta) + 1j * mp.sin(theta)))
        seg += 1
    return out[:d]


def _horner_pair(coeffs, x):
    """p(x) and p'(x) by a joint Horner scheme."""
    p = mp.mpc(0)
    dp = mp.mpc(0)
    for c in coeffs:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def _at_rounding_level(p, abs_coeffs, x, bits):
    """Stopping test of MPSolve: is |p(x)| within Horner's rounding error at x?

    Evaluating p at x with unit roundoff u = 2^-bits is off by up to about
    2d u sum |a_i| |x|^i, so once |p(x)| <= 4(d+1) u sum |a_i| |x|^i the point
    x is an exact root of a polynomial whose coefficients differ from p's by
    a few ulps, and no further iteration at this precision can improve it
    (Bini & Fiorentino, Numer. Algorithms 23, 2000). ``abs_coeffs`` are the
    descending |a_i|.
    """
    r = abs(x)
    bound = mp.mpf(0)
    for a in abs_coeffs:
        bound = bound * r + a
    return abs(p) <= 4 * len(abs_coeffs) * mp.ldexp(bound, -bits)


def aberth_roots(coeffs, prec=None, maxsteps=500):
    """Aberth-Ehrlich simultaneous iteration for all complex roots.

    ``coeffs`` is a descending coefficient list (exact numbers or mpmath
    values) with nonzero leading coefficient. Returns raw root approximations
    without multiplicity post-processing. Works at ``prec`` bits plus guard
    digits, followed by a Newton polish at the same working precision.

    A root stops once |p(z)| is within the rounding error of Horner's rule
    at z (``_at_rounding_level``) or its correction falls below
    2^-prec |z|. Raises ConvergenceError, with the current approximations as
    ``best``, when some root meets neither test within ``maxsteps`` sweeps.
    """
    with working_precision(prec):
        target_prec = mp.mp.prec
        cs = [to_mpc(c) for c in coeffs]
        if not cs or cs[0] == 0:
            raise InputFormatError("leading coefficient must be nonzero")
        zero_roots = 0
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
            zero_roots += 1
        coeffs = coeffs[: len(cs)]
        d = len(cs) - 1
        if d == 0:
            return [mp.mpc(0)] * zero_roots
        with mp.workprec(target_prec + 20 + 2 * d):
            bits = mp.mp.prec
            cs = [to_mpc(c) for c in coeffs]
            abs_cs = [abs(c) for c in cs]
            z = _bini_initial_points(cs)
            eps = mp.mpf(2) ** (-target_prec)
            converged = [False] * d
            rnd = random.Random(1729)
            for _ in range(maxsteps):
                if all(converged):
                    break
                for i in range(d):
                    if converged[i]:
                        continue
                    p, dp = _horner_pair(cs, z[i])
                    if _at_rounding_level(p, abs_cs, z[i], bits):
                        converged[i] = True
                        continue
                    if dp == 0:
                        z[i] *= 1 + mp.mpf("1e-8") * (1 + 1j) * rnd.random()
                        continue
                    newton = p / dp
                    s = mp.mpc(0)
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
                        z[i] *= 1 + mp.mpf("1e-8") * (1 - 1j) * rnd.random()
                        continue
                    denom = 1 - newton * s
                    w = newton if denom == 0 else newton / denom
                    z[i] = z[i] - w
                    if abs(w) <= eps * max(mp.mpf(1), abs(z[i])):
                        converged[i] = True
            if not all(converged):
                missed = d - sum(converged)
                raise ConvergenceError(
                    f"{missed} of {d} roots did not converge in {maxsteps} Aberth sweeps",
                    best=[mp.mpc(r) for r in z] + [mp.mpc(0)] * zero_roots,
                )
            # Newton polish at full working precision
            for i in range(d):
                z[i] = _newton_univariate(cs, z[i], bits, steps=6, eps=eps)
        return [mp.mpc(r) for r in z] + [mp.mpc(0)] * zero_roots


def _cluster_roots(roots, prec):
    """Merge roots closer than 2^(-prec/4); returns (center, count) pairs."""
    thresh = mp.mpf(2) ** (-prec // 4)
    items = list(roots)
    used = [False] * len(items)
    out = []
    for i, r in enumerate(items):
        if used[i]:
            continue
        group = [r]
        used[i] = True
        for j in range(i + 1, len(items)):
            if used[j]:
                continue
            if abs(items[j] - r) <= thresh * max(mp.mpf(1), abs(r)):
                group.append(items[j])
                used[j] = True
        center = mp.fsum(g.real for g in group) / len(group) + 1j * mp.fsum(
            g.imag for g in group
        ) / len(group)
        out.append((mp.mpc(center), len(group)))
    return out


def _poly_residual(coeffs, root):
    """|p(root)| / (||p|| * max(1, |root|)^deg)."""
    norm = mp.sqrt(mp.fsum(abs(c) ** 2 for c in coeffs))
    p, _ = _horner_pair(coeffs, root)
    return abs(p) / (norm * max(mp.mpf(1), abs(root)) ** (len(coeffs) - 1))


def univariate_roots(p: MultiPoly, prec=None, maxsteps=500):
    """All complex roots of an exact univariate polynomial, with multiplicity.

    Zero roots are stripped exactly; the rest is factored into squarefree
    parts (exact integer arithmetic) so the iteration only ever sees simple
    roots, then every root is verified against the normalized residual bound
    2^(-prec/2). Roots closer than the clustering threshold are merged.
    """
    if p.is_zero():
        raise InputFormatError("zero polynomial has no well-defined roots")
    active = [i for i in range(p.nvars) if p.degree_in(i) > 0]
    if len(active) > 1:
        raise DimensionError("polynomial is not univariate")
    with working_precision(prec):
        bits = mp.mp.prec
        if not active:
            raise InputFormatError("constant polynomial has no roots")
        var = active[0]
        coeffs_exact = _exact_univariate_coeffs(p, var)
        d = len(coeffs_exact) - 1
        # strip zero roots
        ztrail = 0
        while coeffs_exact and coeffs_exact[-1] == 0:
            coeffs_exact.pop()
            ztrail += 1
        result = []
        if ztrail:
            result.append((mp.mpc(0), ztrail))
        if len(coeffs_exact) > 1:
            spoly = sp.Poly(list(map(_fraction_to_sympy, coeffs_exact)), sp.Symbol("t"))
            _, factors = spoly.sqf_list()
            for fac, mult in factors:
                fac_coeffs = [_coerce_coeff(c) for c in fac.all_coeffs()]
                roots = aberth_roots(fac_coeffs, prec=bits, maxsteps=maxsteps)
                for r, extra in _cluster_roots(roots, bits):
                    result.append((r, mult * extra))
        full = [to_mpc(c) for c in coeffs_exact] + [mp.mpc(0)] * ztrail
        half = mp.mpf(2) ** (-bits // 2)
        for r, mult in result:
            if _poly_residual(full, r) >= half:
                raise EliminationError(
                    f"root {mp.nstr(r, 8)} failed the residual certificate"
                )
        assert sum(m for _, m in result) == d
        return result


def _fraction_to_sympy(c):
    if isinstance(c, Fraction):
        return sp.Rational(c.numerator, c.denominator)
    return sp.Integer(c)


def _exact_univariate_coeffs(p: MultiPoly, var: int) -> list:
    deg = p.degree_in(var)
    out = [0] * (deg + 1)
    for e, c in p.terms:
        out[deg - e[var]] += c
    return out


# ---------------------------------------------------------------------------
# curve intersection


@dataclass(frozen=True)
class RootSet:
    """Solution points with multiplicities and per-point residuals."""

    roots: tuple  # (ProjectivePoint, multiplicity, residual)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m, _ in self.roots)

    def cluster(self) -> PointCluster:
        pts = []
        for p, m, _ in self.roots:
            pts.extend([p] * m)
        return PointCluster(tuple(pts))

    def max_residual(self):
        return max((r for _, _, r in self.roots), default=mp.mpf(0))


def binary_form_roots(F: MultiPoly, prec=None) -> PointCluster:
    """Root cluster in P^1 of a binary form, multiplicities included.

    Finite roots come from the dehomogenization; the point (1 : 0) picks up
    the degree drop.
    """
    if F.nvars != 2:
        raise DimensionError("binary form must have exactly 2 variables")
    if F.is_zero():
        raise InputFormatError("zero form")
    if not F.is_homogeneous():
        raise InputFormatError("input must be homogeneous")
    d = F.total_degree()
    if d < 1:
        raise InputFormatError("degree must be at least 1")
    with working_precision(prec):
        # coefficients of t^k where t = x0 and x1 = 1
        coeffs = [0] * (d + 1)
        for (a, b), c in F.terms:
            coeffs[a] += c
        e = max(k for k in range(d + 1) if coeffs[k] != 0)
        points = []
        if e < d:
            points.extend([ProjectivePoint((1, 0))] * (d - e))
        if e > 0:
            dehom = MultiPoly(1, tuple(((k,), coeffs[k]) for k in range(e + 1) if coeffs[k]))
            for r, mult in univariate_roots(dehom, prec=mp.mp.prec):
                points.extend([ProjectivePoint((r, 1))] * mult)
        return PointCluster(tuple(points))


def _shears(rng, count):
    """The identity, then random shears; each is built only once the one
    before it has failed, so a seed always gives the same sequence."""
    yield [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(count - 1):
        yield _random_shear(rng, 3)


def _random_shear(rng, n):
    """Random unimodular integer matrix with entries in [-3, 3]."""
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.choice([1, -1]) if rows[i][i] == 0 else rows[i][i]
        if _int_det(rows) in (1, -1):
            return rows


def _newton_univariate(coeffs, x0, bits, steps=60, eps=None):
    """Newton's method from ``x0``, stopped by the same two tests as the
    Aberth sweep: ``_at_rounding_level`` at ``bits``, or a correction below
    ``eps`` |x| (default 2^(4-bits)). Returns the last iterate after at most
    ``steps`` corrections."""
    abs_coeffs = [abs(c) for c in coeffs]
    if eps is None:
        eps = mp.mpf(2) ** (-bits + 4)
    x = x0
    for _ in range(steps):
        p, dp = _horner_pair(coeffs, x)
        if dp == 0 or _at_rounding_level(p, abs_coeffs, x, bits):
            break
        step = p / dp
        x = x - step
        if abs(step) <= eps * max(mp.mpf(1), abs(x)):
            break
    return x


def _derivative_coeffs(coeffs):
    d = len(coeffs) - 1
    return [coeffs[i] * (d - i) for i in range(d)]


def curve_intersection(F: MultiPoly, G: MultiPoly, prec=None, seed=0, max_shears=12) -> RootSet:
    """All intersection points of two coprime ternary curves, with multiplicity.

    Eliminates the first variable by an exact resultant (after an integer
    shear when the coordinates are degenerate), factors the resultant into
    squarefree parts to obtain exact multiplicities, solves each fiber for the
    remaining coordinate and polishes with Newton at full precision. Every
    output point carries the normalized residual max(|F|, |G|)/||P||^deg.
    """
    for P in (F, G):
        if P.nvars != 3:
            raise DimensionError("curve intersection needs ternary forms")
        if not P.is_homogeneous() or P.total_degree() < 1:
            raise InputFormatError("inputs must be homogeneous of positive degree")
    d1, d2 = F.total_degree(), G.total_degree()
    gcd_poly = sp.gcd(F.to_sympy(), G.to_sympy())
    if sp.Poly(gcd_poly, *sp.symbols("x0:3")).total_degree() > 0:
        raise CommonComponentError("curves share a common component")
    with working_precision(prec):
        bits = mp.mp.prec
        last_error = None
        for S in _shears(random.Random(seed), max_shears):
            try:
                return _intersect_with_shear(F, G, S, d1, d2, bits)
            except _ShearFailure as exc:
                last_error = exc
                continue
        raise EliminationError(
            f"no shear produced a clean elimination: {last_error}"
        )


class _ShearFailure(Exception):
    pass


def _intersect_with_shear(F, G, S, d1, d2, bits) -> RootSet:
    Fs = substitute(F, S)
    Gs = substitute(G, S)
    if Fs.coeff((d1, 0, 0)) == 0 or Gs.coeff((d2, 0, 0)) == 0:
        raise _ShearFailure("projection center lies on a curve")
    R = resultant(Fs, Gs, 0).primitive()
    if R.is_zero():
        raise CommonComponentError("resultant vanished identically")
    D = d1 * d2
    if R.total_degree() != D or R.coeff((0, D, 0)) == 0:
        raise _ShearFailure("resultant dropped degree or has a root at infinity")
    t = sp.Symbol("t")
    spoly = sp.Poly(
        [_fraction_to_sympy(c) for c in _exact_univariate_coeffs(_dehom_resultant(R), 0)], t
    )
    _, factors = spoly.sqf_list()
    found = []
    half = mp.mpf(2) ** (-bits // 2)
    # a runner-up counts as a second intersection point only if it passes the
    # same certificate a true root would
    margin = half
    for fac, mult in factors:
        fac_coeffs = [_coerce_coeff(c) for c in fac.all_coeffs()]
        if len(fac_coeffs) < 2:
            continue
        betas = aberth_roots(fac_coeffs, prec=bits)
        for beta in betas:
            beta = _newton_univariate([to_mpc(c) for c in fac_coeffs], beta, bits)
            fiber_f = Fs.univariate_coeffs(0, [beta, mp.mpc(1)])
            fiber_g = Gs.univariate_coeffs(0, [beta, mp.mpc(1)])
            x0 = _solve_fiber(fiber_f, fiber_g, bits, margin)
            pt_sheared = (x0, beta, mp.mpc(1))
            # undo the shear: zeros of F(S x) map to original zeros via w = S v
            coords = tuple(
                mp.fsum(S[j][a] * pt_sheared[a] for a in range(3)) for j in range(3)
            )
            point = ProjectivePoint(coords)
            u = point.unit()
            resid = max(abs(F.evaluate(u)), abs(G.evaluate(u))) / max(
                F.coeff_norm(), G.coeff_norm()
            )
            if resid >= half:
                raise _ShearFailure(
                    f"residual {mp.nstr(resid, 5)} too large at beta={mp.nstr(beta, 8)}"
                )
            found.append((point, mult, resid))
    total = sum(m for _, m, _ in found)
    if total != D:
        raise _ShearFailure(f"recovered multiplicity {total} of {D}")
    return RootSet(tuple(found))


def _dehom_resultant(R: MultiPoly) -> MultiPoly:
    """R(x1, x2 = 1) as a univariate MultiPoly in one variable."""
    d = {}
    for (a, b, c), coeff in R.terms:
        assert a == 0
        d[(b,)] = d.get((b,), 0) + coeff
    return MultiPoly(1, tuple(d.items()))


def _solve_fiber(fiber_f, fiber_g, bits, margin):
    """The unique common root of the two fiber polynomials.

    Candidates are the roots of the first fiber polynomial scored by the
    normalized value of the second. Distinct resultant roots always live on
    distinct fibers (the multiplicity bookkeeping is exact), so the only
    failure mode is two genuine intersection points sharing one fiber: that
    shows up as two well-separated candidates scoring below the margin, and
    the shear is rejected. Polishing happens on the better-conditioned fiber,
    falling back to a derivative of the first when the point is singular on
    both curves.
    """
    # strip leading zeros that may appear from rounding of exact zeros
    while fiber_f and fiber_f[0] == 0:
        fiber_f = fiber_f[1:]
    while fiber_g and fiber_g[0] == 0:
        fiber_g = fiber_g[1:]
    if len(fiber_f) < 2:
        raise _ShearFailure("fiber polynomial degenerated")
    cands = aberth_roots(fiber_f, prec=bits)
    gnorm = mp.sqrt(mp.fsum(abs(c) ** 2 for c in fiber_g))
    scores = []
    for x in cands:
        val, _ = _horner_pair(fiber_g, x)
        scores.append(abs(val) / (gnorm * max(mp.mpf(1), abs(x)) ** (len(fiber_g) - 1)))
    order = sorted(range(len(cands)), key=lambda i: scores[i])
    best = order[0]
    sep = mp.mpf(2) ** (-bits // 4)
    for i in order[1:]:
        if scores[i] >= margin:
            break
        if abs(cands[i] - cands[best]) > sep * max(mp.mpf(1), abs(cands[best])):
            raise _ShearFailure("two intersection points on one fiber")
    x0 = cands[best]
    fnorm = mp.sqrt(mp.fsum(abs(c) ** 2 for c in fiber_f))
    _, dfv = _horner_pair(fiber_f, x0)
    _, dgv = _horner_pair(fiber_g, x0)
    relf = abs(dfv) / fnorm
    relg = abs(dgv) / gnorm
    thresh = mp.mpf(2) ** (-bits // 8)
    if max(relf, relg) > thresh:
        target = fiber_f if relf >= relg else fiber_g
        return _newton_univariate(target, x0, bits)
    # singular on both fibers: find the local multiplicity on fiber_f and
    # polish on the derivative with a simple root there
    cluster_radius = mp.mpf(2) ** (-bits // 4) * max(mp.mpf(1), abs(x0))
    mu = sum(1 for x in cands if abs(x - x0) <= cluster_radius)
    coeffs = list(fiber_f)
    for _ in range(max(mu - 1, 0)):
        coeffs = _derivative_coeffs(coeffs)
    center = mp.fsum(x.real for x in cands if abs(x - x0) <= cluster_radius)
    centeri = mp.fsum(x.imag for x in cands if abs(x - x0) <= cluster_radius)
    x0 = mp.mpc(center, centeri) / mu
    return _newton_univariate(coeffs, x0, bits)
