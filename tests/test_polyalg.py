"""Exact polynomial layer and multiprecision root finding."""

import itertools
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cluster_reduce import (
    CommonComponentError,
    ConvergenceError,
    DimensionError,
    EliminationError,
    InputFormatError,
    MultiPoly,
    ProjectivePoint,
    aberth_roots,
    curve_intersection,
    hessian,
    substitute,
)
from cluster_reduce import polyalg, reduce_binary_form
from cluster_reduce._precision import working_precision

from conftest import PENCIL_CUBIC, PENCIL_Q1, PENCIL_Q2, QUARTIC, QUARTIC_LLL, QUARTIC_REDUCED
from oracles import oracle_bini_initial_points, oracle_evaluate


def poly(text, nvars=None):
    return MultiPoly.from_text(text, nvars=nvars)


def _exact(x):
    """The exact rational value of an mpf (``man_exp`` drops the sign)."""
    m, e = x.man_exp
    return (-1 if x < 0 else 1) * sp.Integer(m) * sp.Rational(2) ** e


@st.composite
def _evaluation_cases(draw):
    """A polynomial in 1-3 variables of total degree at most 8, homogeneous
    or not, with integer and rational coefficients; a point whose
    coordinates have real and imaginary parts of 2^-300 to 2^300 in absolute
    value, or 0, as Fractions; and a working precision."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 8)] * n).filter(lambda e: sum(e) <= 8)
    coeff = st.one_of(
        st.integers(-(2**64), 2**64),
        st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
    )
    F = MultiPoly.from_dict(n, draw(st.dictionaries(exps, coeff.filter(bool), min_size=1, max_size=12)))
    part = st.one_of(
        st.just(Fraction(0)),
        st.builds(lambda m, q, k: Fraction(m, q) * Fraction(2) ** k,
                  st.integers(1, 2**40).flatmap(lambda m: st.sampled_from([m, -m])),
                  st.integers(1, 2**40), st.integers(-260, 260)),
    )
    point = draw(st.lists(st.tuples(part, part), min_size=n, max_size=n))
    return F, point, draw(st.sampled_from([53, 106, 212, 424]))


class TestMultiPoly:
    def test_evaluate_needs_one_coordinate_per_variable(self):
        with pytest.raises(DimensionError):
            QUARTIC.evaluate([1, 2])

    def test_text_round_trip(self):
        p = poly("3 * x0^2 x1 - x2^3 + 7", nvars=3)
        assert p.coeff((2, 1, 0)) == 3
        assert p.coeff((0, 0, 3)) == -1
        assert p.coeff((0, 0, 0)) == 7
        assert MultiPoly.from_text(p.to_text(), nvars=3) == p

    def test_xyz_aliases(self):
        p = poly("x^2 - 2 x y + y z", nvars=3)
        assert p.coeff((2, 0, 0)) == 1
        assert p.coeff((1, 1, 0)) == -2
        assert p.coeff((0, 1, 1)) == 1

    def test_rational_coefficients(self):
        p = poly("1/2 x0^2 - 3/4", nvars=1)
        assert p.coeff((2,)) == Fraction(1, 2)

    def test_arithmetic(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        assert (x + y) * (x - y) == x * x - y * y
        assert (x + y) ** 2 == x * x + 2 * (x * y) + y * y

    def test_diff(self):
        p = poly("x0^3 x1", nvars=2)
        assert p.diff(0) == poly("3 x0^2 x1", nvars=2)

    def test_homogeneous_flag(self):
        assert poly("x0^2 + x0 x1", nvars=2).is_homogeneous()
        assert not poly("x0^2 + x1", nvars=2).is_homogeneous()

    def test_garbage_rejected(self):
        with pytest.raises(InputFormatError):
            MultiPoly.from_text("3 $$ x0")

    def test_non_integer_exponent_rejected(self):
        # rejected, not truncated to x0 x1^2
        with pytest.raises(InputFormatError):
            MultiPoly(2, (((1.5, 2), 1),))

    @pytest.mark.parametrize(
        "terms", [(((1,), True),), (((True,), 3),)], ids=["boolean-coefficient", "boolean-exponent"]
    )
    def test_boolean_rejected(self, terms):
        # rejected, not read as the integer 1 (x0 and 3 x0 respectively)
        with pytest.raises(InputFormatError):
            MultiPoly(1, terms)

    @pytest.mark.parametrize(
        "value",
        ["1/0", "1.5", "abc", sp.Float("0.3333333333"), sp.Float("0.1")],
        ids=["1/0", "1.5", "abc", "sympy-float-0.3333333333", "sympy-float-0.1"],
    )
    def test_malformed_or_float_coefficient_rejected(self, value):
        # no rational is guessed for a float coefficient
        with pytest.raises(InputFormatError):
            MultiPoly(1, (((1,), value),))

    def test_sympy_rational_coefficient_read_exactly(self):
        (a,), (b,) = MultiPoly(1, (((1,), sp.Rational(1, 2)),)).terms, MultiPoly(1, (((1,), sp.Integer(3)),)).terms
        assert a == ((1,), Fraction(1, 2)) and b == ((1,), 3) and type(b[1]) is int

    def test_negative_exponent_rejected(self):
        with pytest.raises(InputFormatError, match="negative exponent"):
            MultiPoly(2, (((1, -1), 1),))

    def test_mixed_variable_counts_rejected(self):
        with pytest.raises(DimensionError, match="mixed variable counts"):
            MultiPoly.variable(2, 0) + MultiPoly.variable(3, 0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="negative power"):
            MultiPoly.variable(2, 0) ** -1

    def test_zero_polynomial(self):
        zero = MultiPoly(3, ())
        assert zero.degree_in(1) == zero.total_degree() == -1
        assert zero.height() == 0 and repr(zero) == "0"
        assert zero.evaluate([1, 2, 3]) == 0

    def test_constant_text_has_one_variable(self):
        assert MultiPoly.from_text("7") == MultiPoly.constant(1, 7)
        assert repr(poly("x0^2 - 3 x1")) == "x0^2 - 3 * x1"

    def test_string_coefficient_in_lowest_terms(self):
        # "6/3" is the integer 2, not a Fraction with denominator 1
        (term,) = MultiPoly(1, (((1,), "6/3"),)).terms
        assert term == ((1,), 2) and type(term[1]) is int

    @pytest.mark.parametrize("which", ["quartic", "hessian", "rational"])
    def test_evaluate_matches_exact_arithmetic(self, which):
        # the power tables give the exact value at a Gaussian-rational point
        # to the working precision
        F = {
            "quartic": QUARTIC,
            "hessian": hessian(QUARTIC),
            "rational": poly("1/3 x0^3 x2 - 5/7 x1^2 x2^2 + x0 x1 x2^2", nvars=3),
        }[which]
        point = [sp.Rational(3, 7) - sp.Rational(5, 11) * sp.I, sp.Rational(-13, 9) + sp.Rational(2, 5) * sp.I, 1]
        exact = sp.expand(F.to_sympy().as_expr().subs(dict(zip(sp.symbols("x0:3"), point))))

        def mpc(c):
            re, im = (sp.Rational(v) for v in sp.sympify(c).as_real_imag())
            return mp.mpc(mp.mpf(re.p) / re.q, mp.mpf(im.p) / im.q)

        with mp.workprec(424):
            want = mpc(exact)
            assert abs(F.evaluate([mpc(c) for c in point]) - want) <= mp.mpf(2) ** -400 * abs(want)

    @pytest.mark.parametrize("evaluate", [MultiPoly.evaluate, oracle_evaluate], ids=["integers", "mpmath"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_evaluation_cases())
    def test_evaluate_within_units_of_the_term_sum(self, evaluate, case):
        # sympy's exact value at the point the mpc coordinates hold is the
        # oracle; the error must be within a few units of 2^-prec
        # sum |c_e| |v^e|, for the fixed-point evaluation as for the mpmath
        # one it replaced, whatever the magnitudes of the coordinates
        F, point, prec = case
        with mp.workprec(prec):
            vals = [mp.mpc(mp.mpf(a.numerator) / a.denominator, mp.mpf(b.numerator) / b.denominator) for a, b in point]
            got = evaluate(F, vals)
        xs = [_exact(v.real) + sp.I * _exact(v.imag) for v in vals]
        exact = sp.expand(F.to_sympy().as_expr().subs(dict(zip(sp.symbols(f"x0:{F.nvars}"), xs)), simultaneous=True))
        re, im = (sp.Rational(t) for t in exact.as_real_imag())
        with mp.workprec(prec + 64):
            want = mp.mpc(mp.mpf(re.p) / re.q, mp.mpf(im.p) / im.q)
            size = mp.fsum(abs(mp.mpf(c.numerator) / c.denominator) * mp.fprod(abs(v) ** k for v, k in zip(vals, e))
                           for e, c in F.terms)
            assert abs(got - want) <= 8 * mp.mpf(2) ** -prec * size



def _coefficients():
    return st.one_of(
        st.integers(-30, 30),
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6)),
    )


@st.composite
def _ring_operands(draw):
    """Two polynomials in the same 1-3 variables, a scalar, a power, a variable
    and a substitution matrix, with integer and rational coefficients."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    p, q = (MultiPoly.from_dict(n, draw(st.dictionaries(exps, _coefficients(), max_size=5))) for _ in "pq")
    U = draw(st.lists(st.lists(_coefficients(), min_size=n, max_size=n), min_size=n, max_size=n))
    return p, q, draw(_coefficients()), draw(st.integers(0, 3)), draw(st.integers(0, n - 1)), U


def _expr(c):
    if isinstance(c, MultiPoly):
        return c.to_sympy().as_expr()
    return sp.Rational(c.numerator, c.denominator)


def _assert_canonical(p):
    exps = [e for e, _ in p.terms]
    assert exps == sorted(set(exps), reverse=True)
    for _, c in p.terms:
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


class TestRingDelegation:
    """MultiPoly's arithmetic against sympy's expression arithmetic, a separate code path."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(_ring_operands())
    def test_operations_match_expression_arithmetic(self, operands):
        p, q, c, k, var, U = operands
        P, Q, C = _expr(p), _expr(q), _expr(c)
        xs = sp.symbols(f"x0:{p.nvars}")
        linear = [sum(_expr(u) * x for u, x in zip(row, xs)) for row in U]
        cases = [
            (p + q, P + Q),
            (p - q, P - Q),
            (p + c, P + C),
            (p - c, P - C),
            (-p, -P),
            (p * q, P * Q),
            (p * c, P * C),
            (c * p, C * P),
            (p**k, P**k),
            (p.diff(var), sp.diff(P, xs[var])),
            (substitute(p, U), P.xreplace(dict(zip(xs, linear)))),
        ]
        for got, want in cases:
            _assert_canonical(got)
            assert got.nvars == p.nvars
            assert sp.expand(got.to_sympy().as_expr() - want) == 0


class TestHessian:
    def test_fermat_cubic(self):
        F = poly("x^3 + y^3 + z^3", nvars=3)
        assert hessian(F) == poly("216 x y z", nvars=3)

    def test_quadric_constant(self):
        F = poly("x^2 + y^2 + z^2 + x y", nvars=3)
        H = hessian(F)
        assert H.total_degree() == 0

    def test_quartic_degree(self):
        H = hessian(QUARTIC)
        assert H.total_degree() == 6
        assert QUARTIC.total_degree() * H.total_degree() == 24

    def test_chain_rule(self, rnd):
        for _ in range(3):
            F = MultiPoly.from_dict(3, {
                e: rnd.randint(-5, 5)
                for e in [(3, 0, 0), (2, 1, 0), (1, 1, 1), (0, 3, 0), (0, 0, 3), (1, 0, 2)]
            })
            if F.total_degree() != 3:
                continue
            U = [[2, 1, 0], [0, 1, 1], [1, 0, 1]]  # det 3
            det_u = 3
            lhs = hessian(substitute(F, U))
            rhs = substitute(hessian(F), U) * (det_u**2)
            assert lhs == rhs

    def test_non_homogeneous_rejected(self):
        with pytest.raises(InputFormatError):
            hessian(poly("x^2 + y", nvars=3))

    def test_binary_form_rejected(self):
        with pytest.raises(DimensionError):
            hessian(poly("x0^3 + x1^3", nvars=2))

    def test_linear_form_rejected(self):
        with pytest.raises(InputFormatError):
            hessian(poly("x + y + z", nvars=3))


def _form_roots(F, prec=None):
    """The root cluster of a binary form, from the squarefree split that
    :func:`reduce_binary_form` makes."""
    with working_precision(prec):
        return polyalg._binary_form_roots(F, F.to_sympy().sqf_list()[1])


def _finite_roots(cluster):
    """[(root, multiplicity)] of the points (r : 1), by real, then imaginary part."""
    roots = {}
    for p in cluster.points:
        if p.coords[1] == 1:
            roots[p.coords[0]] = roots.get(p.coords[0], 0) + 1
    return sorted(roots.items(), key=lambda t: (mp.re(t[0]), mp.im(t[0])))


class TestBinaryFormRoots:
    def test_x2_plus_y2(self):
        roots = _finite_roots(_form_roots(poly("x0^2 + x1^2", nvars=2)))
        assert [m for _, m in roots] == [1, 1]
        vals = sorted([complex(r) for r, _ in roots], key=lambda z: z.imag)
        assert abs(vals[0] + 1j) < 1e-50
        assert abs(vals[1] - 1j) < 1e-50

    def test_planted_integers(self):
        # (x0 - x1)(x0 - 2 x1)(x0 - 3 x1)(x0 - 4 x1)(x0 - 5 x1)
        F = MultiPoly.from_dict(2, {(5, 0): 1, (4, 1): -15, (3, 2): 85, (2, 3): -225, (1, 4): 274, (0, 5): -120})
        roots = _finite_roots(_form_roots(F, prec=212))
        assert [m for _, m in roots] == [1] * 5
        for (r, _), k in zip(roots, range(1, 6)):
            assert abs(r - k) < mp.mpf("1e-20")

    def test_pencil_cubic_residuals(self):
        roots = _finite_roots(_form_roots(PENCIL_CUBIC, prec=212))
        assert len(roots) == 3
        coeffs = [mp.mpf(c) for _, c in sorted(PENCIL_CUBIC.terms, reverse=True)]
        norm = mp.sqrt(mp.fsum(c**2 for c in coeffs))
        for r, mult in roots:
            assert mult == 1
            val = mp.polyval(coeffs, r)
            assert abs(val) / norm < mp.mpf("1e-30")

    def test_close_roots_stay_simple(self):
        # (x0 - x1)(2^60 x0 - (2^60 + 1) x1): two coprime squarefree roots
        # 2^-60 apart, far closer than 2^(-212/4), are two simple roots
        x0, x1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        roots = _finite_roots(_form_roots((x0 - x1) * (2**60 * x0 - (2**60 + 1) * x1), prec=212))
        assert [m for _, m in roots] == [1, 1]
        with mp.workprec(212):
            assert abs(roots[0][0] - 1) < mp.mpf(2) ** -150
            assert abs(roots[1][0] - 1 - mp.mpf(2) ** -60) < mp.mpf(2) ** -150

    def test_multiplicity_exact(self):
        # (x0 - x1)^2 (x0 + 2 x1)
        roots = _finite_roots(_form_roots(poly("x0^3 - 3 x0 x1^2 + 2 x1^3", nvars=2)))
        assert [m for _, m in roots] == [1, 2]
        assert abs(roots[1][0] - 1) < mp.mpf("1e-30")

    def test_zero_roots_stripped_exactly(self):
        roots = _finite_roots(_form_roots(poly("x0^3 + x0^2 x1", nvars=2)))
        assert [m for _, m in roots] == [1, 2]
        assert roots[1][0] == 0

    def test_coefficient_reconstruction(self, rnd):
        coeffs = [rnd.randint(1, 8)] + [rnd.randint(-8, 8) for _ in range(4)]
        F = MultiPoly.from_dict(2, {(4 - i, i): c for i, c in enumerate(coeffs)})
        roots = _finite_roots(_form_roots(F, prec=212))
        assert sum(m for _, m in roots) == 4
        prod = [mp.mpc(coeffs[0])]
        for r, m in roots:
            for _ in range(m):
                prod = [a for a in prod] + [mp.mpc(0)]
                for i in range(len(prod) - 2, -1, -1):
                    prod[i + 1] -= r * prod[i]
        for got, want in zip(prod, coeffs):
            assert abs(got - want) < mp.mpf("1e-40")

    def test_xy(self):
        cluster = _form_roots(poly("x0 x1", nvars=2))
        assert cluster.degree == 2
        assert ProjectivePoint((0, 1)) in list(cluster.points)
        assert ProjectivePoint((1, 0)) in list(cluster.points)

    def test_double_root(self):
        cluster = _form_roots(poly("x0^2 - 2 x0 x1 + x1^2", nvars=2))
        assert cluster.degree == 2
        assert all(p == ProjectivePoint((1, 1)) for p in cluster.points)

    def test_pencil_cubic_conjugation_closed(self):
        cluster = _form_roots(PENCIL_CUBIC)
        assert cluster.degree == 3
        assert cluster.is_conjugation_fixed()

    def test_root_at_infinity(self):
        cluster = _form_roots(poly("x1^2 x0", nvars=2))
        pts = list(cluster.points)
        assert sum(1 for p in pts if p == ProjectivePoint((1, 0))) == 2
        assert sum(1 for p in pts if p == ProjectivePoint((0, 1))) == 1

    def test_misplaced_root_fails_the_residual_certificate(self, monkeypatch):
        # one root of a stable cubic moved by 2^-40 at 212 bits is far
        # outside the gate's 2^-106, whatever the iteration reported
        real = polyalg.aberth_roots

        def moved(coeffs):
            roots = real(coeffs)
            return [roots[0] + mp.mpf(2) ** -40, *roots[1:]]

        monkeypatch.setattr(polyalg, "aberth_roots", moved)
        with pytest.raises(EliminationError, match="failed the residual certificate"):
            reduce_binary_form(poly("x0^3 + 2 x0^2 x1 - x0 x1^2 + 5 x1^3", nvars=2), prec=212)


class TestSubstitute:
    def test_identity(self):
        assert substitute(QUARTIC, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == QUARTIC

    def test_quartic_printed_transform(self):
        assert substitute(QUARTIC, QUARTIC_LLL) == QUARTIC_REDUCED

    def test_composition_law(self, rnd):
        F = MultiPoly.from_dict(2, {(2, 0): 3, (1, 1): -1, (0, 2): 2})
        U = [[1, 2], [0, 1]]
        V = [[1, 0], [-3, 1]]
        UV = [[1 * 1 + 2 * -3, 2], [-3, 1]]
        lhs = substitute(substitute(F, U), V)
        rhs = substitute(F, [[-5, 2], [-3, 1]])
        assert lhs == rhs

    def test_degree_preserved(self, rnd):
        F = QUARTIC
        U = [[2, 1, 0], [1, 1, 0], [0, 3, 1]]
        assert substitute(F, U).total_degree() == 4
        assert substitute(F, U).is_homogeneous()

    def test_size_mismatch_rejected(self):
        with pytest.raises(Exception):
            substitute(QUARTIC, [[1, 0], [0, 1]])


@st.composite
def _planted_pairs(draw):
    """Two ternary curves with (1:0:0) off both and coefficients in
    [-3, 3]: F of degree d1 and G = A F + L^2 N of degree d2, d1, d2 in
    {2, 3}, for a line L, so that G meets F with multiplicity 2 where L
    does and with multiplicity 1 on N, generically."""

    def form(d):
        exps = [e for e in itertools.product(range(d + 1), repeat=3) if sum(e) == d]
        cs = draw(st.lists(st.integers(-3, 3), min_size=len(exps), max_size=len(exps)))
        return MultiPoly.from_dict(3, dict(zip(exps, cs)))

    d1, d2 = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    F, L, N = form(d1), form(1), form(d2 - 2)
    G = L * L * N + (form(d2 - d1) * F if d2 >= d1 else 0)
    assume(F.coeff((d1, 0, 0)) != 0 and G.coeff((d2, 0, 0)) != 0)
    return F, G


class TestCurveIntersection:
    def test_line_pairs(self):
        F = poly("x^2 - y^2", nvars=3)
        G = poly("x^2 - z^2", nvars=3)
        rs = curve_intersection(F, G)
        assert rs.total_multiplicity == 4
        expect = [
            ProjectivePoint((1, 1, 1)),
            ProjectivePoint((1, 1, -1)),
            ProjectivePoint((1, -1, 1)),
            ProjectivePoint((1, -1, -1)),
        ]
        for e in expect:
            assert any(p == e for p, _, _ in rs.roots)

    def test_bezout_on_random_cubics(self, rnd):
        import sympy as sp

        count = 0
        while count < 3:
            exps = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (2, 1, 0), (0, 2, 1), (1, 0, 2)]
            F = MultiPoly.from_dict(3, {e: rnd.randint(-4, 4) for e in exps})
            G = MultiPoly.from_dict(3, {e: rnd.randint(-4, 4) for e in exps})
            if F.total_degree() != 3 or G.total_degree() != 3:
                continue
            if sp.Poly(sp.gcd(F.to_sympy(), G.to_sympy())).total_degree() > 0:
                continue
            rs = curve_intersection(F, G)
            assert rs.total_multiplicity == 9
            count += 1

    def test_conjugation_closure(self, rnd):
        F = poly("x^2 + y^2 + z^2", nvars=3)
        G = poly("x y + 2 z^2", nvars=3)
        rs = curve_intersection(F, G)
        assert rs.total_multiplicity == 4
        assert rs.cluster().is_conjugation_fixed()

    def test_common_component_rejected(self):
        F = poly("x^2 - y^2", nvars=3)
        G = poly("x^2 x0 - y^2 x0", nvars=3)  # (x - y)(x + y) x
        with pytest.raises(CommonComponentError):
            curve_intersection(F, G)

    def test_common_component_through_the_projection_center_rejected(self, tried_projections):
        # the shared line x1 = 0 passes through (1:0:0), which the identity
        # projects from, so the component is found from a later projection
        F = poly("x0^2 x1 + x1^3 + x1 x2^2", nvars=3)
        G = poly("x0 x1 + x1 x2", nvars=3)
        with pytest.raises(CommonComponentError):
            curve_intersection(F, G)
        n = len(tried_projections)
        assert n > 1 and tried_projections == list(polyalg._PROJECTIONS[:n])

    def test_tangent_line_multiplicity(self):
        # the line y = 0 is tangent to the conic x^2 = yz at (0:0:1)
        F = poly("x^2 - y z", nvars=3)
        G = MultiPoly.from_dict(3, {(0, 1, 0): 1})
        rs = curve_intersection(F, G)
        assert rs.total_multiplicity == 2
        assert len(rs.roots) == 1
        assert rs.roots[0][0] == ProjectivePoint((0, 0, 1))

    def test_tangent_conics_multiplicity(self):
        F = poly("x^2 - y z", nvars=3)
        G = poly("x^2 - 2 y z + y^2", nvars=3)
        rs = curve_intersection(F, G)
        assert rs.total_multiplicity == 4
        mults = sorted(m for _, m, _ in rs.roots)
        assert mults == [1, 1, 2]

    def test_only_the_identity_tried_when_it_works(self, tried_projections):
        rs = curve_intersection(PENCIL_Q1, PENCIL_Q2)
        assert rs.total_multiplicity == 4
        assert tried_projections == [polyalg._PROJECTIONS[0]]

    def test_residual_failure_is_missing_precision(self, monkeypatch, tried_projections):
        # a root moved by 1e-10 gives a residual near 2e-29, above the
        # 2^-106 = 1.2e-32 gate at 212 bits: more bits cure that, another
        # projection does not, so no projection but the identity is tried
        # and the error names the precision
        roots = polyalg.aberth_roots

        def moved(coeffs):
            first, *rest = roots(coeffs)
            return [first + mp.mpf(10) ** -10] + rest

        monkeypatch.setattr(polyalg, "aberth_roots", moved)
        with mp.workprec(212), pytest.raises(ConvergenceError, match="residual .* working precision of 212 bits"):
            curve_intersection(PENCIL_Q1, PENCIL_Q2)
        assert tried_projections == [polyalg._PROJECTIONS[0]]

    def test_two_points_on_one_fiber_rejected_exactly(self, monkeypatch, tried_projections):
        # x^2 - y^2, x^2 - z^2 meet in (1 : ±1 : ±1): the identity projection
        # puts two points on each fiber y = ±z
        F = poly("x^2 - y^2", nvars=3)
        G = poly("x^2 - z^2", nvars=3)
        identity = polyalg._PROJECTIONS[0]

        def no_root_finding(*args, **kwargs):
            raise AssertionError("root finding ran on a rejected shear")

        with monkeypatch.context() as m:
            m.setattr(polyalg, "aberth_roots", no_root_finding)
            # at 8 bits no tolerance could decide: the congruence is exact
            with mp.workprec(8), pytest.raises(polyalg._ShearFailure, match="two intersection points on one fiber"):
                polyalg._intersect_with_shear(F, G, identity, 2, 2)
        # the coordinate cycles, by the symmetry of the pair, do the same,
        # and the first shear resolves it
        tried_projections.clear()
        rs = curve_intersection(F, G)
        assert tried_projections == list(polyalg._PROJECTIONS[:4])
        assert rs.total_multiplicity == 4
        for e in [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]:
            assert any(p == ProjectivePoint(e) for p, _, _ in rs.roots)

    def test_one_factor_split_by_the_first_subresultant(self, monkeypatch, tried_projections):
        # a conic bitangent to the unit circle at (0:1:1), where the common
        # tangent y = z is the fiber, and at (1:0:1), where it is not: both
        # points have multiplicity 2, so one squarefree factor beta (beta - 1)
        # holds them, and a1 vanishes at beta = 1 only
        F = poly("x^2 + y^2 - z^2", nvars=3)
        G = poly("x^2 + x y + y^2 - x z - y z", nvars=3)
        degrees = []
        real = polyalg.aberth_roots
        monkeypatch.setattr(
            polyalg,
            "aberth_roots",
            lambda coeffs, **kw: degrees.append(len(coeffs) - 1) or real(coeffs, **kw),
        )
        rs = curve_intersection(F, G)
        assert tried_projections == [polyalg._PROJECTIONS[0]]
        assert degrees == [1, 1]
        assert sorted(m for _, m, _ in rs.roots) == [2, 2]
        for e in [(0, 1, 1), (1, 0, 1)]:
            assert any(p == ProjectivePoint(e) for p, _, _ in rs.roots)
        assert rs.singular == (False, False)

    def test_point_singular_on_both_curves_flagged(self):
        # two nodal cubics with nodes at (0:0:1) and no common tangent there:
        # the node has multiplicity 2 * 2 = 4 and is the only singular point
        F = poly("x^2 z - y^2 z + x^3", nvars=3)
        G = poly("x^2 z + y^2 z + y^3", nvars=3)
        rs = curve_intersection(F, G)
        assert rs.total_multiplicity == 9
        flagged = [(p, m) for (p, m, _), s in zip(rs.roots, rs.singular) if s]
        assert flagged == [(ProjectivePoint((0, 0, 1)), 4)]

    def test_projections_are_twelve_distinct_unimodular_matrices(self):
        from cluster_reduce.lattice import _int_det

        projections = polyalg._PROJECTIONS
        assert len(projections) == 12 == len(set(projections))
        assert projections[0] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert all(_int_det(S) in (1, -1) for S in projections)

    @pytest.mark.parametrize(
        "F, error",
        [(poly("x^2 + y^2"), DimensionError), (poly("x^2 + y z + z", nvars=3), InputFormatError)],
        ids=["binary", "not-homogeneous"],
    )
    def test_inputs_must_be_ternary_forms(self, F, error):
        with pytest.raises(error):
            curve_intersection(F, PENCIL_Q2)

    def test_no_clean_shear_is_an_elimination_error(self, monkeypatch):
        # every one of the 12 projections forced to fail, as a center on a
        # curve, a resultant of dropped degree or two points on one fiber
        # would: the intersection gives up with EliminationError
        tried = []

        def fails(F, G, S, d1, d2):
            tried.append(S)
            raise polyalg._ShearFailure("projection center lies on a curve")

        monkeypatch.setattr(polyalg, "_intersect_with_shear", fails)
        with pytest.raises(EliminationError, match="no projection produced a clean elimination: projection center"):
            curve_intersection(PENCIL_Q1, PENCIL_Q2)
        assert tried == list(polyalg._PROJECTIONS)

    def test_pass_in_doubles_rejects_a_point_that_is_not_finite(self, monkeypatch):
        # a root in doubles of a part of the resultant that overflows gives no
        # point; the preconditioning pass that called it stops there
        monkeypatch.setattr(polyalg, "_roots_in_doubles", lambda coeffs: [complex(math.inf, 0)] * (len(coeffs) - 1))
        with pytest.raises(ArithmeticError, match="not finite in doubles"):
            polyalg._intersection_in_doubles(QUARTIC, hessian(QUARTIC))

    def test_transversal_flexes_take_no_gcd(self, monkeypatch):
        # the 24 flexes of the reduced quartic are transversal points of the
        # curve and its Hessian, so its resultant is one factor of
        # multiplicity 1, which the exact half takes whole
        calls, gcd = [], sp.Poly.gcd
        monkeypatch.setattr(sp.Poly, "gcd", lambda f, g: calls.append((f, g)) or gcd(f, g))
        rs = curve_intersection(QUARTIC_REDUCED, hessian(QUARTIC_REDUCED))
        assert len(rs.roots) == rs.total_multiplicity == 24
        assert calls == []

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_planted_pairs())
    def test_simple_factor_is_coprime_to_the_first_subresultant(self, pair):
        # the oracle for the exact half's shortcut, from sympy's own
        # subresultants: where R(beta) has a factor of multiplicity 1, the
        # subresultant of degree 1 in x0 exists and its leading coefficient
        # c_1 is coprime to that factor, which the identity projection then
        # takes whole
        F, G = pair
        x0, x1, x2 = sp.symbols("x0:3")
        f, g = (P.to_sympy().as_expr().subs(x2, 1) for P in pair)
        R = sp.Poly(sp.resultant(f, g, x0), x1)
        assume(not R.is_zero)
        simple = [h for h, k in R.sqf_list()[1] if k == 1]
        if simple:
            (S1,) = [s for s in sp.subresultants(f, g, x0) if sp.degree(s, x0) == 1]
            c1 = sp.Poly(sp.Poly(S1, x0).coeff_monomial(x0), x1)
            assert all(sp.gcd(h, c1).degree() == 0 for h in simple)
        try:
            *_, parts = polyalg._intersect_with_shear(F, G, polyalg._PROJECTIONS[0], F.total_degree(), G.total_degree())
        except polyalg._ShearFailure:
            return
        whole = [part for part, k, _, _ in parts if k == 1]
        assert [p.monic().all_coeffs() for p in whole] == [h.monic().all_coeffs() for h in simple]

    def test_shear_retry_when_projection_center_on_curve(self):
        # F vanishes at (1:0:0), so the identity projection is rejected and a
        # sheared coordinate system must be used
        F = poly("x y - z^2", nvars=3)
        G = poly("x^2 + y^2 - 3 z^2", nvars=3)
        rs = curve_intersection(F, G)
        assert rs.total_multiplicity == 4
        for p, _, _ in rs.roots:
            u = p.unit()
            assert abs(F.evaluate(u)) < mp.mpf("1e-30")
            assert abs(G.evaluate(u)) < mp.mpf("1e-30")


def _hessian_resultant(F):
    """Descending integer coefficients of the squarefree part of the degree-24
    resultant in x0 of a ternary quartic and its Hessian."""
    R = F.to_sympy().resultant(hessian(F).to_sympy())  # a form in x1, x2
    sqf = R.eval(sp.Symbol("x2"), 1).sqf_part()
    coeffs = [int(c) for c in sqf.all_coeffs()]
    assert len(coeffs) == 25
    return coeffs


@st.composite
def _integer_polynomials(draw):
    """Descending integer coefficients of degree 1 to 30, entries of up to 64
    bits, with up to 3 zero roots planted."""
    d = draw(st.integers(1, 30))
    zeros = draw(st.integers(0, min(3, d - 1)))
    entry = st.integers(-(2**64), 2**64)
    middle = draw(st.lists(entry, min_size=d - zeros - 1, max_size=d - zeros - 1))
    ends = draw(st.lists(entry.filter(bool), min_size=2, max_size=2))
    return [ends[0], *middle, ends[1]] + [0] * zeros


class TestAberthInternals:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_integer_polynomials())
    def test_roots_match_numpy(self, coeffs):
        # numpy.roots, in doubles, is the oracle. Discs about its roots e_i
        # with radii d |W_i|, for the Weierstrass corrections
        # W_i = p(e_i) / (a_0 prod_{j != i} (e_i - e_j)), hold all the roots,
        # m of them in each connected union of m discs (Carstensen's
        # inclusion theorem), so each such union must hold as many roots of
        # the kernel. The roots of a real polynomial are closed under
        # conjugation to 2^(-prec/2), and planted zero roots are exact zeros
        prec = 106
        zeros = len(coeffs) - len(np.trim_zeros(coeffs, "b"))
        cs = coeffs[: len(coeffs) - zeros]
        with mp.workprec(prec):
            got = aberth_roots(coeffs)
            assert len(got) == len(coeffs) - 1
            assert all(r == 0 for r in got[len(cs) - 1:])
            got = got[: len(cs) - 1]
            for r in got:
                assert min(abs(mp.conj(r) - s) for s in got) <= mp.mpf(2) ** (-prec // 2) * max(1, abs(r))
        with mp.workprec(212):
            e = [mp.mpc(complex(x)) for x in np.roots([float(c) for c in cs])]
            d = len(e)
            radii = []
            for i in range(d):
                den = cs[0] * mp.fprod(e[i] - e[j] for j in range(d) if j != i)
                radii.append(d * abs(mp.polyval(cs, e[i]) / den) if den else mp.inf)
            component = list(range(d))
            for i in range(d):
                for j in range(i):
                    if abs(e[i] - e[j]) <= radii[i] + radii[j]:
                        old, new = component[i], component[j]
                        component = [new if c == old else c for c in component]
            count = {c: component.count(c) for c in component}
            for r in got:
                slack = mp.mpf(2) ** -90 * max(1, abs(r))
                inside = [component[i] for i in range(d) if abs(r - e[i]) <= radii[i] + slack]
                assert inside, f"root {r} lies in no disc"
                count[inside[0]] -= 1
            assert not any(count.values())

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_integer_polynomials())
    def test_bini_points_match_the_mpmath_oracle(self, coeffs):
        # the hull and points in math and cmath, as the first phase takes
        # them, against the mpmath computation at 53 bits they replaced
        cs = polyalg._doubles(polyalg._strip_zero_roots(coeffs)[0])[0]
        got = [2.0**h * u for h, u in polyalg._bini_initial_points([math.log2(abs(c)) if c else None for c in cs])]
        with mp.workprec(53):
            want = [complex(w) for w in oracle_bini_initial_points(cs)]
        assert len(got) == len(want) == len(cs) - 1
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-14 * abs(w)

    def test_fiber_points_match_horner_at_four_times_the_precision(self):
        # x0 = -num(beta)/den(beta) from fixed-point Horner at 212 bits
        # against mpmath's polyval at 848 bits, for roots of 2^-40 to 2^40
        rnd = random.Random(27)
        for _ in range(30):
            deg = rnd.randint(1, 24)
            num, den = ([rnd.randint(-(2**64), 2**64) for _ in range(deg + 1)] for _ in "nd")
            with mp.workprec(212):
                betas = [mp.mpc(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) * mp.mpf(2) ** rnd.randint(-40, 40)
                         for _ in range(5)]
                got = polyalg._fiber_points(num, den, betas)
            with mp.workprec(848):
                for beta, x0 in zip(betas, got):
                    want = -mp.polyval(num, beta) / mp.polyval(den, beta)
                    assert abs(x0 - want) <= mp.mpf(2) ** -200 * max(1, abs(want))

    def test_wide_magnitude_coefficients(self):
        # roots at 1e-3 and 1e3: the convex hull initialization must find both
        with mp.workprec(100):
            roots = aberth_roots([1000, -1000001, 1000])
            mags = sorted(abs(r) for r in roots)
            assert abs(mags[0] - mp.mpf("0.001")) < mp.mpf("1e-9")
            assert abs(mags[1] - 1000) < mp.mpf("1e-3")

    def test_roots_beyond_doubles_start_from_bini_points(self):
        # the roots 2^-1100 and 2^1100: the coefficients overflow doubles
        # unless scaled, and the root 2^1100 overflows even then, so they
        # give no finite start
        with mp.workprec(212):
            got = aberth_roots([2**1100, -(2**2200 + 1), 2**1100])
            assert len(got) == 2
            for want in (mp.mpf(2) ** -1100, mp.mpf(2) ** 1100):
                assert min(abs(r - want) for r in got) < mp.mpf(2) ** -200 * abs(want)

    def test_roots_near_two_to_the_600(self):
        # scaled into doubles, the leading coefficient of x^2 + 2^1200
        # underflows to 0, so the Bini points start. From those, the Aberth
        # sum at either root is about 2^-601, which floor-rounds to -1 unit
        # unless S is widened by log2 of the largest start; a Newton step of
        # about 2^600 turns that unit into a false stop
        with pytest.raises(ArithmeticError, match="underflows"):
            polyalg._roots_in_doubles([1, 0, 2**1200])
        with mp.workprec(212):
            got = aberth_roots([1, 0, 2**1200])
            for want in (mp.mpc(0, 2**600), mp.mpc(0, -(2**600))):
                assert min(abs(r - want) for r in got) < mp.mpf(2) ** -200 * 2**600

    def test_root_near_two_to_the_minus_1100(self):
        # 2^-200 relative accuracy at 2^-1100 needs S >= prec + 1100, so S is
        # widened by log2 of the smallest start; the root underflows to 0 in
        # doubles, so the Bini points start
        with mp.workprec(212):
            (got,) = aberth_roots([2**1100, -1])
            assert abs(got - mp.mpf(2) ** -1100) < mp.mpf(2) ** -1300

    def test_quartic_hessian_resultant_starts_from_its_roots_in_doubles(self, monkeypatch):
        # the exact pass of the reference quartic: from its roots in doubles
        # all 24 roots stop within 4 sweeps at 424 bits (15 from the Bini
        # points)
        coeffs = _hessian_resultant(QUARTIC_REDUCED)
        monkeypatch.setattr(polyalg, "ABERTH_SWEEPS", 5)
        with mp.workprec(424):
            roots = aberth_roots(coeffs)
        assert len(roots) == 24

    def test_leading_zero_rejected(self):
        with pytest.raises(InputFormatError, match="leading coefficient"):
            aberth_roots([0, 1])

    def test_clustered_inexact_input(self):
        # a double root at 1 moved apart: 2^200 (x - 1)^2 + 1 has two roots
        # 2^-100 = 7.9e-31 from 1, and aberth_roots returns both
        with mp.workprec(150):
            roots = aberth_roots([2**200, -(2**201), 2**200 + 1])
            assert len(roots) == 2
            for r in roots:
                assert abs(r - 1) < mp.mpf("1e-20")

    @pytest.mark.parametrize(
        "bad",
        [1.5, True, Fraction(1, 2), mp.mpf(1), mp.mpc(1, 1), mp.inf, mp.nan, mp.mpc(1, mp.inf)],
        ids=["float", "bool", "fraction", "mpf", "mpc", "inf", "nan", "complex-inf"],
    )
    def test_non_integer_coefficient_rejected(self, bad):
        # every pipeline passes coprime Python ints; no other number is read
        with pytest.raises(InputFormatError, match="is not a Python int"):
            aberth_roots([1, bad])

    def test_quartic_hessian_resultant_stops_at_rounding_level(self, monkeypatch):
        # the degree-24 resultant of the reference quartic and its Hessian:
        # conditioning eats the guard bits, so a correction-size test alone
        # runs every root to the sweep cap, while the Horner rounding test stops
        # them all
        coeffs = _hessian_resultant(QUARTIC)
        monkeypatch.setattr(polyalg, "ABERTH_SWEEPS", 150)
        with mp.workprec(424):
            roots = aberth_roots(coeffs)
            assert len(roots) == 24
            exact = [mp.mpf(c) for c in coeffs]
            norm = mp.sqrt(mp.fsum(c**2 for c in exact))
            for r in roots:
                residual = abs(mp.polyval(exact, r)) / (norm * max(1, abs(r)) ** 24)
                assert residual < mp.mpf(2) ** -212

    def test_doubles_move_a_start_at_a_critical_point_and_coincident_starts(self):
        # x^3 - 3x has p'(1) = 0, so the start 1 takes no Newton step, and the
        # two starts at 2 give no Aberth sum: each is moved by a jitter, and
        # the sweeps go on to 0 and +-sqrt(3)
        roots = polyalg._aberth([1, 0, -3, 0], [1 + 0j, 2 + 0j, 2 + 0j], 100)
        for got, want in zip(sorted(roots, key=lambda z: z.real), (-math.sqrt(3), 0, math.sqrt(3))):
            assert abs(got - want) < 1e-12

    def test_doubles_move_a_start_at_zero(self):
        # 0 is the critical point of x^2 + 1: a jitter that multiplies the
        # iterate would leave it there
        roots = polyalg._aberth([1, 0, 1], [0j, 2 + 1j], 100)
        assert sorted(roots, key=lambda z: z.imag) == pytest.approx([-1j, 1j], abs=1e-12)

    def test_fixed_point_sweeps_move_an_iterate_at_zero(self):
        # x^3 + 2 from 1, -i and i: at 1, p = p' = 3 and the Aberth sum is
        # exactly 1, so p' - p s = 0 and Newton's step lands on 0, the
        # critical point, which a jitter must move off
        with mp.workprec(106):
            roots = polyalg._aberth_fixed([1, 0, 0, 2], [mp.mpc(1), mp.mpc(0, -1), mp.mpc(0, 1)])
            assert all(abs(r**3 + 2) < mp.mpf(2) ** -100 for r in roots)
            assert len({mp.nstr(r, 10) for r in roots}) == 3

    def test_doubles_raise_with_the_current_approximations(self):
        starts = [4 + 1j, -4 + 1j, 3j]
        with pytest.raises(ConvergenceError, match="of 3 roots did not converge in 1 Aberth sweeps") as info:
            polyalg._aberth([1, 0, -3, 0], list(starts), 1)
        assert len(info.value.best) == 3 and info.value.best != starts

    def test_constant_in_doubles_has_no_roots_but_its_zero_roots(self):
        assert polyalg._roots_in_doubles([5]) == []
        assert polyalg._roots_in_doubles([5, 0, 0]) == [0j, 0j]

    @pytest.mark.parametrize(
        "starts",
        [(4, 10), (3, -1)],
        ids=["critical-point", "zero-aberth-denominator"],
    )
    def test_fixed_point_sweeps_recover_from_degenerate_starts(self, starts):
        # (x - 1)(x - 7): p'(4) = 0 takes no Newton step, so the start moves
        # by a jitter. From 3 and -1, p'/p = 1/4 = 1/(3 - (-1)) at 3 makes
        # p' - p s exactly 0, so the step is Newton's p/p' = 4; it lands on
        # the other start, which the collision then moves by a jitter
        with mp.workprec(106):
            roots = polyalg._aberth_fixed([1, -8, 7], [mp.mpc(z) for z in starts])
            assert sorted(mp.nint(r.real) for r in roots) == [1, 7]
            assert all(min(abs(r - 1), abs(r - 7)) < mp.mpf(2) ** -100 for r in roots)

    def test_fixed_point_step_lands_on_the_other_start(self, monkeypatch):
        # the Newton fallback above, seen after one sweep: the first iterate
        # moved from 3 to -1, onto the second start, and the second was jittered
        monkeypatch.setattr(polyalg, "ABERTH_SWEEPS", 1)
        with mp.workprec(106), pytest.raises(ConvergenceError) as info:
            polyalg._aberth_fixed([1, -8, 7], [mp.mpc(3), mp.mpc(-1)])
        first, second = info.value.best
        assert first == -1 and second != -1 and abs(second + 1) < mp.mpf(2) ** -26

    def test_nonconvergence_raises(self, monkeypatch):
        # (x - 1)(x - 2)...(x - 6): one sweep cannot converge every root
        coeffs = [1, -21, 175, -735, 1624, -1764, 720]
        monkeypatch.setattr(polyalg, "ABERTH_SWEEPS", 1)
        with mp.workprec(100), pytest.raises(ConvergenceError) as info:
            aberth_roots(coeffs)
        assert "of 6 roots did not converge" in str(info.value)
        assert len(info.value.best) == 6
