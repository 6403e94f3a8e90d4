"""Exact polynomial layer and multiprecision root finding."""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from cluster_reduce import (
    CommonComponentError,
    ConvergenceError,
    EliminationError,
    InputFormatError,
    MultiPoly,
    ProjectivePoint,
    aberth_roots,
    binary_form_roots,
    curve_intersection,
    hessian,
    resultant,
    substitute,
    univariate_roots,
)
from cluster_reduce import polyalg

from conftest import PENCIL_CUBIC, PENCIL_Q1, PENCIL_Q2, QUARTIC, QUARTIC_LLL, QUARTIC_REDUCED


def poly(text, nvars=None):
    return MultiPoly.from_text(text, nvars=nvars)


class TestMultiPoly:
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


class TestResultant:
    def test_product_of_values(self):
        # (x-1)(x-2) against (x-3): eliminating x leaves (3-1)(3-2) = 2
        p = poly("x0^2 - 3 x0 + 2", nvars=2)
        q = poly("x0 - 3", nvars=2)
        with pytest.raises(EliminationError):
            resultant(p, q, 1)  # q has degree 0 in x1
        r = resultant(p, q, 0)
        assert r == MultiPoly.constant(2, 2)

    def test_shared_factor_vanishes(self):
        p = poly("x0^2 - x1^2", nvars=2)
        q = poly("x0 - x1", nvars=2)
        assert resultant(p, q, 0).is_zero()

    def test_vs_companion_matrix_oracle(self, rnd):
        for _ in range(5):
            a = [rnd.randint(1, 6)] + [rnd.randint(-6, 6) for _ in range(3)]
            b = [rnd.randint(1, 6)] + [rnd.randint(-6, 6) for _ in range(3)]
            p = MultiPoly.from_dict(1, {(3 - i,): c for i, c in enumerate(a)})
            q = MultiPoly.from_dict(1, {(3 - i,): c for i, c in enumerate(b)})
            r = resultant(p, q, 0)
            # oracle: lead(p)^deg(q) * prod q(alpha) over eigenvalues of the
            # companion matrix of p
            comp = np.diag(np.ones(2), -1).astype(complex)
            comp[:, -1] = [-c / a[0] for c in reversed(a[1:])]
            eig = np.linalg.eigvals(comp)
            val = a[0] ** 3 * np.prod([np.polyval(b, al) for al in eig])
            got = int(r.coeff((0,)))
            assert abs(got - val) < 1e-4 * max(1.0, abs(val))

    def test_sign_swap(self, rnd):
        p = poly("x0^2 x1 + x0 - 1", nvars=2)
        q = poly("x0^3 - x1", nvars=2)
        a = resultant(p, q, 0)
        b = resultant(q, p, 0)
        assert a == b * ((-1) ** (2 * 3))
        # odd-degree pair flips sign
        p2 = poly("x0 - x1", nvars=2)
        assert resultant(p2, q, 0) == resultant(q, p2, 0) * ((-1) ** (1 * 3))

    def test_multiplicativity(self):
        p = poly("x0^2 - x1^2", nvars=2)
        r = poly("x0 + 2 x1", nvars=2)
        q = poly("x0^2 + x1^2", nvars=2)
        assert resultant(p * r, q, 0) == resultant(p, q, 0) * resultant(r, q, 0)


class TestUnivariateRoots:
    def test_x2_plus_1(self):
        roots = univariate_roots(poly("x0^2 + 1", nvars=1))
        vals = sorted([complex(r) for r, _ in roots], key=lambda z: z.imag)
        assert abs(vals[0] + 1j) < 1e-50
        assert abs(vals[1] - 1j) < 1e-50

    def test_planted_integers(self):
        # (x-1)(x-2)(x-3)(x-4)(x-5)
        p = MultiPoly.from_dict(1, {(5,): 1, (4,): -15, (3,): 85, (2,): -225, (1,): 274, (0,): -120})
        roots = univariate_roots(p, prec=212)
        got = sorted(mp.re(r) for r, _ in roots)
        for r, k in zip(got, range(1, 6)):
            assert abs(r - k) < mp.mpf("1e-20")

    def test_pencil_cubic_residuals(self):
        dehom = MultiPoly.from_dict(1, {(3 - i,): c for i, (e, c) in enumerate(sorted(PENCIL_CUBIC.terms, reverse=True))})
        roots = univariate_roots(dehom, prec=212)
        assert len(roots) == 3
        coeffs = [mp.mpf(c) for _, c in sorted(PENCIL_CUBIC.terms, reverse=True)]
        norm = mp.sqrt(mp.fsum(c**2 for c in coeffs))
        for r, mult in roots:
            assert mult == 1
            val = mp.polyval(coeffs, r)
            assert abs(val) / norm < mp.mpf("1e-30")

    def test_multiplicity_exact(self):
        # (x-1)^2 (x+2)
        p = MultiPoly.from_dict(1, {(3,): 1, (2,): 0, (1,): -3, (0,): 2})
        roots = sorted(univariate_roots(p), key=lambda t: mp.re(t[0]))
        assert [m for _, m in roots] == [1, 2]
        assert abs(roots[1][0] - 1) < mp.mpf("1e-30")

    def test_zero_roots_stripped_exactly(self):
        p = poly("x0^3 + x0^2", nvars=1)
        roots = sorted(univariate_roots(p), key=lambda t: mp.re(t[0]))
        assert [m for _, m in roots] == [1, 2]
        assert roots[1][0] == 0

    def test_coefficient_reconstruction(self, rnd):
        coeffs = [rnd.randint(1, 8)] + [rnd.randint(-8, 8) for _ in range(4)]
        p = MultiPoly.from_dict(1, {(4 - i,): c for i, c in enumerate(coeffs)})
        roots = univariate_roots(p, prec=212)
        assert sum(m for _, m in roots) == 4
        prod = [mp.mpc(coeffs[0])]
        for r, m in roots:
            for _ in range(m):
                prod = [a for a in prod] + [mp.mpc(0)]
                for i in range(len(prod) - 2, -1, -1):
                    prod[i + 1] -= r * prod[i]
        for got, want in zip(prod, coeffs):
            assert abs(got - want) < mp.mpf("1e-40")

    def test_zero_poly_rejected(self):
        with pytest.raises(InputFormatError):
            univariate_roots(MultiPoly.zero(1))

    def test_clustered_inexact_input(self):
        # double root given only approximately: aberth + clustering path
        roots = aberth_roots([mp.mpf(1), mp.mpf(-2), mp.mpf(1) + mp.mpf(2) ** -200], prec=150)
        assert len(roots) == 2
        for r in roots:
            assert abs(r - 1) < mp.mpf("1e-20")


class TestBinaryFormRoots:
    def test_xy(self):
        cluster = binary_form_roots(poly("x0 x1", nvars=2))
        assert cluster.degree == 2
        assert ProjectivePoint((0, 1)) in list(cluster.points)
        assert ProjectivePoint((1, 0)) in list(cluster.points)

    def test_double_root(self):
        cluster = binary_form_roots(poly("x0^2 - 2 x0 x1 + x1^2", nvars=2))
        assert cluster.degree == 2
        assert all(p == ProjectivePoint((1, 1)) for p in cluster.points)

    def test_pencil_cubic_conjugation_closed(self):
        cluster = binary_form_roots(PENCIL_CUBIC)
        assert cluster.degree == 3
        assert cluster.is_conjugation_fixed()

    def test_root_at_infinity(self):
        cluster = binary_form_roots(poly("x1^2 x0", nvars=2))
        pts = list(cluster.points)
        assert sum(1 for p in pts if p == ProjectivePoint((1, 0))) == 2
        assert sum(1 for p in pts if p == ProjectivePoint((0, 1))) == 1


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
            rs = curve_intersection(F, G, seed=count)
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

    def test_no_random_shear_built_when_identity_works(self, monkeypatch):
        calls = []
        real = polyalg._random_shear
        monkeypatch.setattr(
            polyalg, "_random_shear", lambda rng, n: calls.append(n) or real(rng, n)
        )
        rs = curve_intersection(PENCIL_Q1, PENCIL_Q2)
        assert rs.total_multiplicity == 4
        assert calls == []

    def test_lazy_shears_follow_the_seeded_sequence(self):
        import random

        rng = random.Random(5)
        eager = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
        eager += [polyalg._random_shear(rng, 3) for _ in range(11)]
        assert list(polyalg._shears(random.Random(5), 12)) == eager

    def test_shear_retry_when_projection_center_on_curve(self):
        # F vanishes at (1:0:0), so the identity projection is rejected and a
        # sheared coordinate system must be used
        F = poly("x y - z^2", nvars=3)
        G = poly("x^2 + y^2 - 3 z^2", nvars=3)
        rs = curve_intersection(F, G, seed=5)
        assert rs.total_multiplicity == 4
        for p, _, _ in rs.roots:
            u = p.unit()
            assert abs(F.evaluate(u)) < mp.mpf("1e-30")
            assert abs(G.evaluate(u)) < mp.mpf("1e-30")


class TestAberthInternals:
    def test_wide_magnitude_coefficients(self):
        # roots at 1e-3 and 1e3: the convex hull initialization must find both
        coeffs = [mp.mpf(1), -(mp.mpf(1000) + mp.mpf("0.001")), mp.mpf(1)]
        roots = aberth_roots(coeffs, prec=100)
        mags = sorted(abs(r) for r in roots)
        assert abs(mags[0] - mp.mpf("0.001")) < mp.mpf("1e-9")
        assert abs(mags[1] - 1000) < mp.mpf("1e-3")

    def test_leading_zero_rejected(self):
        with pytest.raises(InputFormatError):
            aberth_roots([mp.mpf(0), mp.mpf(1)], prec=50)

    def test_quartic_hessian_resultant_stops_at_rounding_level(self):
        # the degree-24 resultant of the reference quartic and its Hessian:
        # conditioning eats the guard bits, so a correction-size test alone
        # runs every root to maxsteps, while the Horner rounding test stops
        # them all within 90 sweeps
        import sympy as sp

        R = resultant(QUARTIC, hessian(QUARTIC), 0).primitive()
        coeffs = [0] * 25
        for (_, b, _), c in R.terms:
            coeffs[24 - b] += c
        sqf = sp.Poly(coeffs, sp.Symbol("t")).sqf_part()
        coeffs = [int(c) for c in sqf.all_coeffs()]
        assert len(coeffs) == 25
        roots = aberth_roots(coeffs, prec=424, maxsteps=150)
        assert len(roots) == 24
        with mp.workprec(424):
            exact = [mp.mpc(c) for c in coeffs]
            for r in roots:
                assert polyalg._poly_residual(exact, r) < mp.mpf(2) ** -212

    def test_nonconvergence_raises(self):
        # (x - 1)(x - 2)...(x - 6): one sweep cannot converge every root
        coeffs = [1, -21, 175, -735, 1624, -1764, 720]
        with pytest.raises(ConvergenceError) as info:
            aberth_roots(coeffs, prec=100, maxsteps=1)
        assert "of 6 roots did not converge" in str(info.value)
        assert len(info.value.best) == 6
