"""End-to-end pipelines: clusters, binary forms, pencils, ternary forms."""

import functools
import operator
import os
import pathlib
import random
from fractions import Fraction
import subprocess
import sys

import mpmath as mp
import pytest

from cluster_reduce import (
    ConvergenceError,
    DegeneratePencilError,
    GramMatrix,
    HermitianForm,
    MultiPoly,
    PointCluster,
    ProjectivePoint,
    RealityError,
    StabilityError,
    act,
    classify,
    congruence,
    grad_D,
    is_lll_reduced,
    normalize_cluster,
    pencil_cubic,
    reduce_binary_form,
    reduce_cluster,
    reduce_quadric_pencil,
    reduce_ternary_form,
    substitute,
)
from cluster_reduce.errors import (
    ClusterReduceError,
    CommonComponentError,
    InputFormatError,
)

from cluster_reduce import cluster_core, covariant, pipelines, polyalg
from cluster_reduce.polyalg import _binary_form_roots, curve_intersection, hessian
from conftest import (
    PENCIL_CUBIC,
    PENCIL_FINAL_1,
    PENCIL_FINAL_2,
    PENCIL_LLL,
    PENCIL_Q1,
    PENCIL_Q2,
    QUARTIC,
    QUARTIC_LLL,
    QUARTIC_REDUCED,
    REDUCED_BINARY_CUBIC,
    matrices_close_mod_scaling,
    pair_matches_up_to_signed_permutation,
    random_real_cluster,
    random_unimodular_int,
)
from oracles import oracle_classify, oracle_int_det


def poly(text, nvars=None):
    return MultiPoly.from_text(text, nvars=nvars)


def cluster_of(*coords):
    return PointCluster(tuple(ProjectivePoint(c) for c in coords))


def forms_equal_up_to_sign(a, b):
    return a == b or a == -b


def int_cluster_height(cluster):
    h = 0
    for p in cluster.points:
        for c in p.coords:
            h = max(h, int(mp.nint(abs(c))))
    return h


class TestReduceCluster:
    def test_standard_simplex_already_reduced(self):
        Z = cluster_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
        report = reduce_cluster(Z)
        assert report.transform.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert report.reduced == Z
        assert is_lll_reduced(report.reduced_gram)

    def test_transform_determinant_one(self, rnd):
        Z = cluster_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3))
        V = random_unimodular_int(rnd, 3, max_entry=40)
        distorted = act(Z, [[mp.mpf(v) for v in row] for row in _inv_transpose(V)])
        report = reduce_cluster(distorted)
        assert report.transform.det() == 1

    def test_plant_and_recover(self, rnd):
        Z = cluster_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, -2, 3))
        base = reduce_cluster(Z).reduced
        h0 = int_cluster_height(base)
        V = random_unimodular_int(rnd, 3, max_entry=500)
        distorted = act(base, [[mp.mpf(v) for v in row] for row in _inv_transpose(V)])
        rec = reduce_cluster(distorted)
        assert int_cluster_height(rec.reduced) <= 2 * h0
        # the recovered covariant is the undistorted one up to the stabilizer
        assert is_lll_reduced(rec.reduced_gram)

    def test_size_reduction_tie_is_decided_by_the_exact_covariant(self):
        # the covariant's Gram has mu = 1/2 exactly; the covariant must be
        # accurate inside LLL's 2^(-prec/2) tie window so that the tie rule
        # (toward zero) decides, not the sign of the solver's error
        Z = cluster_of((343, 1838), (-131, -702), (145, 777), (251, 1345))
        report = reduce_cluster(Z)
        assert report.transform.matrix == ((145, -53), (777, -284))
        assert report.diagnostics["gradient_norm"] < mp.mpf(2) ** (-mp.mp.prec // 2)
        assert report.diagnostics["newton_stop"] == "tol"

    def test_ill_conditioned_covariant_stops_at_its_resolution(self):
        # planted by a unimodular matrix whose inverse has entries up to 10^8,
        # so the covariant has kappa ~ 2^81: at 212 bits its gradient cannot
        # be driven below about 2^-145, above the pipelines' 2^-159, and the
        # solver stops at the resolution of Q instead of running 1000
        # iterations into ConvergenceError
        Z = cluster_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3))
        planted = act(Z, [[10001, 100, 0], [100, 10001, 100], [0, 100, 1]])
        report = reduce_cluster(planted)
        assert report.diagnostics["iterations"] <= 20
        assert report.diagnostics["gradient_norm"] > mp.mpf(2) ** -159
        assert report.diagnostics["newton_stop"] == "resolution"
        assert int_cluster_height(report.reduced) <= 1

    def test_unstable_rejected(self):
        Z = cluster_of((1, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1))
        with pytest.raises(StabilityError):
            reduce_cluster(Z)

    def test_complex_cluster_rejected(self):
        Z = cluster_of((mp.mpc(0, 1), 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1))
        with pytest.raises(RealityError):
            reduce_cluster(Z)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_n_plus_2_points_take_the_closed_form(self, rnd, n):
        from cluster_reduce import minimize, simplex_covariant

        Z = random_real_cluster(rnd, n, n + 2)
        closed = simplex_covariant(Z).mat()
        report = reduce_cluster(Z)
        assert report.diagnostics["iterations"] == 0
        assert matrices_close_mod_scaling(report.covariant.mat(), closed, mp.mpf("1e-20"))
        # minimize itself starts from the closed form, where Newton stops at once
        res = minimize(Z)
        assert res.iterations == 0
        assert matrices_close_mod_scaling(res.z.mat(), closed, mp.mpf("1e-20"))
        assert abs(report.diagnostics["theta"] - res.theta) < mp.mpf("1e-20")

    def test_reduced_cluster_covariant_is_reduced_gram(self):
        # acting by U^(-T) moves the covariant to U^T G U
        Z = cluster_of((3, 1, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 5, 1))
        report = reduce_cluster(Z)
        from cluster_reduce import minimize

        z2 = minimize(report.reduced).z
        got = GramMatrix.from_matrix(z2.mat())
        assert matrices_close_mod_scaling(got.mat(), report.reduced_gram.mat(), mp.mpf("1e-8"))


def _inv_transpose(V):
    from cluster_reduce import UnimodularTransform

    return UnimodularTransform(tuple(tuple(r) for r in V)).inverse_transpose().matrix


class TestReduceBinaryForm:
    def test_pencil_cubic_reduction(self):
        report = reduce_binary_form(PENCIL_CUBIC)
        # the printed transform has columns (-21, 8), (-8, 3); column signs of
        # an LLL basis are a documented ambiguity, so compare up to them
        U = report.transform.matrix
        expect = ((-21, -8), (8, 3))
        assert _same_up_to_column_signs(U, expect)
        assert forms_equal_up_to_sign(report.reduced, REDUCED_BINARY_CUBIC) or _cols_differ_by_sign_result(
            report.reduced, REDUCED_BINARY_CUBIC
        )
        assert report.diagnostics["height_after"] <= 112
        assert is_lll_reduced(report.reduced_gram)

    def test_sum_of_cubes_already_reduced(self):
        F = poly("x0^3 + x1^3", nvars=2)
        report = reduce_binary_form(F)
        # symmetry forces the covariant to be a multiple of the identity
        cluster = report.extras["root_cluster"]
        G = grad_D(normalize_cluster(cluster), HermitianForm.from_matrix(mp.eye(2)))
        assert G.norm() < mp.mpf("1e-30")
        assert matrices_close_mod_scaling(report.covariant.mat(), mp.eye(2), mp.mpf("1e-25"))
        assert forms_equal_up_to_sign(report.reduced, F)

    def test_double_root_unstable(self):
        F = poly("x0^2 x1", nvars=2)
        with pytest.raises(StabilityError):
            reduce_binary_form(F)

    def test_round_trip(self):
        report = reduce_binary_form(PENCIL_CUBIC)
        back = substitute(report.reduced, report.transform.inverse())
        assert back == PENCIL_CUBIC

    def test_roots_closer_than_a_quarter_of_the_precision_stay_distinct(self):
        # roots 1 and 1 + 2^-60 are distinct at 212 bits (classify tells
        # points apart down to about 1e-31), so the cubic is stable
        x0, x1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        F = (x0 - x1) * (2**60 * x0 - (2**60 + 1) * x1) * (x0 + 3 * x1)
        report = reduce_binary_form(F, prec=212)
        assert substitute(report.reduced, report.transform.inverse()) == F
        pts = report.extras["root_cluster"].points
        with mp.workprec(212):
            assert not any(p.is_same(q) for i, p in enumerate(pts) for q in pts[i + 1:])

    def test_plant_and_recover(self, rnd):
        F = poly("x0^4 + x0 x1^3 - 2 x1^4 + x0^2 x1^2", nvars=2)
        base = reduce_binary_form(F).reduced
        V = random_unimodular_int(rnd, 2, max_entry=800)
        distorted = substitute(base, V)
        rec = reduce_binary_form(distorted).reduced
        assert rec.height() <= 2 * base.height()


def _same_up_to_column_signs(U, expect):
    for s0 in (1, -1):
        for s1 in (1, -1):
            if all(
                U[i][0] == s0 * expect[i][0] and U[i][1] == s1 * expect[i][1]
                for i in range(2)
            ):
                return True
    return False


def _cols_differ_by_sign_result(got, expect):
    # flipping one column of the transform maps x -> -x (or y -> -y) in the
    # reduced form
    flip_x = substitute(expect, [[-1, 0], [0, 1]])
    flip_y = substitute(expect, [[1, 0], [0, -1]])
    return got in (flip_x, flip_y, -flip_x, -flip_y)


class TestReduceQuadricPencil:
    def test_reference_pencil_end_to_end(self):
        report = reduce_quadric_pencil(PENCIL_Q1, PENCIL_Q2)
        assert report.extras["pencil_cubic"] == PENCIL_CUBIC
        finals = report.reduced
        assert pair_matches_up_to_signed_permutation(
            finals, (PENCIL_FINAL_1, PENCIL_FINAL_2)
        )
        assert report.diagnostics["height_after"] <= 3
        assert report.diagnostics["height_before"] >= 10**12

    def test_pencil_transform_consistency(self):
        report = reduce_quadric_pencil(PENCIL_Q1, PENCIL_Q2)
        W = report.pencil_transform
        Q1p, Q2p = report.extras["pencil_basis"]
        assert W[0][0] * PENCIL_Q1 + W[0][1] * PENCIL_Q2 == Q1p
        assert W[1][0] * PENCIL_Q1 + W[1][1] * PENCIL_Q2 == Q2p
        # applying the coordinate transform to the pencil basis gives the finals
        U = report.transform
        assert substitute(Q1p, U) == report.reduced[0]
        assert substitute(Q2p, U) == report.reduced[1]

    def test_reference_transform_or_convergence_error_from_40_to_128_bits(self):
        # the precision profile of the base points split from two line
        # pairs: up to 91 bits the covariant falls short of LLL's tie window
        # (the command line's exit 3 at 56 bits is checked in CI), and from
        # 92 bits every precision gives the reference transform
        for prec in range(40, 92):
            with pytest.raises(ConvergenceError):
                reduce_quadric_pencil(PENCIL_Q1, PENCIL_Q2, prec=prec)
        for prec in range(92, 129):
            report = reduce_quadric_pencil(PENCIL_Q1, PENCIL_Q2, prec=prec)
            assert [list(r) for r in report.transform.matrix] == PENCIL_LLL, prec

    def test_missing_precision_below_40_bits_is_a_convergence_error(self):
        # from 4 to 39 bits the reference pencil is short of precision at
        # every one, and no failure may be reported as a property of the
        # input or of a matrix
        for prec in range(4, 40):
            with pytest.raises(ConvergenceError, match=f"at the working precision of {prec} bits"):
                reduce_quadric_pencil(PENCIL_Q1, PENCIL_Q2, prec=prec)

    def test_real_gram_that_lll_cannot_factor_is_missing_precision(self, monkeypatch):
        # the covariant is positive definite, so LLL failing to factor its
        # Gram is the working precision's rounding, whichever pipeline
        # reaches it
        from cluster_reduce.errors import NotPositiveDefiniteError

        def not_positive_definite(G):
            raise NotPositiveDefiniteError("matrix is not positive-definite")

        monkeypatch.setattr(pipelines, "lll_reduce", not_positive_definite)
        with pytest.raises(ConvergenceError, match="LLL .* at the working precision of 80 bits"):
            reduce_quadric_pencil(PENCIL_Q1, PENCIL_Q2, prec=80)

    def test_already_small_pair(self):
        Q1 = poly("x^2 + y^2 + z^2", nvars=3)
        Q2 = poly("x y + 2 y^2 + 3 z^2 - x z", nvars=3)
        report = reduce_quadric_pencil(Q1, Q2)
        assert report.diagnostics["height_after"] <= 2 * report.diagnostics["height_before"]

    def test_common_factor_rejected(self):
        # (x - y)(x + y) and x (x + y) share the line x + y, which makes every
        # member singular: the determinant cubic vanishes
        Q1 = poly("x^2 - y^2", nvars=3)
        Q2 = poly("x^2 + x y", nvars=3)
        assert pencil_cubic(Q1, Q2).is_zero()
        with pytest.raises(DegeneratePencilError):
            reduce_quadric_pencil(Q1, Q2)

    def test_pencil_runs_no_elimination(self, monkeypatch):
        # the base points come from the line pairs of two degenerate members,
        # with no resultant and no root finding beyond the cubic's
        def fail(*args, **kwargs):
            raise AssertionError("elimination in the pencil pipeline")

        for module, name in ((pipelines, "curve_intersection"), (polyalg, "curve_intersection"),
                             (polyalg, "_intersect_with_shear")):
            monkeypatch.setattr(module, name, fail)
        report = reduce_quadric_pencil(PENCIL_Q1, PENCIL_Q2, prec=212)
        assert [list(r) for r in report.transform.matrix] == PENCIL_LLL

    @pytest.mark.parametrize(
        "q1, q2",
        [
            # two quadrics sharing a tangency: a finite double root
            ("x^2 - y z", "x^2 - 2 y z + y^2"),
            # cubic 8 x0 x1^2 - 2 x1^3: a double root at infinity
            ("x^2", "x y + y^2 + z^2"),
        ],
        ids=["tangency", "double-root-at-infinity"],
    )
    def test_repeated_cubic_root_rejected(self, q1, q2):
        with pytest.raises(DegeneratePencilError):
            reduce_quadric_pencil(poly(q1, nvars=3), poly(q2, nvars=3))

    def test_non_quadric_rejected(self):
        with pytest.raises(InputFormatError):
            reduce_quadric_pencil(poly("x^3", nvars=3), poly("y^2", nvars=3))


def _planted_pencil(rnd):
    """Two ternary quadrics with coefficients in [-3, 3] and a squarefree
    determinant cubic of degree 3, substituted by one unimodular matrix with
    entries up to 1000, as the benchmark plants them; about a third of the
    first quadrics are products of two lines, so that the cubic has a root
    at infinity. Returns the quadrics and the kind of the cubic's roots."""
    exps = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    while True:
        if rnd.random() < 1 / 3:
            g, h = (MultiPoly.from_dict(3, {e: rnd.randint(-3, 3) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))})
                    for _ in "gh")
            Q1 = g * h
        else:
            Q1 = MultiPoly.from_dict(3, {e: rnd.randint(-3, 3) for e in exps})
        Q2 = MultiPoly.from_dict(3, {e: rnd.randint(-3, 3) for e in exps})
        if Q1.is_zero() or Q2.is_zero() or Q1.total_degree() != 2 or Q2.total_degree() != 2:
            continue
        cubic = pencil_cubic(Q1, Q2).to_sympy()
        if cubic.is_zero or cubic.total_degree() != 3 or any(k > 1 for _, k in cubic.sqf_list()[1]):
            continue
        x0, x1 = cubic.gens
        if cubic.coeff_monomial(x0**3) == 0:
            kind = "root at infinity"
        else:
            kind = "three real" if cubic.subs(x1, 1).as_poly(x0).discriminant() > 0 else "one real"
        V = random_unimodular_int(rnd, 3)
        return substitute(Q1, V), substitute(Q2, V), kind


def test_split_base_points_match_the_intersection():
    # the four points crossed from two line pairs are the intersection of
    # the reduced pencil basis, one to one, each scaled to largest
    # coordinate 1 and with its residual below 2^(-prec/2)
    rnd = random.Random(3434)
    kinds = []
    for case in range(48):
        Q1, Q2, kind = _planted_pencil(rnd)
        kinds.append(kind)
        bits = (106, 212, 424)[case % 3]
        report = reduce_quadric_pencil(Q1, Q2, prec=bits)
        split = [p for p, _, _ in report.extras["base_points"].roots]
        with mp.workprec(bits):
            found = [p for p, _, _ in curve_intersection(*report.extras["pencil_basis"]).roots]
            assert len(split) == len(found) == 4
            assert sorted(sum(p.is_same(q) for q in found) for p in split) == [1] * 4, case
            assert sorted(sum(p.is_same(q) for p in split) for q in found) == [1] * 4, case
            for p in split:
                assert max(abs(c) for c in p.coords) == 1 and 1 in p.coords
        assert all(mp.mpf(r) < mp.mpf(2) ** -(bits // 2) for _, _, r in report.extras["base_points"].roots)
    assert all(kinds.count(kind) >= 5 for kind in ("three real", "one real", "root at infinity")), kinds


def test_line_pair_splits_a_product_of_lines():
    # g h^T + h g^T for integer lines g, h, at scale 2^-T: the split gives
    # lines proportional to g and h
    T = 40
    g, h = [2, -1, 3], [1, 4, -2]
    C = [[((g[a] * h[b] + h[a] * g[b]) << T, 0) for b in range(3)] for a in range(3)]
    with mp.workprec(212):
        got = [ProjectivePoint(tuple(mp.mpc(x, y) for x, y in line)) for line in pipelines._line_pair(C, T)]
        want = [ProjectivePoint(tuple(line)) for line in (g, h)]
        assert [sum(p.is_same(q) for p in got) for q in want] == [1, 1]


def test_zero_adjugate_names_the_precision():
    # a member whose adjugate rounds to zero has lost its rank to the
    # working precision: the split says so instead of dividing by zero
    with pytest.raises(ConvergenceError) as info:
        pipelines._line_pair([[(0, 0)] * 3 for _ in range(3)], 232)
    assert str(info.value).endswith("at the working precision of 212 bits"), info.value


def _pencil_roots():
    """The root cluster of the reference pencil's cubic at 212 bits."""
    with mp.workprec(212):
        return reduce_binary_form(pencil_cubic(PENCIL_Q1, PENCIL_Q2)).extras["root_cluster"]


def test_base_points_from_one_root_twice_name_the_precision():
    # one member split twice gives the same two lines twice, and a line
    # crossed with itself is exactly zero: no point
    once = _pencil_roots().points[0]
    with mp.workprec(212), pytest.raises(ConvergenceError, match="coincide at the working precision of 212 bits"):
        pipelines._base_points(PointCluster((once, once)), (PENCIL_Q1, PENCIL_Q2), (PENCIL_Q1, PENCIL_Q2))


def test_base_points_of_a_moved_root_fail_their_residual_gate():
    # a root of the cubic moved by 1e-10 gives a member of full rank, whose
    # split crosses at points off the pencil by far more than 2^-106
    first, second = _pencil_roots().points[:2]
    moved = ProjectivePoint((first.coords[0] + mp.mpf(10) ** -10, first.coords[1]))
    with mp.workprec(212), pytest.raises(ConvergenceError, match=r"residual .* is not below 2\^\(-106\) at the working"):
        pipelines._base_points(PointCluster((moved, second)), (PENCIL_Q1, PENCIL_Q2), (PENCIL_Q1, PENCIL_Q2))


@pytest.mark.parametrize(
    "reduce, forms",
    [
        (reduce_ternary_form, ("1/2 x^3 + y^3 + z^3 + x y z",)),
        (reduce_quadric_pencil, ("1/2 x^2 + y^2 - z^2", "x y + z^2")),
    ],
    ids=["ternary", "pencil"],
)
def test_rational_coefficients_rejected(reduce, forms):
    # root finding takes integer coefficients only
    with pytest.raises(InputFormatError, match="must have integer coefficients"):
        reduce(*(poly(f, nvars=3) for f in forms))


class TestReduceTernaryForm:
    @pytest.mark.parametrize(
        "F",
        [
            poly("x0^3 + x0 x1^2 + x1^3", nvars=3),
            substitute(poly("x0^3 + x0 x1^2 + x1^3", nvars=3), ((1, 2, 3), (0, 1, 4), (0, 0, 1))),
            poly("x0^4 + x0 x1^3 + 2 x1^4", nvars=3),
        ],
        ids=["cubic", "moved-cubic", "quartic"],
    )
    def test_cone_rejected_by_its_vanishing_hessian(self, F):
        # irreducible over Q, so the factorization passes it, but over C a
        # union of concurrent lines, whose Hessian is identically zero
        assert F.to_sympy().is_irreducible and hessian(F).is_zero()
        with pytest.raises(InputFormatError, match="the Hessian vanishes: the curve is a union of concurrent lines"):
            reduce_ternary_form(F)

    def test_fermat_cubic_identity_covariant(self):
        F = poly("x^3 + y^3 + z^3", nvars=3)
        report = reduce_ternary_form(F)
        cluster = report.extras["inflection_cluster"]
        assert cluster.degree == 9
        G = grad_D(normalize_cluster(cluster), HermitianForm.from_matrix(mp.eye(3)))
        assert G.norm() < mp.mpf("1e-20")
        assert matrices_close_mod_scaling(report.covariant.mat(), mp.eye(3), mp.mpf("1e-15"))
        assert report.reduced == F

    def test_cuspidal_cubic_rejected(self):
        F = poly("y^2 z - x^3", nvars=3)
        with pytest.raises((StabilityError, InputFormatError)):
            reduce_ternary_form(F)

    def test_reducible_rejected(self):
        F = poly("x^3 + x y^2", nvars=3)  # x (x^2 + y^2)
        with pytest.raises(InputFormatError):
            reduce_ternary_form(F)

    def test_irreducibility_test_imports_no_tensor_or_combinatorics(self):
        # the irreducibility test factors the polynomial itself: through a
        # sympy expression, the first factorization in a process imports
        # sympy.tensor.tensor and sympy.combinatorics
        code = (
            "import sys\n"
            "from cluster_reduce import MultiPoly, reduce_ternary_form\n"
            "reduce_ternary_form(MultiPoly.from_text('x0^3 + 2 x1^3 + 3 x2^3 - x0 x1 x2'))\n"
            "print([m for m in ('sympy.tensor.tensor', 'sympy.combinatorics') if m in sys.modules])\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_round_trip_and_orbit_invariance(self, rnd):
        F = poly("x^3 + y^3 + z^3 + x y z", nvars=3)
        report = reduce_ternary_form(F)
        back = substitute(report.reduced, report.transform.inverse())
        assert back == F
        V = random_unimodular_int(rnd, 3, max_entry=60)
        moved = substitute(F, V)
        report2 = reduce_ternary_form(moved)
        assert matrices_close_mod_scaling(
            report2.reduced_gram.mat(), report.reduced_gram.mat(), mp.mpf("1e-6")
        )
        assert report2.reduced.height() <= 2 * max(report.reduced.height(), 1)


class TestNodalCurves:
    def test_plain_node_absorbs_six(self):
        # one ordinary node at (0:0:1); the z-linear cubics keep the branches
        # from flexing there, so the node absorbs exactly 6 of the 24
        # intersections with the Hessian curve
        F = poly("x y z^2 + x^3 z + y^3 z + x^4 + y^4", nvars=3)
        report = reduce_ternary_form(F)
        assert report.diagnostics["nodes"] == 1
        assert report.extras["inflection_cluster"].degree == 18
        assert substitute(report.reduced, report.transform.inverse()) == F

    def test_quartic_at_212_bits_passes_elimination_and_node_test(self):
        # after preconditioning the exact pass runs on a height-3 quartic, so
        # curve intersection and the exact singular-point test both hold
        # well below 424 bits, and the transform is the reference one
        for bits in (212, 106):
            report = reduce_ternary_form(QUARTIC, prec=bits)
            assert [list(r) for r in report.transform.matrix] == QUARTIC_LLL, bits
            assert report.diagnostics["nodes"] == 0

    def test_flecnode_rejected_by_its_multiplicity(self):
        # one ordinary node at (0:0:1), but a branch flexes there, so it meets
        # the Hessian with multiplicity 8, not 6: the message names the
        # multiplicity, not a singularity that is no node
        F = poly("z^2 x^2 + z^2 y^2 + x^4 + x y^3 + 2 y^4", nvars=3)
        with pytest.raises(StabilityError, match="multiplicity 8, not 6: it is not a node with uninflected branches"):
            reduce_ternary_form(F)

    def test_unflexed_node_reduces(self):
        # the same curve plus x^3 z: the term unflexes the branches, and the
        # node absorbs 6
        F = poly("z^2 x^2 + z^2 y^2 + x^3 z + x^4 + x y^3 + 2 y^4", nvars=3)
        report = reduce_ternary_form(F)
        assert report.diagnostics["nodes"] == 1
        assert substitute(report.reduced, report.transform.inverse()) == F

    def test_biflecnode_rejected(self):
        # both branches of the node flex at the node (the tangent x = 0 meets
        # the curve only there, with multiplicity 4), so the intersection
        # multiplicity is 8, not 6, and the nodal count does not apply
        F = poly("x y z^2 + x^4 + y^4", nvars=3)
        with pytest.raises(StabilityError):
            reduce_ternary_form(F)


class TestPreconditioning:
    """Ternary forms are first reduced by passes in hardware doubles, each an
    exact integer substitution; the exact pass runs on the result, and its
    covariant is carried back, so the transform does not depend on them."""

    CUBIC = poly("x^3 + 2 y^3 - z^3 + x y z - x^2 y", nvars=3)

    @pytest.mark.parametrize(
        "base, max_entry, seed",
        [(QUARTIC_REDUCED, 2000, 1), (CUBIC, 30000, 2)],
        ids=["quartic", "cubic"],
    )
    def test_planted_distortion_is_undone(self, base, max_entry, seed):
        V = random_unimodular_int(random.Random(seed), 3, max_entry=max_entry)
        F = substitute(base, V)
        assert F.height() >= 10**12
        report = reduce_ternary_form(F)
        passes = report.diagnostics["preconditioning"]
        assert passes["stop"] == "identity"
        assert 2 <= passes["passes"] <= 8
        assert len(passes["heights"]) == passes["passes"]
        assert passes["heights"][-1] == base.height()
        assert report.reduced.height() == base.height()
        assert substitute(report.reduced, report.transform.inverse()) == F

    def test_reduced_input_takes_one_pass(self):
        report = reduce_ternary_form(QUARTIC_REDUCED, prec=212)
        assert report.diagnostics["preconditioning"] == {
            "passes": 1,
            "heights": [3],
            "stop": "identity",
            "transform": report.transform,
        }
        assert report.transform.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_failed_pass_leaves_the_exact_result(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ConvergenceError("no roots in doubles")

        monkeypatch.setattr(polyalg, "_roots_in_doubles", fail)
        report = reduce_ternary_form(QUARTIC)
        assert [list(r) for r in report.transform.matrix] == QUARTIC_LLL
        assert report.reduced == QUARTIC_REDUCED
        passes = report.diagnostics["preconditioning"]
        assert passes["passes"] == 0
        assert passes["stop"] == "pass failed: ConvergenceError: no roots in doubles"

    def test_permuted_cubic_projects_through_the_last_passes_cycle(self, tried_projections):
        # the first pass projects from the identity; on the form it leaves,
        # the identity's resultant drops degree, so the second pass projects
        # through the first coordinate cycle, and the exact pass, on the same
        # forms, finds that cycle again after one more elimination
        report = reduce_ternary_form(self.CUBIC)
        assert report.transform.matrix == ((1, 0, 0), (0, 0, 1), (0, 1, 0))
        identity, cycle = polyalg._PROJECTIONS[:2]
        assert tried_projections == [identity, identity, cycle, identity, cycle]

    def test_planted_cubic_u0_is_the_product_of_the_passes(self, monkeypatch):
        # U0 multiplies the passes' LLL transforms and nothing else, and the
        # residuals are those of the public intersection of F(U0 x) with its
        # Hessian, whichever projection that takes
        F = substitute(self.CUBIC, random_unimodular_int(random.Random(2), 3, max_entry=30000))
        transforms, double_pass = [], pipelines._double_pass
        monkeypatch.setattr(pipelines, "_double_pass", lambda F, H: transforms.append(double_pass(F, H)) or transforms[-1])
        report = reduce_ternary_form(F)
        passes = report.diagnostics["preconditioning"]
        assert passes["stop"] == "identity" and len(transforms) == passes["passes"] >= 2
        assert passes["transform"] == functools.reduce(operator.matmul, transforms)
        F1 = substitute(F, passes["transform"])
        with mp.workprec(report.diagnostics["precision"]):
            inter = curve_intersection(F1, hessian(F1))
        assert report.diagnostics["residuals"] == tuple(r for _, _, r in inter.roots)

    def test_each_flex_is_found_once(self, monkeypatch):
        # at each of the 24 flexes, F(U0 x) and its Hessian are evaluated
        # once, to accept it and to report its residual; the Hessian of F,
        # which the first pass uses and the report carries, and one per
        # later pass
        calls = {"evaluate": 0, "hessian": 0}
        evaluate, hess = MultiPoly.evaluate, pipelines.hessian

        def counted_evaluate(self, values):
            calls["evaluate"] += 1
            return evaluate(self, values)

        def counted_hessian(F):
            calls["hessian"] += 1
            return hess(F)

        monkeypatch.setattr(MultiPoly, "evaluate", counted_evaluate)
        monkeypatch.setattr(pipelines, "hessian", counted_hessian)
        report = reduce_ternary_form(QUARTIC)
        assert [list(r) for r in report.transform.matrix] == QUARTIC_LLL
        assert report.diagnostics["preconditioning"]["passes"] == 6
        assert calls == {"evaluate": 48, "hessian": 6}

    @pytest.mark.parametrize("bits, move", [(212, -20), (424, -60)])
    def test_misplaced_flex_is_rejected(self, monkeypatch, bits, move):
        # a flex moved by 1e-20 relative keeps a residual far below 2^-106 on
        # the height-1.7e12 quartic, so a root is judged on F(P x) and its
        # Hessian, the forms that the projection conditions; at 424 bits,
        # the benchmark's, the integer gate sees a move of 1e-60 against
        # 2^-212 = 1.5e-64
        _, _, U0, _ = pipelines._precondition(QUARTIC, hessian(QUARTIC))
        roots = polyalg.aberth_roots

        def moved(coeffs):
            first, *rest = roots(coeffs)
            return [first * (1 + mp.mpf(10) ** move)] + rest

        half = polyalg._intersect_with_shear(QUARTIC, hessian(QUARTIC), U0.matrix, 4, 6)
        with mp.workprec(bits):
            polyalg._refine(*half)
        monkeypatch.setattr(polyalg, "aberth_roots", moved)
        with mp.workprec(bits), pytest.raises(ConvergenceError, match=f"residual .* {bits} bits"):
            polyalg._refine(*half)

    def test_exact_pass_is_one_public_intersection(self, monkeypatch):
        # the exact pass is the public curve_intersection of the forms the
        # preconditioning built: 5 passes substitute, the identity pass and
        # the exact pass do not, and the reduced form is the sixth. Its
        # Newton starts from Tyler's covariant in doubles, and each step,
        # corrected in doubles, gains at least 45 bits after the first
        calls = {"curve_intersection": 0, "substitute": 0}
        intersect, sub = pipelines.curve_intersection, polyalg.substitute
        gradient, norms = covariant._gradient, []

        def recorded_gradient(ws, S, n1):
            G, gnorm = gradient(ws, S, n1)
            norms.append(gnorm)
            return G, gnorm

        def counted_intersection(*args, **kwargs):
            calls["curve_intersection"] += 1
            return intersect(*args, **kwargs)

        def counted_substitute(F, U):
            calls["substitute"] += 1
            return sub(F, U)

        monkeypatch.setattr(pipelines, "curve_intersection", counted_intersection)
        monkeypatch.setattr(pipelines, "substitute", counted_substitute)
        monkeypatch.setattr(polyalg, "substitute", counted_substitute)
        monkeypatch.setattr(covariant, "_gradient", recorded_gradient)
        report = reduce_ternary_form(QUARTIC)
        assert [list(r) for r in report.transform.matrix] == QUARTIC_LLL
        assert report.diagnostics["precision"] == 424
        assert report.diagnostics["iterations"] <= 7
        assert len(norms) == report.diagnostics["iterations"] + 1
        assert all(b <= a * mp.mpf(2) ** -45 for a, b in zip(norms[1:], norms[2:]))
        assert calls == {"curve_intersection": 1, "substitute": 6}

    @pytest.mark.parametrize("text", [None, "x0^3 + x1^3 + x2^3 + x0 x1 x2"])
    def test_flexes_lie_on_the_input_and_residuals_on_the_transform(self, text):
        # the reported flexes lie on F and its Hessian; the reported residuals
        # are those of the intersection of F(U0 x) with its Hessian, U0 the
        # recorded transform. The cubic has no squarefree coordinate
        # projection, so its preconditioning fails and its residuals refer to
        # forms under one of the fixed shears
        F = QUARTIC if text is None else poly(text)
        report = reduce_ternary_form(F)
        prec = report.diagnostics["precision"]
        assert prec == (424 if text is None else 212)
        if text is not None:
            assert report.diagnostics["preconditioning"]["stop"].startswith("pass failed")
        U0 = report.diagnostics["preconditioning"]["transform"]
        with mp.workprec(prec):
            for G in (F, hessian(F)):
                norm = G.coeff_norm()
                for p in report.extras["inflection_cluster"].points:
                    assert abs(G.evaluate(p.unit())) / norm < mp.mpf(2) ** (-prec // 2)
            F1 = substitute(F, U0)
            again = curve_intersection(F1, hessian(F1))
        assert list(report.diagnostics["residuals"]) == [r for _, _, r in again.roots]

    def test_report_does_not_depend_on_the_seed(self):
        # the cubic needs a shear, which the seed once drew: the reports for
        # two seeds, residuals and flexes included, are the same
        F = poly("x0^3 + x1^3 + x2^3 + x0 x1 x2")
        first, second = (reduce_ternary_form(F, seed=seed) for seed in (0, 5))
        assert first.transform == second.transform and first.reduced == second.reduced
        assert first.diagnostics == second.diagnostics
        assert first.diagnostics["residuals"] == second.diagnostics["residuals"]
        flexes = [[p.coords for p in r.extras["inflection_cluster"].points] for r in (first, second)]
        assert flexes[0] == flexes[1]

    def test_report_refers_to_the_input(self):
        report = reduce_ternary_form(QUARTIC, prec=212)
        assert report.diagnostics["preconditioning"]["passes"] >= 2
        assert report.extras["hessian"] == hessian(QUARTIC)
        with mp.workprec(212):
            assert max(report.diagnostics["residuals"]) < mp.mpf(2) ** -106
            # the flexes lie on the input curve and its Hessian
            norm = QUARTIC.coeff_norm()
            for p in report.extras["inflection_cluster"].points:
                assert abs(QUARTIC.evaluate(p.unit())) / norm < mp.mpf(2) ** -106
            # and the reported covariant is the input's: U^T G U is the reduced Gram
            assert matrices_close_mod_scaling(
                congruence(report.covariant, report.transform).mat(),
                report.reduced_gram.mat(),
                mp.mpf(2) ** -100,
            )


class TestClassifyOnce:
    """Only numeric input clusters and nodal curves are classified, once; the
    form pipelines decide stability from exact facts, minimize does not
    repeat it, and only reduce_cluster matches points with their conjugates."""

    RUNS = [
        lambda: reduce_cluster(cluster_of((3, 1, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 5, 1))),
        lambda: reduce_binary_form(poly("x0^4 - 3 x0^2 x1^2 + x0 x1^3 + 2 x1^4", nvars=2)),
        lambda: reduce_ternary_form(poly("x^3 + y^3 + z^3", nvars=3)),
        lambda: reduce_ternary_form(poly("x y z^2 + x^3 z + y^3 z + x^4 + y^4", nvars=3)),
        lambda: reduce_quadric_pencil(PENCIL_Q1, PENCIL_Q2),
    ]
    IDS = ["cluster", "binary-quartic", "ternary-cubic", "nodal-quartic", "pencil"]

    @pytest.mark.parametrize("run, expected", zip(RUNS, [1, 0, 0, 1, 0]), ids=IDS)
    def test_classify_calls(self, monkeypatch, run, expected):
        from cluster_reduce import covariant, pipelines

        calls = []
        for module in (pipelines, covariant):
            real = module.classify
            monkeypatch.setattr(
                module, "classify", lambda z, real=real: calls.append(z) or real(z)
            )
        run()
        assert len(calls) == expected

    @pytest.mark.parametrize("run, expected", zip(RUNS, [1, 0, 0, 0, 0]), ids=IDS)
    def test_conjugation_match_calls(self, monkeypatch, run, expected):
        calls = []
        real = PointCluster.is_conjugation_fixed
        monkeypatch.setattr(
            PointCluster, "is_conjugation_fixed", lambda z: calls.append(z) or real(z)
        )
        run()
        assert len(calls) == expected


def _random_binary_form(rnd, d, planted):
    """Random integer binary form of degree d; with ``planted``, a random
    linear factor (sometimes x1, a root at infinity) of multiplicity at
    least d/2, and sometimes a second one, so that the form is unstable,
    semi-stable or split."""
    x0, x1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)

    def linear():
        return x1 if rnd.random() < 0.25 else rnd.randint(1, 3) * x0 + rnd.randint(-3, 3) * x1

    F, rest = MultiPoly.constant(2, 1), d
    if planted:
        k = rnd.randint((d + 1) // 2, d)
        F, rest = linear() ** k, d - k
        if rest >= 2 and rnd.random() < 0.5:
            k2 = rnd.randint(2, rest)
            F, rest = F * linear() ** k2, rest - k2
    while True:
        G = sum((rnd.randint(-5, 5) * x0 ** i * x1 ** (rest - i) for i in range(rest + 1)),
                MultiPoly.constant(2, 0))
        if not G.is_zero():
            return F * G


class TestExactStability:
    """The classes the form pipelines take from exact facts, against the
    independent exhaustive oracle and against classify of the numeric roots."""

    def test_binary_forms_match_oracle_and_classify(self):
        rnd = random.Random(1111)
        seen = set()
        for trial in range(48):
            d = 3 + trial % 4
            F = _random_binary_form(rnd, d, planted=trial % 2 == 1)
            try:
                cls = reduce_binary_form(F, prec=212).diagnostics["stability"]
            except StabilityError as exc:
                cls = exc.classification
            with mp.workprec(212):
                cluster = _binary_form_roots(F, F.to_sympy().sqf_list()[1])
                numeric = classify(cluster)
            flags = (cls.is_split, cls.is_semi_stable, cls.is_stable)
            assert flags == oracle_classify(cluster), F
            assert flags == (numeric.is_split, numeric.is_semi_stable, numeric.is_stable), F
            assert cls.margin == numeric.margin, F
            seen.add(flags)
        # stable, semi-stable, unstable and split forms all occurred
        assert {(False, True, True), (False, True, False), (False, False, False)} <= seen
        assert any(flags[0] for flags in seen)

    def test_unstable_form_rejected_before_root_finding(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("root finding on an unstable form")

        monkeypatch.setattr(polyalg, "aberth_roots", fail)
        with pytest.raises(StabilityError):
            reduce_binary_form(poly("x0^2 x1", nvars=2))

    def test_random_pencil_base_points_are_stable(self):
        rnd = random.Random(2222)
        monomials = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
        tested = 0
        while tested < 4:
            Q1, Q2 = (MultiPoly.from_dict(3, {e: rnd.randint(-4, 4) for e in monomials}) for _ in "12")
            cubic = pencil_cubic(Q1, Q2)
            if cubic.is_zero() or cubic.total_degree() != 3:
                continue
            if any(k > 1 for _, k in cubic.to_sympy().sqf_list()[1]):
                continue
            with mp.workprec(212):
                base = curve_intersection(Q1, Q2)
            assert oracle_classify(base.cluster()) == (False, True, True)
            with mp.workprec(212):
                assert classify(base.cluster()).margin == 1
            tested += 1

    def test_random_smooth_cubic_flexes_are_stable(self):
        rnd = random.Random(3333)
        monomials = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]
        tested = 0
        while tested < 4:
            C = MultiPoly.from_dict(3, {e: rnd.randint(-3, 3) for e in monomials})
            if C.is_zero() or hessian(C).is_zero():
                continue
            try:
                with mp.workprec(212):
                    inter = curve_intersection(C, hessian(C))
            except CommonComponentError:
                continue  # reducible or a Hessian sharing a component
            if any(inter.singular):
                continue
            flexes = inter.cluster()
            assert flexes.degree == 9
            assert oracle_classify(flexes) == (False, True, True)
            tested += 1

    def test_reference_quartic_flexes_are_stable(self):
        report = reduce_ternary_form(QUARTIC)
        assert report.diagnostics["stability"].is_stable
        with mp.workprec(424):
            assert classify(report.extras["inflection_cluster"]).is_stable


@pytest.mark.parametrize("bits", [53, 64])
def test_reference_pencil_low_precision_is_not_instability(bits):
    # four distinct base points are stable whatever the working precision;
    # too few bits may fail otherwise, but never as a StabilityError
    try:
        reduce_quadric_pencil(PENCIL_Q1, PENCIL_Q2, prec=bits)
    except ClusterReduceError as exc:
        assert not isinstance(exc, StabilityError), exc


@pytest.mark.parametrize("bits", [*range(40, 97, 2), 55, 62, 212])
def test_reference_pencil_gives_its_transform_or_names_the_precision(bits):
    # below 92 bits the working precision does not resolve the base points'
    # covariant: the Newton step leaves the cone, or the gradient sticks
    # outside LLL's 2^(-prec/2) tie window. Which of the two a precision
    # meets depends on the last bits of the base points. The solver says so
    # rather than return a transform that is not LLL-reduced for the true
    # covariant
    try:
        report = reduce_quadric_pencil(PENCIL_Q1, PENCIL_Q2, prec=bits)
    except ConvergenceError as exc:
        assert str(exc).endswith(f"at the working precision of {bits} bits"), exc
    else:
        assert [list(r) for r in report.transform.matrix] == PENCIL_LLL


_QUINTIC = MultiPoly.from_dict(2, {(5, 0): 1, (4, 1): -1, (3, 2): -2, (1, 4): 1, (0, 5): 3})

# the reduced reference pencil, substituted to height 5.8e17
_PENCIL_V = (
    (623189299, -104123662, -21378106),
    (253984611, -42436411, -8712821),
    (-88583435, 14800794, 3038823),
)
# the transform that undoes it, found at 424 bits
_PENCIL_V_LLL = [
    [73004379, 435913662, -736252936],
    [2664832718, 15911880967, -26874975713],
    [-10851129349, -64792764436, 109434200407],
]


def _distorted_quintic(a):
    """The reduced binary quintic substituted by [[a, a-1], [a+1, a]]; its
    roots agree to about a^-2."""
    return substitute(_QUINTIC, ((a, a - 1), (a + 1, a)))


def _distorted_pencil(V):
    from cluster_reduce import UnimodularTransform

    return [substitute(F, UnimodularTransform(V)) for F in (PENCIL_FINAL_1, -PENCIL_FINAL_2)]


def test_overflowed_doubles_start_names_the_precision():
    # the quintic with a = 10^12: its roots agree to about 1e-24, and at 180
    # bits Tyler's iteration in doubles on them overflows, so Newton starts
    # from the identity; that is too little precision (it reduces from 216
    # bits), and the error says so
    with pytest.raises(ConvergenceError) as info:
        reduce_binary_form(_distorted_quintic(10**12), prec=180)
    assert str(info.value).endswith("at the working precision of 180 bits"), info.value


@pytest.mark.parametrize("kind", ["binary", "pencil"])
def test_distorted_forms_name_the_precision(kind):
    # the quintic with a = 10^15 and the pencil substituted twice by V, to
    # height about 1e35: at 212 bits Newton cannot resolve the covariant of
    # their roots or base points, and the error says so; both reduce at 424
    # bits
    if kind == "binary":
        forms = [_distorted_quintic(10**15)]
        reduce = reduce_binary_form
    else:
        VV = [[sum(_PENCIL_V[i][k] * _PENCIL_V[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
        forms = _distorted_pencil(VV)
        reduce = reduce_quadric_pencil
    with pytest.raises(ConvergenceError) as info:
        reduce(*forms, prec=212)
    assert str(info.value).endswith("at the working precision of 212 bits"), info.value


@pytest.mark.parametrize(
    "kind, a, bits",
    [("binary", 10**6, 212), ("binary", 10**12, 300), ("pencil", None, 212)],
    ids=["quintic-1e6-at-212", "quintic-1e12-at-300", "pencil-at-212"],
)
def test_distorted_forms_reduce_at_fewer_bits(kind, a, bits):
    # roots refined on the exact integer coefficients are accurate to the
    # fixed point whatever the coefficients' size, so these inputs reduce, to
    # the transform that undoes the distortion, at precisions that once fell
    # short of them
    if kind == "binary":
        report = reduce_binary_form(_distorted_quintic(a), prec=bits)
        assert [list(r) for r in report.transform.matrix] == [[-a, a - 1], [a + 1, -a]]
    else:
        report = reduce_quadric_pencil(*_distorted_pencil(_PENCIL_V), prec=bits)
        assert [list(r) for r in report.transform.matrix] == _PENCIL_V_LLL


def _exact_det(G):
    """det G, exactly, from the dyadic entries m 2^e of the Gram G: the
    determinant of an integer matrix times a power of 2."""
    parts = [[(-man if sign else man, exp) for sign, man, exp, _ in (v._mpf_ for v in r)] for r in G.matrix]
    e = min(x for r in parts for _, x in r)
    return oracle_int_det([[m << (x - e) for m, x in r] for r in parts]) * Fraction(2) ** (e * G.size)


@pytest.mark.parametrize("case", ["cluster-1", "cluster-2", "cluster-3", "quintic-1e6", "pencil", "quartic"])
def test_reported_grams_have_determinant_one(case):
    # the premise of the reported heights, which are the largest entries of
    # the Grams with no normalization by their determinants
    from cluster_reduce import UnimodularTransform

    if case.startswith("cluster"):
        n = int(case[-1])
        rnd = random.Random(n)
        V = UnimodularTransform(random_unimodular_int(rnd, n + 1, max_entry=300))
        report = reduce_cluster(act(random_real_cluster(rnd, n, n + 3), V))
        for G, height in ((report.covariant, "height_before"), (report.reduced_gram, "height_after")):
            assert report.diagnostics[height] == max(abs(v) for r in G.matrix for v in r)
    elif case == "quintic-1e6":
        report = reduce_binary_form(_distorted_quintic(10**6))
    elif case == "pencil":
        report = reduce_quadric_pencil(PENCIL_Q1, PENCIL_Q2)
    else:
        report = reduce_ternary_form(QUARTIC)
    bound = Fraction(1, 2 ** (report.diagnostics["precision"] // 2))
    for G in (report.covariant, report.reduced_gram):
        assert abs(_exact_det(G) - 1) <= bound


@pytest.mark.parametrize("case", ["cluster", "quintic-1e6", "pencil", "quartic"])
def test_pipeline_covariant_is_real_up_to_rounding(case, monkeypatch):
    # every cluster a pipeline reduces is fixed by conjugation, so its
    # covariant is real and the Gram is its real part, taken unchecked: the
    # imaginary part left by the Hermitian solver stays below 2^(-prec/2)
    # of the largest entry, also for a conjugate pair off by 2^-150, as two
    # roots found one at a time are, inside the conjugation test's window
    from cluster_reduce._precision import half_eps

    found = []
    solve = pipelines.minimize

    def recorded(*args, **kwargs):
        res = solve(*args, **kwargs)
        rows = res.z.matrix
        found.append((max(abs(mp.im(v)) for r in rows for v in r), half_eps() * max(abs(v) for r in rows for v in r)))
        return res

    monkeypatch.setattr(pipelines, "minimize", recorded)
    if case == "cluster":
        reduce_cluster(cluster_of((1, 0), (0, 1), (1, 3), (1, mp.mpc(2, 1)), (1, mp.mpc(2, -1 - mp.mpf(2) ** -150))))
    elif case == "quintic-1e6":
        reduce_binary_form(_distorted_quintic(10**6))
    elif case == "pencil":
        reduce_quadric_pencil(PENCIL_Q1, PENCIL_Q2)
    else:
        reduce_ternary_form(QUARTIC)
    assert found
    assert all(imag <= bound for imag, bound in found), found


class TestClassifyCost:
    """One classify normalizes each point once, takes no SVD, and computes
    no matroid components for a stable cluster, which is never split."""

    def test_unit_vectors_once_and_no_svd(self, monkeypatch):
        rnd = random.Random(24)
        Z = cluster_of(*(tuple(rnd.randint(-9, 9) or 1 for _ in range(3)) for _ in range(24)))
        calls = {"unit": 0, "svd": 0}
        real_unit = ProjectivePoint.unit

        def unit(self):
            calls["unit"] += 1
            return real_unit(self)

        def svd(*args, **kwargs):
            calls["svd"] += 1

        monkeypatch.setattr(ProjectivePoint, "unit", unit)
        for name in ("svd", "svd_c", "svd_r"):
            monkeypatch.setattr(mp, name, svd)
        cls = classify(Z)
        assert cls.is_semi_stable
        assert calls["unit"] <= 4 * Z.degree
        assert calls["svd"] == 0

    def test_no_matroid_components_for_a_stable_cluster(self, monkeypatch):
        # the flats are walked from residuals, not from a basis per subset,
        # and the counts alone prove a stable cluster unsplit
        rnd = random.Random(24)
        Z = cluster_of(*(tuple(rnd.randint(-9, 9) or 1 for _ in range(4)) for _ in range(9)))
        calls = []
        real = cluster_core._matroid_components

        def matroid_components(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(cluster_core, "_matroid_components", matroid_components)
        assert classify(Z).is_stable
        assert calls == []


class TestPencilCubic:
    def test_reference_value(self):
        assert pencil_cubic(PENCIL_Q1, PENCIL_Q2) == PENCIL_CUBIC

    @pytest.mark.parametrize(
        "texts, nvars",
        [(("x0^3 + x1 x2^2", "x0^2 + x1^2 - x2^2"), 3), (("x0^2 + x1^2", "x0 x1"), 2)],
        ids=["cubic-and-quadric", "binary-quadrics"],
    )
    def test_rejects_what_is_not_two_ternary_quadrics(self, texts, nvars):
        with pytest.raises(InputFormatError):
            pencil_cubic(*(poly(t, nvars=nvars) for t in texts))
