"""End-to-end pipelines: clusters, binary forms, pencils, ternary forms."""

import mpmath as mp
import pytest

from cluster_reduce import (
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
from cluster_reduce.errors import CommonComponentError, InputFormatError

from conftest import (
    PENCIL_CUBIC,
    PENCIL_FINAL_1,
    PENCIL_FINAL_2,
    PENCIL_Q1,
    PENCIL_Q2,
    REDUCED_BINARY_CUBIC,
    matrices_close_mod_scaling,
    pair_matches_up_to_signed_permutation,
    random_unimodular_int,
)


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

    def test_unstable_rejected(self):
        Z = cluster_of((1, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1))
        with pytest.raises(StabilityError):
            reduce_cluster(Z)

    def test_complex_cluster_rejected(self):
        Z = cluster_of((mp.mpc(0, 1), 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1))
        with pytest.raises(RealityError):
            reduce_cluster(Z)

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

    def test_already_small_pair(self):
        Q1 = poly("x^2 + y^2 + z^2", nvars=3)
        Q2 = poly("x y + 2 y^2 + 3 z^2 - x z", nvars=3)
        report = reduce_quadric_pencil(Q1, Q2)
        assert report.diagnostics["height_after"] <= 2 * report.diagnostics["height_before"]

    def test_common_factor_rejected(self):
        Q1 = poly("x^2 - y^2", nvars=3)
        Q2 = poly("x^2 + x y", nvars=3)  # shares the factor x + y? no: x(x+y)
        Q2b = MultiPoly.from_dict(3, {(2, 0, 0): 1, (1, 1, 0): 1})
        with pytest.raises((CommonComponentError, DegeneratePencilError, StabilityError)):
            reduce_quadric_pencil(Q1, Q2b)

    def test_repeated_cubic_root_rejected(self):
        # two quadrics sharing a tangency produce a degenerate pencil cubic
        Q1 = poly("x^2 - y z", nvars=3)
        Q2 = poly("x^2 - 2 y z + y^2", nvars=3)
        with pytest.raises((DegeneratePencilError, CommonComponentError)):
            reduce_quadric_pencil(Q1, Q2)

    def test_non_quadric_rejected(self):
        with pytest.raises(InputFormatError):
            reduce_quadric_pencil(poly("x^3", nvars=3), poly("y^2", nvars=3))


class TestReduceTernaryForm:
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

    def test_biflecnode_rejected(self):
        # both branches of the node flex at the node (the tangent x = 0 meets
        # the curve only there, with multiplicity 4), so the intersection
        # multiplicity is 8, not 6, and the nodal count does not apply
        F = poly("x y z^2 + x^4 + y^4", nvars=3)
        with pytest.raises(StabilityError):
            reduce_ternary_form(F)


class TestClassifyOnce:
    """Each pipeline classifies its cluster once; minimize does not repeat it."""

    @pytest.mark.parametrize(
        "run, expected",
        [
            (lambda: reduce_cluster(cluster_of((3, 1, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 5, 1))), 1),
            (lambda: reduce_binary_form(poly("x0^4 - 3 x0^2 x1^2 + x0 x1^3 + 2 x1^4", nvars=2)), 1),
            (lambda: reduce_ternary_form(poly("x^3 + y^3 + z^3", nvars=3)), 1),
            # one call on the base points plus one inside the binary-cubic reduction
            (lambda: reduce_quadric_pencil(PENCIL_Q1, PENCIL_Q2), 2),
        ],
        ids=["cluster", "binary-quartic", "ternary-cubic", "pencil"],
    )
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


class TestPencilCubic:
    def test_reference_value(self):
        assert pencil_cubic(PENCIL_Q1, PENCIL_Q2) == PENCIL_CUBIC
