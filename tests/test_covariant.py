"""Distance function, gradient, minimizer, theta, closed form."""

import itertools
import random

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cluster_reduce import (
    ConvergenceError,
    DegeneratePositionError,
    HermitianForm,
    NotPositiveDefiniteError,
    PointCluster,
    ProjectivePoint,
    StabilityError,
    act,
    classify,
    conjugate,
    eval_D,
    grad_D,
    minimize,
    normalize_cluster,
    simplex_covariant,
    theta,
)

from conftest import (
    matrices_close_mod_scaling,
    near_threshold_cluster,
    random_cluster,
    random_pd_hermitian,
    random_real_cluster,
    random_sl,
    random_trace_free_hermitian,
    random_unimodular_int,
    start_newton_from,
    witness_slope_holds,
)
from oracles import (
    fd_directional_derivative,
    fd_second_difference,
    oracle_count_on_span,
    oracle_gradient,
    oracle_images,
    oracle_simplex_form,
    oracle_tyler_covariant,
    oracle_tyler_in_doubles,
    transported_curve,
)


def cluster_of(*coords):
    return PointCluster(tuple(ProjectivePoint(c) for c in coords))


def standard_simplex(n):
    pts = [tuple(1 if i == j else 0 for j in range(n + 1)) for i in range(n + 1)]
    pts.append(tuple(1 for _ in range(n + 1)))
    return cluster_of(*pts)


def _tyler_cases():
    """Seeded stable clusters with m > n+2 points, half of them conjugation-fixed."""
    rnd = random.Random(7007)
    cases = []
    for n in (1, 2, 3):
        for m in (n + 3, n + 5):
            for make in (random_cluster, random_real_cluster):
                Z = make(rnd, n, m)
                while not classify(Z).is_stable:
                    Z = make(rnd, n, m)
                cases.append(pytest.param(Z, id=f"n{n}-m{m}-{make.__name__}"))
    return cases


TYLER_CASES = _tyler_cases()


def _unsettled_cluster():
    """A clusters-benchmark input (seed 1) whose covariant is too
    ill-conditioned for 100 Tyler sweeps in doubles to settle."""
    return cluster_of(
        (mp.mpc(2, 26), mp.mpc(-19, -259), mp.mpc(12, 170)),
        (mp.mpc(2, -26), mp.mpc(-19, 259), mp.mpc(12, -170)),
        (mp.mpc(-180, 98), mp.mpc(1781, -969), mp.mpc(-1162, 632)),
        (mp.mpc(-180, -98), mp.mpc(1781, 969), mp.mpc(-1162, -632)),
        (-107, 1059, -691),
    )


def _clusters_in_doubles():
    """Unit rows in built-in complex of 40 random clusters of 3 to 24 points
    in P^1 .. P^3 and of the unsettled cluster."""
    rnd = random.Random(40)
    clusters = []
    for _ in range(40):
        n1 = rnd.randint(2, 4)
        rows = []
        for _ in range(rnd.randint(n1 + 1, 24)):
            v = [complex(rnd.randint(-9, 9), rnd.choice([0, rnd.randint(-9, 9)])) for _ in range(n1)]
            v[0] = v[0] or 1
            norm = sum(abs(c) ** 2 for c in v) ** 0.5
            rows.append([c / norm for c in v])
        clusters.append(rows)
    clusters.append([[complex(c) for c in r] for r in normalize_cluster(_unsettled_cluster()).reps])
    return clusters


SEMI_STABLE_CASES = [
    cluster_of((1, 0), (1, 0), (0, 1), (1, 1)),
    cluster_of((1, 0), (1, 0), (0, 1), (0, 1)),
    cluster_of((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)),
    cluster_of((1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (0, 0, 1), (1, 1, 1)),
]
# the infimum of D is attained exactly on the polystable case: two double
# points of P^1, each stable in its own span P^0
SEMI_STABLE_ATTAINED = [False, True, False, False]


def q0_matrix(n):
    return mp.matrix([[(n + 2 if i == j else 0) - 1 for j in range(n + 1)] for i in range(n + 1)])


class TestEvalD:
    def test_single_point_identity(self):
        zc = normalize_cluster(cluster_of((1, 0, 0)))
        assert abs(eval_D(zc, HermitianForm.from_matrix(mp.eye(3)))) < mp.mpf("1e-60")

    def test_scaling_law(self, rnd):
        Z = random_cluster(rnd, 2, 4)
        zc = normalize_cluster(Z)
        Q = HermitianForm.from_matrix(random_pd_hermitian(rnd, 3))
        base = eval_D(zc, Q)
        scaled = eval_D(zc.scale_point(0, 2), Q)
        assert abs(scaled - base - mp.log(4)) < mp.mpf("1e-50")

    def test_invariant_under_q_scaling(self, rnd):
        Z = random_cluster(rnd, 2, 5)
        zc = normalize_cluster(Z)
        M = random_pd_hermitian(rnd, 3)
        a = eval_D(zc, HermitianForm.from_matrix(M))
        b = eval_D(zc, HermitianForm.from_matrix(M * mp.mpf(7)))
        assert abs(a - b) < mp.mpf("1e-55")

    def test_standard_four_point_value(self):
        zc = normalize_cluster(standard_simplex(2))
        Q = HermitianForm.from_matrix(q0_matrix(2))
        expected = mp.log(27) - mp.mpf(4) / 3 * mp.log(16)
        assert abs(eval_D(zc, Q) - expected) < mp.mpf("1e-55")

    def test_not_positive_definite_rejected(self):
        zc = normalize_cluster(cluster_of((1, 0), (0, 1)))
        with pytest.raises(NotPositiveDefiniteError):
            eval_D(zc, HermitianForm(((1, 0), (0, -1))))

    def test_conjugation_invariance(self, rnd):
        Z = random_cluster(rnd, 2, 4)
        zc = normalize_cluster(Z)
        M = random_pd_hermitian(rnd, 3)
        Mc = mp.matrix(3, 3)
        for i in range(3):
            for j in range(3):
                Mc[i, j] = mp.conj(M[i, j])
        a = eval_D(zc, HermitianForm.from_matrix(M))
        b = eval_D(zc.conjugate(), HermitianForm.from_matrix(Mc))
        assert abs(a - b) < mp.mpf("1e-55")

    def test_change_of_variables_invariance(self, rnd):
        # D(Z.gamma, Q.gamma) = D(Z, Q) with Q.gamma = conj(gamma)^T Q gamma
        # and the point action P -> P gamma^(-T)
        Z = random_cluster(rnd, 2, 4)
        zc = normalize_cluster(Z)
        Q = random_pd_hermitian(rnd, 3)
        g = random_sl(rnd, 3)
        Qg = g.transpose_conj() * Q * g
        Qg = (Qg + Qg.transpose_conj()) / 2
        ginv_t = (g**-1).transpose()
        moved = [tuple(sum(row[a] * ginv_t[a, j] for a in range(3)) for j in range(3))
                 for row in zc.reps]
        from cluster_reduce import ScaledCluster

        a = eval_D(ScaledCluster(tuple(moved)), HermitianForm.from_matrix(Qg))
        b = eval_D(zc, HermitianForm.from_matrix(Q))
        assert abs(a - b) < mp.mpf("1e-45")


class TestGradD:
    def test_zero_at_symmetric_configuration(self):
        Z = standard_simplex(2)
        Q = HermitianForm.from_matrix(q0_matrix(2)).normalized()
        G = grad_D(normalize_cluster(Z), Q)
        assert G.norm() < mp.mpf("1e-55")

    def test_single_point_formula(self):
        n = 3
        Z = cluster_of((1, 0, 0, 0))
        G = grad_D(normalize_cluster(Z), HermitianForm.from_matrix(mp.eye(4)))
        M = G.mat()
        for i in range(4):
            for j in range(4):
                expected = (1 if i == j == 0 else 0) - (mp.mpf(1) / 4 if i == j else 0)
                assert abs(M[i, j] - expected) < mp.mpf("1e-60")

    def test_matches_finite_differences(self, rnd):
        zc = normalize_cluster(random_cluster(rnd, 2, 5))
        Q = random_pd_hermitian(rnd, 3)
        G = grad_D(zc, HermitianForm.from_matrix(Q)).mat()
        eps = mp.mpf("1e-20")
        for _ in range(20):
            B = random_trace_free_hermitian(rnd, 3)
            fd = fd_directional_derivative(
                lambda M: eval_D(zc, HermitianForm.from_matrix(M)), Q, B, eps
            )
            pairing = mp.re(mp.fsum(
                G[i, j] * B[j, i] for i in range(3) for j in range(3)
            ))
            assert abs(fd - pairing) < mp.mpf("1e-6") * max(1, abs(pairing))

    def test_trace_free_hermitian_output(self, rnd):
        zc = normalize_cluster(random_cluster(rnd, 2, 4))
        G = grad_D(zc, HermitianForm.from_matrix(random_pd_hermitian(rnd, 3)))
        G.check()


_UNIT = st.floats(-1, 1, allow_nan=False)


@st.composite
def factors_and_rows(draw):
    """(prec, L, reps): a lower triangular factor L at prec bits whose entries
    span 2^+-spread, and m unit rows, of which those drawn ``toward_kernel``
    are L^-H v normalized, so that their images L^H P are as small as L
    allows and the sums that make them cancel."""
    from cluster_reduce.covariant import _lower_inverse

    prec = draw(st.sampled_from([53, 212, 424]))
    n1 = draw(st.integers(2, 4))
    spread = draw(st.sampled_from([0, 10, 100]))
    expo = st.integers(-spread, spread)
    with mp.workprec(prec):
        L = [[mp.mpc(0)] * n1 for _ in range(n1)]
        for i in range(n1):
            L[i][i] = mp.ldexp(draw(st.floats(0.5, 1.5)), draw(expo))
            for j in range(i):
                e = draw(expo)
                L[i][j] = mp.mpc(mp.ldexp(draw(_UNIT), e), mp.ldexp(draw(_UNIT), e))
        X = _lower_inverse(L)
        reps = []
        for _ in range(n1 + draw(st.integers(1, 3))):
            v = [mp.mpc(draw(_UNIT), draw(_UNIT)) for _ in range(n1)]
            if draw(st.booleans()):  # toward_kernel
                v = [mp.fsum(mp.conj(X[b][a]) * v[b] for b in range(n1)) for a in range(n1)]
            norm = mp.sqrt(mp.fsum(abs(c) ** 2 for c in v))
            assume(norm > 0)
            reps.append([c / norm for c in v])
    return prec, L, reps


class TestFixedPointKernel:
    """The images, D and G in Python integers against their mpmath form."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(factors_and_rows())
    def test_no_less_accurate_than_mpmath(self, case):
        # both against the mpmath form at 4x the precision on the same
        # inputs; "no less accurate" up to 2^-10 units of the precision:
        # both round their results to prec bits, and a part far below the
        # rest is truncated at 2^-S, where mpmath keeps its relative digits
        from cluster_reduce.covariant import _from_fixed_rows, _gradient, _images

        prec, L, reps = case
        n1 = len(L)
        with mp.workprec(prec):
            w_mp, D_mp = oracle_images(L, reps)
            G_mp, norm_mp = oracle_gradient(w_mp, n1)
            w_fx, S, D_fx, _ = _images(L, reps)
            G_fx, norm_fx = _gradient(w_fx, S, n1)
            w_fx, G_fx = _from_fixed_rows(w_fx, S), _from_fixed_rows(G_fx, 2 * S)
        with mp.workprec(4 * prec):
            w, D = oracle_images(L, reps)
            G, norm = oracle_gradient(w, n1)

            def err(A, B):
                return max(abs(a - b) for ra, rb in zip(A, B) for a, b in zip(ra, rb))

            floor = mp.ldexp(1, -prec - 10)
            assert err(w_fx, w) <= err(w_mp, w) + floor
            assert abs(D_fx - D) <= abs(D_mp - D) + floor * max(1, abs(D))
            assert err(G_fx, G) <= err(G_mp, G) + floor * len(reps)
            assert abs(norm_fx - norm) <= abs(norm_mp - norm) + floor * len(reps)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(factors_and_rows())
    def test_keeps_twenty_guard_bits(self, case):
        # the integers themselves, before any rounding to prec bits: each
        # image L^H P_j is within 2^-(prec+20) of its norm, so the unit
        # images are within 2^-(prec+18) and G within m 2^-(prec+16)
        from cluster_reduce.covariant import _from_fixed_rows, _gradient, _images

        prec, L, reps = case
        n1, m = len(L), len(reps)
        with mp.workprec(prec):
            w_fx, S, _, _ = _images(L, reps)
            G_fx, _ = _gradient(w_fx, S, n1)
        with mp.workprec(4 * prec):
            w, _ = oracle_images(L, reps)
            G, _ = oracle_gradient(w, n1)

            def err(A, B):
                return max(abs(a - b) for ra, rb in zip(A, B) for a, b in zip(ra, rb))

            assert err(_from_fixed_rows(w_fx, S), w) <= mp.ldexp(1, -prec - 18)
            assert err(_from_fixed_rows(G_fx, 2 * S), G) <= m * mp.ldexp(1, -prec - 16)


class TestMinimize:
    def test_standard_simplex_covariant(self):
        for n in (1, 2, 3):
            res = minimize(standard_simplex(n))
            expected = q0_matrix(n)
            assert matrices_close_mod_scaling(res.z.mat(), expected, mp.mpf("1e-10"))

    def test_requires_stability(self):
        Z = cluster_of((1, 0), (1, 0), (0, 1))  # double point of a cubic cluster
        with pytest.raises(StabilityError):
            minimize(Z)

    def test_unique_minimizer_many_starts(self, rnd, monkeypatch):
        Z = random_cluster(rnd, 2, 4)
        assert classify(Z).is_stable
        base = minimize(Z).z.mat()
        for _ in range(10):
            start_newton_from(monkeypatch, random_pd_hermitian(rnd, 3))
            res = minimize(Z)
            assert matrices_close_mod_scaling(res.z.mat(), base, mp.mpf("1e-6"))

    def test_theta_consistency(self, rnd):
        Z = random_cluster(rnd, 1, 4)
        res = minimize(Z)
        value = eval_D(normalize_cluster(Z), res.z)
        assert abs(mp.log(res.theta) - value) < mp.mpf("1e-20")

    def test_equivariance(self, rnd):
        Z = random_cluster(rnd, 2, 4)
        g = random_sl(rnd, 3)
        ginv_t = (g**-1).transpose()
        # acting on rows by g^(-T) moves the covariant by conj(g)^T z g
        moved = minimize(act(Z, ginv_t)).z.mat()
        zg = g.transpose_conj() * minimize(Z).z.mat() * g
        assert matrices_close_mod_scaling(moved, zg, mp.mpf("1e-6"))

    def test_real_cluster_real_covariant(self, rnd):
        Z = random_real_cluster(rnd, 2, 4)
        if not classify(Z).is_stable:
            pytest.skip("random draw unstable")
        res = minimize(Z)
        imag = max(abs(mp.im(v)) for row in res.z.matrix for v in row)
        assert imag < mp.mpf("1e-8")

    @pytest.mark.parametrize("Z", TYLER_CASES)
    def test_matches_tyler_fixed_point(self, Z):
        res = minimize(Z)
        assert matrices_close_mod_scaling(
            res.z.mat(), mp.matrix(oracle_tyler_covariant(Z).tolist()), mp.mpf("1e-8")
        )

    @pytest.mark.parametrize("Z", TYLER_CASES)
    def test_transcript_monotone_in_few_newton_steps(self, Z):
        res = minimize(Z, tol=mp.mpf(10) ** -12)
        assert res.iterations <= 12
        values = [D for _, D, _ in res.transcript]
        assert [it for it, _, _ in res.transcript] == list(range(res.iterations + 1))
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert abs(values[-1] - mp.log(res.theta)) < mp.mpf("1e-40")

    @pytest.mark.parametrize("bits", [106, 212, 424])
    @pytest.mark.parametrize("Z", TYLER_CASES)
    def test_default_stop_comes_from_the_precision(self, Z, bits):
        # with no tolerance given, Newton stops at a gradient norm of at most
        # 2^(-3 prec/4), or at the resolution of the iterate; the steps it
        # takes below 2^(-prec/2) move D by less than its rounding
        from cluster_reduce._precision import half_eps

        with mp.workprec(bits):
            res = minimize(Z)
            assert res.stop in ("tol", "resolution")
            if res.stop == "tol":
                assert res.final_gradient_norm <= half_eps() ** 1.5
            values = [D for _, D, _ in res.transcript]
            assert len(values) == res.iterations + 1
            rounding = mp.mpf(2) ** (24 - bits)
            assert all(b <= a + rounding for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bits", [53, 212])
    def test_steps_keep_determinant_one(self, bits, monkeypatch):
        # only the start is scaled; the trace-free steps must keep det z = 1.
        # The default start is Tyler's covariant in doubles, which leaves too
        # few steps to test, so the identity starts the solver
        from cluster_reduce._precision import half_eps

        Z = cluster_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, -1, 5))
        with mp.workprec(bits):
            start_newton_from(monkeypatch, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
            res = minimize(Z)
            assert res.iterations >= 3
            assert abs(res.z.det() - 1) < half_eps()

    def test_unsettled_doubles_start_newton_from_their_last_iterate(self):
        # a clusters-benchmark input (seed 1) whose covariant is too
        # ill-conditioned for Tyler's sweeps alone to settle in 100: the
        # Newton steps in doubles settle it, and the start, positive
        # definite, leaves Newton at the working precision a step or two
        from cluster_reduce._precision import hermitian_cholesky
        from cluster_reduce.covariant import _tyler_in_doubles

        Z = _unsettled_cluster()
        with mp.workprec(212):
            rows = [[complex(c) for c in r] for r in normalize_cluster(Z).reps]
            hermitian_cholesky(_tyler_in_doubles(rows))
            res = minimize(Z)
        assert res.iterations <= 4
        assert res.stop == "tol"

    def test_tyler_in_doubles_equals_the_full_sum(self):
        # summing half of M and conjugating the rest, and the Newton update as
        # one matrix product, change no bit; every call takes Newton steps
        from cluster_reduce.covariant import _tyler_in_doubles

        for rows in _clusters_in_doubles():
            got, want = _tyler_in_doubles(rows), oracle_tyler_in_doubles(rows)
            assert got == want and repr(got) == repr(want)

    def test_tyler_in_doubles_meets_its_stop_before_the_cap(self, monkeypatch):
        # with Tyler's sweeps alone the unsettled cluster runs all 100; with
        # Newton steps from a gradient of 2^-7 m every call stops by the rule
        # (2^-40 m, or stagnation below 2^-20 m) within 20 steps of either kind
        from cluster_reduce import covariant

        sweep, direction, steps = covariant._lower_inverse, covariant._newton_direction, []

        def counted_sweep(K):
            steps[-1] += 1
            return sweep(K)

        def counted_direction(*args):
            out = direction(*args)
            steps[-1] += not out[4]  # a fallback direction leaves the step to a sweep
            return out

        monkeypatch.setattr(covariant, "_lower_inverse", counted_sweep)
        monkeypatch.setattr(covariant, "_newton_direction", counted_direction)
        for rows in _clusters_in_doubles():
            steps.append(0)
            covariant._tyler_in_doubles(rows)
        assert max(steps) <= 20, steps

    @pytest.mark.parametrize("bad", ["scale", "square", "nan"])
    def test_overflowing_newton_step_ends_at_the_last_finite_iterate(self, monkeypatch, bad):
        # a Newton step whose scale 2^f overflows, whose factor's squared
        # norm overflows, or which is NaN ends the iteration at the iterate it
        # started from: finite, positive definite, and the one where Tyler's
        # sweeps brought the gradient below 2^-7 m, not the identity
        import math

        from cluster_reduce import covariant
        from cluster_reduce._precision import hermitian_cholesky

        expm1 = covariant._expm1_in_doubles

        def broken(B, p):
            Y, f = expm1(B, p)
            if bad == "nan":
                return [[math.nan] * len(Y) for _ in Y], f
            return Y, f + (1100 if bad == "scale" else 600)

        monkeypatch.setattr(covariant, "_expm1_in_doubles", broken)
        Z = cluster_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, -1, 5))
        zc = normalize_cluster(Z)
        Q = covariant._tyler_in_doubles([[complex(c) for c in r] for r in zc.reps])
        assert all(math.isfinite(v.real) and math.isfinite(v.imag) for r in Q for v in r)
        hermitian_cholesky(Q)
        gnorm = grad_D(zc, HermitianForm([[mp.mpc(v) for v in r] for r in Q])).norm()
        assert 2**-20 * 6 < gnorm <= 2**-7 * 6

    def test_pencil_base_points_match_published_covariant(self):
        # the four base points of the reference pencil: the solver must cross
        # 13 orders of magnitude of eigenvalue spread
        from cluster_reduce import curve_intersection

        from conftest import PENCIL_COVARIANT, PENCIL_Q1, PENCIL_Q2

        Q1p = -21 * PENCIL_Q1 + 8 * PENCIL_Q2
        Q2p = -8 * PENCIL_Q1 + 3 * PENCIL_Q2
        Z = curve_intersection(Q1p, Q2p).cluster()
        res = minimize(Z)
        assert matrices_close_mod_scaling(
            res.z.mat(), mp.matrix(PENCIL_COVARIANT), mp.mpf("1e-3")
        )


class TestStart:
    """The solver starts from the closed form for n+2 points in general
    position, from Tyler's covariant in doubles otherwise, and from the
    identity where either fails."""

    def test_n_plus_two_points_off_general_position_start_from_tyler(self, monkeypatch):
        from cluster_reduce import covariant

        calls = []
        real = covariant._tyler_in_doubles

        def counted(points):
            calls.append(len(points))
            return real(points)

        monkeypatch.setattr(covariant, "_tyler_in_doubles", counted)
        monkeypatch.setattr(covariant, "NEWTON_ITERATIONS", 5)
        # three of the four points lie on a line: unstable, so Newton fails,
        # but it starts from Tyler's last iterate
        Z = cluster_of((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 3))
        with pytest.raises(ConvergenceError):
            minimize(Z, check_stability=False)
        assert calls == [4]
        reps = normalize_cluster(Z).reps
        start = covariant._start(Z, reps)
        tyler = real([[complex(c) for c in r] for r in reps])
        assert start == tyler

    def test_arithmetic_error_in_doubles_starts_from_the_identity(self, monkeypatch):
        from cluster_reduce import covariant

        def overflow(points):
            raise OverflowError("forced")

        monkeypatch.setattr(covariant, "_tyler_in_doubles", overflow)
        Z = cluster_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, -1, 5))
        start = covariant._start(Z, normalize_cluster(Z).reps)
        assert start == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert minimize(Z).stop == "tol"

    def test_start_not_positive_definite_starts_newton_from_the_identity(self, monkeypatch):
        # Newton's first factorization decides: a start that it rejects at
        # the working precision gives the run from the identity
        Z = cluster_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, -1, 5))
        start_newton_from(monkeypatch, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        from_identity = minimize(Z)
        start_newton_from(monkeypatch, [[1, 2, 0], [2, 1, 0], [0, 0, 1]])
        res = minimize(Z)
        assert res.z.matrix == from_identity.z.matrix
        assert res.transcript == from_identity.transcript and res.iterations >= 3

    @pytest.mark.parametrize(
        "points",
        [
            ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)),
            ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, -1, 5)),
        ],
        ids=["closed-form", "doubles"],
    )
    def test_start_is_factored_once(self, monkeypatch, points):
        # one factorization at the working precision per iterate, the
        # start's included: none decides the start beforehand
        from cluster_reduce import covariant
        from cluster_reduce._precision import hermitian_cholesky

        factored = []

        def counted(A):
            if isinstance(A[0][0], (mp.mpf, mp.mpc)):
                factored.append(len(A))
            return hermitian_cholesky(A)

        monkeypatch.setattr(covariant, "hermitian_cholesky", counted)
        res = minimize(cluster_of(*points))
        assert res.stop == "tol"
        assert factored == [3] * (res.iterations + 1)


def _hermitian_3x3():
    """B B^H + I for a fixed Gaussian-integer B: Hermitian positive definite
    with exact entries."""
    B = [[mp.mpc(1, 2), mp.mpc(-3, 1), 2], [0, mp.mpc(2, -1), mp.mpc(1, 1)], [mp.mpc(-1, 0), 4, mp.mpc(0, -3)]]
    return [[sum(B[i][k] * mp.conj(B[j][k]) for k in range(3)) + (i == j) for j in range(3)] for i in range(3)]


class TestHermitianCholesky:
    """One factorization, in the arithmetic of the entries: mpmath at the
    working precision or built-in numbers in doubles. Its pivot test rejects
    every pivot that is not positive and finite."""

    @pytest.mark.parametrize("arithmetic", ["mpmath", "built-in"])
    @pytest.mark.parametrize(
        "where",
        [(0, 0), (2, 2), (1, 0), (2, 1)],
        ids=["first-pivot", "last-pivot", "below-first-pivot", "below-last-pivot"],
    )
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_entry_is_not_positive_definite(self, arithmetic, where, bad):
        from cluster_reduce._precision import hermitian_cholesky

        A = _hermitian_3x3()
        i, j = where
        A[i][j] = A[j][i] = mp.mpf(bad)
        if arithmetic == "built-in":
            A = [[complex(v) for v in row] for row in A]
        with pytest.raises(NotPositiveDefiniteError):
            hermitian_cholesky(A)

    def test_same_factor_in_doubles_and_at_the_working_precision(self):
        from cluster_reduce._precision import hermitian_cholesky

        with mp.workprec(212):
            A = _hermitian_3x3()
            L = hermitian_cholesky(A)
            Ld = hermitian_cholesky([[complex(v) for v in row] for row in A])
            scale = max(abs(v) for row in L for v in row)
            for i in range(3):
                assert isinstance(L[i][i], mp.mpf) and isinstance(Ld[i][i], float)
                for j in range(3):
                    if j > i:
                        assert L[i][j] == Ld[i][j] == 0
                    assert abs(complex(L[i][j]) - Ld[i][j]) <= 1e-14 * scale
            for i in range(3):
                for j in range(3):
                    entry = mp.fsum(L[i][k] * mp.conj(L[j][k]) for k in range(3))
                    assert abs(entry - A[i][j]) <= mp.mpf(2) ** -200 * abs(A[0][0])

    def test_reads_the_lower_triangle_only(self):
        from cluster_reduce._precision import hermitian_cholesky

        A = _hermitian_3x3()
        upper_garbage = [[A[i][j] if j <= i else mp.nan for j in range(3)] for i in range(3)]
        assert hermitian_cholesky(upper_garbage) == hermitian_cholesky(A)


class TestHermitianForm:
    """Determinant, normalization and comparison of a form all come from its
    Cholesky factor, so a matrix that is not positive definite is no form,
    whatever the sign of its determinant."""

    @pytest.mark.parametrize("method", ["det", "normalized", "same_form"])
    def test_indefinite_matrix_of_positive_determinant_is_rejected(self, method):
        Q = HermitianForm([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
        with pytest.raises(NotPositiveDefiniteError):
            getattr(Q, method)(*([Q] if method == "same_form" else []))

    def test_det_and_normalized_of_a_positive_definite_form(self):
        Q = HermitianForm(_hermitian_3x3())
        assert abs(Q.det() / mp.re(mp.det(Q.mat())) - 1) < mp.mpf(2) ** -200
        assert abs(Q.normalized().det() - 1) < mp.mpf(2) ** -200
        assert Q.same_form(HermitianForm([[3 * v for v in row] for row in Q.matrix]))

    def test_non_square_rejected(self):
        from cluster_reduce import DimensionError

        with pytest.raises(DimensionError, match="must be square"):
            HermitianForm([[1, 0], [0]])

    def test_forms_of_different_sizes_differ(self):
        Q = HermitianForm(_hermitian_3x3())
        assert not Q.same_form(HermitianForm([[1, 0], [0, 1]]))
        assert repr(Q) == "HermitianForm(n=2)"

    @pytest.mark.parametrize("fn", [eval_D, grad_D])
    def test_form_of_another_size_than_the_cluster_rejected(self, fn):
        from cluster_reduce import DimensionError

        zc = normalize_cluster(PointCluster(tuple(ProjectivePoint(p) for p in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])))
        with pytest.raises(DimensionError, match="does not match"):
            fn(zc, HermitianForm([[1, 0], [0, 1]]))


def _off_hermitian(kind, delta):
    """A form, Gram matrix or tangent direction of size 3 whose (1, 0) entry
    is off by ``delta`` from the conjugate of its (0, 1) entry, or, for
    "trace", a tangent direction of trace ``delta``; and how to check it.
    The form is also given to eval_D as rows and to grad_D as a
    HermitianForm."""
    from cluster_reduce import GramMatrix, TangentDirection, lll_reduce

    A = [[2, 0, 0], [delta, 3, 0], [0, 0, 4]]
    if kind == "eval_D":
        return lambda: eval_D(normalize_cluster(standard_simplex(2)), A), NotPositiveDefiniteError
    if kind == "grad_D":
        return lambda: grad_D(normalize_cluster(standard_simplex(2)), HermitianForm(A)), NotPositiveDefiniteError
    if kind == "form":
        return HermitianForm(A).check, NotPositiveDefiniteError
    if kind == "gram":
        return GramMatrix(A).check, NotPositiveDefiniteError
    if kind == "lll":
        return lambda: lll_reduce(GramMatrix(A)), NotPositiveDefiniteError
    B = [[1, 0, 0], [delta, 0, 0], [0, 0, -1]]
    if kind == "trace":
        B = [[delta, 0, 0], [0, 1, 0], [0, 0, -1]]
    return TangentDirection(B).check, ValueError


class TestHermitianSymmetry:
    """One symmetry test, at 2^(-prec/2) (1 + max |entry|), for forms, Gram
    matrices and tangent directions, and for the forms that callers give
    eval_D and grad_D."""

    KINDS = ["form", "gram", "lll", "tangent", "trace", "eval_D", "grad_D"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_off_by_a_quarter_of_the_precision_is_rejected(self, kind):
        check, error = _off_hermitian(kind, mp.mpf(2) ** (-mp.mp.prec // 4))
        with pytest.raises(error):
            check()

    @pytest.mark.parametrize("kind", KINDS)
    def test_off_by_the_precision_is_accepted(self, kind):
        check, _ = _off_hermitian(kind, mp.mpf(2) ** -mp.mp.prec)
        check()


@st.composite
def stable_clusters_off_the_minimizer(draw):
    """A stable cluster of n+2 to n+5 Gaussian-integer points of P^1..P^3,
    and the start S S^T + I for an integer matrix S."""
    n = draw(st.integers(1, 3))
    part = st.integers(-3, 3)
    point = st.lists(st.tuples(part, part), min_size=n + 1, max_size=n + 1)
    pts = [p for p in draw(st.lists(point, min_size=n + 2, max_size=n + 5)) if any(a or b for a, b in p)]
    assume(len(pts) >= n + 2)
    Z = cluster_of(*(tuple(mp.mpc(a, b) for a, b in p) for p in pts))
    assume(classify(Z).is_stable)
    row = st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1)
    S = draw(st.lists(row, min_size=n + 1, max_size=n + 1))
    start = [[sum(x * y for x, y in zip(S[a], S[b])) + (a == b) for b in range(n + 1)] for a in range(n + 1)]
    return Z, start


def _iterate(Z, start, k):
    """The k-th Newton iterate from ``start``."""
    from cluster_reduce import covariant

    with pytest.MonkeyPatch.context() as patch:
        start_newton_from(patch, start)
        patch.setattr(covariant, "NEWTON_ITERATIONS", k)
        try:
            return minimize(Z, check_stability=False).z
        except ConvergenceError as exc:
            return exc.best.z


class TestNewtonStep:
    """The correction in doubles: every step's decrease of D is certified,
    and the solver converges where the gradient is far below the range of
    doubles."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(stable_clusters_off_the_minimizer())
    def test_every_step_lowers_D_by_a_quarter_of_its_slope(self, case):
        from cluster_reduce import covariant

        Z, start = case
        zc = normalize_cluster(Z)
        with pytest.MonkeyPatch.context() as patch:
            start_newton_from(patch, start)
            patch.setattr(covariant, "NEWTON_ITERATIONS", 40)
            res = minimize(Z, check_stability=False)
        assert res.stop == "tol"
        D = [eval_D(zc, _iterate(Z, start, k)) for k in range(res.iterations + 1)]
        rounding = mp.mpf(2) ** (24 - mp.mp.prec)  # of D at the working precision
        for k in range(1, res.iterations + 1):
            step = res.transcript[k][2]
            assert D[k] - D[k - 1] <= step.lam * step.slope / 4 + rounding
            assert step.certified_by in ("armijo", "length")
            if step.certified_by == "length":
                assert step.length <= mp.mpf(1) / 10

    @pytest.mark.parametrize("bits", [212, 424, 848, 1600])
    def test_pipeline_tolerance_is_met_at_high_precision(self, bits, monkeypatch):
        # the pipelines' tolerance, minimize's default 2^(-3 prec/4), is
        # 2^-1200 at 1600 bits, far below the range of doubles: G is scaled
        # by a power of two before it is rounded, or the correction underflows
        from cluster_reduce import covariant
        from cluster_reduce._precision import half_eps

        monkeypatch.setattr(covariant, "NEWTON_ITERATIONS", 60)
        Z = cluster_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, -1, 5))
        with mp.workprec(bits):
            res = minimize(Z)
            assert res.stop == "tol"
            assert res.final_gradient_norm <= half_eps() ** 1.5

    @pytest.mark.parametrize("bits", [53, 212])
    def test_step_out_of_the_cone_names_the_precision(self, bits, monkeypatch):
        # a Newton update that fails its Cholesky factorization is a
        # shortfall of the working precision: the error names it, and the
        # last iterate, here the start, comes back as ``best``
        from cluster_reduce import covariant
        from cluster_reduce._precision import hermitian_cholesky

        factored = []

        def cholesky(A):
            if isinstance(A[0][0], (mp.mpf, mp.mpc)):
                factored.append(A)
                if len(factored) == 2:  # the start's, then iteration 0's update
                    raise NotPositiveDefiniteError("pivot is not positive")
            return hermitian_cholesky(A)

        Z = cluster_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, -1, 5))
        identity = [[int(a == b) for b in range(3)] for a in range(3)]
        with mp.workprec(bits):
            start_newton_from(monkeypatch, identity)
            monkeypatch.setattr(covariant, "hermitian_cholesky", cholesky)
            with pytest.raises(ConvergenceError) as info:
                minimize(Z)
        assert str(info.value) == (
            f"the Newton step left the positive definite cone at iteration 0, at the working precision of {bits} bits"
        )
        best = info.value.best
        assert best.iterations == 0 and best.stop is None and len(best.transcript) == 1
        assert [list(row) for row in best.z.matrix] == identity

    def test_damped_steps_from_the_identity_give_the_transform_of_the_tyler_start(self, monkeypatch):
        # seven points of P^3 distorted by a unimodular matrix: from the
        # identity the first steps are damped, certified by the change of D
        # in doubles, and the reduction is the one from Tyler's start
        from cluster_reduce import reduce_cluster

        rnd = random.Random(18)
        base = cluster_of(
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1), (1, -2, 3, 1), (2, 1, -1, 3)
        )
        V = random_unimodular_int(rnd, 4, max_entry=500)
        Z = act(base, [[mp.mpf(v) for v in row] for row in V])
        report = reduce_cluster(Z)
        start_newton_from(monkeypatch, mp.eye(4))
        res = minimize(Z)
        steps = [step for _, _, step in res.transcript[1:]]
        assert any(step.certified_by == "armijo" and step.lam < 1 for step in steps)
        assert res.stop == "tol"
        from_identity = reduce_cluster(Z)
        assert from_identity.diagnostics["iterations"] > report.diagnostics["iterations"]
        assert from_identity.transform.matrix == report.transform.matrix


class TestTheta:
    def test_standard_four_point_value(self):
        zc = normalize_cluster(standard_simplex(2))
        res = theta(zc)
        expected = mp.mpf(27) / mp.mpf(2) ** (mp.mpf(16) / 3)
        assert res.attained
        assert abs(res.value - expected) < mp.mpf("1e-10")

    def test_scaling_law(self, rnd):
        Z = random_cluster(rnd, 2, 4)
        zc = normalize_cluster(Z)
        lam = mp.mpc(mp.mpf("1.5"), mp.mpf("-0.7"))
        a = theta(zc).value
        b = theta(zc.scale_point(1, lam)).value
        assert abs(b - abs(lam) ** 2 * a) < mp.mpf("1e-8") * abs(a)

    def test_unstable_returns_zero_with_witness(self):
        # 5 of 6 points on a line in P^2
        Z = cluster_of(
            (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (0, 0, 1)
        )
        zc = normalize_cluster(Z)
        res = theta(zc)
        assert res.value == 0
        assert not res.attained
        assert res.witness is not None
        assert witness_slope_holds(zc, res)
        # D diverges along the witness family
        values = [eval_D(zc, res.witness.form_at(mp.e ** k)) for k in (1, 5, 20)]
        assert values[2] < values[1] < values[0]

    def test_semistable_not_attained_flag(self):
        Z = cluster_of((1, 0), (1, 0), (0, 1), (1, 1))
        zc = normalize_cluster(Z)
        res = theta(zc)
        assert not res.attained
        assert res.value > 0
        assert witness_slope_holds(zc, res)
        # for this configuration the infimum is exp(-log 2)
        assert abs(res.value - mp.mpf("0.5")) < mp.mpf("1e-10")

    def test_polystable_infimum_attained(self):
        # D is constant along the torus of the direct sum (1,0)^2 + (0,1)^2:
        # the infimum 1 is its value at the identity
        zc = normalize_cluster(cluster_of((1, 0), (1, 0), (0, 1), (0, 1)))
        res = theta(zc)
        assert res.attained
        assert abs(res.value - 1) < mp.mpf("1e-10")
        assert witness_slope_holds(zc, res)
        # a double point of P^0 plus four points of a line of P^2 stable there
        zc = normalize_cluster(cluster_of((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2)))
        res = theta(zc)
        assert res.attained
        assert witness_slope_holds(zc, res)
        # split as well, but one summand is only semi-stable in its span P^2
        zc = normalize_cluster(cluster_of(
            (1, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0),
            (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 1, 1), (0, 1, 2, 3),
        ))
        res = theta(zc)
        assert res.stability.is_split and res.stability.is_semi_stable
        assert not res.attained
        assert witness_slope_holds(zc, res)

    @pytest.mark.parametrize("prec", [53, 106, 212])
    def test_point_off_the_witness_near_the_threshold(self, prec):
        # (1,e,e) is off the double point for classify, although each of its
        # components off it is below the threshold: the witness family must
        # count it off too, or D falls along the family without bound
        with mp.workprec(prec):
            Z = near_threshold_cluster()
            zc = normalize_cluster(Z)
            res = theta(zc)
            w = res.stability.witness
            assert w.contained == oracle_count_on_span(Z, w.spanning_points) == 2
            assert res.value > mp.mpf(2) ** (-2 * prec)
            assert witness_slope_holds(zc, res)

    def test_stable_newton_failure_names_the_precision(self):
        # at 76 bits the reference pencil's base points are classified stable
        # but their covariant is not resolved: no value is reported as attained
        from cluster_reduce import curve_intersection

        from conftest import PENCIL_Q1, PENCIL_Q2

        with mp.workprec(212):
            Z = curve_intersection(PENCIL_Q1, PENCIL_Q2).cluster()
        zc = normalize_cluster(Z)
        with pytest.raises(ConvergenceError) as info:
            theta(zc, prec=76)
        assert str(info.value).endswith("at the working precision of 76 bits")
        res = theta(zc, prec=212)
        assert res.attained
        assert res.value == minimize(Z, prec=212).theta

    @pytest.mark.parametrize("index", range(len(SEMI_STABLE_CASES)))
    def test_semistable_solver_stops_by_the_gradient_test(self, index, monkeypatch):
        from cluster_reduce import covariant

        Z = SEMI_STABLE_CASES[index]
        cls = classify(Z)
        assert cls.is_semi_stable and not cls.is_stable
        # where the infimum is not attained the gradient still tends to 0
        # along the way to it, but only sublinearly: theta's solver must meet
        # its fixed stop test 10^-12 in 60 steps
        monkeypatch.setattr(covariant, "NEWTON_ITERATIONS", 60)
        calls = []
        monkeypatch.setattr(covariant, "minimize", lambda *a, **k: calls.append(minimize(*a, **k)) or calls[-1])
        zc = normalize_cluster(Z)
        theta_res = theta(zc)
        assert theta_res.attained == SEMI_STABLE_ATTAINED[index]
        assert witness_slope_holds(zc, theta_res)
        (res,) = calls
        assert res.stop == "tol" and res.final_gradient_norm <= mp.mpf(10) ** -12
        if index == 0:
            assert abs(res.theta - mp.mpf("0.5")) < mp.mpf("1e-10")

    def test_witness_evaluators_agree_at_moderate_lambda(self):
        Z = cluster_of(
            (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (0, 0, 1)
        )
        zc = normalize_cluster(Z)
        res = theta(zc)
        assert witness_slope_holds(zc, res)
        for t in (0, 1, 3):
            lam = mp.e ** mp.mpf(t)
            direct = res.witness.distance_at(zc, lam)
            dense = eval_D(zc, res.witness.form_at(lam))
            assert abs(direct - dense) < mp.mpf("1e-25")


class TestSimplexCovariant:
    def test_standard_points(self):
        for n in (1, 2, 3):
            z = simplex_covariant(standard_simplex(n))
            assert matrices_close_mod_scaling(z.mat(), q0_matrix(n), mp.mpf("1e-25"))

    def test_degenerate_position_rejected(self):
        Z = cluster_of((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1))
        with pytest.raises(DegeneratePositionError):
            simplex_covariant(Z)

    def test_wrong_count_rejected(self):
        Z = cluster_of((1, 0), (0, 1))
        with pytest.raises(Exception):
            simplex_covariant(Z)

    def test_agrees_with_minimizer(self, rnd):
        for n in (1, 2):
            Z = random_cluster(rnd, n, n + 2)
            closed = simplex_covariant(Z)
            descended = minimize(Z)
            assert matrices_close_mod_scaling(
                closed.mat(), descended.z.mat(), mp.mpf("1e-9")
            )

    def test_equivariance_via_closed_form(self, rnd):
        Z = random_cluster(rnd, 2, 4)
        g = random_sl(rnd, 3)
        ginv_t = (g**-1).transpose()
        moved = simplex_covariant(act(Z, ginv_t)).mat()
        zg = g.transpose_conj() * simplex_covariant(Z).mat() * g
        assert matrices_close_mod_scaling(moved, zg, mp.mpf("1e-20"))


def _gaussian_det(rows):
    """Determinant by Laplace expansion along the first row; exact for the
    small Gaussian integers of :func:`simplex_units`, whose products stay far
    below 2^53 in built-in complex."""
    if len(rows) == 1:
        return rows[0][0]
    minors = ([r[:j] + r[j + 1 :] for r in rows[1:]] for j in range(len(rows)))
    return sum((-1) ** j * a * _gaussian_det(minor) for j, (a, minor) in enumerate(zip(rows[0], minors)))


@st.composite
def simplex_units(draw):
    """(prec, units): n+2 Gaussian-integer points of P^n in general position,
    every n+1 of them independent (exact determinants), moved by a
    unimodular integer matrix with entries up to 2^20 (2^4 at 53 bits, where
    more would reach the rank threshold 2^-26) and each coordinate scaled by
    a power of two up to 2^+-(prec/64), as unit rows at prec bits."""
    prec = draw(st.sampled_from([53, 212, 424]))
    n = draw(st.integers(1, 3))
    coord = st.integers(-9, 9)
    pts = [[complex(draw(coord), draw(coord)) for _ in range(n + 1)] for _ in range(n + 2)]
    assume(all(_gaussian_det(list(sub)) != 0 for sub in itertools.combinations(pts, n + 1)))
    height = 2**4 if prec == 53 else 2**20
    U = random_unimodular_int(random.Random(draw(st.integers(0, 2**32))), n + 1, height)
    spread = prec // 64
    scale = [draw(st.integers(-spread, spread)) for _ in range(n + 1)]
    with mp.workprec(prec):
        rows = [[mp.mpc(sum(p[a] * U[a][b] for a in range(n + 1))) * mp.ldexp(1, e) for b, e in enumerate(scale)]
                for p in pts]
        units = normalize_cluster(cluster_of(*rows)).reps
    return prec, units


def _equilibrated_error(K, O):
    """max_ab |K_ab - s O_ab| / sqrt(O_aa O_bb) for the scale s = mean of
    K_aa / O_aa: the relative error modulo positive scaling after the
    diagonal scaling that gives O a unit diagonal, so that small entries
    count as much as large ones."""
    n1 = len(O)
    s = mp.fsum(mp.re(K[a][a]) / mp.re(O[a][a]) for a in range(n1)) / n1
    return max(abs(K[a][b] - s * O[a][b]) / (s * mp.sqrt(mp.re(O[a][a]) * mp.re(O[b][b])))
               for a in range(n1) for b in range(n1))


def _degenerate_cluster(n, kind, move):
    """n+2 points of P^n that are in general position exactly when ``move``
    is nonzero, moved by the unimodular I + N, N the ones above the
    diagonal. "dependent": the point e_0 + ... + e_(n-1) + move e_n after
    the axes e_0, ..., e_(n-1). "subspace": the axes e_0, ..., e_n and then
    the point with coordinates move, 1, ..., 1, in the coordinate subspace of
    e_1, ..., e_n when move is 0."""
    axes = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    if kind == "dependent":
        pts = axes[:n] + [[1] * n + [move], list(range(1, n + 2))]
    else:
        pts = axes + [[move] + [1] * n]
    sheared = [[p[b] + (p[b - 1] if b else 0) for b in range(n + 1)] for p in pts]
    return cluster_of(*sheared)


class TestSimplexForm:
    """The closed form in Python integers against the mpmath path it
    replaced, run at 4x the precision."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(simplex_units())
    def test_matches_the_mpmath_closed_form_at_four_times_the_precision(self, case):
        from cluster_reduce.covariant import _simplex_form

        prec, units = case
        with mp.workprec(prec):
            K = _simplex_form(units)
        with mp.workprec(4 * prec):
            O = oracle_simplex_form(units)
            assert _equilibrated_error(K, O) <= mp.ldexp(1, 10 - prec)

    @pytest.mark.parametrize("kind", ["dependent", "subspace"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("prec", [53, 212, 424])
    def test_degenerate_position_is_rejected_and_a_quarter_of_the_precision_off_it_is_not(self, prec, n, kind):
        with mp.workprec(prec):
            exact = _degenerate_cluster(n, kind, 0)
            moved = _degenerate_cluster(n, kind, mp.ldexp(1, -(prec // 4)))
        with pytest.raises(DegeneratePositionError):
            simplex_covariant(exact, prec=prec)
        z = simplex_covariant(moved, prec=prec)
        with mp.workprec(4 * prec):
            O = oracle_simplex_form(normalize_cluster(moved).reps)
            assert _equilibrated_error(z.matrix, O) <= mp.ldexp(1, 10 - prec)


class TestConvexity:
    def test_second_difference_nonnegative(self, rnd):
        zc = normalize_cluster(random_cluster(rnd, 2, 5))
        Q = random_pd_hermitian(rnd, 3)
        eps = mp.mpf("1e-12")
        for _ in range(5):
            B = random_trace_free_hermitian(rnd, 3)
            second = fd_second_difference(
                lambda M: eval_D(zc, HermitianForm.from_matrix(M)), Q, B, eps
            )
            assert second > -mp.mpf("1e-8")

    def test_split_cluster_degenerate_direction(self):
        # split cluster: second derivative vanishes along the splitting
        zc = normalize_cluster(cluster_of((1, 0), (0, 1)))
        Q = mp.eye(2)
        B = mp.matrix([[1, 0], [0, -1]])
        second = fd_second_difference(
            lambda M: eval_D(zc, HermitianForm.from_matrix(M)), Q, B, mp.mpf("1e-12")
        )
        assert abs(second) < mp.mpf("1e-8")
