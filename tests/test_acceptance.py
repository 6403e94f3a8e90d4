"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time

import mpmath as mp
import pytest

from cluster_reduce import (
    ConvergenceError,
    GramMatrix,
    HermitianForm,
    PointCluster,
    ProjectivePoint,
    ScaledCluster,
    act,
    classify,
    eval_D,
    grad_D,
    is_lll_reduced,
    lll_reduce,
    minimize,
    normalize_cluster,
    reduce_binary_form,
    reduce_cluster,
    reduce_quadric_pencil,
    reduce_ternary_form,
    simplex_covariant,
    substitute,
    theta,
)
from cluster_reduce import MultiPoly, congruence

from conftest import (
    PENCIL_COVARIANT,
    PENCIL_CUBIC,
    PENCIL_FINAL_1,
    PENCIL_FINAL_2,
    PENCIL_Q1,
    PENCIL_Q2,
    QUARTIC,
    QUARTIC_COVARIANT,
    QUARTIC_REDUCED,
    matrices_close_mod_scaling,
    near_threshold_cluster,
    pair_matches_up_to_signed_permutation,
    rand_mpc,
    random_cluster,
    random_pd_hermitian,
    random_real_cluster,
    random_sl,
    random_trace_free_hermitian,
    random_unimodular_int,
    signed_permutations,
    start_newton_from,
    witness_slope_holds,
)
from oracles import (
    fd_directional_derivative,
    fd_second_difference,
    oracle_best_diagonal,
    oracle_classify,
)


def _line(name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}{(' ' + extra) if extra else ''}")
    assert ok, name


def cluster_of(*coords):
    return PointCluster(tuple(ProjectivePoint(c) for c in coords))


# ---------------------------------------------------------------------------


def test_criterion_1_pencil_end_to_end():
    t0 = time.time()
    report = reduce_quadric_pencil(PENCIL_Q1, PENCIL_Q2, prec=212)
    elapsed = time.time() - t0
    ok_cubic = report.extras["pencil_cubic"] == PENCIL_CUBIC
    with mp.workprec(212):
        ok_cov = matrices_close_mod_scaling(
            report.covariant.mat(), mp.matrix(PENCIL_COVARIANT), mp.mpf("1e-3")
        )
    ok_final = pair_matches_up_to_signed_permutation(
        report.reduced, (PENCIL_FINAL_1, PENCIL_FINAL_2)
    )
    ok_time = elapsed < 10
    _line(
        "criterion 1: pencil end-to-end",
        ok_cubic and ok_cov and ok_final and ok_time,
        f"(cubic exact: {ok_cubic}, covariant 1e-3: {ok_cov}, "
        f"finals: {ok_final}, {elapsed:.1f}s)",
    )


def test_criterion_2_quartic_end_to_end():
    t0 = time.time()
    report = reduce_ternary_form(QUARTIC, prec=424)
    elapsed = time.time() - t0
    cluster = report.extras["inflection_cluster"]
    ok_count = cluster.degree == 24
    with mp.workprec(424):
        residuals = report.diagnostics["residuals"]
        ok_resid = max(residuals) < mp.mpf("1e-25")
        ok_cov = matrices_close_mod_scaling(
            report.covariant.mat(), mp.matrix(QUARTIC_COVARIANT), mp.mpf("1e-4")
        )
    ok_height = report.reduced.height() <= 3
    ok_final = report.reduced == QUARTIC_REDUCED or any(
        substitute(QUARTIC_REDUCED, V) == report.reduced for V in signed_permutations(3)
    )
    ok_time = elapsed < 60
    _line(
        "criterion 2: quartic end-to-end",
        ok_count and ok_resid and ok_cov and ok_final and ok_height and ok_time,
        f"(24 points: {ok_count}, residuals<1e-25: {ok_resid}, covariant 1e-4: "
        f"{ok_cov}, final: {ok_final}, height<=3: {ok_height}, {elapsed:.1f}s)",
    )


def test_criterion_3_closed_form_oracle(monkeypatch):
    rnd = random.Random(3003)
    t0 = time.time()
    failures = 0
    trials = 0
    for i in range(50):
        n = [1, 2, 3][i % 3]
        Z = random_cluster(rnd, n, n + 2)
        if not classify(Z).is_stable:
            continue
        closed = simplex_covariant(Z)
        start_newton_from(monkeypatch, mp.eye(n + 1))
        descended = minimize(Z)
        trials += 1
        if not matrices_close_mod_scaling(closed.mat(), descended.z.mat(), mp.mpf("1e-8")):
            failures += 1
    _line(
        "criterion 3: closed form vs minimizer on 50 random clusters",
        failures == 0 and trials >= 48,
        f"({trials} trials, {failures} failures, {time.time() - t0:.1f}s)",
    )


# ---------------------------------------------------------------------------


def _transform_form(Q, g):
    out = g.transpose_conj() * Q * g
    return (out + out.transpose_conj()) / 2


def test_criterion_4a_d_invariance():
    rnd = random.Random(4001)
    worst = mp.mpf(0)
    with mp.workdps(64):
        for _ in range(100):
            n = rnd.choice([1, 2, 3])
            Z = random_cluster(rnd, n, rnd.randint(2, 5))
            zc = normalize_cluster(Z)
            Q = random_pd_hermitian(rnd, n + 1)
            g = random_sl(rnd, n + 1)
            ginv_t = (g**-1).transpose()
            moved = ScaledCluster(
                tuple(
                    tuple(sum(row[a] * ginv_t[a, j] for a in range(n + 1)) for j in range(n + 1))
                    for row in zc.reps
                )
            )
            a = eval_D(moved, HermitianForm.from_matrix(_transform_form(Q, g)))
            b = eval_D(zc, HermitianForm.from_matrix(Q))
            worst = max(worst, abs(a - b) / max(1, abs(b)))
    _line(
        "criterion 4a: D-invariance under determinant-1 changes (100 trials)",
        worst < mp.mpf("1e-9"),
        f"(worst {mp.nstr(worst, 3)})",
    )


def test_criterion_4b_gradient_finite_differences():
    rnd = random.Random(4002)
    worst = mp.mpf(0)
    eps = mp.mpf("1e-20")
    for _ in range(100):
        n = rnd.choice([1, 2])
        Z = random_cluster(rnd, n, rnd.randint(2, 5))
        zc = normalize_cluster(Z)
        Q = random_pd_hermitian(rnd, n + 1)
        B = random_trace_free_hermitian(rnd, n + 1)
        G = grad_D(zc, HermitianForm.from_matrix(Q)).mat()
        fd = fd_directional_derivative(
            lambda M: eval_D(zc, HermitianForm.from_matrix(M)), Q, B, eps
        )
        pairing = mp.re(
            mp.fsum(G[i, j] * B[j, i] for i in range(n + 1) for j in range(n + 1))
        )
        worst = max(worst, abs(fd - pairing) / max(mp.mpf(1), abs(pairing)))
    _line(
        "criterion 4b: gradient vs central differences (100 trials)",
        worst < mp.mpf("1e-6"),
        f"(worst {mp.nstr(worst, 3)})",
    )


def test_criterion_4c_convexity():
    rnd = random.Random(4003)
    worst = mp.mpf(0)
    eps = mp.mpf("1e-12")
    for _ in range(100):
        n = rnd.choice([1, 2])
        Z = random_cluster(rnd, n, rnd.randint(2, 5))
        zc = normalize_cluster(Z)
        Q = random_pd_hermitian(rnd, n + 1)
        B = random_trace_free_hermitian(rnd, n + 1)
        second = fd_second_difference(
            lambda M: eval_D(zc, HermitianForm.from_matrix(M)), Q, B, eps
        )
        worst = min(worst, second)
    _line(
        "criterion 4c: second differences nonnegative (100 trials)",
        worst > -mp.mpf("1e-8"),
        f"(most negative {mp.nstr(worst, 3)})",
    )


def test_criterion_4d_equivariance_of_minimizer():
    rnd = random.Random(4004)
    t0 = time.time()
    failures = 0
    for trial in range(100):
        n = rnd.choice([1, 2])
        m = n + 2 if trial % 3 else n + 3
        Z = random_cluster(rnd, n, m)
        if not classify(Z).is_stable:
            continue
        g = random_sl(rnd, n + 1)
        ginv_t = (g**-1).transpose()
        try:
            za = minimize(act(Z, ginv_t), tol=mp.mpf("1e-9")).z.mat()
            zb = _transform_form(minimize(Z, tol=mp.mpf("1e-9")).z.mat(), g)
        except ConvergenceError:
            failures += 1
            continue
        if not matrices_close_mod_scaling(za, zb, mp.mpf("1e-6")):
            failures += 1
    _line(
        "criterion 4d: minimizer equivariance (100 trials)",
        failures == 0,
        f"({failures} failures, {time.time() - t0:.1f}s)",
    )


def test_criterion_4e_conjugation_reality():
    rnd = random.Random(4005)
    t0 = time.time()
    worst = mp.mpf(0)
    trials = 0
    while trials < 100:
        n = rnd.choice([1, 2])
        Z = random_real_cluster(rnd, n, n + 2 + (trials % 2))
        if not classify(Z).is_stable:
            continue
        res = minimize(Z, tol=mp.mpf("1e-9"))
        imag = max(abs(mp.im(v)) for row in res.z.matrix for v in row)
        worst = max(worst, imag)
        trials += 1
    _line(
        "criterion 4e: covariants of real clusters are real (100 trials)",
        worst < mp.mpf("1e-8"),
        f"(worst imaginary part {mp.nstr(worst, 3)}, {time.time() - t0:.1f}s)",
    )


def _seeded_small_cluster(rnd):
    """Random cluster with m <= 6, n <= 3, degenerate structure planted often."""
    n = rnd.choice([1, 2, 3])
    m = rnd.randint(1, 6)
    mode = rnd.choice(["generic", "repeat", "flat", "axes"])
    pts = []
    if mode == "generic":
        pts = [tuple(rand_mpc(rnd) for _ in range(n + 1)) for _ in range(m)]
    elif mode == "repeat":
        base = [tuple(rand_mpc(rnd) for _ in range(n + 1)) for _ in range(max(1, m // 2))]
        while len(pts) < m:
            pts.append(rnd.choice(base))
        pts = pts[:m]
    elif mode == "flat":
        # several points inside a proper subspace spanned by integer vectors
        k = rnd.randint(1, n)
        basis = [tuple(rnd.randint(-2, 2) for _ in range(n + 1)) for _ in range(k)]
        basis = [b for b in basis if any(b)] or [(1,) + (0,) * n]
        for _ in range(m):
            if rnd.random() < 0.6:
                coeffs = [rnd.randint(-2, 2) for _ in basis]
                v = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n + 1))
                pts.append(v if any(v) else basis[0])
            else:
                pts.append(tuple(rnd.randint(-2, 2) for _ in range(n + 1)))
                if not any(pts[-1]):
                    pts[-1] = (1,) + (0,) * n
    else:
        for _ in range(m):
            if rnd.random() < 0.7:
                i = rnd.randrange(n + 1)
                pts.append(tuple(1 if j == i else 0 for j in range(n + 1)))
            else:
                pts.append(tuple(rnd.randint(-1, 1) for _ in range(n + 1)))
                if not any(pts[-1]):
                    pts[-1] = (1,) + (0,) * n
    return cluster_of(*pts)


def test_criterion_4f_classifier_vs_exhaustive_oracle():
    rnd = random.Random(4006)
    t0 = time.time()
    mismatches = 0
    for _ in range(120):
        Z = _seeded_small_cluster(rnd)
        cls = classify(Z)
        split, semi, stable = oracle_classify(Z)
        if (cls.is_split, cls.is_semi_stable, cls.is_stable) != (split, semi, stable):
            mismatches += 1
    _line(
        "criterion 4f: classifier equals exhaustive oracle (120 clusters)",
        mismatches == 0,
        f"({mismatches} mismatches, {time.time() - t0:.1f}s)",
    )


# ---------------------------------------------------------------------------


def _unstable_cluster(rnd):
    """Cluster violating semi-stability: a planted subspace holds too many points."""
    n = rnd.choice([1, 2, 3])
    k = rnd.randrange(n)
    m = rnd.randint(max(2, n), 6)
    # need phi(k) > (k+1) m / (n+1)
    overload = int((k + 1) * m / (n + 1)) + 1
    overload = min(max(overload, k + 2), m)
    basis = [tuple(1 if j == i else 0 for j in range(n + 1)) for i in range(k + 1)]
    pts = []
    for t in range(overload):
        coeffs = [rnd.randint(1, 3) for _ in basis]
        v = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n + 1))
        pts.append(v)
    while len(pts) < m:
        pts.append(tuple(rand_mpc(rnd) for _ in range(n + 1)))
    Z = cluster_of(*pts)
    return Z if not classify(Z).is_semi_stable else None


def test_criterion_5_unstable_behavior():
    rnd = random.Random(5005)
    t0 = time.time()
    built = 0
    ok_zero = True
    ok_diverge = True
    ok_slope = True
    while built < 20:
        Z = _unstable_cluster(rnd)
        if Z is None:
            continue
        built += 1
        zc = normalize_cluster(Z)
        res = theta(zc)
        if res.value != 0 or res.witness is None:
            ok_zero = False
            continue
        val = res.witness.distance_at(zc, mp.e ** mp.mpf(20000))
        if not val < -mp.mpf(10) ** 4:
            ok_diverge = False
        # every witness falls with the slope of classify's count on it
        ok_slope = ok_slope and witness_slope_holds(zc, res)
    # semi-stable but not stable: the same family must stay above the estimate
    ok_bounded = True
    # (cluster, infimum attained): only the polystable (1,0)^2 + (0,1)^2 attains it
    sst_cases = [
        (cluster_of((1, 0), (1, 0), (0, 1), (1, 1)), False),
        (cluster_of((1, 0), (1, 0), (0, 1), (0, 1)), True),
        (cluster_of((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)), False),
        (cluster_of((1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (0, 0, 1), (1, 1, 1)), False),
        (near_threshold_cluster(), False),
    ]
    for Z, attained in sst_cases:
        cls = classify(Z)
        assert cls.is_semi_stable and not cls.is_stable
        zc = normalize_cluster(Z)
        res = theta(zc)
        assert res.attained == attained
        if res.witness is None:
            ok_bounded = False
            continue
        floor = mp.log(res.value) - mp.mpf("1e-6")
        for t in (0, 1, 2, 5, 10, 20, 40):
            if res.witness.distance_at(zc, mp.e ** mp.mpf(t)) < floor:
                ok_bounded = False
        ok_slope = ok_slope and witness_slope_holds(zc, res)
    _line(
        "criterion 5: unstable theta=0 with divergence witness; semi-stable bounded",
        ok_zero and ok_diverge and ok_bounded and ok_slope,
        f"(20 unstable + {len(sst_cases)} semi-stable cases, {time.time() - t0:.1f}s)",
    )


# ---------------------------------------------------------------------------


def test_criterion_6_lattice_layer():
    rnd = random.Random(6006)
    t0 = time.time()
    import numpy as np

    def rand_gram(size, spread=60):
        while True:
            A = np.array([[rnd.randint(-spread, spread) for _ in range(size)] for _ in range(size)])
            G = A.T @ A + np.eye(size, dtype=np.int64)
            if np.linalg.eigvalsh(G.astype(float)).min() > 0.5:
                return G

    ok_conditions = True
    ok_congruence = True
    with mp.workprec(113):
        for _ in range(1000):
            size = rnd.randint(2, 6)
            G = GramMatrix(tuple(tuple(int(v) for v in row) for row in rand_gram(size)))
            red, U = lll_reduce(G)
            if not is_lll_reduced(red):
                ok_conditions = False
            rebuilt = congruence(G, U)
            scale = max(abs(v) for row in red.matrix for v in row)
            err = max(
                abs(a - b)
                for ra, rb in zip(red.matrix, rebuilt.matrix)
                for a, b in zip(ra, rb)
            )
            if err > mp.mpf("1e-9") * scale:
                ok_congruence = False
    ok_diag = True
    with mp.workprec(113):
        for _ in range(20):
            size3 = rand_gram(3, spread=5)
            red, U = lll_reduce(GramMatrix(tuple(tuple(int(v) for v in row) for row in size3)))
            got = tuple(sorted(int(mp.nint(red.matrix[i][i])) for i in range(3)))
            if got != oracle_best_diagonal(size3):
                ok_diag = False
    _line(
        "criterion 6: LLL conditions on 1000 Grams; diagonal optimal on 3x3",
        ok_conditions and ok_congruence and ok_diag,
        f"(conditions: {ok_conditions}, congruence: {ok_congruence}, "
        f"diagonal: {ok_diag}, {time.time() - t0:.1f}s)",
    )


# ---------------------------------------------------------------------------


def _int_cluster_height(cluster):
    h = 0
    for p in cluster.points:
        for c in p.coords:
            h = max(h, int(mp.nint(abs(c))))
    return h


def _plant_cluster_cases(rnd, count, attempts=100):
    """``count`` stable clusters of 4 or 5 points of P^2 with coordinates in
    [-3, 3], each point nonzero, drawn in at most ``attempts`` draws."""
    cases = []
    for _ in range(attempts):
        n = 2
        m = rnd.randint(4, 5)
        pts = []
        for _ in range(m):
            v = tuple(rnd.randint(-3, 3) for _ in range(n + 1))
            pts.append(v if any(v) else (1, 0, 0))
        Z = cluster_of(*pts)
        if classify(Z).is_stable:
            cases.append(Z)
            if len(cases) == count:
                return cases
    raise AssertionError(f"fewer than {count} stable clusters in {attempts} draws")


def _random_binary_form(rnd, attempts=100):
    """A binary form of degree 3 to 5 with coefficients in [-6, 6] whose
    roots are stable, drawn in at most ``attempts`` draws; a draw whose roots
    the working precision cannot place is skipped."""
    from cluster_reduce.polyalg import _binary_form_roots

    for _ in range(attempts):
        d = rnd.randint(3, 5)
        terms = {(d - i, i): rnd.randint(-6, 6) for i in range(d + 1)}
        F = MultiPoly.from_dict(2, terms)
        if F.is_zero() or F.total_degree() != d:
            continue
        try:
            cluster, _ = _binary_form_roots(F, F.to_sympy().sqf_list()[1])
        except ConvergenceError:
            continue
        if classify(cluster).is_stable:
            return F
    raise AssertionError(f"no binary form with stable roots in {attempts} draws")


def test_criterion_7_plant_and_recover():
    rnd = random.Random(7007)
    t0 = time.time()
    total = 0
    good = 0
    # clusters
    for Z in _plant_cluster_cases(rnd, 10):
        try:
            base = reduce_cluster(Z).reduced
            h0 = max(_int_cluster_height(base), 1)
            V = random_unimodular_int(rnd, 3, max_entry=1000)
            from cluster_reduce import UnimodularTransform

            Vt = UnimodularTransform(tuple(map(tuple, V)))
            if Vt.det() == -1:
                Vt = Vt.negate_column(2)
            distorted = act(base, Vt.inverse_transpose().mat())
            rec = reduce_cluster(distorted).reduced
            total += 1
            if _int_cluster_height(rec) <= 2 * h0:
                good += 1
        except ConvergenceError:
            total += 1
    # binary forms
    for _ in range(12):
        F = _random_binary_form(rnd)
        try:
            base = reduce_binary_form(F).reduced
            h0 = max(base.height(), 1)
            V = random_unimodular_int(rnd, 2, max_entry=1000)
            distorted = substitute(base, V)
            rec = reduce_binary_form(distorted).reduced
            total += 1
            if rec.height() <= 2 * h0:
                good += 1
        except ConvergenceError:
            total += 1
    # pencils
    pencil_seeds = [
        ("x^2 + y^2 + z^2", "x y + 2 y^2 + 3 z^2 - x z"),
        ("x^2 + 2 y^2 + z^2 + x y", "y^2 + x z + z^2"),
        ("x^2 + y^2 + 2 z^2 - y z", "2 x^2 + y^2 + z^2 + x y"),
    ]
    for q1t, q2t in pencil_seeds:
        Q1 = MultiPoly.from_text(q1t, nvars=3)
        Q2 = MultiPoly.from_text(q2t, nvars=3)
        try:
            base_report = reduce_quadric_pencil(Q1, Q2)
            b1, b2 = base_report.reduced
            h0 = max(max(b1.height(), b2.height()), 1)
            V = random_unimodular_int(rnd, 3, max_entry=1000)
            rec = reduce_quadric_pencil(substitute(b1, V), substitute(b2, V))
            total += 1
            if max(p.height() for p in rec.reduced) <= 2 * h0:
                good += 1
        except ConvergenceError:
            total += 1
    ratio = good / total if total else 0
    _line(
        "criterion 7: plant-and-recover heights within 2x",
        total == 25 and ratio >= 0.95,
        f"({good}/{total} recovered, {time.time() - t0:.1f}s)",
    )
