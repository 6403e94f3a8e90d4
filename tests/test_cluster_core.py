"""Cluster types, group action, subspace degrees, stability classification."""

import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cluster_reduce import cluster_core
from cluster_reduce import (
    DimensionError,
    HermitianForm,
    InvalidPointError,
    PointCluster,
    ProjectivePoint,
    ScaledCluster,
    SingularMatrixError,
    StabilityClass,
    UnimodularTransform,
    act,
    classify,
    eval_D,
    normalize_cluster,
    phi,
)

from conftest import (
    near_threshold_cluster,
    random_cluster,
    random_point,
    random_real_cluster,
    random_sl,
    random_unimodular_int,
)
from oracles import oracle_classify, oracle_count_on_span, oracle_phi, oracle_same_cluster, oracle_sin2


def cluster_of(*coords):
    return PointCluster(tuple(ProjectivePoint(c) for c in coords))


class TestProjectivePoint:
    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidPointError):
            ProjectivePoint((0, 0, 0))

    def test_proportional_points_equal(self):
        assert ProjectivePoint((1, 2, 3)) == ProjectivePoint((2, 4, 6))
        assert ProjectivePoint((1, 0)) == ProjectivePoint((mp.mpc(0, 3), 0))
        assert ProjectivePoint((1, 0)) != ProjectivePoint((1, 1))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            cluster_of((1, 0), (1, 0, 0))

    def test_no_coordinates_rejected(self):
        with pytest.raises(InvalidPointError, match="at least one coordinate"):
            ProjectivePoint(())

    @pytest.mark.parametrize("bad", [mp.inf, -mp.inf, mp.nan, mp.mpc(1, mp.inf)], ids=["inf", "-inf", "nan", "inf-imaginary"])
    def test_non_finite_coordinate_rejected(self, bad):
        # such a point has no direction: it was once counted as stable
        with pytest.raises(InvalidPointError, match="not finite"):
            ProjectivePoint((1, 1, bad))

    def test_points_of_different_spaces_differ(self):
        # as do a point and what is no point
        assert not ProjectivePoint((1, 0)).is_same(ProjectivePoint((1, 0, 0)))
        assert ProjectivePoint((1, 0)) != (1, 0)


class TestPointClusterEquality:
    def test_what_is_no_cluster_differs(self):
        Z = cluster_of((1, 0), (0, 1))
        assert Z.same_cluster(Z.points) is NotImplemented
        assert Z != Z.points and Z == cluster_of((0, 1), (1, 0))

    def test_repr_lists_the_points(self):
        P, Q = ProjectivePoint((1, 0)), ProjectivePoint((0, 1))
        assert repr(PointCluster((P, Q))) == f"PointCluster({P!r} + {Q!r})"


class TestScaledCluster:
    @pytest.mark.parametrize(
        "reps, error",
        [
            ((), InvalidPointError),
            (((1, 0), (1, 0, 0)), DimensionError),
            (((1, 0), (0, 0)), InvalidPointError),
            (((1, 0), (1, mp.nan)), InvalidPointError),
        ],
        ids=["empty", "ragged", "zero-row", "nan-row"],
    )
    def test_malformed_rows_rejected(self, reps, error):
        with pytest.raises(error):
            ScaledCluster(reps)

    def test_rows_that_are_not_rescalings_differ(self):
        zc = ScaledCluster(((1, 0), (1, 1)))
        assert zc.cluster() != ScaledCluster(((1, 0, 0), (1, 1, 0))).cluster()  # another space
        assert zc.cluster() != ScaledCluster(((1, 0), (1, 1), (0, 1))).cluster()  # another degree
        assert zc.cluster() != ScaledCluster(((0, 1), (1, 1))).cluster()  # zero where the row is largest
        assert zc.cluster() != ScaledCluster(((1, 0), (1, 2))).cluster()  # not proportional
        assert repr(zc) == "ScaledCluster(m=2, n=1)"
        # rows of size 1e-40 whose entries differ by less than the threshold,
        # with ratios of product 1, but (1 : 2) and (1 : 3) are two points
        tiny = mp.mpf("1e-40")
        zc = ScaledCluster(((tiny, 2 * tiny), (1, 0)))
        other = ScaledCluster(((tiny, 3 * tiny), (mp.mpf(2) / 3, 0)))
        assert zc.cluster() != other.cluster()


@pytest.mark.parametrize(
    "split, semi_stable", [(False, False), (True, True)], ids=["not-semi-stable", "split"]
)
def test_stable_class_must_be_semi_stable_and_not_split(split, semi_stable):
    with pytest.raises(ValueError):
        StabilityClass(split, semi_stable, True)


def _fraction(x):
    """The mpf x as an exact Fraction."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _sum_of_squares(coords):
    return sum(_fraction(mp.re(c)) ** 2 + _fraction(mp.im(c)) ** 2 for c in coords)


def _within(r, q, u):
    """|r - sqrt(q)| <= u, for r > u, decided on squares exactly."""
    return (r - u) ** 2 <= q <= (r + u) ** 2


class TestNorm:
    """The Hermitian norm against the exact rational sum of squares."""

    @pytest.mark.parametrize("prec", [53, 212, 424])
    def test_norm_within_one_unit_in_the_last_place(self, prec):
        # coordinates whose parts span 2^-200 to 2^200, so that most squares
        # are far below the largest: one exact sum and one rounding of its root
        rnd = random.Random(prec)
        with mp.workprec(prec):
            for _ in range(200):
                n = rnd.randint(1, 3)
                parts = [mp.ldexp(rnd.getrandbits(prec) * rnd.choice([1, -1]), rnd.randint(-200, 200) - prec)
                         for _ in range(2 * n + 2)]
                p = ProjectivePoint(tuple(mp.mpc(re, im) for re, im in zip(parts[::2], parts[1::2])))
                norm = p.norm()
                ulp = Fraction(2) ** (mp.mag(norm) - prec)
                assert _within(_fraction(norm), _sum_of_squares(p.coords), ulp)
                assert _within(Fraction(1), _sum_of_squares(p.unit()), Fraction(2) ** (1 - prec))


class TestNormalize:
    def test_three_zero_four(self):
        zc = normalize_cluster(cluster_of((3, 0, 4)))
        row = zc.reps[0]
        assert abs(row[0] - mp.mpf(3) / 5) < mp.mpf("1e-30")
        assert row[1] == 0
        assert abs(row[2] - mp.mpf(4) / 5) < mp.mpf("1e-30")

    def test_already_unit(self):
        zc = normalize_cluster(cluster_of((1, 0), (0, 1)))
        assert zc.reps[0] == (mp.mpc(1), mp.mpc(0))
        assert zc.reps[1] == (mp.mpc(0), mp.mpc(1))

    def test_random_rows_unit_norm(self, rnd):
        cluster = random_cluster(rnd, 2, 5)
        zc = normalize_cluster(cluster)
        bound = mp.mpf(2) ** (-mp.mp.prec // 2)
        for row in zc.reps:
            nrm2 = sum(abs(c) ** 2 for c in row)
            assert abs(nrm2 - 1) < bound

    def test_underlying_cluster_unchanged(self, rnd):
        cluster = random_cluster(rnd, 2, 4)
        assert normalize_cluster(cluster).cluster() == cluster


class TestMultisetSemantics:
    def test_reordering_is_invisible(self, rnd):
        pts = [random_point(rnd, 2) for _ in range(4)]
        a = PointCluster(tuple(pts))
        b = PointCluster(tuple(reversed(pts)))
        assert a == b

    def test_scaled_equality_modulo_product_one(self):
        # D sees the rows only through the cluster and the product of their
        # scalings
        Q = HermitianForm(((2, mp.mpc(0, 1)), (mp.mpc(0, -1), 3)))
        zc = normalize_cluster(cluster_of((1, 0), (0, 1), (1, 1)))
        lam = mp.mpc(2, 1)
        other = zc.scale_point(0, lam).scale_point(1, 1 / lam)
        assert abs(eval_D(other, Q) - eval_D(zc, Q)) < mp.mpf("1e-50") and zc.cluster() == other.cluster()
        assert abs(eval_D(zc.scale_point(0, 2), Q) - eval_D(zc, Q) - mp.log(4)) < mp.mpf("1e-50")
        # rows of size 1e40 that are one point, their ratios' product
        # 1 + 2^-150, although their entries differ by about 1e-5: the row
        # is moved by 2^-150 relative, and so is D
        big = mp.mpf("1e40")
        zc = ScaledCluster(((big, 2 * big), (1, 0)))
        other = ScaledCluster(((big, 2 * big * (1 + mp.mpf(2) ** -150)), (1, 0)))
        assert abs(eval_D(other, Q) - eval_D(zc, Q)) < mp.mpf(2) ** -148 and zc.cluster() == other.cluster()


class TestAct:
    def test_identity(self, rnd):
        Z = random_cluster(rnd, 2, 4)
        assert act(Z, mp.eye(3)) == Z

    def test_coordinate_swap(self):
        Z = cluster_of((1, 0), (0, 1))
        g = [[0, 1], [-1, 0]]
        assert act(Z, g) == Z  # swap up to sign

    def test_composition(self, rnd):
        Z = random_cluster(rnd, 2, 4)
        g = random_sl(rnd, 3)
        h = random_sl(rnd, 3)
        assert act(act(Z, g), h) == act(Z, g * h)

    def test_singular_rejected(self):
        Z = cluster_of((1, 0), (0, 1))
        with pytest.raises(SingularMatrixError):
            act(Z, [[1, 1], [1, 1]])
        with pytest.raises(SingularMatrixError):
            act(Z, [[2, 0], [0, 1]])  # determinant 2

    def test_non_square_rejected(self):
        Z = cluster_of((1, 0), (0, 1))
        with pytest.raises(DimensionError):
            act(Z, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(DimensionError, match="must be square"):
            act(Z, [[1, 0], [0, 1], [1, 1]])

    def test_transform_acts_by_its_integer_rows_without_mp_det(self, rnd, monkeypatch):
        # the same product loop as the mpmath matrix, bit for bit, and no
        # mp.det: the determinant of a UnimodularTransform is an exact integer
        cases = []
        for n in (1, 2, 3):
            U = UnimodularTransform(random_unimodular_int(rnd, n + 1))
            cases.append((random_cluster(rnd, n, n + 3), U if U.det() == 1 else U.negate_column(0)))
        expected = [act(Z, U.mat()) for Z, U in cases]

        def no_det(*args):
            raise AssertionError("mp.det called")

        monkeypatch.setattr(mp, "det", no_det)
        got = [act(Z, U) for Z, U in cases]
        assert [[p.coords for p in W.points] for W in got] == [[p.coords for p in W.points] for W in expected]

    def test_transform_of_determinant_minus_one_rejected(self, rnd):
        # as its mpmath matrix is: not in SL(n+1, Z)
        for n in (1, 2, 3):
            Z = random_cluster(rnd, n, n + 3)
            U = UnimodularTransform(tuple(tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1))).negate_column(0)
            for g in (U, U.mat()):
                with pytest.raises(SingularMatrixError, match="is not 1"):
                    act(Z, g)

    def test_transform_of_the_wrong_size_rejected(self):
        Z = cluster_of((1, 0), (0, 1))
        with pytest.raises(DimensionError):
            act(Z, UnimodularTransform(((1, 0, 0), (0, 1, 0), (0, 0, 1))))


def _moved_pair_cluster(rnd, n, move):
    """A cluster of real points and conjugate pairs of P^n with one
    coordinate of one conjugate point moved by ``move`` relative."""
    while True:
        Z = random_real_cluster(rnd, n, n + 3)
        pairs = [i for i, p in enumerate(Z.points) if any(c.imag for c in p.coords)]
        if pairs:
            break
    i, j = rnd.choice(pairs), rnd.randrange(n + 1)
    coords = list(Z.points[i].coords)
    coords[j] += mp.mpf(move) * abs(coords[j])
    points = list(Z.points)
    points[i] = ProjectivePoint(tuple(coords))
    return PointCluster(tuple(points))


class TestConjugationMatch:
    """same_cluster, and is_conjugation_fixed through it, decide as the
    greedy match at the working precision did (oracles.oracle_same_cluster),
    while points with equal coordinates take no exact test (_join)."""

    @pytest.mark.parametrize("bits", [53, 106, 212])
    def test_matches_the_greedy_oracle(self, bits):
        rnd = random.Random(bits)
        outcomes = []
        with mp.workprec(bits):
            for trial in range(30):
                n = 1 + trial % 3
                Z = random_cluster(rnd, n, n + 2 + trial % 3)
                R = random_real_cluster(rnd, n, n + 3)
                for W in (Z, R):
                    points = list(W.points)
                    rnd.shuffle(points)
                    shuffled = PointCluster(tuple(points))
                    for a, b in ((W, shuffled), (W, W.conjugate()), (Z, R), (W, PointCluster(W.points[:1] * W.degree))):
                        outcomes.append(oracle_same_cluster(a, b))
                        assert a.same_cluster(b) == outcomes[-1]
                    assert W.is_conjugation_fixed() == oracle_same_cluster(W, W.conjugate())
                for move in ("1e-20", "1e-40"):
                    M = _moved_pair_cluster(rnd, n, move)
                    outcomes.append(oracle_same_cluster(M, M.conjugate()))
                    assert M.is_conjugation_fixed() == outcomes[-1]
                    assert (M == R) == oracle_same_cluster(M, R)
        assert True in outcomes and False in outcomes

    def test_moves_decided_at_the_working_precision(self):
        # doubles cannot see either move; 212 bits see 1e-20 and not 1e-40
        rnd = random.Random(5)
        with mp.workprec(212):
            for move, fixed in (("1e-20", False), ("1e-40", True)):
                for n in (1, 2, 3):
                    assert _moved_pair_cluster(rnd, n, move).is_conjugation_fixed() is fixed

    def test_at_most_one_working_precision_test_per_point(self, rnd, monkeypatch):
        # two conjugate pairs in general position: the greedy scan meets
        # conj(p) before p's partner, and only that pair takes a test, where
        # the match on units alone made 7 tests on these 5 points
        p, q = random_point(rnd, 2), random_point(rnd, 2)
        r = ProjectivePoint(tuple(mp.mpf(rnd.uniform(-1, 1)) for _ in range(3)))
        Z = PointCluster((p, p.conjugate(), q, q.conjugate(), r))
        calls = _exact_decisions(monkeypatch)
        assert Z.is_conjugation_fixed()
        assert 0 < len(calls) <= Z.degree
        # real points equal their conjugates' coordinates and take no test
        del calls[:]
        R = PointCluster(tuple(ProjectivePoint(tuple(mp.mpf(rnd.uniform(-1, 1)) for _ in range(3))) for _ in range(5)))
        assert R.is_conjugation_fixed()
        assert calls == []
        # partners given with a scaling are found by the exact test
        scaled = [ProjectivePoint(tuple(f * c for c in x.conjugate().coords)) for f, x in ((mp.mpc(1, 2), p), (3, q))]
        assert PointCluster((p, scaled[0], q, scaled[1], r)).is_conjugation_fixed()


class TestConjugate:
    def test_real_cluster_fixed(self):
        Z = cluster_of((1, 2), (3, -4))
        assert Z.conjugate() == Z

    def test_i_to_minus_i(self):
        Z = cluster_of((mp.mpc(0, 1), 1))
        assert Z.conjugate() == cluster_of((mp.mpc(0, -1), 1))

    def test_involution(self, rnd):
        Z = random_cluster(rnd, 2, 4)
        assert Z.conjugate().conjugate() == Z


GENERAL_P2 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


class TestPhi:
    def test_general_position_line(self):
        Z = cluster_of(*GENERAL_P2)
        assert phi(Z, 1) == 2

    def test_whole_space(self, rnd):
        Z = random_cluster(rnd, 2, 6)
        assert phi(Z, 2) == 6
        assert phi(Z, -1) == 0

    def test_three_collinear_of_five(self):
        Z = cluster_of((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 2, 3))
        assert phi(Z, 1) == 3
        assert phi(Z, 1) == oracle_phi(Z, 1)

    def test_out_of_range(self):
        Z = cluster_of(*GENERAL_P2)
        with pytest.raises(ValueError):
            phi(Z, 3)
        with pytest.raises(ValueError):
            phi(Z, -2)

    def test_monotone(self, rnd):
        for _ in range(5):
            n = rnd.choice([1, 2, 3])
            Z = random_cluster(rnd, n, rnd.randint(1, 5))
            values = [phi(Z, k) for k in range(-1, n + 1)]
            assert values[0] == 0
            assert values[-1] == Z.degree
            assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "n, k, planted",
        [(2, 1, 3), (2, 1, 4), (3, 2, 4), (3, 2, 5), (3, 1, 3)],
        ids=["collinear-3", "collinear-4", "coplanar-4", "coplanar-5", "p3-line-3"],
    )
    def test_planted_subspace_matches_oracle(self, rnd, n, k, planted):
        # `planted` integer points on the coordinate subspace <e_0..e_k>, a few
        # generic points and repeats, moved by a unimodular integer matrix
        def integer_point(dim):
            while True:
                v = [rnd.randint(-5, 5) if i <= dim else 0 for i in range(n + 1)]
                if any(v):
                    return tuple(v)

        for _ in range(3):
            pts = [integer_point(k) for _ in range(planted)]
            pts += [integer_point(n) for _ in range(rnd.randint(1, 3))]
            pts += [rnd.choice(pts) for _ in range(rnd.randint(0, 2))]
            V = random_unimodular_int(rnd, n + 1, max_entry=30)
            Z = act(cluster_of(*pts), [[mp.mpf(v) for v in row] for row in V])
            values = [phi(Z, j) for j in range(n)]
            assert values == [oracle_phi(Z, j) for j in range(n)]
            assert values[k] >= planted
            cls = classify(Z)
            assert (cls.is_split, cls.is_semi_stable, cls.is_stable) == oracle_classify(Z)
            if cls.witness is not None:
                w = cls.witness
                assert len(w.spanning_points) <= w.dim + 1
                assert w.contained == values[w.dim]
                assert oracle_count_on_span(Z, w.spanning_points) == w.contained


@st.composite
def small_integer_clusters(draw):
    """Clusters of at most 7 small integer points of P^1..P^3: points on a
    planted flat spanned by random integer vectors, generic points and
    repeats, or one or two distinct points repeated (fewer distinct points
    than k+1 for the larger k)."""
    n = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1).map(tuple)
    if draw(st.integers(0, 3)) == 0:
        pts = draw(st.lists(vector, min_size=1, max_size=2))
        repeats = 5
    else:
        k = draw(st.integers(0, n - 1))
        basis = draw(st.lists(vector, min_size=k + 1, max_size=k + 1))
        coeffs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k + 1, max_size=k + 1), max_size=3))
        pts = [tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(n + 1)) for cs in coeffs]
        pts += draw(st.lists(vector, min_size=n, max_size=5))
        repeats = 1
    pts = [p for p in pts if any(p)]
    assume(pts)
    pts += draw(st.lists(st.sampled_from(pts), max_size=repeats))
    return cluster_of(*pts[:7])


class TestFlats:
    """phi and the witness of classify come from one walk over the flats."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(small_integer_clusters())
    def test_walk_matches_exhaustive_oracle(self, Z):
        values = [phi(Z, k) for k in range(Z.n)]
        assert values == [oracle_phi(Z, k) for k in range(Z.n)]
        cls = classify(Z)
        assert (cls.is_split, cls.is_semi_stable, cls.is_stable) == oracle_classify(Z)
        if cls.witness is not None:
            w = cls.witness
            assert w.contained == values[w.dim]
            assert oracle_count_on_span(Z, w.spanning_points) == w.contained

    def test_witness_is_the_first_maximizing_subset(self):
        # three points on each of two skew lines of P^3, interleaved: the
        # pairs (0, 3) and (1, 2) both span a line through three points, and
        # the witness is the lexicographically first of them
        Z = cluster_of(
            (0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1)
        )
        cls = classify(Z)
        assert cls.is_split and cls.is_semi_stable and not cls.is_stable
        assert cls.margin == 0
        w = cls.witness
        assert (w.dim, w.contained) == (1, 3)
        assert w.spanning_points == (Z.points[0], Z.points[3])
        assert [phi(Z, k) for k in range(4)] == [1, 3, 4, 6]


def _distorted(Z, seed):
    """Z moved by a unimodular integer matrix of height at most 1000, as the
    benchmark's clusters are."""
    V = random_unimodular_int(random.Random(seed), Z.n + 1)
    return act(Z, [[mp.mpf(v) for v in row] for row in V])


def _line_cluster(offset):
    """Three points of the line x2 = 0 of P^2, a fourth off it by ``offset``
    relative, and two generic points."""
    return cluster_of((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, offset), (1, 1, 1), (2, -1, 3))


def _exact_decisions(monkeypatch):
    """Spy on cluster_core._join: the list of (points spanned, point rows,
    outcome) of every exact decision against the span of some points, the
    outcome True where the point is on it; the making of a span from the
    empty one is none."""
    calls = []
    real = cluster_core._join

    def spy(span, rows):
        grown = real(span, rows)
        if span != cluster_core._NO_SPAN:
            calls.append((len(span[0]) // 2, rows, grown is None))
        return grown

    monkeypatch.setattr(cluster_core, "_join", spy)
    return calls


def _rows_of(*coords):
    return cluster_core._exact_rows([ProjectivePoint(c) for c in coords])


def _refuse_working_precision(monkeypatch):
    """Make mp.fdot, mp.lu_solve and ProjectivePoint.unit raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("working-precision arithmetic in classify")

    for name in ("fdot", "lu_solve"):
        monkeypatch.setattr(mp, name, refuse)
    monkeypatch.setattr(ProjectivePoint, "unit", refuse)


class TestWalkInDoubles:
    """The walk runs in hardware doubles and decides exactly, on integer
    minors, only inside the rounding band."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_integer_clusters(), st.integers(0, 2**32))
    def test_distorted_clusters_match_the_oracle(self, Z, seed):
        # the counts are invariant under the group, so the oracle reads the
        # undistorted integer points, where its double rank test is safe
        W = _distorted(Z, seed)
        walk = cluster_core._walk(W.points, W.n)
        assert [count for count, _ in walk] == [oracle_phi(Z, k) for k in range(Z.n)]
        assert [phi(W, k) for k in range(W.n)] == [oracle_phi(Z, k) for k in range(Z.n)]
        cls = classify(W)
        assert (cls.is_split, cls.is_semi_stable, cls.is_stable) == oracle_classify(Z)
        # classify stops at the first violated bound
        slack = [(k + 1) * Z.degree - (Z.n + 1) * oracle_phi(Z, k) for k in range(Z.n)]
        last = next((k for k, v in enumerate(slack) if v < 0), Z.n - 1)
        assert cls.margin == min(slack[: last + 1])
        if cls.witness is not None:
            w = cls.witness
            subset = walk[w.dim][1]
            assert w.spanning_points == tuple(W.points[i] for i in subset)
            assert w.contained == oracle_count_on_span(Z, [Z.points[i] for i in subset])

    def test_point_off_a_line_by_2_to_the_minus_60_is_decided_exactly(self, monkeypatch):
        calls = _exact_decisions(monkeypatch)
        Z = _line_cluster(mp.mpf(2) ** -60)
        assert phi(Z, 1) == 3
        assert (2, _rows_of(Z.points[3].coords)[0], False) in calls
        # two points of P^1 that only the exact test tells apart
        calls.clear()
        Z = cluster_of((1, 0), (1, mp.mpf(2) ** -60), (0, 1))
        assert phi(Z, 0) == 1
        assert (1, _rows_of((1, mp.mpf(2) ** -60))[0], False) in calls

    def test_point_off_a_line_by_2_to_the_minus_150_is_on_it(self, monkeypatch):
        calls = _exact_decisions(monkeypatch)
        Z = _line_cluster(mp.mpf(2) ** -150)
        assert phi(Z, 1) == 4
        cls = classify(Z)
        assert cls.is_semi_stable and not cls.is_stable and cls.witness.contained == 4
        assert (2, _rows_of(Z.points[3].coords)[0], True) in calls

    def test_small_pivot_widens_the_band(self):
        # a and b = 10^8 a + v span the line <a, v> with a pivot of about
        # 1e-8, which tilts the line's direction in doubles by about 1e-8:
        # v and a + v lie on it although their residuals in doubles do not
        # vanish, and (a, b) is the first subset of four points
        a, v = (3, 5, 7), (2, -1, 4)
        b = tuple(10**8 * x + y for x, y in zip(a, v))
        Z = cluster_of(a, b, v, tuple(x + y for x, y in zip(a, v)), (1, 0, 0), (0, 1, 1))
        assert cluster_core._walk(Z.points, 2) == [(1, (0,)), (4, (0, 1))]
        cls = classify(Z)
        assert cls.is_semi_stable and not cls.is_stable
        assert cls.witness.spanning_points == Z.points[:2] and cls.witness.contained == 4
        assert oracle_count_on_span(Z, cls.witness.spanning_points) == 4

    @pytest.mark.parametrize("scale", ["1e400", "1e-400"])
    def test_coordinates_beyond_doubles(self, monkeypatch, scale):
        # points that do not convert to doubles of a normal norm walk in
        # doubles all the same, from their integer rows, with no arithmetic
        # at the working precision, and count as their unscaled equals
        s = mp.mpf(scale)
        pts = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1), (2, -1, 3)]
        Z = cluster_of(*[tuple(s * c for c in p) if i % 2 else p for i, p in enumerate(pts)])
        _refuse_working_precision(monkeypatch)
        cls = classify(Z)
        assert (cls.is_split, cls.is_semi_stable, cls.is_stable, cls.margin) == (False, True, True, 1)
        assert [phi(Z, k) for k in range(2)] == [1, 3]

    def test_generic_stable_cluster_decides_nothing_exactly(self, monkeypatch):
        def refuse(self):
            raise AssertionError("working-precision unit formed")

        Z = _distorted(cluster_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)), 7)
        monkeypatch.setattr(ProjectivePoint, "unit", refuse)
        calls = _exact_decisions(monkeypatch)
        cls = classify(Z)
        assert cls.is_stable and cls.margin == 2
        assert calls == []


class TestExactDecisions:
    """Every rank question of classify is decided by _join on exact integer
    minors; no arithmetic at the working precision decides one."""

    @pytest.mark.parametrize("scale", ["1", "1e400", "1e-400"])
    def test_planted_clusters_take_no_working_precision_arithmetic(self, monkeypatch, scale):
        s = mp.mpf(scale)
        V = [[mp.mpf(v) for v in row] for row in random_unimodular_int(random.Random(983), 3)]
        line = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -2, 0)]
        planted = {
            # a point and a line of P^2: split, semi-stable, not stable
            "split": ((0, 0, 1), (0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0)),
            "semi-stable": (*line, (1, 1, 1), (2, -1, 3)),
            "unstable": (*line, (1, 3, 0), (2, -1, 3)),
        }
        clusters = {name: act(cluster_of(*[tuple(s * c for c in p) for p in pts]), V) for name, pts in planted.items()}
        expected = {name: oracle_classify(cluster_of(*pts)) for name, pts in planted.items()}
        _refuse_working_precision(monkeypatch)
        for name, Z in clusters.items():
            cls = classify(Z)
            assert (cls.is_split, cls.is_semi_stable, cls.is_stable) == expected[name], name
        assert expected["split"] == (True, True, False)
        assert expected["semi-stable"] == (False, True, False)
        assert expected["unstable"][1] is False

    @pytest.mark.parametrize("prec", [53, 106, 212])
    def test_join_matches_the_exact_squared_sine(self, prec):
        # points within 2^-(prec/2 +- 4) of the span of one to three random
        # points: _join's decision on truncated rows is the exact Fraction
        # oracle's comparison of the squared sine with 2^-prec
        rnd = random.Random(prec)
        outcomes = []
        with mp.workprec(prec):
            threshold = Fraction(1, 2 ** (-2 * (-prec // 2)))
            for _ in range(60):
                n = rnd.randint(2, 3)
                span_points = [random_point(rnd, n) for _ in range(rnd.randint(1, n))]
                off = random_point(rnd, n)
                delta = mp.ldexp(1, -(prec // 2) + rnd.randint(-4, 4))
                coeffs = [mp.mpc(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) for _ in span_points]
                point = ProjectivePoint(tuple(
                    sum(c * p.coords[j] for c, p in zip(coeffs, span_points)) + delta * off.coords[j]
                    for j in range(n + 1)
                ))
                span = cluster_core._NO_SPAN
                for rows in cluster_core._exact_rows(span_points):
                    span = cluster_core._join(span, rows)
                on = cluster_core._join(span, cluster_core._exact_rows([point])[0]) is None
                assert on == (oracle_sin2(span_points, point) < threshold)
                outcomes.append(on)
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize("move, phis", [(-100, [1, 3]), (-120, [2, 4])])
    def test_points_that_doubles_cannot_tell_apart(self, monkeypatch, move, phis):
        # at 212 bits (1, 1 + 2^-100, 0) differs from (1, 1, 0), and the line
        # they span is walked with e = inf: the exact test then finds even
        # (0, 0, 1) off it, which doubles put far off; at 2^-120 they are
        # equal and the line through them and (0, 0, 1) holds all four points
        calls = _exact_decisions(monkeypatch)
        with mp.workprec(212):
            Z = cluster_of((1, 1, 0), (1, 1 + mp.ldexp(1, move), 0), (0, 0, 1), (1, 1, 1))
            assert [phi(Z, k) for k in range(2)] == phis
            far = (2, _rows_of((0, 0, 1))[0], False)
            assert (far in calls) == (move == -100)


class TestClassify:
    def test_general_position_stable(self):
        cls = classify(cluster_of(*GENERAL_P2))
        assert cls.is_stable and cls.is_semi_stable and not cls.is_split

    def test_two_points_p1_split_semistable(self):
        cls = classify(cluster_of((1, 0), (0, 1)))
        assert cls.is_split
        assert cls.is_semi_stable
        assert not cls.is_stable
        assert cls.witness is not None

    def test_double_point_in_quartet(self):
        Z = cluster_of((1, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1))
        cls = classify(Z)
        assert not cls.is_stable
        split, semi, stable = oracle_classify(Z)
        assert (cls.is_split, cls.is_semi_stable, cls.is_stable) == (split, semi, stable)

    @pytest.mark.parametrize("prec", [53, 106, 212])
    def test_equal_points_are_one_point_in_the_split_test(self, prec):
        # the second (1,0,0) equals the first, and is also within the
        # threshold of the line through (1,e,e) and (0,1,0), the rest of the
        # greedy basis: it links to its equal, not to no basis point at all
        # as a component of rank 0, so the cluster is not split
        with mp.workprec(prec):
            Z = near_threshold_cluster()
            cls = classify(Z)
            assert cls.is_semi_stable and not cls.is_stable and not cls.is_split
            components = cluster_core._matroid_components(cluster_core._exact_rows(Z.points))
            assert components == [(list(range(6)), 3)]

    def test_margin_reported(self):
        stable = classify(cluster_of(*GENERAL_P2))
        assert stable.margin > 0
        equality = classify(cluster_of((1, 0), (0, 1)))
        assert equality.margin == 0
        violated = classify(cluster_of((1, 0), (1, 0), (0, 1)))
        assert violated.margin < 0

    def test_witness_on_equality(self):
        # four points, two on each of two skew-ish lines in P^3 is overkill;
        # the simple equality case: 2 of 4 points coincide in P^1
        Z = cluster_of((1, 1), (1, 1), (0, 1), (1, 0))
        cls = classify(Z)
        assert cls.is_semi_stable and not cls.is_stable
        assert cls.witness is not None
        assert cls.witness.contained == 2

    def test_invariance_under_action(self, rnd):
        for _ in range(5):
            Z = random_cluster(rnd, 2, 4)
            g = random_sl(rnd, 3)
            a, b = classify(Z), classify(act(Z, g))
            assert (a.is_split, a.is_semi_stable, a.is_stable) == (
                b.is_split, b.is_semi_stable, b.is_stable)

    def test_invariance_under_conjugation(self, rnd):
        for _ in range(5):
            Z = random_cluster(rnd, 2, 5)
            a, b = classify(Z), classify(Z.conjugate())
            assert (a.is_split, a.is_semi_stable, a.is_stable) == (
                b.is_split, b.is_semi_stable, b.is_stable)

    def test_stable_implies_not_split(self, rnd):
        for _ in range(10):
            n = rnd.choice([1, 2])
            Z = random_cluster(rnd, n, rnd.randint(2, 6))
            cls = classify(Z)
            assert not (cls.is_stable and cls.is_split)

    def test_rank_deficient_cluster_is_split(self):
        # three collinear points of P^2 sit inside a line, so a disjoint
        # point completes a splitting decomposition
        Z = cluster_of((1, 0, 0), (0, 1, 0), (1, 1, 0))
        cls = classify(Z)
        assert cls.is_split
        assert oracle_classify(Z)[0] is True

    @pytest.mark.parametrize("n", [2, 3])
    def test_split_on_planted_direct_sums(self, rnd, n):
        # points on two complementary coordinate subspaces, some repeated,
        # moved by a unimodular integer matrix: split, although the points
        # span; generic clusters of the same sizes are the non-split controls
        def integer_point(support):
            while True:
                v = [rnd.randint(-3, 3) if i in support else 0 for i in range(n + 1)]
                if any(v):
                    return tuple(v)

        for _ in range(3):
            a = rnd.randint(1, n)
            sides = (range(a), range(a, n + 1))
            pts = [tuple(int(i == j) for i in range(n + 1)) for j in range(n + 1)]
            m = rnd.randint(n + 2, 8)
            while len(pts) < m:
                pts.append(rnd.choice(pts) if rnd.random() < 0.4 else integer_point(rnd.choice(sides)))
            V = random_unimodular_int(rnd, n + 1, max_entry=30)
            Z = act(cluster_of(*pts), [[mp.mpf(v) for v in row] for row in V])
            assert oracle_classify(Z)[0] and classify(Z).is_split
            control = cluster_of(
                *(integer_point(range(n + 1)) for _ in range(len(pts)))
            )
            assert classify(control).is_split == oracle_classify(control)[0]
