"""Gram-matrix LLL with exact unimodular bookkeeping."""

import math
import random

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cluster_reduce import (
    DimensionError,
    GramMatrix,
    InputFormatError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    UnimodularTransform,
    congruence,
    is_lll_reduced,
    lll_reduce,
)
from cluster_reduce.lattice import DELTA

from conftest import PENCIL_COVARIANT_PRECISE, PENCIL_LLL
from oracles import (
    oracle_best_diagonal,
    oracle_int_det,
    oracle_int_inverse,
    oracle_int_product,
    oracle_lll_in_mpmath,
    oracle_lll_transform,
)


def int_gram(rnd, size=3, spread=5):
    """Random integer symmetric positive definite matrix."""
    import numpy as np

    while True:
        A = [[rnd.randint(-spread, spread) for _ in range(size)] for _ in range(size)]
        S = [[A[i][j] + A[j][i] for j in range(size)] for i in range(size)]
        w = min(np.linalg.eigvalsh(np.array(S, dtype=float)))
        shift = int(-w) + 1 if w <= 0 else 0
        G = [[S[i][j] + (shift if i == j else 0) for j in range(size)] for i in range(size)]
        if min(np.linalg.eigvalsh(np.array(G, dtype=float))) > 0.1:
            return G


# entries up to 2^64, often small, so that determinants 0, +-1 and +-2 occur
_ENTRY = st.one_of(st.integers(-2, 2), st.integers(-(2**64), 2**64))


@st.composite
def unimodular_rows(draw, size):
    """Rows of a unimodular integer matrix of the given size: a diagonal of
    signs under a sequence of row additions and swaps, entries up to 2^64."""
    U = [[draw(st.sampled_from([1, -1])) if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(draw(st.integers(0, 3 * size))):
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        if i == j:
            continue
        if draw(st.booleans()):
            U[i], U[j] = U[j], U[i]
        else:
            k = draw(st.integers(-(2**40), 2**40))
            if max(abs(a + k * b) for a, b in zip(U[i], U[j])) <= 2**64:
                U[i] = [a + k * b for a, b in zip(U[i], U[j])]
    return tuple(map(tuple, U))


class TestUnimodularTransform:
    def test_determinant_exact(self):
        U = UnimodularTransform(((3780, 19276, -12561), (-889, -4515, 2953), (12463, 63400, -41405)))
        assert U.det() == -1

    def test_non_unimodular_rejected(self):
        with pytest.raises(Exception):
            UnimodularTransform(((2, 0), (0, 1)))

    def test_non_integer_entry_rejected(self):
        # rejected, not truncated to the identity
        with pytest.raises(InputFormatError):
            UnimodularTransform(((1.5, 0), (0, 1)))

    def test_boolean_entry_rejected(self):
        # rejected, not read as the integers 1 and 0
        with pytest.raises(InputFormatError):
            UnimodularTransform(((True, False), (False, True)))

    def test_inverse_exact(self, rnd):
        from conftest import random_unimodular_int

        U = UnimodularTransform(tuple(map(tuple, random_unimodular_int(rnd, 3, 50))))
        V = U.inverse()
        prod = U @ V
        assert prod.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(unimodular_rows(n), unimodular_rows(n))))
    def test_matches_the_rational_oracle(self, pair):
        a, b = pair
        U, V = UnimodularTransform(a), UnimodularTransform(b)
        identity = tuple(tuple(int(i == j) for j in range(U.size)) for i in range(U.size))
        assert U.det() == oracle_int_det(a)
        assert U.inverse().matrix == oracle_int_inverse(a)
        assert (U @ V).matrix == oracle_int_product(a, b)
        assert (U @ U.inverse()).matrix == (U.inverse() @ U).matrix == identity

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_other_determinants_are_rejected(self, rows):
        if oracle_int_det(rows) in (1, -1):
            assert UnimodularTransform(rows).det() == oracle_int_det(rows)
        else:
            with pytest.raises(SingularMatrixError):
                UnimodularTransform(rows)

    @pytest.mark.parametrize("rows", [((1, 0),), ((1, 0), (0,)), ((1,), (0,))])
    def test_non_square_rejected(self, rows):
        with pytest.raises(DimensionError):
            UnimodularTransform(rows)

    def test_one_determinant_per_construction(self, monkeypatch):
        # det() returns the determinant that construction checked; every
        # transform that inverse, transpose, negate_column and @ build is
        # checked again, once
        import cluster_reduce.lattice as lattice

        calls = []
        real = lattice._int_det
        monkeypatch.setattr(lattice, "_int_det", lambda rows: calls.append(rows) or real(rows))
        U = UnimodularTransform(((2, 1), (1, 1)))
        assert U.det() == U.det() == 1 and len(calls) == 1
        assert U.inverse().det() == U.transpose().det() == 1 and len(calls) == 3
        assert U.negate_column(0).det() == (U @ U).det() * -1 == -1 and len(calls) == 5
        assert U == UnimodularTransform(((2, 1), (1, 1))) and "_det" not in repr(U)


def test_gram_matrix_must_be_square():
    with pytest.raises(DimensionError):
        GramMatrix(((1, 0), (0,)))


@pytest.mark.parametrize(
    "x", [math.inf, -math.inf, math.nan, mp.inf, -mp.inf, mp.nan], ids=["inf", "-inf", "nan", "mpf-inf", "mpf--inf", "mpf-nan"]
)
def test_man_exp_rejects_what_is_not_finite(x):
    from cluster_reduce._precision import _man_exp

    with pytest.raises(InputFormatError):
        _man_exp(x)


class TestLllReduce:
    def test_identity(self):
        G = GramMatrix(((1, 0), (0, 1)))
        red, U = lll_reduce(G)
        assert U.matrix == ((1, 0), (0, 1))
        assert red.matrix == G.matrix

    def test_reference_gram_reproduces_known_transform(self):
        G = GramMatrix(tuple(tuple(v) for v in PENCIL_COVARIANT_PRECISE))
        red, U = lll_reduce(G)
        assert [list(r) for r in U.matrix] == PENCIL_LLL
        assert is_lll_reduced(red)

    def test_congruence_identity(self, rnd):
        G = GramMatrix(tuple(tuple(v) for v in int_gram(rnd)))
        red, U = lll_reduce(G)
        rebuilt = congruence(G, U)
        scale = max(abs(v) for row in red.matrix for v in row)
        err = max(
            abs(a - b)
            for ra, rb in zip(red.matrix, rebuilt.matrix)
            for a, b in zip(ra, rb)
        )
        assert err <= mp.mpf("1e-9") * scale

    def test_diagonal_matches_exhaustive_search(self, rnd):
        for _ in range(8):
            G = int_gram(rnd)
            red, U = lll_reduce(GramMatrix(tuple(map(tuple, G))))
            got = tuple(sorted(int(mp.nint(red.matrix[i][i])) for i in range(3)))
            assert got == oracle_best_diagonal(G)

    def test_round_trip_reduced(self, rnd):
        for size in (2, 3, 4):
            G = GramMatrix(tuple(map(tuple, int_gram(rnd, size))))
            red, _ = lll_reduce(G)
            assert is_lll_reduced(red)

    def test_idempotent_diagonal(self, rnd):
        G = GramMatrix(tuple(map(tuple, int_gram(rnd))))
        red, _ = lll_reduce(G)
        red2, U2 = lll_reduce(red)
        assert is_lll_reduced(red2)
        for i in range(3):
            assert red2.matrix[i][i] <= red.matrix[i][i] + mp.mpf("1e-20")

    def test_scaling_equivariance(self, rnd):
        G = int_gram(rnd)
        _, U1 = lll_reduce(GramMatrix(tuple(map(tuple, G))))
        c = mp.mpf("9.5e3")
        scaled = tuple(tuple(c * v for v in row) for row in G)
        _, U2 = lll_reduce(GramMatrix(scaled))
        assert U1.matrix == U2.matrix

    def test_not_positive_definite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            lll_reduce(GramMatrix(((1, 2), (2, 1))))

    def test_delta_is_the_double_nearest_0_99(self):
        # from the float literal: the decimal 0.99 differs beyond the 53rd
        # bit, where a Lovasz comparison above 53 bits could see it
        assert DELTA == 0.99
        with mp.workprec(113):
            assert DELTA != mp.mpf("0.99")

    def test_transform_matches_exact_oracle(self):
        # pins U itself, not only the LLL conditions: the oracle runs the
        # same conventions in exact rationals
        rnd = random.Random(1212)
        with mp.workprec(113):
            for _ in range(200):
                size = rnd.randint(2, 8)
                A = [[rnd.randint(-20, 20) for _ in range(size)] for _ in range(size)]
                G = [
                    [sum(A[t][i] * A[t][j] for t in range(size)) + (i == j) for j in range(size)]
                    for i in range(size)
                ]
                _, U = lll_reduce(GramMatrix(tuple(map(tuple, G))))
                assert U.matrix == oracle_lll_transform(G), G

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.sampled_from([113, 212]),
        st.integers(2, 6).flatmap(
            lambda n: st.integers(1, 20).flatmap(
                lambda k: st.lists(st.lists(st.integers(-(2**k), 2**k), min_size=n, max_size=n), min_size=n, max_size=n)
            )
        ),
    )
    def test_integral_lll_matches_the_exact_oracle(self, bits, A):
        # G = A^T A + I is exact at the working precision, so its integers
        # only scale it by a power of two
        n = len(A)
        G = [[sum(A[t][i] * A[t][j] for t in range(n)) + (i == j) for j in range(n)] for i in range(n)]
        with mp.workprec(bits):
            _, U = lll_reduce(GramMatrix(tuple(map(tuple, G))))
        assert U.matrix == oracle_lll_transform(G)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(st.lists(st.floats(-1, 1), min_size=3, max_size=3), min_size=3, max_size=3),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        st.integers(-300, 300),
    )
    def test_double_pass_grams_keep_the_mpmath_transform(self, A, shear, scale):
        # the Grams of the ternary pipeline's passes in doubles: a real form
        # in doubles at any scale, floored at 2^-45 of its largest diagonal
        # entry and reduced at 53 bits. The integer Gram follows the scale
        # of the entries; at a fixed scale a Gram far below 1 would round to
        # the zero matrix. A is kept away from singular: where doubles
        # resolve the form only to its floor, the floor decides LLL in
        # either arithmetic
        det = sum(A[0][i] * (A[1][(i + 1) % 3] * A[2][(i + 2) % 3] - A[1][(i + 2) % 3] * A[2][(i + 1) % 3]) for i in range(3))
        assume(abs(det) >= 0.05)
        a, b, c = shear
        V = [[1, 0, 0], [a, 1, 0], [b, c, 1]]
        rows = [[sum(A[i][k] * V[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
        Q = [[math.ldexp(sum(r[i] * r[j] for r in rows), scale) for j in range(3)] for i in range(3)]
        floor = 2.0**-45 * max(Q[i][i] for i in range(3))
        with mp.workprec(53):
            G = [[Q[i][j] + (floor if i == j else 0) for j in range(3)] for i in range(3)]
            _, U = lll_reduce(GramMatrix(G))
            assert U.matrix == oracle_lll_in_mpmath(G)

    def test_takes_no_cholesky_factorization(self, monkeypatch, rnd):
        # positive definiteness is decided on the exact leading minors that
        # the integral LLL computes anyway: no factorization at the working
        # precision runs
        import cluster_reduce.lattice as lattice

        calls = []
        real = lattice.hermitian_cholesky

        def counted(M):
            calls.append(len(M))
            return real(M)

        monkeypatch.setattr(lattice, "hermitian_cholesky", counted)
        _, U = lll_reduce(GramMatrix(tuple(map(tuple, int_gram(rnd, 5, spread=40)))))
        assert U.matrix != tuple(tuple(int(i == j) for j in range(5)) for i in range(5))
        assert calls == []

    @pytest.mark.parametrize(
        "rows",
        [
            ((1, 2), (2, 1)),
            ((1, 0, 0), (0, 2, 1), (0, 1, mp.mpf("0.5"))),
            ((2, 1), (0, 2)),
            ((1, 0), (0, mp.inf)),
            ((1, mp.nan), (mp.nan, 1)),
            ((mp.nan, 0), (0, 1)),
            ((1, 0), (0, 0)),
        ],
        ids=["indefinite", "singular-3x3", "not-symmetric", "infinite", "nan-off-diagonal", "nan-diagonal", "zero-minor"],
    )
    def test_not_positive_definite_rejected_exactly(self, rows):
        # symmetry to 2^(-prec/2), finite entries and positive exact
        # leading minors, each as the parent's Cholesky decided them
        with pytest.raises(NotPositiveDefiniteError):
            lll_reduce(GramMatrix(rows))

    @pytest.mark.parametrize("twice_mu", [1, 3, -3])
    def test_size_reduction_tie_ignores_rounding_noise(self, twice_mu):
        # basis b1 = (1, 0), b2 = (mu, 1): mu lands just above or just below
        # a half-integer, as rounding noise would put it; both sides of the
        # tie must round the same way, toward zero
        transforms = []
        for side in (1, -1):
            mu = mp.mpf(twice_mu) / 2 + side * mp.mpf(2) ** -200
            _, U = lll_reduce(GramMatrix(((1, mu), (mu, mu * mu + 1))))
            transforms.append(U.matrix)
        q = int(twice_mu / 2)
        assert transforms[0] == transforms[1] == ((1, -q), (0, 1))


class TestIsLllReduced:
    def test_identity_true(self):
        assert is_lll_reduced(GramMatrix(((1, 0), (0, 1))))

    def test_lovasz_orders_the_basis(self):
        # a strongly decreasing diagonal violates the Lovasz condition ...
        assert not is_lll_reduced(GramMatrix(((1, 0), (0, mp.mpf("1e-6")))))
        # ... while the increasing order satisfies it
        assert is_lll_reduced(GramMatrix(((mp.mpf("1e-6"), 0), (0, 1))))

    def test_size_reduction_violation(self):
        assert not is_lll_reduced(GramMatrix(((1, mp.mpf("0.9")), (mp.mpf("0.9"), 1))))

    def test_output_of_reduce_is_reduced(self, rnd):
        for _ in range(5):
            G = GramMatrix(tuple(map(tuple, int_gram(rnd, 4))))
            red, _ = lll_reduce(G)
            assert is_lll_reduced(red)
