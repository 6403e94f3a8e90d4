"""Gram-matrix LLL with exact unimodular bookkeeping."""

import mpmath as mp
import pytest

from cluster_reduce import (
    GramMatrix,
    NotPositiveDefiniteError,
    UnimodularTransform,
    congruence,
    is_lll_reduced,
    lll_reduce,
)

from conftest import PENCIL_COVARIANT_PRECISE, PENCIL_LLL
from oracles import oracle_best_diagonal


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


class TestUnimodularTransform:
    def test_determinant_exact(self):
        U = UnimodularTransform(((3780, 19276, -12561), (-889, -4515, 2953), (12463, 63400, -41405)))
        assert U.det() == -1

    def test_non_unimodular_rejected(self):
        with pytest.raises(Exception):
            UnimodularTransform(((2, 0), (0, 1)))

    def test_inverse_exact(self, rnd):
        from conftest import random_unimodular_int

        U = UnimodularTransform(tuple(map(tuple, random_unimodular_int(rnd, 3, 50))))
        V = U.inverse()
        prod = U @ V
        assert prod.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class TestLllReduce:
    def test_identity(self):
        G = GramMatrix(((1, 0), (0, 1)))
        red, U = lll_reduce(G)
        assert U.matrix == ((1, 0), (0, 1))
        assert red.matrix == G.matrix

    def test_reference_gram_reproduces_known_transform(self):
        G = GramMatrix(tuple(tuple(v) for v in PENCIL_COVARIANT_PRECISE))
        red, U = lll_reduce(G, delta=0.99)
        assert [list(r) for r in U.matrix] == PENCIL_LLL
        assert is_lll_reduced(red, delta=0.99)

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
            red, U = lll_reduce(GramMatrix(tuple(map(tuple, G))), delta=0.99)
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

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            lll_reduce(GramMatrix(((1, 0), (0, 1))), delta=1.5)

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
        assert not is_lll_reduced(GramMatrix(((1, 0), (0, mp.mpf("1e-6")))), delta=0.99)
        # ... while the increasing order satisfies it
        assert is_lll_reduced(GramMatrix(((mp.mpf("1e-6"), 0), (0, 1))), delta=0.99)

    def test_size_reduction_violation(self):
        assert not is_lll_reduced(
            GramMatrix(((1, mp.mpf("0.9")), (mp.mpf("0.9"), 1))), delta=0.99
        )

    def test_output_of_reduce_is_reduced(self, rnd):
        for _ in range(5):
            G = GramMatrix(tuple(map(tuple, int_gram(rnd, 4))))
            red, _ = lll_reduce(G)
            assert is_lll_reduced(red)
