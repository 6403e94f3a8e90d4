"""Numerical oracles in numpy doubles, independent of the program under test.

* ``classify_exhaustive`` decides stability from every subset of the points
  and every bipartition, straight from the definitions, on clusters with
  small Gaussian-integer coordinates (so float64 ranks are exact decisions).
* ``tyler_covariant`` is Tyler's fixed-point iteration for the M-estimator of
  scatter (Tyler 1987, Ann. Statist.). For a stable cluster of m points in
  P^n its fixed point S satisfies S = (n+1)/m * sum_j x_j x_j^H / (x_j^H S^-1 x_j),
  which is the stationarity condition of the cluster distance function for
  Q = S^-1: the covariant is the inverse of Tyler's scatter.
"""

from __future__ import annotations

import itertools

import numpy as np

_RANK_TOL = 1e-9


def _as_complex(points):
    return np.array([[complex(a, b) for a, b in p] for p in points], dtype=complex)


def _rank(rows):
    if len(rows) == 0:
        return 0
    s = np.linalg.svd(rows, compute_uv=False)
    return int((s > _RANK_TOL * s[0]).sum()) if s[0] > 0 else 0


def classify_exhaustive(points, n):
    """Split / semi-stable / stable class of a cluster given as (re, im) pairs."""
    A = _as_complex(points)
    m = len(A)
    # phi[k]: most points on a subspace of projective dimension k
    phi = [0] * (n + 1)
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            r = _rank(A[list(subset)])
            for k in range(r - 1, n + 1):
                phi[k] = max(phi[k], size)
    semi = all((n + 1) * phi[k] <= (k + 1) * m for k in range(n))
    strict = all((n + 1) * phi[k] < (k + 1) * m for k in range(n))
    total = _rank(A)
    split = total < n + 1 or any(
        _rank(A[list(part)]) + _rank(A[[i for i in range(m) if i not in part]]) == total
        for r in range(1, m // 2 + 1)
        for part in itertools.combinations(range(m), r)
    )
    return {"is_split": split, "is_semi_stable": semi, "is_stable": strict and not split}


def tyler_covariant(rows, tol=1e-14, max_iter=100000):
    """Inverse of Tyler's scatter matrix of the points (rows), trace-normalized."""
    X = np.asarray(rows, dtype=complex)
    m, p = X.shape
    S = np.eye(p, dtype=complex)
    for _ in range(max_iter):
        w = np.einsum("ja,ab,jb->j", X.conj(), np.linalg.inv(S), X).real
        S_new = (p / m) * (X.T / w) @ X.conj()
        S_new /= np.trace(S_new).real
        done = np.abs(S_new - S).max() < tol
        S = S_new
        if done:
            Q = np.linalg.inv(S)
            return Q / np.trace(Q).real
    raise ArithmeticError("Tyler iteration did not converge")
