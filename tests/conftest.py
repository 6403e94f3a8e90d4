"""Shared fixtures: reference worked-example data and random generators."""

import random

import mpmath as mp
import pytest

from cluster_reduce import MultiPoly, PointCluster, ProjectivePoint

# --- pencil example ----------------------------------------------------------

PENCIL_Q1 = MultiPoly.from_dict(3, {
    (2, 0, 0): 857211194051,
    (1, 1, 0): -10879213981695,
    (1, 0, 1): -1296007209476,
    (0, 2, 0): 34518126244996,
    (0, 1, 1): 8224075847095,
    (0, 0, 2): 489854396055,
})

PENCIL_Q2 = MultiPoly.from_dict(3, {
    (2, 0, 0): 2274418654562,
    (1, 1, 0): -28865567091425,
    (1, 0, 1): -3438665984061,
    (0, 2, 0): 91586146842213,
    (0, 1, 1): 21820750429746,
    (0, 0, 2): 1299719350945,
})

PENCIL_CUBIC = MultiPoly.from_dict(2, {
    (3, 0): 27348, (2, 1): 215720, (1, 2): 567184, (0, 3): 497080,
})

PENCIL_COVARIANT = [
    [241474533625.0, -1532325529959.9, -182541212588.9],
    [-1532325529959.9, 9723681808257.5, 1158352212636.4],
    [-182541212588.9, 1158352212636.4, 137990925143.2],
]

# the same Gram carried to full precision (the one-decimal print above is not
# even numerically positive definite: the small eigenvalues are ~1e-6)
PENCIL_COVARIANT_PRECISE = [
    ["241474533625.0", "-1532325529959.88636753642516092", "-182541212588.939574504858875097"],
    ["-1532325529959.88636753642516092", "9723681808257.51734067934371189", "1158352212636.43321045779380688"],
    ["-182541212588.939574504858875097", "1158352212636.43321045779380688", "137990925143.216972168306850986"],
]

PENCIL_LLL = [[3780, 19276, -12561], [-889, -4515, 2953], [12463, 63400, -41405]]

PENCIL_FINAL_1 = MultiPoly.from_dict(3, {(2, 0, 0): 2, (1, 1, 0): -1, (1, 0, 1): 1, (0, 0, 2): 2})
PENCIL_FINAL_2 = MultiPoly.from_dict(3, {(1, 0, 1): -2, (0, 2, 0): 3, (0, 1, 1): -1, (0, 0, 2): 2})

# --- quartic example ---------------------------------------------------------

QUARTIC = MultiPoly.from_dict(3, {
    (4, 0, 0): 390908548757,
    (3, 1, 0): -1083699236751,
    (3, 0, 1): 835578482044,
    (2, 2, 0): 1126610184312,
    (2, 1, 1): -1737329379412,
    (2, 0, 2): 669777678687,
    (1, 3, 0): -520542386163,
    (1, 2, 1): 1204081445939,
    (1, 1, 2): -928398396271,
    (1, 0, 3): 238611653627,
    (0, 4, 0): 90192376558,
    (0, 3, 1): -278168756247,
    (0, 2, 2): 321720059816,
    (0, 1, 3): -165373310794,
    (0, 0, 4): 31877479532,
})

QUARTIC_COVARIANT = [
    [367751.9942, -254909.8720, 196557.1210],
    [-254909.8720, 176692.9800, -136245.3974],
    [196557.1210, -136245.3974, 105056.8935],
]

QUARTIC_LLL = [[-7, 23, -89], [-34, 118, -443], [-31, 110, -408]]

QUARTIC_REDUCED = MultiPoly.from_dict(3, {
    (4, 0, 0): 3, (3, 1, 0): -3, (3, 0, 1): 3, (2, 2, 0): 1, (2, 0, 2): -2,
    (1, 2, 1): 1, (1, 1, 2): -1, (1, 0, 3): -2, (0, 4, 0): 3, (0, 3, 1): -3,
    (0, 2, 2): 1, (0, 0, 4): -3,
})

REDUCED_BINARY_CUBIC = MultiPoly.from_dict(2, {(3, 0): -4, (2, 1): 88, (1, 2): 112, (0, 3): -24})


# --- random generators -------------------------------------------------------


def rand_real(rnd, scale=1.0):
    return mp.mpf(rnd.uniform(-scale, scale))


def rand_mpc(rnd, scale=1.0):
    return mp.mpc(rnd.uniform(-scale, scale), rnd.uniform(-scale, scale))


def random_point(rnd, n):
    return ProjectivePoint(tuple(rand_mpc(rnd) for _ in range(n + 1)))


def random_cluster(rnd, n, m):
    return PointCluster(tuple(random_point(rnd, n) for _ in range(m)))


def random_real_cluster(rnd, n, m):
    """Conjugation-fixed cluster: real points plus conjugate pairs."""
    pts = []
    while len(pts) < m:
        if m - len(pts) >= 2 and rnd.random() < 0.5:
            p = random_point(rnd, n)
            pts.append(p)
            pts.append(p.conjugate())
        else:
            pts.append(ProjectivePoint(tuple(rand_real(rnd) for _ in range(n + 1))))
    return PointCluster(tuple(pts[:m]))


def random_sl(rnd, size, scale=1.0):
    """Random complex matrix of determinant 1."""
    while True:
        M = mp.matrix(size, size)
        for i in range(size):
            for j in range(size):
                M[i, j] = rand_mpc(rnd, scale)
        d = mp.det(M)
        if abs(d) > mp.mpf("0.05"):
            return M / mp.power(d, mp.mpf(1) / size)


def random_pd_hermitian(rnd, size):
    """Random positive definite Hermitian matrix of determinant 1."""
    A = mp.matrix(size, size)
    for i in range(size):
        for j in range(size):
            A[i, j] = rand_mpc(rnd)
    Q = A.transpose_conj() * A + mp.eye(size) * mp.mpf("0.1")
    d = mp.re(mp.det(Q))
    return Q / mp.root(d, size)


def random_trace_free_hermitian(rnd, size):
    B = mp.matrix(size, size)
    for i in range(size):
        B[i, i] = rand_real(rnd)
        for j in range(i + 1, size):
            B[i, j] = rand_mpc(rnd)
            B[j, i] = mp.conj(B[i, j])
    tr = sum(B[i, i] for i in range(size)) / size
    for i in range(size):
        B[i, i] -= tr
    return B


def random_unimodular_int(rnd, size, max_entry=1000):
    """Unimodular integer matrix grown by random elementary operations."""
    U = [[1 if i == j else 0 for j in range(size)] for i in range(size)]

    def height():
        return max(abs(v) for row in U for v in row)

    while True:
        i, j = rnd.sample(range(size), 2)
        k = rnd.choice([-3, -2, -1, 1, 2, 3])
        trial = [row[:] for row in U]
        for a in range(size):
            trial[a][i] += k * trial[a][j]
        if max(abs(v) for row in trial for v in row) > max_entry:
            if height() > max_entry // 20:
                break
            continue
        U = trial
        if height() > max_entry // 3 and rnd.random() < 0.5:
            break
    return U


def start_newton_from(patch, rows):
    """Make the covariant solver start from the form ``rows`` (an mpmath
    matrix or rows) instead of its own start, through the monkeypatch
    ``patch``; the start is converted at the precision of this call."""
    from cluster_reduce import covariant

    rows = rows.tolist() if isinstance(rows, mp.matrix) else rows
    start = [[mp.mpc(v) for v in row] for row in rows]
    patch.setattr(covariant, "_start", lambda cluster, reps: start)


def matrices_close_mod_scaling(A, B, rel_tol):
    """Relative distance of two matrices after optimal positive scaling."""
    A = mp.matrix(A) if not isinstance(A, mp.matrix) else A
    B = mp.matrix(B) if not isinstance(B, mp.matrix) else B
    num = mp.fsum(mp.re(A[i, j] * mp.conj(B[i, j])) for i in range(A.rows) for j in range(A.cols))
    den = mp.fsum(abs(B[i, j]) ** 2 for i in range(B.rows) for j in range(B.cols))
    s = num / den
    scale = max(abs(A[i, j]) for i in range(A.rows) for j in range(A.cols))
    err = max(abs(A[i, j] - s * B[i, j]) for i in range(A.rows) for j in range(A.cols))
    return err / scale < rel_tol


def near_threshold_cluster():
    """(1,0,0) twice, (1,e,e), (0,1,0), (0,0,1) and (1,2,3) of P^2 with
    e^2 = 0.75 2^-t at the ambient precision, where 2^-t = half_eps()^2:
    semi-stable, not stable, with the double point as its witness. (1,e,e)
    is another point, its squared sine to (1,0,0) about 1.5 2^-t, although
    each of its two components off the witness is below 2^-t."""
    t = -2 * (-mp.mp.prec // 2)
    e = mp.sqrt(mp.mpf("0.75") * mp.mpf(2) ** -t)
    coords = [(1, 0, 0), (1, 0, 0), (1, e, e), (0, 1, 0), (0, 0, 1), (1, 2, 3)]
    return PointCluster(tuple(ProjectivePoint(c) for c in coords))


def witness_slope_holds(zc, res):
    """Whether D along theta's witness family has the slope k1 m - (n+1) c
    per unit of log lambda far out, as (D(e^(2s)) - D(e^s)) / s at
    s = 2 prec, within 2^-(prec/4): the c points that classify counts on the
    witness subspace, of linear dimension k1, fall like lambda^-(n+1-k1), the
    others grow like lambda^k1. It is 0 on a semi-stable witness."""
    s = 2 * mp.mp.prec
    w = res.witness
    slope = (w.distance_at(zc, mp.e ** mp.mpf(2 * s)) - w.distance_at(zc, mp.e ** mp.mpf(s))) / s
    expected = w.subspace_dim * zc.degree - (zc.n + 1) * res.stability.witness.contained
    return abs(slope - expected) < mp.mpf(2) ** (-mp.mp.prec / 4)


def signed_permutations(size):
    """All signed permutation matrices (rows of +-unit vectors)."""
    import itertools

    for perm in itertools.permutations(range(size)):
        for signs in itertools.product((1, -1), repeat=size):
            yield [
                [signs[i] if j == perm[i] else 0 for j in range(size)]
                for i in range(size)
            ]


def pair_matches_up_to_signed_permutation(got, expected):
    """Do the two quadric pairs agree after a signed permutation of variables,
    an order swap, and a sign per member (the pencil-basis ambiguity)?"""
    from cluster_reduce import substitute

    for V in signed_permutations(3):
        a = substitute(expected[0], V)
        b = substitute(expected[1], V)
        for x, y in ((a, b), (b, a)):
            if (got[0] == x or got[0] == -x) and (got[1] == y or got[1] == -y):
                return True
    return False


@pytest.fixture
def rnd():
    return random.Random(20260810)


@pytest.fixture
def tried_projections(monkeypatch):
    """The projections that the exact half of a curve intersection tries, in
    order, in ``curve_intersection`` and in the preconditioning passes alike:
    each call of ``polyalg._intersect_with_shear`` from here on records its
    ``S``."""
    from cluster_reduce import polyalg

    tried, real = [], polyalg._intersect_with_shear

    def recorded(F, G, S, d1, d2):
        tried.append(S)
        return real(F, G, S, d1, d2)

    monkeypatch.setattr(polyalg, "_intersect_with_shear", recorded)
    return tried


@pytest.fixture(autouse=True)
def _default_precision():
    with mp.workprec(212):
        yield
