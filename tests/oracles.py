"""Independent test oracles.

These deliberately use different arithmetic and different enumeration
strategies than the library: numpy double precision for the stability
classifier, the bounded unimodular search and Tyler's fixed point for the
covariant, exact rationals for LLL and for the count on a witness span,
plain finite differences for derivatives.
They must never share code paths with the implementation they check.
"""

import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

RANK_TOL = 1e-8


def _np_points(cluster):
    pts = []
    for p in cluster.points:
        u = p.unit()
        pts.append(np.array([complex(c) for c in u], dtype=complex))
    return pts


def _np_rank(vectors):
    if not vectors:
        return 0
    A = np.vstack(vectors)
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > RANK_TOL * s[0])) if s[0] > 0 else 0


def _points_on_span(pts, subset):
    """Indices of points within RANK_TOL of the span of the subset."""
    A = np.vstack([pts[i] for i in subset]).T
    q, _ = np.linalg.qr(A)
    s = np.linalg.svd(A, compute_uv=False)
    r = int(np.sum(s > RANK_TOL * s[0]))
    q = q[:, :r]
    hits = []
    for i, p in enumerate(pts):
        resid = p - q @ (q.conj().T @ p)
        if np.linalg.norm(resid) < 1e-7:
            hits.append(i)
    return hits


def oracle_phi(cluster, k):
    """phi via enumeration of ALL nonempty subsets as subspace generators.

    Rank is decided in numpy doubles against the fixed RANK_TOL = 1e-8 and a
    residual of 1e-7, not against the precision: it resolves rank only to
    about 1e-8, so points closer than that to a span count on it, and the
    oracle checks only clusters whose points are much farther off. It tests
    all 2^m - 1 subsets for each k, so it checks only small clusters: the
    largest that a test passes, directly or through :func:`oracle_classify`,
    has m = 9 points (the flexes of a smooth plane cubic), 511 subsets."""
    pts = _np_points(cluster)
    m = len(pts)
    if k == -1:
        return 0
    if k >= cluster.n:
        return m
    best = 0
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            if _np_rank([pts[i] for i in subset]) > k + 1:
                continue
            best = max(best, len(_points_on_span(pts, subset)))
    return best


def oracle_count_on_span(cluster, spanning_points):
    """Number of cluster points on the span of the given points, in exact
    rationals: each point whose :func:`oracle_sin2` against a greedy basis of
    the spanning points (each kept where its own squared sine against the
    points kept before it is not below the threshold) is below 2^-t,
    t = 2 ceil(prec/2), the square of 2^(-prec/2) at the ambient precision."""
    threshold = Fraction(1, 2 ** (-2 * (-mp.mp.prec // 2)))
    basis = []
    for p in spanning_points:
        if oracle_sin2(basis, p) >= threshold:
            basis.append(p)
    return sum(oracle_sin2(basis, p) < threshold for p in cluster.points)


def oracle_classify(cluster):
    """(is_split, is_semi_stable, is_stable) by exhaustive search."""
    pts = _np_points(cluster)
    n = cluster.n
    m = len(pts)
    semi = True
    stable = True
    for k in range(0, n):
        count = oracle_phi(cluster, k)
        if (n + 1) * count > (k + 1) * m:
            semi = False
            stable = False
        elif (n + 1) * count == (k + 1) * m:
            stable = False
    total_rank = _np_rank(pts)
    split = total_rank < n + 1
    if not split and m > 1:
        for r in range(1, m // 2 + 1):
            for part in itertools.combinations(range(m), r):
                part_set = set(part)
                ra = _np_rank([pts[i] for i in part])
                rb = _np_rank([pts[i] for i in range(m) if i not in part_set])
                if ra + rb == total_rank:
                    split = True
                    break
            if split:
                break
    if split:
        stable = False
    return split, semi, stable


def oracle_tyler_covariant(cluster, tol=1e-13, max_iter=100000):
    """Covariant of a stable cluster by Tyler's fixed-point iteration (numpy).

    The stationarity condition of D, sum_j x_j x_j^H / (x_j^H Q x_j) =
    m/(n+1) Q^(-1), is the fixed-point equation of Tyler's M-estimator of
    scatter S = Q^(-1) (Tyler 1987). Iterates
    Q <- (sum_j x_j x_j^H / (x_j^H Q x_j))^(-1) on the unit points, scaled to
    trace 1, until no entry moves by ``tol`` or more.
    """
    X = np.array(_np_points(cluster))
    m, n1 = X.shape
    Q = np.eye(n1, dtype=complex) / n1
    for _ in range(max_iter):
        weights = np.real(np.einsum("ja,ab,jb->j", X.conj(), Q, X))
        scatter = (X.T / weights) @ X.conj()
        Q_next = np.linalg.inv(scatter)
        Q_next = (Q_next + Q_next.conj().T) / 2
        Q_next /= np.real(np.trace(Q_next))
        if np.abs(Q_next - Q).max() < tol:
            return Q_next
        Q = Q_next
    raise ArithmeticError("Tyler iteration did not converge")


def oracle_best_diagonal(G, bound=3):
    """Lexicographically smallest sorted diagonal of U^T G U over integer U
    with |entries| <= bound and det = +-1 (exhaustive, numpy).

    The vectors v_i are visited in increasing q_i = v_i^T G v_i; each is
    tried with every pair v_j, v_k, as the smallest entry of the diagonals
    it gives. The search stops once q_i exceeds the first entry of the best
    diagonal so far: a column v_i there only makes diagonals whose smallest
    entry is larger."""
    G = np.asarray(G, dtype=np.int64)
    rng = range(-bound, bound + 1)
    vecs = np.array(list(itertools.product(rng, repeat=3)), dtype=np.int64)
    q = np.einsum("vi,ij,vj->v", vecs, G, vecs)
    best = None
    for i in np.argsort(q, kind="stable"):
        if best is not None and q[i] > best[0]:
            break
        cross_i = np.cross(np.broadcast_to(vecs[i], vecs.shape), vecs)
        dets = cross_i @ vecs.T  # dets[j, k] = det(v_i, v_j, v_k)
        jj, kk = np.nonzero(np.abs(dets) == 1)
        if len(jj) == 0:
            continue
        diags = np.sort(
            np.stack([np.full(len(jj), q[i]), q[jj], q[kk]], axis=1), axis=1
        )
        idx = np.lexsort((diags[:, 2], diags[:, 1], diags[:, 0]))[0]
        cand = tuple(int(v) for v in diags[idx])
        if best is None or cand < best:
            best = cand
    return best


def _exact_gso(C):
    """Gram-Schmidt data (mu, B) of an integer Gram matrix, in exact rationals."""
    n = len(C)
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (C[i][j] - sum(mu[j][t] * mu[i][t] * B[t] for t in range(j))) / B[j]
        B.append(C[i][i] - sum(mu[i][t] ** 2 * B[t] for t in range(i)))
    return mu, B


def oracle_lll_transform(G, delta=Fraction(0.99)):
    """Transform U of the LLL reduction of an integer Gram matrix G, in exact
    rationals, under the conventions of ``lll_reduce``: size reduction runs
    j = k-1 down to 0 and rounds exact half-integers toward zero, and the
    Lovasz test is strict. The Gram matrix U^T G U is kept exactly in
    integers, and the Gram-Schmidt data is recomputed from it after every
    swap."""
    n = len(G)
    C = [[int(v) for v in row] for row in G]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    mu, B = _exact_gso(C)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            x = mu[k][j]
            q = math.ceil(abs(x) - Fraction(1, 2))
            q = -q if x < 0 else q
            if q:
                for a in range(n):
                    U[a][k] -= q * U[a][j]
                ckk = C[k][k] - 2 * q * C[k][j] + q * q * C[j][j]
                for a in range(n):
                    C[a][k] -= q * C[a][j]
                    C[k][a] = C[a][k]
                C[k][k] = ckk
                for t in range(j + 1):
                    mu[k][t] -= q * (mu[j][t] if t < j else 1)
        if B[k] < (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            for a in range(n):
                U[a][k], U[a][k - 1] = U[a][k - 1], U[a][k]
            C[k], C[k - 1] = C[k - 1], C[k]
            for row in C:
                row[k], row[k - 1] = row[k - 1], row[k]
            mu, B = _exact_gso(C)
            k = max(k - 1, 1)
        else:
            k += 1
    return tuple(tuple(row) for row in U)


def oracle_int_det(rows):
    """Determinant of a square integer matrix by Gaussian elimination in
    exact rationals."""
    n = len(rows)
    M = [[Fraction(v) for v in r] for r in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det *= M[col][col]
        for r in range(col + 1, n):
            factor = M[r][col] / M[col][col]
            M[r] = [M[r][k] - factor * M[col][k] for k in range(n)]
    assert det.denominator == 1
    return int(det)


def oracle_int_inverse(rows):
    """Inverse of a nonsingular integer matrix by Gauss-Jordan elimination in
    exact rationals, as rows of Fractions."""
    n = len(rows)
    M = [[Fraction(v) for v in r] + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        M[col] = [v / M[col][col] for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [a - factor * b for a, b in zip(M[r], M[col])]
    return tuple(tuple(r[n:]) for r in M)


def oracle_int_product(a, b):
    """The product of two square integer matrices, one sum per entry."""
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def transported_curve(Q, B, lam):
    """S^H exp(lam B) S with Q = S^H S, via mpmath eigendecomposition."""
    L = mp.cholesky(Q)
    ev, V = mp.eigh(B)
    E = mp.diag([mp.e ** (lam * e) for e in ev])
    expB = V * E * V.transpose_conj()
    M = L * expB * L.transpose_conj()
    return (M + M.transpose_conj()) / 2


def oracle_witness_form(witness, lam):
    """Q_lambda = B diag(e) B^H of theta's witness family, formed densely in
    mpmath: B has the rows ``witness.basis``, whose first ``subspace_dim``
    columns span the offending subspace, and e is lambda^-(n-k) on those and
    lambda^(k+1) on the rest, as ``DivergenceWitness`` states, so that
    det Q_lambda = 1. The product runs with as many extra bits as the
    eigenvalues span, so that the small ones survive the rounding of the
    large ones, and only its entries are rounded to the ambient precision.
    Returns mpc rows."""
    n1, k1 = len(witness.basis), witness.subspace_dim
    with mp.extraprec(20 + n1 * max(mp.mag(lam), 0)):
        lam = mp.mpf(lam)
        e = [lam ** -(n1 - k1)] * k1 + [lam**k1] * (n1 - k1)
        B = mp.matrix([list(r) for r in witness.basis])
        Q = B * mp.diag(e) * B.transpose_conj()
    return [[+v for v in r] for r in Q.tolist()]


def fd_directional_derivative(eval_fn, Q, B, eps):
    """Central finite difference of lam -> eval_fn(curve(lam)) at 0."""
    fp = eval_fn(transported_curve(Q, B, eps))
    fm = eval_fn(transported_curve(Q, B, -eps))
    return (fp - fm) / (2 * eps)


def fd_second_difference(eval_fn, Q, B, eps):
    fp = eval_fn(transported_curve(Q, B, eps))
    f0 = eval_fn(Q)
    fm = eval_fn(transported_curve(Q, B, -eps))
    return (fp - 2 * f0 + fm) / eps**2


def oracle_tyler_in_doubles(points):
    """Tyler's iteration in doubles finished by Newton steps, as
    ``covariant._tyler_in_doubles`` runs it, but with every entry of M summed
    over the points, the conjugated columns of L taken once per point and the
    Newton update L (I + 2^f Y) as full sums over the entries. The library's
    Cholesky factor, triangular inverse, Newton direction and exponential are
    shared on purpose, so that the two loops can be compared for equality,
    not to a tolerance."""
    import math

    from cluster_reduce._precision import _fixed, hermitian_cholesky
    from cluster_reduce.covariant import _expm1_in_doubles, _lower_inverse, _newton_direction, _trace_free_basis

    n1 = len(points[0])
    m = len(points)
    L = [[complex(a == b) for b in range(n1)] for a in range(n1)]
    last = float("inf")
    for _ in range(100):
        M = [[0j] * n1 for _ in range(n1)]
        units = []
        for p in points:
            w = [sum(L[a][i].conjugate() * p[a] for a in range(n1)) for i in range(n1)]
            nrm2 = sum(abs(c) ** 2 for c in w)
            units.append([c / math.sqrt(nrm2) for c in w])
            for a in range(n1):
                for b in range(n1):
                    M[a][b] += w[a] * w[b].conjugate() / nrm2
        gnorm = sum(abs(M[a][b] - (m / n1 if a == b else 0)) ** 2 for a in range(n1) for b in range(n1)) ** 0.5
        if gnorm <= 2.0**-40 * m or last <= gnorm <= 2.0**-20 * m:
            break
        last = gnorm
        if gnorm <= 2.0**-7 * m:
            G = [[_fixed(M[a][b] - (m / n1 if a == b else 0), 1074) for b in range(n1)] for a in range(n1)]
            B, e, _, norm, fallback = _newton_direction(units, G, 1074, _trace_free_basis(n1))
            if not fallback:
                h = 0
                while math.ldexp(norm, e - h) > 0.1:
                    h += 1
                try:
                    Y, f = _expm1_in_doubles(B, e - h - 1)
                    step = [[sum(L[a][k] * Y[k][b] for k in range(n1)) for b in range(n1)] for a in range(n1)]
                    L1 = [[L[a][b] + step[a][b] * math.ldexp(1.0, f) for b in range(n1)] for a in range(n1)]
                    if not math.isfinite(sum(abs(L1[a][b]) ** 2 for a in range(n1) for b in range(n1))):
                        break
                except (ArithmeticError, ValueError):
                    break
                L = L1
                continue
        for a in range(n1):
            M[a][a] += 2.0**-45 * m
        X = _lower_inverse(hermitian_cholesky(M))
        L = [[sum(L[a][k] * X[b][k].conjugate() for k in range(n1)) for b in range(n1)] for a in range(n1)]
    return [[sum(L[a][k] * L[b][k].conjugate() for k in range(n1)) for b in range(n1)] for a in range(n1)]


def oracle_evaluate(F, values):
    """F at the coordinates ``values`` in mpmath arithmetic at the ambient
    precision: one table of powers v, v^2, ..., v^d per coordinate, each
    term a product of mpc, the terms summed in order."""
    vals = [mp.mpc(v) for v in values]
    powers = []
    for i, v in enumerate(vals):
        table = [mp.mpc(1)]
        for _ in range(F.degree_in(i)):
            table.append(table[-1] * v)
        powers.append(table)
    total = mp.mpc(0)
    for e, c in F.terms:
        term = mp.mpc(int(c.numerator), 0) / int(c.denominator) if isinstance(c, Fraction) else mp.mpc(c)
        for table, k in zip(powers, e):
            if k:
                term *= table[k]
        total += term
    return total


def oracle_norm(F):
    """The Euclidean norm of F's coefficient vector, an mpf at the ambient
    precision."""
    coeffs = [Fraction(c) for _, c in F.terms]
    return mp.sqrt(mp.fsum((mp.mpf(c.numerator) / c.denominator for c in coeffs), squared=True))


def oracle_bini_initial_points(coeffs):
    """The Bini points as ``polyalg._bini_initial_points`` computed them in
    mpmath at the ambient precision before it ran in ``math`` and ``cmath``:
    radii from the upper convex hull of (k, ln |a_k|) as mpf, angles from
    mpmath's cos and sin; returns the points as mpc."""
    pts = [(k, mp.log(abs(c))) for k, c in enumerate(reversed(coeffs)) if c != 0]
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    out = []
    for seg, ((k1, h1), (k2, h2)) in enumerate(zip(hull, hull[1:])):
        r = mp.e ** ((h1 - h2) / (k2 - k1))
        width = k2 - k1
        for j in range(width):
            theta = 2 * mp.pi * (j + mp.mpf("0.25")) / width + mp.mpf("0.6180339887") * (seg + 1)
            out.append(r * (mp.cos(theta) + 1j * mp.sin(theta)))
    return out


def oracle_images(L, reps):
    """``covariant._images`` as it ran in mpmath at the ambient precision
    before it ran in Python integers: the images u_j = L^H P_j by ``fdot``,
    their squared norms by ``fsum``, the unit images u_j / |u_j|, and
    D = sum_j log |u_j|^2 - m/(n+1) log det(L L^H); returns (ws, D)."""
    cols, ws, logs = list(zip(*L)), [], []
    for row in reps:
        u = [mp.fdot(row, col, conjugate=True) for col in cols]
        nrm2 = mp.fsum(u, absolute=True, squared=True)
        nrm = mp.sqrt(nrm2)
        ws.append([c / nrm for c in u])
        logs.append(mp.log(nrm2))
    log_det = 2 * mp.fsum(mp.log(row[i]) for i, row in enumerate(L))
    return ws, mp.fsum(logs) - mp.mpf(len(reps)) / len(L) * log_det


def oracle_gradient(ws, n1):
    """``covariant._gradient`` as it ran in mpmath: G = sum_j w_j w_j^H -
    m/(n+1) I, each entry one ``fdot`` over the unit images, and its
    Frobenius norm; returns (G, norm)."""
    cols = list(zip(*ws))
    G = [[mp.fdot(ca, cb, conjugate=True) for cb in cols] for ca in cols]
    for a in range(n1):
        G[a][a] = mp.re(G[a][a]) - mp.mpf(len(ws)) / n1
    return G, mp.sqrt(sum(abs(v) ** 2 for r in G for v in r))


def oracle_simplex_form(units):
    """``covariant._simplex_form`` as it ran in mpmath before it ran in
    Python integers, without the factor n+2: the rank of the first n+1 unit
    points by Gram-Schmidt with a second pass (rank below n+1 at
    2^(-prec/2) raises DegeneratePositionError), c from ``mp.lu_solve`` with
    u_(n+1) = sum_i c_i u_i (|c_i| below 2^(-prec/2) raises it too), and
    the covariant (sum_j g_j g_j^H)^-1 over g_i = c_i u_i and
    g_(n+1) = u_(n+1) as X^H X for X = K^-1 and the Cholesky factor K of the
    sum. Returns mpc rows."""
    from cluster_reduce import DegeneratePositionError
    from cluster_reduce._precision import half_eps, hermitian_cholesky
    from cluster_reduce.covariant import _lower_inverse

    n1 = len(units) - 1
    basis = []
    for v in units[:n1]:
        w = list(v)
        for _ in range(2):
            for b in basis:
                d = mp.fdot(w, b, conjugate=True)
                w = [y - d * x for x, y in zip(b, w)]
        nrm = mp.sqrt(mp.fsum(w, absolute=True, squared=True))
        if nrm < half_eps():
            raise DegeneratePositionError("the first n+1 points are linearly dependent")
        basis.append([y / nrm for y in w])
    V = mp.matrix([list(r) for r in zip(*units[:n1])])
    coeff = mp.lu_solve(V, mp.matrix(list(units[n1])))
    if any(abs(coeff[i]) < half_eps() for i in range(n1)):
        raise DegeneratePositionError("the last point lies in a coordinate subspace of the others")
    g = [[coeff[i] * c for c in units[i]] for i in range(n1)] + [list(units[n1])]
    M = [[mp.fsum(r[a] * mp.conj(r[b]) for r in g) for b in range(n1)] for a in range(n1)]
    X = _lower_inverse(hermitian_cholesky(M))
    return [[mp.fsum(mp.conj(X[k][a]) * X[k][b] for k in range(n1)) for b in range(n1)] for a in range(n1)]


def oracle_lll_in_mpmath(G):
    """The transform of ``lattice.lll_reduce`` as it ran in mpmath before it
    ran on the rounded integer Gram: mu and B read off the library's Cholesky
    factor of the rows ``G`` at the ambient precision (shared on purpose, so
    that the transforms can be compared for equality), size reduction
    toward zero within 2^(-prec/2) of a half-integer, and Cohen's
    Algorithm 2.6.3 swap on mu and B at the working precision."""
    from cluster_reduce._precision import hermitian_cholesky

    n = len(G)
    L = hermitian_cholesky([[mp.mpf(v) for v in r] for r in G])
    mu = [[L[i][j] / L[j][j] for j in range(i)] for i in range(n)]
    B = [L[i][i] ** 2 for i in range(n)]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    tie, delta = mp.mpf(2) ** (-mp.mp.prec // 2), mp.mpf(0.99)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            x = mu[k][j]
            q = int(mp.ceil(abs(x) - mp.mpf(0.5) - tie))
            q = -q if x < 0 else q
            if q:
                for a in range(n):
                    U[a][k] -= q * U[a][j]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        m = mu[k][k - 1]
        if B[k] < (delta - m**2) * B[k - 1]:
            for a in range(n):
                U[a][k], U[a][k - 1] = U[a][k - 1], U[a][k]
            Bnew = B[k] + m**2 * B[k - 1]
            mu[k - 1], mu[k] = mu[k][: k - 1], mu[k - 1] + [m * B[k - 1] / Bnew]
            B[k - 1], B[k] = Bnew, B[k - 1] * B[k] / Bnew
            for row in mu[k + 1 :]:
                t = row[k]
                row[k] = row[k - 1] - m * t
                row[k - 1] = t + mu[k][k - 1] * row[k]
            k = max(k - 1, 1)
        else:
            k += 1
    return tuple(tuple(row) for row in U)


def oracle_same_cluster(a, b):
    """Multiset equality of two point clusters by the greedy O(m^2) match
    that ``PointCluster.same_cluster`` made before it took equal coordinates
    as equal: every point of ``a`` in turn takes the first remaining point of ``b``
    whose unit vector has a squared sine to its own below 2^(-prec), every
    pair at the working precision."""
    if a.n != b.n or a.degree != b.degree:
        return False
    tol2 = (mp.mpf(2) ** (-mp.mp.prec // 2)) ** 2

    def unit(p):
        nrm = mp.sqrt(mp.fsum(p.coords, absolute=True, squared=True))
        return [c / nrm for c in p.coords]

    def sin2(u, v):
        c = mp.fdot(v, u, conjugate=True)
        w = [y - c * x for x, y in zip(u, v)]
        return mp.fdot(w, w, conjugate=True).real

    remaining = [unit(q) for q in b.points]
    for p in a.points:
        u = unit(p)
        for i, v in enumerate(remaining):
            if sin2(u, v) < tol2:
                remaining.pop(i)
                break
        else:
            return False
    return True


def _gaussian_fraction(c):
    """The mpc or mpf c as an exact (re, im) pair of Fractions."""
    def exact(x):
        sign, man, exp, _ = x._mpf_
        return Fraction(-man if sign else man) * Fraction(2) ** exp

    c = mp.mpc(c)
    return exact(c.real), exact(c.imag)


def _gaussian_det(M):
    """Determinant of a square matrix over Q(i), entries (re, im) pairs of
    Fractions, by Gaussian elimination without pivoting (the matrices here
    are Gram matrices, whose leading minors vanish only when it does)."""
    M = [list(r) for r in M]
    det = (Fraction(1), Fraction(0))
    for k in range(len(M)):
        p = M[k][k]
        norm = p[0] ** 2 + p[1] ** 2
        if norm == 0:
            return (Fraction(0), Fraction(0))
        det = (det[0] * p[0] - det[1] * p[1], det[0] * p[1] + det[1] * p[0])
        inv = (p[0] / norm, -p[1] / norm)
        for i in range(k + 1, len(M)):
            a = M[i][k]
            f = (a[0] * inv[0] - a[1] * inv[1], a[0] * inv[1] + a[1] * inv[0])
            for j in range(k, len(M)):
                b = M[k][j]
                M[i][j] = (M[i][j][0] - f[0] * b[0] + f[1] * b[1], M[i][j][1] - f[0] * b[1] - f[1] * b[0])
    return det


def oracle_sin2(span_points, point):
    """The squared sine of ``point`` against the complex span of
    ``span_points``, det G(S + u) / (det G(S) |u|^2) with G the Hermitian
    Gram matrix of the exact coordinates, a Fraction."""
    vectors = [[_gaussian_fraction(c) for c in p.coords] for p in (*span_points, point)]

    def inner(a, b):  # sum conj(a_i) b_i
        return (
            sum(x[0] * y[0] + x[1] * y[1] for x, y in zip(a, b)),
            sum(x[0] * y[1] - x[1] * y[0] for x, y in zip(a, b)),
        )

    gram = [[inner(a, b) for b in vectors] for a in vectors]
    k = len(span_points)
    return _gaussian_det(gram)[0] / (_gaussian_det([r[:k] for r in gram[:k]])[0] * gram[k][k][0])


def oracle_residual2(forms, point):
    """The square of the residual of ``point`` on ``forms`` that
    ``polyalg._gate`` decides on, max_P |P(v)|^2 / |v|^(2 d_P) over
    max_P ||P||^2, a Fraction from the exact coordinates v of the point as
    placed, each term a product of its coefficient and one coordinate at a
    time."""
    v = [_gaussian_fraction(c) for c in point.coords]
    size = sum(x * x + y * y for x, y in v)
    worst = Fraction(0)
    for P in forms:
        re = im = Fraction(0)
        for e, c in P.terms:
            a, b = Fraction(c), Fraction(0)
            for (x, y), k in zip(v, e):
                for _ in range(k):
                    a, b = a * x - b * y, a * y + b * x
            re, im = re + a, im + b
        worst = max(worst, (re * re + im * im) / size ** P.total_degree())
    return worst / max(sum(Fraction(c) ** 2 for _, c in P.terms) for P in forms)
