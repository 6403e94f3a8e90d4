"""Seeded inputs for the workloads, made without the program under test.

Every input comes from ``random.Random(seed)``, so a seed gives the same
inputs on every machine. Pencils are kept only when an exact sympy
discriminant shows that their determinant cubic is squarefree of degree 3;
clusters are kept only when the exhaustive numpy oracle of ``oracle.py``
gives them the planted stability class. The planted objects have small
coefficients and are then distorted by a unimodular matrix with entries up to
1000, which the reduction has to undo.
"""

from __future__ import annotations

import random

import sympy as sp

from oracle import classify_exhaustive

X = sp.symbols("x0:3")

# the reference quartic of the acceptance suite (coefficients by exponent)
QUARTIC = {
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
}

QUADRIC_EXPS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]

# Objects per round. Each run is one round today, and three workloads of 22
# runs each must fit in under an hour next to a quartic run of about a minute,
# so a pencils round is ~15 s and a clusters round ~20 s. Clusters in P^3
# cost 1-6 s each (classify over every bipartition), so they come once per
# shape and the cheaper shapes twice.
PENCILS_PER_ROUND = 32
CLUSTER_SHAPES = [(n, m) for n in (1, 2) for m in range(n + 2, n + 5)] * 2 + [(3, 5), (3, 6), (3, 7)]


def unimodular(rng, size, max_entry=1000, min_height=250):
    """Integer matrix of determinant 1 with height in [min_height, max_entry].

    Built from random elementary column operations, each of determinant 1.
    """
    while True:
        U = [[int(i == j) for j in range(size)] for i in range(size)]
        misses = 0
        while misses < 50:
            i, j = rng.sample(range(size), 2)
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            trial = [row[:] for row in U]
            for row in trial:
                row[i] += k * row[j]
            if max(abs(v) for row in trial for v in row) > max_entry:
                misses += 1
                continue
            U = trial
            if max(abs(v) for row in U for v in row) >= min_height:
                return U


def poly_terms(expr):
    """{exponent tuple: int coefficient} of a ternary sympy expression."""
    return {e: int(c) for e, c in sp.Poly(sp.expand(expr), *X).terms()}


def form_expr(terms):
    return sum(c * X[0] ** a * X[1] ** b * X[2] ** d for (a, b, d), c in terms.items())


def substitute(terms, U):
    """F(U x) by sympy polynomial arithmetic.

    Variable i becomes sum_j U[i][j] x_j, the program's convention.
    """
    lin = [sp.Poly.from_dict({tuple(int(k == j) for k in range(3)): U[i][j] for j in range(3)}, *X) for i in range(3)]
    out = sp.Poly(0, *X)
    for (a, b, d), c in terms.items():
        out += lin[0] ** a * lin[1] ** b * lin[2] ** d * c
    return {e: int(c) for e, c in out.terms() if c}


def poly_json(terms):
    return {
        "nvars": 3,
        "terms": [{"exp": list(e), "coeff": str(c)} for e, c in sorted(terms.items(), reverse=True)],
    }


def _second_partials(terms):
    """Integer matrix of second partial derivatives of a ternary quadric."""
    return [
        [sum(c * e[i] * (e[j] - (i == j)) for e, c in terms.items()) for j in range(3)]
        for i in range(3)
    ]


def _det3(M):
    return (
        M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
        - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
        + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
    )


def pencil_cubic_is_squarefree(q1, q2):
    """det(t M1 + M2) has degree 3 in t and a nonzero discriminant."""
    M1, M2 = _second_partials(q1), _second_partials(q2)
    t = sp.Symbol("t")
    # the cubic through its values at four points, exactly
    values = [(s, _det3([[s * a + b for a, b in zip(r1, r2)] for r1, r2 in zip(M1, M2)])) for s in range(-1, 3)]
    cubic = sp.Poly(sp.interpolate(values, t), t)
    return cubic.degree() == 3 and sp.discriminant(cubic) != 0


def make_pencil(rng):
    while True:
        q1, q2 = (
            {e: c for e in QUADRIC_EXPS if (c := rng.randint(-3, 3))} for _ in range(2)
        )
        if q1 and q2 and pencil_cubic_is_squarefree(q1, q2):
            break
    V = unimodular(rng, 3)
    return {"q1": poly_json(substitute(q1, V)), "q2": poly_json(substitute(q2, V))}


def _gaussian_point(rng, n):
    return [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n + 1)]


def _real_point(rng, n):
    return [(rng.randint(-3, 3), 0) for _ in range(n + 1)]


def _conjugation_fixed_points(rng, n, m):
    pts = []
    while len(pts) < m:
        if m - len(pts) >= 2 and rng.random() < 0.5:
            p = _gaussian_point(rng, n)
            pts += [p, [(a, -b) for a, b in p]]
        else:
            pts.append(_real_point(rng, n))
    return pts


def _act(points, V):
    """Rows P -> P V on Gaussian-integer coordinates (pairs re, im)."""
    size = len(V)
    return [
        [
            (sum(p[a][0] * V[a][j] for a in range(size)), sum(p[a][1] * V[a][j] for a in range(size)))
            for j in range(size)
        ]
        for p in points
    ]


def _nonzero(points):
    return all(any(c != (0, 0) for c in p) for p in points)


def planted_stable(rng, n, m):
    while True:
        pts = _conjugation_fixed_points(rng, n, m)
        if _nonzero(pts) and classify_exhaustive(pts, n)["is_stable"]:
            return pts


def _on_subspace(rng, n, support):
    """Real point whose coordinates outside ``support`` are zero."""
    while True:
        p = [(rng.randint(-3, 3) if i in support else 0, 0) for i in range(n + 1)]
        if any(c != (0, 0) for c in p):
            return p


def planted_special(rng, kind):
    """A cluster planted with a non-stable structure, and the class it must get.

    split: three points on each of two skew lines of P^3;
    semistable: four of six points of P^2 on a line, the bound met exactly;
    unstable: five of seven points of P^2 on a line, the bound exceeded.
    """
    if kind == "split":
        n, expected = 3, {"is_split": True, "is_stable": False}
        build = lambda: [_on_subspace(rng, n, {0, 1}) for _ in range(3)] + [
            _on_subspace(rng, n, {2, 3}) for _ in range(3)
        ]
    elif kind == "semistable":
        n, expected = 2, {"is_split": False, "is_semi_stable": True, "is_stable": False}
        build = lambda: [_on_subspace(rng, n, {0, 1}) for _ in range(4)] + [
            _real_point(rng, n) for _ in range(2)
        ]
    elif kind == "unstable":
        n, expected = 2, {"is_split": False, "is_semi_stable": False, "is_stable": False}
        build = lambda: [_on_subspace(rng, n, {0, 1}) for _ in range(5)] + [
            _real_point(rng, n) for _ in range(2)
        ]
    else:
        raise ValueError(kind)
    while True:
        pts = build()
        if not _nonzero(pts):
            continue
        got = classify_exhaustive(pts, n)
        if all(got[k] == v for k, v in expected.items()):
            return n, pts, got


def cluster_json(points):
    return [[[str(a), str(b)] for a, b in p] for p in points]


def quartic_inputs(seed):
    """The reference quartic; the seed only picks the program's shear sequence."""
    return [{"op": "quartic", "form": poly_json(QUARTIC), "shear_seed": seed}]


def pencils_inputs(seed):
    rng = random.Random(seed)
    return [{"op": "pencil", "pencil": make_pencil(rng)} for _ in range(PENCILS_PER_ROUND)]


def clusters_inputs(seed):
    rng = random.Random(seed)
    ops = []
    for n, m in CLUSTER_SHAPES:
        pts = _act(planted_stable(rng, n, m), unimodular(rng, n + 1))
        ops.append({"op": "reduce", "n": n, "points": cluster_json(pts)})
    for kind in ("split", "semistable", "unstable"):
        n, pts, expected = planted_special(rng, kind)
        pts = _act(pts, unimodular(rng, n + 1))
        ops.append({"op": "classify", "n": n, "points": cluster_json(pts), "planted": kind, "expected": expected})
    return ops


INPUTS = {"quartic": quartic_inputs, "pencils": pencils_inputs, "clusters": clusters_inputs}
