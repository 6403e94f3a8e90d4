"""JSON and text serialization: reads clusters and polynomials, and writes
those plus Hermitian forms, Gram matrices, transforms and reports.

Numbers travel as decimal strings so that round-trips keep the working
precision; exact integers and rationals are accepted wherever a coordinate or
coefficient is expected.
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath as mp

from ._precision import to_mpf
from .cluster_core import PointCluster, ProjectivePoint
from .covariant import CovariantResult, HermitianForm
from .errors import DimensionError, InputFormatError, InvalidPointError
from .lattice import GramMatrix, UnimodularTransform
from .polyalg import MultiPoly
from .pipelines import ReductionReport

SCHEMA = "cluster-reduce/1"


def _num_to_str(x) -> str:
    return mp.nstr(mp.mpf(x), mp.mp.dps, strip_zeros=True)


def _decode(data):
    """A JSON document, decoded if given as text."""
    if not isinstance(data, str):
        return data
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"malformed JSON: {exc}") from exc


def _parse_real(s):
    """A finite real number: a number, a decimal or a fraction string; a
    boolean or a complex string such as "1j" is no real number."""
    try:
        if isinstance(s, str) and "/" in s:
            f = Fraction(s)
            x = mp.mpf(f.numerator) / f.denominator
        else:
            x = to_mpf(s)
    except Exception as exc:
        raise InputFormatError(f"cannot parse number {s!r}") from exc
    if not mp.isfinite(x):
        raise InputFormatError(f"number {s!r} is not finite")
    return x


def _parse_int(v, what):
    """An integer field: an integer, an integral number or a decimal integer
    string; a boolean, a non-integral or a non-finite number is malformed,
    never truncated. JSON numbers with a fraction or exponent part arrive as
    doubles, so such a number is read only below 2^53 in magnitude, where
    no integer is rounded; a larger integer is given as an integer."""
    try:
        n = int(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"{what} must be an integer, not {v!r}") from exc
    if isinstance(v, bool) or (not isinstance(v, str) and n != v) or (isinstance(v, float) and abs(n) >= 2**53):
        raise InputFormatError(f"{what} must be an integer, not {v!r}")
    return n


def _parse_complex(entry):
    """[re, im] pair of decimal strings, or a bare exact real string/number."""
    if isinstance(entry, (list, tuple)):
        if len(entry) != 2:
            raise InputFormatError(f"complex entry {entry!r} must be a [re, im] pair")
        return mp.mpc(_parse_real(entry[0]), _parse_real(entry[1]))
    return mp.mpc(_parse_real(entry))


def _rows(raw, what):
    """``raw`` if it is a list of lists, else InputFormatError: a string where
    a list is expected is malformed, never read one character per entry."""
    if not isinstance(raw, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in raw):
        raise InputFormatError(f"{what} must be a list of lists")
    return raw


def _complex_to_pair(c):
    c = mp.mpc(c)
    return [_num_to_str(mp.re(c)), _num_to_str(mp.im(c))]


# -- clusters ---------------------------------------------------------------


def cluster_to_json(cluster: PointCluster) -> dict:
    return {
        "n": cluster.n,
        "points": [[_complex_to_pair(c) for c in p.coords] for p in cluster.points],
    }


def cluster_from_json(data) -> PointCluster:
    data = _decode(data)
    try:
        n = _parse_int(data["n"], "'n'")
        raw = data["points"]
    except (KeyError, TypeError) as exc:
        raise InputFormatError("cluster JSON needs fields 'n' and 'points'") from exc
    points = []
    try:
        for row in _rows(raw, "cluster points"):
            coords = tuple(_parse_complex(e) for e in row)
            if len(coords) != n + 1:
                raise InputFormatError(f"point {row!r} does not have n+1 = {n + 1} coordinates")
            points.append(ProjectivePoint(coords))
        return PointCluster(tuple(points))
    except InvalidPointError as exc:
        raise InputFormatError(f"bad cluster: {exc}") from exc


# -- Hermitian forms and Gram matrices ---------------------------------------


def hermitian_to_json(form: HermitianForm) -> dict:
    return {
        "n": form.n,
        "matrix": [[_complex_to_pair(v) for v in row] for row in form.matrix],
    }


def gram_to_json(G: GramMatrix) -> dict:
    return {
        "n": G.size - 1,
        "matrix": [[_num_to_str(v) for v in row] for row in G.matrix],
    }


def transform_to_json(U: UnimodularTransform) -> list:
    return [list(row) for row in U.matrix]


# -- polynomials --------------------------------------------------------------


def poly_to_json(p: MultiPoly) -> dict:
    return {
        "nvars": p.nvars,
        "terms": [
            {"exp": list(e), "coeff": str(c)} for e, c in p.terms
        ],
    }


def poly_from_json(data) -> MultiPoly:
    data = _decode(data)
    try:
        nvars = _parse_int(data["nvars"], "'nvars'")
        raw = data["terms"]
    except (KeyError, TypeError) as exc:
        raise InputFormatError("polynomial JSON needs fields 'nvars' and 'terms'") from exc
    try:
        terms = {}
        for t in raw:
            if not isinstance(t["exp"], (list, tuple)):
                raise InputFormatError(f"exponent {t['exp']!r} must be a list")
            exp = tuple(_parse_int(e, "exponent") for e in t["exp"])
            c = t["coeff"]
            c = Fraction(c) if isinstance(c, str) and "/" in c else _parse_int(c, "coefficient")
            terms[exp] = terms.get(exp, 0) + c
        return MultiPoly(nvars, tuple(terms.items()))
    except (KeyError, TypeError, ValueError, ArithmeticError, DimensionError) as exc:
        raise InputFormatError(f"bad polynomial terms: {exc!r}") from exc


def poly_from_any(text: str, nvars=None) -> MultiPoly:
    """Parse either the JSON or the sparse text representation."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return poly_from_json(stripped)
    return MultiPoly.from_text(stripped, nvars=nvars)


# -- results ------------------------------------------------------------------


def covariant_result_to_json(result: CovariantResult) -> dict:
    return {
        "schema": SCHEMA,
        "z": hermitian_to_json(result.z),
        "theta": _num_to_str(result.theta),
        "iterations": result.iterations,
        "final_gradient_norm": _num_to_str(result.final_gradient_norm),
        "stop": result.stop,
    }


def _reduced_to_json(report: ReductionReport):
    obj = report.reduced
    if isinstance(obj, PointCluster):
        return cluster_to_json(obj)
    if isinstance(obj, MultiPoly):
        return poly_to_json(obj)
    if isinstance(obj, tuple):
        return [poly_to_json(p) for p in obj]
    raise TypeError(f"cannot serialize reduced object {type(obj)!r}")


def report_to_json(report: ReductionReport) -> dict:
    diag = report.diagnostics
    stability = diag.get("stability")
    out = {
        "schema": SCHEMA,
        "kind": report.kind,
        "covariant": gram_to_json(report.covariant),
        "reduced_gram": gram_to_json(report.reduced_gram),
        "transform": transform_to_json(report.transform),
        "reduced": _reduced_to_json(report),
        "diagnostics": {
            "precision": diag.get("precision"),
            "iterations": diag.get("iterations"),
            "gradient_norm": _num_to_str(diag.get("gradient_norm", 0)),
            "newton_stop": diag.get("newton_stop"),
            "residuals": [_num_to_str(r) for r in diag.get("residuals", ())],
            "stability": {
                "is_split": stability.is_split,
                "is_semi_stable": stability.is_semi_stable,
                "is_stable": stability.is_stable,
                "margin": stability.margin,
            }
            if stability is not None
            else None,
            "height_before": str(diag.get("height_before")),
            "height_after": str(diag.get("height_after")),
            "height_warning": diag.get("height_warning"),
        },
    }
    if "theta" in diag:
        out["diagnostics"]["theta"] = _num_to_str(diag["theta"])
    if "nodes" in diag:
        out["diagnostics"]["nodes"] = diag["nodes"]
    if "preconditioning" in diag:
        passes = diag["preconditioning"]
        out["diagnostics"]["preconditioning"] = {
            "passes": passes["passes"],
            "heights": [str(h) for h in passes["heights"]],
            "stop": passes["stop"],
            "transform": transform_to_json(passes["transform"]),
        }
    if report.pencil_transform is not None:
        out["pencil_transform"] = [list(r) for r in report.pencil_transform]
    if "pencil_cubic" in report.extras:
        out["pencil_cubic"] = poly_to_json(report.extras["pencil_cubic"])
    if "inflection_cluster" in report.extras:
        out["inflection_cluster"] = cluster_to_json(report.extras["inflection_cluster"])
    if "root_cluster" in report.extras:
        out["root_cluster"] = cluster_to_json(report.extras["root_cluster"])
    if "base_points" in report.extras:
        out["base_points"] = cluster_to_json(report.extras["base_points"].cluster())
    return out
