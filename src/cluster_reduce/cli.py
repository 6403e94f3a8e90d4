"""Command line interface.

Exit codes: 0 success, 1 any other library error (for example, an
elimination that no shear resolves), 2 stability error: an input that is not
stable or a degenerate pencil, 3 numerical convergence error: a working
precision too low for the input, 4 input error:
a malformed input, a malformed or out-of-range option or argument, or a
cluster not fixed by conjugation given to reduce-cluster (one line on
stderr).
"""

from __future__ import annotations

import json
import sys

import click
import mpmath as mp

from . import io as cio
from ._precision import DEFAULT_PREC, working_precision
from .cluster_core import classify as classify_cluster
from .covariant import minimize
from .errors import (
    ClusterReduceError,
    ConvergenceError,
    DegeneratePencilError,
    InputFormatError,
    RealityError,
    StabilityError,
)
from .pipelines import (
    reduce_binary_form,
    reduce_cluster,
    reduce_quadric_pencil,
    reduce_ternary_form,
)

EXIT_STABILITY = 2
EXIT_CONVERGENCE = 3
EXIT_FORMAT = 4


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(payload, as_json, report_path, text_lines):
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    if as_json:
        click.echo(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            click.echo(line)


def _emit_report(report, as_json, report_path, head=(), label="transform", tail=()):
    """Output of the reduce-* commands: the JSON report at the report's
    precision, or the text lines ``head``, the transform rows under
    ``label`` and ``tail``."""
    with working_precision(report.diagnostics["precision"]):
        payload = cio.report_to_json(report)
    rows = ["  " + "  ".join(str(v) for v in row) for row in report.transform.matrix]
    _emit(payload, as_json, report_path, [*head, f"{label}:", *rows, *tail])


def _run(fn):
    try:
        fn()
    except BrokenPipeError:
        sys.exit(0)  # downstream consumer closed the pipe; not our error
    except (StabilityError, DegeneratePencilError) as exc:
        click.echo(f"stability error: {exc}", err=True)
        sys.exit(EXIT_STABILITY)
    except ConvergenceError as exc:
        click.echo(f"convergence error: {exc}", err=True)
        sys.exit(EXIT_CONVERGENCE)
    except (InputFormatError, RealityError, json.JSONDecodeError, OSError) as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_FORMAT)
    except ClusterReduceError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


_PREC = click.IntRange(min=53)


def _common_options(prec=DEFAULT_PREC):
    """Options of the covariant and reduction commands; ``prec=None`` lets the pipeline choose."""

    def decorate(fn):
        fn = click.option("--report", "report_path", type=click.Path(), default=None, help="write a JSON report here")(fn)
        fn = click.option("--json/--text", "as_json", default=False, help="output format")(fn)
        prec_help = "working precision in bits" + ("" if prec else " (default depends on degree)")
        return click.option("--prec", type=_PREC, default=prec, show_default=bool(prec), help=prec_help)(fn)

    return decorate


class _Group(click.Group):
    """A malformed command, option or argument, of the group or of a
    subcommand, is malformed input: exit 4 with one line, not click's usage
    block and exit 2, the stability error's code. No arguments at all ask for
    the help, which exits 0."""

    def parse_args(self, ctx, args):
        if not args:
            click.echo(ctx.get_help())
            ctx.exit(0)
        return _one_line_usage_error(super().parse_args, ctx, args)

    def invoke(self, ctx):
        return _one_line_usage_error(super().invoke, ctx)


def _one_line_usage_error(fn, *args):
    try:
        return fn(*args)
    except click.UsageError as exc:
        click.echo(f"input error: {exc.format_message()}", err=True)
        sys.exit(EXIT_FORMAT)


@click.group(cls=_Group)
def main():
    """Reduction of point clusters, binary forms, quadric pencils and ternary forms."""


@main.command("classify")
@click.argument("input_path")
@click.option("--prec", type=_PREC, default=DEFAULT_PREC, show_default=True)
@click.option("--json/--text", "as_json", default=False)
def classify_cmd(input_path, prec, as_json):
    """Stability classification of a cluster (JSON file)."""

    def body():
        with working_precision(prec):
            cls = classify_cluster(cio.cluster_from_json(_read(input_path)))
        payload = {
            "schema": cio.SCHEMA,
            "is_split": cls.is_split,
            "is_semi_stable": cls.is_semi_stable,
            "is_stable": cls.is_stable,
        }
        _emit(
            payload,
            as_json,
            None,
            [
                f"split: {cls.is_split}",
                f"semi-stable: {cls.is_semi_stable}",
                f"stable: {cls.is_stable}",
            ],
        )

    _run(body)


@main.command("covariant")
@click.argument("input_path")
@_common_options()
def covariant_cmd(input_path, prec, as_json, report_path):
    """Covariant z(Z) and theta of a stable cluster (JSON file)."""

    def body():
        with working_precision(prec):
            cluster = cio.cluster_from_json(_read(input_path))
        result = minimize(cluster, prec=prec)
        with working_precision(prec):
            payload = cio.covariant_result_to_json(result)
        _emit(
            payload,
            as_json,
            report_path,
            [
                f"theta: {mp.nstr(result.theta, 12)}",
                f"iterations: {result.iterations}",
                f"gradient norm: {mp.nstr(result.final_gradient_norm, 6)}",
                "z:",
            ]
            + ["  " + "  ".join(mp.nstr(v, 12) for v in row) for row in result.z.matrix],
        )

    _run(body)


@main.command("reduce-cluster")
@click.argument("input_path")
@_common_options()
def reduce_cluster_cmd(input_path, prec, as_json, report_path):
    """LLL-reduce a conjugation-fixed stable cluster (JSON file)."""

    def body():
        with working_precision(prec):
            cluster = cio.cluster_from_json(_read(input_path))
        report = reduce_cluster(cluster, prec=prec)
        _emit_report(
            report, as_json, report_path, tail=["reduced cluster:"] + ["  " + repr(p) for p in report.reduced.points]
        )

    _run(body)


@main.command("reduce-binary")
@click.argument("input_path")
@_common_options()
def reduce_binary_cmd(input_path, prec, as_json, report_path):
    """Reduce a binary form (text or JSON polynomial file)."""

    def body():
        F = cio.poly_from_any(_read(input_path), nvars=2)
        report = reduce_binary_form(F, prec=prec)
        _emit_report(report, as_json, report_path, [f"reduced form: {report.reduced.to_text()}"])

    _run(body)


@main.command("reduce-pencil")
@click.argument("input_path")
@_common_options()
def reduce_pencil_cmd(input_path, prec, as_json, report_path):
    """Reduce a pencil of two ternary quadrics.

    Input: JSON object {"q1": <poly>, "q2": <poly>} where <poly> is either a
    polynomial JSON object or a sparse text string, or a text file with one
    quadric per line.
    """

    def body():
        text = _read(input_path).strip()
        if text.startswith("{"):
            data = json.loads(text)
            if "q1" not in data or "q2" not in data:
                raise InputFormatError("pencil JSON needs fields 'q1' and 'q2'")
            Q1, Q2 = (
                cio.poly_from_json(q) if isinstance(q, dict) else cio.poly_from_any(str(q), nvars=3)
                for q in (data["q1"], data["q2"])
            )
        else:
            lines = [ln for ln in text.splitlines() if ln.strip()]
            if len(lines) != 2:
                raise InputFormatError("pencil text input needs exactly two lines")
            Q1 = cio.poly_from_any(lines[0], nvars=3)
            Q2 = cio.poly_from_any(lines[1], nvars=3)
        report = reduce_quadric_pencil(Q1, Q2, prec=prec)
        _emit_report(
            report,
            as_json,
            report_path,
            [
                f"reduced q1: {report.reduced[0].to_text()}",
                f"reduced q2: {report.reduced[1].to_text()}",
                "pencil transform: " + str([list(r) for r in report.pencil_transform]),
            ],
            label="coordinate transform",
        )

    _run(body)


@main.command("reduce-ternary")
@click.argument("input_path")
@_common_options(prec=None)
def reduce_ternary_cmd(input_path, prec, as_json, report_path):
    """Reduce an irreducible ternary form via its inflection cluster."""

    def body():
        F = cio.poly_from_any(_read(input_path), nvars=3)
        report = reduce_ternary_form(F, prec=prec)
        _emit_report(report, as_json, report_path, [f"reduced form: {report.reduced.to_text()}"])

    _run(body)


if __name__ == "__main__":
    main()
