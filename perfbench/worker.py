"""One workload process: import the program, run whole rounds, time each object.

Run by ``run.py`` in a fresh single-threaded interpreter; it receives only
the generated inputs and writes the outputs, the corrected timings and (when
tracing) the spans to a JSON file. The process start is the first line of
this file, so set-up time covers the imports of ``cluster_reduce``, sympy and
mpmath and the reading of the inputs.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from calib import Calibrator  # noqa: E402

SETUP_INTERVAL_S = 0.05  # calibration period while importing (set-up is short)
RUN_INTERVAL_S = 0.25  # calibration period during the timed phase
CLUSTER_PREC = 212  # the command line's default precision
DIGITS = 130  # decimal digits kept when serializing (covers 424 bits)


def _nstr(mp, x):
    return mp.nstr(x, DIGITS, strip_zeros=False)


def _matrix(mp, rows):
    return [[_nstr(mp, v) for v in row] for row in rows]


def _points(mp, cluster):
    return [[[_nstr(mp, mp.re(c)), _nstr(mp, mp.im(c))] for c in p.coords] for p in cluster.points]


def _report(mp, report):
    """The parts of a ReductionReport that the checks need, as plain data."""
    out = {
        "transform": [list(r) for r in report.transform.matrix],
        "covariant": _matrix(mp, report.covariant.matrix),
        "reduced_gram": _matrix(mp, report.reduced_gram.matrix),
        "precision": report.diagnostics["precision"],
    }
    if report.kind == "cluster":
        out["reduced"] = _points(mp, report.reduced)
    else:
        out["reduced"] = [[list(e), str(c)] for e, c in report.reduced.terms]
        out["inflection_cluster"] = _points(mp, report.extras["inflection_cluster"])
    return out


class Program:
    """The calls each operation makes, as a user of the library makes them."""

    def __init__(self):
        import mpmath
        import cluster_reduce
        from cluster_reduce import io as cio

        self.mp = mpmath
        self.cr = cluster_reduce
        self.cio = cio

    def _cluster(self, points):
        mp, cr = self.mp, self.cr
        return cr.PointCluster(
            tuple(cr.ProjectivePoint(tuple(mp.mpc(int(a), int(b)) for a, b in p)) for p in points)
        )

    def quartic(self, op):
        F = self.cr.MultiPoly.from_dict(3, {tuple(t["exp"]): int(t["coeff"]) for t in op["form"]["terms"]})
        return self.cr.reduce_ternary_form(F, seed=op["shear_seed"])

    def pencil(self, op):
        # as `cluster-reduce reduce-pencil --json` does: JSON in, JSON out
        cio = self.cio
        Q1 = cio.poly_from_json(op["pencil"]["q1"])
        Q2 = cio.poly_from_json(op["pencil"]["q2"])
        report = self.cr.reduce_quadric_pencil(Q1, Q2, prec=CLUSTER_PREC)
        with self.mp.workprec(CLUSTER_PREC):
            return json.dumps(cio.report_to_json(report))

    def reduce(self, op):
        return self.cr.reduce_cluster(self._cluster(op["points"]), prec=CLUSTER_PREC)

    def classify(self, op):
        with self.mp.workprec(CLUSTER_PREC):
            return self.cr.classify(self._cluster(op["points"]))

    def plain(self, op, result):
        """Program result as plain data, made outside the timed interval."""
        if op["op"] == "pencil":
            return json.loads(result)
        if op["op"] == "classify":
            return {k: getattr(result, k) for k in ("is_split", "is_semi_stable", "is_stable")}
        return _report(self.mp, result)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cal = Calibrator()
    cal.start(SETUP_INTERVAL_S)
    sys.path.insert(0, args.src)
    program = Program()
    with open(args.inputs, encoding="utf-8") as fh:
        ops = json.load(fh)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        cal.on_kernel = tracer.on_kernel
    setup_end = cal.mark()
    result = {"setup_s": cal.corrected((PROCESS_START, 0.0, 0), setup_end)}
    if args.setup_only:
        cal.stop()
        _write(args.out, result)
        return 0

    cal.start(RUN_INTERVAL_S)
    phase = cal.mark()
    marks, outputs, errors = [], [], []
    rounds = 0
    while True:
        for i, op in enumerate(ops):
            run = getattr(program, op["op"])
            start = cal.mark()
            try:
                if tracer is None:
                    value = run(op)
                else:
                    with tracer.span("object"):
                        value = run(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                end = cal.mark()
                value = None
                errors.append({"index": i, "round": rounds, "kind": "raised", "error": f"{type(exc).__name__}: {exc}"})
            else:
                end = cal.mark()
            marks.append((start, end))
            plain = None if value is None else program.plain(op, value)
            if rounds == 0:
                outputs.append(plain)
            elif plain != outputs[i]:
                errors.append({"index": i, "round": rounds, "kind": "differs", "error": "output differs from round 0"})
        rounds += 1
        if marks[-1][1][0] - phase[0] >= args.seconds:
            break
    cal.stop()
    factor = cal.factor(phase[2])
    result.update(
        {
            "rounds": rounds,
            "object_s": [((e[0] - s[0]) - (e[1] - s[1])) * factor for s, e in marks],
            "raw_object_s": [e[0] - s[0] for s, e in marks],
            "speed_factor": factor,
            "kernel_samples": len(cal.samples) - phase[2],
            "outputs": outputs,
            "errors": errors,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    if tracer is not None:
        result["trace"] = {
            "summary": {k: [c, s * factor] for k, (c, s) in tracer.summary().items()},
            "counts": tracer.counts,
            "spans": tracer.spans,
        }
    _write(args.out, result)
    return 0


def _write(path, data):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
