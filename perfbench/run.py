"""Benchmark of cluster-reduce: three workloads, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload quartic|pencils|clusters --seed N \\
        --seconds S --trace 0|1

The inputs are made from the seed (``gen.py``), the program runs in fresh
single-threaded processes (``worker.py``), and every output is checked apart
from the program (``checks.py``). The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Result and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import checks
from gen import INPUTS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3  # set-up is measured in this many fresh processes
DEADLINE_S = 170  # the whole run, checks included, ends within this

# per-layer metrics: function name -> reported quantities
LAYER_FUNCTIONS = {
    "aberth_roots": ("calls", "self_s"),
    "curve_intersection": ("calls", "self_s"),
    "univariate_roots": ("self_s",),
    "binary_form_roots": ("self_s",),
    "resultant": ("calls", "self_s"),
    "hessian": ("self_s",),
    "pencil_cubic": ("self_s",),
    "substitute": ("calls", "self_s"),
    "classify": ("calls", "self_s"),
    "rank_of": ("calls", "self_s"),
    "minimize": ("calls", "self_s"),
    "simplex_covariant": ("calls", "self_s"),
    "lll_reduce": ("calls", "self_s"),
}
LAYER_COUNTERS = ("aberth_roots.degree", "curve_intersection.attempts", "minimize.iterations")


def _worker_env():
    # a fixed string hash seed makes set and dict order inside sympy, and so
    # the work it does, the same in every process
    return dict(os.environ, PYTHONHASHSEED="0")


def _run_worker(args, out_path, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC, "--out", out_path] + args
    try:
        proc = subprocess.run(
            cmd, env=_worker_env(), cwd=ROOT, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise SystemExit("workload process did not finish before the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def _per_layer(trace, objects, traced_wall):
    summary, counts = trace["summary"], trace["counts"]

    def total(pick):
        calls = sum(c for name, (c, _) in summary.items() if pick(name))
        self_s = sum(s for name, (_, s) in summary.items() if pick(name))
        return calls, self_s

    metrics = {}
    for fn, kinds in LAYER_FUNCTIONS.items():
        calls, self_s = total(lambda name, fn=fn: name.rpartition(".")[2] == fn)
        if "calls" in kinds:
            metrics[f"{fn}.calls"] = (calls / objects, "count")
        if "self_s" in kinds:
            metrics[f"{fn}.self_s"] = (self_s / objects, "s")
    for name in LAYER_COUNTERS:
        metrics[name] = (counts.get(name, 0) / objects, "count")
    metrics["io.self_s"] = (total(lambda name: name.startswith("io."))[1] / objects, "s")
    metrics["pipeline.self_s"] = (
        total(lambda name: name.startswith("pipelines.reduce_"))[1] / objects,
        "s",
    )
    program_self = total(lambda name: name != "object")[1]
    metrics["traced.objects_per_s"] = (objects / traced_wall, "1/s")
    metrics["traced.wall_s"] = (traced_wall / objects, "s")
    metrics["traced.self_total_s"] = (program_self / objects, "s")
    return metrics, program_self <= traced_wall


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(INPUTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "cluster_reduce", "__init__.py")):
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    ops = INPUTS[args.workload](args.seed)
    inputs_path = os.path.join(OUT, f"inputs-{tag}.json")
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump(ops, fh)

    worker_out = os.path.join(OUT, f"worker-{tag}-trace{args.trace}.json")
    common = ["--inputs", inputs_path]
    generated = time.monotonic()
    setups = [
        _run_worker(common + ["--setup-only"], worker_out, deadline)["setup_s"]
        for _ in range(SETUP_REPEATS - 1)
    ]
    set_up = time.monotonic()
    run = _run_worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], worker_out, deadline
    )
    ran = time.monotonic()
    setups.append(run["setup_s"])

    # every output of round 0 is checked; later rounds must repeat it exactly
    problems = []
    failed_cells = {(e["round"], e["index"]) for e in run["errors"]}
    for e in run["errors"]:
        print(f"failed: round {e['round']} object {e['index']}: {e['error']}")
        if e["kind"] != "raised":
            problems.append(e["error"])
    heights = []
    self_tested = set()
    for i, (op, out) in enumerate(zip(ops, run["outputs"])):
        if out is None:
            continue
        failures = checks.check(op, out)
        if failures:
            failed_cells |= {(r, i) for r in range(run["rounds"])}
            problems.append(f"object {i} ({op['op']}) fails {failures}")
            continue
        h = checks.height(op, out)
        if h is not None:
            heights.append(h)
        if op["op"] not in self_tested:
            self_tested.add(op["op"])
            for corruption, check, rejected in checks.self_test(op, out):
                if not rejected:
                    problems.append(f"self-test: check {check} accepted {corruption}")
    for p in problems:
        print(p)
    correct = not problems
    checked = time.monotonic()
    print(
        f"phases: inputs {generated - started:.1f} s, set-up processes {set_up - generated:.1f} s, "
        f"workload process {ran - set_up:.1f} s, checks {checked - ran:.1f} s"
    )

    times = run["object_s"]
    wall = sum(times)
    if args.trace:
        layer, consistent = _per_layer(run["trace"], len(times), wall)
        if not consistent:
            correct = False
            print("span self times add up to more than the traced wall time")
        metrics = layer
        with open(os.path.join(OUT, f"spans-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(run["trace"], fh)
        untraced = os.path.join(OUT, f"result-{tag}-trace0.json")
        if os.path.exists(untraced):
            with open(untraced, encoding="utf-8") as fh:
                base = json.load(fh)["result"]["metrics"]["objects_per_s"]["value"]
            traced = len(times) / wall
            print(f"tracing overhead: {base:.5g} -> {traced:.5g} objects/s ({100 * (1 - traced / base):.1f}%)")
    else:
        metrics = {
            "objects_per_s": (len(times) / wall, "1/s"),
            "object_s_gmean": (math.exp(statistics.fmean(math.log(t) for t in times)), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "reduced_height_bits": (sum(h.bit_length() for h in heights), "bits"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(
        f"{args.workload} seed {args.seed}: {len(times)} objects in {run['rounds']} round(s), "
        f"raw {sum(run['raw_object_s']):.3f} s, speed factor {run['speed_factor']:.4f}, "
        f"{run['kernel_samples']} calibration samples"
    )
    result = {
        "correct": correct,
        "attempted": len(times),
        "failed": len(failed_cells),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "result": result,
        "object_s": times,
        "raw_object_s": run["raw_object_s"],
        "setup_s": setups,
        "speed_factor": run["speed_factor"],
        "rounds": run["rounds"],
    }
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
