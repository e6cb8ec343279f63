#!/usr/bin/env python3
"""Benchmark of superteich: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload {lift,ptolemy,spin} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
./src.  A single caller starts the next op when the last one returns, for
S seconds of wall time; every op's outputs are checked, outside the op's
timed interval.  With --trace 0 the end-to-end metrics are printed, with
--trace 1 the per-layer metrics from spans (see tracing.py).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Results and traces are also written under
perfbench/out/.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# numerical libraries must use one thread; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# cold starts per run whose median is setup_s: this process and two probes
SETUP_SAMPLES = 3
# distinct inputs made from the seed; ops take them in order, cycling
POOL = 96
# the untimed warm-up op runs on an input made from this fixed seed, so that
# set-up time does not depend on how costly the run's first input is
WARMUP_SEED = 0

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name, statistic, unit); per op unless stated
PER_LAYER = {
    "kernel.product.calls": ("kernel.product", "calls", "count/op"),
    "kernel.product.self_ms": ("kernel.product", "self_ms", "ms/op"),
    "kernel.product.nonzero_pairs": ("kernel.product", "pairs", "pairs/product"),
    "grassmann.series.self_ms": ("grassmann.series", "self_ms", "ms/op"),
    "superlinalg.smul.calls": ("superlinalg.smul", "calls", "count/op"),
    "superlinalg.smul.self_ms": ("superlinalg.smul", "self_ms", "ms/op"),
    "minkowski.act.calls": ("minkowski.act", "calls", "count/op"),
    "minkowski.act.self_ms": ("minkowski.act", "self_ms", "ms/op"),
    "minkowski.normalize_triple.calls": ("minkowski.normalize_triple", "calls", "count/op"),
    "minkowski.normalize_triple.self_ms": ("minkowski.normalize_triple", "self_ms", "ms/op"),
    "minkowski.mu_invariant.self_ms": ("minkowski.mu_invariant", "self_ms", "ms/op"),
    "minkowski.basic_calculation.self_ms": ("minkowski.basic_calculation", "self_ms", "ms/op"),
    "decorated.lift.self_ms": ("decorated.lift", "self_ms", "ms/op"),
    "fatgraph_spin.flip.calls": ("fatgraph_spin.flip", "calls", "count/op"),
    "fatgraph_spin.flip.self_ms": ("fatgraph_spin.flip", "self_ms", "ms/op"),
    "fatgraph_spin.orientation_classes.calls": (
        "fatgraph_spin.orientation_classes", "calls", "count/op"),
    "fatgraph_spin.orientation_classes.self_ms": (
        "fatgraph_spin.orientation_classes", "self_ms", "ms/op"),
    "fatgraph_spin.quadratic_form.self_ms": ("fatgraph_spin.quadratic_form", "self_ms", "ms/op"),
    "trace.ops_per_s": ("op", "ops_per_s", "1/s"),
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("lift", "ptolemy", "spin"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one cold start only, reporting its set-up time
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_benchmark():
    """Import the library from ./src of this checkout, and the workloads."""
    if not os.path.isfile(os.path.join(SRC, "superteich", "__init__.py")):
        sys.exit("perfbench: no superteich package under %s; run from a source checkout" % SRC)
    sys.path.insert(0, SRC)
    import superteich

    if os.path.dirname(os.path.dirname(os.path.abspath(superteich.__file__))) != SRC:
        sys.exit("perfbench: imported superteich from %s, not %s" % (superteich.__file__, SRC))
    import workloads

    return workloads


def _probe_setup(args):
    """Set-up time of one more cold start of this benchmark, in a child."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-probe",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % done.stderr.strip()[-500:])
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = _parse_args(argv)
    wl = _import_benchmark()
    import numpy as np

    workload = wl.WORKLOADS[args.workload]
    inputs = workload.make_inputs(np.random.default_rng(args.seed), POOL)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    wrong, errors = [], []  # failed checks; ops that raised
    warm_input = workload.make_inputs(np.random.default_rng(WARMUP_SEED), 1)[0]
    warm = workload.op(warm_input)
    setup_s = time.perf_counter() - _START
    try:
        workload.check(warm_input, warm)
    except Exception as exc:  # any exception in a check is a wrong output
        wrong.append("warm-up: %r" % (exc,))
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0 if not wrong else 1
    del warm

    durations, attempted, failed = [], 0, 0
    begin = time.perf_counter()
    while time.perf_counter() - begin < args.seconds:
        inp = inputs[attempted % len(inputs)]
        op_id = attempted
        attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = workload.op(inp)
                dt = time.perf_counter() - t0
            else:
                out, dt = tracer.run_op(op_id, workload.op, inp)
        except Exception as exc:  # an op that raises counts as failed
            failed += 1
            errors.append("op %d raised %r" % (op_id, exc))
            continue
        durations.append(dt)
        try:
            workload.check(inp, out)
        except Exception as exc:  # any exception in a check is a wrong output
            wrong.append("op %d: %r" % (op_id, exc))

    metrics = {}
    if tracer is None:
        samples = [setup_s] + [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics["ops_per_s"] = len(durations) / sum(durations) if durations else 0.0
        metrics["op_p50_ms"] = 1e3 * statistics.median(durations) if durations else 0.0
        metrics["setup_s"] = statistics.median(samples)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: _metric(metrics[k], END_TO_END[k]) for k in END_TO_END}
    else:
        tracer.uninstall()
        totals = tracer.layer_totals()
        ops = max(1, len(durations))
        for key, (span, stat, unit) in PER_LAYER.items():
            calls, self_s = totals[span]
            if stat == "calls":
                value = calls / ops
            elif stat == "self_ms":
                value = 1e3 * self_s / ops
            elif stat == "pairs":
                value = tracer.nonzero_pairs / calls if calls else 0.0
            else:
                value = len(durations) / sum(durations) if durations else 0.0
            metrics[key] = _metric(value, unit)

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, "result-%s.json" % stem), "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed, wrong=wrong, errors=errors), fh, indent=1)
    if tracer is not None:
        tracer.write(
            os.path.join(OUT_DIR, "trace-%s.json" % stem),
            {"workload": args.workload, "seed": args.seed},
        )
    for problem in wrong + errors:
        print("perfbench: %s" % problem, file=sys.stderr)
    print("%s seed %d: %d ops attempted, %d failed, %s" % (
        args.workload, args.seed, attempted, failed,
        "outputs correct" if result["correct"] else "WRONG OUTPUTS"))
    for key, m in metrics.items():
        print("  %-44s %14.6g %s" % (key, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
