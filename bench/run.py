#!/usr/bin/env python3
"""robustcounter benchmark: one workload per run, fixed work per pass.

    python3 bench/run.py --workload hk_sweep --seed 1 --seconds 45 --trace 0

A run sets the workload up, then repeats whole passes over the workload's
fixed list of operations until ``--seconds`` have gone by (at least one
pass), checks the first pass's outputs against the oracles in
``oracles.py`` and checks that every later pass gave the same outputs.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh processes, each timed from its start to the point where it
could run its first operation), ``pass_s`` (mean pass wall time),
``op_p50_s`` (median operation time within a pass, mean over passes) and
``peak_rss_mb`` (peak resident memory when the timed passes end, before
any oracle work).  Means over the run's passes, because the host's speed
flips between two states for tens of seconds at a time: a mean weights
them by time where the median of a few passes picks one.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of the traced ones, plus the
tracing overhead.  Details of each run go to ``bench/out/``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# must be set before numpy loads: multi-threaded BLAS on the solver's small
# dense tableaux burns 1.5x the wall time in user time on 2 cores
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_PROBES = 5
WORKLOADS = ("hk_sweep", "gen_milp", "certify")

sys.path.insert(0, str(SRC))


def _import_program():
    """Import robustcounter from this checkout's ``src`` or stop."""
    try:
        import robustcounter
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import robustcounter from {SRC}: {exc}")
    if Path(robustcounter.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: robustcounter comes from {robustcounter.__file__}, "
                         f"not from {SRC}")
    if not (ROOT / "demos" / "data" / "hk_demo").is_dir():
        raise SystemExit("bench: demos/data/hk_demo is missing")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _setup_probe(args):
    """Child process: set the workload up, then print the clock."""
    _import_program()
    import workloads
    workloads.SETUPS[args.workload](ROOT, args.seed)
    print(repr(time.monotonic()))


def _measure_setup(args) -> list[float]:
    """Set-up time of fresh processes, from spawn to ready.

    ``time.monotonic`` reads the system-wide CLOCK_MONOTONIC, so the
    child's clock reading and the parent's spawn time compare directly.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def _environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def _fingerprint(rec) -> tuple:
    if "error" in rec:
        return (rec["error"],)
    corner, mc = rec.get("corner"), rec.get("mc")
    return (rec["status"], rec["objective"], rec["nodes"], rec["lp_iters"],
            rec["cone_cuts"],
            None if corner is None else (corner.certified,
                                         tuple(sorted(corner.worst_violation.items()))),
            None if mc is None else (mc.violations, mc.frequency))


def _solver_counts(records) -> dict:
    recs = [r for r in records.values() if "error" not in r]
    bnb = [r for r in recs if r["nodes"] > 0]
    nodes = sum(r["nodes"] for r in recs)
    return {
        "solver.nodes": nodes,
        "solver.lp_iters": sum(r["lp_iters"] for r in recs),
        "solver.iters_per_node": (sum(r["lp_iters"] for r in bnb) / nodes
                                  if nodes else 0.0),
        "solver.cone_cuts": sum(r["cone_cuts"] for r in recs),
    }


def _run_passes(wl, seconds, tracer):
    """Whole passes until ``seconds`` have gone by; with a tracer, untraced
    and traced passes alternate and at least one of each runs."""
    passes = []
    start = time.monotonic()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        first_span = len(tracer.spans) if traced else 0
        if traced:
            tracer.install()
        records, op_times = {}, []
        t0 = time.perf_counter()
        for op in wl.ops:
            if traced:
                tracer.op = op.key
            t = time.perf_counter()
            try:
                records[op.key] = op.run()
            except Exception as exc:  # counted as a failed operation
                records[op.key] = {"error": f"{type(exc).__name__}: {exc}"}
            op_times.append(time.perf_counter() - t)
        pass_s = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        passes.append({
            "traced": traced,
            "pass_s": pass_s,
            "op_times": dict(zip((op.key for op in wl.ops), op_times)),
            "op_p50_s": statistics.median(op_times),
            # full records of the first pass feed the oracles; later passes
            # keep only what must repeat
            "records": records if not passes else None,
            "fingerprints": {k: _fingerprint(r) for k, r in records.items()},
            "counts": _solver_counts(records),
            "spans": range(first_span, len(tracer.spans)) if traced else None,
        })
        done = time.monotonic() - start >= seconds
        if done and (tracer is None or len(passes) >= 2):
            return passes


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    _import_program()
    import workloads
    import tracing

    env = _environment()
    print("env " + json.dumps(env), flush=True)
    setup_samples = [] if args.trace else _measure_setup(args)

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl = workloads.SETUPS[args.workload](ROOT, args.seed)
    if tracer:
        tracer.uninstall()
    passes = _run_passes(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks
    records = passes[0]["records"]
    errors = {k: r["error"] for k, r in records.items() if "error" in r}
    if errors:
        results = {k: checks.Result(k not in errors, errors.get(k, ""))
                   for k in records}
        problems = ["oracle checks skipped: operations raised"]
    else:
        results, problems = checks.CHECKS[args.workload](wl, records)
    first = passes[0]["fingerprints"]
    for i, p in enumerate(passes[1:], start=1):
        for key, fp in p["fingerprints"].items():
            if fp != first[key]:
                problems.append(f"pass {i} gave other outputs for {key}")
    failed_ops = sorted(k for k, r in results.items() if not r.ok)
    unexpected = [k for k in failed_ops if not results[k].expected]
    for key in failed_ops:
        kind = "failed (known fault)" if results[key].expected else "FAILED"
        print(f"{kind} {key}: {results[key].message}")
    for problem in problems:
        print(f"FAILED {problem}")

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        untraced = [p for p in passes if not p["traced"]]
        layer = tracing.median_metrics(
            [tracing.layer_metrics(tracer.spans, p["spans"]) for p in traced])
        layer.update(traced[0]["counts"])
        layer["sitesel.load_s"] = math.fsum(
            s[tracing.END] - s[tracing.START] for s in tracer.spans
            if s[tracing.OP] == "setup" and s[tracing.NAME] == "load_instance")
        layer["trace.overhead_s"] = (statistics.mean(p["pass_s"] for p in traced)
                                     - statistics.mean(p["pass_s"] for p in untraced))
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in sorted(layer.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "pass_s": {"value": statistics.mean(p["pass_s"] for p in passes),
                       "unit": "s"},
            "op_p50_s": {"value": statistics.mean(p["op_p50_s"] for p in passes),
                         "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print("counts " + json.dumps(passes[0]["counts"]))

    result = {
        "correct": not unexpected and not problems,
        "attempted": len(wl.ops) * len(passes),
        "failed": len(failed_ops) * len(passes),
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({
            "args": vars(args), "env": env, "setup_samples": setup_samples,
            "passes": [{k: p[k] for k in ("traced", "pass_s", "op_p50_s",
                                          "op_times", "counts")} for p in passes],
            "failures": {k: results[k].message for k in failed_ops},
            "problems": problems, "result": result,
        }, fh, indent=1)
    if tracer:
        tracer.write(OUT / f"{stem}-spans.jsonl")
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
