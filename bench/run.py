"""symplap benchmark: one workload, fresh processes, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload back to back until ``--seconds`` is used up
(at least once) and reports the end-to-end metrics.  ``--trace 1`` reports
the per-layer metrics from three passes, each in a fresh process like a timed
run: an untraced pass, a traced pass and a tracemalloc pass.  Human-readable
lines come first; the last line of standard output is the JSON result.  Each
run also appends a full record (metrics, stage times, gates, versions) to
``bench/results/runs.jsonl``, which ``bench/diff.py`` compares.  Workloads are
described in README.md.
"""

import os

# one BLAS thread: pinned before numpy is imported anywhere in this process
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "plain", "traced", "alloc"),
                    help="internal: run one pass of this kind and print it as JSON")
    return ap.parse_args(argv)


def _child(args, kind: str):
    """Run ``--child kind`` in a fresh process; (spawn time, its JSON result)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                           "--seed", str(args.seed), "--child", kind],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return start, json.loads(proc.stdout.splitlines()[-1])


def _metadata(args, workload) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": workload.params,
    }


def _timed_pass(workload, inputs) -> dict:
    t0 = time.perf_counter()
    outcome = workload.run(inputs, RESULTS)
    return {"wall_s": time.perf_counter() - t0, "stages": outcome.stages,
            "attempted": outcome.attempted, "failed": outcome.failed, "gates": outcome.gates}


def _run_child(args, workload):
    """One pass of the kind ``args.child`` asks for, in this fresh process."""
    if args.child == "setup":
        workload.make_inputs(args.seed)
        return time.monotonic()
    if args.child == "plain":
        return _timed_pass(workload, workload.make_inputs(args.seed))
    import tracing

    if args.child == "traced":
        tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}")
        with tracing.patched(tracer.replacements()):
            result = _timed_pass(workload, workload.make_inputs(args.seed))
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")
        return dict(result, metrics=tracer.layer_metrics())
    import tracemalloc

    peaks = {f"{stage}.peak_alloc_mb": 0.0 for stage, _, _ in tracing.ALLOC_STAGES}
    inputs = workload.make_inputs(args.seed)
    tracemalloc.start()
    try:
        with tracing.patched(tracing.alloc_peaks(peaks)):
            result = _timed_pass(workload, inputs)
    finally:
        tracemalloc.stop()
    return dict(result, metrics=peaks)


def _probe_setup(args) -> float:
    start, ready = _child(args, "setup")
    return ready - start


def _run_timed(args, workload):
    # half the set-up probes run before the passes and half after, so that
    # their median spans two moments of the machine's load
    setups = [_probe_setup(args) for _ in range(SETUP_PROBES // 2)]
    inputs = workload.make_inputs(args.seed)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_timed_pass(workload, inputs))
        walls = [p["wall_s"] for p in passes]
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    setups += [_probe_setup(args) for _ in range(SETUP_PROBES - len(setups))]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, END_TO_END, passes, {"setup_s": setups}


def _run_traced(args):
    import tracing

    plain, traced, alloc = (_child(args, kind)[1] for kind in ("plain", "traced", "alloc"))
    metrics = dict(traced.pop("metrics"), **alloc.pop("metrics"))
    for stage in ("solve_s", "analyze_s", "verify_s"):
        metrics[stage] = plain["stages"].get(stage, 0.0)
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return metrics, units, [plain], {"traced": traced, "alloc": alloc}


def main(argv=None) -> int:
    if not (SRC / "symplap" / "__init__.py").is_file():
        print(f"error: symplap sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = _parse(argv, list(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]()
    RESULTS.mkdir(exist_ok=True)
    if args.child:
        print(json.dumps(_run_child(args, workload)))
        return 0

    if args.trace:
        metrics, units, passes, extra = _run_traced(args)
    else:
        metrics, units, passes, extra = _run_timed(args, workload)
    # the traced and tracemalloc passes are checked like any other
    checked = passes + [extra[k] for k in ("traced", "alloc") if k in extra]
    attempted = sum(p["attempted"] for p in checked)
    failed = sum(p["failed"] for p in checked)
    gates = {}
    for p in checked:
        for name, ok in p["gates"].items():
            passed, total = gates.get(name, (0, 0))
            gates[name] = (passed + ok, total + 1)
    correct = failed == 0 and attempted > 0

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(checked)} pass(es), {len(passes)} untraced")
    for name, (passed, total) in gates.items():
        print(f"  gate {name}: {passed}/{total}{'' if passed == total else '  FAILED'}")
    print(f"  fail_frac = {failed / max(attempted, 1):.6g} ({failed} failed of {attempted} attempted)")
    stages = {k: statistics.median(p["stages"][k] for p in passes)
              for k in ("solve_s", "io_s", "analyze_s", "verify_s") if k in passes[0]["stages"]}
    for name, value in stages.items():
        print(f"  {name} = {value:.6g} s (median of untraced passes)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "correct": correct, "attempted": attempted, "failed": failed,
              "fail_frac": failed / max(attempted, 1), "gates": gates,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "stages": stages, "passes": passes, **extra, "meta": _metadata(args, workload)}
    with open(RESULTS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
