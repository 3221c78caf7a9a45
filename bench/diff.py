"""Compare two benchmark result files metric by metric.

    python3 bench/diff.py BASE.jsonl NEW.jsonl

Both files hold the records ``bench/run.py`` appends to
``bench/results/runs.jsonl`` (for instance one from the parent commit's
checkout and one from the change's).  For every metric there is one row per
workload: the median and quartiles of each side, the change of the medians,
and, for the end-to-end metrics, a verdict against the bound in
``BENCHMARK.json``:

``worse``       the new median is worse than the base median by more than the bound;
``unresolved``  the run-to-run spread (q3 - q1) / median of either side is wider
                than the bound, and the new runs neither all beat nor all lose
                to the base runs;
``better``      such a spread, but every new run beats every base run;
``ok``          within the bound.

Per-layer metrics come from traced runs and have no bound, so their rows carry
no verdict.  The exit status is 1 when any end-to-end metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """{(trace, workload, metric): [values]} from a runs.jsonl file."""
    out = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, metric in rec["metrics"].items():
                    out[(rec["trace"], rec["workload"], name)].append(metric["value"])
    return out


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_base, med_new = quartiles(base)[1], quartiles(new)[1]
    worse_by = sign * (med_new - med_base) / abs(med_base) if med_base else 0.0
    if max(spread(base), spread(new)) > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "better"
        if all(sign * n > sign * b for n in new for b in base):
            return "worse"
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def _fmt(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], int]:
    lines, n_worse = [], 0
    sections = [(0, m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    sections += [(1, m["name"], m["unit"], m["better"], None) for m in spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    for trace, name, unit, better, bound in sections:
        rows = []
        for wl in workloads:
            b, n = base.get((trace, wl, name)), new.get((trace, wl, name))
            if not b or not n or (trace and not any(b) and not any(n)):
                continue
            med_b, med_n = quartiles(b)[1], quartiles(n)[1]
            change = f"{(med_n - med_b) / abs(med_b):+.2%}" if med_b else "n/a"
            tag = "-" if bound is None else verdict(b, n, better, bound)
            n_worse += tag == "worse"
            rows.append(f"  {wl:<15} base {_fmt(b):<42} new {_fmt(n):<42} {change:>9}  {tag}")
        if rows:
            limit = "no bound" if bound is None else f"bound {bound:.0%}"
            lines.append(f"{name} ({unit}, {better} is better, {limit})")
            lines.extend(rows)
    return lines, n_worse


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare two benchmark result files.")
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=str(BENCHMARK_JSON),
                    help="BENCHMARK.json with the metric bounds (default: the repository's)")
    args = ap.parse_args(argv)
    with open(args.benchmark) as fh:
        spec = json.load(fh)
    lines, n_worse = compare(load(args.base), load(args.new), spec)
    print("\n".join(lines) if lines else "no metric present in both files")
    return 1 if n_worse else 0


if __name__ == "__main__":
    sys.exit(main())
