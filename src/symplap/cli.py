"""Batch front-end: solve, analyze, exponent sweeps, inequality verification.

Experiments are described by INI-style config files (one section per
subcommand) so runs are diffable and archivable; outputs are CSV and
two-column plot-data files with fixed headers.  The CLI parses the config
and checks only what the library does not: the config syntax, list shapes,
the trajectory path, the finite ``delta`` of ``analyze``, and its radii
before the sweep.  Every other parameter rule lives in the library function
that consumes the parameter.  All checks run before any file is written,
and identical config plus seed yields byte-identical outputs.

Exit codes: 0 success, 1 validation error, 2 computation failure,
3 assertion failure (an inequality or frozen-baseline violation).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from pathlib import Path


from . import baselines
from . import exponent_engine as ee
from . import inequalities as iq
from . import pde_solver as ps
from . import regularity_analyzer as ra
from . import verify as vf
from .corpus import build_corpus
from .errors import SolverFailureError, UnreachableTargetError, require_finite
from .tensor_models import ModelParams

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPUTATION = 2
EXIT_ASSERTION = 3


class ValidationFailure(Exception):
    pass


def _load_config(path: str, section: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ValidationFailure(f"config file not found: {path}")
    if section not in parser:
        raise ValidationFailure(f"config is missing a [{section}] section")
    return dict(parser[section])


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def run_solve(cfg: dict, out_dir: Path, seed: int | None) -> int:
    seed = 0 if seed is None else seed
    model = ModelParams(p=float(cfg.get("p", 2.0)), mu=float(cfg.get("mu", 1.0)),
                        model=cfg.get("model", "A2"))
    grid = ps.TorusGrid(int(cfg.get("n", 32)))
    dt = float(cfg.get("dt", 1e-3))
    t_final = float(cfg.get("t_final", 0.1))
    ic = cfg.get("ic", "eigenfield")
    u0 = ps.initial_condition(ic, grid, seed=seed, cutoff=int(cfg.get("cutoff", 3)),
                              amplitude=float(cfg.get("amplitude", 1.0)))
    traj_path = out_dir / "trajectory.bin"
    try:  # solve checks u0 before its first step; --out is made only after that
        traj = ps.solve(u0, t_final, dt, model, meta={"ic": ic, "seed": seed})
    except SolverFailureError as exc:  # solve attaches the steps before the failure
        out_dir.mkdir(parents=True, exist_ok=True)
        ps.save_trajectory(exc.partial, traj_path)
        print(f"solver failure at step {exc.step_index}: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    out_dir.mkdir(parents=True, exist_ok=True)
    ps.save_trajectory(traj, traj_path)
    rows = []
    for k, diag in enumerate(traj.diagnostics):
        rows.append([k + 1, diag.newton_iterations, diag.cg_iterations,
                     repr(float(diag.residual)), repr(float(diag.energy))])
    _write_csv(out_dir / "diagnostics.csv",
               ["step", "newton_iterations", "cg_iterations", "residual", "energy"], rows)
    print(f"wrote {traj_path} ({traj.n_steps} steps) and diagnostics.csv")
    return EXIT_OK


def run_exponents(cfg: dict, out_dir: Path, seed: int) -> int:
    p_values = _floats(cfg.get("p_values", "2, 2.5, 3, 4"))
    d_values = _floats(cfg.get("d_values", "2, 3"))
    targets = _floats(cfg.get("targets", "0.4"))
    # ee.classify checks each (p, d) pair and ee.iterate each target at each
    # pair, so neither list may be empty
    if not p_values:
        raise ValidationFailure("p_values lists no growth exponent")
    if not d_values:
        raise ValidationFailure("d_values lists no dimension")
    rows = []
    for p in p_values:
        for d in d_values:
            regime = ee.classify(p, d)
            g0 = repr(ee.gamma0(p, d)) if p > 2 else "inf"
            g1 = ee.gamma1(p, d)
            cols = [repr(p), int(d), regime.value, g0, repr(g1)]
            for target in targets:
                try:
                    cols.append(ee.iterate(p, d, 0.0, target).n_steps)
                except UnreachableTargetError:
                    cols.append("unreachable")
            rows.append(cols)
    header = ["p", "d", "regime", "gamma0", "gamma1"] + [f"steps_to_{t:g}" for t in targets]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "exponents.csv", header, rows)
    print(f"wrote {out_dir / 'exponents.csv'} ({len(rows)} rows)")
    return EXIT_OK


def run_verify(cfg: dict, out_dir: Path, seed: int | None) -> int:
    size = int(cfg.get("corpus_size", baselines.CORPUS_SIZE))
    n_samples = int(cfg.get("samples", baselines.CORPUS_SAMPLES))
    corrupt = cfg.get("corrupt_constants", "false").lower() in ("1", "true", "yes")
    # the frozen calibration constants belong to the calibration corpus seed
    corpus = build_corpus(size, baselines.CORPUS_SEED if seed is None else seed)
    result = vf.run_matrix(corpus, n_samples=n_samples, corrupt=corrupt)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [rep.csv_row(name) for name, rep in result.rows]
    for name, ineq_id, reason in result.skipped:
        rows.append([ineq_id, name, "", "", "", "", "skipped", reason])
    _write_csv(out_dir / "inequalities.csv", iq.CSV_HEADER, rows)
    n_fail = len(result.failures)
    print(f"wrote inequalities.csv: {len(result.rows)} checks, {n_fail} failures, "
          f"{len(result.skipped)} skipped")
    return EXIT_OK if n_fail == 0 else EXIT_ASSERTION


def run_analyze(cfg: dict, out_dir: Path, seed: int) -> int:
    traj_path = cfg.get("trajectory", "")
    if not traj_path or not Path(traj_path).exists():
        raise ValidationFailure(f"trajectory file not found: {traj_path!r}")
    alphas = _floats(cfg.get("alphas", "0.25, 0.5, 0.75"))
    delta = float(cfg.get("delta", 0.1))
    require_finite("delta", delta)
    r = float(cfg.get("r", 0.85))
    big_r = float(cfg.get("big_r", 1.7))
    if not big_r > r:
        raise ValidationFailure(f"big_r = {big_r:g} must exceed the ball radius r = {r:g}")
    for radius in (r, big_r):
        ra._check_radius(radius)  # the margin rule of the sweep and the ball estimate
    traj = ps.load_trajectory(traj_path)
    center_frac = _floats(cfg.get("center", "0.5 0.5"))
    if len(center_frac) != 2:
        raise ValidationFailure(f"center needs two fractions, got {len(center_frac)}")
    t_center = float(cfg.get("t_center", traj.t_final / 2.0))
    center = (2 * math.pi * center_frac[0], 2 * math.pi * center_frac[1], t_center)
    cyl = ra.SubCylinder(center=center, r=r,
                         time_halfwidth=float(cfg["time_halfwidth"]) if "time_halfwidth" in cfg else None)
    rows = ra.seminorm_sweep(traj, cyl, alphas, delta)
    ball = ra.check_caccioppoli(traj, center[:2], r, big_r)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_rows = []
    for row in rows:
        for a, s in zip(row.alpha_grid, row.seminorms):
            csv_rows.append([row.target, row.x_label, repr(row.time_p), row.r, repr(a),
                             repr(s), repr(row.alpha_hat), repr(row.r_squared),
                             repr(row.predicted), "1" if row.lower_bound_norm else "0"])
    _write_csv(out_dir / "regularity.csv",
               ["target", "space", "time_p", "r", "alpha", "seminorm", "alpha_hat",
                "r_squared", "predicted", "lower_bound_norm"], csv_rows)
    for row in rows:
        name = f"plotdata_{row.target}_{row.x_label}_p{row.time_p:g}.txt"
        with open(out_dir / name, "w") as fh:
            for h, d in zip(row.h_values, row.diff_norms):
                if d > 0:
                    fh.write(f"{math.log(h)!r} {math.log(d)!r}\n")
    with open(out_dir / "ball_estimate.txt", "w") as fh:
        fh.write(f"lhs = {ball.lhs!r}\nrhs = {ball.rhs!r}\n"
                 f"observed_constant = {ball.observed_constant!r}\n"
                 f"hypothesis = {ball.hypothesis_flag}\n")
    print(f"wrote regularity.csv ({len(csv_rows)} rows), ball_estimate.txt and "
          f"{len(rows)} plot-data files")
    return EXIT_OK


_RUNNERS = {
    "solve": ("solve", run_solve),
    "exponents": ("exponents", run_exponents),
    "verify-inequalities": ("verify", run_verify),
    "analyze": ("analyze", run_analyze),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="symplap",
        description="Numerical laboratory for the symmetric-gradient diffusion system")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="INI config file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="RNG seed (defaults: solve 0, verify the canonical corpus)")
    args = parser.parse_args(argv)
    section, runner = _RUNNERS[args.command]
    try:
        cfg = _load_config(args.config, section)
        return runner(cfg, Path(args.out), args.seed)
    except (ValidationFailure, ValueError, configparser.Error) as exc:
        # malformed values and violated module preconditions are both
        # configuration problems: nothing has been written yet
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
