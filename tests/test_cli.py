"""End-to-end CLI: config handling, artifacts, determinism, exit codes."""

import ast
import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symplap.cli as cli
import symplap.regularity_analyzer as ra
from symplap.cli import main


def write_config(path, body):
    path.write_text(body)
    return str(path)


SOLVE_BODY = """
[solve]
model = A2
p = {p}
mu = 1.0
n = 16
dt = 0.002
t_final = {t_final}
ic = {ic}
"""


def run(args):
    return main([str(a) for a in args])


def energy_column(out):
    with open(out / "diagnostics.csv", newline="") as fh:
        return [float(row["energy"]) for row in csv.DictReader(fh)]


class TestSolve:
    def test_solve_writes_trajectory_and_diagnostics(self, tmp_path):
        cfg = write_config(tmp_path / "a.ini", SOLVE_BODY.format(p=3, t_final=0.02, ic="random_smooth"))
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", out, "--seed", 7]) == 0
        assert (out / "trajectory.bin").exists()
        assert (out / "trajectory.bin.meta").exists()
        lines = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert lines[0] == "step,newton_iterations,cg_iterations,residual,energy"
        assert len(lines) == 11
        energies = energy_column(out)
        assert all(a >= b for a, b in zip(energies, energies[1:]))

    def test_solve_outputs_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "d.ini", SOLVE_BODY.format(p=3, t_final=0.01, ic="random_smooth"))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(["solve", "--config", cfg, "--out", out1, "--seed", 9]) == 0
        assert run(["solve", "--config", cfg, "--out", out2, "--seed", 9]) == 0
        for name in ("trajectory.bin", "trajectory.bin.meta", "diagnostics.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_amplitude_gives_zero_energy_column(self, tmp_path):
        body = SOLVE_BODY.format(p=3, t_final=0.01, ic="random_smooth") + "amplitude = 0.0\n"
        cfg = write_config(tmp_path / "z.ini", body)
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", out]) == 0
        assert all(energy == 0.0 for energy in energy_column(out))

    def test_eigenfield_energy_strictly_decreasing(self, tmp_path):
        cfg = write_config(tmp_path / "e.ini", SOLVE_BODY.format(p=2, t_final=0.02, ic="eigenfield"))
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", out]) == 0
        energies = energy_column(out)
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_invalid_growth_exponent_writes_nothing(self, tmp_path):
        cfg = write_config(tmp_path / "bad.ini", SOLVE_BODY.format(p=1.5, t_final=0.02, ic="eigenfield"))
        out = tmp_path / "out_bad"
        assert run(["solve", "--config", cfg, "--out", out]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("p, mu, name", [("nan", "1.0", "growth exponent p"),
                                             ("inf", "1.0", "growth exponent p"),
                                             ("3", "nan", "safety parameter mu")])
    def test_non_finite_model_parameter_writes_nothing(self, tmp_path, capsys, p, mu, name):
        body = SOLVE_BODY.format(p=p, t_final=0.02, ic="eigenfield").replace("mu = 1.0", f"mu = {mu}")
        cfg = write_config(tmp_path / "m.ini", body)
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        assert f"validation error: {name} must be a finite" in capsys.readouterr().err

    @pytest.mark.parametrize("dt, t_final, name", [
        ("0.002", "inf", "t_final"), ("inf", "0.02", "dt"), ("nan", "0.02", "dt"),
        ("0", "0.02", "dt"), ("-0.002", "0.02", "dt"), ("0.002", "-0.02", "t_final")])
    def test_non_finite_or_non_positive_time_writes_nothing(self, tmp_path, capsys, dt, t_final, name):
        body = SOLVE_BODY.format(p=2, t_final=t_final, ic="eigenfield").replace("dt = 0.002", f"dt = {dt}")
        cfg = write_config(tmp_path / "t.ini", body)
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        assert f"validation error: {name} must be a finite positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff", ["0", "-1", "8"])
    def test_cutoff_outside_the_band_writes_nothing(self, tmp_path, capsys, cutoff):
        body = SOLVE_BODY.format(p=3, t_final=0.02, ic="random_smooth") + f"cutoff = {cutoff}\n"
        cfg = write_config(tmp_path / "c.ini", body)
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        assert "validation error: cutoff must be an integer in [1, n/2 - 1]" in capsys.readouterr().err

    def test_overflowing_initial_data_writes_nothing(self, tmp_path, capsys):
        body = SOLVE_BODY.format(p=3, t_final=0.02, ic="random_smooth") + "amplitude = 1e150\n"
        cfg = write_config(tmp_path / "o.ini", body)
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        assert "energy or stress is not finite" in capsys.readouterr().err

    def test_misaligned_t_final_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "bad2.ini", SOLVE_BODY.format(p=2, t_final=0.0213, ic="eigenfield"))
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 1

    def test_missing_config_file(self, tmp_path):
        assert run(["solve", "--config", tmp_path / "nope.ini", "--out", tmp_path / "o"]) == 1

    def test_inline_comments_in_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", """
[solve]
model = A2          ; A1 or A2
p = 2.0             # growth exponent
mu = 1.0
n = 16
dt = 0.005
t_final = 0.01
ic = eigenfield
""")
        assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 0

    def test_solver_failure_keeps_partial_trajectory(self, tmp_path, monkeypatch):
        import symplap.cli as cli
        import symplap.pde_solver as ps
        from symplap.errors import SolverFailureError

        def failing_solve(u0, t_final, dt, model, meta=None):
            exc = SolverFailureError("forced failure", residual_history=[1.0],
                                     step_index=2)
            exc.partial = ps.Trajectory(np.zeros((3, 16, 16, 2)), dt, model,
                                        ps.TorusGrid(16), [],
                                        dict(meta or {}, failed_at_step=2))
            raise exc

        monkeypatch.setattr(cli.ps, "solve", failing_solve)
        cfg = write_config(tmp_path / "f.ini", SOLVE_BODY.format(p=3, t_final=0.02, ic="eigenfield"))
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", out]) == 2
        assert (out / "trajectory.bin").exists()
        assert "failed_at_step = 2" in (out / "trajectory.bin.meta").read_text()


class TestExponents:
    def test_sweep_matches_engine(self, tmp_path):
        import symplap.exponent_engine as ee
        cfg = write_config(tmp_path / "e.ini", """
[exponents]
p_values = 2, 2.5, 3, 4
d_values = 2, 3
targets = 0.4
""")
        out = tmp_path / "out"
        assert run(["exponents", "--config", cfg, "--out", out]) == 0
        lines = (out / "exponents.csv").read_text().strip().splitlines()
        assert lines[0] == "p,d,regime,gamma0,gamma1,steps_to_0.4"
        assert len(lines) == 9
        for line in lines[1:]:
            p, d, regime, *_ = line.split(",")
            assert regime == ee.classify(float(p), int(d)).value

    def test_invalid_p_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "e.ini", "[exponents]\np_values = 1.0\n")
        assert run(["exponents", "--config", cfg, "--out", tmp_path / "o"]) == 1

    def test_non_finite_p_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "e.ini", "[exponents]\np_values = 3, inf\n")
        out = tmp_path / "o"
        assert run(["exponents", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        assert "growth exponent p must be a finite number >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["targets = -0.5, 0", "d_values = -4", "d_values = 2.5"])
    def test_invalid_target_or_dimension_writes_nothing(self, tmp_path, line):
        cfg = write_config(tmp_path / "e.ini", f"[exponents]\np_values = 3\n{line}\n")
        out = tmp_path / "o"
        assert run(["exponents", "--config", cfg, "--out", out]) == 1
        assert not out.exists()

    def test_negative_target_fails_with_the_library_message(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "e.ini", "[exponents]\np_values = 3\ntargets = -0.5\n")
        out = tmp_path / "o"
        assert run(["exponents", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        assert ("validation error: need 0 <= alpha0 < target, got alpha0 = 0.0 and target = -0.5"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("p_values", ["3", "1.0"])
    def test_empty_dimension_list_writes_nothing(self, tmp_path, capsys, p_values):
        # with no dimension no (p, d) pair would reach the growth-exponent check
        cfg = write_config(tmp_path / "e.ini", f"[exponents]\np_values = {p_values}\nd_values =\n")
        out = tmp_path / "o"
        assert run(["exponents", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        assert "validation error: d_values" in capsys.readouterr().err

    def test_empty_growth_exponent_list_writes_nothing(self, tmp_path, capsys):
        # with no growth exponent no (p, d) pair would reach the dimension check
        cfg = write_config(tmp_path / "e.ini", "[exponents]\np_values =\nd_values = 2.5\n")
        out = tmp_path / "o"
        assert run(["exponents", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        assert "validation error: p_values" in capsys.readouterr().err

    def test_target_the_iteration_settles_below_is_unreachable(self, tmp_path):
        cfg = write_config(tmp_path / "e.ini", "[exponents]\np_values = 3.159424712356178\n"
                           "d_values = 2\ntargets = 0.9, 0.9948364583415449\n")
        out = tmp_path / "o"
        assert run(["exponents", "--config", cfg, "--out", out]) == 0
        row = (out / "exponents.csv").read_text().strip().splitlines()[1].split(",")
        assert row[-1] == "unreachable" and row[-2].isdigit()

    def test_module_entry_point_matches_main(self, tmp_path):
        cfg = write_config(tmp_path / "e.ini", "[exponents]\np_values = 2, 3, 4\ntargets = 0.4, 1.03\n")
        src = str(Path(ra.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "symplap", "exponents", "--config", cfg,
                               "--out", str(tmp_path / "module")],
                              env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert run(["exponents", "--config", cfg, "--out", tmp_path / "main"]) == 0
        module_csv = (tmp_path / "module" / "exponents.csv").read_bytes()
        assert module_csv == (tmp_path / "main" / "exponents.csv").read_bytes()
        assert len(module_csv.splitlines()) == 7


class TestVerify:
    def test_empty_corpus_empty_csv(self, tmp_path):
        cfg = write_config(tmp_path / "v.ini", "[verify]\ncorpus_size = 0\nsamples = 257\n")
        out = tmp_path / "out"
        assert run(["verify-inequalities", "--config", cfg, "--out", out]) == 0
        lines = (out / "inequalities.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only

    def test_small_corpus_clean_and_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "v.ini", "[verify]\ncorpus_size = 6\nsamples = 257\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(["verify-inequalities", "--config", cfg, "--out", out1, "--seed", 5]) == 0
        assert run(["verify-inequalities", "--config", cfg, "--out", out2, "--seed", 5]) == 0
        assert (out1 / "inequalities.csv").read_bytes() == (out2 / "inequalities.csv").read_bytes()

    def test_corrupted_constant_detected(self, tmp_path):
        cfg = write_config(tmp_path / "v.ini", """
[verify]
corpus_size = 8
samples = 257
corrupt_constants = true
""")
        out = tmp_path / "out"
        assert run(["verify-inequalities", "--config", cfg, "--out", out]) == 3
        text = (out / "inequalities.csv").read_text()
        assert ",0," in text.replace(",0\n", ",0,")  # at least one failed row flagged

    def test_number_cells_are_plain_floats(self, tmp_path):
        import csv
        cfg = write_config(tmp_path / "v.ini", "[verify]\ncorpus_size = 8\nsamples = 257\n")
        out = tmp_path / "out"
        assert run(["verify-inequalities", "--config", cfg, "--out", out]) == 0
        with open(out / "inequalities.csv", newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["passed"] != "skipped"]
        assert rows
        for row in rows:
            for col in ("lhs", "rhs", "constant_used", "margin"):
                float(row[col])

    @pytest.mark.parametrize("size, samples, message", [
        (-1, 257, "corpus size must be an integer >= 0, got -1"),
        (4, 1, "n_samples must be an integer >= 2, got 1")])
    def test_corpus_rules_fail_with_the_library_message(self, tmp_path, capsys, size, samples,
                                                        message):
        cfg = write_config(tmp_path / "v.ini",
                           f"[verify]\ncorpus_size = {size}\nsamples = {samples}\n")
        out = tmp_path / "out"
        assert run(["verify-inequalities", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        assert f"validation error: {message}" in capsys.readouterr().err

    def test_too_few_samples_writes_nothing(self, tmp_path):
        cfg = write_config(tmp_path / "v.ini", "[verify]\ncorpus_size = 4\nsamples = 5\n")
        out = tmp_path / "out"
        assert run(["verify-inequalities", "--config", cfg, "--out", out]) == 1
        assert not out.exists()


class TestAnalyze:
    @pytest.fixture()
    def solved(self, tmp_path):
        cfg = write_config(tmp_path / "s.ini", SOLVE_BODY.format(p=2, t_final=1.0, ic="eigenfield"))
        out = tmp_path / "solved"
        assert run(["solve", "--config", cfg, "--out", out]) == 0
        return out / "trajectory.bin"

    def test_analyze_outputs(self, tmp_path, solved):
        cfg = write_config(tmp_path / "a.ini", f"""
[analyze]
trajectory = {solved}
alphas = 0.5, 0.9
delta = 0.15
r = 0.85
big_r = 1.7
t_center = 0.5
time_halfwidth = 0.35
""")
        out = tmp_path / "an"
        assert run(["analyze", "--config", cfg, "--out", out]) == 0
        body = (out / "regularity.csv").read_text().strip().splitlines()
        assert body[0].startswith("target,space,time_p,r,alpha,seminorm,alpha_hat")
        assert len(body) > 5
        assert (out / "ball_estimate.txt").exists()
        plots = list(out.glob("plotdata_*.txt"))
        assert plots
        for pl in plots:
            for line in pl.read_text().strip().splitlines():
                a, b = line.split()
                float(a), float(b)

    def test_missing_trajectory_is_validation_error(self, tmp_path):
        cfg = write_config(tmp_path / "a.ini", "[analyze]\ntrajectory = /nonexistent.bin\n")
        assert run(["analyze", "--config", cfg, "--out", tmp_path / "o"]) == 1

    @pytest.mark.parametrize("n, d", [(12, 2), (8, 3)])
    def test_trajectory_grid_outside_the_torus_is_validation_error(self, tmp_path, solved,
                                                                   capsys, n, d):
        header = np.array([n, d, 0.01, 1], dtype="<f8").tobytes()
        solved.write_bytes(header + np.zeros(2 * n * n * d, dtype="<f8").tobytes())
        cfg = write_config(tmp_path / "a.ini", f"[analyze]\ntrajectory = {solved}\n")
        out = tmp_path / "an"
        assert run(["analyze", "--config", cfg, "--out", out]) == 1
        assert f"validation error: {solved}: header " in capsys.readouterr().err
        assert not out.exists()

    def test_validation_error_writes_nothing(self, tmp_path, solved):
        # a ball radius without interior margin fails before the sweep and any output
        cfg = write_config(tmp_path / "a.ini", f"""
[analyze]
trajectory = {solved}
r = 3.0
big_r = 3.1
""")
        out = tmp_path / "an"
        assert run(["analyze", "--config", cfg, "--out", out]) == 1
        assert not out.exists()

    def test_outer_radius_without_margin_fails_before_the_sweep(self, tmp_path, solved,
                                                                monkeypatch, capsys):
        def sweep(*args, **kwargs):
            raise AssertionError("seminorm_sweep ran")

        monkeypatch.setattr(ra, "seminorm_sweep", sweep)
        cfg = write_config(tmp_path / "a.ini", f"[analyze]\ntrajectory = {solved}\n"
                                               "r = 0.85\nbig_r = 3.0\n")
        out = tmp_path / "an"
        assert run(["analyze", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        assert "ball radius 3.0" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [("center = 0.5", "center"),
                                              ("alphas =", "alphas")])
    def test_malformed_list_is_validation_error(self, tmp_path, solved, capsys, line, message):
        cfg = write_config(tmp_path / "a.ini", f"[analyze]\ntrajectory = {solved}\n{line}\n")
        out = tmp_path / "an"
        assert run(["analyze", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [("r", "-0.5", "radius"),
                                                   ("time_halfwidth", "0", "time_halfwidth"),
                                                   ("big_r", "0.5", "big_r"),
                                                   ("alphas", "-1, 0.5", "alphas"),
                                                   ("alphas", "0.5, inf", "alphas"),
                                                   ("alphas", "0.5, 1.6", "ceiling"),
                                                   ("center", "nan 0.5", "center"),
                                                   ("t_center", "nan", "center"),
                                                   ("delta", "inf", "delta"),
                                                   ("delta", "nan", "delta"),
                                                   ("delta", "0", "delta")])
    def test_out_of_range_value_is_validation_error(self, tmp_path, solved, capsys, key, value,
                                                    message):
        settings = dict(trajectory=solved, alphas="0.5", delta="0.15", r="0.85", big_r="1.7",
                        t_center="0.5", time_halfwidth="0.35")
        settings[key] = value
        body = "".join(f"{k} = {v}\n" for k, v in settings.items())
        cfg = write_config(tmp_path / "a.ini", "[analyze]\n" + body)
        out = tmp_path / "an"
        assert run(["analyze", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        assert message in capsys.readouterr().err

    def test_non_finite_snapshot_writes_nothing(self, tmp_path, solved, capsys):
        # one NaN in snapshot 50 inside the ball; the header is 4 float64, then
        # (steps + 1, n, n, 2) float64 with n = 16
        data = np.fromfile(solved, dtype="<f8")
        data[4 + ((50 * 16 + 8) * 16 + 8) * 2] = np.nan
        data.tofile(solved)
        cfg = write_config(tmp_path / "a.ini", f"[analyze]\ntrajectory = {solved}\n"
                                               "alphas = 0.5\ndelta = 0.15\nt_center = 0.5\n")
        out = tmp_path / "an"
        assert run(["analyze", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        assert "snapshot 50 has a non-finite entry" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path, solved):
        cfg = write_config(tmp_path / "a.ini", f"""
[analyze]
trajectory = {solved}
alphas = 0.5
delta = 0.15
r = 0.85
big_r = 1.7
t_center = 0.5
time_halfwidth = 0.35
""")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["analyze", "--config", cfg, "--out", out1]) == 0
        assert run(["analyze", "--config", cfg, "--out", out2]) == 0
        assert (out1 / "regularity.csv").read_bytes() == (out2 / "regularity.csv").read_bytes()
        assert (out1 / "ball_estimate.txt").read_bytes() == (out2 / "ball_estimate.txt").read_bytes()


def _keys_read(func, functions) -> set:
    """Config keys a runner reads, ``cfg.get("key")``, ``cfg["key"]`` or ``"key" in cfg``,
    also through the module functions it calls."""
    def is_cfg(node):
        return isinstance(node, ast.Name) and node.id == "cfg"

    keys = set()
    for node in ast.walk(functions[func]):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "get" and is_cfg(node.func.value):
                keys.add(node.args[0].value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in functions and node.func.id != func:
                keys |= _keys_read(node.func.id, functions)
        elif isinstance(node, ast.Subscript) and is_cfg(node.value):
            keys.add(node.slice.value)
        elif isinstance(node, ast.Compare) and is_cfg(node.comparators[0]):
            keys.add(node.left.value)
    return keys


def test_readme_config_lists_the_keys_each_runner_reads():
    # the README's complete config, commented keys such as "; time_halfwidth" included
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    documented, section = {}, None
    for line in block.splitlines():
        if header := re.fullmatch(r"\[(\w+)\]", line.strip()):
            section = documented.setdefault(header.group(1), set())
        elif key := re.match(r";?\s*(\w+)\s*=", line):
            section.add(key.group(1))
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    read = {section: _keys_read(runner.__name__, functions)
            for section, runner in cli._RUNNERS.values()}
    assert documented == read
    assert sum(map(len, read.values())) == 23
