"""Error branches that no other test reaches, each pinned by type and full
message, and the explicit step caps of STEP_CHANGE and EMBED_NIK."""

import math
import re

import numpy as np
import pytest

import symplap.function_spaces as fs
import symplap.pde_solver as ps
import symplap.regularity_analyzer as ra
import symplap.tensor_models as tm
from symplap.cli import EXIT_VALIDATION, main
from symplap.corpus import build_corpus
from symplap.errors import (DegeneratePairError, EmptyDomainError, GeometryError,
                            InsufficientResolutionError, PreconditionError,
                            TrajectoryFormatError)

CENTER = (math.pi, math.pi, 1.0)


def exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


@pytest.fixture(scope="module")
def traj():
    grid = ps.TorusGrid(16)
    return ps.solve(ps.initial_condition("eigenfield", grid), 2.0, 0.01,
                    tm.ModelParams(p=2, mu=1.0, model="A2"))


class TestRestrict:
    def test_a_window_with_fewer_than_two_snapshots(self, traj):
        # [0.996, 1.004] holds the one snapshot at t = 1.0 of a dt = 0.01 grid
        cyl = ra.SubCylinder(center=CENTER, r=0.85, time_halfwidth=0.004)
        with pytest.raises(GeometryError,
                           match=exactly("time window contains fewer than two snapshots")):
            ra.restrict(traj, cyl)

    def test_an_unknown_target(self, traj):
        cyl = ra.SubCylinder(center=CENTER, r=0.85)
        with pytest.raises(ValueError, match=exactly("unknown restriction target 'grad'")):
            ra.restrict(traj, cyl, target="grad")

    @pytest.mark.parametrize("target", ["u", "vmap"])
    def test_a_ball_with_no_grid_node(self, traj, target):
        # a ball of radius 0.05 centred half a cell off the nodes of a 16^2 grid
        half = math.pi / 16
        cyl = ra.SubCylinder(center=(math.pi + half, math.pi + half, 1.0), r=0.05,
                             time_halfwidth=0.5)
        with pytest.raises(GeometryError,
                           match=exactly("ball of radius 0.05 contains no grid nodes")):
            ra.restrict(traj, cyl, target=target)


@pytest.mark.parametrize("outer_r", [0.85, 0.5])
def test_seminorm_bounds_need_a_larger_outer_cylinder(traj, outer_r):
    inner = ra.SubCylinder(center=CENTER, r=0.85)
    outer = ra.SubCylinder(center=CENTER, r=outer_r)
    with pytest.raises(GeometryError, match=exactly("outer cylinder must be strictly larger")):
        ra.check_seminorm_bounds(traj, inner, outer, alpha=0.5)


def test_slope_estimate_needs_four_nonzero_norms():
    with pytest.raises(InsufficientResolutionError,
                       match=exactly("fewer than 4 nonzero difference norms")):
        ra.estimate_exponent([1.0, 2.0, 4.0, 8.0, 16.0], [0.0, 0.0, 1.0, 2.0, 3.0])


def test_an_unknown_model():
    with pytest.raises(ValueError, match=exactly("model must be one of ('A1', 'A2'), got 'A3'")):
        tm.ModelParams(p=3.0, model="A3")


def test_an_unknown_initial_condition_tag():
    with pytest.raises(ValueError, match=exactly("unknown initial-condition tag 'noise'")):
        ps.initial_condition("noise", ps.TorusGrid(8))


def test_a_trajectory_file_shorter_than_its_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(np.zeros(2, dtype="<f8").tobytes())
    with pytest.raises(TrajectoryFormatError,
                       match=exactly(f"{path}: 16 bytes, shorter than the 32-byte header")):
        ps.load_trajectory(path)


def test_time_norm_of_no_sample_norm():
    with pytest.raises(EmptyDomainError, match=exactly("empty index set in time norm")):
        fs.time_lp(np.array([]), 2.0, 0.1)


def test_lipschitz_ratio_of_an_identical_pair():
    p_mat = np.array([[1.0, 0.5], [0.5, -1.0]])
    with pytest.raises(DegeneratePairError,
                       match=exactly("Lipschitz ratio is undefined for identical pairs")):
        tm.lipschitz_ratio(p_mat, p_mat.copy(), tm.ModelParams(p=3.0))


@pytest.mark.parametrize("command, section", [("analyze", "analyze"), ("exponents", "exponents"),
                                              ("verify-inequalities", "verify")])
def test_a_config_without_the_subcommand_section_exits_1(tmp_path, capsys, command, section):
    config = tmp_path / "exp.ini"
    config.write_text("[solve]\nmodel = A2\np = 3.0\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: config is missing a [{section}] section\n"
    assert not out.exists()


# the default step caps on the unit interval at 1,025 samples (tests/test_check_defaults.py)
@pytest.mark.parametrize("ineq_id, cap", [(fs.STEP_CHANGE, 1 / 16), (fs.EMBED_NIK, 1 / 256)])
def test_an_explicit_admissible_step_cap(ineq_id, cap):
    f = build_corpus(1)[0].sample(1025)
    default = fs.check_inequality(ineq_id, f)
    assert default.params["delta"] == cap
    # passing the default cap gives the default report
    same = fs.check_inequality(ineq_id, f, delta=cap)
    assert np.array_equal(np.array([same.lhs, same.rhs]).view(np.uint64),
                          np.array([default.lhs, default.rhs]).view(np.uint64))
    assert same.params == default.params
    # a smaller cap is taken as given and echoed
    smaller = fs.check_inequality(ineq_id, f, delta=cap / 2)
    assert smaller.params["delta"] == cap / 2
    with pytest.raises(PreconditionError, match="step cap for"):
        fs.check_inequality(ineq_id, f, delta=2 * cap)
