"""Every callable exported from ``symplap`` fails typed on malformed input.

``CONTRACT`` lists, for each exported callable, a call on small valid inputs
and the arguments that take numbers or arrays: a valid value for each, and
the malformations its documentation accepts.  The test replaces one argument
by a drawn malformation (complex data, a wrong ``ndim``, NaN or inf, a
negative value, a non-integer where an integer is due, a mismatched length,
zero) and accepts one of three outcomes:

* a ``symplap.errors`` type is raised;
* a ``ValueError`` or ``TypeError`` is raised whose message names the
  argument, as a word;
* the call returns, the malformation is one the argument accepts, and no
  number the result holds is NaN, except in the argument itself, held as
  given (a container's echo is no computed number).  An infinity can be a
  documented value: the time exponent of an L^inf norm, the exponent
  sentinel of exact constancy.

A bare numpy or Python message, a ``RuntimeWarning`` (an error under the
suite's settings) or a silent NaN fails.  Grids are small, and nothing here
runs the matrix or forks.
"""

import dataclasses
import enum
import math
import numbers
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import symplap
import symplap.tensor_models as tm
from symplap import errors

G8 = symplap.TorusGrid(8)
P3 = symplap.ModelParams(3.0)
U8 = symplap.initial_condition("eigenfield", G8).data
DU8 = symplap.sym_gradient(U8, G8)
Q = np.array([[[1.0, 0.5], [0.5, -2.0]], [[0.0, 1.0], [1.0, 0.0]], [[3.0, 0.0], [0.0, 0.5]]])
T17 = np.linspace(0.0, 1.0, 17)
F = symplap.TimeGridFunction(np.sin(2 * math.pi * T17), 0.0, 1 / 16)
H = 2.0 ** -np.arange(1, 7)
# a linear solve on a 16-grid, long enough for four dyadic steps in a cylinder
TRAJ = symplap.solve(symplap.initial_condition("eigenfield", symplap.TorusGrid(16)), 1.0,
                     1 / 128, symplap.ModelParams(2.0))
C = (math.pi, math.pi, 0.5)
CYL = symplap.SubCylinder(C, 0.85, 0.3)
OUTER = symplap.SubCylinder(C, 1.7, 0.35)


class Arg(NamedTuple):
    name: str
    valid: object
    kind: str                      # "array", "real" or "int"
    accepts: tuple = ()            # malformations the documentation allows
    says: str | None = None        # a pattern of the words the messages use, if not the name


MALFORMATIONS = {
    "array": ("complex", "nan", "inf", "ndim", "length", "negative"),
    "real": ("complex", "nan", "inf", "negative", "zero"),
    "int": ("complex", "nan", "inf", "negative", "zero", "noninteger"),
}

# name -> (call taking the arguments by keyword, the arguments it draws)
CONTRACT = {
    "ModelParams": (lambda p, mu: symplap.ModelParams(p, mu),
                    [Arg("p", 3.0, "real"), Arg("mu", 1.0, "real")]),
    "SeminormSpec": (lambda alpha, r, delta: symplap.SeminormSpec(alpha, 2.0, r, delta),
                     [Arg("alpha", 0.5, "real", ("zero",)), Arg("r", 1, "int"),
                      Arg("delta", 0.5, "real")]),
    "SpaceGeometry": (lambda h, ndim, mask: symplap.SpaceGeometry(h, ndim, mask),
                      [Arg("h", 0.5, "real"), Arg("ndim", 2, "int"),
                       Arg("mask", np.ones((4, 4), bool), "array")]),
    "SpatialField": (lambda data: symplap.SpatialField(data, G8),
                     [Arg("data", U8, "array", ("negative",), says="field")]),
    "SubCylinder": (lambda center, r, time_halfwidth: symplap.SubCylinder(center, r, time_halfwidth),
                    [Arg("center", C, "array", ("negative",)), Arg("r", 0.85, "real"),
                     Arg("time_halfwidth", 0.3, "real")]),
    "TimeGridFunction": (lambda values, t0, dt: symplap.TimeGridFunction(values, t0, dt),
                         [Arg("values", F.values, "array", ("negative", "length")),
                          Arg("t0", 0.0, "real", ("negative", "zero")), Arg("dt", 1 / 16, "real")]),
    "TorusGrid": (lambda n: symplap.TorusGrid(n), [Arg("n", 8, "int", says="n|grid size")]),
    # a trajectory holds its snapshots unchecked for finiteness; its readers check them
    "Trajectory": (lambda snapshots, dt: symplap.Trajectory(snapshots, dt, P3, G8),
                   [Arg("snapshots", np.stack([U8, U8]), "array",
                        ("negative", "length", "nan", "inf")),
                    Arg("dt", 0.01, "real")]),
    "XNorm": (lambda q: symplap.XNorm("lp", q),
              [Arg("q", 2.0, "real", ("inf",), says="q|integrability exponent")]),
    "check_caccioppoli": (lambda center_xy, r, big_r: symplap.check_caccioppoli(TRAJ, center_xy, r, big_r),
                          [Arg("center_xy", C[:2], "array", ("negative",)), Arg("r", 0.85, "real"),
                           Arg("big_r", 1.7, "real")]),
    # here and below, an infinite step cap admits every step that fits (admissible_steps)
    "check_inequality": (lambda alpha, p, delta: symplap.check_inequality(
                             "HOLDER", F, alpha=alpha, p=p, delta=delta),
                         [Arg("alpha", 0.75, "real"), Arg("p", 4.0, "real", ("inf",)),
                          Arg("delta", 0.25, "real", ("inf",))]),
    "check_seminorm_bounds": (lambda alpha, delta: symplap.check_seminorm_bounds(
                                  TRAJ, CYL, OUTER, alpha, delta),
                              [Arg("alpha", 0.5, "real", ("zero",)),
                               Arg("delta", 0.25, "real", ("inf",))]),
    "classify": (lambda p, d: symplap.classify(p, d), [Arg("p", 3.0, "real"), Arg("d", 2, "int")]),
    "divergence": (lambda t_field: symplap.divergence(t_field, G8),
                   [Arg("t_field", DU8, "array", ("negative",))]),
    "equivalence_ratios": (lambda p_mat, q_mat: symplap.equivalence_ratios(p_mat, q_mat, P3),
                           [Arg("p_mat", Q, "array", ("negative",)),
                            Arg("q_mat", Q[::-1], "array", ("negative",))]),
    "estimate_exponent": (lambda h_values, norms: symplap.estimate_exponent(h_values, norms),
                          [Arg("h_values", H, "array"), Arg("norms", H**0.5, "array")]),
    "gamma0": (lambda p, d: symplap.gamma0(p, d), [Arg("p", 3.0, "real"), Arg("d", 2, "int")]),
    "gamma1": (lambda p, d: symplap.gamma1(p, d), [Arg("p", 3.0, "real"), Arg("d", 2, "int")]),
    "higher_difference": (lambda r, h: symplap.higher_difference(F, r, h),
                          [Arg("r", 1, "int"), Arg("h", 1 / 16, "real")]),
    "holder_range": (lambda d: symplap.holder_range(d), [Arg("d", 2, "int")]),
    "initial_condition": (lambda seed, cutoff, amplitude: symplap.initial_condition(
                              "random_smooth", G8, seed, cutoff, amplitude),
                          [Arg("seed", 0, "int", ("zero",)), Arg("cutoff", 2, "int"),
                           Arg("amplitude", 1.0, "real", ("negative", "zero"))]),
    "interp_params": (lambda theta, p, d: symplap.interp_params(theta, p, d),
                      [Arg("theta", 0.5, "real", ("zero",)), Arg("p", 3.0, "real"),
                       Arg("d", 2, "int")]),
    "iterate": (lambda p, d, alpha0, target: symplap.iterate(p, d, alpha0, target),
                [Arg("p", 3.0, "real"), Arg("d", 2, "int"), Arg("alpha0", 0.0, "real", ("zero",)),
                 Arg("target", 0.4, "real")]),
    "modulus_of_continuity": (lambda r, h, p: symplap.modulus_of_continuity(F, r, h, p),
                              [Arg("r", 1, "int"), Arg("h", 1 / 16, "real", ("inf",)),
                               Arg("p", 2.0, "real", ("inf",))]),
    "nikolskii_norm": (lambda alpha, p, delta: symplap.nikolskii_norm(
                           F, symplap.SeminormSpec(alpha, p, delta=delta)),
                       [Arg("alpha", 0.5, "real", ("zero",)), Arg("p", 2.0, "real", ("inf",)),
                        Arg("delta", 0.5, "real")]),
    "nikolskii_seminorm": (lambda alpha, p, delta: symplap.nikolskii_seminorm(
                               F, symplap.SeminormSpec(alpha, p, delta=delta)),
                           [Arg("alpha", 0.5, "real", ("zero",)), Arg("p", 2.0, "real", ("inf",)),
                            Arg("delta", 0.5, "real")]),
    "phi": (lambda t: symplap.phi(t, P3),
            [Arg("t", [0.0, 0.5, 2.0], "array", ("ndim", "length"), says="t|potential argument")]),
    "phi_d": (lambda t: symplap.phi_d(t, P3),
              [Arg("t", [0.0, 0.5, 2.0], "array", ("ndim", "length"), says="t|potential argument")]),
    "phi_dd": (lambda t: symplap.phi_dd(t, P3),
               [Arg("t", [0.0, 0.5, 2.0], "array", ("ndim", "length"), says="t|potential argument")]),
    "restrict": (lambda r: symplap.restrict(TRAJ, symplap.SubCylinder(C, r, 0.3)),
                 [Arg("r", 0.85, "real")]),
    "seminorm_sweep": (lambda alphas, delta: symplap.seminorm_sweep(TRAJ, CYL, alphas, delta),
                       [Arg("alphas", [0.25, 0.5], "array", ("length",)),
                        Arg("delta", 0.25, "real", ("inf",))]),
    "solve": (lambda t_final, dt: symplap.solve(symplap.SpatialField(U8, G8), t_final, dt, P3),
              [Arg("t_final", 0.02, "real"), Arg("dt", 0.01, "real")]),
    "spatial_norm": (lambda snapshot: symplap.spatial_norm(snapshot, symplap.XNorm("lp"), G8.geometry()),
                     # without a mask, a geometry takes samples of any spatial shape
                     [Arg("snapshot", U8, "array", ("negative", "ndim", "length"),
                          says="snapshot|values")]),
    "step": (lambda u_prev, dt, guess: symplap.step(u_prev, dt, P3, G8, guess),
             [Arg("u_prev", U8, "array", ("negative",)), Arg("dt", 0.01, "real"),
              Arg("guess", U8, "array", ("negative",))]),
    "stress": (lambda q: symplap.stress(q, P3), [Arg("q", Q, "array", ("negative", "length"))]),
    # a box of the grid, (a, b, 2) with a, b <= n, is a valid field
    "sym_gradient": (lambda u: symplap.sym_gradient(u, G8),
                     [Arg("u", U8, "array", ("negative", "length"))]),
    "v_map": (lambda q: symplap.v_map(q, P3), [Arg("q", Q, "array", ("negative", "length"))]),
}

# exported callables without an argument that takes numbers or arrays
NO_NUMERIC_ARGUMENT = {"Regime"}  # an enum, looked up by its string value

CASES = [(name, arg) for name, (_, args) in CONTRACT.items() for arg in args]


def test_the_contract_covers_every_exported_callable():
    exported = {name for name in dir(symplap)
                if not name.startswith("_") and callable(getattr(symplap, name))}
    assert exported == set(CONTRACT) | NO_NUMERIC_ARGUMENT


@st.composite
def malformed(draw, arg: Arg):
    how = draw(st.sampled_from(MALFORMATIONS[arg.kind]))
    if arg.kind != "array":
        value = {
            "complex": lambda: arg.valid + 1j * draw(st.floats(0.1, 10.0)),
            "nan": lambda: math.nan,
            "inf": lambda: draw(st.sampled_from([math.inf, -math.inf])),
            "negative": lambda: (-draw(st.integers(1, 100)) if arg.kind == "int"
                                 else -draw(st.floats(1e-3, 1e3))),
            "zero": lambda: 0 if arg.kind == "int" else 0.0,
            "noninteger": lambda: arg.valid + draw(st.floats(0.1, 0.9)),
        }[how]()
        return how, value
    a = np.asarray(arg.valid, dtype=float)
    if how == "complex":
        return how, a + 1j * draw(st.floats(0.1, 10.0))
    if how in ("nan", "inf"):
        b = a.copy()
        b.flat[draw(st.integers(0, a.size - 1))] = (
            math.nan if how == "nan" else draw(st.sampled_from([math.inf, -math.inf])))
        return how, b
    if how == "ndim":
        return how, a[..., 0]
    if how == "length":
        return how, a[:-1]
    return how, -np.abs(a) - draw(st.floats(1e-3, 10.0))


def _numbers(obj):
    """The numbers and float arrays that ``obj`` holds, through lists, tuples
    and dataclass fields; a dict, such as a report's echo of its parameters, is
    not a result."""
    if obj is None or isinstance(obj, (bool, str, dict, enum.Enum)):
        return
    if isinstance(obj, numbers.Number):
        yield obj
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind in "fc":
            yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _numbers(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _numbers(getattr(obj, f.name))


@pytest.mark.parametrize("name, arg", CASES, ids=[f"{n}-{a.name}" for n, a in CASES])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_arguments_fail_typed_or_give_a_documented_result(name, arg, data):
    call, args = CONTRACT[name]
    how, value = data.draw(malformed(arg))
    kwargs = {a.name: a.valid for a in args}
    kwargs[arg.name] = value
    try:
        result = call(**kwargs)
    except (ValueError, TypeError) as exc:
        if type(exc).__module__ == errors.__name__:
            return
        says = arg.says or re.escape(arg.name)
        assert re.search(rf"\b({says})\b", str(exc)), (
            f"{name}({arg.name} {how}) raised {type(exc).__name__} without naming "
            f"{says!r}: {exc}")
        return
    except errors.SolverFailureError:
        return
    assert how in arg.accepts, f"{name} took {arg.name} {how} ({value!r}) and returned {result!r}"
    for number in _numbers(result):
        assert number is value or not np.any(np.isnan(number)), (
            f"{name}({arg.name} {how}) returned a NaN")


@pytest.mark.parametrize("ineq_id, params, match", [
    # natural_order(nan) once raised "cannot convert float NaN to integer"
    ("DELTA_EQ", dict(alpha=math.nan), "^smoothness exponent alpha must be a finite number"),
    ("STEP_CHANGE", dict(alpha=math.inf), "^smoothness exponent alpha must be a finite number"),
    # and _embed_delta_cap's floor of a NaN alpha
    ("EMBED_NIK", dict(alpha=math.nan), "^embedding needs alpha >= alpha' and beta > 0$"),
    # 1/p and 1/q once raised a bare ZeroDivisionError
    ("EMBED_NIK", dict(q=0.0), r"^q must be >= 1 or inf, got 0.0$"),
    ("HOLDER", dict(p=0.0), r"^p must be >= 1 or inf, got 0.0$"),
    ("ACCESSION", dict(delta=1j), r"^delta must be a real number, got 1j$"),
    # the caller's r, not the derived order 2r, r + 1 or r - 1 a norm takes
    ("MARCHAUD", dict(r=1.5), r"^difference order r must be an integer >= 1, got 1.5$"),
    ("REDUCTION", dict(r=1.5), r"^difference order r must be an integer >= 1, got 1.5$"),
    ("ACCESSION", dict(r=2.5), r"^difference order r must be an integer >= 1, got 2.5$"),
    # an infinite alpha passes the beta test and once reached math.floor
    ("EMBED_NIK", dict(alpha=math.inf), r"^smoothness exponent alpha must be a finite number, got inf$"),
    # a NaN or infinite constant once passed silently, and a NaN, zero or negative
    # calibrated constant gave a NaN, zero or negative bound
    ("DELTA_EQ", dict(constant_factor=math.nan), r"^constant_factor must be a finite positive number, got nan$"),
    ("DELTA_EQ", dict(constant_factor=math.inf), r"^constant_factor must be a finite positive number, got inf$"),
    ("ACCESSION", dict(calibrated=math.nan), r"^calibrated must be a finite positive number, got nan$"),
    ("EMBED_SOBOLEV", dict(calibrated=math.nan), r"^calibrated must be a finite positive number, got nan$"),
    ("ACCESSION", dict(calibrated=-1.0), r"^calibrated must be a finite positive number, got -1.0$"),
    ("EMBED_SOBOLEV", dict(calibrated=0.0), r"^calibrated must be a finite positive number, got 0.0$"),
    ("INTERPOLATION", dict(calibrated=math.inf), r"^calibrated must be a finite positive number, got inf$"),
    ("EMBED_NIK", dict(calibrated=-1.0), r"^calibrated must be a finite positive number, got -1.0$"),
])
def test_check_parameters_fail_by_name(ineq_id, params, match):
    f = symplap.TimeGridFunction(np.sin(2 * math.pi * np.linspace(0.0, 1.0, 65)), 0.0, 1 / 64)
    with pytest.raises((ValueError, TypeError), match=match):
        symplap.check_inequality(ineq_id, f, f, **params)


def _rng():
    return np.random.default_rng(0)


@pytest.mark.parametrize("call, match", [
    # each once failed with a bare numpy or Python message
    (lambda: tm.sample_symmetric_pairs(_rng(), 3, radius=-1.0),
     r"^radius must be a finite positive number, got -1.0$"),
    (lambda: tm.sample_symmetric_pairs(_rng(), 3, radius=math.inf),
     r"^radius must be a finite positive number, got inf$"),
    (lambda: tm.sample_symmetric_pairs(_rng(), 1.5),
     r"^count must be an integer >= 1, got 1.5$"),
    (lambda: tm.measure_assumption_bands(P3, n_pairs=0),
     r"^n_pairs must be an integer >= 1, got 0$"),
    # and these returned empty or unchecked draws
    (lambda: tm.sample_symmetric_pairs(_rng(), 0), r"^count must be an integer >= 1, got 0$"),
    (lambda: tm.sample_symmetric_pairs(_rng(), 3, d=2.0),
     r"^matrix size d must be an integer >= 1, got 2.0$"),
    (lambda: tm.sample_symmetric_pairs(_rng(), 3, radius=math.nan),
     r"^radius must be a finite positive number, got nan$"),
], ids=["radius-negative", "radius-inf", "count-noninteger", "n_pairs-zero", "count-zero",
        "d-float", "radius-nan"])
def test_sampling_arguments_fail_by_name(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# prints the message of the ValueError the call raises, or what it returned
_SAMPLING_CHILD = """
import sys
import numpy as np
import symplap.tensor_models as tm
rng, P3 = np.random.default_rng(0), tm.ModelParams(3.0)
try:
    p_mat, q_mat = eval(sys.argv[1])
except ValueError as exc:
    print(f"{type(exc).__name__}: {exc}")
else:
    tied = int(np.all(p_mat == q_mat, axis=(-2, -1)).sum())
    print(f"returned {p_mat.shape} and {q_mat.shape}, {tied} tied")
"""


@pytest.mark.parametrize("call, outcome", [
    ("tm.sample_symmetric_pairs(rng, 3, radius=0.0)",
     "ValueError: radius must be a finite positive number, got 0.0"),
    ("tm.sample_symmetric_pairs(rng, 3, d=0)",
     "ValueError: matrix size d must be an integer >= 1, got 0"),
    # the squares inside frob underflow to 0 here; ties are tested exactly
    ("tm.sample_symmetric_pairs(rng, 3, radius=1e-300)", "returned (3, 2, 2) and (3, 2, 2), 0 tied"),
    ("tm.sample_symmetric_pairs(rng, 3, radius=5e-324)", "returned (3, 2, 2) and (3, 2, 2), 0 tied"),
    ("tm.measure_assumption_bands(P3, radius=0.0)",
     "ValueError: radius must be a finite positive number, got 0.0"),
    # the documented blind spot of equivalence_ratios
    ("tm.measure_assumption_bands(P3, n_pairs=3, radius=1e-300)",
     "DegeneratePairError: equivalence ratios are undefined for identical pairs"),
], ids=["radius-zero", "d-zero", "radius-1e-300", "radius-5e-324", "bands-radius-zero",
        "bands-radius-1e-300"])
def test_sampling_calls_that_once_looped_forever_return_or_fail_by_name(call, outcome):
    # in a subprocess with a timeout, so an endless tie loop fails the test
    # instead of stalling the suite
    src = str(Path(symplap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _SAMPLING_CHILD, call],
                          env=env, capture_output=True, text=True, timeout=30, check=True)
    assert proc.stdout.strip() == outcome
