"""Each numeric parameter rule has one home in ``symplap.errors``.

``require_integer`` is the "integer >= k" rule and ``require_finite`` with
``at_least=-math.inf`` the "finite number" rule.  Every site that calls them
keeps its full message, pinned here byte for byte, and a few range messages
name both their argument and its value.
"""

import math
import re

import numpy as np
import pytest

import symplap.corpus as corpus
import symplap.exponent_engine as ee
import symplap.function_spaces as fs
import symplap.pde_solver as ps
from symplap.errors import require_finite, require_integer


def exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


@pytest.mark.parametrize("value", [0, 1, 7, np.int64(3)])
def test_require_integer_takes_any_integral_at_or_above_its_bound(value):
    require_integer("count", value, int(value))
    require_integer("count", value, 0)


@pytest.mark.parametrize("value, at_least", [(-1, 0), (1, 2), (2.0, 1), (1.5, 1), ("3", 0),
                                             (None, 0), (np.float64(4.0), 1)])
def test_require_integer_names_the_argument_bound_and_value(value, at_least):
    with pytest.raises(ValueError,
                       match=exactly(f"count must be an integer >= {at_least}, got {value!r}")):
        require_integer("count", value, at_least)


@pytest.mark.parametrize("value", [0.0, -1e300, 2.5, np.float64(-3.0), -7])
def test_require_finite_without_a_bound_takes_any_finite_number(value):
    require_finite("x", value, at_least=-math.inf)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_require_finite_without_a_bound_names_the_argument_and_value(value):
    with pytest.raises(ValueError, match=exactly(f"x must be a finite number, got {value!r}")):
        require_finite("x", value, at_least=-math.inf)
    with pytest.raises(TypeError, match=exactly("x must be a real number, got 1j")):
        require_finite("x", 1j, at_least=-math.inf)


def test_require_finite_keeps_its_bounded_and_positive_messages():
    with pytest.raises(ValueError, match=exactly("x must be a finite number >= 2, got 1.5")):
        require_finite("x", 1.5, at_least=2)
    with pytest.raises(ValueError, match=exactly("x must be a finite positive number, got 0.0")):
        require_finite("x", 0.0)


def unit_function():
    return fs.TimeGridFunction(np.sin(np.linspace(0.0, 3.0, 40)), 0.0, 0.1)


# the full message of each site that calls the integer or the finite-number rule
SITES = [
    ("SpaceGeometry ndim", lambda: fs.SpaceGeometry(0.1, ndim=0), ValueError,
     "ndim must be an integer >= 1, got 0"),
    ("SpaceGeometry ndim", lambda: fs.SpaceGeometry(0.1, ndim=2.0), ValueError,
     "ndim must be an integer >= 1, got 2.0"),
    ("difference order", lambda: fs.admissible_steps(unit_function(), 0, 1.0), ValueError,
     "difference order r must be an integer >= 1, got 0"),
    ("difference order", lambda: unit_function().context(fs.EUCLID).difference_norm(1.5, 1, 2.0),
     ValueError, "difference order r must be an integer >= 1, got 1.5"),
    ("sobolev order", lambda: unit_function().context(fs.EUCLID).sobolev_norm(-1, 2.0),
     ValueError, "derivative order k must be an integer >= 0, got -1"),
    ("sobolev order", lambda: unit_function().context(fs.EUCLID).sobolev_norm(1.0, 2.0),
     ValueError, "derivative order k must be an integer >= 0, got 1.0"),
    ("closed form", lambda: ee.closed_form_alpha(3.0, 2, -1), ValueError,
     "step count n must be an integer >= 0, got -1"),
    ("closed form", lambda: ee.closed_form_alpha(3.0, 2, 2.5), ValueError,
     "step count n must be an integer >= 0, got 2.5"),
    ("unit grid", lambda: corpus.build_corpus(1)[0].sample(1), ValueError,
     "n_samples must be an integer >= 2, got 1"),
    ("unit grid", lambda: corpus._unit_grid(65.0), ValueError,
     "n_samples must be an integer >= 2, got 65.0"),
    ("corpus size", lambda: corpus.build_corpus(-1), ValueError,
     "corpus size must be an integer >= 0, got -1"),
    ("corpus size", lambda: corpus.build_corpus(2.0), ValueError,
     "corpus size must be an integer >= 0, got 2.0"),
    ("start time", lambda: fs.TimeGridFunction(np.zeros(3), math.nan, 0.1), ValueError,
     "start time t0 must be a finite number, got nan"),
    ("start time", lambda: fs.TimeGridFunction(np.zeros(3), -math.inf, 0.1), ValueError,
     "start time t0 must be a finite number, got -inf"),
    ("start time", lambda: fs.TimeGridFunction(np.zeros(3), 1j, 0.1), TypeError,
     "start time t0 must be a real number, got 1j"),
    ("natural order", lambda: fs.natural_order(math.inf), ValueError,
     "smoothness exponent alpha must be a finite number, got inf"),
    ("natural order", lambda: fs.natural_order(math.nan), ValueError,
     "smoothness exponent alpha must be a finite number, got nan"),
    ("natural order", lambda: fs.natural_order(2j), TypeError,
     "smoothness exponent alpha must be a real number, got 2j"),
    ("amplitude", lambda: ps.initial_condition("eigenfield", ps.TorusGrid(8), amplitude=math.nan),
     ValueError, "amplitude must be a finite number, got nan"),
    ("amplitude", lambda: ps.initial_condition("eigenfield", ps.TorusGrid(8), amplitude=-math.inf),
     ValueError, "amplitude must be a finite number, got -inf"),
    ("amplitude", lambda: ps.initial_condition("eigenfield", ps.TorusGrid(8), amplitude=1j),
     TypeError, "amplitude must be a real number, got 1j"),
]


@pytest.mark.parametrize("site, call, error, message", SITES, ids=[s[0] for s in SITES])
def test_every_rule_site_keeps_its_full_message(site, call, error, message):
    with pytest.raises(error, match=exactly(message)):
        call()


@pytest.mark.parametrize("value", [True, False, np.True_])
def test_require_integer_rejects_bool(value):
    with pytest.raises(ValueError, match=exactly(f"count must be an integer >= 0, got {value!r}")):
        require_integer("count", value, 0)


# every site of the integer rule, each given True, which numbers.Integral includes
BOOL_SITES = [
    ("SpaceGeometry ndim", lambda: fs.SpaceGeometry(0.1, ndim=True), "ndim >= 1"),
    ("corpus size", lambda: corpus.build_corpus(True), "corpus size >= 0"),
    ("unit grid", lambda: corpus.build_corpus(1)[0].sample(True), "n_samples >= 2"),
    ("sobolev order", lambda: unit_function().context(fs.EUCLID).sobolev_norm(True, 2.0),
     "derivative order k >= 0"),
    ("difference order", lambda: fs.admissible_steps(unit_function(), True, 1.0),
     "difference order r >= 1"),
    ("closed form", lambda: ee.closed_form_alpha(3.0, 2, True), "step count n >= 0"),
]


@pytest.mark.parametrize("site, call, rule", BOOL_SITES, ids=[s[0] for s in BOOL_SITES])
def test_every_integer_site_rejects_bool(site, call, rule):
    name, bound = rule.split(" >= ")
    with pytest.raises(ValueError,
                       match=exactly(f"{name} must be an integer >= {bound}, got True")):
        call()


def test_finite_number_sites_take_negative_and_zero_values():
    assert fs.TimeGridFunction(np.zeros(3), -2.5, 0.1).t0 == -2.5
    assert fs.natural_order(-0.5) == 0
    assert not ps.initial_condition("eigenfield", ps.TorusGrid(8), amplitude=0.0).data.any()


@pytest.mark.parametrize("call, message", [
    (lambda: fs.XNorm("lp", 0.5), "integrability exponent q must be >= 1, got 0.5"),
    (lambda: fs.XNorm("w1p", math.nan), "integrability exponent q must be >= 1, got nan"),
    (lambda: fs.SeminormSpec(0.5, 2.0, delta=1.5), "delta must lie in (0, 1], got 1.5"),
    (lambda: fs.SeminormSpec(0.5, 2.0, delta=0.0), "delta must lie in (0, 1], got 0.0"),
    (lambda: ee.interp_params(1.25, 3.0, 2), "theta must lie in [0, 1], got 1.25"),
    (lambda: ee.interp_params(-0.5, 3.0, 2), "theta must lie in [0, 1], got -0.5"),
])
def test_range_messages_name_the_argument_and_the_value(call, message):
    with pytest.raises(ValueError, match=exactly(message)):
        call()
