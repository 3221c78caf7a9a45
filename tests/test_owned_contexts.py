"""Each ``TimeGridFunction`` owns its time-norm contexts.

A function is frozen and holds a read-only view of its samples, so a context
it keeps never goes stale, and ``dataclasses.replace`` gives a new function
with fresh contexts.  No context refers back to its function, so a function
dies with its last reference, without the cyclic garbage collector.  The ten
checks of one corpus entry build each (function, X-norm) context once.
"""

import dataclasses
import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest

import symplap.function_spaces as fs
from symplap import verify
from symplap.corpus import build_corpus, lift_to_field

FIELD_NORMS = (fs.L2, fs.W12, fs.WM12)


def lifted():
    # a rank-2 field in time: its l2 contexts share the low-rank factor
    return lift_to_field(build_corpus(4, 1234)[0], 65)


def make_like(f, values):
    return fs.TimeGridFunction(values, f.t0, f.dt, f.geometry)


def test_fields_and_samples_are_read_only():
    samples = np.arange(10.0)
    f = fs.TimeGridFunction(samples, 0.0, 0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.dt = 0.2
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.values = np.zeros(10)
    with pytest.raises(ValueError, match="read-only"):
        f.values[0] = 1.0
    # f holds a view: the caller's array is neither copied nor locked
    assert samples.flags.writeable
    assert np.shares_memory(f.values, samples)


@pytest.mark.parametrize("make, norms", [
    (lambda: fs.TimeGridFunction(np.sin(np.linspace(0.0, 3.0, 40)), 0.0, 0.1), (fs.EUCLID,)),
    (lifted, FIELD_NORMS),
])
def test_replace_gives_fresh_contexts_that_measure_the_new_samples(make, norms):
    f = make()
    old = [f.context(norm) for norm in norms]
    values = np.cumsum(f.values, axis=0)
    g = dataclasses.replace(f, values=values)
    for norm, ctx in zip(norms, old):
        got, want = g.context(norm), fs._NormContext(make_like(f, values), norm)
        assert got is not ctx and f.context(norm) is ctx
        assert np.array_equal(got.sample_norms, want.sample_norms)
        assert got.seminorm(0.5, 1, 1.0, 2.0) == want.seminorm(0.5, 1, 1.0, 2.0)


@pytest.mark.parametrize("make, norms", [
    (lambda: fs.TimeGridFunction(np.arange(10.0), 0.0, 0.1), (fs.EUCLID,)),
    (lifted, FIELD_NORMS),
])
def test_a_function_and_its_contexts_form_no_cycle(make, norms):
    f = make()
    for norm in norms:
        f.context(norm).seminorm(0.5, 1, math.inf, 2.0)  # keeps a lag profile too
    ref = weakref.ref(f)
    gc.disable()
    try:
        del f
        assert ref() is None
    finally:
        gc.enable()


def test_one_entry_builds_each_context_once():
    entry = build_corpus(4, 1234)[0]  # a sinusoid, with its derivative
    with mock.patch.object(fs._NormContext, "__init__", autospec=True,
                           side_effect=fs._NormContext.__init__) as spy:
        result = verify.run_matrix([entry])
    assert len(result.rows) == len(fs.INEQUALITY_IDS)
    built = [(id(call.args[1]), call.args[2]) for call in spy.call_args_list]
    # f and f' in the Euclidean norm, the lifted field in L^2, W^{1,2}, W^{-1,2}
    assert len(built) == len(set(built)) == 5
