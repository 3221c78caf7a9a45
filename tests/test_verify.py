"""Constant calibration of the check matrix."""

import pytest

from symplap import baselines
from symplap.corpus import build_corpus
from symplap.verify import calibrate_constants, run_matrix


def test_calibrate_constants_small_corpus_within_frozen():
    measured = calibrate_constants(size=8)
    assert set(measured) == {"ACCESSION", "INTERPOLATION", "EMBED_SOBOLEV", "EMBED_NIK"}
    for name, value in measured.items():
        assert 0.0 < value <= baselines.INEQUALITY_CONSTANTS[name], name


@pytest.mark.parametrize("seed", [1, 2])
def test_frozen_constants_hold_on_held_out_corpora(seed):
    # the constants were calibrated on the seed-1234 corpus; they are a
    # regression contract, so every seed of this fixed range must pass
    result = run_matrix(build_corpus(100, seed))
    assert not result.failures
