"""Constant calibration of the check matrix."""

from symplap import baselines
from symplap.verify import calibrate_constants


def test_calibrate_constants_small_corpus_within_frozen():
    measured = calibrate_constants(size=8)
    assert set(measured) == {"ACCESSION", "INTERPOLATION", "EMBED_SOBOLEV", "EMBED_NIK"}
    for name, value in measured.items():
        assert 0.0 < value <= baselines.INEQUALITY_CONSTANTS[name], name
