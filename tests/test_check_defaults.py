"""The corpus run states each setting once.

Each check declares the parameters at which its hypotheses hold as its keyword
defaults, and ``verify.CANONICAL_PARAMS`` holds only where the corpus run
departs from them.  The calibration corpus (size, seed, samples) lives in
``baselines`` beside the constants measured on it, and every default that
picks that corpus reads it there.
"""

import inspect

import pytest

import symplap.function_spaces as fs
import symplap.verify as vf
from symplap import baselines, cli
from symplap.corpus import build_corpus


def _defaults(func) -> dict:
    return {name: p.default for name, p in inspect.signature(func).parameters.items()
            if p.default is not inspect.Parameter.empty}


@pytest.mark.parametrize("ineq_id", fs.INEQUALITY_IDS)
def test_the_corpus_run_restates_no_check_default(ineq_id):
    defaults = _defaults(fs._checker(ineq_id))
    params = vf._params_for(ineq_id, corrupt=False)
    assert set(params) <= set(defaults)
    copies = {k: v for k, v in params.items() if k != "calibrated" and v == defaults[k]}
    assert not copies, f"{ineq_id} restates its defaults {copies}"


def test_the_self_test_sets_its_own_step_cap_parameters():
    assert vf._params_for(fs.DELTA_EQ, corrupt=True) == dict(r=1, alpha=0.0,
                                                             constant_factor=1.0)


def test_corpus_defaults_read_the_calibration_corpus():
    corpus = (baselines.CORPUS_SIZE, baselines.CORPUS_SEED, baselines.CORPUS_SAMPLES)
    assert corpus == (100, 1234, 1025)
    assert _defaults(build_corpus) == dict(size=corpus[0], seed=corpus[1])
    assert _defaults(vf.run_matrix)["n_samples"] == corpus[2]
    assert _defaults(vf.calibrate_constants) == dict(size=corpus[0], seed=corpus[1],
                                                     n_samples=corpus[2])


def test_cli_verify_defaults_read_the_calibration_corpus(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(baselines, "CORPUS_SIZE", 3)
    monkeypatch.setattr(baselines, "CORPUS_SEED", 77)
    monkeypatch.setattr(baselines, "CORPUS_SAMPLES", 9)
    monkeypatch.setattr(cli, "build_corpus", lambda size, seed: calls.append((size, seed)) or [])
    monkeypatch.setattr(vf, "run_matrix", lambda corpus, n_samples, corrupt:
                        calls.append(n_samples) or vf.MatrixResult([], []))
    assert cli.run_verify({}, tmp_path, None) == cli.EXIT_OK
    assert calls == [(3, 77), 9]
    # a config or a seed still overrides the calibration corpus
    calls.clear()
    cli.run_verify({"corpus_size": "5", "samples": "17"}, tmp_path, 2)
    assert calls == [(5, 2), 17]


@pytest.mark.parametrize("n_samples", [2**k + 1 for k in range(2, 13)] + [1000])
def test_default_step_caps_on_the_unit_interval(n_samples):
    # STEP_CHANGE and EMBED_NIK take delta = None to mean their proof cap; on
    # the unit interval those caps are the binary fractions 1/16 and 1/256
    f = build_corpus(1)[0].sample(n_samples)
    step = _defaults(fs.check_step_change)
    alpha = step["alpha"]
    assert fs._step_change_cap(f, step["r"], fs.natural_order(alpha), alpha) == 1 / 16
    emb = _defaults(fs.check_embed_nikolskii)
    beta = emb["alpha"] - 1.0 / emb["p"] - (emb["alpha_p"] - 1.0 / emb["q"])
    assert fs._embed_delta_cap(f, emb["alpha"], emb["alpha_p"], beta) == 1 / 256
