"""Matrix runner: every inequality check against every corpus function.

The canonical parameter set of each check is chosen once so that all stated
hypotheses hold on the unit-interval corpus grid (step caps, positivity of the
embedding gap, derivative availability); derivative-based checks simply skip
corpus entries without a tabulated derivative.  Calibrated constants come from
:mod:`symplap.baselines`; ``calibrate_constants`` re-measures them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import baselines
from . import function_spaces as fs
from .corpus import CorpusFunction, build_corpus, lift_to_field

#: canonical per-check keyword arguments used for the corpus run
CANONICAL_PARAMS = {
    fs.DELTA_EQ: dict(r=1, alpha=0.5, delta1=1 / 8, delta2=1 / 4, p=math.inf),
    fs.STEP_CHANGE: dict(alpha=0.5, r=2, delta=1 / 16, p=math.inf),
    fs.MARCHAUD: dict(r=2, p=math.inf),
    fs.REDUCTION: dict(beta=1, r=1, alpha=0.5, delta=1 / 4, p=math.inf),
    fs.ACCESSION: dict(beta=1, alpha=1.5, r=2, delta=1 / 8, p=math.inf),
    fs.INTERPOLATION: dict(b=0.5, alpha1=0.25, alpha2=1.25, p1=4.0, p2=4.0 / 3.0,
                           r=2, delta=1 / 16),
    fs.EMBED_SOBOLEV: dict(gamma=0.4, k=1, p=math.inf, delta=1 / 8),
    fs.EMBED_NIK: dict(alpha=0.75, p=math.inf, alpha_p=0.25, q=4.0, delta=1 / 256),
    fs.HOLDER: dict(alpha=0.75, p=4.0, delta=1 / 4),
    fs.SOBOLEV_EQ: dict(delta1=1 / 8, delta2=1 / 2, p=2.0),
}

_CALIBRATED = {fs.ACCESSION: "ACCESSION", fs.INTERPOLATION: "INTERPOLATION",
               fs.EMBED_SOBOLEV: "EMBED_SOBOLEV", fs.EMBED_NIK: "EMBED_NIK"}


@dataclass
class MatrixResult:
    rows: list            # (function name, InequalityReport)
    skipped: list         # (function name, inequality id, reason)

    @property
    def failures(self):
        return [(name, rep) for name, rep in self.rows if not rep.passed]


def _params_for(ineq_id: str, corrupt: bool) -> dict:
    params = dict(CANONICAL_PARAMS[ineq_id])
    if ineq_id in _CALIBRATED:
        params["calibrated"] = baselines.INEQUALITY_CONSTANTS[_CALIBRATED[ineq_id]]
    if corrupt and ineq_id == fs.DELTA_EQ:
        # Harness self-test: weaken the step-cap constant 3^r -> 2^r * 0.5 and
        # drop the alpha weighting so any strict seminorm gain gets flagged.
        params["constant_factor"] = 2.0 ** params["r"] * 0.5
        params["alpha"] = 0.0
    return params


def _entry_reports(entry: CorpusFunction, n_samples: int, ids, params_of):
    """Yield (inequality id, report) per check of ``ids`` on one corpus entry;
    None where the check needs a derivative the entry lacks."""
    f = entry.sample(n_samples)
    fprime = entry.sample_derivative(n_samples)
    for ineq_id in ids:
        if ineq_id in fs._NEEDS_DERIVATIVE and fprime is None:
            yield ineq_id, None
            continue
        arg = lift_to_field(entry, n_samples) if ineq_id == fs.INTERPOLATION else f
        yield ineq_id, fs.check_inequality(ineq_id, arg, fprime, **params_of(ineq_id))


def run_matrix(corpus: list[CorpusFunction], n_samples: int = 1025,
               ids=fs.INEQUALITY_IDS, corrupt: bool = False) -> MatrixResult:
    """Evaluate every applicable (check, function) pair of the corpus."""
    rows, skipped = [], []
    for entry in corpus:
        for ineq_id, rep in _entry_reports(entry, n_samples, ids,
                                           lambda i: _params_for(i, corrupt)):
            if rep is None:
                skipped.append((entry.name, ineq_id, "no tabulated derivative"))
            else:
                rows.append((entry.name, rep))
    return MatrixResult(rows=rows, skipped=skipped)


def calibrate_constants(size: int = 100, seed: int = 1234, n_samples: int = 1025,
                        headroom: float = 1.05) -> dict:
    """Re-measure the existential constants of the calibrated checks.

    Runs each calibrated check with its constant forced to one and records the
    max realized lhs/rhs ratio over the corpus (ignoring 0/0 entries), padded
    by ``headroom``.  The result is meant to be frozen into ``baselines``.
    """
    worst = dict.fromkeys(_CALIBRATED, 0.0)
    for entry in build_corpus(size, seed):
        for ineq_id, rep in _entry_reports(entry, n_samples, _CALIBRATED,
                                           lambda i: dict(CANONICAL_PARAMS[i], calibrated=1.0)):
            if rep is not None and rep.rhs > 0:
                worst[ineq_id] = max(worst[ineq_id], rep.lhs / rep.rhs)
    return {_CALIBRATED[i]: val * headroom for i, val in worst.items()}
