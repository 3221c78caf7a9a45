"""Matrix runner: every inequality check against every corpus function.

Each check runs at its own keyword defaults, the parameter set at which all
its stated hypotheses hold on the unit-interval corpus grid (step caps,
positivity of the embedding gap, derivative availability), except
INTERPOLATION's ``delta``: ``CANONICAL_PARAMS`` holds that one departure.
Derivative-based checks skip corpus entries without a tabulated derivative.
Calibrated constants, and the corpus they were measured on, come from
:mod:`symplap.baselines`; ``calibrate_constants`` re-measures them.

``run_matrix`` and ``calibrate_constants`` (and so ``symplap
verify-inequalities``) spread the corpus entries over the CPUs the process may
use, on ``fork`` workers, one per CPU.  Where ``fork`` is unavailable, or
there is only one CPU, they run serially.  Each entry runs the same code on
the same inputs either way, so the outputs depend neither on the worker count
nor on the BLAS thread count.  ``taskset`` limits it: ``taskset -c 0 symplap
verify-inequalities ...`` runs serially.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import baselines
from . import function_spaces as fs
from .corpus import CorpusFunction, build_corpus, lift_to_field

#: where the corpus run departs from a check's own keyword defaults, which
#: every other check takes as they are.  The frozen INTERPOLATION constant
#: belongs to the step cap delta = 1/16, not to the check's default 1/8.
CANONICAL_PARAMS = {fs.INTERPOLATION: dict(delta=1 / 16)}

_CALIBRATED = tuple(baselines.INEQUALITY_CONSTANTS)


@dataclass
class MatrixResult:
    rows: list            # (function name, InequalityReport)
    skipped: list         # (function name, inequality id, reason)

    @property
    def failures(self):
        return [(name, rep) for name, rep in self.rows if not rep.passed]


def _params_for(ineq_id: str, corrupt: bool) -> dict:
    params = dict(CANONICAL_PARAMS.get(ineq_id, {}))
    if ineq_id in _CALIBRATED:
        params["calibrated"] = baselines.INEQUALITY_CONSTANTS[ineq_id]
    if corrupt and ineq_id == fs.DELTA_EQ:
        # Harness self-test: at r = 1, weaken the step-cap constant 3^r -> 2^r * 0.5
        # and drop the alpha weighting so any strict seminorm gain gets flagged.
        params.update(r=1, alpha=0.0, constant_factor=2.0 ** 1 * 0.5)
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


#: the per-entry function of the pool that forked this worker (set in the worker)
_forked_work = None


def _adopt(work) -> None:
    global _forked_work
    _forked_work = work


def _run_forked(index: int) -> list:
    return _forked_work(index)


def _map_entries(corpus: list[CorpusFunction], n_samples: int, ids, params_of) -> list:
    """``list(_entry_reports(entry, ...))`` for each entry, in corpus order.

    The entries run on ``fork`` workers, one per CPU that the process may use
    (``os.sched_getaffinity``, else ``os.cpu_count``) and at most one per
    entry; with fewer than two workers they run here.  A worker keeps the
    caller's BLAS thread count; no output depends on it, and the BLAS calls
    of an entry are too small to keep a second thread busy.  The workers
    inherit the corpus and ``params_of`` through the fork, so neither is
    pickled: a task is an entry index and its result that entry's list.  The
    results come back in corpus order, so the first error in that order
    reaches the caller with the serial loop's type and message.  The workers
    are joined before this returns or raises.
    """
    def work(index: int) -> list:
        return list(_entry_reports(corpus[index], n_samples, ids, params_of))

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(len(corpus), cpus)
    if workers >= 2:
        # imported here: about 25 ms that a serial call never needs
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        # a daemonic worker of another pool may not start processes
        if "fork" in mp.get_all_start_methods() and not mp.current_process().daemon:
            pool = ProcessPoolExecutor(workers, mp_context=mp.get_context("fork"),
                                       initializer=_adopt, initargs=(work,))
            try:
                return list(pool.map(_run_forked, range(len(corpus))))
            finally:
                pool.shutdown(cancel_futures=True)
    return [work(index) for index in range(len(corpus))]


def run_matrix(corpus: list[CorpusFunction], n_samples: int = baselines.CORPUS_SAMPLES,
               ids=fs.INEQUALITY_IDS, corrupt: bool = False) -> MatrixResult:
    """Evaluate every applicable (check, function) pair of the corpus; an
    unknown id raises ``check_inequality``'s ``ValueError`` before any entry runs."""
    for ineq_id in ids:
        fs._checker(ineq_id)
    rows, skipped = [], []
    reports = _map_entries(corpus, n_samples, ids, lambda i: _params_for(i, corrupt))
    for entry, entry_reports in zip(corpus, reports):
        for ineq_id, rep in entry_reports:
            if rep is None:
                skipped.append((entry.name, ineq_id, "no tabulated derivative"))
            else:
                rows.append((entry.name, rep))
    return MatrixResult(rows=rows, skipped=skipped)


def calibrate_constants(size: int = baselines.CORPUS_SIZE, seed: int = baselines.CORPUS_SEED,
                        n_samples: int = baselines.CORPUS_SAMPLES) -> dict:
    """Re-measure the existential constants of the calibrated checks.

    Runs each calibrated check with its constant forced to one and records the
    max realized lhs/rhs ratio over the corpus (ignoring entries with rhs 0),
    padded by ``baselines.CALIBRATION_HEADROOM``.  The result is meant to be
    frozen into ``baselines``.  Raises ``ValueError`` naming each check for
    which no entry gave a positive rhs: it measured nothing to freeze.
    """
    worst = {}
    for entry_reports in _map_entries(build_corpus(size, seed), n_samples, _CALIBRATED,
                                      lambda i: dict(CANONICAL_PARAMS.get(i, {}), calibrated=1.0)):
        for ineq_id, rep in entry_reports:
            if rep is not None and rep.rhs > 0:
                worst[ineq_id] = max(worst.get(ineq_id, 0.0), rep.lhs / rep.rhs)
    unmeasured = [i for i in _CALIBRATED if i not in worst]
    if unmeasured:
        raise ValueError(f"no corpus entry gave a positive rhs for {', '.join(unmeasured)}")
    return {i: worst[i] * baselines.CALIBRATION_HEADROOM for i in _CALIBRATED}
