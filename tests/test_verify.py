"""Constant calibration of the check matrix, its corpus and id inputs, and its spread
over forked workers."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symplap.function_spaces as fs
import symplap.verify as vf
from symplap import baselines
from symplap.corpus import build_corpus, lift_to_field
from symplap.errors import EmptyDomainError
from symplap.verify import calibrate_constants, run_matrix

FORK = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                          reason="the matrix runs serially without fork")


def test_calibrate_constants_small_corpus_within_frozen():
    measured = calibrate_constants(size=8)
    assert set(measured) == {"ACCESSION", "INTERPOLATION", "EMBED_SOBOLEV", "EMBED_NIK"}
    for name, value in measured.items():
        assert 0.0 < value <= baselines.INEQUALITY_CONSTANTS[name], name


def test_calibration_of_no_entry_names_every_check():
    # an empty corpus measures no ratio; frozen, a constant of 0.0 would fail every row
    with pytest.raises(ValueError, match="no corpus entry gave a positive rhs") as exc:
        calibrate_constants(size=0)
    for name in baselines.INEQUALITY_CONSTANTS:
        assert name in str(exc.value)


def test_an_unknown_id_fails_before_any_entry_runs(monkeypatch):
    def no_entries(*args):
        raise AssertionError("the corpus entries ran")

    monkeypatch.setattr(vf, "_map_entries", no_entries)
    for ids in (["NOPE"], [fs.DELTA_EQ, "NOPE"]):
        with pytest.raises(ValueError, match="^unknown inequality id 'NOPE'$"):
            run_matrix(build_corpus(2, 1234), 257, ids=ids)


@pytest.mark.parametrize("size", [-1, 2.0])
def test_corpus_size_is_an_integer_of_at_least_zero(size):
    with pytest.raises(ValueError, match=f"^corpus size must be an integer >= 0, got {size}$"):
        build_corpus(size)
    assert build_corpus(0) == []


@pytest.mark.parametrize("n_samples", [1, 0, 2.0])
def test_unit_grid_needs_two_samples(n_samples):
    entry = build_corpus(1, 1234)[0]
    message = f"^n_samples must be an integer >= 2, got {n_samples}$"
    for call in (entry.sample, entry.sample_derivative, lambda n: lift_to_field(entry, n),
                 lambda n: run_matrix([entry], n_samples=n)):
        with pytest.raises(ValueError, match=message):
            call(n_samples)


@pytest.mark.parametrize("seed", [1, 2])
def test_frozen_constants_hold_on_held_out_corpora(seed):
    # the constants were calibrated on the seed-1234 corpus; they are a
    # regression contract, so every seed of this fixed range must pass
    result = run_matrix(build_corpus(100, seed))
    assert not result.failures


def _serial_matrix(corpus, n_samples, corrupt):
    """The plain per-entry loop: (rows, skipped) as run_matrix lays them out."""
    rows, skipped = [], []
    for entry in corpus:
        for ineq_id, rep in vf._entry_reports(entry, n_samples, fs.INEQUALITY_IDS,
                                              lambda i: vf._params_for(i, corrupt)):
            if rep is None:
                skipped.append((entry.name, ineq_id, "no tabulated derivative"))
            else:
                rows.append((entry.name, rep))
    return rows, skipped


def _bits(rows):
    return np.array([[rep.lhs, rep.rhs, rep.constant_used] for _, rep in rows]).view(np.uint64)


def _cpus(monkeypatch, count, blas_threads=1):
    """Let the matrix see ``count`` usable CPUs and ``blas_threads`` BLAS threads
    in the environment, and count the entries it runs in this process (a forked
    worker counts in its own copy)."""
    monkeypatch.setattr(vf.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(blas_threads))
    in_process = []
    entry_reports = vf._entry_reports

    def counted(entry, *args):
        in_process.append(entry.name)
        return entry_reports(entry, *args)

    monkeypatch.setattr(vf, "_entry_reports", counted)
    return in_process


# two sinusoids, two polynomials, two kinks (no derivative) and two lacunary series
SMALL = build_corpus(8, 1234)


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("cpus, blas_threads, forked", [
    pytest.param(2, 1, True, marks=FORK),
    (1, 1, False),
    pytest.param(2, 2, True, marks=FORK),  # the BLAS thread count leaves the workers alone
])
def test_matrix_equals_the_per_entry_loop_bit_for_bit(corrupt, cpus, blas_threads, forked,
                                                      monkeypatch):
    rows, skipped = _serial_matrix(SMALL, 257, corrupt)
    assert skipped and any(not rep.passed for _, rep in rows) == corrupt
    in_process = _cpus(monkeypatch, cpus, blas_threads)
    result = run_matrix(SMALL, n_samples=257, corrupt=corrupt)
    assert in_process == ([] if forked else [e.name for e in SMALL])
    assert [(name, rep.inequality_id) for name, rep in result.rows] == \
        [(name, rep.inequality_id) for name, rep in rows]
    assert result.skipped == skipped
    assert np.array_equal(_bits(result.rows), _bits(rows))


@FORK
def test_forked_calibration_equals_the_serial_one(monkeypatch):
    in_process = _cpus(monkeypatch, 1)
    one = calibrate_constants(size=6, n_samples=257)
    assert len(in_process) == 6
    in_process = _cpus(monkeypatch, 2)
    two = calibrate_constants(size=6, n_samples=257)
    assert in_process == []
    assert list(one) == list(two)
    assert np.array_equal(np.array(list(one.values())).view(np.uint64),
                          np.array(list(two.values())).view(np.uint64))


@FORK
def test_a_worker_error_reaches_the_caller_as_the_serial_one(monkeypatch):
    corpus = build_corpus(4, 1234)
    with pytest.raises(EmptyDomainError) as serial:
        _serial_matrix(corpus, 9, False)
    in_process = _cpus(monkeypatch, 2)
    run_matrix(corpus[:2], n_samples=257)
    assert multiprocessing.active_children() == []
    with pytest.raises(EmptyDomainError) as forked:
        run_matrix(corpus, n_samples=9)
    assert str(forked.value) == str(serial.value)
    assert multiprocessing.active_children() == []
    assert in_process == []


def _matrix_rows(entries: int) -> list:
    return [(name, rep.inequality_id) for name, rep in run_matrix(SMALL[:entries], 257).rows]


@FORK
def test_a_worker_of_another_pool_runs_the_matrix_serially(monkeypatch):
    # a daemonic process may not start processes of its own
    _cpus(monkeypatch, 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(_matrix_rows, (4,)) == _matrix_rows(4)



_INTERPOLATION_REPORTS = """
import json
import symplap.function_spaces as fs
from symplap import verify
from symplap.corpus import build_corpus
reports = [rep for entry in build_corpus(4, 1234)
           for _, rep in verify._entry_reports(entry, 1025, [fs.INTERPOLATION],
                                               lambda i: verify._params_for(i, False))]
print(json.dumps([[rep.lhs, rep.rhs] for rep in reports]))
"""


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.mark.skipif(_usable_cpus() < 2, reason="two BLAS threads need two usable CPUs")
def test_interpolation_reports_do_not_depend_on_the_blas_thread_count():
    # a randomized row-space finder once ran a 1025 x 128 by 1025 x 8 product
    # in threaded BLAS, and 3 of these 4 lifted fields moved at two threads
    src = str(Path(fs.__file__).parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _INTERPOLATION_REPORTS], env=env,
                             capture_output=True, text=True, check=True).stdout
        reports.append(np.array(json.loads(out)))
    assert reports[0].shape == (4, 2)
    assert np.array_equal(reports[0].view(np.uint64), reports[1].view(np.uint64))
