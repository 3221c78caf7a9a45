"""The inequality harness lives in ``symplap.inequalities``, and
``function_spaces`` re-exports it.

The acceptance tests read the check ids through ``function_spaces``, and the
benchmark tracer patches ``function_spaces._CHECKS`` in place, so every
harness name read there must be the very object the harness uses.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import symplap
import symplap.function_spaces as fs
import symplap.inequalities as iq
from symplap import verify
from symplap.corpus import build_corpus


def harness_names() -> list:
    """The names that ``inequalities`` defines at module level (not its imports)."""
    names = []
    for node in ast.parse(Path(iq.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(target.id for target in node.targets)
    return names


def test_every_harness_name_is_the_same_object_through_function_spaces():
    names = harness_names()
    assert len(names) == 35
    assert {"_CHECKS", "_NEEDS_DERIVATIVE", "INEQUALITY_IDS", "check_inequality"} <= set(names)
    assert [n for n in names if getattr(fs, n) is not getattr(iq, n)] == []


def test_a_check_patched_into_function_spaces_is_the_one_that_runs():
    entry = build_corpus(4, 1234)[0]
    f = entry.sample(65)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return iq.check_delta_equivalence(*args, **kwargs)

    with mock.patch.dict(fs._CHECKS, {fs.DELTA_EQ: spy}):
        report = iq.check_inequality(iq.DELTA_EQ, f)
        assert calls == [f]
        # one entry runs in this process, so the spy sees its call
        result = verify.run_matrix([entry], n_samples=65, ids=(iq.DELTA_EQ,))
    assert len(calls) == 2
    assert [rep.inequality_id for _, rep in result.rows] == [iq.DELTA_EQ]
    assert result.rows[0][1].lhs == report.lhs


def test_the_harness_imports_first_in_a_fresh_interpreter():
    src = str(Path(symplap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", "import symplap.inequalities"], env=env, check=True)
