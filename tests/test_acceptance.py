"""Acceptance suite: one test per criterion, exact equality everywhere.

Each test calls the shared battery function, prints one pass/fail line,
and enforces the stated runtime budget.
"""

import os
import subprocess
import sys
import time

from nilp2 import selfcheck

BUDGETS = {
    1: 5.0,
    2: 5.0,
    3: 5.0,
    4: 120.0,
    5: 10.0,
    6: 10.0,
    7: 5.0,
    8: 120.0,
    9: 1.0,
    10: 10.0,
}


def _run(check):
    start = time.perf_counter()
    result = check()
    elapsed = time.perf_counter() - start
    print(f"{result.line()}  [{elapsed:.2f}s]")
    assert result.passed, result.detail
    assert elapsed < BUDGETS[result.number], f"criterion {result.number} took {elapsed:.2f}s"
    return result


def test_criterion_01_group_axioms():
    _run(selfcheck.check_group_axioms)


def test_criterion_02_tensor_dimension_law():
    _run(selfcheck.check_tensor_dimension_law)


def test_criterion_03_capability_ground_truths():
    _run(selfcheck.check_capability_ground_truths)


def test_criterion_04_amalgam_laws():
    _run(selfcheck.check_amalgam_laws)


def test_criterion_05_capable_embedding():
    _run(selfcheck.check_capable_embedding)


def test_criterion_06_noncapable_embedding():
    _run(selfcheck.check_noncapable_embedding)


def test_criterion_07_identified_in_epicentre():
    _run(selfcheck.check_identified_in_epicentre)


def test_criterion_08_epicentre_cross_check():
    _run(selfcheck.check_epicentre_cross_check)


def test_criterion_09_cross_module_identity():
    _run(selfcheck.check_cross_module_identity)


def test_criterion_10_cli_determinism_and_roundtrip():
    start = time.perf_counter()
    result = selfcheck.check_roundtrip()
    assert result.passed, result.detail

    # The subprocess imports the same nilp2 as this test.
    src = os.path.dirname(os.path.dirname(os.path.abspath(selfcheck.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "nilp2.cli", "selftest"],
            capture_output=True,
            check=False,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
        runs.append(proc.stdout)
    assert runs[0] == runs[1], "selftest output is not byte-identical across runs"
    assert b"selftest: ok" in runs[0]
    elapsed = time.perf_counter() - start
    print(f"criterion 10 file_roundtrip+determinism: pass  [{elapsed:.2f}s]")
    assert elapsed < BUDGETS[10], f"criterion 10 took {elapsed:.2f}s"
