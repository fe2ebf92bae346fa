"""End-to-end acceptance suite: every headline value and property at its
stated tolerance, one printed pass/fail line per criterion."""

import os
import subprocess
import sys

import numpy as np
import pytest

from tensortract import acceptance
from tensortract.errors import ParameterError


def _run(criterion_id):
    rows = acceptance.run_all(only={criterion_id})
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"criterion {row.criterion_id}: {status}  {row.description} "
              f"(computed={row.computed}, expected={row.expected}, tol={row.tolerance})")
    failed = [r for r in rows if not r.passed]
    assert not failed, failed
    return rows


def test_criterion_01_min_kernel_eigenvalues():
    _run("1")


def test_criterion_02_oracle_agreement():
    _run("2")


def test_criterion_03_cosh_lambda2():
    _run("3")


def test_criterion_04_qpt_exponents():
    _run("4")


def test_criterion_05_counting_equivalence():
    rows = _run("5")
    assert rows[1].description == "weight-classes vs direct-enum mismatches"


def test_criterion_06_curse_lower_bound():
    _run("6")


def test_criterion_07_piecewise_model_closed_form():
    _run("7")


def test_criterion_08_domination():
    _run("8")


def test_criterion_09_e0_characterization():
    _run("9")


def test_criterion_10_initial_error_ratio():
    _run("10")


def test_criterion_11_density_figure():
    _run("11")


def test_criterion_12_decay_estimation():
    _run("12")


def test_criterion_13_goodcase_and_classification():
    _run("13")


def test_criterion_14_solvers_match_dense_eigvalsh():
    assert len(_run("14")) == 7


def test_fail_hook_is_a_working_negative_control(fail_hook):
    fail_hook("1")
    rows = acceptance.run_all(only={"1"})
    assert all(not r.passed for r in rows)


def test_fail_hook_fails_every_oracle_row(fail_hook):
    fail_hook("2")
    rows = acceptance.run_all(only={"2"})
    assert len(rows) == 8 and not any(r.passed for r in rows)
    assert sum("[16000, 32000]" in r.description for r in rows) == 2


@pytest.mark.parametrize("cid", list(acceptance.CRITERIA))
def test_fail_hook_fails_every_row_of_every_criterion(fail_hook, cid):
    fail_hook(cid)
    rows = acceptance.run_all(only={cid})
    assert rows and not any(r.passed for r in rows)
    assert {r.criterion_id for r in rows} == {cid}


def test_run_all_refuses_an_unknown_id():
    with pytest.raises(ParameterError, match="unknown criterion ids"):
        acceptance.run_all(only={"1", "99"})


def test_run_all_covers_every_criterion():
    rows = acceptance.run_all(only={"1", "3"})
    assert {r.criterion_id for r in rows} == {"1", "3"}


def test_gauss_legendre_table_is_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(20)
    assert acceptance._GL_NODES == nodes.tolist()
    assert acceptance._GL_WEIGHTS == weights.tolist()


def test_acceptance_import_loads_no_numpy_polynomial():
    src = os.path.dirname(os.path.dirname(acceptance.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, tensortract.acceptance; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "False"
