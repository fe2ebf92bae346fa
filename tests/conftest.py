"""The negative control of the acceptance suite: a criterion whose checks all
fail, to show that `run_all` and `reproduce` detect failures."""

import pytest

from tensortract import acceptance


def _moved(expected, computed, tol):
    """computed moved past its tolerance, by one rule per tolerance kind."""
    if tol == "exact":
        if isinstance(computed, bool):
            return not computed
        return computed + 1 if isinstance(computed, int) else f"{computed}-perturbed"
    if tol == ">=":
        return expected - 1
    return float(computed) + 137.0 * max(float(tol), 1e-9)


@pytest.fixture
def fail_hook(monkeypatch):
    """fail_hook(cid) installs, for one test, criterion cid with every computed
    value moved past its tolerance."""
    def install(cid):
        criterion = acceptance.CRITERIA[cid]
        monkeypatch.setitem(acceptance.CRITERIA, cid, lambda: [
            (description, expected, _moved(expected, computed, tol), tol)
            for description, expected, computed, tol in criterion()])
    return install
