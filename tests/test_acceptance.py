"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (run pytest with -s or check the
captured output) and fails the suite if the criterion fails.  The same
criteria back the `cnls selftest` command.
"""

import pytest

import cnls.acceptance
from cnls.acceptance import CRITERIA, run_criterion


@pytest.mark.parametrize("cid,name", [(c[0], c[1]) for c in CRITERIA])
def test_criterion(cid, name):
    res = run_criterion(cid)
    status = "PASS" if res.passed else "FAIL"
    print(f"{status} {res.cid} {res.name} [{res.seconds:.2f}s/{res.budget:.0f}s]: {res.detail}")
    assert res.passed, f"criterion {cid} ({name}): {res.detail}"


def test_a_pass_over_budget_is_a_failure(monkeypatch):
    monkeypatch.setattr(cnls.acceptance, "CRITERIA",
                        (("99", "trivial", lambda: (True, "ok"), 0.0),))
    res = run_criterion("99")
    assert res.passed is False
    assert res.detail.startswith("ok") and "exceeded budget" in res.detail
