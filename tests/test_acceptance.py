"""Acceptance gate: every criterion runs at its stated tolerance.

Each case prints one pass/fail line; the same registry backs the
``selfsim selftest`` command, so this module and the CLI report stay in
lockstep.  See selfsim/selftest.py for the tolerances and the oracle
pairing of each criterion.
"""

import csv

import pytest

from selfsim.selftest import CASES


@pytest.mark.parametrize("case", CASES, ids=[c.case_id for c in CASES])
def test_acceptance_criterion(case):
    try:
        detail = case.fn()
    except AssertionError as exc:
        print(f"FAIL {case.case_id} {case.title}: {exc}")
        pytest.fail(f"{case.case_id} {case.title}: {exc}")
    print(f"PASS {case.case_id} {case.title}: {detail}")


def test_case_registry_covers_every_criterion_once():
    ids = [c.case_id for c in CASES]
    assert ids == [f"AC{i:02d}" for i in range(1, 16)]
    assert len(set(ids)) == len(ids)


def test_full_selftest_command_exits_zero(tmp_path, capsys):
    # criterion 15's second clause: the aggregated self-test reports success
    from selfsim.cli import main

    assert main(["selftest", "--out", str(tmp_path / "o")]) == 0
    # selftest.csv holds the printed lines as RFC 4180 rows: details with
    # commas are quoted, so every row reads back as three fields
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    with open(tmp_path / "o" / "selftest.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["case", "status", "detail"]
    assert [len(row) for row in rows] == [3] * len(CASES)
    assert [f"{'PASS' if status == 'pass' else 'FAIL'} {case} {c.title}: {detail}"
            for (case, status, detail), c in zip(rows, CASES)] == lines
