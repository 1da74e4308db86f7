"""Shared fixtures; collects acceptance verdicts for the summary block."""

import pytest

from invarc import numeric

_VERDICTS = []

# A row whose Ziv loop goes past this multiple of its starting precision
# fails.  No correct row has needed a retry at the 96 guard bits, and the
# 32-bit retry test needs one doubling; a defect that keeps a column's
# bracket from ever closing would otherwise retry at ever larger P.
ZIV_PRECISION_CAP = 4


@pytest.fixture(autouse=True, scope="session")
def ziv_retry_cap():
    """Wrap numeric._fixed_point_row for every test so that a row fails once
    its P passes ZIV_PRECISION_CAP times the P it started at.  _exact_row
    retries one row at ever larger P, so a call for another lambda^2, or at
    a P no larger than the last, starts a new row."""
    fixed_point_row = numeric._fixed_point_row
    row = {}

    def capped(lam, X, s, P):
        if row.get("key") != (X, s) or P <= row["P"]:
            row.update(key=(X, s), start=P)
        row["P"] = P
        if P > ZIV_PRECISION_CAP * row["start"]:
            pytest.fail(
                f"lambda {lam!r}: Ziv retry at P = {P}, past "
                f"{ZIV_PRECISION_CAP} x the starting P = {row['start']}"
            )
        return fixed_point_row(lam, X, s, P)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numeric, "_fixed_point_row", capped)
        yield


@pytest.fixture
def verdict():
    """Record one acceptance-criterion outcome before its assert fires."""

    def record(number: int, label: str, passed: bool, note: str = "") -> None:
        _VERDICTS.append((number, label, passed, note))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed, note in sorted(_VERDICTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:02d} {label}: {status}"
        if note:
            line += f" ({note})"
        terminalreporter.write_line(line)
