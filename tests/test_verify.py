import inspect
import math

import numpy as np
import pytest

from mesphase import cli, schwinger as sw, states
from mesphase.errors import InvalidTolerance
from mesphase.verify import _worst, run_suites


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites([3], "nonsense")


def test_rows_pass_iff_error_below_tolerance():
    rows = run_suites([3], "mub", tol=1e-10)
    for row in rows:
        assert row.passed == (row.max_error < 1e-10)
        assert row.runtime_ms >= 0.0
    rows = run_suites([3], "mub", tol=1e-30)
    assert any(not row.passed for row in rows)
    for row in rows:
        assert row.passed == (row.max_error < 1e-30)


def test_lines_suite_row_count_scales():
    assert len(run_suites([3], "lines")) == 12
    assert len(run_suites([5], "lines")) == 30
    assert len(run_suites([3, 5], "lines")) == 42


def test_full_sweep_is_green():
    rows = run_suites([3, 5, 7], "all", tol=1e-10, seed=0)
    assert rows and all(row.passed for row in rows)


def test_seed_changes_only_randomized_rows():
    first = run_suites([3], "mes", seed=0)
    second = run_suites([3], "mes", seed=1)
    names = [r.check for r in first]
    assert names == [r.check for r in second]
    deterministic = [
        (a.max_error, b.max_error)
        for a, b in zip(first, second)
        if "random" not in a.check and "negative" not in a.check
    ]
    assert all(a == b for a, b in deterministic)


def test_larger_dimension_smoke():
    rows = run_suites([11], "lines", tol=1e-10)
    assert len(rows) == 11 * 12
    assert all(row.passed for row in rows)


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0, 1.0, 1e300])
def test_tolerance_outside_open_unit_interval_rejected(tol):
    with pytest.raises(InvalidTolerance):
        run_suites([3], "mub", tol=tol)


def test_worst_counts_nan_as_infinite():
    assert _worst(0.25, 1e-12) == 0.25
    assert _worst(0.0, math.nan, 0.5) == math.inf
    assert _worst(np.float64(0.1), np.float64(np.nan)) == math.inf


def test_nan_in_a_later_basis_fails_the_mub_rows(monkeypatch):
    poisoned = sw.mub_stack(5).copy()
    poisoned[5][0, 0] = np.nan
    monkeypatch.setattr(sw, "mub_stack", lambda d: poisoned)
    with np.errstate(invalid="ignore"):
        rows = {row.check: row for row in run_suites([5], "mub")}
    for check in ("mub.orthonormal", "mub.unbiased"):
        assert not rows[check].passed
        assert rows[check].max_error == math.inf


def test_nan_in_a_later_basis_fails_the_mes_rows(monkeypatch):
    poisoned = sw.mub_stack(5).copy()
    poisoned[4][0, 0] = np.nan
    monkeypatch.setattr(sw, "mub_stack", lambda d: poisoned)
    with np.errstate(invalid="ignore"):
        rows = {row.check: row for row in run_suites([5], "mes")}
    for check in (
        "mes.gram",
        "mes.reduced",
        "mes.schmidt",
        "mes.completeness",
        "mes.random_projection",
        "mes.universal",
    ):
        assert not rows[check].passed
        assert rows[check].max_error == math.inf


def test_sweep_up_to_d13_is_green_with_rounding_level_errors():
    rows = run_suites([3, 5, 7, 11, 13], "all", tol=1e-10, seed=0)
    assert rows and all(row.passed for row in rows)
    assert {row.d for row in rows} == {3, 5, 7, 11, 13}
    rounding_rows = {
        "mes.random_projection",
        "collective.point_translation",
        "collective.local_action_random",
        "collective.hop_random",
        "collective.hop_example",
    }
    checked = [row for row in rows if row.check in rounding_rows]
    assert len(checked) == 5 * len(rounding_rows)
    assert all(row.max_error < 1e-14 for row in checked)


def test_one_tolerance_default():
    assert cli.DEFAULT_TOL is states.DEFAULT_TOL
    for fn in (run_suites, sw.mub_eigen_check):
        assert inspect.signature(fn).parameters["tol"].default is states.DEFAULT_TOL
