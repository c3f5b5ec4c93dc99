import gc
import inspect
import math
import random
import re
import time
import weakref
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

import mesphase
from mesphase import cli, collective as co, errors, lines as li, mes as me, schwinger as sw, states, verify
from mesphase.errors import FactorizationFailed, InvalidDimension, InvalidTolerance
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
        "collective.point_translation",
        "collective.local_action_random",
        "collective.hop_random",
        "collective.hop_example",
    }
    checked = [row for row in rows if row.check in rounding_rows]
    assert len(checked) == 5 * len(rounding_rows)
    assert all(row.max_error < 1e-14 for row in checked)
    # mes.random_projection reports a certified bound; its dense value stays
    # below 1e-14 (test_certificate_dominates_the_dense_rows_for_every_diagonal_basis)
    projection = [row for row in rows if row.check == "mes.random_projection"]
    assert len(projection) == 5 and all(row.max_error < 1e-12 for row in projection)


def test_one_tolerance_default():
    assert cli.DEFAULT_TOL is states.DEFAULT_TOL
    # every public function and class with a tol default, the error classes aside
    defaults = {}
    for name, obj in vars(mesphase).items():
        if name in mesphase.__all__ and callable(obj) and name not in errors.__all__:
            tol = inspect.signature(obj).parameters.get("tol")
            if tol is not None and tol.default is not inspect.Parameter.empty:
                defaults[name] = tol.default
    assert set(defaults) == {
        "run_suites",
        "schmidt_inversion_check",
        "mub_from_lines",
        "line_factor_table",
        "build_relabeling",
        "diagonalizer_for",
        "equal_up_to_global_phase",
        "phase_canonical",
        "UnitaryOp",
        "DensityOp",
    }
    for name, default in defaults.items():
        assert default is states.DEFAULT_TOL, name


def test_nan_in_the_point_basis_fails_the_lines_and_mub_rows_closed(monkeypatch):
    poisoned = li.point_basis(5, False).copy()
    poisoned[7, 3] = np.nan
    monkeypatch.setattr(li, "point_basis", lambda d, plus: poisoned)
    with np.errstate(invalid="ignore"):
        lines_rows = run_suites([5], "lines")
        mub_rows = {row.check: row for row in run_suites([5], "mub")}
        all_rows = run_suites([5], "all")
    failing = [row for row in lines_rows if not row.passed]
    # the poisoned point lies on d+1 = 6 of the 30 lines
    assert len(lines_rows) == 30 and len(failing) == 6
    assert all(row.max_error == math.inf for row in failing)
    assert not mub_rows["mub.lines_family_match"].passed
    assert all(
        row.max_error == math.inf for row in mub_rows.values() if not row.passed
    )
    # one factoring shared by both suites fails the same rows
    failing_all = [(row.check, row.params, row.max_error) for row in all_rows if not row.passed]
    assert failing_all == [("mub.lines_family_match", "", math.inf)] + [
        (row.check, row.params, math.inf) for row in failing
    ]


def test_nan_in_the_cb_mes_stack_fails_the_collective_rows_closed(monkeypatch):
    mes_stack = me.mes_stack

    def poisoned(d, b, b_prime):
        stack = mes_stack(d, b, b_prime).copy()
        stack[:, 0] = np.nan
        return stack

    monkeypatch.setattr(me, "mes_stack", poisoned)
    with np.errstate(invalid="ignore"):
        rows = {row.check: row for row in run_suites([5], "collective")}
    failing = {check for check, row in rows.items() if not row.passed}
    assert failing == {"collective.cb_mes_factorization", "collective.local_action_random"}
    assert all(rows[check].max_error == math.inf for check in failing)


def test_run_suites_keeps_no_mes_stack_alive(monkeypatch):
    summed, mes_amplitudes = [], me._mes_amplitudes

    def tracked(*args):
        total = mes_amplitudes(*args)
        summed.append(weakref.ref(total))
        return total

    monkeypatch.setattr(me, "_mes_amplitudes", tracked)
    assert all(row.passed for row in run_suites([5]))
    gc.collect()
    # a stack or state is a view of its sum, so no freed sum is still in use
    assert summed and [ref for ref in summed if ref() is not None] == []


def test_nan_universal_amplitude_fails_only_the_local_action_shift_row(monkeypatch):
    universal = me._universal_amplitudes

    def poisoned(d, b):
        amplitudes = universal(d, b).copy()
        amplitudes[1] = np.nan
        return amplitudes

    monkeypatch.setattr(me, "_universal_amplitudes", poisoned)
    with np.errstate(invalid="ignore"):
        rows = {row.check: row for row in run_suites([5], "collective")}
    failing = {check for check, row in rows.items() if not row.passed}
    assert failing == {"collective.local_action_shift"}
    assert rows["collective.local_action_shift"].max_error == math.inf


# -- the streamed MES suite against the whole-list one ---------------------------


def rows_oracle(d, tol, entries):
    """Each (check, params, errors) entry run once, in order, one row each."""
    rows = []
    for check, params, errors in entries:
        start = time.perf_counter()
        try:
            err = float(_worst(0.0, *errors()))
        except (np.linalg.LinAlgError, FactorizationFailed):
            err = math.inf
        ms = (time.perf_counter() - start) * 1000.0
        rows.append(verify.VerificationReport(check, d, params, err, err < tol, ms))
    return rows


def dense_schmidt(d, stack):
    """(deviation, rounding): the largest distance of a computed Schmidt
    coefficient of any row of ``stack`` from 1/sqrt d, and a bound on how
    far the exact distance lies from it.  A float SVD cannot resolve the
    certified bound on an exact stack, about 1e-16, so a bound is checked
    against deviation - rounding.

    Each d x d amplitude matrix M has the float SVD U diag(s) V^+.  The exact
    singular values of U diag(s) V^+ lie within s_i (eta_U + eta_V) of s_i,
    eta_X = ||X X^+ - I||_2, since sigma_i(X Y) lies between
    sigma_min(X) sigma_i(Y) and ||X||_2 sigma_i(Y); by Weyl's inequality
    those of M lie within ||R||_2 of them, R = M - U diag(s) V^+.  R and
    each X X^+ - I are complex matmuls of inner dimension d, computed within
    c |X| |Y| entrywise, c = sqrt(2) gamma_(2d+2) as in
    verify._closed_form_bounds, one more for the scaling by s.  1/sqrt d,
    each |s_i - 1/sqrt d| and a difference deviation - rounding are
    computed within gamma_4 (1/sqrt d + |s_i - 1/sqrt d|) of their exact
    values, and every other step, the norms among them, scales a
    nonnegative quantity by at most 1 + gamma_N, N = 4 d^2 + 8."""
    m = stack.reshape(-1, d, d)
    u, s, vh = np.linalg.svd(m)
    c = math.sqrt(2) * verify._gamma(2 * d + 2)
    frobenius = lambda a: np.linalg.norm(a, axis=(-2, -1))
    residual = frobenius(m - u @ (s[..., None] * vh)) + c * frobenius(np.abs(u) @ (s[..., None] * np.abs(vh)))
    eta = sum(frobenius(x @ x.conj().swapaxes(-1, -2) - np.eye(d)) + c * frobenius(x) ** 2 for x in (u, vh))
    deviations = np.abs(s - 1 / np.sqrt(d))
    rounding = residual[:, None] + s * eta[:, None] + verify._gamma(4) * (1 / math.sqrt(d) + deviations)
    return float(deviations.max()), float(rounding.max()) / (1 - verify._gamma(4 * d * d + 8))


def suite_mes_oracle(d, tol, rng):
    """The MES suite with all d+1 basis stacks held at once, each row a pass
    over the whole list, the reduced operators taken once per row; its
    mes.schmidt row reads the least exact distance :func:`dense_schmidt`
    allows."""
    stacks = [me.mes_stack(d, label, label) for label in sw.BasisLabel.all_labels(d)]

    def random_projection():
        real = [[rng.gauss(0.0, 1.0) for _ in range(d)] for _ in range(200)]
        imag = [[rng.gauss(0.0, 1.0) for _ in range(d)] for _ in range(200)]
        alphas = np.array(real) + 1j * np.array(imag)
        alphas /= np.linalg.norm(alphas, axis=1, keepdims=True)
        for v in stacks:
            for rhos in states.reduced_operators(v.reshape(-1, d, d)):
                # the outer products built again for every stack
                outer = (alphas.conj()[:, :, None] * alphas[:, None, :]).reshape(-1, d * d)
                yield np.abs(rhos.reshape(-1, d * d) @ outer.T - 1 / d).max()

    def negative_controls():
        accepted = 0
        for _ in range(20):
            real = [rng.gauss(0.0, 1.0) for _ in range(d * d)]
            imag = [rng.gauss(0.0, 1.0) for _ in range(d * d)]
            vec = np.array(real) + 1j * np.array(imag)
            accepted += states.mes_deviation(states.Ket.normalized(vec)) < tol
        return [accepted / 20.0]

    def universal():
        kets = [me._universal_amplitudes(d, label) for label in sw.BasisLabel.all_labels(d)]
        return (1.0 - abs(np.vdot(a, b)) for a, b in combinations(kets, 2))

    entries = [
        ("mes.gram", "b'=b, all b", lambda: map(states._gram_deviation, stacks)),
        (
            "mes.reduced",
            "identity/d both particles",
            lambda: map(states._reduced_deviation, stacks),
        ),
        (
            "mes.schmidt",
            "all coefficients 1/sqrt(d)",
            lambda: (deviation - rounding for deviation, rounding in (dense_schmidt(d, v) for v in stacks)),
        ),
        (
            "mes.completeness",
            "sum of projectors",
            lambda: (np.abs(v.T @ v.conj() - np.eye(d * d)).max() for v in stacks),
        ),
        ("mes.random_projection", "200 states", random_projection),
        ("mes.negative_controls", "20 random states", negative_controls),
        ("mes.universal", "all d+1 bases", universal),
    ]
    if d == 3:
        entries.append(("mes.relabeling", "worked 3-level example", verify._relabeling_errors))
    return rows_oracle(d, tol, entries)


def mub_eigenrelation_oracle(d, tol):
    """The mub.eigenrelation row as d^2 calls of the public
    ``mub_eigen_residual``, one per (b, m)."""
    residuals = lambda: (sw.mub_eigen_residual(d, b, m) for b in range(d) for m in range(d))
    return rows_oracle(d, tol, [("mub.eigenrelation", "", residuals)])


def _compared(rows):
    return [(r.check, r.d, r.params, r.max_error, r.passed) for r in rows]


# the rows that report the bounds of verify._closed_form_bounds or those
# derived from them by verify._reduced_bounds, not dense values
CERTIFIED_ROWS = {"mes.gram", "mes.reduced", "mes.schmidt", "mes.completeness", "mes.random_projection"}


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_stacked_eigenrelation_equals_the_per_state_oracle(d):
    loop = [sw.mub_eigen_residual(d, b, m) for b in range(d) for m in range(d)]
    assert np.array_equal(sw._eigen_residuals(d), loop)
    rows = [row for row in run_suites([d], "mub") if row.check == "mub.eigenrelation"]
    assert _compared(rows) == _compared(mub_eigenrelation_oracle(d, states.DEFAULT_TOL))


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13, 17])
@pytest.mark.parametrize("seed", [0, 5, 12345])
def test_streamed_mes_suite_equals_whole_list_oracle(d, seed):
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    rows = verify.suite_mes(d, states.DEFAULT_TOL, rng)
    expected = suite_mes_oracle(d, states.DEFAULT_TOL, oracle_rng)
    # check, d, params and pass equal row by row
    assert [r[:3] + r[4:] for r in _compared(rows)] == [r[:3] + r[4:] for r in _compared(expected)]
    for row, dense in zip(rows, expected):
        if row.check in CERTIFIED_ROWS:
            # the certified bound dominates the dense value it replaces
            assert dense.max_error <= row.max_error < 1e-11
        else:
            assert row.max_error == dense.max_error
    # the rows after the MES suite draw from the same stream
    assert rng.getstate() == oracle_rng.getstate()
    assert all(row.runtime_ms >= 0.0 for row in rows)


@pytest.mark.parametrize("label", [sw.CB, sw.BasisLabel(0), sw.BasisLabel(4)])
def test_nan_in_one_streamed_basis_fails_the_rows_the_oracle_fails(monkeypatch, label):
    mes_stack = me.mes_stack

    def poisoned(d, b, b_prime):
        stack = mes_stack(d, b, b_prime)
        if b != label:
            return stack
        stack = stack.copy()
        stack[7, 3] = np.nan
        return stack

    monkeypatch.setattr(me, "mes_stack", poisoned)
    with np.errstate(invalid="ignore"):
        rows = verify.suite_mes(5, states.DEFAULT_TOL, random.Random(0))
        expected = suite_mes_oracle(5, states.DEFAULT_TOL, random.Random(0))
    assert _compared(rows) == _compared(expected)
    failing = {row.check for row in rows if not row.passed}
    assert failing == {
        "mes.gram",
        "mes.reduced",
        "mes.schmidt",
        "mes.completeness",
        "mes.random_projection",
    }
    assert all(row.max_error == math.inf for row in rows if not row.passed)


def test_suite_mes_takes_reduced_operators_once_for_the_negative_controls(monkeypatch):
    calls = []
    reduced_operators = states.reduced_operators

    def counted(amplitudes):
        calls.append(amplitudes.shape)
        return reduced_operators(amplitudes)

    monkeypatch.setattr(states, "reduced_operators", counted)
    monkeypatch.setattr(verify, "reduced_operators", counted)
    rows = verify.suite_mes(7, states.DEFAULT_TOL, random.Random(0))
    assert all(row.passed for row in rows)
    # the 20 random states of mes.negative_controls, and no MES basis
    assert calls == [(20, 7, 7)]


# -- the MES certificate against the dense rows it replaces ------------------------


def dense_mes_deviations(d, stack):
    """The dense forms of mes.gram, mes.completeness and mes.schmidt, and
    the rounding of the last: the Gram deviation, |V^T conj(V) - I| and the
    (deviation, rounding) of :func:`dense_schmidt`."""
    return (
        states._gram_deviation(stack),
        np.abs(stack.T @ stack.conj() - np.eye(d * d)).max(),
        *dense_schmidt(d, stack),
    )


def suite_states(d, seed=0):
    """The 200 states of mes.random_projection, drawn as suite_mes draws them."""
    rng = random.Random(seed)
    draws = [[[rng.gauss(0.0, 1.0) for _ in range(d)] for _ in range(200)] for _ in range(2)]
    alphas = np.array(draws[0]) + 1j * np.array(draws[1])
    return alphas / np.linalg.norm(alphas, axis=1, keepdims=True)


def dense_reduced_deviations(d, stack, alphas):
    """The dense forms of mes.reduced and mes.random_projection: the largest
    deviation of either reduced operator from I/d, and of <a|rho|a> from
    1/d over them and the rows a of ``alphas``."""
    rhos = np.concatenate(states.reduced_operators(stack.reshape(-1, d, d)))
    outer = (alphas.conj()[:, :, None] * alphas[:, None, :]).reshape(-1, d * d)
    projections = rhos.reshape(-1, d * d) @ outer.T
    return states._reduced_deviation(stack), _worst(np.abs(projections - 1 / d).max())


def certified(d, b, b_prime, stack=None, alphas=None):
    """The bounds (gram, schmidt, reduced, projection) of the MES basis of
    (b, b'), or of ``stack`` in its place, projected onto ``alphas`` or the
    suite's states, after asserting that each dominates its dense value and
    so fails each row that the dense value fails."""
    stack = me.mes_stack(d, b, b_prime) if stack is None else stack
    alphas = suite_states(d) if alphas is None else alphas
    gram, schmidt, _ = verify._closed_form_bounds(d, stack, *me._mes_table(d, b, b_prime))
    reduced, projection = verify._reduced_bounds(d, schmidt, alphas)
    gram_deviation, completeness, schmidt_deviation, rounding = dense_mes_deviations(d, stack)
    dense = (gram_deviation, completeness, schmidt_deviation - rounding)
    dense += dense_reduced_deviations(d, stack, alphas)
    for value, bound in zip(dense, (gram, gram, schmidt, reduced, projection)):
        assert value <= bound
    return gram, schmidt, reduced, projection


@pytest.mark.parametrize("d", [3, 5])
def test_certificate_dominates_the_dense_rows_for_every_pair(d):
    labels = sw.BasisLabel.all_labels(d)
    for b in labels:
        for b_prime in labels:
            stack = me.mes_stack(d, b, b_prime)
            # a pair with one cb has full support: it has no closed form on a
            # graph, and verify certifies no such basis, so only its dense
            # values are checked
            if b.is_cb == b_prime.is_cb:
                assert max(certified(d, b, b_prime, stack)) < 1e-12
            else:
                with pytest.raises(ValueError):
                    me._mes_table(d, b, b_prime)
                gram, completeness, schmidt, rounding = dense_mes_deviations(d, stack)
                assert max(gram, completeness, schmidt + rounding) < 1e-12
            assert max(dense_reduced_deviations(d, stack, suite_states(d))) < 1e-14


def closed_form_oracle(d, order, fixed, base, slope):
    """The dense stack of the integer tables: row order[s, x] is
    w^(base + x slope) / sqrt d where fixed = s and 0 elsewhere, built one
    row at a time."""
    table = sw.omega_powers(d) / np.sqrt(d)
    stack = np.full((d * d, d * d), np.nan, dtype=complex)
    for s in range(d):
        for x in range(d):
            stack[order[s, x]] = np.where(fixed == s, table[(base + x * slope) % d], 0)
    return stack


def _covered_pairs(d):
    labels = sw.BasisLabel.all_labels(d)
    return [(b, b_prime) for b in labels for b_prime in labels if b.is_cb == b_prime.is_cb]


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_closed_form_equals_the_mes_sum(d):
    # every covered pair up to d=7, every diagonal pair beyond
    pairs = _covered_pairs(d) if d <= 7 else [(b, b) for b in sw.BasisLabel.all_labels(d)]
    for b, b_prime in pairs:
        tables = me._mes_table(d, b, b_prime)
        closed = closed_form_oracle(d, *tables)
        assert np.abs(closed - me.mes_stack(d, b, b_prime)).max() <= 1e-15
        # the closed form is exactly the stack whose bounds carry no Delta term
        gram, schmidt, exact = verify._closed_form_bounds(d, closed, *tables)
        assert exact and 0.0 < schmidt < 1e-15 and 0.0 < gram < 1e-12


@pytest.mark.parametrize("d", [7, 11, 13, 17])
def test_certificate_dominates_the_dense_rows_for_every_diagonal_basis(d):
    for label in sw.BasisLabel.all_labels(d):
        stack = me.mes_stack(d, label, label)
        bounds = certified(d, label, label, stack)
        assert max(bounds) < (1e-12 if d <= 13 else 1e-11)
        # the dense values of the two derived rows stay at rounding level
        assert max(dense_reduced_deviations(d, stack, suite_states(d))) < 1e-14


FAULT_SIZES = [1e-13, 1e-9, 1e-6, 1e-2]


@pytest.mark.parametrize("label", [sw.CB, sw.BasisLabel(2)])
@pytest.mark.parametrize("delta", FAULT_SIZES)
def test_certificate_covers_one_faulty_element(label, delta):
    stack = me.mes_stack(7, label, label).copy()
    stack[3 * 7 + 5, 11] += delta
    certified(7, label, label, stack)


@pytest.mark.parametrize("delta", FAULT_SIZES)
def test_certificate_covers_noise_over_a_whole_q_block(delta):
    # incoherent noise of entry size delta: its Frobenius norm over the block,
    # not its largest entry, bounds what it does to the Schmidt coefficients
    d, label = 13, sw.BasisLabel(4)
    rng = np.random.default_rng(3)
    stack = me.mes_stack(d, label, label).copy()
    noise = rng.normal(size=(2, d, d * d)) * delta / np.sqrt(2)
    stack[5 * d : 6 * d] += noise[0] + 1j * noise[1]
    certified(d, label, label, stack)


@pytest.mark.parametrize("label", [sw.CB, sw.BasisLabel(2)])
@pytest.mark.parametrize("delta", FAULT_SIZES)
def test_certificate_covers_one_scaled_row(label, delta):
    stack = me.mes_stack(7, label, label).copy()
    stack[4 * 7 + 1] *= 1 + delta
    gram = certified(7, label, label, stack)[0]
    assert gram >= 2 * delta + delta**2


@pytest.mark.parametrize("label", [sw.CB, sw.BasisLabel(2)])
@pytest.mark.parametrize("delta", FAULT_SIZES)
def test_certificate_covers_one_shifted_schmidt_coefficient(label, delta):
    # a rank-one fault along the top Schmidt pair of one state moves that
    # coefficient by delta and both reduced operators by 2 delta/sqrt(d) +
    # delta^2: the Schmidt bound is near tight, so each derived bound is too
    d, row = 7, 3 * 7 + 5
    stack = me.mes_stack(d, label, label).copy()
    u, _, vh = np.linalg.svd(stack[row].reshape(d, d))
    stack[row] += delta * np.outer(u[:, 0], vh[0]).ravel()
    schmidt, reduced = certified(d, label, label, stack)[1:3]
    assert schmidt < 2 * delta + 1e-12 and reduced < 2 * (2 * delta / math.sqrt(d) + delta**2) + 1e-12


@pytest.mark.parametrize("label", [sw.CB, sw.BasisLabel(2)])
@pytest.mark.parametrize("delta", FAULT_SIZES)
def test_projection_bound_covers_states_off_unit_norm(label, delta):
    # states a with ||a||^2 = 1 + delta move <a|rho|a> by delta/d on an exact
    # MES basis: only nu carries that
    alphas = suite_states(7) * math.sqrt(1 + delta)
    projection = certified(7, label, label, alphas=alphas)[3]
    assert projection >= delta / 7


@pytest.mark.parametrize("rows", [(9, 12), (9, 30)])
def test_certificate_fails_an_orthonormal_but_mislabeled_stack(rows):
    # sufficient, not necessary: two swapped rows leave every dense row
    # passing, in one q-block (9, 12) or in one support block, one p (9, 30),
    # and fail all three bounds
    label = sw.BasisLabel(2)
    stack = me.mes_stack(7, label, label).copy()
    stack[list(rows)] = stack[list(rows[::-1])]
    bounds = certified(7, label, label, stack)
    assert max(dense_mes_deviations(7, stack)[:3]) < 1e-14
    assert min(bounds) > states.DEFAULT_TOL


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_a_non_finite_element_gives_inf(bad):
    label = sw.BasisLabel(1)
    stack = me.mes_stack(5, label, label).copy()
    stack[13, 7] = bad
    with np.errstate(invalid="ignore"):
        gram, schmidt, exact = verify._closed_form_bounds(5, stack, *me._mes_table(5, label, label))
    assert not exact
    assert (gram, schmidt) == (math.inf, math.inf)
    assert verify._reduced_bounds(5, schmidt, suite_states(5)) == (math.inf, math.inf)


def _wrong_phase_at_the_origin(stack, d, cb):
    stack[0, 0] *= sw.omega_powers(d)[1]


def _swapped_in_a_support_block(stack, d, cb):
    # the rows of one q share a support in (cb, cb), those of one p in (b, b)
    rows = [0, 1] if cb else [0, d]
    stack[rows] = stack[rows[::-1]]


def _swapped_across_support_blocks(stack, d, cb):
    stack[[0, d + 1]] = stack[[d + 1, 0]]


MES_FAULTS = {
    # row 0 is u(0, 0): its support n1 - n2 = 0, or n1 + n2 = 0, holds
    # particle-flat index 0, (n1, n2) = (0, 0), and not index 1, (0, 1)
    "off_support": lambda stack, d, cb: _off_support_element(stack, d),
    "nan_on_the_support": lambda stack, d, cb: _nan_on_the_support(stack, d),
    "wrong_phase": _wrong_phase_at_the_origin,
    "swapped_in_a_block": _swapped_in_a_support_block,
    "swapped_across_blocks": _swapped_across_support_blocks,
}


@pytest.mark.parametrize("label", [sw.CB, sw.BasisLabel(2)])
@pytest.mark.parametrize("fault", sorted(MES_FAULTS))
def test_a_faulty_mes_stack_fails_every_certified_row(monkeypatch, fault, label):
    mes_stack = me.mes_stack

    def poisoned(d, b, b_prime):
        stack = mes_stack(d, b, b_prime)
        if b != label:
            return stack
        stack = stack.copy()
        MES_FAULTS[fault](stack, d, label.is_cb)
        return stack

    monkeypatch.setattr(me, "mes_stack", poisoned)
    for d in (3, 5, 7):
        with np.errstate(invalid="ignore"):
            rows = {row.check: row for row in run_suites([d], "mes")}
        failing = {check for check, row in rows.items() if not row.passed}
        assert failing == CERTIFIED_ROWS
        if fault == "nan_on_the_support":
            assert all(rows[check].max_error == math.inf for check in failing)


@pytest.mark.parametrize("delta", [1e-9, 1e-6, 1e-2])
def test_an_inaccurate_dft_is_covered_through_its_measured_unitarity(monkeypatch, delta):
    # a stack built from the table w^k (1 + delta) / sqrt d: its Delta against
    # the closed form of that same table is rounding only, so the measured
    # gap of the table's blocks and mu alone carry the fault
    d, label = 7, sw.BasisLabel(3)
    stack = me.mes_stack(d, label, label) * (1 + delta)
    omega_powers = sw.omega_powers
    monkeypatch.setattr(sw, "omega_powers", lambda n: omega_powers(n) * (1 + delta))
    gram, schmidt, _ = verify._closed_form_bounds(d, stack, *me._mes_table(d, label, label))
    gram_deviation, completeness, schmidt_deviation, rounding = dense_mes_deviations(d, stack)
    assert max(gram_deviation, completeness) <= gram and schmidt_deviation - rounding <= schmidt
    assert gram_deviation > delta


# -- the collective suite's array passes against the per-point loops --------------


def collective_rows_oracle(d, tol, rng):
    """The per-point loops of point_translation, local_action_random and
    hop_example, then hop_random, which draws from the same stream after
    local_action_random: the four rows in suite order."""
    w = sw.omega_powers(d)
    plus, minus = co.point_basis(d, True), co.point_basis(d, False)
    cb_elements = me.mes_stack(d, sw.CB, sw.CB)

    def point_translation():
        for q in range(d):
            for p in range(d):
                src, e = co._word_map(d, [("Zc", d - p), ("Xr", q)])
                gen_plus = w[e % d] * plus[0][src]
                src, e = co._word_map(d, [("Xc", q), ("Zr", d - p)])
                gen_minus = w[e % d] * minus[0][src]
                yield abs(np.vdot(plus[q * d + p], gen_plus) - 1.0)
                yield abs(np.vdot(minus[q * d + p], gen_minus) - 1.0)

    def local_action_random():
        for _ in range(50):
            word = verify._random_word(rng, co.SINGLE_GENERATORS, -d, d + 1, (1, 4))
            state = cb_elements[rng.randrange(d * d)]
            moved = co.local_action(states.Ket(state), rng.randrange(1, 3), word)
            yield states._reduced_deviation(moved.amplitudes)

    def dense_verdict(q, p, word):
        """The dense oracle's verdict on hop's (q', p', phase) as a 0/1 flag."""
        dense, fid = co.hop_dense(d, (q, p), word)
        return 0.0 if dense == co.hop(d, (q, p), word) and 1.0 - fid < tol else 1.0

    def hop_example():
        for q in range(d):
            for p in range(d):
                sym = co.hop(d, (q, p), "Xc^2 Xr^6")
                expected = (
                    sym.point == co.PhasePoint((q + 2) % d, p)
                    and sym.phase_exponent == (6 * p) % d
                )
                yield 0.0 if expected else 1.0
                yield dense_verdict(q, p, "Xc^2 Xr^6")

    def hop_random():
        for _ in range(100):
            word = verify._random_word(rng, co.COLLECTIVE_GENERATORS, -9, 10, (0, 5))
            q, p = rng.randrange(d), rng.randrange(d)
            yield dense_verdict(q, p, word)

    return rows_oracle(
        d,
        tol,
        [
            ("collective.point_translation", "", point_translation),
            ("collective.local_action_random", "50 words", local_action_random),
            ("collective.hop_example", "Xc^2 Xr^6", hop_example),
            ("collective.hop_random", "100 words", hop_random),
        ],
    )


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13, 17, 23])
@pytest.mark.parametrize("seed", [0, 5, 12345])
def test_collective_array_passes_equal_the_per_point_oracle(d, seed):
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    expected = collective_rows_oracle(d, states.DEFAULT_TOL, oracle_rng)
    checks = {row.check for row in expected}
    rows = [row for row in verify.suite_collective(d, states.DEFAULT_TOL, rng) if row.check in checks]
    # point_translation checks exact integer maps, where the oracle's vdots round
    translation, oracle_translation = rows.pop(0), expected.pop(0)
    assert translation.check == oracle_translation.check == "collective.point_translation"
    assert oracle_translation.max_error < 1e-14
    assert (translation.max_error, translation.passed) == (0.0, True)
    assert _compared(rows) == _compared(expected)
    assert rng.getstate() == oracle_rng.getstate()


def test_nan_local_action_image_fails_the_stacked_row(monkeypatch):
    local_images = co._local_images

    def poisoned(amplitudes, particles, src, exponents):
        images = local_images(amplitudes, particles, src, exponents)
        if len(images) > 16:
            images[16, 3] = np.nan
        return images

    monkeypatch.setattr(co, "_local_images", poisoned)
    with np.errstate(invalid="ignore"):
        rows = {row.check: row for row in run_suites([5], "collective")}
    failing = {check for check, row in rows.items() if not row.passed}
    assert failing == {"collective.local_action_random"}
    assert rows["collective.local_action_random"].max_error == math.inf


# -- a fault for each collective row ----------------------------------------------


def _off_by_one_collective_index(monkeypatch):
    to_collective = co.particle_to_collective

    def shifted(d, n1, n2):
        index = to_collective(d, n1, n2)
        return co.CollectiveIndex((index.nc + 1) % d, index.nr)

    monkeypatch.setattr(co, "particle_to_collective", shifted)


def _transposed_particle_index(monkeypatch):
    particle_index = co._particle_index

    def transposed(d):
        index = particle_index(d).copy()
        index[[0, 1]] = index[[1, 0]]
        return index

    monkeypatch.setattr(co, "_particle_index", transposed)


def _off_support_minus_element(monkeypatch):
    point_basis = co.point_basis

    def poisoned(d, plus):
        basis = point_basis(d, plus)
        if plus:
            return basis
        basis = basis.copy()
        # row 0 lies where nc = 0; particle-flat index 1, (n1, n2) = (0, 1), has nc = h
        basis[0, 1] = 1 / np.sqrt(d)
        return basis

    monkeypatch.setattr(co, "point_basis", poisoned)


@pytest.mark.parametrize(
    "fault, checks",
    [
        (_off_by_one_collective_index, ["collective.index_maps"]),
        (_transposed_particle_index, ["collective.permutation"]),
        (_off_support_minus_element, ["collective.point_bases", "collective.conjugate_overlap"]),
    ],
)
def test_a_collective_fault_fails_its_rows_and_the_other_suites_still_run(monkeypatch, fault, checks):
    fault(monkeypatch)
    _failing_rows_of_all_suites(checks)


def _failing_rows_of_all_suites(checks):
    """The rows of ``checks`` in ``run_suites([3, 5])``, after asserting that
    each fails at both d while every suite still runs."""
    rows = run_suites([3, 5])
    for d in (3, 5):
        by_check = {row.check: row for row in rows if row.d == d}
        assert [by_check[check].passed for check in checks] == [False] * len(checks)
        assert {name.split(".")[0] for name in by_check} == {"mub", "mes", "collective", "line"}
    return [row for row in rows if row.check in checks]


def _one_basis_dropped(monkeypatch):
    # verify alone reads the short family, so the MES bases still find every basis
    family = {**vars(sw), "mub_stack": lambda d: sw.mub_stack(d)[:-1]}
    monkeypatch.setattr(verify, "sw", SimpleNamespace(**family))


def _clock_with_one_wrong_power(monkeypatch):
    def clock(d):
        # Z|1> = w^2 |1>: still unitary, but ZX != w XZ
        powers = sw.omega_powers(d)[np.r_[0, 2, 2:d]]
        return states.UnitaryOp(np.diag(powers))

    monkeypatch.setattr(sw, "clock_z", clock)


def _two_rebuilt_rows_swapped(monkeypatch):
    rebuild = li._mub_stack_from_lines

    def swapped(d, factored):
        stack = rebuild(d, factored).copy()
        stack[1, [0, 1]] = stack[1, [1, 0]]
        return stack

    monkeypatch.setattr(li, "_mub_stack_from_lines", swapped)


def _maximally_mixed_reduced_operators(monkeypatch):
    def mixed(amplitudes):
        d = amplitudes.shape[-1]
        rhos = np.broadcast_to(np.eye(d) / d, amplitudes.shape)
        return rhos, rhos

    monkeypatch.setattr(verify, "reduced_operators", mixed)


@pytest.mark.parametrize(
    "fault, check",
    [
        (_one_basis_dropped, "mub.count"),
        (_clock_with_one_wrong_power, "mub.clock_shift_algebra"),
        (_two_rebuilt_rows_swapped, "mub.lines_family_match"),
        (_maximally_mixed_reduced_operators, "mes.negative_controls"),
    ],
)
def test_a_mub_or_mes_fault_fails_its_row_and_the_other_suites_still_run(monkeypatch, fault, check):
    fault(monkeypatch)
    # a finite fault: the row reads a number, not the inf of a NaN
    assert all(math.isfinite(row.max_error) for row in _failing_rows_of_all_suites([check]))


# -- the exact hop rows ------------------------------------------------------------


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_minus_point_basis_is_the_exact_form_the_hop_rows_assume(d):
    # minus row q*d + p is w^(-p nr) / sqrt d where nc = q, and exactly 0
    # elsewhere; the plus basis swaps nc and nr
    nc, nr = co._collective_index(d)
    q, p = (k[:, None] for k in np.divmod(np.arange(d * d), d))
    for plus, (fixed, fourier) in [(False, (nc, nr)), (True, (nr, nc))]:
        closed = np.where(fixed == q, sw.omega_powers(d)[(-p * fourier) % d] / np.sqrt(d), 0)
        assert closed.dtype == np.complex128
        assert closed.tobytes() == co.point_basis(d, plus).tobytes()
    # so the bounds of the point-basis rows hold, and stay far below the tolerance
    assert 0.0 < max(verify._point_basis_bounds(d)) < 1e-12


def table_rows(d, order, fixed, base, slope):
    """Per row order[s, x] of a closed form: its support, fixed = s, and its
    exponents (base + x slope) mod d there, -1 off the support."""
    s, x = np.empty(d * d, dtype=np.int64), np.empty(d * d, dtype=np.int64)
    s[order.ravel()], x[order.ravel()] = np.divmod(np.arange(d * d), d)
    on = fixed == s[:, None]
    return on, np.where(on, (base + x[:, None] * slope) % d, -1)


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_point_and_mes_tables_agree_exactly(d):
    # plus(q, p) = w^(pq) u(2q, p) of (cb, cb), in integers: the same
    # support, and exponents that differ by exactly p q mod d
    on, exponents = table_rows(d, *co._point_table(d, True))
    mes_on, mes_exponents = table_rows(d, *me._mes_table(d, sw.CB, sw.CB))
    q, p = np.divmod(np.arange(d * d), d)
    rows = (2 * q) % d * d + p
    assert np.array_equal(on, mes_on[rows])
    differences = (exponents - mes_exponents[rows]) % d
    assert np.array_equal(differences[on], np.broadcast_to((p * q % d)[:, None], on.shape)[on])


def test_a_conjugated_point_table_fails_every_row_built_without_it(monkeypatch):
    # the negated slope gives the conjugate point bases; the point rows
    # compare the basis with that same table, the other rows with stacks and
    # word maps built without it
    point_table, build = co._point_table, co.point_basis.__wrapped__
    # built before the fault, since the cached point_basis reads the table
    exact = [co.point_basis(5, plus) for plus in (False, True)]

    def conjugated(d, plus):
        order, fixed, base, slope = point_table(d, plus)
        return order, fixed, base, -slope

    monkeypatch.setattr(co, "_point_table", conjugated)
    monkeypatch.setattr(co, "point_basis", build)
    monkeypatch.setattr(li, "point_basis", build)
    for plus in (False, True):
        assert np.abs(build(5, plus) - exact[plus].conj()).max() < 1e-15
    rows = run_suites([5])
    assert {row.check for row in rows if not row.passed} == {
        "collective.cb_mes_factorization",
        "collective.point_translation",
        "collective.hop_example",
        "collective.hop_random",
        "line.factorization",
        "mub.lines_family_match",
    }
    point_checks = ("collective.point_bases", "collective.point_mes", "collective.conjugate_overlap")
    point_rows = [row for row in rows if row.check in point_checks]
    assert len(point_rows) == 3 and all(row.passed for row in point_rows)


def _off_support_element(basis, d):
    # particle-flat index 1, (n1, n2) = (0, 1), has nc = h and nr = -h, so it
    # lies off the support of row 0 in both bases
    basis[0, 1] = 1 / np.sqrt(d)


def _nan_on_the_support(basis, d):
    basis[0, 0] = np.nan


def _one_wrong_phase(basis, d):
    basis[1, 0] *= sw.omega_powers(d)[1]


def _two_rows_swapped(basis, d):
    basis[[0, 1]] = basis[[1, 0]]


@pytest.mark.parametrize("plus", [False, True])
@pytest.mark.parametrize("fault", [_off_support_element, _nan_on_the_support, _one_wrong_phase, _two_rows_swapped])
def test_a_faulty_point_basis_fails_every_point_basis_row(monkeypatch, fault, plus):
    point_basis = co.point_basis

    def poisoned(d, faulty):
        basis = point_basis(d, faulty)
        if faulty != plus:
            return basis
        basis = basis.copy()
        fault(basis, d)
        return basis

    monkeypatch.setattr(co, "point_basis", poisoned)
    for d in (3, 5):
        rows = {row.check: row for row in run_suites([d], "collective")}
        for check in ("collective.point_bases", "collective.point_mes", "collective.conjugate_overlap"):
            assert (rows[check].max_error, rows[check].passed) == (1.0, False)


def _candidate_hops(d, hop):
    """hop's result, then three wrong ones: its phase, q' and p' each off by one."""
    q, p, e = hop.point.q, hop.point.p, hop.phase_exponent
    wrong = [(q, p, e + 1), (q + 1, p, e), (q, p + 1, e)]
    return [hop] + [co.HopResult(co.PhasePoint(a % d, b % d), c % d) for a, b, c in wrong]


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_exact_hop_verdict_equals_the_dense_oracle_verdict(d):
    # two words at every point, then 200 seeded words each at a seeded point
    rng = random.Random(300 + d)
    cases = [(word, row) for word in ("Xc^2 Xr^6", "Zc^3 Xc^-1 Zr^2 Xr^4") for row in range(d * d)]
    for _ in range(200):
        word = verify._random_word(rng, co.COLLECTIVE_GENERATORS, -2 * d, 2 * d + 1, (0, 6))
        cases.append((word, rng.randrange(d * d)))
    for word, row in cases:
        src, exponents = co._word_map(d, word)
        dense, fid = co.hop_dense(d, divmod(row, d), word)
        candidates = _candidate_hops(d, co.hop(d, divmod(row, d), word))
        verdicts = verify._hop_errors(d, src, exponents, [row] * len(candidates), candidates).tolist()
        assert verdicts == [0.0 if dense == hop and 1.0 - fid < states.DEFAULT_TOL else 1.0 for hop in candidates]
        assert verdicts == [0.0, 1.0, 1.0, 1.0]


@pytest.mark.parametrize("dropped", ["Zc", "Xr"])
def test_a_hop_that_drops_a_phase_fails_the_hop_rows(monkeypatch, dropped):
    # Zc and Xr only add to the phase, so a hop that skips them drops just that
    hop = co._hop
    monkeypatch.setattr(co, "_hop", lambda d, q, p, factors: hop(d, q, p, [f for f in factors if f[0] != dropped]))
    rows = {row.check: row for row in run_suites([5], "collective")}
    # the word of hop_example, Xc^2 Xr^6, has no Zc factor
    failing = {"collective.hop_random"} | ({"collective.hop_example"} if dropped == "Xr" else set())
    assert {check for check, row in rows.items() if not row.passed} == failing
    assert all(rows[check].max_error == 1.0 for check in failing)


def test_all_factors_the_lines_once_per_dimension(monkeypatch):
    factor_lines, calls = li._factor_lines, []
    monkeypatch.setattr(li, "_factor_lines", lambda d, *args: calls.append(d) or factor_lines(d, *args))
    rows = run_suites([3, 5], "all")
    assert calls == [3, 5]
    calls.clear()
    mub_rows, lines_rows = run_suites([3, 5], "mub"), run_suites([3, 5], "lines")
    # each suite run on its own factors the lines itself
    assert calls == [3, 5, 3, 5]
    assert _compared(row for row in rows if row.check.startswith("mub.")) == _compared(mub_rows)
    assert _compared(row for row in rows if row.check.startswith("line.")) == _compared(lines_rows)


def test_only_the_lines_suite_builds_line_reports(monkeypatch):
    made = []
    report = li.LineFactorReport
    monkeypatch.setattr(li, "LineFactorReport", lambda **fields: made.append(fields) or report(**fields))
    mub_rows = run_suites([3, 5], "mub")
    li.mub_from_lines(5)
    assert made == [] and all(row.passed for row in mub_rows)
    run_suites([5], "lines")
    assert len(made) == 5 * 6
    made.clear()
    run_suites([5], "all")
    assert len(made) == 5 * 6


def test_rows_time_each_call_and_keep_the_worst_error(monkeypatch):
    ticks = iter([0.0, 0.001, 0.010, 0.013])
    entries = [("a", "", lambda: [0.5, math.nan]), ("b", "", lambda: iter([0.25, 0.125]))]
    monkeypatch.setattr(verify.time, "perf_counter", lambda: next(ticks))
    rows = verify._rows(3, 1.0 - 1e-9, entries)
    monkeypatch.undo()
    assert [(r.check, r.max_error, r.passed) for r in rows] == [
        ("a", math.inf, False),
        ("b", 0.25, True),
    ]
    assert rows[0].runtime_ms == pytest.approx(1.0)
    assert rows[1].runtime_ms == pytest.approx(3.0)


# -- random words ---------------------------------------------------------------------


# the first three words of each family and the first four normal draws of
# random.Random(seed), written down once: the stdlib generator, its seeding
# from an int and its choice, randrange and gauss are the same on every
# Python the package supports, so a report's seeded rows are too
_PINNED_WORDS = {
    (0, co.SINGLE_GENERATORS): [[("Z", -7), ("Z", 1)], [("Z", 7), ("Z", 0)], [("X", 1), ("X", -3)]],
    (0, co.COLLECTIVE_GENERATORS): [[("Zr", -8), ("Xr", 7), ("Zr", 3)], [("Zr", 2), ("Zc", 7)], [("Xr", -5)]],
    (12345, co.SINGLE_GENERATORS): [[("X", 6), ("Z", 6)], [("X", -3), ("Z", -5)], [("X", 6), ("Z", -3)]],
    (12345, co.COLLECTIVE_GENERATORS): [
        [("Xc", 0), ("Xr", -3), ("Xr", 9)],
        [("Zc", 2), ("Xc", 4), ("Xr", 8)],
        [("Zc", 2)],
    ],
}
_PINNED_NORMALS = {
    0: ["0x1.e22885827c580p-1", "-0x1.6586248600484p+0", "-0x1.5c03883a3b23fp-1", "0x1.7b6549852df0cp-2"],
    12345: ["-0x1.fb168b045dd55p-4", "0x1.24f75c2f9bf44p-4", "0x1.8891ef1f8b55dp-2", "-0x1.7fff9d613608ap-1"],
}


@pytest.mark.parametrize("seed", [0, 12345])
@pytest.mark.parametrize(
    "generators, low, high, lengths",
    [(co.SINGLE_GENERATORS, -7, 8, (1, 4)), (co.COLLECTIVE_GENERATORS, -9, 10, (0, 5))],
)
def test_seeded_words_and_normal_draws_are_pinned(seed, generators, low, high, lengths):
    rng = random.Random(seed)
    words = [verify._random_word(rng, generators, low, high, lengths) for _ in range(3)]
    assert words == _PINNED_WORDS[seed, generators]
    assert all(type(name) is str and type(power) is int for word in words for name, power in word)
    normals = verify._normal(random.Random(seed), 2, 2)
    assert normals.dtype == np.float64 and normals.shape == (2, 2)
    assert [float(x).hex() for x in normals.ravel()] == _PINNED_NORMALS[seed]


class _ZeroUniform(random.Random):
    """A generator whose every uniform draw is 0.0, so that gauss's radius
    sqrt(-2 log(1 - 0.0)) is -0.0 and each draw is a signed zero."""

    def random(self):
        return 0.0


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_paired_normal_draws_are_gauss_draws(d):
    # the shapes suite_mes draws, for the alphas and the negative controls
    shapes = [(2, 200, d), (20, 2, d * d)]
    for rng, oracle in [(random.Random(seed), random.Random(seed)) for seed in range(50)] + [
        (_ZeroUniform(0), _ZeroUniform(0))
    ]:
        for shape in shapes:
            draws = verify._normal(rng, *shape)
            expected = np.array([oracle.gauss(0.0, 1.0) for _ in range(math.prod(shape))]).reshape(shape)
            assert draws.shape == shape and draws.tobytes() == expected.tobytes()
            assert rng.getstate() == oracle.getstate()


def test_an_odd_count_of_normal_draws_is_refused_before_any_draw():
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        verify._normal(rng, 3, 5)
    assert rng.getstate() == state


def _shift_one_zc_exponent(src_table, exp_table):
    g = co.COLLECTIVE_GENERATORS.index("Zc")
    exponents = exp_table[g, 1].copy()
    exponents[7] += 1
    return g, src_table[g, 1], exponents


def _swap_two_xr_sources(src_table, exp_table):
    g = co.COLLECTIVE_GENERATORS.index("Xr")
    src = src_table[g, 1].copy()
    src[[2, 11]] = src[[11, 2]]
    return g, src, exp_table[g, 1]


@pytest.mark.parametrize("corrupt", [_shift_one_zc_exponent, _swap_two_xr_sources])
def test_corrupted_generator_map_fails_the_exact_operator_rows(monkeypatch, corrupt):
    family, tables = co.COLLECTIVE_GENERATORS, co._family_tables
    src_table, exp_table = (table.copy() for table in tables(5, family))
    g, src, exponents = corrupt(src_table, exp_table)
    # the corrupted generator row, with its powers rebuilt from it one step at a time
    for k in range(1, 5):
        exp_table[g, k] = exp_table[g, k - 1] + exponents[src_table[g, k - 1]]
        src_table[g, k] = src[src_table[g, k - 1]]
    monkeypatch.setattr(
        co, "_family_tables", lambda d, f: (src_table, exp_table) if f == family else tables(d, f)
    )
    rows = {row.check: row for row in run_suites([5], "collective")}
    # the word of hop_example, Xc^2 Xr^6, reads no Zc table
    hop_rows = ("collective.hop_random",) + (("collective.hop_example",) if family[g] == "Xr" else ())
    # the words of point_translation, Zc^(d-p) Xr^q and Xc^q Zr^(d-p), read both
    exact_rows = ("collective.operator_algebra", "collective.operator_factorization", "collective.point_translation")
    for check in exact_rows + hop_rows:
        assert not rows[check].passed
        assert rows[check].max_error == 1.0


def test_every_dimension_is_validated_before_any_suite_runs(monkeypatch):
    calls = []
    for name in ("suite_mub", "suite_mes", "suite_collective", "suite_lines"):
        monkeypatch.setattr(verify, name, lambda *args, name=name: calls.append(name) or [])
    with pytest.raises(InvalidDimension):
        run_suites([13, 9])
    with pytest.raises(InvalidTolerance):
        run_suites([13], tol=0.0)
    with pytest.raises(ValueError):
        run_suites([13], "nonsense")
    assert calls == []
    run_suites([3])
    assert calls == ["suite_mub", "suite_mes", "suite_collective", "suite_lines"]


@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"dims": []}, ValueError),
        ({"dims": iter([])}, ValueError),
        ({"seed": True}, TypeError),
        ({"seed": False}, TypeError),
        ({"seed": "3"}, TypeError),
        ({"seed": 2.0}, TypeError),
        ({"seed": -1}, ValueError),
    ],
)
def test_run_suites_refuses_its_inputs_before_any_suite_runs(monkeypatch, kwargs, error):
    calls = []
    for name in ("suite_mub", "suite_mes", "suite_collective", "suite_lines"):
        monkeypatch.setattr(verify, name, lambda *args, name=name: calls.append(name) or [])
    monkeypatch.setattr(li, "_factor_lines", lambda *args: calls.append("_factor_lines"))
    with pytest.raises(error):
        run_suites(**{"dims": [3], **kwargs})
    assert calls == []


@pytest.mark.parametrize("dims", ["17", "7", b"\x07", bytearray(b"\x05\x07")])
def test_run_suites_refuses_a_string_of_dimensions_before_any_suite_runs(monkeypatch, dims):
    # iterated, "17" would be checked as d='1' and d='7', and b"\x07" as d=7
    calls = []
    for name in ("suite_mub", "suite_mes", "suite_collective", "suite_lines"):
        monkeypatch.setattr(verify, name, lambda *args, name=name: calls.append(name) or [])
    monkeypatch.setattr(li, "_factor_lines", lambda *args: calls.append("_factor_lines"))
    with pytest.raises(InvalidDimension, match=re.escape(f"dims={dims!r} must be an iterable of dimensions")):
        run_suites(dims)
    assert calls == []


def test_run_suites_takes_any_int_seed_and_any_iterable_of_dims():
    expected = _compared(run_suites([3], "mes", seed=7))
    assert _compared(run_suites(iter([3]), "mes", seed=np.int64(7))) == expected
    assert _compared(run_suites((3,), "mes", seed=np.uint8(7))) == expected


def test_row_order_and_params_are_pinned():
    rows = run_suites([3, 5], "all")
    assert [(r.check, r.d, r.params) for r in rows] == _ROWS_D3_D5
    # rows are floored at 0: 1 - |<a|b>| alone reads -4.44e-16 for mes.universal at d=3
    assert all(r.max_error >= 0.0 for r in rows)


# every row of run_suites([3, 5], "all"), in report order
_ROWS_D3_D5 = [
    ("mub.count", 3, ""),
    ("mub.orthonormal", 3, ""),
    ("mub.unbiased", 3, ""),
    ("mub.eigenrelation", 3, ""),
    ("mub.clock_shift_algebra", 3, ""),
    ("mub.lines_family_match", 3, ""),
    ("mes.gram", 3, "b'=b, all b"),
    ("mes.reduced", 3, "identity/d both particles"),
    ("mes.schmidt", 3, "all coefficients 1/sqrt(d)"),
    ("mes.completeness", 3, "sum of projectors"),
    ("mes.random_projection", 3, "200 states"),
    ("mes.negative_controls", 3, "20 random states"),
    ("mes.universal", 3, "all d+1 bases"),
    ("mes.relabeling", 3, "worked 3-level example"),
    ("collective.index_maps", 3, "exhaustive"),
    ("collective.permutation", 3, ""),
    ("collective.operator_factorization", 3, ""),
    ("collective.operator_algebra", 3, ""),
    ("collective.point_bases", 3, "both grams"),
    ("collective.point_mes", 3, ""),
    ("collective.conjugate_overlap", 3, "modulus 1/d"),
    ("collective.cb_mes_factorization", 3, "phase -qp"),
    ("collective.point_translation", 3, ""),
    ("collective.local_action_shift", 3, "doubled shift"),
    ("collective.local_action_random", 3, "50 words"),
    ("collective.hop_example", 3, "Xc^2 Xr^6"),
    ("collective.hop_random", 3, "100 words"),
    ("line.factorization", 3, "b=cb m=0"),
    ("line.factorization", 3, "b=cb m=1"),
    ("line.factorization", 3, "b=cb m=2"),
    ("line.factorization", 3, "b=0 m=0"),
    ("line.factorization", 3, "b=0 m=1"),
    ("line.factorization", 3, "b=0 m=2"),
    ("line.factorization", 3, "b=1 m=0"),
    ("line.factorization", 3, "b=1 m=1"),
    ("line.factorization", 3, "b=1 m=2"),
    ("line.factorization", 3, "b=2 m=0"),
    ("line.factorization", 3, "b=2 m=1"),
    ("line.factorization", 3, "b=2 m=2"),
    ("mub.count", 5, ""),
    ("mub.orthonormal", 5, ""),
    ("mub.unbiased", 5, ""),
    ("mub.eigenrelation", 5, ""),
    ("mub.clock_shift_algebra", 5, ""),
    ("mub.lines_family_match", 5, ""),
    ("mes.gram", 5, "b'=b, all b"),
    ("mes.reduced", 5, "identity/d both particles"),
    ("mes.schmidt", 5, "all coefficients 1/sqrt(d)"),
    ("mes.completeness", 5, "sum of projectors"),
    ("mes.random_projection", 5, "200 states"),
    ("mes.negative_controls", 5, "20 random states"),
    ("mes.universal", 5, "all d+1 bases"),
    ("collective.index_maps", 5, "exhaustive"),
    ("collective.permutation", 5, ""),
    ("collective.operator_factorization", 5, ""),
    ("collective.operator_algebra", 5, ""),
    ("collective.point_bases", 5, "both grams"),
    ("collective.point_mes", 5, ""),
    ("collective.conjugate_overlap", 5, "modulus 1/d"),
    ("collective.cb_mes_factorization", 5, "phase -qp"),
    ("collective.point_translation", 5, ""),
    ("collective.local_action_shift", 5, "doubled shift"),
    ("collective.local_action_random", 5, "50 words"),
    ("collective.hop_example", 5, "Xc^2 Xr^6"),
    ("collective.hop_random", 5, "100 words"),
    ("line.factorization", 5, "b=cb m=0"),
    ("line.factorization", 5, "b=cb m=1"),
    ("line.factorization", 5, "b=cb m=2"),
    ("line.factorization", 5, "b=cb m=3"),
    ("line.factorization", 5, "b=cb m=4"),
    ("line.factorization", 5, "b=0 m=0"),
    ("line.factorization", 5, "b=0 m=1"),
    ("line.factorization", 5, "b=0 m=2"),
    ("line.factorization", 5, "b=0 m=3"),
    ("line.factorization", 5, "b=0 m=4"),
    ("line.factorization", 5, "b=1 m=0"),
    ("line.factorization", 5, "b=1 m=1"),
    ("line.factorization", 5, "b=1 m=2"),
    ("line.factorization", 5, "b=1 m=3"),
    ("line.factorization", 5, "b=1 m=4"),
    ("line.factorization", 5, "b=2 m=0"),
    ("line.factorization", 5, "b=2 m=1"),
    ("line.factorization", 5, "b=2 m=2"),
    ("line.factorization", 5, "b=2 m=3"),
    ("line.factorization", 5, "b=2 m=4"),
    ("line.factorization", 5, "b=3 m=0"),
    ("line.factorization", 5, "b=3 m=1"),
    ("line.factorization", 5, "b=3 m=2"),
    ("line.factorization", 5, "b=3 m=3"),
    ("line.factorization", 5, "b=3 m=4"),
    ("line.factorization", 5, "b=4 m=0"),
    ("line.factorization", 5, "b=4 m=1"),
    ("line.factorization", 5, "b=4 m=2"),
    ("line.factorization", 5, "b=4 m=3"),
    ("line.factorization", 5, "b=4 m=4"),
]


def _tolerance_callers():
    from mesphase import mes as me

    basis = [states.Ket.basis(3, n) for n in range(3)]
    line = li.Line(sw.BasisLabel(1), 2)
    return {
        "mub_from_lines": lambda tol: li.mub_from_lines(3, tol),
        "schmidt_inversion_check": lambda tol: li.schmidt_inversion_check(3, line, tol),
        "line_factor_table": lambda tol: li.line_factor_table(3, tol),
        "equal_up_to_global_phase": lambda tol: states.equal_up_to_global_phase(
            basis[0], basis[0], tol
        ),
        "build_relabeling": lambda tol: me.build_relabeling(basis, [0, 1, 2], tol),
        "phase_canonical": lambda tol: states.phase_canonical(basis[1], tol),
        "diagonalizer_for": lambda tol: me.diagonalizer_for(basis, [1, 1, 1], tol),
        "UnitaryOp": lambda tol: states.UnitaryOp(np.eye(3), tol),
        "DensityOp": lambda tol: states.DensityOp(np.eye(3) / 3, tol),
    }


@pytest.mark.parametrize("name", sorted(_tolerance_callers()))
@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, 1.0, "1e-10", None, 1e-10 + 0j])
def test_library_tolerances_fail_closed(name, tol):
    call = _tolerance_callers()[name]
    call(states.DEFAULT_TOL)
    with pytest.raises(InvalidTolerance):
        call(tol)


def test_validate_tolerance_has_one_definition():
    assert verify.validate_tolerance is states.validate_tolerance
    assert cli.validate_tolerance is states.validate_tolerance


def test_block_rule_has_one_definition():
    # one budget and one helper size every array pass
    for module in (me, li, verify):
        assert not hasattr(module, "_BLOCK_VALUES")
        assert module._blocks is states._blocks


def test_per_d_caching_rule_has_one_definition():
    # one decorator validates d, keys the cache by the int and freezes the arrays
    for module in (co, li):
        assert not hasattr(module, "lru_cache")
    rule = sw._per_dimension(lambda d: None).__code__
    tables = (sw.mub_stack, co._collective_index, co._family_tables, co.point_basis, li._line_tables)
    assert all(table.__code__ is rule for table in tables)


def test_a_wrong_predicted_label_fails_its_line_row(monkeypatch):
    rows, labels = li._line_tables(5)
    wrong = labels.copy()
    wrong[[7, 22]] = wrong[[22, 7]]
    monkeypatch.setattr(li, "_line_tables", lambda d: (rows, wrong))
    failing = [row for row in run_suites([5], "lines") if not row.passed]
    assert [(row.params, row.max_error) for row in failing] == [("b=0 m=2", 1.0), ("b=3 m=2", 1.0)]


def test_rank_d_state_is_not_taken_for_a_line(monkeypatch):
    from mesphase import mes as me
    from mesphase.errors import FactorizationFailed

    mes = me._universal_amplitudes(5, sw.CB)
    monkeypatch.setattr(li, "_line_sums", lambda basis, rows: np.tile(mes, (len(rows), 1)))
    with pytest.raises(FactorizationFailed):
        li.mub_from_lines(5)
    rep = li.schmidt_inversion_check(5, li.Line(sw.CB, 0))
    assert not rep.schmidt_rank_ok and rep.second_singular_value > 0.4
    for tol in (math.nan, math.inf):
        with pytest.raises(InvalidTolerance):
            li.mub_from_lines(5, tol)
        with pytest.raises(InvalidTolerance):
            li.schmidt_inversion_check(5, li.Line(sw.CB, 0), tol)
