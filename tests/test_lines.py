import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from mesphase.collective import PhasePoint, point_basis, point_state_minus
from mesphase.errors import FactorizationFailed, InvalidDimension, InvalidLabel
from mesphase import lines as li
from mesphase import states as st
from mesphase.lines import (
    Line,
    LineFactorReport,
    _factor_lines,
    _line_index,
    _line_tables,
    _mub_stack_from_lines,
    all_lines,
    expected_factor2_label,
    line_factor_table,
    line_points,
    line_state,
    mub_from_lines,
    schmidt_inversion_check,
)
from mesphase.schwinger import CB, BasisLabel, mub_family, mub_stack, mub_state, omega_powers
from mesphase.states import (
    DEFAULT_TOL,
    Ket,
    _omega_exponent,
    _phase_canonical,
    _worst,
    phase_canonical,
    schmidt_decompose,
    tensor,
)

ODD_PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def half(x, d):
    """Oracle: the residue y with 2y = x mod d, by exhaustive search."""
    return next(y for y in range(d) if (2 * y - x) % d == 0)


def quarter(x, d):
    """Oracle: the residue y with 4y = x mod d, by exhaustive search."""
    return next(y for y in range(d) if (4 * y - x) % d == 0)


def expected_factor2_label_oracle(d, line):
    """``expected_factor2_label`` by exhaustive residue search: (cb, m) for a
    vertical line, else (b/4 mod d, m/2 mod d)."""
    if line.b.is_cb:
        return CB, line.m % d
    return BasisLabel(quarter(line.b.index, d)), half(line.m, d)


# -- geometry -----------------------------------------------------------------


def test_line_points_known_lines():
    d = 3
    # the diagonal through the origin
    diag = line_points(d, Line(BasisLabel(1), 0))
    assert diag == [PhasePoint(0, 0), PhasePoint(1, 1), PhasePoint(2, 2)]
    # the horizontal axis
    axis = line_points(d, Line(BasisLabel(0), 0))
    assert axis == [PhasePoint(0, 0), PhasePoint(1, 0), PhasePoint(2, 0)]
    # a vertical line
    vert = line_points(d, Line(CB, 2))
    assert vert == [PhasePoint(2, 0), PhasePoint(2, 1), PhasePoint(2, 2)]


def test_line_points_offset_enters_negated():
    d = 7
    for s in range(d):
        pts = line_points(d, Line(BasisLabel(3), s))
        assert pts == [PhasePoint(q, (3 * q - s) % d) for q in range(d)]


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_each_orientation_partitions_the_grid(d):
    for label in BasisLabel.all_labels(d):
        seen = set()
        for m in range(d):
            pts = line_points(d, Line(label, m))
            assert len(pts) == d
            assert len(set(pts)) == d
            seen.update(pts)
        assert len(seen) == d * d


@pytest.mark.parametrize("d", [3, 5, 7])
def test_nonparallel_lines_meet_exactly_once(d):
    lines = all_lines(d)
    for la, lb in itertools.combinations(lines, 2):
        pa, pb = set(line_points(d, la)), set(line_points(d, lb))
        if la.b == lb.b:
            assert not pa & pb
        else:
            assert len(pa & pb) == 1


def test_all_lines_count():
    assert len(all_lines(5)) == 5 * 6


# -- line states -----------------------------------------------------------------


def line_state_oracle(d, line):
    """Direct sum of the lattice point states, bypassing the library sum."""
    total = np.zeros(d * d, dtype=complex)
    for pt in line_points(d, line):
        total += point_state_minus(d, pt).amplitudes
    return total / np.sqrt(d)


def row_sum_oracle(d, line, realization):
    """The line state summed from zeros one point-basis row at a time."""
    stack = point_basis(d, realization == "alt")
    total = np.zeros(d * d, dtype=np.complex128)
    for pt in line_points(d, line):
        total += stack[pt.q * d + pt.p]
    return total / np.sqrt(d)


def _factorize(d, amplitudes):
    """The SVD oracle: the second singular value of the d x d amplitude matrix
    and its leading factor pair, each normalized and phase-canonical."""
    u, s, vh = np.linalg.svd(amplitudes.reshape(d, d))
    return s[1], _canonical_factor(u[:, 0]), _canonical_factor(vh[0])


def _rank_one_step(d, amplitudes):
    """The rank-1 step of ``lines._rank_one`` on one d x d amplitude matrix A,
    written for that matrix alone: x its column of largest norm, v* =
    conj(A* x)/|A* x|, u = A v.  It returns |A - u v*|_F, u/|u| made
    phase-canonical and v* made phase-canonical."""
    a = amplitudes.reshape(d, d)
    x = a[:, (a.conj() * a).real.sum(axis=0).argmax()]
    vstar = x.conj()[None, :] @ a
    vstar *= 1 / np.sqrt((vstar.conj() * vstar).real.sum())
    u = a @ vstar.conj().T
    residual = (a - u * vstar).ravel()
    second = np.sqrt((residual.conj() * residual).real.sum())
    return second, _canonical_factor(u[:, 0]), _phase_canonical(vstar[0])


def _canonical_factor(factor):
    return _phase_canonical(factor / np.linalg.norm(factor))


def _identify_label(d, factor, conjugate):
    """Best-matching (basis, index, fidelity) for one factor by the largest
    overlap modulus against the MUB stack, re-measured with ``np.vdot``,
    over the tilde partners with ``conjugate=True``; a non-finite factor
    matches (cb, 0) with fidelity 0."""
    stack = mub_stack(d).reshape(-1, d)
    vector = factor.conj() if conjugate else factor
    k = int(np.argmax(np.abs(stack @ vector.conj())))
    overlap = np.vdot(stack[k], vector)
    if not np.isfinite(overlap):
        return CB, 0, 0.0
    b, m = divmod(k, d)
    return (CB if b == 0 else BasisLabel(b - 1)), m, float(abs(overlap))


def schmidt_inversion_check_oracle(d, line, tol=DEFAULT_TOL, realization="standard", factorize=_rank_one_step):
    """``schmidt_inversion_check`` one line at a time: the state summed row by
    row, one ``factorize`` (the rank-1 step, or the SVD oracle), one label
    search per factor."""
    state = row_sum_oracle(d, line, realization)
    second, factor1, factor2 = factorize(d, state)
    second = float(second)
    b1, m1, fid1 = _identify_label(d, factor1, conjugate=True)
    b2, m2, fid2 = _identify_label(d, factor2, conjugate=False)
    overlap = np.vdot(np.outer(factor1, factor2).ravel(), state)
    exponent = _omega_exponent(overlap, d)
    phase_error = abs(overlap - omega_powers(d)[exponent])
    return LineFactorReport(
        d=d,
        line=line,
        second_singular_value=second,
        schmidt_rank_ok=second < tol,
        factor1_b=b1,
        factor1_m=m1,
        factor1_is_tilde=True,
        factor1_fidelity=float(fid1),
        factor2_b=b2,
        factor2_m=m2,
        factor2_fidelity=float(fid2),
        global_phase_exponent=exponent,
        max_error=float(_worst(second, 1.0 - fid1, 1.0 - fid2, phase_error)),
    )


def max_error_oracle(d, line, realization):
    """``schmidt_inversion_check(...).max_error`` with the phase target w^k
    from a scalar ``np.exp`` and the errors reduced by builtin ``max``."""
    state = line_state(d, line, realization).vector.amplitudes
    second, factor1, factor2 = _rank_one_step(d, state)
    fid1 = _identify_label(d, factor1, conjugate=True)[2]
    fid2 = _identify_label(d, factor2, conjugate=False)[2]
    overlap = np.vdot(np.outer(factor1, factor2).ravel(), state)
    target = np.exp(2j * np.pi * _omega_exponent(overlap, d) / d)
    return float(max(float(second), 1.0 - fid1, 1.0 - fid2, abs(overlap - target)))


@pytest.mark.parametrize("d", ODD_PRIMES_TO_31)
def test_line_state_equals_row_by_row_sum_bytes(d):
    for realization in ("standard", "alt"):
        for line in all_lines(d):
            expected = row_sum_oracle(d, line, realization).tobytes()
            assert line_state(d, line, realization).vector.amplitudes.tobytes() == expected


@pytest.mark.parametrize("d", ODD_PRIMES_TO_31)
def test_closed_form_line_rows_equal_line_points(d):
    lines = all_lines(d) + [Line(BasisLabel(2), -1), Line(CB, d + 3)]
    expected = [[pt.q * d + pt.p for pt in line_points(d, line)] for line in lines]
    assert _line_tables(d)[0][_line_index(d, lines)].tolist() == expected
    assert _line_index(d, all_lines(d)).tolist() == list(range(d * (d + 1)))


def mub_stack_from_lines_oracle(d):
    """``_mub_stack_from_lines`` with one ``_rank_one_step`` per line."""
    stack = np.zeros((d + 1, d, d), dtype=np.complex128)
    for line in all_lines(d):
        second, _, factor2 = _rank_one_step(d, line_state(d, line).vector.amplitudes)
        assert second <= 1e-10
        label, m = expected_factor2_label_oracle(d, line)
        stack[0 if label.is_cb else label.index + 1, m] = factor2
    return stack


@pytest.mark.parametrize("d", ODD_PRIMES_TO_31)
def test_mub_stack_from_lines_equals_one_step_per_line_bytes(d):
    # the stacked core's particle-2 factors equal one rank-1 step per line
    stack = _mub_stack_from_lines(d, _factor_lines(d, all_lines(d)))
    assert stack.tobytes() == mub_stack_from_lines_oracle(d).tobytes()


def test_rank_gate_agrees_with_schmidt_rank_ok_at_tol():
    # a second singular value of exactly tol fails schmidt_rank_ok (s1 < tol),
    # so the line must not be filed either
    d, tol = 5, DEFAULT_TOL
    factored = _factor_lines(d, all_lines(d))
    factored.second[7] = tol
    with pytest.raises(FactorizationFailed, match=f"line b={all_lines(d)[7].b} m={all_lines(d)[7].m} "):
        _mub_stack_from_lines(d, factored, tol)


@pytest.mark.parametrize("d", ODD_PRIMES_TO_31)
def test_stacked_core_equals_the_per_line_oracle(d):
    lines = all_lines(d)
    for realization in ("standard", "alt"):
        factored = _factor_lines(d, lines, DEFAULT_TOL, realization)
        for i, line in enumerate(lines):
            oracle = schmidt_inversion_check_oracle(d, line, realization=realization)
            # dataclass equality: every field, floats exactly
            assert factored.reports[i] == oracle
            assert schmidt_inversion_check(d, line, realization=realization) == oracle
            state = row_sum_oracle(d, line, realization)
            assert line_state(d, line, realization).vector.amplitudes.tobytes() == state.tobytes()
            second, _, factor2 = _rank_one_step(d, state)
            assert factored.reports[i].second_singular_value == second
            assert factored.factor2[i].tobytes() == factor2.tobytes()
    rows = li.line_factor_table(d)
    assert [(r["b"], r["m"], r["max_error"]) for r in rows] == [
        (str(line.b), line.m, schmidt_inversion_check_oracle(d, line).max_error) for line in lines
    ]


@pytest.mark.parametrize("d", ODD_PRIMES_TO_31)
def test_rank_one_step_agrees_with_the_svd_oracle(d):
    # the SVD stays the independent oracle: same labels, exponents and flags,
    # the bound and both fidelities within 1e-14
    lines = all_lines(d)
    for realization in ("standard", "alt"):
        for line, report in zip(lines, _factor_lines(d, lines, DEFAULT_TOL, realization).reports):
            oracle = schmidt_inversion_check_oracle(d, line, realization=realization, factorize=_factorize)
            for name in ("factor1_b", "factor1_m", "factor2_b", "factor2_m", "global_phase_exponent", "schmidt_rank_ok"):
                assert getattr(report, name) == getattr(oracle, name)
            for name in ("second_singular_value", "factor1_fidelity", "factor2_fidelity"):
                assert abs(getattr(report, name) - getattr(oracle, name)) <= 1e-14


@pytest.mark.parametrize("d", [5, 17, 31])
def test_rank_one_bound_is_never_below_sigma_2(d, monkeypatch):
    # one entry of one line moved by delta: the reported bound stays >= sigma_2
    # of the perturbed matrix from np.linalg.svd, so the line fails at any tol
    # below sigma_2.  Both sides round: against a 50-digit SVD each read up to
    # 3e-17 off sigma_2 (1e-5 of it at delta = 1e-12), hence the d*eps allowance
    rng = np.random.default_rng(d)
    for delta in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.3):
        # not a vertical line: all d^2 entries have modulus 1/d, so that moving
        # any one of them raises the Schmidt rank
        line = all_lines(d)[int(rng.integers(d, d * (d + 1)))]
        perturbed = row_sum_oracle(d, line, "standard")
        perturbed[rng.integers(d * d)] += delta * np.exp(2j * np.pi * rng.random())
        sigma_2 = np.linalg.svd(perturbed.reshape(d, d), compute_uv=False)[1]
        monkeypatch.setattr(li, "_line_sums", lambda basis, rows: perturbed[None].copy())
        floor = (1 - 1e-9) * sigma_2 - d * np.finfo(float).eps
        assert schmidt_inversion_check(d, line).second_singular_value >= floor
        for tol in (floor, sigma_2 / 2):
            assert not schmidt_inversion_check(d, line, tol).schmidt_rank_ok


@pytest.mark.parametrize("d", [3, 7, 17, 31])
def test_factoring_without_reports_keeps_every_other_field_bytes(d):
    lines = all_lines(d)
    full = _factor_lines(d, lines)
    bare = _factor_lines(d, lines, DEFAULT_TOL, "standard", False)
    assert bare.reports == []
    for name in ("second", "found", "factor2"):
        assert getattr(bare, name).tobytes() == getattr(full, name).tobytes()
    assert full.second.tolist() == [report.second_singular_value for report in full.reports]


def test_unfactorable_line_without_reports_fails_the_rank_gate(monkeypatch):
    d = 7
    poisoned = point_basis(d, False).copy()
    poisoned[3 * d + 5, 4] = np.nan
    monkeypatch.setattr(li, "point_basis", lambda d, plus: poisoned)
    with np.errstate(invalid="ignore"):
        factored = _factor_lines(d, all_lines(d), DEFAULT_TOL, "standard", False)
    through = [i for i, line in enumerate(all_lines(d)) if PhasePoint(3, 5) in line_points(d, line)]
    assert np.flatnonzero(np.isnan(factored.second)).tolist() == through
    first = all_lines(d)[through[0]]
    with pytest.raises(FactorizationFailed, match=f"line b={first.b} m={first.m} .* nan"):
        _mub_stack_from_lines(d, factored)


@pytest.mark.parametrize("d", ODD_PRIMES_TO_31)
def test_stacked_core_predicts_the_expected_factor2_labels(d):
    lines = all_lines(d)
    predicted = li._line_tables(d)[1]
    matched = _factor_lines(d, lines).found
    assert np.array_equal(matched, predicted)
    for line, k, found in zip(lines, predicted, matched):
        label, m = expected_factor2_label_oracle(d, line)
        assert expected_factor2_label(d, line) == (label, m)
        assert k == (0 if label.is_cb else label.index + 1) * d + m
        assert found == k


@pytest.mark.parametrize("d", [7, 13])
def test_line_blocks_do_not_change_sums_or_reports(d, monkeypatch):
    # one budget sizes both loops: line blocks of max(d, budget // d^3) lines, sum
    # blocks of budget // d^3 lines; shuffled lines so that blocks mix pencils
    every = all_lines(d)
    lines = [every[i] for i in np.random.default_rng(d).permutation(len(every))]
    rows = _line_tables(d)[0][_line_index(d, lines)]
    basis = li._summed_basis(d, "standard")
    expected, sums = _factor_lines(d, lines), li._line_sums(basis, rows).tobytes()
    # line blocks of d (sum blocks of 1 and 3 lines), 2d and all lines
    for lines_per_budget in (1, 3, 2 * d, d * (d + 1)):
        monkeypatch.setattr(st, "_BLOCK_VALUES", lines_per_budget * d**3)
        factored = _factor_lines(d, lines)
        assert factored.reports == expected.reports
        assert factored.found.tobytes() == expected.found.tobytes()
        assert factored.factor2.tobytes() == expected.factor2.tobytes()
        assert li._line_sums(basis, rows).tobytes() == sums


def test_nan_line_fails_only_its_own_report(monkeypatch):
    d = 7
    lines = all_lines(d)
    oracle = [schmidt_inversion_check_oracle(d, line) for line in lines]
    poisoned = point_basis(d, False).copy()
    poisoned[3 * d + 5, 4] = np.nan
    monkeypatch.setattr(li, "point_basis", lambda d, plus: poisoned)
    with np.errstate(invalid="ignore"):
        reports = _factor_lines(d, lines).reports
        single = schmidt_inversion_check(d, Line(CB, 3))
    assert single.max_error == math.inf and not single.schmidt_rank_ok
    through = {i for i, line in enumerate(lines) if PhasePoint(3, 5) in line_points(d, line)}
    assert len(through) == d + 1
    for i, (report, expected) in enumerate(zip(reports, oracle)):
        if i in through:
            assert report.max_error == math.inf
            assert not report.schmidt_rank_ok
            assert (report.factor1_b, report.factor1_m, report.factor1_fidelity) == (CB, 0, 0.0)
            assert (report.factor2_b, report.factor2_m, report.factor2_fidelity) == (CB, 0, 0.0)
        else:
            # the other lines of each pencil keep their values
            assert report == expected


def test_factoring_holds_no_line_state_beyond_its_pencil():
    d = 31
    lines = all_lines(d)
    # warm the point basis, line tables and MUB stack, which stay cached
    _factor_lines(d, lines)
    tracemalloc.start()
    try:
        _factor_lines(d, lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all d(d+1) line states at once, d^2 amplitudes each: 14.5 MiB at d=31
    assert peak < d * (d + 1) * d * d * np.dtype(np.complex128).itemsize


@pytest.mark.parametrize("d", ODD_PRIMES_TO_31)
def test_max_error_equals_scalar_exp_phase_target(d):
    for realization in ("standard", "alt"):
        for line in all_lines(d):
            report = schmidt_inversion_check(d, line, realization=realization)
            assert report.max_error == max_error_oracle(d, line, realization)


@pytest.mark.parametrize("d", [3, 5])
def test_line_state_matches_oracle(d):
    for line in all_lines(d):
        assert np.abs(
            line_state(d, line).vector.amplitudes - line_state_oracle(d, line)
        ).max() < 1e-13


@pytest.mark.parametrize("d", [3, 5, 7])
def test_vertical_lines_collapse_to_equal_pairs(d):
    for m in range(d):
        state = line_state(d, Line(CB, m)).vector
        target = tensor(Ket.basis(d, m), Ket.basis(d, m))
        assert np.abs(state.amplitudes - target.amplitudes).max() < 1e-12


def test_origin_horizontal_line_is_uniform_product():
    # frozen from the direct summation: both factors uniform, phase 1
    d = 3
    state = line_state(d, Line(BasisLabel(0), 0)).vector
    uniform = Ket(np.full(d, 1 / np.sqrt(d), dtype=complex))
    assert np.abs(state.amplitudes - tensor(uniform, uniform).amplitudes).max() < 1e-13


@pytest.mark.parametrize("d", [3, 5, 7])
def test_every_line_state_has_schmidt_rank_one(d):
    for line in all_lines(d):
        coeffs = schmidt_decompose(line_state(d, line).vector).coefficients
        assert coeffs[1] < 1e-12
        assert abs(coeffs[0] - 1) < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_factorization_labels_and_phase(d):
    for line in all_lines(d):
        rep = schmidt_inversion_check(d, line)
        assert rep.schmidt_rank_ok
        assert rep.max_error < 1e-10
        expected_b, expected_m = expected_factor2_label(d, line)
        assert (rep.factor2_b, rep.factor2_m) == (expected_b, expected_m)
        assert rep.factor2_fidelity > 1 - 1e-12
        assert rep.global_phase_exponent == 0


@pytest.mark.parametrize("d", [3, 5, 7])
def test_factor_one_is_tilde_partner(d):
    for line in all_lines(d):
        if line.b.is_cb:
            continue
        state = line_state(d, line).vector
        b2, m2 = expected_factor2_label(d, line)
        u = mub_state(d, b2, m2).vector
        # the line state is tilde(u) (x) u with phase exactly 1
        product = tensor(u.tilde(), u)
        assert abs(np.vdot(product.amplitudes, state.amplitudes) - 1) < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_outer_product_of_line_factors_equals_kron(d):
    # schmidt_inversion_check builds the product state with np.outer
    for line in all_lines(d):
        decomp = schmidt_decompose(line_state(d, line).vector)
        f1 = phase_canonical(Ket.normalized(decomp.left[0])).amplitudes
        f2 = phase_canonical(Ket.normalized(decomp.right[0])).amplitudes
        assert np.array_equal(np.outer(f1, f2).ravel(), np.kron(f1, f2))


def test_expected_labels_use_half_and_quarter():
    d = 7
    line = Line(BasisLabel(3), 5)
    b2, m2 = expected_factor2_label(d, line)
    assert b2 == BasisLabel(quarter(3, d))
    assert m2 == half(5, d)


@pytest.mark.parametrize("b", [5, -1, 7, 2.5, "3", True, False])
def test_out_of_range_orientations_rejected(b):
    d = 5
    error = InvalidLabel if isinstance(b, int) and not isinstance(b, bool) else TypeError

    def calls(line):
        return (
            lambda: line_points(d, line),
            lambda: line_state(d, line),
            lambda: schmidt_inversion_check(d, line),
            lambda: expected_factor2_label(d, line),
        )

    for call in calls(Line(BasisLabel(b), 0)):
        with pytest.raises(error):
            call()
    # the offset stays reduced mod d and must be an integer: 1.5 is no grid offset
    shifted = Line(BasisLabel(2), d + 3)
    assert line_points(d, shifted) == line_points(d, Line(BasisLabel(2), 3))
    assert line_points(d, Line(BasisLabel(np.int64(2)), np.int32(d + 3))) == line_points(d, shifted)
    assert expected_factor2_label(d, shifted) == expected_factor2_label(d, Line(BasisLabel(2), 3))
    assert expected_factor2_label(d, Line(CB, -1)) == (CB, d - 1)
    assert expected_factor2_label(d, Line(CB, np.int64(-1))) == (CB, d - 1)
    for line in (Line(CB, 1.5), Line(BasisLabel(2), 1.5), Line(CB, "1")):
        for call in calls(line):
            with pytest.raises(TypeError):
                call()


@pytest.mark.parametrize("m", [5.0, True, False, np.float64(1.0)])
def test_float_or_bool_offsets_rejected(m):
    # True would otherwise be read as offset 1
    d = 5
    for line in (Line(CB, m), Line(BasisLabel(2), m)):
        with pytest.raises(TypeError, match="is not an integer"):
            line_points(d, line)
        with pytest.raises(TypeError, match="is not an integer"):
            _line_index(d, [line])


def test_numpy_integer_dimension_reports_the_int():
    report = schmidt_inversion_check(np.int64(7), Line(BasisLabel(3), 2))
    assert report.d == 7 and type(report.d) is int
    assert report == schmidt_inversion_check(7, Line(BasisLabel(3), 2))
    rows = line_factor_table(np.int64(5))
    assert all(type(row["d"]) is int for row in rows)
    assert json.dumps(rows) == json.dumps(line_factor_table(5))


@pytest.mark.parametrize("d", [0, 2, 9])
def test_expected_label_rejects_bad_dimensions(d):
    for line in (Line(CB, 1), Line(BasisLabel(1), 1)):
        with pytest.raises(InvalidDimension):
            expected_factor2_label(d, line)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_orientation_line_states_are_orthonormal(d):
    for label in BasisLabel.all_labels(d):
        vecs = np.array(
            [line_state(d, Line(label, m)).vector.amplitudes for m in range(d)]
        )
        assert np.abs(vecs.conj() @ vecs.T - np.eye(d)).max() < 1e-12
        # their projector sum is a rank-d projector on the d^2 space
        proj = vecs.T @ vecs.conj()
        assert np.abs(proj @ proj - proj).max() < 1e-12
        assert abs(np.trace(proj).real - d) < 1e-10


# -- rebuilt basis family ----------------------------------------------------------


def test_rebuilt_family_d3_overlap_table():
    d = 3
    family = mub_from_lines(d)
    assert len(family) == d + 1
    stacks = [np.array([s.vector.amplitudes for s in basis]) for basis in family]
    for v in stacks:
        assert np.abs(v.conj() @ v.T - np.eye(d)).max() < 1e-12
    for vi, vj in itertools.combinations(stacks, 2):
        assert np.abs(np.abs(vi.conj() @ vj.T) - 1 / np.sqrt(d)).max() < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_rebuilt_family_matches_direct_construction(d):
    rebuilt = mub_from_lines(d)
    direct = mub_family(d)
    for basis_rebuilt, basis_direct in zip(rebuilt, direct):
        for s_rebuilt, s_direct in zip(basis_rebuilt, basis_direct):
            assert s_rebuilt.b == s_direct.b and s_rebuilt.m == s_direct.m
            fid = abs(s_direct.vector.inner(s_rebuilt.vector))
            assert abs(fid - 1) < 1e-12


def test_vertical_orientation_reproduces_computational_basis():
    d = 5
    rebuilt = mub_from_lines(d)
    for m, state in enumerate(rebuilt[0]):
        assert state.b.is_cb
        assert np.abs(state.vector.amplitudes - Ket.basis(d, m).amplitudes).max() < 1e-12


# -- report table -------------------------------------------------------------------


def test_factor_table_shape_and_rows():
    d = 5
    rows = line_factor_table(d)
    assert len(rows) == d * (d + 1)
    for row in rows:
        assert row["schmidt_rank_ok"]
        assert row["max_error"] < 1e-10
        assert row["global_phase_exponent"] == 0
    by_label = {(r["b"], r["m"]): r for r in rows}
    r = by_label[("3", 4)]
    assert r["factor_label_b"] == str(quarter(3, d))
    assert r["factor_label_m"] == half(4, d)
    r = by_label[("cb", 2)]
    assert r["factor_label_b"] == "cb" and r["factor_label_m"] == 2
    assert line_factor_table(np.int64(7)) == line_factor_table(7)


def test_alt_realization_also_factorizes():
    # the conjugate point family sums to rank-1 products too; labels differ
    d = 5
    rows = line_factor_table(d, realization="alt")
    assert len(rows) == d * (d + 1)
    for row in rows:
        assert row["schmidt_rank_ok"]
    # vertical lines in the alternative family pair m with -m
    state = line_state(d, Line(CB, 2), realization="alt").vector
    target = tensor(Ket.basis(d, 2), Ket.basis(d, (d - 2) % d))
    assert abs(abs(np.vdot(target.amplitudes, state.amplitudes)) - 1) < 1e-12
