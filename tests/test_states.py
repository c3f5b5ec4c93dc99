import numpy as np
import pytest

from mesphase.errors import DimMismatch
from mesphase.states import (
    DEFAULT_TOL,
    DensityOp,
    Ket,
    equal_up_to_global_phase,
    mes_deviation,
    partial_trace,
    phase_canonical,
    schmidt_decompose,
    tensor,
    UnitaryOp,
    _BLOCK_VALUES,
    _blocks,
    _check_unit_rows,
    _gram_deviation,
)

rng = np.random.default_rng(20260810)


def random_ket(dim: int) -> Ket:
    return Ket.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def diagonal_pair(d: int) -> Ket:
    vec = np.zeros(d * d, dtype=complex)
    for m in range(d):
        vec[m * d + m] = 1.0
    return Ket(vec / np.sqrt(d))


def test_ket_construction_and_norm():
    Ket(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Ket(np.array([1.0, 1.0]))
    k = Ket.normalized([1.0, 1.0])
    assert abs(np.linalg.norm(k.amplitudes) - 1) < 1e-15


def test_ket_is_immutable():
    k = Ket.basis(3, 0)
    with pytest.raises(ValueError):
        k.amplitudes[0] = 0.0


def test_ket_basis_takes_integer_labels_only():
    assert np.array_equal(Ket.basis(3, 4).amplitudes, [0, 1, 0])
    assert np.array_equal(Ket.basis(3, np.int64(-1)).amplitudes, [0, 0, 1])
    for bad in (1.5, "1", 1.0, True, False):
        with pytest.raises(TypeError):
            Ket.basis(3, bad)
        with pytest.raises(TypeError):
            Ket.basis(bad, 0)
    for dim in (0, -3):
        with pytest.raises(DimMismatch):
            Ket.basis(dim, 0)


def test_tensor_flat_index_convention():
    # particle 1 is the high digit: |0>|1> sits at flat index 0*3 + 1
    prod = tensor(Ket.basis(3, 0), Ket.basis(3, 1))
    expected = np.zeros(9)
    expected[1] = 1.0
    assert np.abs(prod.amplitudes - expected).max() < 1e-15

    with pytest.raises(DimMismatch):
        tensor(Ket.basis(3, 0), Ket.basis(5, 0))


def test_tensor_uniform():
    d = 5
    uniform = Ket(np.full(d, 1 / np.sqrt(d), dtype=complex))
    prod = tensor(uniform, uniform)
    assert np.abs(prod.amplitudes - 1 / d).max() < 1e-14


def test_diagonal_pair_via_tensor_sum():
    d = 3
    total = np.zeros(d * d, dtype=complex)
    for m in range(d):
        total += tensor(Ket.basis(d, m), Ket.basis(d, m)).amplitudes
    assert np.abs(total / np.sqrt(d) - diagonal_pair(d).amplitudes).max() < 1e-15


def test_partial_trace_product_state():
    rho = partial_trace(tensor(Ket.basis(3, 0), Ket.basis(3, 2)), keep=1)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.abs(rho.matrix - expected).max() < 1e-14


@pytest.mark.parametrize("d", [3, 5, 7])
def test_partial_trace_diagonal_pair_is_maximally_mixed(d):
    state = diagonal_pair(d)
    for keep in (1, 2):
        rho = partial_trace(state, keep)
        assert np.abs(rho.matrix - np.eye(d) / d).max() < 1e-14


def test_partial_trace_properties_random():
    for _ in range(50):
        state = random_ket(25)
        for keep in (1, 2):
            rho = partial_trace(state, keep).matrix
            assert np.abs(rho - rho.conj().T).max() < 1e-12
            assert abs(np.trace(rho) - 1) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_partial_trace_rejects_non_square_dims():
    with pytest.raises(DimMismatch):
        partial_trace(random_ket(6), keep=1)


def test_partial_trace_takes_keep_through_operator_index():
    state = random_ket(9)
    assert np.array_equal(partial_trace(state, np.int64(2)).matrix, partial_trace(state, 2).matrix)
    for keep in (1.0, 2.0, 1.5, "1", True, False):
        with pytest.raises(TypeError, match="integer"):
            partial_trace(state, keep)
    for keep in (0, 3, -1):
        with pytest.raises(ValueError, match="keep must be 1 or 2"):
            partial_trace(state, keep)


def test_schmidt_product_state():
    decomp = schmidt_decompose(tensor(random_ket(4), random_ket(4)))
    assert abs(decomp.coefficients[0] - 1) < 1e-12
    assert np.abs(decomp.coefficients[1:]).max() < 1e-12


def test_schmidt_two_term_product():
    # (|00> + |01>)/sqrt(2) factorizes: second factor (|0>+|1>)/sqrt(2)
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[1] = 1 / np.sqrt(2)
    decomp = schmidt_decompose(Ket(vec))
    assert abs(decomp.coefficients[0] - 1) < 1e-12
    assert abs(decomp.coefficients[1]) < 1e-12


def reconstruct(decomp):
    """sum_k c_k * left_k (x) right_k as one broadcast product summed over k:
    the flat amplitudes a SchmidtDecomposition stands for."""
    products = decomp.left[:, :, None] * decomp.right[:, None, :]
    return (decomp.coefficients[:, None, None] * products).sum(axis=0).ravel()


def test_schmidt_reconstruction_random():
    for dim in (9, 25, 49):
        state = random_ket(dim)
        decomp = schmidt_decompose(state)
        assert np.abs(reconstruct(decomp) - state.amplitudes).max() < 1e-10
        d = int(np.sqrt(dim))
        assert np.abs(decomp.left.conj() @ decomp.left.T - np.eye(d)).max() < 1e-10
        assert np.abs(decomp.right.conj() @ decomp.right.T - np.eye(d)).max() < 1e-10
        assert np.all(np.diff(decomp.coefficients) <= 1e-15)


def reconstruct_oracle(decomp):
    """sum_k c_k * kron(left_k, right_k), the terms stacked and summed in order."""
    terms = [c * np.kron(l, r) for c, l, r in zip(decomp.coefficients, decomp.left, decomp.right)]
    return np.sum(terms, axis=0)


def test_schmidt_reconstruction_equals_kron_sum_bytes():
    seeded = np.random.default_rng(7)

    def draw(n):
        return Ket.normalized(seeded.normal(size=n) + 1j * seeded.normal(size=n))

    states = [diagonal_pair(d) for d in (2, 3, 5, 7)]
    states += [tensor(draw(d), draw(d)) for d in (2, 3, 5, 7)]
    states += [draw(d * d) for d in range(2, 9) for _ in range(20)]
    for state in states:
        decomp = schmidt_decompose(state)
        assert reconstruct(decomp).tobytes() == reconstruct_oracle(decomp).tobytes()


def test_is_mes_on_diagonal_pair_and_product():
    assert mes_deviation(diagonal_pair(5)) < DEFAULT_TOL
    assert not mes_deviation(tensor(Ket.basis(3, 0), Ket.basis(3, 0))) < DEFAULT_TOL


def test_is_mes_rejects_padded_qubit_pair():
    # amplitude only on two diagonal slots of a 3-level pair: coefficients
    # (1/sqrt2, 1/sqrt2, 0) != 1/sqrt3
    vec = np.zeros(9, dtype=complex)
    vec[0 * 3 + 0] = vec[1 * 3 + 1] = 1 / np.sqrt(2)
    state = Ket(vec)
    assert not mes_deviation(state) < DEFAULT_TOL
    coeffs = schmidt_decompose(state).coefficients
    assert np.abs(coeffs - [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0]).max() < 1e-12


def test_is_mes_matches_spectrum_spread_definition():
    # alternative reading: all Schmidt coefficients equal
    for _ in range(200):
        state = random_ket(9)
        coeffs = schmidt_decompose(state).coefficients
        spread_ok = coeffs.max() - coeffs.min() < 1e-10
        assert (mes_deviation(state) < DEFAULT_TOL) == spread_ok
    assert mes_deviation(diagonal_pair(3)) < DEFAULT_TOL and (
        lambda c: c.max() - c.min() < 1e-10
    )(schmidt_decompose(diagonal_pair(3)).coefficients)


def test_equal_up_to_global_phase():
    d = 5
    a = random_ket(d)
    w2 = np.exp(2j * np.pi * 2 / d)
    ok, phase = equal_up_to_global_phase(a, Ket(a.amplitudes * w2))
    assert ok
    assert abs(np.exp(1j * phase) - w2) < 1e-12

    ok, _ = equal_up_to_global_phase(Ket.basis(3, 0), Ket.basis(3, 1))
    assert not ok

    with pytest.raises(DimMismatch):
        equal_up_to_global_phase(Ket.basis(3, 0), Ket.basis(5, 0))


def test_phase_canonical():
    k = Ket(np.array([0.0, 1j, 0.0]))
    canon = phase_canonical(k)
    assert abs(canon.amplitudes[1] - 1.0) < 1e-15
    ok, _ = equal_up_to_global_phase(k, canon)
    assert ok


def test_density_op_validation():
    with pytest.raises(ValueError):
        DensityOp(np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOp(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityOp(np.diag([1.5, -0.5]))  # negative eigenvalue


def _one_entry(matrix, value):
    matrix = matrix.astype(complex)
    matrix[0, 1] = value
    return matrix


@pytest.mark.parametrize(
    "cls,valid", [(DensityOp, np.eye(2) / 2), (UnitaryOp, np.eye(2))]
)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_operators_reject_non_finite_matrices(cls, valid, value):
    cls(valid)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError):
            cls(np.full((2, 2), value))
        with pytest.raises(ValueError):
            cls(_one_entry(valid, value))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_ket_rejects_non_finite_amplitudes(value):
    amps = np.full(5, 1 / np.sqrt(5), dtype=complex)
    Ket(amps)
    amps[3] = value
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError):
            Ket(amps)
        with pytest.raises(ValueError):
            Ket(np.full(5, value, dtype=complex))


def test_unit_row_check_fails_any_bad_row():
    rows = np.eye(4, dtype=complex)
    _check_unit_rows(rows)
    _check_unit_rows(rows[0])
    for bad in (np.nan, np.inf, 2.0):
        poisoned = rows.copy()
        poisoned[2, 1] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError):
                _check_unit_rows(poisoned)


def test_gram_deviation_counts_nan_as_infinite():
    assert _gram_deviation(np.eye(3, dtype=complex)) == 0.0
    rows = np.eye(3, dtype=complex)
    rows[1, 2] = np.nan
    assert _gram_deviation(rows) == np.inf


@pytest.mark.parametrize("n", [0, 1, _BLOCK_VALUES - 1, _BLOCK_VALUES, _BLOCK_VALUES + 1])
@pytest.mark.parametrize(
    "values_per_item, minimum, size",
    [(1, 1, _BLOCK_VALUES), (7**3, 1, 95), (17**3, 1, 6), (17**3, 17, 17), (31**3, 1, 1), (31**3, 31, 31)],
)
def test_blocks_cover_the_range_in_order(n, values_per_item, minimum, size):
    lengths, covered = [], []
    for block in _blocks(n, values_per_item, minimum):
        lengths.append(len(range(n)[block]))
        covered.extend(range(n)[block])
    assert covered == list(range(n))
    assert all(length == size for length in lengths[:-1])
    assert 0 < min(lengths, default=1) and max(lengths, default=0) <= size
    assert len(lengths) == -(-n // size)
