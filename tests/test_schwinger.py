import itertools
import json
import re

import numpy as np
import pytest

from mesphase.cli import main
from mesphase.errors import InvalidDimension, InvalidLabel
from mesphase.schwinger import (
    CB,
    BasisLabel,
    _eigen_residuals,
    clock_z,
    mub_eigen_residual,
    mub_basis,
    mub_family,
    mub_stack,
    mub_state,
    omega_powers,
    shift_x,
    validate_dimension,
)
from mesphase.states import DEFAULT_TOL, Ket


def stack(basis):
    return np.array([s.vector.amplitudes for s in basis])


def test_clock_and_shift_action():
    d = 3
    z, x = clock_z(d).matrix, shift_x(d).matrix
    w = omega_powers(d)
    e1 = Ket.basis(d, 1).amplitudes
    assert np.abs(z @ e1 - w[1] * e1).max() < 1e-15
    # wraparound |d-1> -> |0>
    assert np.abs(x @ Ket.basis(d, d - 1).amplitudes - Ket.basis(d, 0).amplitudes).max() < 1e-15


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_clock_shift_commutation_and_order(d):
    z, x = clock_z(d).matrix, shift_x(d).matrix
    w = omega_powers(d)[1]
    assert np.abs(z @ x - w * (x @ z)).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(z, d) - np.eye(d)).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(x, d) - np.eye(d)).max() < 1e-12


def test_invalid_dimensions_rejected():
    for bad in (2, 4, 9, 1, 7.0, "7", None):
        with pytest.raises(InvalidDimension):
            clock_z(bad)
        with pytest.raises(InvalidDimension):
            validate_dimension(bad)


def test_validate_dimension_accepts_odd_primes():
    for d in (3, 5, 7, 7919):
        assert validate_dimension(d) == d
    assert validate_dimension(np.int64(7)) == 7


def test_validate_dimension_refuses_two_composites_and_non_positives():
    for bad in (2, 9, 1, 0, -7):
        with pytest.raises(InvalidDimension, match=f"d={bad} must be an odd prime"):
            validate_dimension(bad)
    assert validate_dimension(3) == 3


@pytest.mark.parametrize("bad, shown", [("7", "'7'"), ("17", "'17'"), (7.0, "7.0"), (None, "None")])
def test_a_dimension_that_is_not_an_integer_is_named_by_its_repr(bad, shown):
    # the string '7' must not read as if the prime 7 had been refused
    with pytest.raises(InvalidDimension, match=re.escape(f"d={shown} must be an odd prime")):
        validate_dimension(bad)
    with pytest.raises(InvalidDimension, match=re.escape(f"d={shown} must be a positive integer")):
        omega_powers(bad)


def test_validate_dimension_agrees_with_trial_division():
    assert validate_dimension(7) == 7
    assert validate_dimension(7919) == 7919
    with pytest.raises(InvalidDimension, match="d=7917 must be an odd prime"):
        validate_dimension(7917)
    # oracle: the odd primes by exhaustive trial division
    for n in range(-5, 600):
        if n > 2 and all(n % k for k in range(2, n)):
            assert validate_dimension(n) == n
        else:
            with pytest.raises(InvalidDimension):
                validate_dimension(n)


@pytest.mark.parametrize("bad", [7.0, 3.5, "7", None])
def test_validate_dimension_refuses_non_integers(bad):
    with pytest.raises(InvalidDimension) as info:
        validate_dimension(bad)
    assert isinstance(info.value.__cause__, TypeError)


def test_shift_and_eigenrelation_refuse_a_float_dimension_once_cached():
    # 7.0 == 7, so a cache keyed by d must not let it through
    assert mub_eigen_residual(7, 1, 0) < 1e-12
    assert shift_x(7).matrix.dtype == np.complex128
    assert mub_stack(np.int64(7)) is mub_stack(7)
    for call in (lambda: shift_x(7.0), lambda: mub_eigen_residual(7.0, 1, 0), lambda: mub_state(7.0, 1, 2)):
        with pytest.raises(InvalidDimension):
            call()


def test_validate_dimension_refuses_every_non_int_once_an_int_is_remembered():
    assert validate_dimension(7) == 7
    for _ in range(2):
        # 7.0 == 7 and True == 1: neither may be found among the valid ints
        for bad in (7.0, True, 9, 2, np.float64(7.0)):
            with pytest.raises(InvalidDimension):
                validate_dimension(bad)
        with pytest.raises(InvalidDimension, match=r"^d=True must be an odd prime$"):
            validate_dimension(True)
        assert validate_dimension(7) == 7
    assert validate_dimension(np.int64(11)) == 11


def test_omega_powers_keys_by_the_int_and_refuses_what_is_no_dimension():
    # a numpy integer finds the int's entry; any d >= 1 is allowed, since a
    # relabeling of 4 vectors needs the 4th roots
    assert omega_powers(np.int64(7)) is omega_powers(7)
    assert omega_powers(np.int64(4)) is omega_powers(4)
    assert omega_powers(1).tolist() == [1]
    for _ in range(2):
        for bad in (7.0, np.float64(7.0), "7", 0, -3, True, False):
            with pytest.raises(InvalidDimension):
                omega_powers(bad)


def test_label_parse_and_count():
    labels = BasisLabel.all_labels(5)
    assert len(labels) == 6
    assert labels[0].is_cb
    assert BasisLabel.parse("cb", 5) == CB
    assert BasisLabel.parse("3", 5) == BasisLabel(3)
    with pytest.raises(InvalidLabel):
        BasisLabel.parse("5", 5)
    with pytest.raises(InvalidLabel):
        BasisLabel.parse("xyz", 5)


@pytest.mark.parametrize("bad", [-1, 7, 2.7, "3", True, False])
def test_out_of_range_integer_labels_rejected(bad):
    d = 7
    # a label that is not an integer fails closed instead of being truncated
    error = InvalidLabel if isinstance(bad, int) and not isinstance(bad, bool) else TypeError
    for call in (
        lambda: mub_state(d, bad, 0),
        lambda: mub_state(d, BasisLabel(bad), 0),
        lambda: mub_basis(d, bad),
        lambda: mub_eigen_residual(d, bad, 0),
    ):
        with pytest.raises(error):
            call()
    # the state index stays reduced mod d and must be an integer too
    assert mub_state(d, 3, -1).m == d - 1
    state = mub_state(d, np.int64(3), np.int32(-1))
    assert (state.b, state.m, type(state.m)) == (BasisLabel(3), d - 1, int)
    assert mub_eigen_residual(d, np.int64(2), np.int32(8)) == mub_eigen_residual(d, 2, 1)
    for m in (1.5, True, False):
        for call in (lambda: mub_state(d, 2, m), lambda: mub_eigen_residual(d, 2, m)):
            with pytest.raises(TypeError):
                call()


def test_mub_state_known_vectors():
    d = 3
    w = omega_powers(d)
    # all exponents vanish at b=0, m=0: the uniform vector
    uniform = mub_state(d, 0, 0).vector.amplitudes
    assert np.abs(uniform - 1 / np.sqrt(d)).max() < 1e-15
    # frozen: exponents b*n^2 at b=1 are 0, 1, 4 = 1 (mod 3)
    v = mub_state(d, 1, 0).vector.amplitudes
    expected = np.array([1.0, w[1], w[1]]) / np.sqrt(d)
    assert np.abs(v - expected).max() < 1e-15
    # computational labels give plain basis vectors
    assert np.abs(mub_state(d, CB, 2).vector.amplitudes - Ket.basis(d, 2).amplitudes).max() == 0.0


@pytest.mark.parametrize("d", [3, 5, 7, 11])
def test_family_orthonormal_and_unbiased(d):
    family = mub_family(d)
    assert len(family) == d + 1
    assert sum(len(b) for b in family) == d * (d + 1)
    stacks = [stack(b) for b in family]
    for v in stacks:
        assert np.abs(v.conj() @ v.T - np.eye(d)).max() < 1e-12
    for vi, vj in itertools.combinations(stacks, 2):
        assert np.abs(np.abs(vi.conj() @ vj.T) - 1 / np.sqrt(d)).max() < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_eigenrelation_all_labels(d):
    for b in range(d):
        for m in range(d):
            assert mub_eigen_residual(d, b, m) < 1e-12
            assert mub_eigen_residual(d, b, m) < DEFAULT_TOL


def dense_shift_residual(d, b, m):
    """The eigenrelation residual of |m; b> with X as the dense matrix of
    ``shift_x``, the product the rolls replace."""
    pows, state = omega_powers(d), mub_stack(d)[b + 1, m]
    z2b = np.diag(pows[[(2 * b * n) % d for n in range(d)]])
    return float(np.abs(pows[b] * (shift_x(d).matrix @ (z2b @ state)) - pows[m] * state).max())


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_rolled_shift_equals_the_dense_product(d):
    dense = np.array([dense_shift_residual(d, b, m) for b in range(d) for m in range(d)])
    assert _eigen_residuals(d).tobytes() == dense.tobytes()
    assert [mub_eigen_residual(d, b, m) for b in range(d) for m in range(d)] == dense.tolist()


def test_eigenrelation_uniform_vector_shift_fixed_point():
    # b=0, m=0: the shift fixes the uniform vector with eigenvalue 1
    assert mub_eigen_residual(5, 0, 0) < 1e-14


def test_eigenrelation_negative_control():
    d = 5
    state = mub_state(d, 2, 1).vector.amplitudes.copy()
    state[0] *= np.exp(0.3j)  # deliberate perturbation
    perturbed = Ket(state)
    w = omega_powers(d)
    z2b = np.linalg.matrix_power(clock_z(d).matrix, 4)
    applied = w[2] * shift_x(d).matrix @ z2b @ perturbed.amplitudes
    assert np.abs(applied - w[1] * perturbed.amplitudes).max() > 1e-3


def test_eigenrelation_rejects_cb_label():
    with pytest.raises(InvalidLabel):
        mub_eigen_residual(5, CB, 0)


def test_tilde():
    d = 7
    # basis vectors are real: fixed points
    e3 = mub_state(d, CB, 3)
    assert np.abs(e3.vector.tilde().amplitudes - e3.vector.amplitudes).max() == 0.0
    # general states: conjugated amplitudes, involution
    s = mub_state(d, 4, 2).vector
    t = s.tilde()
    assert np.abs(t.amplitudes - np.conj(s.amplitudes)).max() == 0.0
    assert np.abs(t.tilde().amplitudes - s.amplitudes).max() == 0.0


def test_family_json_shape(capsys):
    d = 3
    assert main(["gen-mub", "--d", str(d), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["d"] == d
    assert len(data["bases"]) == d + 1
    assert data["bases"][0]["b"] == "cb"
    for basis in data["bases"]:
        assert len(basis["states"]) == d
        for state in basis["states"]:
            ket = state["ket"]
            assert ket["dim"] == len(ket["re"]) == len(ket["im"]) == d
