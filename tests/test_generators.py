"""The collective permutation, the integer generator maps and the stacked
MES-suite checks against the loop and dense constructions they replaced,
kept here as reference oracles.

``collective_permutation``, ``collective_ops``, ``mes_stack`` and the
reduced operators are compared exactly (``np.array_equal`` or ``==``); word
matrices, the gathered ``local_action``, values-only singular values and the
projection probabilities round differently from their oracles, so they are
compared within a rounding bound.  The per-basis MES rows and the
point-basis rows report certified bounds, which must not fall below their
dense oracles.
"""

from functools import lru_cache

import numpy as np
import pytest

from mesphase import collective as co
from mesphase import mes as me
from mesphase import verify
from mesphase.collective import (
    COLLECTIVE_GENERATORS,
    SINGLE_GENERATORS,
    collective_ops,
    local_action,
    point_basis,
    word_matrix,
)
from mesphase.errors import WordParseError
from mesphase.schwinger import CB, BasisLabel, clock_z, mub_basis, omega_powers, shift_x
from mesphase.states import Ket, mes_deviation, reduced_operators, schmidt_decompose
from mesphase.verify import _worst, run_suites

DIMS = [3, 5, 7, 11, 13]


# -- reference constructions ------------------------------------------------------


@lru_cache(maxsize=None)
def permutation_oracle(d):
    """Read-only d^2 x d^2 permutation with a 1 at (nc*d + nr, n1*d + n2),
    one ``particle_to_collective`` call per pair (n1, n2)."""
    perm = np.zeros((d * d, d * d), dtype=np.complex128)
    for n1 in range(d):
        for n2 in range(d):
            idx = co.particle_to_collective(d, n1, n2)
            perm[idx.nc * d + idx.nr, n1 * d + n2] = 1.0
    perm.setflags(write=False)
    return perm


def collective_ops_oracle(d):
    """perm.T @ kron(op_c, op_r) @ perm for each collective generator."""
    perm = permutation_oracle(d)
    z, x, eye = clock_z(d).matrix, shift_x(d).matrix, np.eye(d)
    factors = {"Xc": (x, eye), "Zc": (z, eye), "Xr": (eye, x), "Zr": (eye, z)}
    return {name: perm.T @ np.kron(*pair) @ perm for name, pair in factors.items()}


def word_matrix_oracle(d, word, generators):
    """The product of dense matrix powers, in written order."""
    if generators == COLLECTIVE_GENERATORS:
        base = collective_ops_oracle(d)
    else:
        base = {"X": shift_x(d).matrix, "Z": clock_z(d).matrix}
    mat = np.eye(len(base[generators[0]]), dtype=np.complex128)
    for name, power in word:
        mat = mat @ np.linalg.matrix_power(base[name], power % d)
    return mat


def local_action_oracle(state, particle, word):
    """The dense single-particle word matrix, tensored with the identity."""
    d = int(np.sqrt(state.dim))
    w, eye = word_matrix(d, word, SINGLE_GENERATORS), np.eye(d)
    full = np.kron(w, eye) if particle == 1 else np.kron(eye, w)
    return full @ state.amplitudes


def mes_basis_oracle(d, b, b_prime):
    """Row q*d + p: sum over m of w^(-m p) |m; b> (x) |m - q; b'>, from zeros."""
    w = omega_powers(d)
    rows1 = [s.vector.amplitudes for s in mub_basis(d, b)]
    rows2 = [s.vector.amplitudes for s in mub_basis(d, b_prime)]
    stack = np.zeros((d * d, d * d), dtype=np.complex128)
    for q in range(d):
        for p in range(d):
            for m in range(d):
                stack[q * d + p] += w[(-m * p) % d] * np.kron(rows1[m], rows2[(m - q) % d])
    return stack / np.sqrt(d)


def mes_deviation_oracle(amplitudes, d):
    """The larger deviation of m m^dagger and (m^dagger m)^T from identity/d."""
    m = amplitudes.reshape(d, d)
    target = np.eye(d) / d
    return max(
        np.abs(m @ m.conj().T - target).max(),
        np.abs((m.conj().T @ m).T - target).max(),
    )


def outer_products(alphas):
    """The flat outer products conj(a) a^T of the rows a of ``alphas``,
    shape (len(alphas), d*d), entry i*d + j being conj(a_i) a_j."""
    d = alphas.shape[1]
    return (alphas.conj()[:, :, None] * alphas[:, None, :]).reshape(-1, d * d)


def projections(rhos, outer):
    """<a|rho|a> for every rho of an (n, d, d) stack and every state a of
    the flat outer products ``outer`` (:func:`outer_products`), shape
    (n, len(outer)), as one matmul: <a|rho|a> = sum_ij conj(a_i) a_j rho_ij."""
    n, d, _ = rhos.shape
    return rhos.reshape(n, d * d) @ outer.T


def mes_stacks(d):
    return [
        np.array([e.vector.amplitudes for e in me.mes_basis(d, label, label)])
        for label in BasisLabel.all_labels(d)
    ]


def mes_rows_oracle(d, seed=0):
    """mes.reduced, mes.schmidt and mes.random_projection as the per-element
    loops computed them: a deviation, a Schmidt decomposition and a three-operand
    einsum per reduced operator."""
    rng = np.random.default_rng(seed)
    elements = [
        e.vector
        for label in BasisLabel.all_labels(d)
        for e in me.mes_basis(d, label, label)
    ]
    reduced = _worst(*(mes_deviation_oracle(v.amplitudes, d) for v in elements))
    schmidt = _worst(
        *(np.abs(schmidt_decompose(v).coefficients - 1 / np.sqrt(d)).max() for v in elements)
    )
    alphas = rng.normal(size=(200, d)) + 1j * rng.normal(size=(200, d))
    alphas /= np.linalg.norm(alphas, axis=1, keepdims=True)
    projection = 0.0
    for v in elements:
        m = v.amplitudes.reshape(d, d)
        for rho in (m @ m.conj().T, (m.conj().T @ m).T):
            probs = np.einsum("ai,ij,aj->a", alphas.conj(), rho, alphas)
            projection = _worst(projection, np.abs(probs - 1 / d).max())
    return reduced, schmidt, projection


def collective_rows_oracle(d):
    """collective.point_bases, point_mes, conjugate_overlap,
    cb_mes_factorization and point_translation as the dense and per-point
    loops computed them: both (d^2, d^2) Grams, the reduced operators of each
    point state, the moduli of conj(minus) plus^T, d^2 mes_state calls and
    dense matrix powers of the generators."""
    plus, minus = point_basis(d, True), point_basis(d, False)
    ops = collective_ops_oracle(d)
    powm = np.linalg.matrix_power
    w = omega_powers(d)
    grams = _worst(*(np.abs(b.conj() @ b.T - np.eye(d * d)).max() for b in (plus, minus)))
    point_mes = _worst(
        *(mes_deviation_oracle(v, d) for v in np.concatenate([plus, minus]))
    )
    overlaps = np.abs(np.abs(minus.conj() @ plus.T) - 1.0 / d).max()
    cb_factorization = 0.0
    translation = 0.0
    for q in range(d):
        for p in range(d):
            element = me.mes_state(d, CB, CB, (2 * q) % d, p).vector.amplitudes
            overlap = np.vdot(plus[q * d + p], element)
            cb_factorization = _worst(cb_factorization, abs(overlap - w[(-q * p) % d]))
            gen_plus = powm(ops["Zc"], d - p) @ powm(ops["Xr"], q) @ plus[0]
            gen_minus = powm(ops["Xc"], q) @ powm(ops["Zr"], d - p) @ minus[0]
            translation = _worst(
                translation,
                abs(np.vdot(plus[q * d + p], gen_plus) - 1.0),
                abs(np.vdot(minus[q * d + p], gen_minus) - 1.0),
            )
    return grams, point_mes, overlaps, cb_factorization, translation


# -- generator maps ---------------------------------------------------------------


@pytest.mark.parametrize("d", DIMS)
def test_collective_permutation_equals_pairwise_loop(d):
    assert np.array_equal(co.collective_permutation(d).matrix, permutation_oracle(d))


@pytest.mark.parametrize("d", DIMS)
def test_collective_index_equals_particle_to_collective(d):
    nc, nr = co._collective_index(d)
    for n1 in range(d):
        for n2 in range(d):
            idx = co.particle_to_collective(d, n1, n2)
            assert (nc[n1 * d + n2], nr[n1 * d + n2]) == (idx.nc, idx.nr)
    for arr in (nc, nr):
        with pytest.raises(ValueError):
            arr[0] = 1


@pytest.mark.parametrize("d", DIMS)
def test_collective_ops_equal_conjugated_kron(d):
    ops = collective_ops(d)
    for name, expected in collective_ops_oracle(d).items():
        assert np.array_equal(ops.by_name(name).matrix, expected)


def test_word_matrix_matches_matrix_power_chain():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.choice(DIMS))
        generators = COLLECTIVE_GENERATORS if rng.integers(0, 2) else SINGLE_GENERATORS
        word = [
            (str(rng.choice(generators)), int(rng.integers(-2 * d, 2 * d + 1)))
            for _ in range(rng.integers(0, 6))
        ]
        got = word_matrix(d, word, generators)
        expected = word_matrix_oracle(d, word, generators)
        assert np.array_equal(got != 0, expected != 0)
        assert np.abs(got - expected).max() < 1e-12


def test_word_matrix_rejects_generators_of_the_other_set():
    with pytest.raises(WordParseError):
        word_matrix(5, [("Xc", 1)], SINGLE_GENERATORS)
    with pytest.raises(WordParseError):
        word_matrix(5, [("X", 1)])


def test_word_maps_take_one_generator_set_of_any_size():
    # any subset of one set maps its own index: d^2 pair states or d states
    assert np.array_equal(word_matrix(5, "Xc^1", ("Xc",)), word_matrix(5, "Xc^1"))
    assert np.array_equal(word_matrix(5, "Z^2", ("Z",)), word_matrix(5, "Z^2", SINGLE_GENERATORS))
    for mixed in (("X", "Xc"), COLLECTIVE_GENERATORS + SINGLE_GENERATORS):
        for word in ("X^1", "Xc^1"):
            with pytest.raises(ValueError, match="neither all collective nor all single-particle"):
                word_matrix(5, word, mixed)


def test_generator_maps_are_read_only():
    for family in (COLLECTIVE_GENERATORS, SINGLE_GENERATORS):
        tables = co._family_tables(5, family)
        for arr in tables:
            assert arr.shape == (len(family), 5, tables[0].shape[-1])
            with pytest.raises(ValueError):
                arr[0, 1, 0] = 1


def test_local_action_matches_dense_kron():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.choice([3, 5, 7, 11]))
        word = [
            (str(rng.choice(SINGLE_GENERATORS)), int(rng.integers(-2 * d, 2 * d + 1)))
            for _ in range(rng.integers(0, 5))
        ]
        state = Ket.normalized(rng.normal(size=d * d) + 1j * rng.normal(size=d * d))
        for particle in (1, 2):
            got = local_action(state, particle, word).amplitudes
            assert np.abs(got - local_action_oracle(state, particle, word)).max() < 1e-15
    with pytest.raises(ValueError):
        local_action(state, 3, word)


# -- stacked MES-suite checks -----------------------------------------------------


@pytest.mark.parametrize(
    "d, pairs",
    [
        (3, [(b, b2) for b in BasisLabel.all_labels(3) for b2 in BasisLabel.all_labels(3)]),
        (5, [(b, b2) for b in BasisLabel.all_labels(5) for b2 in BasisLabel.all_labels(5)]),
        *(
            (d, [(CB, CB), (CB, BasisLabel(2)), (BasisLabel(3), CB), (BasisLabel(1), BasisLabel(d - 1))])
            for d in (7, 11, 13)
        ),
    ],
)
def test_mes_stack_equals_loop_oracle(d, pairs):
    for b, b_prime in pairs:
        stack = me.mes_stack(d, b, b_prime)
        assert np.array_equal(stack, mes_basis_oracle(d, b, b_prime))
        with pytest.raises(ValueError):
            stack[0, 0] = 1.0


@pytest.mark.parametrize("d", DIMS)
def test_reduced_operators_of_a_stack_equal_per_element(d):
    for v in mes_stacks(d)[:: max(1, d // 3)]:
        rho1, rho2 = reduced_operators(v.reshape(-1, d, d))
        for k, amplitudes in enumerate(v):
            m = amplitudes.reshape(d, d)
            assert np.array_equal(rho1[k], m @ m.conj().T)
            assert np.array_equal(rho2[k], (m.conj().T @ m).T)
            assert mes_deviation(Ket(amplitudes)) == mes_deviation_oracle(amplitudes, d)


@pytest.mark.parametrize("d", DIMS)
def test_batched_svd_equals_per_element_schmidt(d):
    for v in mes_stacks(d)[:: max(1, d // 3)]:
        values = np.linalg.svd(v.reshape(-1, d, d))[1]
        expected = [schmidt_decompose(Ket(a)).coefficients for a in v]
        assert np.array_equal(values, expected)


@pytest.mark.parametrize("d", DIMS)
def test_values_only_svd_equals_full_svd(d):
    for v in mes_stacks(d):
        blocks = v.reshape(-1, d, d)
        values = np.linalg.svd(blocks, compute_uv=False)
        assert values.shape == (d * d, d)
        assert np.abs(values - np.linalg.svd(blocks)[1]).max() < 1e-15


@pytest.mark.parametrize("d", DIMS)
def test_projections_match_einsum(d):
    rng = np.random.default_rng(d)
    alphas = rng.normal(size=(200, d)) + 1j * rng.normal(size=(200, d))
    alphas /= np.linalg.norm(alphas, axis=1, keepdims=True)
    rhos = np.concatenate(reduced_operators(mes_stacks(d)[2].reshape(-1, d, d)))
    got = projections(rhos, outer_products(alphas))
    assert got.shape == (len(rhos), 200)
    for rho, probs in zip(rhos, got):
        expected = np.einsum("ai,ij,aj->a", alphas.conj(), rho, alphas)
        assert np.abs(probs - expected).max() < 1e-13


@pytest.mark.parametrize("d", DIMS)
def test_mes_rows_match_per_element_oracle(d):
    rows = {r.check: r.max_error for r in run_suites([d], "mes")}
    reduced, schmidt, projection = mes_rows_oracle(d)
    # the rows report certified bounds on the dense values
    assert reduced <= rows["mes.reduced"] < 1e-11
    assert schmidt <= rows["mes.schmidt"] < 1e-11
    assert projection <= rows["mes.random_projection"] < 1e-11


@pytest.mark.parametrize("d", DIMS)
def test_collective_rows_match_dense_oracle(d):
    rows = {r.check: r.max_error for r in run_suites([d], "collective")}
    grams, point_mes, overlaps, cb_factorization, translation = collective_rows_oracle(d)
    # the point-basis rows report bounds on the dense values; an entry of a
    # reduced operator and an overlap are each one complex product of two
    # table values, a modulus and a rounded 1/d, so their oracle rounds by at
    # most gamma_6 / d
    slack = verify._gamma(6) / d
    assert grams <= rows["collective.point_bases"] < 1e-12
    assert point_mes - slack <= rows["collective.point_mes"] < 1e-12
    assert overlaps - slack <= rows["collective.conjugate_overlap"] < 1e-12
    assert rows["collective.cb_mes_factorization"] == cb_factorization
    # point_translation checks exact integer maps
    assert translation < 1e-14
    assert rows["collective.point_translation"] == 0.0

