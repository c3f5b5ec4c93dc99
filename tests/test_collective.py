import functools

import numpy as np
import pytest

from mesphase.collective import (
    COLLECTIVE_GENERATORS,
    SINGLE_GENERATORS,
    _family_tables,
    _word_map,
    _local_images,
    _word_maps,
    HopResult,
    PhasePoint,
    collective_ops,
    collective_permutation,
    collective_to_particle,
    format_word,
    hop,
    hop_dense,
    hop_trajectory,
    local_action,
    parse_word,
    particle_to_collective,
    point_state_minus,
    point_state_plus,
    word_matrix,
)
from mesphase.errors import InvalidDimension, WordParseError
from mesphase.mes import mes_basis, mes_stack, mes_state, universal_state
from mesphase.schwinger import CB, clock_z, omega_powers, shift_x
from mesphase.states import DEFAULT_TOL, Ket, _omega_exponent, mes_deviation, partial_trace, tensor

rng = np.random.default_rng(42)


# -- index maps ---------------------------------------------------------------


def test_symmetric_pair_maps_to_zero_relative():
    for d in (3, 7):
        for m in range(d):
            idx = particle_to_collective(d, m, m)
            assert (idx.nc, idx.nr) == (m, 0)


def test_known_index_value():
    # oracle: the inverse map sends (nc, nr) = (4, 4) to (8, 0) = (1, 0) mod 7
    assert collective_to_particle(7, 4, 4) == (1, 0)
    idx = particle_to_collective(7, 1, 0)
    assert (idx.nc, idx.nr) == (4, 4)


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_index_roundtrip_exhaustive(d):
    for n1 in range(d):
        for n2 in range(d):
            idx = particle_to_collective(d, n1, n2)
            assert collective_to_particle(d, idx.nc, idx.nr) == (n1, n2)
            assert (idx.nc + idx.nr) % d == n1
            assert (idx.nc - idx.nr) % d == n2


def brute_half(x, d):
    """Oracle: the residue y with 2y = x mod d, by exhaustive search."""
    return next(y for y in range(d) if (2 * y - x) % d == 0)


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_index_map_equals_the_brute_force_halves(d):
    for n1 in range(d):
        for n2 in range(d):
            idx = particle_to_collective(d, n1, n2)
            expected = brute_half(n1 + n2, d), brute_half(n1 - n2, d)
            assert (idx.nc, idx.nr) == expected
            assert type(idx.nc) is int and type(idx.nr) is int


def test_index_maps_take_integer_labels_only():
    assert particle_to_collective(7, np.int64(3), np.int32(2)) == particle_to_collective(7, 3, 2)
    assert particle_to_collective(7, -4, 9) == particle_to_collective(7, 3, 2)
    assert collective_to_particle(7, np.int64(1), np.uint8(5)) == (6, 3)
    for bad in ((1.5, 0), (0, 2.0), ("1", 2), (True, 0), (0, False)):
        with pytest.raises(TypeError):
            particle_to_collective(7, *bad)
        with pytest.raises(TypeError):
            collective_to_particle(7, *bad)


def test_lattice_points_take_integer_labels_only():
    assert hop(7, (np.int64(1), np.int32(2)), "Xc^1") == hop(7, (1, 2), "Xc^1")
    assert hop(7, PhasePoint(np.int64(8), 2), "Xc^1") == HopResult(PhasePoint(2, 2), 0)
    same = point_state_minus(7, (np.int64(9), 0)).amplitudes, point_state_minus(7, (2, 0)).amplitudes
    assert np.array_equal(*same)
    for bad in ((1.5, 2), PhasePoint(1.5, 2), (2.9, 0), ("1", 2), PhasePoint(1, 2.0), (True, 2), PhasePoint(1, False)):
        for call in (
            lambda: hop(7, bad, "Xc^1"),
            lambda: hop_dense(7, bad, "Xc^1"),
            lambda: hop_trajectory(7, bad, "Xc^1"),
            lambda: point_state_minus(7, bad),
            lambda: point_state_plus(7, bad),
        ):
            with pytest.raises(TypeError):
                call()


@pytest.mark.parametrize("d", [0, 1, 2, 9, -3, 7.0])
def test_entry_points_reject_bad_dimensions(d):
    for call in (
        lambda: particle_to_collective(d, 1, 2),
        lambda: collective_to_particle(d, 1, 2),
        lambda: collective_permutation(d),
        lambda: point_state_plus(d, (1, 2)),
        lambda: point_state_minus(d, (1, 2)),
        lambda: hop(d, (1, 2), ""),
        lambda: hop_dense(d, (1, 2), ""),
        lambda: hop_trajectory(d, (1, 2), ""),
        lambda: hop_trajectory(d, (1, 2), "Xc"),
    ):
        with pytest.raises(InvalidDimension):
            call()


@pytest.mark.parametrize("d", [2, 4, 9])
def test_single_particle_words_reject_bad_dimensions(d):
    # a single-particle word acts on one qudit, which must be of odd prime dimension too
    state = Ket.basis(d * d, 1)
    for call in (
        lambda: word_matrix(d, "X", SINGLE_GENERATORS),
        lambda: word_matrix(d, [("Z", 2)], SINGLE_GENERATORS),
        lambda: local_action(state, 1, "X"),
        lambda: local_action(state, 2, "Z^2"),
    ):
        with pytest.raises(InvalidDimension):
            call()


# -- permutation ---------------------------------------------------------------


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_permutation_structure(d):
    p = collective_permutation(d).matrix
    assert np.all(np.isin(np.abs(p), [0.0, 1.0]))
    assert np.all(p.sum(axis=0) == 1)
    assert np.all(p.sum(axis=1) == 1)
    assert np.abs(p @ p.conj().T - np.eye(d * d)).max() == 0.0


def test_permutation_fixes_origin():
    d = 5
    p = collective_permutation(d).matrix
    e00 = tensor(Ket.basis(d, 0), Ket.basis(d, 0)).amplitudes
    assert np.abs(p @ e00 - e00).max() == 0.0


# -- point states ---------------------------------------------------------------


def plus_oracle(d, q, p):
    """Direct sum over the pair basis, independent of the permutation route."""
    w = omega_powers(d)
    vec = np.zeros(d * d, dtype=complex)
    for m in range(d):
        vec[((m + q) % d) * d + (m - q) % d] += w[(-m * p) % d]
    return vec / np.sqrt(d)


@pytest.mark.parametrize("d", [3, 5])
def test_plus_states_match_oracle(d):
    for q in range(d):
        for p in range(d):
            assert np.abs(
                point_state_plus(d, (q, p)).amplitudes - plus_oracle(d, q, p)
            ).max() < 1e-13


def test_plus_at_origin_is_diagonal_pair():
    d = 7
    expected = np.zeros(d * d, dtype=complex)
    for m in range(d):
        expected[m * d + m] = 1 / np.sqrt(d)
    assert np.abs(point_state_plus(d, (0, 0)).amplitudes - expected).max() < 1e-14


@pytest.mark.parametrize("d", [3, 5, 7])
def test_point_bases_orthonormal_and_unbiased(d):
    plus = np.array(
        [point_state_plus(d, (q, p)).amplitudes for q in range(d) for p in range(d)]
    )
    minus = np.array(
        [point_state_minus(d, (q, p)).amplitudes for q in range(d) for p in range(d)]
    )
    eye = np.eye(d * d)
    assert np.abs(plus.conj() @ plus.T - eye).max() < 1e-12
    assert np.abs(minus.conj() @ minus.T - eye).max() < 1e-12
    # every cross overlap has modulus exactly 1/d
    assert np.abs(np.abs(minus.conj() @ plus.T) - 1 / d).max() < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_point_states_are_maximally_entangled(d):
    for q in range(d):
        for p in range(d):
            assert mes_deviation(point_state_plus(d, (q, p))) < DEFAULT_TOL
            assert mes_deviation(point_state_minus(d, (q, p))) < DEFAULT_TOL


def test_cb_basis_element_factorizes_with_phase():
    for d in (3, 5, 7):
        w = omega_powers(d)
        for q in range(d):
            for p in range(d):
                element = mes_state(d, CB, CB, (2 * q) % d, p)
                overlap = np.vdot(
                    point_state_plus(d, (q, p)).amplitudes, element.vector.amplitudes
                )
                assert abs(overlap - w[(-q * p) % d]) < 1e-12


def test_point_states_from_generator_words():
    # translations from the origin produce the point states with phase 1
    d = 5
    ops = collective_ops(d)
    powm = np.linalg.matrix_power
    for q in range(d):
        for p in range(d):
            via_ops = powm(ops.zc.matrix, d - p) @ powm(ops.xr.matrix, q) @ point_state_plus(d, (0, 0)).amplitudes
            assert np.abs(via_ops - point_state_plus(d, (q, p)).amplitudes).max() < 1e-12
            via_ops = powm(ops.xc.matrix, q) @ powm(ops.zr.matrix, d - p) @ point_state_minus(d, (0, 0)).amplitudes
            assert np.abs(via_ops - point_state_minus(d, (q, p)).amplitudes).max() < 1e-12


# -- operator algebra -------------------------------------------------------------


@pytest.mark.parametrize("d", [3, 5, 7])
def test_factorization_identities(d):
    ops = collective_ops(d)
    z, x, eye = clock_z(d).matrix, shift_x(d).matrix, np.eye(d)
    powm = np.linalg.matrix_power
    h = (d + 1) // 2  # modular half of 1
    assert np.abs(np.kron(z, eye) - ops.zr.matrix @ ops.zc.matrix).max() < 1e-12
    assert np.abs(np.kron(eye, z) - powm(ops.zr.matrix, d - 1) @ ops.zc.matrix).max() < 1e-12
    assert np.abs(np.kron(x, eye) - powm(ops.xr.matrix, h) @ powm(ops.xc.matrix, h)).max() < 1e-12
    assert np.abs(np.kron(eye, x) - powm(ops.xr.matrix, d - h) @ powm(ops.xc.matrix, h)).max() < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_collective_commutation(d):
    ops = collective_ops(d)
    w = omega_powers(d)[1]
    for xs, zs in ((ops.xc, ops.zc), (ops.xr, ops.zr)):
        assert np.abs(zs.matrix @ xs.matrix - w * xs.matrix @ zs.matrix).max() < 1e-12
    for a, b in ((ops.xc, ops.zr), (ops.xr, ops.zc), (ops.xc, ops.xr), (ops.zc, ops.zr)):
        assert np.abs(a.matrix @ b.matrix - b.matrix @ a.matrix).max() < 1e-12
    for s in (ops.xc, ops.zc, ops.xr, ops.zr):
        assert np.abs(np.linalg.matrix_power(s.matrix, d) - np.eye(d * d)).max() < 1e-12


# -- words ------------------------------------------------------------------------


def test_parse_word():
    assert parse_word("Xc^2 Xr^6 Zr^-1") == [("Xc", 2), ("Xr", 6), ("Zr", -1)]
    assert parse_word("Xc Zc") == [("Xc", 1), ("Zc", 1)]
    assert parse_word("") == []
    assert parse_word("   ") == []
    assert format_word(parse_word("Xc^2  Xr")) == "Xc^2 Xr^1"


def test_parse_word_rejects_bad_factors():
    for bad in ("Xq^2", "Xc^", "Xc^x", "xc^2 $", "Y^1"):
        with pytest.raises(WordParseError):
            parse_word(bad)
    with pytest.raises(WordParseError):
        parse_word("Xc^2", generators=("X", "Z"))


@pytest.mark.parametrize(
    "word, single",
    [
        ([("Q", 3), ("Xc", 1)], [("Q", 3), ("X", 1)]),
        ([("Xc", 1.5)], [("X", 1.5)]),
        ([("Xc", "x")], [("Z", "x")]),
        ([("X", 1)], [("Xc", 1)]),
        ([("Xc^2", 1)], [("X^2", 1)]),
        ([("Xc Zc", 1)], [("X Z", 1)]),
        ([("Xc", "1\n")], [("X", " 1")]),
        ([("Xc", "2")], [("X", "2")]),
    ],
)
def test_factor_lists_are_checked_like_text(word, single):
    # each listed factor goes through the text grammar on its own, so every entry point
    # refuses a bad one instead of returning a wrong answer
    d, start = 5, (1, 2)
    state = point_state_minus(d, start)
    calls = [
        lambda: hop(d, start, word),
        lambda: hop_dense(d, start, word),
        lambda: hop_trajectory(d, start, word),
        lambda: word_matrix(d, word),
        lambda: local_action(state, 1, single),
    ]
    for call in calls:
        with pytest.raises(WordParseError):
            call()


def test_factor_lists_equal_their_text():
    d, start = 7, (3, 4)
    word = [("Xc", 2), ("Zr", -1), ("Xr", 9), ("Zc", 0)]
    text = format_word(word)
    assert hop(d, start, word) == hop(d, start, text)
    assert hop_trajectory(d, start, word) == hop_trajectory(d, start, text)
    assert np.array_equal(word_matrix(d, word), word_matrix(d, text))
    state = point_state_minus(d, start)
    single = [("X", 3), ("Z", -2)]
    assert np.array_equal(
        local_action(state, 2, single).amplitudes, local_action(state, 2, format_word(single)).amplitudes
    )


def test_word_matrix_respects_written_order():
    d = 5
    ops = collective_ops(d)
    expected = ops.xc.matrix @ np.linalg.matrix_power(ops.zc.matrix, 2)
    assert np.abs(word_matrix(d, "Xc Zc^2") - expected).max() < 1e-12


# -- local action -------------------------------------------------------------------


def test_local_action_identity_word():
    state = universal_state(5, CB)
    assert np.abs(local_action(state, 1, "").amplitudes - state.amplitudes).max() == 0.0


def test_local_action_takes_the_particle_through_operator_index():
    state = universal_state(5, CB)
    for particle in (1, 2):
        expected = local_action(state, particle, "X^2").amplitudes
        assert np.array_equal(local_action(state, np.int64(particle), "X^2").amplitudes, expected)
    for particle in (1.0, 2.0, 1.5, "1", True, False):
        with pytest.raises(TypeError, match="integer"):
            local_action(state, particle, "X^2")
    for particle in (0, 3):
        with pytest.raises(ValueError, match="particle must be 1 or 2"):
            local_action(state, particle, "X^2")


@pytest.mark.parametrize("d", [3, 5, 7])
def test_doubled_shift_moves_relative_label(d):
    universal = universal_state(d, CB)
    moved_1 = local_action(universal, 1, "X^2")
    moved_2 = local_action(universal, 2, "X^2")
    # acting on particle 1 advances the relative label; acting on particle 2
    # retreats it, landing on relative label d-1
    assert abs(np.vdot(point_state_plus(d, (1, 0)).amplitudes, moved_1.amplitudes) - 1) < 1e-12
    assert abs(np.vdot(point_state_plus(d, (d - 1, 0)).amplitudes, moved_2.amplitudes) - 1) < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_single_particle_action_leaves_reductions_alone(d):
    universal = universal_state(d, CB)
    moved = local_action(universal, 1, "X^2")
    for state in (universal, moved):
        for keep in (1, 2):
            rho = partial_trace(state, keep).matrix
            assert np.abs(rho - np.eye(d) / d).max() < 1e-12


@pytest.mark.parametrize("d", [3, 5])
def test_random_single_particle_words_preserve_mes(d):
    elements = mes_basis(d, CB, CB)
    for _ in range(50):
        word = [
            (str(rng.choice(["X", "Z"])), int(rng.integers(-d, d + 1)))
            for _ in range(rng.integers(1, 4))
        ]
        state = elements[rng.integers(0, d * d)].vector
        moved = local_action(state, int(rng.integers(1, 3)), word)
        assert mes_deviation(moved) < 1e-10


# -- hopping -----------------------------------------------------------------------


def test_hop_known_word():
    # frozen: doubled center shift plus six relative shifts picks up phase 6p
    d = 7
    result = hop(d, (1, 2), "Xc^2 Xr^6")
    assert result == HopResult(PhasePoint(3, 2), (6 * 2) % d)
    dense, fidelity = hop_dense(d, (1, 2), "Xc^2 Xr^6")
    assert dense == result and abs(fidelity - 1) < 1e-12


def test_hop_empty_word():
    result = hop(5, (2, 3), "")
    assert result == HopResult(PhasePoint(2, 3), 0)


def test_hop_relative_shift_keeps_point():
    d = 5
    for q in range(d):
        for p in range(d):
            sym = hop(d, (q, p), "Xr")
            assert sym.point == PhasePoint(q, p)
            assert sym.phase_exponent == p
            dense, fidelity = hop_dense(d, (q, p), "Xr")
            assert dense == sym and abs(fidelity - 1) < 1e-12


def test_hop_order_sensitivity():
    # diagonal factors see the labels current at their turn
    d = 5
    q = 2
    a = hop(d, (q, 0), "Zc Xc")  # shift first: phase q+1
    b = hop(d, (q, 0), "Xc Zc")  # clock first: phase q
    assert a.phase_exponent == (q + 1) % d
    assert b.phase_exponent == q
    for word in ("Zc Xc", "Xc Zc"):
        sym = hop(d, (q, 0), word)
        dense, fidelity = hop_dense(d, (q, 0), word)
        assert dense == sym and abs(fidelity - 1) < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_hop_random_words_match_dense_action(d):
    for _ in range(100):
        word = [
            (str(rng.choice(COLLECTIVE_GENERATORS)), int(rng.integers(-9, 10)))
            for _ in range(rng.integers(0, 5))
        ]
        q, p = int(rng.integers(0, d)), int(rng.integers(0, d))
        sym = hop(d, (q, p), word)
        dense, fidelity = hop_dense(d, (q, p), word)
        assert abs(fidelity - 1) < 1e-10
        assert dense == sym


@functools.lru_cache(maxsize=None)
def public_minus_stack(d):
    """The d^2 public minus lattice states, row q*d + p."""
    return np.array([point_state_minus(d, (q, p)).amplitudes for q in range(d) for p in range(d)])


def hop_dense_oracle(d, point, word):
    """``hop_dense`` as one call per point: a fresh dense word matrix applied
    to the public lattice state, matched against the minus point states."""
    stack = public_minus_stack(d)
    applied = word_matrix(d, word) @ point_state_minus(d, point).amplitudes
    k = int(np.argmax(np.abs(stack @ applied.conj())))
    overlap = np.vdot(stack[k], applied)
    if not np.isfinite(overlap):
        return HopResult(PhasePoint(0, 0), 0), 0.0
    return HopResult(PhasePoint(*divmod(k, d)), _omega_exponent(overlap, d)), float(abs(overlap))


def assert_hop_dense_is_the_oracle_bytes(d, cases):
    """``hop_dense`` of each (word, row q*d + p) of ``cases`` equals the
    oracle's point, and its fidelity the oracle's bytes."""
    for word, row in cases:
        point, fidelity = hop_dense(d, divmod(row, d), word)
        expected, expected_fidelity = hop_dense_oracle(d, divmod(row, d), word)
        assert point == expected
        assert np.float64(fidelity).tobytes() == np.float64(expected_fidelity).tobytes()


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_hop_dense_of_every_point_equals_the_oracle_bytes(d):
    # all d^2 points under each word
    words = ("Xc^2 Xr^6", "Zc^3 Xc^-1 Zr^2 Xr^4", "")
    assert_hop_dense_is_the_oracle_bytes(d, [(word, row) for word in words for row in range(d * d)])


def _random_words(rng, generators, d, count, longest):
    return [
        [(generators[int(rng.integers(0, len(generators)))], int(rng.integers(-2 * d, 2 * d + 1)))
         for _ in range(rng.integers(0, longest + 1))]
        for _ in range(count)
    ]


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_hop_dense_of_random_words_equals_the_oracle_bytes(d):
    rng = np.random.default_rng(500 + d)
    words = _random_words(rng, COLLECTIVE_GENERATORS, d, 200, 5)
    rows = rng.integers(0, d * d, size=200).tolist()
    assert_hop_dense_is_the_oracle_bytes(d, zip(words, rows))


@pytest.mark.parametrize("d", [17, 23, 29])
def test_hop_dense_at_large_d_equals_the_oracle_bytes(d):
    rng = np.random.default_rng(700 + d)
    word = "Xc^2 Xr^6 Zc^3"
    words = _random_words(rng, COLLECTIVE_GENERATORS, d, 100, 4)
    rows = rng.integers(0, d * d, size=100).tolist()
    assert_hop_dense_is_the_oracle_bytes(d, [(word, row) for row in range(d * d)] + list(zip(words, rows)))


@pytest.mark.parametrize("d", [3, 5, 7, 11])
def test_stacked_local_images_equal_the_per_word_gathers_bytes(d):
    rng = np.random.default_rng(900 + d)
    words = _random_words(rng, SINGLE_GENERATORS, d, 60, 4)
    particles = rng.integers(1, 3, size=60).tolist()
    states_ = mes_stack(d, CB, CB)[rng.integers(0, d * d, size=60)]
    images = _local_images(states_, particles, *_word_maps(d, words, SINGLE_GENERATORS))
    for image, amplitudes, particle, word in zip(images, states_, particles, words):
        # one word at a time: gather the rows (particle 1) or columns of the amplitude matrix
        src, exponents = _word_map(d, word, SINGLE_GENERATORS)
        phases, amps = omega_powers(d)[exponents % d], amplitudes.reshape(d, d)
        expected = phases[:, None] * amps[src] if particle == 1 else amps[:, src] * phases
        assert image.tobytes() == expected.ravel().tobytes()
        assert image.tobytes() == local_action(Ket(amplitudes), particle, word).amplitudes.tobytes()


def test_hop_trajectory_steps():
    d = 7
    steps = hop_trajectory(d, (1, 2), "Xc^2 Xr^6")
    assert steps[0][1] == HopResult(PhasePoint(1, 2), 0)
    # rightmost factor first: the relative shifts act before the center shift
    assert steps[1][0] == "Xr^6"
    assert steps[1][1] == HopResult(PhasePoint(1, 2), 5)
    assert steps[-1][1] == hop(d, (1, 2), "Xc^2 Xr^6")


def _suffix_hop_trajectory(d, point, factors):
    """Every suffix of the word hopped from the start point."""
    steps = [("", hop(d, point, []))]
    for i in range(len(factors) - 1, -1, -1):
        steps.append((format_word([factors[i]]), hop(d, point, factors[i:])))
    return steps


@pytest.mark.parametrize("d", [3, 7, 13])
def test_hop_trajectory_matches_suffix_hops(d):
    rng = np.random.default_rng(1000 + d)
    for _ in range(200):
        factors = [
            (str(rng.choice(COLLECTIVE_GENERATORS)), int(rng.integers(-2 * d, 2 * d + 1)))
            for _ in range(rng.integers(0, 9))
        ]
        point = (int(rng.integers(-d, 2 * d)), int(rng.integers(-d, 2 * d)))
        assert hop_trajectory(d, point, factors) == _suffix_hop_trajectory(d, point, factors)


def one_step_maps(d):
    """Every generator's exact (src, e) map, G v = w^e v[src], from its
    definition: X|n> = |n+1> and Z|n> = w^n |n> on one particle; Xc and Xr
    move |n1, n2> to |n1+1, n2+1> and |n1+1, n2-1>; Zc and Zr multiply by
    w^nc and w^nr of ``particle_to_collective``."""
    pairs = [(n1, n2) for n1 in range(d) for n2 in range(d)]

    def shift(images):
        # (G v)[image of j] = v[j]
        src = np.empty(len(images), dtype=np.int64)
        for j, image in enumerate(images):
            src[image] = j
        return src, np.zeros(len(images), dtype=np.int64)

    def phase(labels):
        return np.arange(len(labels)), np.array(labels, dtype=np.int64)

    return {
        "Xc": shift([(n1 + 1) % d * d + (n2 + 1) % d for n1, n2 in pairs]),
        "Xr": shift([(n1 + 1) % d * d + (n2 - 1) % d for n1, n2 in pairs]),
        "Zc": phase([particle_to_collective(d, n1, n2).nc for n1, n2 in pairs]),
        "Zr": phase([particle_to_collective(d, n1, n2).nr for n1, n2 in pairs]),
        "X": shift([(n + 1) % d for n in range(d)]),
        "Z": phase(list(range(d))),
    }


def word_map_oracle(d, factors, generators):
    """``_word_map`` one generator step at a time: power % d steps of the
    defining map per factor, rightmost factor first in action."""
    maps = one_step_maps(d)
    src = np.arange(d * d if set(generators) <= set(COLLECTIVE_GENERATORS) else d)
    exponents = np.zeros_like(src)
    for name, power in factors:
        g_src, g_exp = maps[name]
        for _ in range(power % d):
            exponents += g_exp[src]
            src = g_src[src]
    return src, exponents


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_power_tables_give_the_step_by_step_word_maps(d):
    for generators in (COLLECTIVE_GENERATORS, SINGLE_GENERATORS):
        src_table, exp_table = _family_tables(d, generators)
        assert not src_table.flags.writeable and not exp_table.flags.writeable
        for g, name in enumerate(generators):
            for power in range(-d, 2 * d + 1):
                got = _word_map(d, [(name, power)], generators)
                expected = word_map_oracle(d, [(name, power)], generators)
                assert all(np.array_equal(a, b) for a, b in zip(got, expected))
                # the table row of the reduced power, exponents unreduced
                assert np.array_equal(src_table[g, power % d], expected[0])
                assert np.array_equal(exp_table[g, power % d], expected[1])
            # row 0 is the identity map
            assert np.array_equal(src_table[g, 0], np.arange(src_table.shape[-1]))
            assert not exp_table[g, 0].any()
        rng = np.random.default_rng(d)
        for _ in range(200):
            factors = [
                (generators[int(rng.integers(0, len(generators)))], int(rng.integers(-3 * d, 3 * d)))
                for _ in range(rng.integers(0, 7))
            ]
            got = _word_map(d, factors, generators)
            expected = word_map_oracle(d, factors, generators)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_array_powers_give_the_stacked_word_maps(d):
    # a batch of words composed at once equals one word at a time
    rng = np.random.default_rng(d)
    for generators, size in ((COLLECTIVE_GENERATORS, d * d), (SINGLE_GENERATORS, d)):
        for _ in range(20):
            words = _random_words(rng, generators, d, int(rng.integers(1, d + 1)), 5)
            src, exponents = _word_maps(d, words, generators)
            assert src.shape == exponents.shape == (len(words), size)
            for j, word in enumerate(words):
                expected_src, expected_exp = _word_map(d, word, generators)
                assert np.array_equal(src[j], expected_src)
                assert np.array_equal(exponents[j], expected_exp)


@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("generators", [("Z", "X"), ("Xc",), ("Zr", "Xc"), ("Xr", "Zc", "Zr", "Xc")])
def test_word_maps_of_a_subset_or_reordered_set_equal_the_per_word_maps(d, generators):
    size = d * d if set(generators) <= set(COLLECTIVE_GENERATORS) else d
    rng = np.random.default_rng(d)
    words = [[]] + _random_words(rng, generators, d, 30, 4) + [[]]
    src, exponents = _word_maps(d, words, generators)
    assert src.shape == exponents.shape == (len(words), size)
    for j, word in enumerate(words):
        expected_src, expected_exp = word_map_oracle(d, word, generators)
        assert np.array_equal(src[j], expected_src)
        assert np.array_equal(exponents[j], expected_exp)
        assert all(np.array_equal(a, b) for a, b in zip(_word_map(d, word, generators), (src[j], exponents[j])))
    for batch in ([], [[]]):
        src, exponents = _word_maps(d, batch, generators)
        assert src.shape == exponents.shape == (len(batch), size)
        assert np.array_equal(src, np.tile(np.arange(size), (len(batch), 1))) and not exponents.any()


def test_a_mixed_generator_set_raises_before_the_word_is_parsed():
    for mixed in (("X", "Xc"), ("Zr", "Z"), COLLECTIVE_GENERATORS + SINGLE_GENERATORS):
        for word in ("Q^1", "X^x", [("Q", 1)], [("X", 1.5)]):
            with pytest.raises(ValueError, match="neither all collective") as raised:
                _word_map(5, word, mixed)
            assert not isinstance(raised.value, WordParseError)
        with pytest.raises(ValueError, match="neither all collective"):
            _word_maps(5, [[("X", 1)]], mixed)
        with pytest.raises(ValueError, match="neither all collective"):
            _word_maps(5, [], mixed)
