import itertools
import json

import numpy as np
import pytest

import mesphase.cli as cli
import mesphase.mes as me
import mesphase.states as st
from mesphase.cli import main
from mesphase.errors import InvalidDimension, InvalidLabel, NotBijective, NotOrthonormal
from mesphase.mes import (
    _mes_amplitudes,
    _universal_amplitudes,
    build_relabeling,
    diagonalizer_for,
    mes_basis,
    mes_stack,
    mes_state,
    universal_state,
)
from mesphase.schwinger import (
    CB,
    BasisLabel,
    basis_rows,
    clock_z,
    mub_stack,
    mub_state,
    omega_powers,
)
from mesphase.states import (
    DEFAULT_TOL,
    Ket,
    equal_up_to_global_phase,
    mes_deviation,
    partial_trace,
    schmidt_decompose,
    tensor,
)

ODD_PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def diagonal_pair(d):
    vec = np.zeros(d * d, dtype=complex)
    for m in range(d):
        vec[m * d + m] = 1.0
    return vec / np.sqrt(d)


def test_origin_element_is_diagonal_pair():
    d = 5
    element = mes_state(d, CB, CB, 0, 0)
    assert np.abs(element.vector.amplitudes - diagonal_pair(d)).max() < 1e-14


def mes_oracle(d, q, p):
    """Direct loop construction in the computational bases."""
    w = omega_powers(d)
    vec = np.zeros(d * d, dtype=complex)
    for m in range(d):
        vec += w[(-m * p) % d] * tensor(
            Ket.basis(d, m), Ket.basis(d, (m - q) % d)
        ).amplitudes
    return vec / np.sqrt(d)


def test_cb_elements_match_loop_oracle():
    d = 5
    for q in range(d):
        for p in range(d):
            element = mes_state(d, CB, CB, q, p)
            assert np.abs(element.vector.amplitudes - mes_oracle(d, q, p)).max() < 1e-13


@pytest.mark.parametrize("d", [3, 5])
def test_basis_gram_identity_all_labels(d):
    for label in BasisLabel.all_labels(d):
        elements = mes_basis(d, label, label)
        assert len(elements) == d * d
        v = np.array([e.vector.amplitudes for e in elements])
        assert np.abs(v.conj() @ v.T - np.eye(d * d)).max() < 1e-12


def test_basis_gram_identity_mixed_labels():
    d = 5
    elements = mes_basis(d, BasisLabel(2), CB)
    v = np.array([e.vector.amplitudes for e in elements])
    assert np.abs(v.conj() @ v.T - np.eye(d * d)).max() < 1e-12
    # mixed labels are maximally entangled too
    for e in elements:
        for keep in (1, 2):
            rho = partial_trace(e.vector, keep).matrix
            assert np.abs(rho - np.eye(d) / d).max() < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_every_element_is_maximally_entangled(d):
    for label in BasisLabel.all_labels(d):
        for e in mes_basis(d, label, label):
            assert mes_deviation(e.vector) < 1e-10
            for keep in (1, 2):
                rho = partial_trace(e.vector, keep).matrix
                assert np.abs(rho - np.eye(d) / d).max() < 1e-12
            coeffs = schmidt_decompose(e.vector).coefficients
            assert np.abs(coeffs - 1 / np.sqrt(d)).max() < 1e-12


def test_completeness():
    d = 5
    v = np.array([e.vector.amplitudes for e in mes_basis(d, BasisLabel(1), BasisLabel(3))])
    total = v.T @ v.conj()
    assert np.abs(total - np.eye(d * d)).max() < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_universal_state_is_label_independent(d):
    states = [universal_state(d, label) for label in BasisLabel.all_labels(d)]
    # collapses to the diagonal pair exactly, for every basis choice
    for s in states:
        assert np.abs(s.amplitudes - diagonal_pair(d)).max() < 1e-12
    for a, b in itertools.combinations(states, 2):
        ok, _ = equal_up_to_global_phase(a, b)
        assert ok
        assert abs(abs(a.inner(b)) - 1) < 1e-12


def universal_oracle(d, b):
    """(1/sqrt d) sum_m kron(|m; b>, conj |m; b>), summed from zeros."""
    rows = basis_rows(d, b)[1]
    vec = np.zeros(d * d, dtype=np.complex128)
    for m in range(d):
        vec += np.kron(rows[m], np.conj(rows[m]))
    return vec / np.sqrt(d)


@pytest.mark.parametrize("d", ODD_PRIMES_TO_31)
def test_universal_state_equals_kron_sum_bytes(d):
    for b in BasisLabel.all_labels(d):
        expected = universal_oracle(d, b).tobytes()
        assert _universal_amplitudes(d, b).tobytes() == expected
        assert universal_state(d, b).amplitudes.tobytes() == expected


def mes_sum_oracle(d, rows1, rows2, qs, ps):
    """The d-step sum: at step m, every (q, p) element gets its term
    w^(-m p) * kron(rows1[m], rows2[m - q]), the whole stack at once."""
    pows = omega_powers(d)
    total = np.zeros((len(qs), len(ps), d * d), dtype=np.complex128)
    for m in range(d):
        pair = (rows1[m][:, None] * rows2[(m - qs) % d][:, None, :]).reshape(-1, 1, d * d)
        total += pows[(-m * ps) % d][:, None] * pair
    return total / np.sqrt(d)


def _label_pairs(d):
    labels = BasisLabel.all_labels(d)
    if d <= 5:
        return [(b, b_prime) for b in labels for b_prime in labels]
    return [(CB, CB), (BasisLabel(3), BasisLabel(5)), (CB, BasisLabel(d - 1)), (BasisLabel(1), CB)]


# at d = 17, 19, 23, 29 and 31 the q blocks hold 6, 4, 2, 1 and 1 rows, so
# the last block is partial at 17, 19 and 23; d <= 13 is one block
@pytest.mark.parametrize("d", [3, 5, 17, 19, 23, 29, 31])
def test_mes_sum_equals_d_step_loop_bytes(d):
    qs = ps = np.arange(d)
    for b, b_prime in _label_pairs(d):
        rows1, rows2 = basis_rows(d, b)[1], basis_rows(d, b_prime)[1]
        expected = mes_sum_oracle(d, rows1, rows2, qs, ps)
        assert mes_stack(d, b, b_prime).tobytes() == expected.tobytes()
        for q, p in ((0, 0), (d - 1, 1), (d // 2, d - 1)):
            element = mes_state(d, b, b_prime, q, p).vector.amplitudes
            assert element.tobytes() == expected[q, p].tobytes()
    for b in BasisLabel.all_labels(d)[:: max(1, d // 4)]:
        rows = basis_rows(d, b)[1]
        zero = np.array([0])
        expected = mes_sum_oracle(d, rows, rows.conj(), zero, zero)[0, 0]
        assert _universal_amplitudes(d, b).tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [5, 7])
def test_mes_sum_bytes_do_not_depend_on_the_block_size(d, monkeypatch):
    rows1, rows2 = basis_rows(d, BasisLabel(2))[1], basis_rows(d, CB)[1]
    qs = np.array([d - 1, 0, 3, 1, 2, 4][:d])
    ps = np.arange(d)[::-1]
    expected = mes_sum_oracle(d, rows1, rows2, qs, ps).tobytes()
    for rows_per_block in range(1, d + 2):
        monkeypatch.setattr(st, "_BLOCK_VALUES", rows_per_block * d**3)
        assert _mes_amplitudes(d, rows1, rows2, qs, ps).tobytes() == expected


# -- the stack builder, and the one basis the CLI keeps ------------------------------


def gen_mes(capsys, d, b, b_prime, fmt="json"):
    assert main(["gen-mes", "--d", str(d), "--b", b, "--b-prime", b_prime, "--format", fmt]) == 0
    return capsys.readouterr().out


def counted_builds(monkeypatch):
    """Record the arguments of every ``cli.mes_stack`` call from now on."""
    builds, build = [], cli.mes_stack
    monkeypatch.setattr(cli, "mes_stack", lambda *args: builds.append(args) or build(*args))
    return builds


def test_int_and_label_arguments_share_the_cached_stack(capsys, monkeypatch):
    first = mes_stack(7, 3, None)
    assert mes_stack(7, BasisLabel(3), CB).tobytes() == first.tobytes()
    assert mes_stack(7, np.int64(3), BasisLabel(None)).tobytes() == first.tobytes()
    # the CLI keys its basis by the parsed labels, so every spelling shares it
    cli._last_basis.clear()
    builds = counted_builds(monkeypatch)
    texts = {gen_mes(capsys, 7, b, b_prime) for b, b_prime in [("3", "cb"), ("03", "CB"), (" 3", "Cb ")]}
    assert len(texts) == 1
    assert builds == [(7, BasisLabel(3), CB)]


def test_a_new_pair_evicts_the_cached_stack(capsys, monkeypatch):
    cli._last_basis.clear()
    builds = counted_builds(monkeypatch)
    first = gen_mes(capsys, 5, "1", "2")
    second = gen_mes(capsys, 5, "2", "1")
    assert second != first
    assert list(cli._last_basis) == [(5, BasisLabel(2), BasisLabel(1))]
    assert gen_mes(capsys, 5, "1", "2") == first
    # another d is another pair too
    gen_mes(capsys, 7, "1", "2")
    assert list(cli._last_basis) == [(7, BasisLabel(1), BasisLabel(2))]
    assert len(builds) == 4


def kept_stack():
    """The stack that the CLI's one kept float index encodes, rebuilt bit
    for bit from its keys and its (d^2, 2, d^2) re-then-im codes."""
    ((keys, codes),) = cli._last_basis.values()
    return np.ascontiguousarray(np.moveaxis(keys[codes], -2, -1)).view(np.complex128)[..., 0]


def test_cached_stack_stays_read_only(capsys):
    stack = mes_stack(5, 0, 4)
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0] = 1.0
    with pytest.raises(ValueError):
        stack.reshape(-1)[0] = 1.0
    # a caller's copy is its own
    copy = stack.copy()
    copy[:] = 0
    fresh = _mes_amplitudes(5, basis_rows(5, 0)[1], basis_rows(5, 4)[1], np.arange(5), np.arange(5))
    assert stack.tobytes() == fresh.tobytes()
    # the CLI keeps the float index of such a stack, which encodes its bytes
    cli._last_basis.clear()
    text = gen_mes(capsys, 5, "0", "4")
    assert kept_stack().tobytes() == fresh.tobytes()
    assert gen_mes(capsys, 5, "0", "4") == text


@pytest.mark.parametrize("d", [3, 5])
def test_cached_stacks_equal_a_fresh_sum_for_every_pair_bytes(d, capsys):
    qs = np.arange(d)
    for b, b_prime in _label_pairs(d):
        rows1, rows2 = basis_rows(d, b)[1], basis_rows(d, b_prime)[1]
        fresh = _mes_amplitudes(d, rows1, rows2, qs, qs).tobytes()
        built = mes_stack(d, b, b_prime)
        assert built.tobytes() == fresh
        # a repeat is built afresh, with the same bytes
        again = mes_stack(d, b.index, b_prime.index)
        assert again is not built and again.tobytes() == fresh
        # and so is the basis whose float index the CLI keeps
        gen_mes(capsys, d, str(b), str(b_prime), "csv")
        assert kept_stack().tobytes() == fresh


@pytest.mark.parametrize("bad", [-1, 5, 2.5, "3", True, False])
def test_bad_labels_raise_before_the_cache_is_read(bad, capsys, monkeypatch):
    d = 5
    gen_mes(capsys, d, "1", "2")
    ((key, entry),) = cli._last_basis.items()

    def no_sum(*args):
        raise AssertionError("summed before the labels were checked")

    monkeypatch.setattr(me, "_mes_amplitudes", no_sum)
    error = InvalidLabel if isinstance(bad, int) and not isinstance(bad, bool) else TypeError
    for call in (lambda: mes_stack(d, bad, 2), lambda: mes_stack(d, 1, bad)):
        with pytest.raises(error):
            call()
    with pytest.raises(InvalidDimension):
        mes_stack(9, 1, 2)
    # on the command line a bad d or label is a usage error that leaves the
    # kept basis as it was
    argvs = [["--d", "9"]]
    if not isinstance(bad, str):  # "3" is a valid label there
        argvs += [["--d", "5", "--b", str(bad)], ["--d", "5", "--b-prime", str(bad)]]
    for argv in argvs:
        assert main(["gen-mes", *argv]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(cli._last_basis) == [key] and cli._last_basis[key] is entry


def test_universal_state_passes_is_mes():
    assert mes_deviation(universal_state(7, BasisLabel(4))) < DEFAULT_TOL


def worked_sources():
    s = 1 / np.sqrt(2)
    return [
        Ket(np.array([s, s, 0], dtype=complex)),
        Ket(np.array([s, -s, 0], dtype=complex)),
        Ket.basis(3, 2),
    ]


def test_relabeling_worked_example():
    s = 1 / np.sqrt(2)
    rel = build_relabeling(worked_sources(), [0, 1, 2])
    expected = np.array([[s, s, 0], [s, -s, 0], [0, 0, 1.0]])
    assert np.abs(rel.u.matrix - expected).max() < 1e-12
    # each source maps to its computational target
    for k, src in enumerate(worked_sources()):
        assert np.abs(rel.u.matrix @ src.amplitudes - Ket.basis(3, k).amplitudes).max() < 1e-12


def test_relabeling_identity():
    sources = [Ket.basis(4, n) for n in range(4)]
    rel = build_relabeling(sources, [0, 1, 2, 3])
    assert np.abs(rel.u.matrix - np.eye(4)).max() < 1e-15


def test_relabeling_maps_pair_state_to_diagonal():
    sources = worked_sources()
    pair = np.zeros(9, dtype=complex)
    for n in range(3):
        pair += tensor(Ket.basis(3, n), sources[n]).amplitudes
    pair /= np.sqrt(3)
    rel = build_relabeling(sources, [0, 1, 2])
    mapped = np.kron(np.eye(3), rel.u.matrix) @ pair
    assert abs(np.vdot(diagonal_pair(3), mapped) - 1) < 1e-12


def test_relabeling_conjugated_operators():
    d = 3
    rel = build_relabeling(worked_sources(), [0, 1, 2])
    w = omega_powers(d)
    for k, src in enumerate(worked_sources()):
        assert np.abs(rel.z_bar.matrix @ src.amplitudes - w[k] * src.amplitudes).max() < 1e-12
        nxt = worked_sources()[(k + 1) % d]
        assert np.abs(rel.x_bar.matrix @ src.amplitudes - nxt.amplitudes).max() < 1e-12
    # conjugating back with the relabeling unitary recovers clock and shift
    u = rel.u.matrix
    assert np.abs(u @ rel.z_bar.matrix @ u.conj().T - clock_z(d).matrix).max() < 1e-12


def test_relabeling_rejects_bad_input():
    with pytest.raises(NotOrthonormal):
        build_relabeling([], [])
    with pytest.raises(NotOrthonormal):
        build_relabeling([Ket.basis(3, 0), Ket.basis(3, 0), Ket.basis(3, 2)], [0, 1, 2])
    with pytest.raises(NotOrthonormal):
        build_relabeling([Ket.basis(3, 0), Ket.basis(3, 1)], [0, 1])
    with pytest.raises(NotBijective):
        build_relabeling([Ket.basis(3, n) for n in range(3)], [0, 0, 2])
    # a target that is not an integer fails closed instead of being truncated
    for targets in ([0.9, 1.2, 2.7], [0, "1", 2], [0, 1, 2.0], [0, True, 2], [False, 1, 2]):
        with pytest.raises(TypeError):
            build_relabeling([Ket.basis(3, n) for n in range(3)], targets)
    rel = build_relabeling([Ket.basis(3, n) for n in range(3)], np.array([2, 0, -2]))
    assert rel.targets == (2, 0, 1) and all(type(t) is int for t in rel.targets)


def test_diagonalizer_worked_example():
    w = omega_powers(3)[1]
    f = diagonalizer_for(worked_sources(), [1.0, w, w**2])
    expected = np.array(
        [
            [(1 + w) / 2, (1 - w) / 2, 0],
            [(1 - w) / 2, (1 + w) / 2, 0],
            [0, 0, w**2],
        ]
    )
    assert np.abs(f.matrix - expected).max() < 1e-12
    for k, src in enumerate(worked_sources()):
        lam = [1.0, w, w**2][k]
        assert np.abs(f.matrix @ src.amplitudes - lam * src.amplitudes).max() < 1e-12


def test_diagonalizer_on_computational_basis_is_clock():
    d = 5
    w = omega_powers(d)
    f = diagonalizer_for([Ket.basis(d, n) for n in range(d)], [w[n] for n in range(d)])
    assert np.abs(f.matrix - clock_z(d).matrix).max() < 1e-14


def test_diagonalizer_rejects_an_empty_source_list():
    with pytest.raises(NotOrthonormal):
        diagonalizer_for([], [])


def test_diagonalizer_conjugates_to_clock():
    rel = build_relabeling(worked_sources(), [0, 1, 2])
    w = omega_powers(3)
    f = diagonalizer_for(worked_sources(), [w[0], w[1], w[2]])
    conj = rel.u.matrix @ f.matrix @ rel.u.matrix.conj().T
    assert np.abs(conj - clock_z(3).matrix).max() < 1e-12


def relabeling_oracle(vecs, targets):
    """u, z_bar and x_bar accumulated as d outer products each."""
    d = len(vecs)
    pows = omega_powers(d)
    u = np.zeros((d, d), dtype=np.complex128)
    for src, tgt in zip(vecs, targets):
        u += np.outer(np.eye(d)[tgt], np.conj(src))
    z_bar = np.zeros((d, d), dtype=np.complex128)
    x_bar = np.zeros((d, d), dtype=np.complex128)
    by_target = {tgt: src for src, tgt in zip(vecs, targets)}
    for tgt, src in by_target.items():
        z_bar += pows[tgt] * np.outer(src, np.conj(src))
        x_bar += np.outer(by_target[(tgt + 1) % d], np.conj(src))
    return u, z_bar, x_bar


def diagonalizer_oracle(vecs, spectrum):
    """F accumulated as one outer product per source."""
    f = np.zeros((len(vecs), len(vecs)), dtype=np.complex128)
    for lam, src in zip(spectrum, vecs):
        f += lam * np.outer(src, np.conj(src))
    return f


@pytest.mark.parametrize("d", [3, 5, 7, 11])
def test_relabeling_and_diagonalizer_match_outer_product_loops(d):
    rng = np.random.default_rng(d)
    noise_rng = np.random.default_rng(100 + d)
    for vecs in mub_stack(d):
        targets = [int(t) for t in rng.permutation(d)]
        sources = [Ket(v) for v in vecs]
        rel = build_relabeling(sources, [t + d * int(rng.integers(-2, 3)) for t in targets])
        assert rel.targets == tuple(targets)
        u, z_bar, x_bar = relabeling_oracle(vecs, targets)
        assert np.array_equal(rel.u.matrix, u)
        assert np.abs(rel.z_bar.matrix - z_bar).max() < 1e-14
        assert np.abs(rel.x_bar.matrix - x_bar).max() < 1e-14
        spectrum = np.exp(2j * np.pi * rng.random(d))
        f = diagonalizer_for(sources, spectrum).matrix
        assert np.abs(f - diagonalizer_oracle(vecs, spectrum)).max() < 1e-14
        # sources orthonormal only to about 1e-8: refused at the default tol,
        # built at tol=1e-6, whose outputs are unitary to that tol too
        noise = noise_rng.standard_normal((d, d, 2)) @ np.array([1e-8, 1e-8j])
        noisy = (vecs + noise) / np.linalg.norm(vecs + noise, axis=1, keepdims=True)
        loose = [Ket(v) for v in noisy]
        with pytest.raises(NotOrthonormal):
            build_relabeling(loose, targets)
        rel = build_relabeling(loose, targets, tol=1e-6)
        u, z_bar, x_bar = relabeling_oracle(noisy, targets)
        assert np.array_equal(rel.u.matrix, u)
        assert np.abs(rel.z_bar.matrix - z_bar).max() < 1e-14
        assert np.abs(rel.x_bar.matrix - x_bar).max() < 1e-14
        f = diagonalizer_for(loose, spectrum, tol=1e-6).matrix
        assert np.abs(f - diagonalizer_oracle(noisy, spectrum)).max() < 1e-14


def test_worked_relabeling_equals_outer_product_loops_exactly():
    vecs = np.array([s.amplitudes for s in worked_sources()])
    w = omega_powers(3)[1]
    spectrum = np.array([1.0, w, w**2])
    rel = build_relabeling(worked_sources(), [0, 1, 2])
    assert np.array_equal(rel.u.matrix, relabeling_oracle(vecs, [0, 1, 2])[0])
    f = diagonalizer_for(worked_sources(), spectrum).matrix
    assert np.array_equal(f, diagonalizer_oracle(vecs, spectrum))


@pytest.mark.parametrize("bad", [-1, 5, 2.5, "3", True, False])
def test_out_of_range_integer_labels_rejected(bad):
    d = 5
    error = InvalidLabel if isinstance(bad, int) and not isinstance(bad, bool) else TypeError
    for call in (
        lambda: mes_state(d, bad, CB, 0, 0),
        lambda: mes_state(d, CB, bad, 0, 0),
        lambda: mes_basis(d, bad, 0),
        lambda: mes_basis(d, 0, bad),
        lambda: universal_state(d, bad),
    ):
        with pytest.raises(error):
            call()
    # lattice labels stay reduced mod d and must be integers too
    element = mes_state(d, 1, 2, -1, d + 3)
    assert (element.q, element.p) == (d - 1, 3)
    element = mes_state(d, np.int64(1), 2, np.int32(-1), np.int64(d + 3))
    assert (element.b, element.q, element.p) == (BasisLabel(1), d - 1, 3)
    for q, p in ((1.5, 0), (0, 2.0), ("1", 0), (True, 0), (0, False)):
        with pytest.raises(TypeError):
            mes_state(d, CB, CB, q, p)


def test_mes_basis_json(capsys):
    assert main(["gen-mes", "--d", "3", "--b", "cb", "--b-prime", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["b"] == "cb" and data["b_prime"] == "1"
    assert len(data["states"]) == 9
    qp = [(s["q"], s["p"]) for s in data["states"]]
    assert qp == [(q, p) for q in range(3) for p in range(3)]
    assert all(len(s["ket"]["re"]) == len(s["ket"]["im"]) == s["ket"]["dim"] == 9 for s in data["states"])


def test_mub_labels_carried_on_elements():
    e = mes_state(5, BasisLabel(2), CB, 1, 4)
    assert e.b == BasisLabel(2) and e.b_prime == CB
    assert (e.q, e.p) == (1, 4)
    # particle-1 content lives in basis 2: overlap of the p=0, q=0 element
    # against a product of basis-2 states is 1/sqrt(d)
    probe = tensor(mub_state(5, 2, 0).vector, mub_state(5, CB, 0).vector)
    assert abs(abs(probe.inner(mes_state(5, 2, CB, 0, 0).vector)) - 1 / np.sqrt(5)) < 1e-12
