"""The cached basis stacks against the per-state loop constructions they
replaced, kept here as reference oracles.

The stacks are built with the same arithmetic as the loops, so every
comparison is exact (``np.array_equal``), not within a tolerance.
"""

import itertools

import numpy as np
import pytest

from mesphase import collective as co
from mesphase import lines as li
from mesphase.collective import (
    COLLECTIVE_GENERATORS,
    HopResult,
    PhasePoint,
    hop_dense,
    point_basis,
    point_state_minus,
    point_state_plus,
    word_matrix,
)
from mesphase.errors import InvalidDimension
from mesphase.mes import mes_basis, mes_state
from mesphase.schwinger import CB, mub_stack, mub_state, omega_powers
from mesphase.states import Ket
from test_generators import permutation_oracle

DIMS = [3, 5, 7, 11, 13]


# -- reference constructions ------------------------------------------------------


def mub_oracle(d, b, m):
    """State m of basis b, one exponent per n."""
    if b is None:
        return Ket.basis(d, m).amplitudes
    pows = omega_powers(d)
    return pows[[(b * n * n - n * m) % d for n in range(d)]] / np.sqrt(d)


def point_oracle(d, q, p, plus):
    """perm.T @ kron(e_q, f_p), or its plus twin perm.T @ kron(f_p, e_q)."""
    perm = permutation_oracle(d)
    e_q, f_p = Ket.basis(d, q).amplitudes, mub_oracle(d, 0, p)
    return perm.T @ (np.kron(f_p, e_q) if plus else np.kron(e_q, f_p))


def mes_basis_oracle(d, b, b_prime):
    """Triple loop over (q, p, m), summed from zeros in m order."""
    rows1 = np.array([mub_oracle(d, b, m) for m in range(d)])
    rows2 = np.array([mub_oracle(d, b_prime, m) for m in range(d)])
    pows = omega_powers(d)
    out = []
    for q in range(d):
        for p in range(d):
            vec = np.zeros(d * d, dtype=np.complex128)
            for m in range(d):
                vec += pows[(-m * p) % d] * np.kron(rows1[m], rows2[(m - q) % d])
            out.append(vec / np.sqrt(d))
    return np.array(out)


def hop_dense_oracle(d, point, word):
    """The d^2 np.vdot search over the point states, first maximum wins."""
    q, p = point
    applied = word_matrix(d, word) @ point_oracle(d, q, p, plus=False)
    best = (-1.0, 0, 0, 0j)
    for q2 in range(d):
        for p2 in range(d):
            overlap = np.vdot(point_oracle(d, q2, p2, plus=False), applied)
            if abs(overlap) > best[0]:
                best = (abs(overlap), q2, p2, overlap)
    fidelity, q2, p2, overlap = best
    exponent = int(round(np.angle(overlap) / (2 * np.pi / d))) % d
    return HopResult(PhasePoint(q2, p2), exponent), float(fidelity)


# -- stacks equal the oracles ---------------------------------------------------


@pytest.mark.parametrize("d", DIMS)
def test_mub_stack_matches_per_state_oracle(d):
    stack = mub_stack(d)
    assert stack.shape == (d + 1, d, d)
    for k, b in enumerate([None] + list(range(d))):
        for m in range(d):
            expected = mub_oracle(d, b, m)
            assert np.array_equal(stack[k, m], expected)
            assert np.array_equal(mub_state(d, b, m).vector.amplitudes, expected)


@pytest.mark.parametrize("d", DIMS)
def test_point_bases_match_permutation_oracle(d):
    minus, plus = point_basis(d, False), point_basis(d, True)
    assert minus.shape == plus.shape == (d * d, d * d)
    for q in range(d):
        for p in range(d):
            assert np.array_equal(minus[q * d + p], point_oracle(d, q, p, plus=False))
            assert np.array_equal(plus[q * d + p], point_oracle(d, q, p, plus=True))
            assert np.array_equal(
                point_state_minus(d, (q, p)).amplitudes, minus[q * d + p]
            )
            assert np.array_equal(
                point_state_plus(d, (q, p)).amplitudes, plus[q * d + p]
            )


def _label_pairs(d):
    labels = [None] + list(range(d))
    if d <= 5:
        return list(itertools.product(labels, labels))
    return [(None, None), (2, None), (None, d - 1), (1, 3)]


@pytest.mark.parametrize("d", DIMS)
def test_mes_basis_matches_triple_loop(d):
    for b, b_prime in _label_pairs(d):
        expected = mes_basis_oracle(d, b, b_prime)
        elements = mes_basis(d, b, b_prime)
        assert [(e.q, e.p) for e in elements] == [
            (q, p) for q in range(d) for p in range(d)
        ]
        assert np.array_equal(
            np.array([e.vector.amplitudes for e in elements]), expected
        )
        for q, p in ((0, 0), (1, d - 1), (d - 1, 2)):
            element = mes_state(d, b, b_prime, q, p)
            assert np.array_equal(element.vector.amplitudes, expected[q * d + p])
            assert element.b == elements[0].b and element.b_prime == elements[0].b_prime


def test_hop_dense_matches_vdot_search_on_random_words():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        d = int(rng.choice([3, 5, 7]))
        word = [
            (str(rng.choice(COLLECTIVE_GENERATORS)), int(rng.integers(-9, 10)))
            for _ in range(rng.integers(0, 5))
        ]
        point = (int(rng.integers(0, d)), int(rng.integers(0, d)))
        assert hop_dense(d, point, word) == hop_dense_oracle(d, point, word)


def test_cached_stacks_are_read_only():
    d = 5
    stacks = [
        mub_stack(d),
        mub_stack(d).reshape(-1, d),
        point_basis(d, False),
        point_basis(d, True),
    ]
    for stack in stacks:
        with pytest.raises(ValueError):
            stack[0, 0] = 0.0
    with pytest.raises(ValueError):
        mub_stack(d)[1:] *= 2


@pytest.mark.parametrize(
    "table, args",
    [
        (mub_stack, ()),
        (co._collective_index, ()),
        (co._family_tables, (co.COLLECTIVE_GENERATORS,)),
        (co._family_tables, (co.SINGLE_GENERATORS,)),
        (point_basis, (False,)),
        (point_basis, (True,)),
        (li._line_tables, ()),
    ],
    ids=["mub", "collective_index", "collective_family", "single_family", "minus", "plus", "lines"],
)
def test_per_d_tables_share_the_int_entry_and_refuse_floats_and_bools(table, args):
    first = table(np.int64(7), *args)
    assert first is table(7, *args)
    # 7.0 and True hash equal to cached ints, so the key alone would let them through
    for bad in (7.0, np.float64(7.0), True, 9):
        with pytest.raises(InvalidDimension):
            table(bad, *args)
    for array in first if isinstance(first, tuple) else (first,):
        assert not array.flags.writeable


# -- non-finite readouts fail closed -------------------------------------------


def test_nan_word_matrix_gives_hop_dense_fidelity_zero(monkeypatch):
    original = co._dense

    def nan_dense(d, src, exponents):
        return np.full_like(original(d, src, exponents), np.nan)

    monkeypatch.setattr(co, "_dense", nan_dense)
    _, fidelity = hop_dense(5, (1, 2), "Xc^2 Xr^6")
    assert fidelity <= 0.0


@pytest.mark.parametrize("conjugate", [False, True])
def test_nan_factor_matches_no_label(monkeypatch, conjugate):
    # a NaN line state has no factors: the tilde-side (conjugate) and the
    # direct-side search both match nothing
    d = 5
    monkeypatch.setattr(
        li, "_line_sums", lambda basis, rows: np.full((len(rows), d * d), np.nan, dtype=complex)
    )
    rep = li.schmidt_inversion_check(d, li.Line(CB, 1))
    if conjugate:
        label, m, fidelity = rep.factor1_b, rep.factor1_m, rep.factor1_fidelity
    else:
        label, m, fidelity = rep.factor2_b, rep.factor2_m, rep.factor2_fidelity
    assert (label, m) == (CB, 0)
    assert fidelity <= 0.0

