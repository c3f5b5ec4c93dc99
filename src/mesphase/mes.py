"""Maximally entangled two-qudit bases, the universal diagonal state, and
state-relabeling unitaries.

A maximally entangled state (MES) of two d-level systems is a pure state whose
reduced density operators are both identity/d.  Given any two single-particle
bases b and b', the d^2 states

    u(q, p) = (1/sqrt d) sum_m |m; b>_1  w^(-m p)  |m - q; b'>_2

are orthonormal and each maximally entangled; they form a basis of the pair
Hilbert space indexed by the lattice (q, p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotBijective, NotOrthonormal
from .schwinger import BasisLabel, basis_rows, omega_powers
from .states import DEFAULT_TOL, Ket, UnitaryOp, _blocks, _gram_deviation, _integer, validate_tolerance

__all__ = [
    "MesBasisElement",
    "RelabelingMap",
    "mes_state",
    "mes_basis",
    "mes_stack",
    "universal_state",
    "build_relabeling",
    "diagonalizer_for",
]


@dataclass(frozen=True)
class MesBasisElement:
    q: int
    p: int
    b: BasisLabel
    b_prime: BasisLabel
    vector: Ket


def _mes_amplitudes(
    d: int, rows1: np.ndarray, rows2: np.ndarray, qs: np.ndarray, ps: np.ndarray
) -> np.ndarray:
    """Amplitudes of u(q, p) for every q in qs and p in ps, shape
    (len(qs), len(ps), d^2), summed over m in order from zeros.

    Each element is the same sum whatever the blocking: the terms
    w^(-m p) * (rows1[m] (x) rows2[m - q]) for m = 0..d-1, added one at a
    time, then divided by sqrt d.  The q rows go in :func:`_blocks`, so a
    block's (rows, d, d^2) accumulator stays in cache while terms are added."""
    phases = omega_powers(d)[(-np.arange(d)[:, None] * ps) % d][:, :, None]
    total = np.zeros((len(qs), len(ps), d * d), dtype=np.complex128)
    for block in _blocks(len(qs), d**3):
        q, acc = qs[block], total[block]
        term = np.empty_like(acc)
        for m in range(d):
            # pair[i] = kron(rows1[m], rows2[(m - q[i]) % d])
            pair = (rows1[m][:, None] * rows2[(m - q) % d][:, None, :]).reshape(-1, 1, d * d)
            acc += np.multiply(phases[m], pair, out=term)
        acc /= np.sqrt(d)
    return total


def mes_state(
    d: int,
    b: "BasisLabel | int | None",
    b_prime: "BasisLabel | int | None",
    q: int,
    p: int,
) -> MesBasisElement:
    """The (q, p) element of the MES basis built from bases b and b'."""
    label1, rows1 = basis_rows(d, b)
    label2, rows2 = basis_rows(d, b_prime)
    q, p = _integer(q) % d, _integer(p) % d
    vec = _mes_amplitudes(d, rows1, rows2, np.array([q]), np.array([p]))[0, 0]
    return MesBasisElement(q, p, label1, label2, Ket(vec))


def mes_stack(d: int, b: "BasisLabel | int | None", b_prime: "BasisLabel | int | None") -> np.ndarray:
    """Read-only (d^2, d^2) amplitudes of :func:`mes_basis`, row q*d + p."""
    (_, rows1), (_, rows2) = basis_rows(d, b), basis_rows(d, b_prime)
    stack = _mes_amplitudes(d, rows1, rows2, np.arange(d), np.arange(d)).reshape(d * d, d * d)
    stack.setflags(write=False)
    return stack


def _mes_table(
    d: int, b: "BasisLabel | int | None", b_prime: "BasisLabel | int | None"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integer tables (order, fixed, base, slope) of the exact MES basis of
    (b, b'), both cb or neither, over the particle-flat index n1*d + n2:
    row order[s, x] of :func:`mes_stack` is w^(base + x slope) / sqrt d where
    fixed = s, and 0 elsewhere.  Each support is the graph of a bijection
    n1 <-> n2.  Summing the definition over m,

        (cb, cb):  u(q, p) = w^(-n1 p) / sqrt d where n1 - n2 = q,
        (b, b'):   u(q, p) = w^(b n1^2 + b' n2^2 + n2 q) / sqrt d where
                   n1 + n2 = -p, from the rows w^(b n^2 - n m) / sqrt d,

    so s = q, x = p for (cb, cb) and s = p, x = q for (b, b').  A pair with
    one cb has full support, and raises ValueError."""
    (label1, _), (label2, _) = basis_rows(d, b), basis_rows(d, b_prime)
    if label1.is_cb != label2.is_cb:
        raise ValueError(f"the MES basis of ({label1}, {label2}) has no support on a graph")
    n1, n2 = np.divmod(np.arange(d * d), d)
    order = np.arange(d * d).reshape(d, d)
    if label1.is_cb:
        return order, (n1 - n2) % d, 0 * n1, -n1
    return order.T, -(n1 + n2) % d, label1.index * n1 * n1 + label2.index * n2 * n2, n2


def mes_basis(
    d: int,
    b: "BasisLabel | int | None",
    b_prime: "BasisLabel | int | None",
) -> list[MesBasisElement]:
    """All d^2 elements, ordered lexicographically by (q, p)."""
    stack = mes_stack(d, b, b_prime)
    labels = basis_rows(d, b)[0], basis_rows(d, b_prime)[0]
    return [
        MesBasisElement(q, p, *labels, Ket(stack[q * d + p]))
        for q in range(d) for p in range(d)
    ]


def universal_state(d: int, b: "BasisLabel | int | None") -> Ket:
    """(1/sqrt d) sum_m |m; b> (x) tilde(|m; b>).

    Independent of the basis b: summing any orthonormal basis against its
    conjugate partner collapses to the diagonal state (1/sqrt d) sum_n |n>|n>.
    """
    return Ket(_universal_amplitudes(d, b))


def _universal_amplitudes(d: int, b: "BasisLabel | int | None") -> np.ndarray:
    """The amplitude array of :func:`universal_state`: u(0, 0) of the MES
    basis built from b and its tilde partner."""
    rows = basis_rows(d, b)[1]
    return _mes_amplitudes(d, rows, rows.conj(), np.array([0]), np.array([0]))[0, 0]


@dataclass(frozen=True)
class RelabelingMap:
    """A unitary that renames each source state to a computational label.

    ``u`` maps source k to the basis vector of ``targets[k]``.  ``z_bar`` and
    ``x_bar`` are the clock and shift conjugated into the relabeled frame:
    z_bar has the sources as eigenstates with eigenvalues w^targets[k], and
    x_bar steps source k to the source whose target label is targets[k] + 1.
    """

    sources: tuple[Ket, ...]
    targets: tuple[int, ...]
    u: UnitaryOp
    z_bar: UnitaryOp
    x_bar: UnitaryOp


def _check_orthonormal(vectors: np.ndarray, tol: float) -> None:
    validate_tolerance(tol)
    n = vectors.shape[0]
    if n == 0:
        raise NotOrthonormal("no source states: an empty list spans no space")
    if vectors.shape[1] != n:
        raise NotOrthonormal(f"{n} vectors cannot span a {vectors.shape[1]}-dim space")
    # not (err <= tol), so that a NaN deviation fails too
    if not _gram_deviation(vectors) <= tol:
        raise NotOrthonormal("source states are not an orthonormal basis")


def build_relabeling(
    sources: list[Ket], targets: list[int], tol: float = DEFAULT_TOL
) -> RelabelingMap:
    """Unitary relabeling source k -> |targets[k]>, each target through
    :func:`_integer`."""
    vecs = np.array([s.amplitudes for s in sources])
    _check_orthonormal(vecs, tol)
    d = vecs.shape[1]
    targets_mod = [_integer(t) % d for t in targets]
    if sorted(targets_mod) != list(range(d)):
        raise NotBijective(f"targets {targets} are not a bijection onto 0..{d - 1}")
    # row t of u is the conjugate of the source with target t
    u = np.zeros((d, d), dtype=np.complex128)
    u[targets_mod] = vecs.conj()
    by_target = vecs[np.argsort(targets_mod)]
    z_bar = (by_target.T * omega_powers(d)) @ by_target.conj()
    x_bar = np.roll(by_target, -1, axis=0).T @ by_target.conj()
    return RelabelingMap(
        sources=tuple(sources),
        targets=tuple(targets_mod),
        u=UnitaryOp(u, tol),
        z_bar=UnitaryOp(z_bar, tol),
        x_bar=UnitaryOp(x_bar, tol),
    )


def diagonalizer_for(
    sources: list[Ket], spectrum, tol: float = DEFAULT_TOL
) -> UnitaryOp:
    """The operator F = sum_k |v_k> spectrum[k] <v_k|.

    Each source state becomes an eigenstate with its assigned eigenvalue; for
    a unimodular spectrum the result is unitary.
    """
    vecs = np.array([s.amplitudes for s in sources])
    _check_orthonormal(vecs, tol)
    eigenvalues = np.asarray(spectrum, dtype=np.complex128)
    if eigenvalues.shape != (vecs.shape[0],):
        raise ValueError("spectrum length must match the number of source states")
    return UnitaryOp((vecs.T * eigenvalues) @ vecs.conj(), tol)
