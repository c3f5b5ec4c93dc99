"""Clock and shift unitaries and the d+1 unbiased bases they generate.

For an odd prime d, with w = exp(2*pi*i/d):

* the clock Z has Z|n> = w^n |n>, the shift X has X|n> = |n+1 mod d>;
* the computational basis (label ``cb``) is the Z eigenbasis;
* basis b in 0..d-1 consists of the quadratic-phase states

      |m; b> = (1/sqrt d) sum_n w^(b n^2 - n m) |n>,

  which are eigenstates of w^b X Z^(2b) with eigenvalue w^m.  Basis 0 is the
  plain Fourier basis, i.e. the X eigenbasis.

Every cross-basis overlap in the family has modulus 1/sqrt d.  All phase
exponents are computed as exact integers mod d and only then lifted to the
unit circle, so the amplitudes sit exactly on the d-point circle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .errors import InvalidDimension, InvalidLabel
from .states import Ket, UnitaryOp, _integer

__all__ = [
    "BasisLabel",
    "CB",
    "MubState",
    "omega_powers",
    "clock_z",
    "shift_x",
    "mub_stack",
    "mub_state",
    "mub_basis",
    "mub_family",
    "mub_eigen_residual",
    "validate_dimension",
]


def validate_dimension(d: int) -> int:
    """Odd prime check, reported as an InvalidDimension for interface code;
    d comes back through :func:`_integer`, which refuses 7.0 and True, and
    2 is refused too: the line labels halve and quarter exponents, so 2 and
    4 must be invertible mod d.  A d that is not an integer is named by its
    repr, so the string '7' reads d='7'."""
    try:
        n = _integer(d)
    except TypeError as exc:
        raise InvalidDimension(f"d={d!r} must be an odd prime") from exc
    if n == 2 or not _is_prime(n):
        raise InvalidDimension(f"d={d} must be an odd prime")
    return n


def _per_dimension(build):
    """``build(d, *args)`` as a per-d table, built once per int d of
    :func:`validate_dimension` and args, with every array read-only since all
    callers share it: ``np.int64(7)`` finds the entry of 7, 7.0 is refused."""

    @lru_cache(maxsize=None)
    def cached(d: int, *args):
        built = build(d, *args)
        for array in built if isinstance(built, tuple) else (built,):
            array.setflags(write=False)
        return built

    @wraps(build)
    def table(d: int, *args):
        return cached(validate_dimension(d), *args)

    return table


def _is_prime(n: int) -> bool:
    """Deterministic 6k +- 1 trial division (dimensions here are small)."""
    if n < 4:
        return n >= 2
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def omega_powers(d: int) -> np.ndarray:
    """w^k for k = 0..d-1, computed once per int d >= 1, read-only.  Any
    such d is allowed, since a relabeling of d vectors needs the d-th roots
    for that d; ``np.int64(7)`` finds the entry of 7, and a d that
    :func:`_integer` refuses or a d below 1 raises InvalidDimension."""
    try:
        n = _integer(d)
    except TypeError as exc:
        raise InvalidDimension(f"d={d!r} must be a positive integer") from exc
    if n < 1:
        raise InvalidDimension(f"d={d} must be a positive integer")
    return _omega_powers(n)


@lru_cache(maxsize=None)
def _omega_powers(d: int) -> np.ndarray:
    pows = np.exp(2j * np.pi * np.arange(d) / d)
    pows.setflags(write=False)
    return pows


@dataclass(frozen=True)
class BasisLabel:
    """One of the d+1 basis labels: ``cb`` or an integer b in 0..d-1.

    ``index=None`` marks the computational basis.
    """

    index: int | None = None

    @property
    def is_cb(self) -> bool:
        return self.index is None

    def __str__(self) -> str:
        return "cb" if self.index is None else str(self.index)

    @classmethod
    def parse(cls, text: str, d: int) -> "BasisLabel":
        token = text.strip().lower()
        if token == "cb":
            return cls(None)
        try:
            b = int(token)
        except ValueError as exc:
            raise InvalidLabel(f"basis label {text!r} is not 'cb' or an integer") from exc
        if not 0 <= b < d:
            raise InvalidLabel(f"basis label {b} out of range 0..{d - 1}")
        return cls(b)

    @staticmethod
    def all_labels(d: int) -> list["BasisLabel"]:
        return [BasisLabel(None)] + [BasisLabel(b) for b in range(d)]


CB = BasisLabel(None)


def _label_index(b: "BasisLabel | int | None", d: int) -> int | None:
    """Normalize a label argument to None (cb) or an integer in 0..d-1.  An
    integer label goes through :func:`_integer`."""
    idx = b.index if isinstance(b, BasisLabel) else b
    if idx is None:
        return None
    idx = _integer(idx)
    if not 0 <= idx < d:
        raise InvalidLabel(f"basis label {idx} out of range 0..{d - 1}")
    return idx


@dataclass(frozen=True)
class MubState:
    """State m of basis b, with its computational-basis vector."""

    b: BasisLabel
    m: int
    vector: Ket


def clock_z(d: int) -> UnitaryOp:
    """Diagonal unitary with entries w^n."""
    validate_dimension(d)
    return UnitaryOp(np.diag(omega_powers(d)))


def shift_x(d: int) -> UnitaryOp:
    """Cyclic shift |n> -> |n+1>, with |d-1> wrapping to |0>."""
    return UnitaryOp(np.roll(np.eye(validate_dimension(d), dtype=np.complex128), 1, axis=0))


@_per_dimension
def mub_stack(d: int) -> np.ndarray:
    """All d+1 bases as one read-only (d+1, d, d) array.

    Entry [0, m] is e_m and entry [b+1, m] is |m; b>, so the first axis
    follows the [cb, 0, 1, ..., d-1] order of :func:`mub_family`.
    """
    b, m, n = np.ogrid[:d, :d, :d]
    stack = np.empty((d + 1, d, d), dtype=np.complex128)
    stack[0] = np.eye(d)
    stack[1:] = omega_powers(d)[(b * n * n - n * m) % d] / np.sqrt(d)
    return stack


def basis_rows(d: int, b: "BasisLabel | int | None") -> tuple[BasisLabel, np.ndarray]:
    """The validated label of basis b and its (d, d) slice of :func:`mub_stack`,
    one state per row."""
    stack = mub_stack(d)
    idx = _label_index(b, d)
    return BasisLabel(idx), stack[0 if idx is None else idx + 1]


def mub_state(d: int, b: "BasisLabel | int | None", m: int) -> MubState:
    """State m of basis b; the computational basis returns e_m."""
    label, rows = basis_rows(d, b)
    m = _integer(m) % d
    return MubState(label, m, Ket(rows[m]))


def mub_basis(d: int, b: "BasisLabel | int | None") -> list[MubState]:
    return [mub_state(d, b, m) for m in range(d)]


def mub_family(d: int) -> list[list[MubState]]:
    """All d+1 bases, ordered [cb, 0, 1, ..., d-1]; d(d+1) states in total."""
    return [mub_basis(d, label) for label in BasisLabel.all_labels(d)]


def mub_eigen_residual(d: int, b: "BasisLabel | int", m: int) -> float:
    """Residual of the defining eigenrelation of basis b != cb.

    Applies w^b X Z^(2b) to |m; b>, the shift X as a cyclic roll, and
    returns the largest amplitude deviation from w^m |m; b|>.
    """
    label, rows = basis_rows(d, b)
    if label.is_cb:
        raise InvalidLabel("the computational basis has no shift-clock eigenrelation")
    idx, m = label.index, _integer(m) % d
    state = rows[m]
    pows = omega_powers(d)
    z2b = np.diag(pows[[(2 * idx * n) % d for n in range(d)]])
    applied = pows[idx] * np.roll(z2b @ state, 1)
    return float(np.abs(applied - pows[m] * state).max())


def _eigen_residuals(d: int) -> np.ndarray:
    """:func:`mub_eigen_residual` of every (b, m), entry b*d + m, as one
    stacked pass of the same products on each state |m; b> as a column."""
    pows, n = omega_powers(d), np.arange(d)
    states = mub_stack(d)[1:, :, :, None]
    z2b = np.zeros((d, 1, d, d), dtype=np.complex128)
    z2b[:, 0, n, n] = pows[2 * n[:, None] * n % d]
    applied = pows[:, None, None, None] * np.roll(z2b @ states, 1, axis=-2)
    return np.abs(applied - pows[:, None, None] * states).max(axis=(2, 3)).ravel()
