"""State vectors and operators on one- and two-qudit Hilbert spaces.

Conventions fixed here and relied on everywhere else:

* amplitudes are complex128 and unit-norm within ``DEFAULT_TOL``;
* a two-qudit ket with local dimension d is stored flat with particle 1 as
  the high digit: flat index = n1 * d + n2;
* the inner product is antilinear in the first argument.

This module is plain finite-dimensional linear algebra and does not restrict
the dimension; the odd-prime requirement is enforced by the construction
modules that sit on top of it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, InvalidTolerance

__all__ = [
    "DEFAULT_TOL",
    "Ket",
    "DensityOp",
    "UnitaryOp",
    "SchmidtDecomposition",
    "tensor",
    "partial_trace",
    "reduced_operators",
    "schmidt_decompose",
    "mes_deviation",
    "equal_up_to_global_phase",
    "phase_canonical",
    "validate_tolerance",
]

DEFAULT_TOL = 1e-10

# complex values per block of an array pass, 512 KB, so a block stays in cache
_BLOCK_VALUES = 1 << 15


def _blocks(n: int, values_per_item: int, minimum: int = 1):
    """Slices covering range(n) in order, each but the last of max(minimum,
    _BLOCK_VALUES // values_per_item) items."""
    step = max(minimum, _BLOCK_VALUES // values_per_item)
    return (slice(start, start + step) for start in range(0, n, step))


def _integer(value) -> int:
    """The one integer rule for every label, index, offset and seed: a numpy
    integer counts as its int; a bool, a float or a string raises TypeError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{value!r} is not an integer")


def validate_tolerance(tol: float) -> float:
    """A tolerance must be a finite real number with 0 < tol < 1: the 0/1
    flag rows report 1.0 on failure and would pass at any larger tol.  A tol
    that is not a real number, such as '1e-10' or None, is named by its repr."""
    try:
        valid = math.isfinite(tol) and 0.0 < tol < 1.0
    except TypeError:
        valid = False
    if not valid:
        raise InvalidTolerance(f"tolerance {tol!r} must be finite with 0 < tol < 1")
    return tol


def _as_readonly_complex(values, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != ndim:
        raise DimMismatch(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _check_unit_rows(amplitudes: np.ndarray) -> None:
    """Raise ValueError unless every row (last axis) has unit norm within
    ``DEFAULT_TOL``; not (err <= tol), so a NaN or infinite amplitude fails."""
    norms = np.atleast_1d(np.linalg.norm(amplitudes, axis=-1))
    bad = ~(np.abs(norms - 1.0) <= DEFAULT_TOL)
    if bad.any():
        raise ValueError(f"ket is not normalized (norm = {norms[bad][0]!r})")


def _split_dim(dim: int) -> int:
    """Local dimension d of a two-qudit space of total dimension d*d."""
    d = math.isqrt(dim)
    if d * d != dim:
        raise DimMismatch(f"dimension {dim} is not a two-qudit dimension")
    return d


@dataclass(frozen=True)
class Ket:
    """A normalized pure state, immutable after construction."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_readonly_complex(self.amplitudes, 1)
        _check_unit_rows(arr)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def basis(cls, dim: int, n: int) -> "Ket":
        """|n mod dim>, with dim and n through :func:`_integer`.  A dim below
        1 raises DimMismatch."""
        dim = _integer(dim)
        if dim < 1:
            raise DimMismatch(f"a basis ket needs dim >= 1, got {dim}")
        v = np.zeros(dim, dtype=np.complex128)
        v[_integer(n) % dim] = 1.0
        return cls(v)

    @classmethod
    def normalized(cls, values) -> "Ket":
        arr = np.asarray(values, dtype=np.complex128)
        norm = np.linalg.norm(arr)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(arr / norm)

    def inner(self, other: "Ket") -> complex:
        """<self|other>."""
        if other.dim != self.dim:
            raise DimMismatch(f"dims {self.dim} != {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def tilde(self) -> "Ket":
        """The state whose computational-basis amplitudes are conjugated."""
        return Ket(np.conj(self.amplitudes))


@dataclass(frozen=True)
class DensityOp:
    """A density operator: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        validate_tolerance(self.tol)
        mat = _as_readonly_complex(self.matrix, 2)
        n = mat.shape[0]
        if mat.shape != (n, n):
            raise DimMismatch(f"density matrix must be square, got {mat.shape}")
        # not (err <= tol), so that a NaN error fails too
        if not np.abs(mat - mat.conj().T).max() <= self.tol:
            raise ValueError("density matrix is not Hermitian")
        if not abs(np.trace(mat) - 1.0) <= self.tol:
            raise ValueError("density matrix trace != 1")
        if not np.linalg.eigvalsh(mat).min() >= -self.tol:
            raise ValueError("density matrix is not positive semidefinite")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class UnitaryOp:
    """A unitary matrix, checked at construction."""

    matrix: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        validate_tolerance(self.tol)
        mat = _as_readonly_complex(self.matrix, 2)
        n = mat.shape[0]
        if mat.shape != (n, n):
            raise DimMismatch(f"unitary must be square, got {mat.shape}")
        # not (err <= tol), so that a NaN error fails too
        if not np.abs(mat.conj().T @ mat - np.eye(n)).max() <= self.tol:
            raise ValueError("matrix is not unitary")
        object.__setattr__(self, "matrix", mat)


def tensor(a: Ket, b: Ket) -> Ket:
    """Product state a (x) b; amplitude at n1*d + n2 is a[n1] * b[n2]."""
    if a.dim != b.dim:
        raise DimMismatch(f"single-particle dims differ: {a.dim} != {b.dim}")
    return Ket(np.kron(a.amplitudes, b.amplitudes))


def reduced_operators(amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced operators m m^dagger (particle 1) and (m^dagger m)^T (particle 2)
    of a d x d amplitude matrix m, or of every matrix in an (n, d, d) stack."""
    m_dag = amplitudes.conj().swapaxes(-1, -2)
    return amplitudes @ m_dag, (m_dag @ amplitudes).swapaxes(-1, -2)


def partial_trace(state: Ket, keep: int) -> DensityOp:
    """Reduced density operator of particle ``keep`` (1 or 2), which goes
    through :func:`_integer`."""
    d = _split_dim(state.dim)
    keep = _integer(keep)
    if keep not in (1, 2):
        raise ValueError("keep must be 1 or 2")
    rho = reduced_operators(state.amplitudes.reshape(d, d))[keep - 1]
    # symmetrize away float asymmetry before validation
    rho = 0.5 * (rho + rho.conj().T)
    return DensityOp(rho)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """state = sum_k coefficients[k] * left[k] (x) right[k].

    Coefficients are nonnegative and descending; ``left`` and ``right`` hold
    the orthonormal factor vectors as rows.
    """

    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray


def schmidt_decompose(state: Ket) -> SchmidtDecomposition:
    """Singular-value factorization of the d x d amplitude matrix."""
    d = _split_dim(state.dim)
    u, s, vh = np.linalg.svd(state.amplitudes.reshape(d, d))
    return SchmidtDecomposition(coefficients=s, left=u.T, right=vh)


def _worst(*errors: float) -> float:
    """The largest error, with NaN counted as +inf: builtin ``max(worst, nan)``
    returns ``worst``, so a NaN error would otherwise vanish and a check pass."""
    return max(math.inf if math.isnan(e) else e for e in errors)


def _reduced_deviation(amplitudes: np.ndarray) -> float:
    """Largest elementwise deviation of either reduced operator from identity/d
    over a flat pair state or an (n, d*d) stack of them; NaN counts as +inf."""
    d = _split_dim(amplitudes.shape[-1])
    rhos = reduced_operators(amplitudes.reshape(*amplitudes.shape[:-1], d, d))
    target = np.eye(d) / d
    return float(_worst(*(np.abs(rho - target).max() for rho in rhos)))


def _gram_deviation(rows: np.ndarray) -> float:
    """Largest deviation of the Gram matrix of ``rows`` from identity; a NaN
    deviation counts as +inf."""
    return float(_worst(np.abs(rows.conj() @ rows.T - np.eye(len(rows))).max()))


def mes_deviation(state: Ket) -> float:
    """Largest elementwise deviation of either reduced operator from identity/d;
    a NaN deviation counts as +inf."""
    return _reduced_deviation(state.amplitudes)


def equal_up_to_global_phase(
    a: Ket, b: Ket, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Whether |<a|b>| = 1 within tol, together with arg <a|b>."""
    overlap = a.inner(b)
    return bool(abs(abs(overlap) - 1.0) < validate_tolerance(tol)), float(np.angle(overlap))


def phase_canonical(ket: Ket, tol: float = DEFAULT_TOL) -> Ket:
    """Rotate so the first amplitude with modulus > tol is real positive.

    Used for deterministic printing and factor matching only; equality tests
    always go through inner products.
    """
    return Ket(_phase_canonical(ket.amplitudes, validate_tolerance(tol)))


def _phase_canonical(amplitudes: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The amplitude array of :func:`phase_canonical`."""
    for amp in amplitudes:
        if abs(amp) > tol:
            return amplitudes * (abs(amp) / amp)
    return amplitudes


def _omega_exponent(z, d: int):
    """The exponent k in 0..d-1 of the d-th root of unity w^k nearest in
    phase to z, an int; or the list of them for an array of finite z."""
    return (np.rint(np.angle(z) / (2 * np.pi / d)).astype(int) % d).tolist()
