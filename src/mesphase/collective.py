"""Center-of-mass / relative coordinates for a pair of qudits, the phase-point
product bases, operator words, and lattice hopping.

The pair index (n1, n2) is exchanged with the collective index (nc, nr) by

    nc = (n1 + n2) / 2,   nr = (n1 - n2) / 2        (mod d, /2 = modular half)
    n1 = nc + nr,         n2 = nc - nr,

a bijection because 2 is invertible mod an odd prime.  A collective generator
is a single-mode clock or shift carried through this bijection, which makes
it a displacement operator: a permutation of the particle-flat index times a
phase w^e.  Each one is held as an exact integer map (src, e) with

    (G v)[i] = w^e[i] * v[src[i]],

Xc moving (n1, n2) to (n1 + 1, n2 + 1), Xr to (n1 + 1, n2 - 1), and Zc, Zr
the phases w^nc, w^nr; the single-particle X and Z are the same kind of map
over n.  Words are composed in this integer form and made dense only where
the API returns a matrix, so the factorization identities Z1 = Zr Zc,
Z2 = Zr^-1 Zc, X1 = Xr^h Xc^h and X2 = Xr^-h Xc^h (h the modular half of 1)
remain checkable theorems rather than definitions.

A lattice point (q, p) is realized by the product state

    |q; cb>_c (x) |p; fourier>_r        ("minus" convention, used for hopping
                                         and line states)

while the "plus" convention puts the Fourier label on the center-of-mass
factor:  |p; fourier>_c (x) |q; cb>_r.  Both families are orthonormal bases
of the pair space and are mutually unbiased with overlap modulus 1/d.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import WordParseError
from .schwinger import _per_dimension, omega_powers, validate_dimension
from .states import Ket, UnitaryOp, _integer, _omega_exponent, _split_dim

__all__ = [
    "PhasePoint",
    "CollectiveIndex",
    "CollectiveOps",
    "HopResult",
    "particle_to_collective",
    "collective_to_particle",
    "collective_permutation",
    "collective_ops",
    "point_basis",
    "point_state_plus",
    "point_state_minus",
    "parse_word",
    "format_word",
    "word_matrix",
    "local_action",
    "hop",
    "hop_dense",
    "hop_trajectory",
]


@dataclass(frozen=True)
class PhasePoint:
    """A lattice point (q, p) in the d x d phase grid."""

    q: int
    p: int


@dataclass(frozen=True)
class CollectiveIndex:
    nc: int
    nr: int


def _point(point: "PhasePoint | tuple[int, int]", d: int) -> tuple[int, int]:
    """The point's (q, p) reduced mod d, once d is validated, each label
    through :func:`_integer`."""
    validate_dimension(d)
    q, p = (point.q, point.p) if isinstance(point, PhasePoint) else point
    return _integer(q) % d, _integer(p) % d


def particle_to_collective(d: int, n1: int, n2: int) -> CollectiveIndex:
    """(n1, n2) -> (nc, nr) = ((n1+n2)/2, (n1-n2)/2) mod d, the modular half
    taken as multiplication by h = (d + 1) / 2.  Labels go through
    :func:`_integer`."""
    validate_dimension(d)
    n1, n2, h = _integer(n1), _integer(n2), (d + 1) // 2
    return CollectiveIndex((n1 + n2) * h % d, (n1 - n2) * h % d)


def collective_to_particle(d: int, nc: int, nr: int) -> tuple[int, int]:
    """(nc, nr) -> (n1, n2) = (nc + nr, nc - nr) mod d.  Labels go through
    :func:`_integer`."""
    validate_dimension(d)
    nc, nr = _integer(nc), _integer(nr)
    return (nc + nr) % d, (nc - nr) % d


@_per_dimension
def _collective_index(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (nc, nr) arrays over the particle-flat index n1*d + n2, the
    modular half taken as multiplication by h = (d + 1) / 2."""
    n1, n2 = np.divmod(np.arange(d * d), d)
    h = (d + 1) // 2
    return (n1 + n2) * h % d, (n1 - n2) * h % d


def _particle_index(d: int) -> np.ndarray:
    """The inverse map, collective-flat c*d + r -> particle-flat
    (c + r)*d + (c - r) mod d."""
    c, r = np.divmod(np.arange(d * d), d)
    return (c + r) % d * d + (c - r) % d


def collective_permutation(d: int) -> UnitaryOp:
    """Permutation sending particle-flat index n1*d + n2 to nc*d + nr."""
    validate_dimension(d)
    return UnitaryOp(_dense(d, _particle_index(d), 0))


COLLECTIVE_GENERATORS = ("Xc", "Zc", "Xr", "Zr")
SINGLE_GENERATORS = ("X", "Z")


def _family(generators: tuple[str, ...]) -> tuple[str, ...]:
    """The generator family, collective or single-particle, that holds every
    name of ``generators``, and whose tables fix the index its maps act on;
    a mixed set raises ValueError."""
    for family in (COLLECTIVE_GENERATORS, SINGLE_GENERATORS):
        if set(generators) <= set(family):
            return family
    raise ValueError(f"generators {generators} are neither all collective nor all single-particle")


@_per_dimension
def _family_tables(d: int, family: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (src, e) power tables of a generator family, each of shape
    (len(family), d, n): entry [g, k] is the exact map of G^k for the g-th
    generator, (G^k v)[i] = w^e[g, k, i] v[src[g, k, i]], over the
    particle-flat index n1*d + n2 (collective) or n (single-particle).

    In closed form: Xc^k sends (n1, n2) to (n1 + k, n2 + k), Xr^k to
    (n1 + k, n2 - k) and X^k sends n to n + k; Zc^k, Zr^k and Z^k multiply
    by w^(k nc), w^(k nr) and w^(k n), the exponents left unreduced."""
    k = np.arange(d)[:, None]
    if family == COLLECTIVE_GENERATORS:
        n1, n2 = np.divmod(np.arange(d * d), d)
        nc, nr = _collective_index(d)
        # (shift of n1, shift of n2, phase label) per generator
        steps = ((1, 1, 0), (0, 0, nc), (1, -1, 0), (0, 0, nr))
    else:
        # a single-particle index is n2 with n1 = 0
        n1, n2 = np.zeros(d, dtype=np.int64), np.arange(d)
        steps = ((0, 1, 0), (0, 0, n2))
    src = np.stack([(n1 - a * k) % d * d + (n2 - b * k) % d for a, b, _ in steps])
    return src, np.stack([np.broadcast_to(k * label, src.shape[1:]) for *_, label in steps])


def _dense(d: int, src: np.ndarray, exponents) -> np.ndarray:
    """The matrix with entry w^exponents[i] at (i, src[i]) and zeros
    elsewhere, or the stack of them for stacked (..., n) maps."""
    mat = np.zeros(src.shape + src.shape[-1:], dtype=np.complex128)
    phases = np.broadcast_to(omega_powers(d)[exponents % d], src.shape)
    np.put_along_axis(mat, src[..., None], phases[..., None], axis=-1)
    return mat


@dataclass(frozen=True)
class CollectiveOps:
    """Clock and shift for the center-of-mass (c) and relative (r) modes as
    dense d^2 x d^2 matrices in particle coordinates, each scattered from its
    exact generator map."""

    xc: UnitaryOp
    zc: UnitaryOp
    xr: UnitaryOp
    zr: UnitaryOp

    def by_name(self, name: str) -> UnitaryOp:
        return {"Xc": self.xc, "Zc": self.zc, "Xr": self.xr, "Zr": self.zr}[name]


def collective_ops(d: int) -> CollectiveOps:
    words = [[(name, 1)] for name in COLLECTIVE_GENERATORS]
    return CollectiveOps(*map(UnitaryOp, _dense(d, *_word_maps(d, words))))


def _point_table(d: int, plus: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integer tables (order, fixed, base, slope) of :func:`point_basis`, in
    the form of :func:`mes._mes_table`: row order[q, p] = q*d + p is
    w^(base + p slope) / sqrt d where fixed = q, and 0 elsewhere."""
    nc, nr = _collective_index(d)
    fixed, fourier = (nr, nc) if plus else (nc, nr)
    return np.arange(d * d).reshape(d, d), fixed, 0 * fixed, -fourier


@_per_dimension
def point_basis(d: int, plus: bool) -> np.ndarray:
    """Read-only (d^2, d^2) stack of :func:`point_state_minus` (or, with
    ``plus``, :func:`point_state_plus`) amplitudes: row q*d + p is
    w^(-p nr) / sqrt d where nc = q, and exactly 0 elsewhere; the plus
    basis swaps nc and nr.  Gathered from :func:`_point_table`."""
    order, fixed, base, slope = _point_table(d, plus)
    basis = np.zeros((d * d, d * d), dtype=np.complex128)
    exponents = (base[:, None] + np.arange(d) * slope[:, None]) % d
    basis[order[fixed], np.arange(d * d)[:, None]] = (omega_powers(d) / np.sqrt(d))[exponents]
    return basis


def point_state_plus(d: int, point: "PhasePoint | tuple[int, int]") -> Ket:
    """Fourier state p on the c mode, basis state q on the r mode, mapped back
    to particle coordinates."""
    q, p = _point(point, d)
    return Ket(point_basis(d, True)[q * d + p])


def point_state_minus(d: int, point: "PhasePoint | tuple[int, int]") -> Ket:
    """Basis state q on the c mode, Fourier state p on the r mode, mapped back
    to particle coordinates."""
    q, p = _point(point, d)
    return Ket(point_basis(d, False)[q * d + p])


# -- operator words ----------------------------------------------------------

_FACTOR_RE = re.compile(r"([A-Za-z]+)(?:\^(-?\d+))?")


def _factor(token: str, generators: tuple[str, ...]) -> tuple[str, int]:
    """One ``Name^power`` factor, or WordParseError."""
    match = _FACTOR_RE.fullmatch(token)
    if match is None or match.group(1) not in generators:
        raise WordParseError(
            f"bad factor {token!r}; expected one of {generators} with optional ^integer"
        )
    power = int(match.group(2)) if match.group(2) is not None else 1
    return match.group(1), power


def parse_word(text: str, generators: tuple[str, ...] = COLLECTIVE_GENERATORS) -> list[tuple[str, int]]:
    """Parse a word like ``Xc^2 Xr^6 Zr^-1`` into (generator, power) factors.

    Factors are whitespace-separated; a missing caret means power 1.  The
    empty word parses to the empty list (the identity).
    """
    return [_factor(token, generators) for token in text.split()]


def format_word(factors: list[tuple[str, int]]) -> str:
    """Canonical text for a parsed word (explicit powers, single spaces)."""
    return " ".join(f"{name}^{power}" for name, power in factors)


def _factors(word: "str | list[tuple[str, int]]", generators=COLLECTIVE_GENERATORS) -> list[tuple[str, int]]:
    """The (generator, power) factors of a word given as text or as a factor
    list; each listed factor is checked on its own as ``name^power`` text,
    its power an integer by :func:`_integer` first, so both forms raise
    WordParseError."""
    if isinstance(word, str):
        return parse_word(word, generators)
    return [_factor(f"{name}^{_listed_power(power)}", generators) for name, power in word]


def _listed_power(power) -> int:
    """A listed factor's power through :func:`_integer`, whose TypeError
    becomes a WordParseError."""
    try:
        return _integer(power)
    except TypeError as exc:
        raise WordParseError(f"power {power!r} must be an integer") from exc


def _word_map(
    d: int, word: "str | list[tuple[str, int]]", generators: tuple[str, ...] = COLLECTIVE_GENERATORS
) -> tuple[np.ndarray, np.ndarray]:
    """Exact (src, e) map of one word: row 0 of :func:`_word_maps`, the
    generator set checked before the word is parsed."""
    _family(generators)
    src, exponents = _word_maps(d, [_factors(word, generators)], generators)
    return src[0], exponents[0]


def _word_maps(
    d: int, words, generators: tuple[str, ...] = COLLECTIVE_GENERATORS
) -> tuple[np.ndarray, np.ndarray]:
    """The (len(words), n) exact maps of parsed words, factors composed in
    written order with unreduced integer exponents, the rightmost acting
    first: over the d^2 pair index for collective generators, the d single-
    particle index for single-particle ones; a mixed set raises ValueError.
    Each word is padded with power-0 factors, the identity, and every factor
    position is one gather from the family's power tables."""
    family = _family(generators)
    src_table, exp_table = _family_tables(d, family)
    size = src_table.shape[-1]
    lengths = np.array([len(word) for word in words], dtype=np.intp)
    # the factor slots of each word, row-major, so they fill in written order
    filled = np.arange(lengths.max(initial=0)) < lengths[:, None]
    # each slot's row of G^(power mod d) in the flat (len(family) * d, n) tables
    rows = np.zeros(filled.shape, dtype=np.intp)
    rows[filled] = [family.index(name) * d + power % d for word in words for name, power in word]
    src = np.tile(np.arange(size), (len(words), 1))
    exponents = np.zeros_like(src)
    for row in rows.T:
        flat = row[:, None] * size + src
        exponents = exponents + exp_table.ravel()[flat]
        src = src_table.ravel()[flat]
    return src, exponents


def word_matrix(
    d: int, word: "str | list[tuple[str, int]]", generators: tuple[str, ...] = COLLECTIVE_GENERATORS
) -> np.ndarray:
    """Dense matrix of a word, factors multiplied in written order: the
    exact map of :func:`_word_map`, made dense once."""
    return _dense(d, *_word_map(d, word, generators))


def local_action(state: Ket, particle: int, word: "str | list[tuple[str, int]]") -> Ket:
    """Apply a single-particle word (generators X, Z) to one side of a pair by
    a gather on the rows (particle 1) or columns (particle 2) of the d x d
    amplitude matrix: one :func:`_local_images` row."""
    d = _split_dim(len(state.amplitudes))
    maps = _word_maps(d, [_factors(word, SINGLE_GENERATORS)], SINGLE_GENERATORS)
    return Ket(_local_images(state.amplitudes[None], [particle], *maps)[0])


def _local_images(amplitudes: np.ndarray, particles, src: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """The images of the rows of an (n, d*d) stack of flat pair arrays, row
    i under the single-particle map (src[i], exponents[i]) on particle
    ``particles[i]``: both gathers over the stack, then one pick per row.
    Each particle label goes through :func:`_integer`."""
    d = _split_dim(amplitudes.shape[-1])
    particles = [_integer(particle) for particle in particles]
    if not all(particle in (1, 2) for particle in particles):
        raise ValueError("particle must be 1 or 2")
    phases, amps = omega_powers(d)[exponents % d], amplitudes.reshape(-1, d, d)
    n = np.arange(len(amps))[:, None]
    # particle 1 permutes the rows of each d x d amplitude matrix, particle 2 its columns
    rows = phases[:, :, None] * amps[n, src]
    columns = amps[n[:, :, None], np.arange(d)[:, None], src[:, None, :]] * phases[:, None, :]
    return np.where(np.equal(particles, 1)[:, None, None], rows, columns).reshape(len(amps), d * d)


# -- lattice hopping ---------------------------------------------------------


@dataclass(frozen=True)
class HopResult:
    """Lattice point plus accumulated phase, as an exact exponent of w."""

    point: PhasePoint
    phase_exponent: int


def hop(
    d: int,
    point: "PhasePoint | tuple[int, int]",
    word: "str | list[tuple[str, int]]",
) -> HopResult:
    """Symbolic action of a collective word on the lattice state
    |q; cb>_c (x) |p; fourier>_r.

    Per generator factor (rightmost first):  Xc^k shifts q by k;  Zr^k shifts
    p by -k;  Zc^k and Xr^k are diagonal and add k*q resp. k*p to the phase
    exponent, evaluated at the current labels.
    """
    return _hop(d, *_point(point, d), _factors(word))


def _hop(d: int, q: int, p: int, factors) -> HopResult:
    """:func:`hop` of parsed factors from the reduced labels (q, p)."""
    phase = 0
    for name, power in reversed(factors):
        if name == "Xc":
            q = (q + power) % d
        elif name == "Zc":
            phase = (phase + power * q) % d
        elif name == "Xr":
            phase = (phase + power * p) % d
        elif name == "Zr":
            p = (p - power) % d
    return HopResult(PhasePoint(q, p), phase % d)


def hop_dense(
    d: int,
    point: "PhasePoint | tuple[int, int]",
    word: "str | list[tuple[str, int]]",
) -> tuple[HopResult, float]:
    """Oracle for :func:`hop`: apply the dense word matrix to the lattice
    state and re-identify the image against the cached point basis: the row
    of the largest overlap modulus, and that overlap's w-exponent.

    Returns the identified (point, phase exponent) and the overlap modulus,
    which is 1 exactly when the image is again a lattice state.  A
    non-finite image matches no point: (0, 0) with fidelity 0.
    """
    q, p = _point(point, d)
    stack = point_basis(d, False)
    image = word_matrix(d, word) @ stack[q * d + p]
    # |<s_k|v>| = |conj(v) . s_k|, which spares a conjugate copy of the stack
    k = int(np.abs(image.conj() @ stack.T).argmax())
    overlap = np.vdot(stack[k], image)
    if not np.isfinite(overlap):
        return HopResult(PhasePoint(0, 0), 0), 0.0
    return HopResult(PhasePoint(*divmod(k, d)), _omega_exponent(overlap, d)), float(abs(overlap))


def hop_trajectory(
    d: int,
    point: "PhasePoint | tuple[int, int]",
    word: "str | list[tuple[str, int]]",
) -> list[tuple[str, HopResult]]:
    """Intermediate lattice states after each factor, rightmost factor first.

    The first entry is ("", start); the last entry equals :func:`hop` on the
    whole word.  Each step hops the previous point by one factor and adds
    its phase exponent mod d.
    """
    step = HopResult(PhasePoint(*_point(point, d)), 0)
    factors = _factors(word)
    steps = [("", step)]
    for factor in reversed(factors):
        moved = _hop(d, step.point.q, step.point.p, [factor])
        step = HopResult(moved.point, (step.phase_exponent + moved.phase_exponent) % d)
        steps.append((format_word([factor]), step))
    return steps
