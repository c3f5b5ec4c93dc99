"""Straight lines in the d x d phase grid and the product states they sum to.

A line is labeled by an orientation b and an offset m.  Orientation ``cb``
is the vertical family q = m; orientation b in 0..d-1 is the family

    p = b*q - m   (mod d).

Each orientation partitions the d^2 grid points into d parallel lines; two
non-parallel lines meet in exactly one point.

The state of a line is the normalized sum of the lattice product states
|q; cb>_c (x) |p; fourier>_r over its d points.  Every such sum collapses to
a rank-1 product in particle coordinates:

* a vertical line gives |m>_1 |m>_2 exactly;
* orientation b, offset m gives  tilde(u) (x) u  with u the quadratic-phase
  state of basis b/4 (mod d) and index m/2 (mod d) on particle 2, global
  phase exactly 1.

With the offset entering as -m, the m/2 rule above holds on the nose; the
same family swept with +m merely renames offsets within each pencil.
Grouping the particle-2 factors by orientation therefore reproduces the full
d+1 unbiased-basis family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collective import PhasePoint, point_basis
from .errors import FactorizationFailed
from .modring import ModInt, Prime
from .schwinger import (
    CB,
    BasisLabel,
    MubState,
    _label_index,
    mub_stack,
    omega_powers,
    validate_dimension,
)
from .states import (
    DEFAULT_TOL,
    Ket,
    _omega_exponent,
    _overlap_match,
    _phase_canonical,
    _worst,
    validate_tolerance,
)

__all__ = [
    "Line",
    "LineState",
    "LineFactorReport",
    "all_lines",
    "line_points",
    "line_state",
    "schmidt_inversion_check",
    "mub_from_lines",
    "line_factor_table",
]


@dataclass(frozen=True)
class Line:
    """Orientation label b (``cb`` = vertical) and offset m."""

    b: BasisLabel
    m: int


@dataclass(frozen=True)
class LineState:
    line: Line
    vector: Ket


def all_lines(d: int) -> list[Line]:
    """The d+1 pencils of d parallel lines each, in a fixed order."""
    validate_dimension(d)
    return [
        Line(label, m)
        for label in BasisLabel.all_labels(d)
        for m in range(d)
    ]


def line_points(d: int, line: Line) -> list[PhasePoint]:
    """The d grid points of a line.

    Vertical lines are {(m, p) : p}; orientation b gives {(q, b*q - m) : q}.
    An orientation outside 0..d-1 raises InvalidLabel; m is reduced mod d.
    """
    validate_dimension(d)
    m = line.m % d
    b = _label_index(line.b, d)
    if b is None:
        return [PhasePoint(m, p) for p in range(d)]
    return [PhasePoint(q, (b * q - m) % d) for q in range(d)]


def line_state(d: int, line: Line, realization: str = "standard") -> LineState:
    """Normalized sum of the lattice point states along the line.

    The d summed points are orthonormal, so 1/sqrt(d) is the exact
    normalization.  ``realization="alt"`` sums the conjugate point family
    (Fourier label on the center-of-mass mode) instead; the result is still a
    rank-1 product but with the factor roles of the two particles exchanged.
    """
    return LineState(line, Ket(_line_amplitudes(d, line, realization)))


def _line_amplitudes(d: int, line: Line, realization: str = "standard") -> np.ndarray:
    """The amplitude array of :func:`line_state`."""
    if realization not in ("standard", "alt"):
        raise ValueError("realization must be 'standard' or 'alt'")
    rows = _line_rows(d, line)
    return point_basis(d, realization == "alt")[rows].sum(axis=0) / np.sqrt(d)


def _line_rows(d: int, line: Line) -> np.ndarray:
    """Point-basis rows q*d + p of :func:`line_points`, in the same order:
    m*d + j for a vertical line, j*d + (b*j - m) mod d for orientation b."""
    validate_dimension(d)
    m, b, j = line.m % d, _label_index(line.b, d), np.arange(d)
    return m * d + j if b is None else j * d + (b * j - m) % d


def _factorize(d: int, amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular values of the d x d amplitude matrix and its leading factor
    pair, each normalized and phase-canonical: the particle-1 factor (left
    singular vector) and the particle-2 factor (right singular vector)."""
    u, s, vh = np.linalg.svd(amplitudes.reshape(d, d))
    return s, _canonical_factor(u[:, 0]), _canonical_factor(vh[0])


def _canonical_factor(factor: np.ndarray) -> np.ndarray:
    """A singular vector normalized and made phase-canonical."""
    return _phase_canonical(factor / np.linalg.norm(factor))


def _identify_label(
    d: int, factor: np.ndarray, conjugate: bool
) -> tuple[BasisLabel, int, float]:
    """Best-matching (basis, index) for a single-particle factor array, by
    :func:`mesphase.states._overlap_match` against the cached MUB stack.
    With ``conjugate=True`` the search runs over the tilde partners of the
    family instead.  A non-finite factor matches nothing: (cb, 0) with
    fidelity 0.
    """
    stack = mub_stack(d).reshape(-1, d)
    # |<conj(s)|f>| = |<s|conj(f)>|
    k, _, fid = _overlap_match(stack, factor.conj() if conjugate else factor, d)
    b, m = divmod(k, d)
    return (CB if b == 0 else BasisLabel(b - 1)), m, fid


@dataclass(frozen=True)
class LineFactorReport:
    """Measured factorization of one line state."""

    d: int
    line: Line
    second_singular_value: float
    schmidt_rank_ok: bool
    factor1_b: BasisLabel
    factor1_m: int
    factor1_is_tilde: bool
    factor1_fidelity: float
    factor2_b: BasisLabel
    factor2_m: int
    factor2_fidelity: float
    global_phase_exponent: int
    max_error: float


def schmidt_inversion_check(
    d: int, line: Line, tol: float = DEFAULT_TOL, realization: str = "standard"
) -> LineFactorReport:
    """Verify a line state is a product and identify both factors.

    Factor 2 is matched directly against the basis family, factor 1 against
    the tilde partners.  The reported global phase is the overlap phase of
    the line state with the canonicalized product of its factors, as an
    exact exponent of w when it lies on the d-point circle.
    """
    validate_tolerance(tol)
    state = _line_amplitudes(d, line, realization)
    s, factor1, factor2 = _factorize(d, state)
    second = float(s[1])
    b1, m1, fid1 = _identify_label(d, factor1, conjugate=True)
    b2, m2, fid2 = _identify_label(d, factor2, conjugate=False)
    overlap = np.vdot(np.outer(factor1, factor2).ravel(), state)
    exponent = _omega_exponent(overlap, d)
    phase_error = abs(overlap - omega_powers(d)[exponent])
    max_error = float(_worst(second, 1.0 - fid1, 1.0 - fid2, phase_error))
    return LineFactorReport(
        d=d,
        line=line,
        second_singular_value=second,
        schmidt_rank_ok=second < tol,
        factor1_b=b1,
        factor1_m=m1,
        factor1_is_tilde=True,
        factor1_fidelity=float(fid1),
        factor2_b=b2,
        factor2_m=m2,
        factor2_fidelity=float(fid2),
        global_phase_exponent=exponent,
        max_error=max_error,
    )


def expected_factor2_label(d: int, line: Line) -> tuple[BasisLabel, int]:
    """Predicted particle-2 factor label: (cb, m) for vertical lines, else
    (b/4 mod d, m/2 mod d)."""
    prime = Prime(validate_dimension(d))
    b = _label_index(line.b, d)
    if b is None:
        return CB, line.m % d
    return BasisLabel(int(ModInt(b, prime).quarter())), int(ModInt(line.m, prime).half())


def mub_from_lines(d: int, tol: float = DEFAULT_TOL) -> list[list]:
    """Rebuild the full d+1 basis family from line-state factorizations.

    For every line, the particle-2 factor of its product form is extracted
    by singular-value factorization and filed under the predicted label.
    The result has the same [cb, 0, .., d-1] ordering as
    :func:`mesphase.schwinger.mub_family` and agrees with it state by state
    up to a phase.
    """
    stack = _mub_stack_from_lines(d, tol)
    return [
        [MubState(label, m, Ket(stack[i, m])) for m in range(d)]
        for i, label in enumerate(BasisLabel.all_labels(d))
    ]


def _mub_stack_from_lines(d: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The states of :func:`mub_from_lines` as a (d+1, d, d) array in the
    layout of :func:`mesphase.schwinger.mub_stack`."""
    validate_dimension(d)
    validate_tolerance(tol)
    stack = np.zeros((d + 1, d, d), dtype=np.complex128)
    lines = all_lines(d)
    # one SVD call per pencil of d parallel lines: the stacked call factors
    # each d x d matrix on its own, to the bits of a per-line _factorize
    for start in range(0, len(lines), d):
        pencil = lines[start:start + d]
        amplitudes = np.stack([_line_amplitudes(d, line) for line in pencil])
        _, s, vh = np.linalg.svd(amplitudes.reshape(d, d, d))
        for line, values, row in zip(pencil, s, vh[:, 0]):
            # not (s <= tol), so that a NaN singular value fails too
            if not values[1] <= tol:
                raise FactorizationFailed(
                    f"line b={line.b} m={line.m} has Schmidt rank > 1 "
                    f"(second singular value {values[1]:.3e})"
                )
            label, m = expected_factor2_label(d, line)
            stack[0 if label.is_cb else label.index + 1, m] = _canonical_factor(row)
    return stack


def line_factor_table(
    d: int, tol: float = DEFAULT_TOL, realization: str = "standard"
) -> list[dict]:
    """One row per line: measured factor labels, phase and error.

    Rows carry the particle-2 labels (the un-conjugated factor); column
    order matches the CSV the command-line tool emits.
    """
    rows = []
    for line in all_lines(d):
        rep = schmidt_inversion_check(d, line, tol, realization)
        rows.append(
            {
                "d": d,
                "b": str(line.b),
                "m": line.m,
                "schmidt_rank_ok": rep.schmidt_rank_ok,
                "factor_label_b": str(rep.factor2_b),
                "factor_label_m": rep.factor2_m,
                "global_phase_exponent": rep.global_phase_exponent,
                "max_error": rep.max_error,
            }
        )
    return rows
