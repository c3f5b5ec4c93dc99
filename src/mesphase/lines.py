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
from typing import NamedTuple

import numpy as np

from .collective import PhasePoint, point_basis
from .errors import FactorizationFailed
from .schwinger import (
    CB,
    BasisLabel,
    MubState,
    _label_index,
    _per_dimension,
    mub_stack,
    omega_powers,
    validate_dimension,
)
from .states import (
    DEFAULT_TOL,
    Ket,
    _blocks,
    _integer,
    _omega_exponent,
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
    An orientation outside 0..d-1 raises InvalidLabel; m goes through
    :func:`_integer` and is reduced mod d.
    """
    d = validate_dimension(d)
    m = _integer(line.m) % d
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
    amplitudes = _line_sums(_summed_basis(d, realization), _line_tables(d)[0][_line_index(d, [line])])[0]
    return LineState(line, Ket(amplitudes))


def _summed_basis(d: int, realization: str) -> np.ndarray:
    """The point basis whose rows a realization's line states sum."""
    if realization not in ("standard", "alt"):
        raise ValueError("realization must be 'standard' or 'alt'")
    return point_basis(d, realization == "alt")


def _line_index(d: int, lines: list[Line]) -> np.ndarray:
    """Each line's position in :func:`all_lines`: (b + 1)*d + (m mod d) for
    orientation b, m mod d for a vertical line, with m from :func:`_integer`
    and b from :func:`_label_index`."""
    d = validate_dimension(d)
    return np.array(
        [(0 if (b := _label_index(line.b, d)) is None else b + 1) * d + _integer(line.m) % d for line in lines]
    )


@_per_dimension
def _line_tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables over the lines of :func:`all_lines`, in its order.

    The (d(d+1), d) point-basis rows q*d + p of :func:`line_points`: m*d + j
    for a vertical line, j*d + (b*j - m) mod d for orientation b.  And each
    line's predicted particle-2 label as its row k = basis*d + m of the flat
    MUB stack: (cb, m) for a vertical line, else (b/4, m/2) mod d, by the
    inverses of 4 and 2.
    """
    b, m = np.divmod(np.arange(d * (d + 1)), d)
    b, m, j = b[:, None] - 1, m[:, None], np.arange(d)
    rows = np.where(b < 0, m * d + j, j * d + (b * j - m) % d)
    oriented = (b * pow(4, -1, d) % d + 1) * d + m * ((d + 1) // 2) % d
    return rows, np.where(b < 0, m, oriented).ravel()


def _line_sums(basis: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The line states of an (n, d) array of rows of ``basis``, shape
    (n, d*d): each the sum of its d rows, in order, over sqrt(d).

    It gathers the rows in :func:`_blocks` of lines, so that each (lines, d,
    d*d) block holds at most ``states._BLOCK_VALUES`` values (512 KB): all
    lines of a call at once up to d=13, one at a time from d=29.  From d=17
    on this is faster than one block per pencil (timings in README)."""
    d = rows.shape[1]
    sums = np.empty((len(rows), basis.shape[1]), dtype=basis.dtype)
    for block in _blocks(len(rows), d * basis.shape[1]):
        # take gathers faster than basis[rows] and gives the same array
        basis.take(rows[block], axis=0).sum(axis=1, out=sums[block])
    sums /= np.sqrt(d)
    return sums


def _rank_one(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One rank-1 projection step for each matrix A of an (n, d, d) stack.

    With x the column of A of largest norm, v = A*x/|A*x| and u = A v, it
    returns |A - u v*|_F, u and v*, shapes (n,), (n, d) and (n, d).  By
    Eckart-Young-Mirsky, sigma_2(A) <= |A - A v v*|_F for every unit vector
    v (indeed sigma_2(A) <= |A - B|_F for every B of rank <= 1), so the
    first value never understates the second singular value beyond rounding,
    and a rank check on it fails closed.  Near rank 1 it is sigma_2 to first
    order: v differs from the leading right singular vector by O(sigma_2^2).
    A non-finite A gives NaN throughout; nothing raises.  Every step works on
    one matrix at a time (matmul slices, sums along one axis), so a matrix
    gives the same bytes in any stack."""
    n = len(matrices)
    column = (matrices.conj() * matrices).real.sum(axis=1).argmax(axis=1)
    x = matrices[np.arange(n), :, column]
    # conj(A* x) as a row
    vstar = x.conj()[:, None, :] @ matrices
    # times the reciprocal: a complex division signals on NaN
    vstar *= 1 / np.sqrt((vstar.conj() * vstar).real.sum(axis=2))[:, :, None]
    u = matrices @ vstar.conj().swapaxes(1, 2)
    residual = (matrices - u * vstar).reshape(n, -1)
    return np.sqrt((residual.conj() * residual).real.sum(axis=1)), u[:, :, 0], vstar[:, 0]


@dataclass(frozen=True)
class LineFactorReport:
    """Measured factorization of one line state.

    ``second_singular_value`` is |A - u v*|_F for the d x d amplitude matrix
    A and the rank-1 step of :func:`_rank_one`.  Since sigma_2(A) <=
    |A - A v v*|_F for any unit vector v, it falls below the second
    singular value sigma_2(A) only by rounding (about 1e-17 for a line
    state), so ``schmidt_rank_ok`` can only err towards failing."""

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


class _FactoredLines(NamedTuple):
    """What :func:`_factor_lines` measures, one entry per line: its report
    (for a caller that asks for them, else none), its bound on the second
    singular value (NaN for a non-finite line), its matched particle-2 label
    as row k = basis*d + m of the flat MUB stack (compare
    :func:`_line_tables`), and its phase-canonical particle-2 factor v*,
    zero for a line whose bound is NaN."""

    reports: list[LineFactorReport]
    second: np.ndarray
    found: np.ndarray
    factor2: np.ndarray


def _factor_lines(
    d: int, lines: list[Line], tol: float = DEFAULT_TOL, realization: str = "standard", with_reports: bool = True
) -> _FactoredLines:
    """Factor and judge the line states one block of max(d,
    ``states._BLOCK_VALUES`` // d^3) lines at a time (all lines up to d=7, a
    pencil from d=17): one gather and sum of the point basis, one rank-1 step
    (:func:`_rank_one`) and one label search per factor side, a matmul
    against the MUB stack.  No line state outlives its block.  Without
    ``with_reports`` only the particle-2 side is matched and no report is
    made.

    A non-finite line state gets a NaN bound and zero factors, so it reports
    the label (cb, 0) with fidelity 0 on both sides and an infinite error;
    the other lines of its block keep their values.  Making each factor
    phase-canonical, the norm of u, the three ``np.vdot`` overlaps and the
    phase exponent stay per line, since a batched form moves their last bit.
    """
    d = validate_dimension(d)
    basis = _summed_basis(d, realization)
    rows = _line_tables(d)[0][_line_index(d, lines)]
    stack, w = mub_stack(d).reshape(-1, d), omega_powers(d)
    reports, second, found = [], np.empty(len(lines)), np.empty(len(lines), dtype=np.intp)
    factor2 = np.zeros((len(lines), d), dtype=np.complex128)
    for block in _blocks(len(lines), d**3, minimum=d):
        amplitudes = _line_sums(basis, rows[block])
        s, u, vstar = _rank_one(amplitudes.reshape(-1, d, d))
        second[block] = s
        kept = np.isfinite(s).tolist()
        factor1, block2 = np.zeros((len(kept), d), dtype=np.complex128), factor2[block]
        for i, ok in enumerate(kept):
            if ok:
                block2[i] = _phase_canonical(vstar[i])
                if with_reports:
                    factor1[i] = _phase_canonical(u[i] / np.linalg.norm(u[i]))
        # |<conj(s)|f1>| = |s . f1| and |<s|f2>| = |s . conj(f2)|; a zero factor
        # matches row 0, the label (cb, 0)
        found[block] = np.abs(block2.conj() @ stack.T).argmax(axis=1)
        if not with_reports:
            continue
        found1 = np.abs(factor1 @ stack.T).argmax(axis=1).tolist()
        conj1 = factor1.conj()
        for i, (line, ok, s1, k1, k2) in enumerate(
            zip(lines[block], kept, s.tolist(), found1, found[block].tolist())
        ):
            fid1 = abs(np.vdot(stack[k1], conj1[i]))
            fid2 = abs(np.vdot(stack[k2], block2[i]))
            overlap = np.vdot(np.outer(factor1[i], block2[i]).ravel(), amplitudes[i])
            exponent = _omega_exponent(overlap, d) if ok else 0
            (b1, m1), (b2, m2) = _mub_label(d, k1), _mub_label(d, k2)
            reports.append(
                LineFactorReport(
                    d=d,
                    line=line,
                    second_singular_value=s1,
                    # False for a NaN bound
                    schmidt_rank_ok=s1 < tol,
                    factor1_b=b1,
                    factor1_m=m1,
                    factor1_is_tilde=True,
                    factor1_fidelity=float(fid1),
                    factor2_b=b2,
                    factor2_m=m2,
                    factor2_fidelity=float(fid2),
                    global_phase_exponent=exponent,
                    max_error=float(_worst(s1, 1.0 - fid1, 1.0 - fid2, abs(overlap - w[exponent]))),
                )
            )
    return _FactoredLines(reports, second, found, factor2)


def schmidt_inversion_check(
    d: int, line: Line, tol: float = DEFAULT_TOL, realization: str = "standard"
) -> LineFactorReport:
    """Verify a line state is a product and identify both factors.

    Factor 2 is matched directly against the basis family, factor 1 against
    the tilde partners.  The reported global phase is the overlap phase of
    the line state with the canonicalized product of its factors, as an
    exact exponent of w when it lies on the d-point circle.  A non-finite
    line state fails: fidelities 0 and an infinite ``max_error``.
    """
    tol = validate_tolerance(tol)
    return _factor_lines(d, [line], tol, realization).reports[0]


def expected_factor2_label(d: int, line: Line) -> tuple[BasisLabel, int]:
    """Predicted particle-2 factor label: (cb, m) for vertical lines, else
    (b/4 mod d, m/2 mod d), as held by :func:`_line_tables`."""
    index = _line_index(d, [line])[0]
    return _mub_label(d, int(_line_tables(d)[1][index]))


def _mub_label(d: int, k: int) -> tuple[BasisLabel, int]:
    """The (basis, m) label of row k = basis*d + m of the flat MUB stack,
    basis 0 being cb."""
    b, m = divmod(k, d)
    return (CB if b == 0 else BasisLabel(b - 1)), m


def mub_from_lines(d: int, tol: float = DEFAULT_TOL) -> list[list]:
    """Rebuild the full d+1 basis family from line-state factorizations.

    For every line, the particle-2 factor of its product form is extracted
    by one rank-1 projection step and filed under the predicted label.
    The result has the same [cb, 0, .., d-1] ordering as
    :func:`mesphase.schwinger.mub_family` and agrees with it state by state
    up to a phase.
    """
    lines = all_lines(d)
    tol = validate_tolerance(tol)
    stack = _mub_stack_from_lines(d, _factor_lines(d, lines, tol, "standard", False), tol)
    return [
        [MubState(label, m, Ket(stack[i, m])) for m in range(d)]
        for i, label in enumerate(BasisLabel.all_labels(d))
    ]


def _mub_stack_from_lines(d: int, factored: _FactoredLines, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The states of :func:`mub_from_lines` as a (d+1, d, d) array in the
    layout of :func:`mesphase.schwinger.mub_stack`, read from
    :func:`_factor_lines` of :func:`all_lines`; FactorizationFailed if a line
    is not of Schmidt rank 1 within ``tol``."""
    # not (s < tol), as schmidt_rank_ok, so that a NaN singular value fails too
    failed = np.flatnonzero(~(factored.second < tol))
    if failed.size:
        line, second = all_lines(d)[failed[0]], factored.second[failed[0]]
        raise FactorizationFailed(
            f"line b={line.b} m={line.m} has Schmidt rank > 1 (second singular value bound {second:.3e})"
        )
    stack = np.zeros((d + 1, d, d), dtype=np.complex128)
    stack.reshape(-1, d)[_line_tables(d)[1]] = factored.factor2
    return stack


def line_factor_table(
    d: int, tol: float = DEFAULT_TOL, realization: str = "standard"
) -> list[dict]:
    """One row per line: measured factor labels, phase and error.

    Rows carry the particle-2 labels (the un-conjugated factor); column
    order matches the CSV the command-line tool emits.
    """
    lines = all_lines(d)
    tol = validate_tolerance(tol)
    return [
        {
            "d": rep.d,
            "b": str(rep.line.b),
            "m": rep.line.m,
            "schmidt_rank_ok": rep.schmidt_rank_ok,
            "factor_label_b": str(rep.factor2_b),
            "factor_label_m": rep.factor2_m,
            "global_phase_exponent": rep.global_phase_exponent,
            "max_error": rep.max_error,
        }
        for rep in _factor_lines(d, lines, tol, realization).reports
    ]
