"""Verification suites: every construction re-checked against its defining
property, one report row per check.

Every check is a ``(name, params, errors)`` entry whose ``errors()`` yields
or returns its error values; :func:`_rows` turns the entries of one suite into
report rows, calling each ``errors`` once.  A row passes iff its
worst error is below the configured tolerance, so the command-line exit
code reduces to "all rows pass".  All randomized rows draw from a seeded
generator; identical invocations produce identical reports.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import collective as co
from . import lines as li
from . import mes as me
from . import schwinger as sw
from .errors import FactorizationFailed, InvalidDimension
from .schwinger import CB, BasisLabel
from .states import (
    DEFAULT_TOL,
    Ket,
    _blocks,
    _gram_deviation,
    _integer,
    _reduced_deviation,
    _worst,
    reduced_operators,
    validate_tolerance,
)

__all__ = ["VerificationReport", "run_suites", "SUITES"]

SUITES = ("all", "mub", "mes", "collective", "lines")


@dataclass(frozen=True)
class VerificationReport:
    check: str
    d: int
    params: str
    max_error: float
    passed: bool
    runtime_ms: float


def _rows(d: int, tol: float, entries) -> list[VerificationReport]:
    """One row per ``(check, params, errors)`` entry, ``errors()`` called
    once each in entry order.

    The row's error is the NaN-safe worst of the values the call yields,
    floored at 0; a line factorization that fails its rank gate reports
    inf.  ``runtime_ms`` is the time of that call only: a suite's setup
    falls outside every row.
    """
    worst, ms = [0.0] * len(entries), [0.0] * len(entries)
    for i, (_, _, errors) in enumerate(entries):
        start = time.perf_counter()
        try:
            worst[i] = _worst(0.0, *errors())
        except FactorizationFailed:
            worst[i] = math.inf
        ms[i] = (time.perf_counter() - start) * 1000.0
    return [
        VerificationReport(check, d, params, err, err < tol, t)
        for (check, params, _), err, t in zip(entries, map(float, worst), ms)
    ]


def _random_word(rng: random.Random, generators, low: int, high: int, lengths):
    """A word of ``rng.randrange(*lengths)`` factors, each a generator drawn
    uniformly from the sequence ``generators`` and then a power from
    [low, high): two draws per factor, in that order."""
    return [(rng.choice(generators), rng.randrange(low, high)) for _ in range(rng.randrange(*lengths))]


def _normal(rng: random.Random, *shape: int) -> np.ndarray:
    """Standard normal draws of ``rng.gauss(0.0, 1.0)`` in C order, as an
    array of ``shape``: scalar libm arithmetic, with no SIMD path chosen by
    the CPU.

    ``gauss`` makes its draws in Box-Muller pairs, two ``rng.random()`` calls
    each, and keeps the second of a pair for its next call.  This takes the
    pairs with the same operations, so the draws and the generator state are
    those of ``gauss`` called ``count`` times, and refuses an odd count,
    which would leave half a pair pending."""
    count = math.prod(shape)
    if count % 2:
        raise ValueError(f"{count} normal draws are not a whole number of pairs")
    draws = []
    for _ in range(count // 2):
        x2pi = rng.random() * math.tau
        g2rad = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
        draws += (0.0 + math.cos(x2pi) * g2rad * 1.0, 0.0 + math.sin(x2pi) * g2rad * 1.0)
    return np.array(draws).reshape(shape)


# -- basis-family suite -------------------------------------------------------


def suite_mub(d: int, tol: float, factored) -> list[VerificationReport]:
    """``factored`` is :func:`lines._factor_lines` of :func:`lines.all_lines`,
    made by :func:`run_suites` as setup outside every row."""
    stacks = sw.mub_stack(d)

    def count():
        # d+1 bases of d states each, d(d+1) states in total
        return [0.0 if stacks.shape == (d + 1, d, d) else 1.0]

    def clock_shift_algebra():
        z = sw.clock_z(d).matrix
        x = sw.shift_x(d).matrix
        w = sw.omega_powers(d)[1]
        eye = np.eye(d)
        return (
            np.abs(z @ x - w * (x @ z)).max(),
            np.abs(np.linalg.matrix_power(z, d) - eye).max(),
            np.abs(np.linalg.matrix_power(x, d) - eye).max(),
        )

    def lines_family_match():
        # the extraction keeps its own numerical rank gate; the configured
        # tolerance only judges the resulting fidelities
        rebuilt = li._mub_stack_from_lines(d, factored)
        for direct, extracted in zip(stacks.reshape(-1, d), rebuilt.reshape(-1, d)):
            yield 1.0 - abs(np.vdot(direct, extracted))

    entries = [
        ("mub.count", "", count),
        ("mub.orthonormal", "", lambda: map(_gram_deviation, stacks)),
        (
            "mub.unbiased",
            "",
            lambda: (
                np.abs(np.abs(a.conj() @ b.T) - 1 / np.sqrt(d)).max()
                for a, b in combinations(stacks, 2)
            ),
        ),
        ("mub.eigenrelation", "", lambda: sw._eigen_residuals(d)),
        ("mub.clock_shift_algebra", "", clock_shift_algebra),
        ("mub.lines_family_match", "", lines_family_match),
    ]
    return _rows(d, tol, entries)


# -- maximally-entangled-basis suite -----------------------------------------


# unit roundoff of float64
_U = np.finfo(float).eps / 2


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): a product of n factors
    (1 + delta)^(+-1), each |delta| <= u, lies within 1 +- gamma_n."""
    return n * _U / (1 - n * _U)


def _unitarity_gap(m: np.ndarray, c: float) -> np.ndarray:
    """||m m^+ - I||_2 of each square matrix of the stack m, bounded by the
    Frobenius norm of the computed gap plus c ||m||_F^2, the rounding of a
    matmul whose entrywise error is c |m| |m|^T; its callers lift it for the
    rest."""
    size = np.linalg.norm(m, axis=(-2, -1))
    return np.linalg.norm(m @ m.conj().swapaxes(-1, -2) - np.eye(m.shape[-1]), axis=(-2, -1)) + c * size * size


def _omega_table(d: int) -> tuple[np.ndarray, float]:
    """The float table t_k = w^k / sqrt d, w^k from :func:`omega_powers`, and
    mu >= max_k |d |t_k|^2 - 1|: the computed spread plus gamma_4 (1 + spread)
    for the rounding of d |t_k|^2."""
    table = sw.omega_powers(d) / np.sqrt(d)
    spread = float(np.abs(d * (table.real**2 + table.imag**2) - 1).max())
    return table, spread + _gamma(4) * (1 + spread)


def _closed_form_bounds(
    d: int, stack: np.ndarray, order: np.ndarray, fixed: np.ndarray, base: np.ndarray, slope: np.ndarray
) -> tuple[float, float, bool]:
    """Bounds (gram, schmidt) on the (d^2, d^2) ``stack`` V from its closed
    form V^, and whether V equals V^ exactly; a bound that is not finite
    reads inf.

    ``gram`` bounds ||V V^+ - I||_2 and so every entry of conj(V) V^T - I
    (mes.gram, collective.point_bases) and, V being square, of
    V^T conj(V) - I (mes.completeness); ``schmidt`` bounds the distance of
    every singular value of every d x d amplitude matrix from 1/sqrt d
    (mes.schmidt).  Both bound the exact values of the float stack.  They
    are sufficient, not necessary: an orthonormal stack whose rows are
    mislabeled fails them.

    The closed form.  With t from :func:`_omega_table`, row order[s, x] of
    V^ is t[(base + x slope) mod d] where fixed = s, and exactly 0
    elsewhere, the tables over the particle-flat index n1*d + n2
    (:func:`mes._mes_table` or :func:`collective._point_table`).  For each
    s the support, d columns, is the graph of a bijection n1 <-> n2.  V^ is
    gathered once; Delta = V - V^ is taken per :func:`_blocks` block of s.

    Gram.  Rows of different s have disjoint supports, so V^ V^+ is block
    diagonal with the d x d blocks T_s T_s^+, T_s[x, k] the entry of row
    (s, x) at the k-th support column, and ||V^ V^+ - I||_2 <= g =
    max_s ||T_s T_s^+ - I||_2.  Then ||V^||_2 <= sqrt(1 + g), and
    V V^+ - I = V^ V^+ - I + V^ Delta^+ + Delta V^+ + Delta Delta^+ gives
        ||V V^+ - I||_2 <= g + 2 sqrt(1 + g) ||Delta||_F + ||Delta||_F^2 = gram.

    Schmidt.  The amplitude matrix of a row of V^ holds one t_k in each row
    and each column, so its singular values are those |t_k|, each within
    mu / sqrt d of 1/sqrt d since sqrt(1 +- mu) lies within 1 +- mu.  By
    Weyl's inequality the singular values of the row of V lie within
    ||Delta_row||_2 <= ||Delta_row||_F of them, so every Schmidt
    coefficient is within
        mu / sqrt d + max over rows ||Delta_row||_F = schmidt
    of 1/sqrt d.

    Rounding.  V^ is gathered from t with no arithmetic.  T_s T_s^+ is a
    complex matmul with inner dimension d, which in any order of real
    multiply-adds, FMA or not, errs entrywise by at most c |T| |T|^T,
    c = sqrt(2) gamma_2d (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., secs. 3.1 and 3.6); :func:`_unitarity_gap` adds
    c ||T_s||_F^2 to the computed ||T_s T_s^+ - I||_F.  Every other float
    step (the subtractions that give Delta, the norms, the sums) scales a
    nonnegative quantity by (1 + delta)^(+-1), at most N = 2 d^4 + 8 times
    along any path, so each bound is divided by 1 - gamma_N.
    """
    table, mu = _omega_table(d)
    c = math.sqrt(2) * _gamma(2 * d)
    # support[s]: the d columns where fixed = s
    support = np.argsort(fixed, kind="stable").reshape(d, d)
    x, cols = np.arange(d)[:, None], support[:, None, :]
    closed, squares, exact = table[(base[cols] + x * slope[cols]) % d], np.empty((d, d)), True
    for block in _blocks(d, d**3):
        delta = stack[order[block]]
        delta[np.arange(len(delta))[:, None, None], x, cols[block]] -= closed[block]
        # ||Delta_row||_F^2 of each row, over its real and imaginary parts
        parts = delta.view(np.float64)
        squares[block] = np.einsum("sxk,sxk->sx", parts, parts)
        exact = exact and not parts.any()
    g, frobenius = float(_unitarity_gap(closed, c).max()), math.sqrt(squares.sum())
    gram = g + 2 * math.sqrt(1 + g) * frobenius + frobenius * frobenius
    schmidt = mu / math.sqrt(d) + math.sqrt(squares.max())
    lift = 1 / (1 - _gamma(2 * d**4 + 8))
    return *(b * lift if math.isfinite(b) else math.inf for b in (gram, schmidt)), exact


def _reduced_bounds(d: int, schmidt: float, alphas: np.ndarray) -> tuple[float, float]:
    """Bounds (reduced, projection) derived from the bound ``schmidt`` = s
    of :func:`_closed_form_bounds` on one MES basis, the projections being
    those onto the states a, the rows of ``alphas``; (inf, inf) if s is not
    finite.

    Reduced.  Every singular value sigma of an exact d x d amplitude matrix
    M of the stack lies within s of 1/sqrt d.  Both reduced operators, M M^+
    and (M^+ M)^T, have the eigenvalues sigma^2, and |sigma^2 - 1/d| =
    |sigma - 1/sqrt d| (sigma + 1/sqrt d), so
        ||rho - I/d||_2 <= r = s (2/sqrt d + s),
    and no entry of rho - I/d exceeds that norm (mes.reduced).

    Projection.  For each state a, <a|rho|a> - 1/d = <a|(rho - I/d)|a> +
    (||a||^2 - 1)/d.  The computed sum of squares n^ of a lies within
    gamma_2d of the exact ||a||^2, so nu = max |n^ - 1| + gamma_2d max n^
    bounds | ||a||^2 - 1 |, and every projection lies within r (1 + nu) +
    nu/d of 1/d (mes.random_projection).

    Rounding.  The few float steps that assemble nu, r and the projection
    bound are covered by the 1/(1 - gamma_N), N = 2 d^4 + 8, of
    :func:`_closed_form_bounds`.
    """
    squares = (alphas.real**2 + alphas.imag**2).sum(axis=1)
    nu = float(np.abs(squares - 1).max()) + _gamma(2 * d) * float(squares.max())
    r = schmidt * (2 / math.sqrt(d) + schmidt)
    lift = 1 / (1 - _gamma(2 * d**4 + 8))
    return tuple(b * lift if math.isfinite(b) else math.inf for b in (r, r * (1 + nu) + nu / d))


def suite_mes(d: int, tol: float, rng: random.Random) -> list[VerificationReport]:
    """Every per-basis row reports a bound proved by
    :func:`_closed_form_bounds` (gram, completeness, schmidt) or derived
    from it by :func:`_reduced_bounds` (reduced, random_projection), each
    row the column of its check in the bounds of the d+1 bases u(q, p) of
    (b, b).  Those are setup: each (d^2, d^2) stack is built once for its
    bounds, and dropped before the next one is built."""
    # the first draws of the stream: 200 real parts, then 200 imaginary parts
    draws = _normal(rng, 2, 200, d)
    alphas = draws[0] + 1j * draws[1]
    alphas /= np.linalg.norm(alphas, axis=1, keepdims=True)

    def bounds(label):
        """The bounds of the basis of (label, label), one per row of
        ``checks``, in its order."""
        stack = me.mes_stack(d, label, label)
        gram, schmidt, _ = _closed_form_bounds(d, stack, *me._mes_table(d, label, label))
        reduced, projection = _reduced_bounds(d, schmidt, alphas)
        return gram, reduced, schmidt, gram, projection

    checks = [
        ("mes.gram", "b'=b, all b"),
        ("mes.reduced", "identity/d both particles"),
        ("mes.schmidt", "all coefficients 1/sqrt(d)"),
        ("mes.completeness", "sum of projectors"),
        ("mes.random_projection", "200 states"),
    ]
    table = [bounds(label) for label in BasisLabel.all_labels(d)]
    per_basis = [(*check, lambda i=i: [b[i] for b in table]) for i, check in enumerate(checks)]

    def negative_controls():
        # 20 states, each d*d real parts then d*d imaginary parts; a NaN is
        # not accepted
        draws = _normal(rng, 20, 2, d * d)
        vecs = draws[:, 0] + 1j * draws[:, 1]
        rhos = reduced_operators((vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).reshape(-1, d, d))
        dev = np.maximum(*(np.abs(rho - np.eye(d) / d).max(axis=(1, 2)) for rho in rhos))
        return [np.count_nonzero(dev < tol) / 20.0]

    def universal():
        states = [me._universal_amplitudes(d, label) for label in BasisLabel.all_labels(d)]
        return (1.0 - abs(np.vdot(a, b)) for a, b in combinations(states, 2))

    entries = [
        ("mes.negative_controls", "20 random states", negative_controls),
        ("mes.universal", "all d+1 bases", universal),
    ]
    if d == 3:
        entries.append(("mes.relabeling", "worked 3-level example", _relabeling_errors))
    return _rows(d, tol, per_basis + entries)


def _relabeling_errors():
    """Worked 3-level relabeling: unitary entries and the mapped pair state."""
    s = 1 / np.sqrt(2)
    v = [
        Ket(np.array([s, s, 0.0], dtype=complex)),
        Ket(np.array([s, -s, 0.0], dtype=complex)),
        Ket.basis(3, 2),
    ]
    expected_u = np.array([[s, s, 0.0], [s, -s, 0.0], [0.0, 0.0, 1.0]])
    rel = me.build_relabeling(v, [0, 1, 2])
    yield np.abs(rel.u.matrix - expected_u).max()

    # the pair sum_n |n>|v_n> / sqrt(3) as a 3 x 3 matrix with rows v_n;
    # u acts on particle 2
    pair = np.array([vec.amplitudes for vec in v]) / np.sqrt(3)
    mapped = pair @ rel.u.matrix.T
    diagonal = np.eye(3) / np.sqrt(3)
    yield 1.0 - abs(np.vdot(diagonal, mapped))

    w = np.exp(2j * np.pi / 3)
    expected_f = np.array(
        [
            [(1 + w) / 2, (1 - w) / 2, 0.0],
            [(1 - w) / 2, (1 + w) / 2, 0.0],
            [0.0, 0.0, w**2],
        ]
    )
    f = me.diagonalizer_for(v, [1.0, w, w**2])
    yield np.abs(f.matrix - expected_f).max()
    # conjugating the diagonalizer into the relabeled frame gives the clock
    conj = rel.u.matrix @ f.matrix @ rel.u.matrix.conj().T
    yield np.abs(conj - sw.clock_z(3).matrix).max()


# -- collective-coordinates suite ----------------------------------------------


def _hop_errors(d: int, src: np.ndarray, exponents: np.ndarray, rows, hops, plus: bool = False) -> np.ndarray:
    """Per start row q*d + p of ``rows``, 0.0 iff the exact word map (src,
    exponents), one (n,) map for every row or one per row, sends the minus
    (or, with ``plus``, the plus) lattice state of (q, p) to w^phase times
    the state of (q', p'), with (q', p', phase) the row's symbolic hop in
    ``hops``; 1.0 otherwise.

    By :func:`collective._point_table`, whose base is 0, the state of (q, p)
    is w^(p slope) / sqrt d where fixed = q.  Its image w^exponents v[src]
    is the hopped state iff, exactly, fixed[src] = q where fixed = q' and
    nowhere else, and there exponents + p slope[src] - phase - p' slope = 0
    mod d: integers only, no d^2 x d^2 matrix.
    """
    _, fixed, _, slope = co._point_table(d, plus)
    q, p = np.divmod(np.asarray(rows)[:, None], d)
    q2, p2, phase = np.array([(h.point.q, h.point.p, h.phase_exponent) for h in hops]).T[:, :, None]
    landed = ((fixed[src] == q) == (fixed == q2)).all(axis=1)
    # the d indices where fixed = q', so the phases are reduced there only;
    # a q' off the lattice has no support, and ``landed`` fails it
    on = np.argsort(fixed, kind="stable").reshape(d, d)[q2[:, 0] % d]
    shape = (len(on), d * d)
    src, exponents = (np.take_along_axis(np.broadcast_to(a, shape), on, axis=1) for a in (src, exponents))
    residues = (exponents + p * slope[src] - phase - p2 * slope[on]) % d
    return np.where(landed & (residues == 0).all(axis=1), 0.0, 1.0)


def _point_basis_bounds(d: int) -> tuple[float, float]:
    """Bounds (gram, modulus) on both point bases of d, once each is shown
    to equal its closed form of :func:`collective._point_table` entry for
    entry by :func:`_closed_form_bounds`; (1.0, 1.0) if either differs from
    it anywhere, by a NaN, a phase or a row order.

    ``gram`` bounds ||P P^+ - I||_2 of each basis P, and so every entry of
    conj(P) P^T - I (collective.point_bases).  ``modulus`` bounds every
    entry of either reduced operator of every point state minus I/d
    (collective.point_mes), and every | |<minus|plus>| - 1/d | over a minus
    and a plus state (collective.conjugate_overlap).  Both bound the exact
    values of the float stacks, so no row can read below them.

    Modulus.  Each support is the graph of a bijection n1 <-> n2, so the
    d x d amplitude matrix M of a point state holds one t_k in each row and
    each column, and both M M^+ and (M^+ M)^T are diag(|t_k|^2) over its
    entries.  A minus and a plus support, nc = q and nr = q', meet in one
    point, so the overlap of their states has modulus |t_a| |t_b|.
    With mu of :func:`_omega_table`, every |t_k|^2 and every |t_a| |t_b|
    lies within mu / d of 1/d.  The few float steps from mu, the division
    by d among them, are covered by 1/(1 - gamma_N), N = 2 d^2 + 8.
    """
    gram = 0.0
    for plus in (True, False):
        bound, _, exact = _closed_form_bounds(d, co.point_basis(d, plus), *co._point_table(d, plus))
        if not exact:
            return 1.0, 1.0
        gram = max(gram, bound)
    lift = 1 / (1 - _gamma(2 * d * d + 8))
    return gram, _omega_table(d)[1] / d * lift


def suite_collective(d: int, tol: float, rng: random.Random) -> list[VerificationReport]:
    w = sw.omega_powers(d)
    h = (d + 1) // 2
    nc, nr = co._collective_index(d)
    plus = co.point_basis(d, True)
    cb_elements = me.mes_stack(d, CB, CB)
    gram, modulus = _point_basis_bounds(d)

    def index_maps():
        for n1 in range(d):
            for n2 in range(d):
                idx = co.particle_to_collective(d, n1, n2)
                ok = (
                    co.collective_to_particle(d, idx.nc, idx.nr) == (n1, n2)
                    and (idx.nc + idx.nr) % d == n1
                    and (idx.nc - idx.nr) % d == n2
                    and (idx.nc, idx.nr) == (nc[n1 * d + n2], nr[n1 * d + n2])
                )
                yield 0.0 if ok else 1.0

    def permutation():
        # the permutation's source map and the collective index nc*d + nr
        # must invert each other exactly
        flat, forward, inverse = np.arange(d * d), nc * d + nr, co._particle_index(d)
        ok = np.array_equal(forward[inverse], flat) and np.array_equal(inverse[forward], flat)
        return [0.0 if ok else 1.0]

    def map_errors(words, src, exponents, powers=0):
        """Per word, 0.0 iff its exact map is (src, exponents) times w^power."""
        got_src, got_exp = co._word_maps(d, words)
        same = (got_src == src).all(axis=1)
        phased = ((got_exp - exponents - np.reshape(powers, (-1, 1))) % d == 0).all(axis=1)
        return np.where(same & phased, 0.0, 1.0)

    def operator_factorization():
        # Z|n> = w^n |n> and X|n> = |n+1> on one particle, the other untouched
        n1, n2 = np.divmod(np.arange(d * d), d)
        words = [[("Zr", 1), ("Zc", 1)], [("Zr", d - 1), ("Zc", 1)]]
        words += [[("Xr", h), ("Xc", h)], [("Xr", d - h), ("Xc", h)]]
        src = [n1 * d + n2, n1 * d + n2, (n1 - 1) % d * d + n2, n1 * d + (n2 - 1) % d]
        return map_errors(words, src, [n1, n2, 0 * n1, 0 * n1])

    def operator_algebra():
        # ZX = w XZ for each mode, the cross pairs commute, and G^d is the
        # identity (d factors of power 1, since a power is reduced mod d)
        pairs = [("Zc", "Xc"), ("Zr", "Xr"), ("Xc", "Zr"), ("Xr", "Zc"), ("Xc", "Xr"), ("Zc", "Zr")]
        words = [[(a, 1), (b, 1)] for a, b in pairs] + [[(s, 1)] * d for s in co.COLLECTIVE_GENERATORS]
        expected = [[(b, 1), (a, 1)] for a, b in pairs] + [[] for _ in co.COLLECTIVE_GENERATORS]
        return map_errors(words, *co._word_maps(d, expected), [1, 1] + [0] * 8)

    def cb_mes_factorization():
        for q in range(d):
            for p in range(d):
                overlap = np.vdot(plus[q * d + p], cb_elements[(2 * q) % d * d + p])
                yield abs(overlap - w[(-q * p) % d])

    def point_translation():
        # Zc^(d-p) Xr^q takes the plus state of (0, 0) to that of (q, p), and
        # Xc^q Zr^(d-p) the minus state, with phase 1; one stack of maps per
        # word form for a block of points k = q*d + p.  Each int64 (points,
        # d^2) array of a block holds under 2^14 values, 128 KiB: below
        # glibc's default mmap threshold, so a cold run does not map fresh
        # pages for every temporary
        for block in _blocks(d * d, 2 * d * d):
            points = range(d * d)[block]
            hops = [co.HopResult(co.PhasePoint(*divmod(k, d)), 0) for k in points]
            words = [[("Zc", d - k % d), ("Xr", k // d)] for k in points]
            yield from _hop_errors(d, *co._word_maps(d, words), [0] * len(points), hops, plus=True)
            words = [[("Xc", k // d), ("Zr", d - k % d)] for k in points]
            yield from _hop_errors(d, *co._word_maps(d, words), [0] * len(points), hops)

    def local_action_shift():
        # the array cores, so a non-finite state fails the row with inf
        universal = me._universal_amplitudes(d, CB)
        maps = co._word_maps(d, [[("X", 2)]] * 2, co.SINGLE_GENERATORS)
        shifted_1, shifted_2 = co._local_images(np.stack([universal] * 2), [1, 2], *maps)
        return (
            1.0 - abs(np.vdot(plus[1 * d + 0], shifted_1)),
            1.0 - abs(np.vdot(plus[(d - 1) * d + 0], shifted_2)),
            _reduced_deviation(shifted_1),
            _reduced_deviation(shifted_2),
        )

    def local_action_random():
        words, rows, particles = [], [], []
        for _ in range(50):
            words.append(_random_word(rng, co.SINGLE_GENERATORS, -d, d + 1, (1, 4)))
            rows.append(rng.randrange(d * d))
            particles.append(rng.randrange(1, 3))
        # the array cores, one pass over the stack: its worst deviation is
        # the worst image's, and a non-finite image fails the row with inf
        maps = co._word_maps(d, words, co.SINGLE_GENERATORS)
        return [_reduced_deviation(co._local_images(cb_elements[rows], particles, *maps))]

    def hop_example():
        # one exact map serves all d^2 points
        word = co.parse_word("Xc^2 Xr^6")
        rows = range(d * d)
        hops = [co._hop(d, *divmod(row, d), word) for row in rows]
        for row, sym in zip(rows, hops):
            q, p = divmod(row, d)
            expected = sym.point == co.PhasePoint((q + 2) % d, p) and sym.phase_exponent == (6 * p) % d
            yield 0.0 if expected else 1.0
        yield from _hop_errors(d, *co._word_map(d, word), rows, hops)

    def hop_random():
        words, rows = [], []
        for _ in range(100):
            words.append(_random_word(rng, co.COLLECTIVE_GENERATORS, -9, 10, (0, 5)))
            rows.append(rng.randrange(d) * d + rng.randrange(d))
        hops = [co._hop(d, *divmod(row, d), word) for word, row in zip(words, rows)]
        return _hop_errors(d, *co._word_maps(d, words), rows, hops)

    entries = [
        ("collective.index_maps", "exhaustive", index_maps),
        ("collective.permutation", "", permutation),
        ("collective.operator_factorization", "", operator_factorization),
        ("collective.operator_algebra", "", operator_algebra),
        ("collective.point_bases", "both grams", lambda: [gram]),
        ("collective.point_mes", "", lambda: [modulus]),
        ("collective.conjugate_overlap", "modulus 1/d", lambda: [modulus]),
        ("collective.cb_mes_factorization", "phase -qp", cb_mes_factorization),
        ("collective.point_translation", "", point_translation),
        ("collective.local_action_shift", "doubled shift", local_action_shift),
        ("collective.local_action_random", "50 words", local_action_random),
        ("collective.hop_example", "Xc^2 Xr^6", hop_example),
        ("collective.hop_random", "100 words", hop_random),
    ]
    return _rows(d, tol, entries)


# -- line-state suite -----------------------------------------------------------


def suite_lines(d: int, tol: float, factored) -> list[VerificationReport]:
    """One row per line: rank-1 factorization with the predicted labels.

    ``factored`` is :func:`lines._factor_lines` of :func:`lines.all_lines`,
    made by :func:`run_suites` as setup outside every row.  Each row reports
    its line's error, 1.0 unless its matched particle-2 label is the
    predicted one, and for a vertical line the largest deviation of its
    state from |m>|m>."""
    rows, labels = li._line_tables(d)
    label_ok = (factored.found == labels).tolist()
    # the cb pencil, the first d lines, is the d vertical lines
    vertical = li._line_sums(li._summed_basis(d, "standard"), rows[:d])
    entries = []
    for i, (line, report) in enumerate(zip(li.all_lines(d), factored.reports)):
        errors = [report.max_error, 0.0 if label_ok[i] else 1.0]
        if line.b.is_cb:
            e = np.eye(d)[line.m]
            errors.append(np.abs(vertical[i] - np.outer(e, e).ravel()).max())
        entries.append(("line.factorization", f"b={line.b} m={line.m}", lambda errors=errors: errors))
    return _rows(d, tol, entries)


# -- driver ---------------------------------------------------------------------


def run_suites(
    dims: list[int],
    suite: str = "all",
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> list[VerificationReport]:
    """The rows of ``suite`` for each d of ``dims``, in order.  Every input
    is validated before any suite runs: no dimension, a string of them, a
    negative seed, or a seed that :func:`_integer` refuses raises, as the
    CLI does."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    validate_tolerance(tol)
    if isinstance(dims, (str, bytes, bytearray)):
        # its items are characters or bytes, not the dimension it spells
        raise InvalidDimension(f"dims={dims!r} must be an iterable of dimensions, not a string")
    dims = list(dims)
    if not dims:
        raise ValueError("no dimension to verify")
    for d in dims:
        sw.validate_dimension(d)
    seed = _integer(seed)
    if seed < 0:
        raise ValueError(f"seed {seed} must be non-negative")
    rows: list[VerificationReport] = []
    for d in dims:
        rng = random.Random(seed)
        # the lines are factored once, as setup outside every row, for both
        # the mub and the lines suite; only the lines suite reads the reports
        factored = (
            li._factor_lines(d, li.all_lines(d), tol, "standard", suite != "mub")
            if suite in ("all", "mub", "lines")
            else None
        )
        if suite in ("all", "mub"):
            rows += suite_mub(d, tol, factored)
        if suite in ("all", "mes"):
            rows += suite_mes(d, tol, rng)
        if suite in ("all", "collective"):
            rows += suite_collective(d, tol, rng)
        if suite in ("all", "lines"):
            rows += suite_lines(d, tol, factored)
    return rows
