"""Verification suites: every construction re-checked against its defining
property, one report row per check.

A row passes iff its measured worst-case error is below the configured
tolerance, so the command-line exit code reduces to "all rows pass".  All
randomized rows draw from a seeded generator; identical invocations produce
identical reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import collective as co
from . import lines as li
from . import mes as me
from . import schwinger as sw
from .errors import FactorizationFailed, InvalidTolerance
from .schwinger import CB, BasisLabel
from .states import DEFAULT_TOL, Ket, is_mes, mes_deviation, reduced_operators

__all__ = ["VerificationReport", "run_suites", "validate_tolerance", "SUITES"]

SUITES = ("all", "mub", "mes", "collective", "lines")


@dataclass(frozen=True)
class VerificationReport:
    check: str
    d: int
    params: str
    max_error: float
    passed: bool
    runtime_ms: float


def validate_tolerance(tol: float) -> float:
    """A tolerance must be finite with 0 < tol < 1: the 0/1 flag rows report
    1.0 on failure and would pass at any larger tol."""
    if not (math.isfinite(tol) and 0.0 < tol < 1.0):
        raise InvalidTolerance(f"tolerance {tol!r} must be finite with 0 < tol < 1")
    return tol


def _worst(*errors: float) -> float:
    """The largest error, with NaN counted as +inf: builtin ``max(worst, nan)``
    returns ``worst``, so a NaN error would otherwise vanish and the row pass."""
    return max(math.inf if math.isnan(e) else e for e in errors)


def _reduced_deviation(stack: np.ndarray, d: int) -> float:
    """Largest deviation from identity/d of either reduced operator over a
    (n, d*d) stack of pair states."""
    target = np.eye(d) / d
    return _worst(
        *(np.abs(rho - target).max() for rho in reduced_operators(stack.reshape(-1, d, d)))
    )


def _projections(rhos: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """<a|rho|a> for every rho of an (n, d, d) stack and every row a of
    ``alphas``, shape (n, len(alphas)).

    Uses <a|rho|a> = sum_ij conj(a_i) a_j rho_ij, one matmul per stack, so
    the only temporary that grows with n is the (n, len(alphas)) result.
    """
    n, d, _ = rhos.shape
    outer = (alphas.conj()[:, :, None] * alphas[:, None, :]).reshape(-1, d * d)
    return rhos.reshape(n, d * d) @ outer.T


def _row(check: str, d: int, params: str, fn, tol: float) -> VerificationReport:
    start = time.perf_counter()
    err = float(fn())
    ms = (time.perf_counter() - start) * 1000.0
    return VerificationReport(check, d, params, err, err < tol, ms)


# -- basis-family suite -------------------------------------------------------


def suite_mub(d: int, tol: float) -> list[VerificationReport]:
    family = sw.mub_family(d)
    stacks = sw.mub_stack(d)
    rows = []

    def count_err() -> float:
        ok = len(family) == d + 1 and sum(len(b) for b in family) == d * (d + 1)
        return 0.0 if ok else 1.0

    rows.append(_row("mub.count", d, "", count_err, tol))
    rows.append(
        _row(
            "mub.orthonormal",
            d,
            "",
            lambda: _worst(
                *(np.abs(v.conj() @ v.T - np.eye(d)).max() for v in stacks)
            ),
            tol,
        )
    )
    rows.append(
        _row(
            "mub.unbiased",
            d,
            "",
            lambda: _worst(
                *(
                    np.abs(np.abs(stacks[i].conj() @ stacks[j].T) - 1 / np.sqrt(d)).max()
                    for i in range(d + 1)
                    for j in range(i + 1, d + 1)
                )
            ),
            tol,
        )
    )
    rows.append(
        _row(
            "mub.eigenrelation",
            d,
            "",
            lambda: _worst(
                *(sw.mub_eigen_residual(d, b, m) for b in range(d) for m in range(d))
            ),
            tol,
        )
    )

    def clock_shift_err() -> float:
        z = sw.clock_z(d).matrix
        x = sw.shift_x(d).matrix
        w = sw.omega_powers(d)[1]
        eye = np.eye(d)
        return _worst(
            np.abs(z @ x - w * (x @ z)).max(),
            np.abs(np.linalg.matrix_power(z, d) - eye).max(),
            np.abs(np.linalg.matrix_power(x, d) - eye).max(),
        )

    rows.append(_row("mub.clock_shift_algebra", d, "", clock_shift_err, tol))

    def lines_match_err() -> float:
        # the extraction keeps its own numerical rank gate; the configured
        # tolerance only judges the resulting fidelities
        try:
            rebuilt = li.mub_from_lines(d)
        except FactorizationFailed:
            return 1.0
        worst = 0.0
        for direct, extracted in zip(family, rebuilt):
            for s_direct, s_extracted in zip(direct, extracted):
                fid = abs(s_direct.vector.inner(s_extracted.vector))
                worst = _worst(worst, 1.0 - fid)
        return worst

    rows.append(_row("mub.lines_family_match", d, "", lines_match_err, tol))
    return rows


# -- maximally-entangled-basis suite -----------------------------------------


def suite_mes(d: int, tol: float, rng: np.random.Generator) -> list[VerificationReport]:
    rows = []
    stacks = [
        np.array([e.vector.amplitudes for e in me.mes_basis(d, label, label)])
        for label in BasisLabel.all_labels(d)
    ]

    rows.append(
        _row(
            "mes.gram",
            d,
            "b'=b, all b",
            lambda: _worst(
                *(np.abs(v.conj() @ v.T - np.eye(d * d)).max() for v in stacks)
            ),
            tol,
        )
    )
    rows.append(
        _row(
            "mes.reduced",
            d,
            "identity/d both particles",
            lambda: _worst(*(_reduced_deviation(v, d) for v in stacks)),
            tol,
        )
    )

    def schmidt_err() -> float:
        # the factors are computed too, as in schmidt_decompose, because
        # LAPACK's values-only path rounds differently; a non-finite amplitude
        # makes it give up on the whole stack
        try:
            return _worst(
                *(
                    np.abs(np.linalg.svd(v.reshape(-1, d, d))[1] - 1 / np.sqrt(d)).max()
                    for v in stacks
                )
            )
        except np.linalg.LinAlgError:
            return math.inf

    rows.append(_row("mes.schmidt", d, "all coefficients 1/sqrt(d)", schmidt_err, tol))

    def completeness_err() -> float:
        worst = 0.0
        for v in stacks:
            total = v.T @ v.conj()
            worst = _worst(worst, np.abs(total - np.eye(d * d)).max())
        return worst

    rows.append(_row("mes.completeness", d, "sum of projectors", completeness_err, tol))

    def random_projection_err() -> float:
        alphas = rng.normal(size=(200, d)) + 1j * rng.normal(size=(200, d))
        alphas /= np.linalg.norm(alphas, axis=1, keepdims=True)
        worst = 0.0
        for v in stacks:
            for rhos in reduced_operators(v.reshape(-1, d, d)):
                probs = _projections(rhos, alphas)
                worst = _worst(worst, np.abs(probs - 1 / d).max())
        return worst

    rows.append(
        _row("mes.random_projection", d, "200 states", random_projection_err, tol)
    )

    def negative_controls_err() -> float:
        accepted = 0
        for _ in range(20):
            vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
            if is_mes(Ket.normalized(vec), tol):
                accepted += 1
        return accepted / 20.0

    rows.append(
        _row("mes.negative_controls", d, "20 random states", negative_controls_err, tol)
    )

    def universal_err() -> float:
        states = [me.universal_state(d, label) for label in BasisLabel.all_labels(d)]
        worst = 0.0
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                worst = _worst(worst, 1.0 - abs(states[i].inner(states[j])))
        return worst

    rows.append(_row("mes.universal", d, "all d+1 bases", universal_err, tol))

    if d == 3:
        rows.append(
            _row("mes.relabeling", d, "worked 3-level example", _relabeling_err, tol)
        )
    return rows


def _relabeling_err() -> float:
    """Worked 3-level relabeling: unitary entries and the mapped pair state."""
    s = 1 / np.sqrt(2)
    v = [
        Ket(np.array([s, s, 0.0], dtype=complex)),
        Ket(np.array([s, -s, 0.0], dtype=complex)),
        Ket.basis(3, 2),
    ]
    expected_u = np.array([[s, s, 0.0], [s, -s, 0.0], [0.0, 0.0, 1.0]])
    rel = me.build_relabeling(v, [0, 1, 2])
    err = float(np.abs(rel.u.matrix - expected_u).max())

    pair = np.zeros(9, dtype=complex)
    for n in range(3):
        pair += np.kron(Ket.basis(3, n).amplitudes, v[n].amplitudes)
    pair /= np.sqrt(3)
    mapped = np.kron(np.eye(3), rel.u.matrix) @ pair
    diagonal = sum(
        np.kron(Ket.basis(3, n).amplitudes, Ket.basis(3, n).amplitudes)
        for n in range(3)
    ) / np.sqrt(3)
    err = _worst(err, 1.0 - abs(np.vdot(diagonal, mapped)))

    w = np.exp(2j * np.pi / 3)
    expected_f = np.array(
        [
            [(1 + w) / 2, (1 - w) / 2, 0.0],
            [(1 - w) / 2, (1 + w) / 2, 0.0],
            [0.0, 0.0, w**2],
        ]
    )
    f = me.diagonalizer_for(v, [1.0, w, w**2])
    err = _worst(err, float(np.abs(f.matrix - expected_f).max()))
    # conjugating the diagonalizer into the relabeled frame gives the clock
    conj = rel.u.matrix @ f.matrix @ rel.u.matrix.conj().T
    err = _worst(err, float(np.abs(conj - sw.clock_z(3).matrix).max()))
    return err


# -- collective-coordinates suite ----------------------------------------------


def suite_collective(
    d: int, tol: float, rng: np.random.Generator
) -> list[VerificationReport]:
    rows = []
    perm = co.collective_permutation(d).matrix
    ops = co.collective_ops(d)
    z = sw.clock_z(d).matrix
    x = sw.shift_x(d).matrix
    eye = np.eye(d)
    w = sw.omega_powers(d)
    h = (d + 1) // 2

    def index_maps_err() -> float:
        for n1 in range(d):
            for n2 in range(d):
                idx = co.particle_to_collective(d, n1, n2)
                if co.collective_to_particle(d, idx.nc, idx.nr) != (n1, n2):
                    return 1.0
                if (idx.nc + idx.nr) % d != n1 or (idx.nc - idx.nr) % d != n2:
                    return 1.0
        return 0.0

    rows.append(_row("collective.index_maps", d, "exhaustive", index_maps_err, tol))

    def permutation_err() -> float:
        ok_structure = (
            np.all(np.abs(perm.sum(axis=0) - 1) < tol)
            and np.all(np.abs(perm.sum(axis=1) - 1) < tol)
            and np.all((np.abs(perm) < tol) | (np.abs(perm - 1) < tol))
        )
        err = 0.0 if ok_structure else 1.0
        return _worst(err, np.abs(perm @ perm.conj().T - np.eye(d * d)).max())

    rows.append(_row("collective.permutation", d, "", permutation_err, tol))

    def factorization_err() -> float:
        z1, z2 = np.kron(z, eye), np.kron(eye, z)
        x1, x2 = np.kron(x, eye), np.kron(eye, x)
        powm = np.linalg.matrix_power
        return _worst(
            np.abs(z1 - ops.zr.matrix @ ops.zc.matrix).max(),
            np.abs(z2 - powm(ops.zr.matrix, d - 1) @ ops.zc.matrix).max(),
            np.abs(x1 - powm(ops.xr.matrix, h) @ powm(ops.xc.matrix, h)).max(),
            np.abs(x2 - powm(ops.xr.matrix, d - h) @ powm(ops.xc.matrix, h)).max(),
        )

    rows.append(
        _row("collective.operator_factorization", d, "", factorization_err, tol)
    )

    def algebra_err() -> float:
        worst = 0.0
        for xs, zs in ((ops.xc, ops.zc), (ops.xr, ops.zr)):
            worst = _worst(
                worst,
                np.abs(zs.matrix @ xs.matrix - w[1] * xs.matrix @ zs.matrix).max(),
            )
        for a, b in (
            (ops.xc, ops.zr),
            (ops.xr, ops.zc),
            (ops.xc, ops.xr),
            (ops.zc, ops.zr),
        ):
            worst = _worst(worst, np.abs(a.matrix @ b.matrix - b.matrix @ a.matrix).max())
        for s in (ops.xc, ops.zc, ops.xr, ops.zr):
            worst = _worst(
                worst,
                np.abs(np.linalg.matrix_power(s.matrix, d) - np.eye(d * d)).max(),
            )
        return worst

    rows.append(_row("collective.operator_algebra", d, "", algebra_err, tol))

    plus = co.point_basis(d, True)
    minus = co.point_basis(d, False)

    rows.append(
        _row(
            "collective.point_bases",
            d,
            "both grams",
            lambda: _worst(
                np.abs(plus.conj() @ plus.T - np.eye(d * d)).max(),
                np.abs(minus.conj() @ minus.T - np.eye(d * d)).max(),
            ),
            tol,
        )
    )
    rows.append(
        _row(
            "collective.point_mes",
            d,
            "",
            lambda: _worst(_reduced_deviation(plus, d), _reduced_deviation(minus, d)),
            tol,
        )
    )
    rows.append(
        _row(
            "collective.conjugate_overlap",
            d,
            "modulus 1/d",
            lambda: np.abs(np.abs(minus.conj() @ plus.T) - 1.0 / d).max(),
            tol,
        )
    )

    def cb_mes_factorization_err() -> float:
        elements = me.mes_basis(d, CB, CB)
        worst = 0.0
        for q in range(d):
            for p in range(d):
                element = elements[(2 * q) % d * d + p]
                overlap = np.vdot(plus[q * d + p], element.vector.amplitudes)
                worst = _worst(worst, abs(overlap - w[(-q * p) % d]))
        return worst

    rows.append(
        _row(
            "collective.cb_mes_factorization",
            d,
            "phase -qp",
            cb_mes_factorization_err,
            tol,
        )
    )

    def translation_err() -> float:
        worst = 0.0
        for q in range(d):
            for p in range(d):
                gen_plus = co.word_matrix(d, [("Zc", d - p), ("Xr", q)]) @ plus[0]
                gen_minus = co.word_matrix(d, [("Xc", q), ("Zr", d - p)]) @ minus[0]
                # measured phases are exactly 1 for both generator routes
                worst = _worst(
                    worst,
                    abs(np.vdot(plus[q * d + p], gen_plus) - 1.0),
                    abs(np.vdot(minus[q * d + p], gen_minus) - 1.0),
                )
        return worst

    rows.append(
        _row("collective.point_translation", d, "", translation_err, tol)
    )

    def local_shift_err() -> float:
        universal = me.universal_state(d, CB)
        shifted_1 = co.local_action(universal, 1, "X^2")
        shifted_2 = co.local_action(universal, 2, "X^2")
        return _worst(
            1.0 - abs(np.vdot(plus[1 * d + 0], shifted_1.amplitudes)),
            1.0 - abs(np.vdot(plus[(d - 1) * d + 0], shifted_2.amplitudes)),
            mes_deviation(shifted_1),
            mes_deviation(shifted_2),
        )

    rows.append(
        _row("collective.local_action_shift", d, "doubled shift", local_shift_err, tol)
    )

    def local_random_err() -> float:
        worst = 0.0
        elements = me.mes_basis(d, CB, CB)
        for _ in range(50):
            word = [
                (str(rng.choice(["X", "Z"])), int(rng.integers(-d, d + 1)))
                for _ in range(rng.integers(1, 4))
            ]
            state = elements[rng.integers(0, d * d)].vector
            moved = co.local_action(state, int(rng.integers(1, 3)), word)
            worst = _worst(worst, mes_deviation(moved))
        return worst

    rows.append(
        _row("collective.local_action_random", d, "50 words", local_random_err, tol)
    )

    def hop_example_err() -> float:
        worst = 0.0
        for q in range(d):
            for p in range(d):
                sym = co.hop(d, (q, p), "Xc^2 Xr^6")
                expected = (
                    sym.point == co.PhasePoint((q + 2) % d, p)
                    and sym.phase_exponent == (6 * p) % d
                )
                dense, fid = co.hop_dense(d, (q, p), "Xc^2 Xr^6")
                worst = _worst(
                    worst,
                    0.0 if expected else 1.0,
                    0.0 if dense == sym else 1.0,
                    1.0 - fid,
                )
        return worst

    rows.append(_row("collective.hop_example", d, "Xc^2 Xr^6", hop_example_err, tol))

    def hop_random_err() -> float:
        worst = 0.0
        for _ in range(100):
            word = [
                (str(rng.choice(co.COLLECTIVE_GENERATORS)), int(rng.integers(-9, 10)))
                for _ in range(rng.integers(0, 5))
            ]
            q, p = int(rng.integers(0, d)), int(rng.integers(0, d))
            sym = co.hop(d, (q, p), word)
            dense, fid = co.hop_dense(d, (q, p), word)
            worst = _worst(worst, 0.0 if dense == sym else 1.0, 1.0 - fid)
        return worst

    rows.append(_row("collective.hop_random", d, "100 words", hop_random_err, tol))
    return rows


# -- line-state suite -----------------------------------------------------------


def suite_lines(d: int, tol: float) -> list[VerificationReport]:
    """One row per line: rank-1 factorization with the predicted labels."""
    rows = []
    for line in li.all_lines(d):
        def line_err(line=line) -> float:
            rep = li.schmidt_inversion_check(d, line, tol)
            expected_b, expected_m = li.expected_factor2_label(d, line)
            label_ok = rep.factor2_b == expected_b and rep.factor2_m == expected_m
            err = _worst(rep.max_error, 0.0 if label_ok else 1.0)
            if line.b.is_cb:
                target = np.kron(
                    Ket.basis(d, line.m).amplitudes, Ket.basis(d, line.m).amplitudes
                )
                state = li.line_state(d, line).vector.amplitudes
                err = _worst(err, float(np.abs(state - target).max()))
            return err

        rows.append(
            _row(
                "line.factorization",
                d,
                f"b={line.b} m={line.m}",
                line_err,
                tol,
            )
        )
    return rows


# -- driver ---------------------------------------------------------------------


def run_suites(
    dims: list[int],
    suite: str = "all",
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> list[VerificationReport]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    validate_tolerance(tol)
    rows: list[VerificationReport] = []
    for d in dims:
        sw.validate_dimension(d)
        rng = np.random.default_rng(seed)
        if suite in ("all", "mub"):
            rows += suite_mub(d, tol)
        if suite in ("all", "mes"):
            rows += suite_mes(d, tol, rng)
        if suite in ("all", "collective"):
            rows += suite_collective(d, tol, rng)
        if suite in ("all", "lines"):
            rows += suite_lines(d, tol)
    return rows
