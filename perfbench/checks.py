"""Output checks, run outside every timed region.

Each check returns a list of problems; an empty list means the output is
correct.  The expected values come from the paper's statements, recomputed
here with plain numpy, not from the package under test.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-10

MUB_ROWS = [
    ("mub.count", ""),
    ("mub.orthonormal", ""),
    ("mub.unbiased", ""),
    ("mub.eigenrelation", ""),
    ("mub.clock_shift_algebra", ""),
    ("mub.lines_family_match", ""),
]
MES_ROWS = [
    ("mes.gram", "b'=b, all b"),
    ("mes.reduced", "identity/d both particles"),
    ("mes.schmidt", "all coefficients 1/sqrt(d)"),
    ("mes.completeness", "sum of projectors"),
    ("mes.random_projection", "200 states"),
    ("mes.negative_controls", "20 random states"),
    ("mes.universal", "all d+1 bases"),
]
COLLECTIVE_ROWS = [
    ("collective.index_maps", "exhaustive"),
    ("collective.permutation", ""),
    ("collective.operator_factorization", ""),
    ("collective.operator_algebra", ""),
    ("collective.point_bases", "both grams"),
    ("collective.point_mes", ""),
    ("collective.conjugate_overlap", "modulus 1/d"),
    ("collective.cb_mes_factorization", "phase -qp"),
    ("collective.point_translation", ""),
    ("collective.local_action_shift", "doubled shift"),
    ("collective.local_action_random", "50 words"),
    ("collective.hop_example", "Xc^2 Xr^6"),
    ("collective.hop_random", "100 words"),
]
LINE_CHECK = "line.factorization"
CHECK_NAMES = [name for name, _ in MUB_ROWS + MES_ROWS + COLLECTIVE_ROWS] + [LINE_CHECK]
SUITE_OF_PREFIX = {"mub": "mub", "mes": "mes", "collective": "collective", "line": "lines"}


def basis_labels(d: int) -> list[str]:
    return ["cb"] + [str(b) for b in range(d)]


def expected_verify_keys(d: int) -> list[tuple[str, str]]:
    """The 6 + 7 + 13 + d(d+1) (check, params) rows of ``verify --d d``
    (plus the worked relabeling row that only d=3 has)."""
    mes = MES_ROWS + ([("mes.relabeling", "worked 3-level example")] if d == 3 else [])
    lines = [(LINE_CHECK, f"b={b} m={m}") for b in basis_labels(d) for m in range(d)]
    return MUB_ROWS + mes + COLLECTIVE_ROWS + lines


def check_verify_report(rc: int, payload: dict | None, d: int) -> list[str]:
    """Exit code 0, every row passing, and exactly the expected row keys."""
    if rc != 0:
        return [f"verify exited {rc}"]
    if not isinstance(payload, dict):
        return ["verify report missing or not a JSON object"]
    rows = payload.get("rows", [])
    problems = []
    keys = sorted((r.get("check"), r.get("params")) for r in rows)
    if keys != sorted(expected_verify_keys(d)):
        problems.append(f"row keys differ from the {len(expected_verify_keys(d))} expected")
    for r in rows:
        err = r.get("max_error")
        if r.get("pass") is not True or not (isinstance(err, float) and err < TOL):
            problems.append(f"row {r.get('check')} {r.get('params')} failed")
        if r.get("d") != d:
            problems.append(f"row {r.get('check')} has d={r.get('d')}")
    if payload.get("all_pass") is not True:
        problems.append("all_pass is not true")
    return problems


def expected_factor2(d: int, b: int | None, m: int) -> tuple[str, int]:
    """Particle-2 factor label of the line (b, m): (cb, m) for the vertical
    line, else (b/4, m/2) mod d."""
    if b is None:
        return "cb", m % d
    return str(b * pow(4, -1, d) % d), m * pow(2, -1, d) % d


# -- generated bases ------------------------------------------------------------


def _unit_gram_error(vectors: np.ndarray) -> float:
    gram = vectors.conj() @ vectors.T
    return float(np.abs(gram - np.eye(len(vectors))).max())


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _amplitudes(rows: list[list[str]], first: int, dim: int) -> np.ndarray:
    values = np.array([row[first:] for row in rows], dtype=float)
    if values.shape[1] != 2 * dim:
        raise ValueError(f"expected {2 * dim} amplitude columns, got {values.shape[1]}")
    return values[:, :dim] + 1j * values[:, dim:]


def check_mub_csv(path: Path, d: int) -> list[str]:
    """d+1 orthonormal bases with every cross-basis overlap of modulus 1/sqrt(d)."""
    try:
        header, rows = _read_csv(path)
        vecs = _amplitudes(rows, 2, d)
        labels = [(row[0], int(row[1])) for row in rows]
    except (OSError, ValueError, IndexError) as exc:
        return [f"gen-mub csv unreadable: {exc}"]
    if header[:2] != ["b", "m"] or labels != [(b, m) for b in basis_labels(d) for m in range(d)]:
        return ["gen-mub rows are not the labels cb, 0..d-1 times m = 0..d-1"]
    stacks = vecs.reshape(d + 1, d, d)
    problems = []
    gram = max(_unit_gram_error(s) for s in stacks)
    if not gram < TOL:
        problems.append(f"gen-mub Gram error {gram:.3e}")
    overlaps = np.abs(np.einsum("aik,bjk->abij", stacks.conj(), stacks))
    pairs = ~np.eye(d + 1, dtype=bool)
    unbiased = float(np.abs(overlaps[pairs] - 1 / math.sqrt(d)).max())
    if not unbiased < TOL:
        problems.append(f"gen-mub overlap error {unbiased:.3e}")
    return problems


def _check_mes(vecs: np.ndarray, points: list[tuple[int, int]], d: int, what: str) -> list[str]:
    if points != [(q, p) for q in range(d) for p in range(d)]:
        return [f"{what} points are not the d x d grid in order"]
    problems = []
    gram = _unit_gram_error(vecs)
    if not gram < TOL:
        problems.append(f"{what} Gram error {gram:.3e}")
    mats = vecs.reshape(d * d, d, d)
    rho1 = mats @ mats.conj().transpose(0, 2, 1)
    rho2 = mats.conj().transpose(0, 2, 1) @ mats
    target = np.eye(d) / d
    reduced = float(max(np.abs(rho1 - target).max(), np.abs(rho2 - target).max()))
    if not reduced < TOL:
        problems.append(f"{what} reduced-density error {reduced:.3e}")
    return problems


def check_mes_json(path: Path, d: int, b: str, b_prime: str) -> tuple[list[str], np.ndarray | None]:
    """Orthonormal, every element maximally entangled, labels as requested."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        states = data["states"]
        vecs = np.array(
            [np.asarray(s["ket"]["re"]) + 1j * np.asarray(s["ket"]["im"]) for s in states]
        )
        points = [(s["q"], s["p"]) for s in states]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"gen-mes json unreadable: {exc}"], None
    if (data.get("d"), data.get("b"), data.get("b_prime")) != (d, b, b_prime):
        return ["gen-mes json labels differ from the request"], None
    if vecs.shape != (d * d, d * d):
        return [f"gen-mes json has shape {vecs.shape}"], None
    return _check_mes(vecs, points, d, "gen-mes json"), vecs


def check_mes_csv(path: Path, d: int, b: str, b_prime: str, reference: np.ndarray | None) -> list[str]:
    """As :func:`check_mes_json`, and equal to the JSON amplitudes to 1e-12."""
    try:
        _, rows = _read_csv(path)
        vecs = _amplitudes(rows, 4, d * d)
        points = [(int(row[2]), int(row[3])) for row in rows]
    except (OSError, ValueError, IndexError) as exc:
        return [f"gen-mes csv unreadable: {exc}"]
    if any((row[0], row[1]) != (b, b_prime) for row in rows):
        return ["gen-mes csv labels differ from the request"]
    problems = _check_mes(vecs, points, d, "gen-mes csv")
    if reference is not None and reference.shape == vecs.shape:
        diff = float(np.abs(vecs - reference).max())
        if not diff < 1e-12:
            problems.append(f"gen-mes csv and json differ by {diff:.3e}")
    return problems
