"""Command-line front end: generate basis families, verify them, hop the
lattice, and tabulate line-state factorizations.

Exit codes: 0 success / all checks passed, 1 verification failure, a
generated state that fails its unit-norm check (``error:`` on stderr, nothing
written) or a reader that closed stdout early (nothing on stderr), 2 usage
error.  Report output is deterministic for a fixed
invocation: rows come in a fixed order, floats are printed with 15
significant digits, and timing is only included on request.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .collective import HopResult, format_word, hop, hop_dense, hop_trajectory, parse_word
from .errors import (
    InvalidDimension,
    InvalidLabel,
    InvalidTolerance,
    WordParseError,
)
from .lines import line_factor_table
from .mes import mes_stack
from .schwinger import BasisLabel, mub_stack, validate_dimension
from .states import DEFAULT_TOL, _check_unit_rows, validate_tolerance
from .verify import SUITES, run_suites

TOL_ENV_VAR = "MESPHASE_TOL"
DEFAULT_DIMS = [3, 5, 7]


def _fmt(x: float) -> str:
    return f"{x:.15g}"


class _CannotWrite(Exception):
    """``--out`` could not be opened or written (exit 2)."""


# --out goes through a 1 MiB buffer.  The default 8 KiB one writes the 19 MB
# gen-mes JSON at d=23 in 2117 write calls and 19.8 ms, 1 MiB in 19 calls and
# 15.7 ms; its 12 MB CSV in 1059 calls and 13.2 ms against 12 and 9.2 ms
# (best of 7, one 2-vCPU VM; 4 MiB gains nothing more)
_OUT_BUFFER = 1 << 20


def _emit(chunks: list[str], out: str | None) -> None:
    """Write the text chunks to ``out``, or to stdout without it.  Callers
    pass a finished list, so a run that fails while formatting never opens
    (and truncates) ``out``.  An empty ``out`` names no file: it cannot be
    opened, as a directory cannot."""
    if out is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out, "w", encoding="utf-8", buffering=_OUT_BUFFER) as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise _CannotWrite(f"cannot write {out}: {exc.strerror or exc}") from exc


def _csv_field(value):
    """A CSV cell: bools as true/false, floats as :func:`_fmt` text."""
    if isinstance(value, bool):
        return str(value).lower()
    return _fmt(value) if isinstance(value, float) else value


def _write(args: argparse.Namespace, payload: dict, header: list[str], rows: list[list]) -> None:
    """Emit a report as indented JSON of ``payload``, or as CSV of ``header``
    and ``rows`` with every cell through :func:`_csv_field`."""
    if args.format == "json":
        _emit([json.dumps(payload, indent=2), "\n"], args.out)
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_field(v) for v in row] for row in rows)
    _emit([buf.getvalue()], args.out)


# -- basis serialization ---------------------------------------------------------
#
# gen-mub and gen-mes write up to a million floats, but a basis holds only a
# few thousand distinct ones (sums of d-th roots of unity over sqrt d), so the
# text of each distinct value is made once and gathered.  Each writer returns
# its document as a list of text chunks for :func:`_emit`.


def _json_float(x: float) -> str:
    """json's text for one float: its repr when finite, else NaN/Infinity."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


# Fibonacci hashing: the top bits of bits * 2^64/phi (mod 2^64) pick the slot
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _distinct_codes(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(bits, return_inverse=True)`` for a 1-d int64 array: the
    sorted distinct keys, and each element's index among them.  The keys come
    from a sort; the codes from a linear-probing table of key indices, at
    most half full, built and probed with whole-array steps."""
    ordered = np.sort(bits)
    new = np.ones(ordered.size, dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    keys = ordered[new]
    log2 = max(1, (2 * keys.size - 1).bit_length())
    mask = (1 << log2) - 1

    def home(x: np.ndarray) -> np.ndarray:
        return ((x.view(np.uint64) * _GOLDEN) >> np.uint64(64 - log2)).astype(np.intp)

    table = np.full(mask + 1, -1, dtype=np.intp)
    pending, slot = np.arange(keys.size), home(keys)
    while pending.size:
        # claim the free slots (one of several keys aiming at a slot wins);
        # a key that finds its slot taken moves on to the next one
        free = table[slot] < 0
        table[slot[free]] = pending[free]
        lost = table[slot] != pending
        pending, slot = pending[lost], (slot[lost] + 1) & mask

    slot = home(bits)
    codes = table[slot]
    miss = np.flatnonzero(keys[codes] != bits)
    while miss.size:
        slot[miss] = (slot[miss] + 1) & mask
        codes[miss] = table[slot[miss]]
        miss = miss[keys[codes[miss]] != bits[miss]]
    return keys, codes


def _float_index(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_distinct_codes` of the float64 bits of ``values``: the keys as
    floats, and the codes in the shape of ``values``, except that complex
    (..., n) ``values`` give (..., 2, n) codes, the re parts then the im
    parts."""
    pair = np.iscomplexobj(values)
    floats = np.ascontiguousarray(values, dtype=np.complex128 if pair else np.float64)
    keys, codes = _distinct_codes(floats.reshape(-1).view(np.int64))
    codes = codes.reshape(floats.shape + ((2,) if pair else ()))
    if pair:
        # each row's interleaved (re, im) codes, regrouped: re codes, then im codes
        codes = np.moveaxis(codes, -1, -2)
    # kept in the smallest unsigned dtype that counts the keys (uint16 for a
    # basis up to d=31, 1.1 MB at d=23 where intp takes 4.5 MB)
    return keys.view(np.float64), codes.astype(np.min_scalar_type(keys.size), order="C")


def _float_texts(index: tuple[np.ndarray, np.ndarray], fmt) -> tuple[np.ndarray, np.ndarray]:
    """The texts ``fmt(x)`` of the keys of a :func:`_float_index` as an
    object array, and its codes, so that ``texts[codes]`` holds the text of
    every float.  The two writers' formats run as ``map`` over C-level
    formatters: :func:`_json_float` as ``float.__repr__`` (its NaN/Infinity
    texts put back after), :func:`_fmt` as ``format(x, ".15g")``.  Any other
    ``fmt`` is called once per distinct bit pattern (not per distinct value:
    -0.0 == 0.0, but their text differs)."""
    keys, codes = index
    values = keys.tolist()
    if fmt is _json_float:
        texts = list(map(float.__repr__, values))
        for k in np.flatnonzero(~np.isfinite(keys)).tolist():
            texts[k] = _json_float(values[k])
    elif fmt is _fmt:
        texts = list(map(format, values, [".15g"] * len(values)))
    else:
        texts = list(map(fmt, values))
    return np.array(texts, dtype=object), codes


# the placeholder string of the JSON templates, which json prints as '"@"'
_SLOT = "@"


def _json_with_kets(
    doc: dict, names: tuple[str, ...], groups: list[list[tuple]], index: tuple[np.ndarray, np.ndarray]
) -> list[str]:
    """The chunks of ``json.dumps(full, indent=2) + "\\n"``, where full is
    ``doc`` with its j-th ``[_SLOT]`` list holding one state per int label
    tuple of ``groups[j]``: state k overall is the object
    ``{**dict(zip(names, labels)), "ket": {"dim": n, "re": amps[k].real.tolist(),
    "im": amps[k].imag.tolist()}}``, for the states ``amps`` of
    ``index = _float_index(amps)``.

    json prints ``doc`` and one placeholder state; each state's text is
    that state's, moved to the depth of its list, with the labels and float
    lists filled in."""
    texts, codes = _float_texts(index, _json_float)
    outer = (json.dumps(doc, indent=2) + "\n").split(f'"{_SLOT}"')
    # json starts each nested line with the indent of its depth, and puts
    # "," and a new line at that indent between the items of a list
    indent = outer[0][outer[0].rindex("\n") + 1:]
    item_sep = ",\n" + indent
    n = codes.shape[-1]
    stub = {**dict.fromkeys(names, _SLOT), "ket": {"dim": n, "re": [_SLOT], "im": [_SLOT]}}
    text = json.dumps(stub, indent=2).replace("\n", "\n" + indent)
    *heads, between, close = text.split(f'"{_SLOT}"')
    head = "%d".join(part.replace("%", "%%") for part in heads)
    float_sep = ",\n" + heads[-1][heads[-1].rindex("\n") + 1:]
    rows = iter(codes.reshape(-1, 2, n))
    chunks = []
    for part, group in zip(outer, groups):
        chunks.append(part)
        for k, labels in enumerate(group):
            re_codes, im_codes = next(rows)
            chunks += (
                item_sep if k else "",
                head % labels,
                float_sep.join(texts[re_codes].tolist()),
                between,
                float_sep.join(texts[im_codes].tolist()),
                close,
            )
    chunks.append(outer[-1])
    return chunks


def _csv_with_kets(
    columns: list[str], labels: list[tuple], index: tuple[np.ndarray, np.ndarray]
) -> list[str]:
    """The chunks of the CSV text of :func:`_write` under the header
    ``columns`` + re0.. + im0.., with rows ``[*labels[k], *re, *im]`` of
    amps[k] in ``_fmt`` floats, for the states ``amps`` of
    ``index = _float_index(amps)``.  No field needs quoting: labels are
    ``cb`` or integers, and ``_fmt`` text holds no comma, quote or
    newline."""
    texts, codes = _float_texts(index, _fmt)
    n = codes.shape[-1]
    header = columns + [f"re{k}" for k in range(n)] + [f"im{k}" for k in range(n)]
    chunks = [",".join(header), "\n"]
    for label, row in zip(labels, codes.reshape(len(codes), -1)):
        chunks += (",".join(map(str, label)), ",", ",".join(texts[row].tolist()), "\n")
    return chunks


def _seed(text: str) -> int:
    """The ``--seed`` type: a non-negative int; other text as ``type=int`` refuses it."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed {seed} must be non-negative")
    return seed


def _resolve_tol(args: argparse.Namespace) -> float:
    if getattr(args, "tol", None) is not None:
        return validate_tolerance(args.tol)
    env = os.environ.get(TOL_ENV_VAR)
    if env is not None:
        try:
            return validate_tolerance(float(env))
        except ValueError as exc:
            raise InvalidTolerance(f"{TOL_ENV_VAR}={env!r}: {exc}") from exc
    return DEFAULT_TOL


# -- subcommands ---------------------------------------------------------------


# the float index of the last gen-mes basis that passed its unit-norm check,
# {(d, label, label'): float index}: one entry, since a d has (d+1)^2 bases
_last_basis: dict = {}


def _checked_index(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The :func:`_float_index` of the gen-mub/gen-mes states ``amps`` once
    every state has unit norm; else None, with ``error:`` on stderr, so the
    command exits 1 before anything is written."""
    try:
        _check_unit_rows(amps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return _float_index(amps)


def _cmd_gen_mub(args: argparse.Namespace) -> int:
    d = validate_dimension(args.d)
    index = _checked_index(mub_stack(d).reshape(-1, d))
    if index is None:
        return 1
    labels = BasisLabel.all_labels(d)
    if args.format == "json":
        doc = {"d": d, "bases": [{"b": str(b), "states": [_SLOT]} for b in labels]}
        chunks = _json_with_kets(doc, ("m",), [[(m,) for m in range(d)]] * len(labels), index)
    else:
        chunks = _csv_with_kets(["b", "m"], [(b, m) for b in labels for m in range(d)], index)
    _emit(chunks, args.out)
    return 0


def _cmd_gen_mes(args: argparse.Namespace) -> int:
    d = validate_dimension(args.d)
    b = BasisLabel.parse(args.b, d)
    b_prime = BasisLabel.parse(args.b_prime, d)
    key = (d, b, b_prime)
    if key not in _last_basis:
        # drop the kept index before building another basis; the stack
        # itself is freed once it is indexed
        _last_basis.clear()
        index = _checked_index(mes_stack(d, b, b_prime))
        if index is None:
            return 1
        _last_basis[key] = index
    index = _last_basis[key]
    grid = [divmod(k, d) for k in range(d * d)]
    if args.format == "json":
        doc = {"d": d, "b": str(b), "b_prime": str(b_prime), "states": [_SLOT]}
        chunks = _json_with_kets(doc, ("q", "p"), [grid], index)
    else:
        rows = [(b, b_prime, q, p) for q, p in grid]
        chunks = _csv_with_kets(["b", "b_prime", "q", "p"], rows, index)
    _emit(chunks, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    tol = _resolve_tol(args)
    dims = args.d if args.d else list(DEFAULT_DIMS)
    rows = run_suites(dims, args.suite, tol, args.seed)
    all_pass = all(r.passed for r in rows)
    payload = {
        "tolerance": tol,
        "seed": args.seed,
        "suite": args.suite,
        "dims": dims,
        "rows": [
            {
                "check": r.check,
                "d": r.d,
                "params": r.params,
                "max_error": float(_fmt(r.max_error)),
                "pass": r.passed,
                **({"runtime_ms": round(r.runtime_ms, 3)} if args.timing else {}),
            }
            for r in rows
        ],
        "all_pass": all_pass,
    }
    header = ["check", "d", "params", "max_error", "pass"] + ["runtime_ms"] * args.timing
    table = [
        [r.check, r.d, r.params, r.max_error, r.passed] + [f"{r.runtime_ms:.3f}"] * args.timing
        for r in rows
    ]
    _write(args, payload, header, table)
    print(f"{sum(r.passed for r in rows)}/{len(rows)} checks passed (tol={_fmt(tol)})", file=sys.stderr)
    return 0 if all_pass else 1


def _hop_fields(step: HopResult) -> dict:
    return {"q": step.point.q, "p": step.point.p, "phase_exponent": step.phase_exponent}


def _cmd_hop(args: argparse.Namespace) -> int:
    d = validate_dimension(args.d)
    tol = _resolve_tol(args)
    factors = parse_word(args.word)
    start = (args.q % d, args.p % d)
    trajectory = hop_trajectory(d, start, factors)
    symbolic = hop(d, start, factors)
    dense, fidelity = hop_dense(d, start, factors)
    agree = dense == symbolic and abs(fidelity - 1.0) < tol
    payload = {
        "d": d,
        "word": format_word(factors),
        "start": {"q": start[0], "p": start[1]},
        "trajectory": [{"factor": f, **_hop_fields(step)} for f, step in trajectory],
        "symbolic": _hop_fields(symbolic),
        "dense": {**_hop_fields(dense), "fidelity": float(_fmt(fidelity))},
        "agree": agree,
    }
    header = ["stage", "factor", "q", "p", "phase_exponent", "fidelity", "agree"]
    rows = [
        [f"step{k}", f, *_hop_fields(step).values(), "", ""]
        for k, (f, step) in enumerate(trajectory)
    ]
    rows.append(["symbolic", format_word(factors), *_hop_fields(symbolic).values(), "", ""])
    rows.append(["dense", format_word(factors), *_hop_fields(dense).values(), fidelity, agree])
    _write(args, payload, header, rows)
    return 0 if agree else 1


def _cmd_lines(args: argparse.Namespace) -> int:
    d = validate_dimension(args.d)
    tol = _resolve_tol(args)
    realization = "alt" if args.alt_realization else "standard"
    table = line_factor_table(d, tol, realization)
    rows = [{**row, "max_error": float(_fmt(row["max_error"]))} for row in table]
    payload = {"d": d, "realization": realization, "rows": rows}
    _write(args, payload, list(table[0]), [list(row.values()) for row in table])
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesphase",
        description=(
            "Generate and exactly verify maximally entangled bases, mutually "
            "unbiased bases, and phase-space line states for odd prime d."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats=("json", "csv"), tol=True) -> None:
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", metavar="FILE", default=None)
        if tol:
            p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("gen-mub", help="emit the d+1 unbiased bases")
    p.add_argument("--d", type=int, required=True)
    add_common(p, tol=False)
    p.set_defaults(func=_cmd_gen_mub)

    p = sub.add_parser("gen-mes", help="emit a d^2-element maximally entangled basis")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--b", default="cb", help="basis label for particle 1 ('cb' or 0..d-1)")
    p.add_argument("--b-prime", default="cb", dest="b_prime", help="basis label for particle 2")
    add_common(p, tol=False)
    p.set_defaults(func=_cmd_gen_mes)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "--d",
        type=int,
        action="append",
        default=None,
        help="dimension to check; repeatable (default: 3 5 7)",
    )
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--timing", action="store_true", help="include per-row runtime")
    add_common(p, formats=("csv", "json"))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hop", help="apply a collective operator word to a lattice point")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--word", default="", help="e.g. 'Xc^2 Xr^6 Zr^-1'")
    add_common(p, formats=("csv", "json"))
    p.set_defaults(func=_cmd_hop)

    p = sub.add_parser("lines", help="tabulate line-state factorizations")
    p.add_argument("--d", type=int, required=True)
    p.add_argument(
        "--alt-realization",
        action="store_true",
        help="sum the conjugate point family instead (exploratory; reported, not asserted)",
    )
    add_common(p, formats=("csv", "json"))
    p.set_defaults(func=_cmd_lines)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (InvalidDimension, InvalidLabel, InvalidTolerance, WordParseError, _CannotWrite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so that the
        # interpreter's flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
