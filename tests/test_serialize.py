"""The gen-mub / gen-mes writers against the per-float path they replaced.

The oracle is the old serialization: ``json.dumps(..., indent=2)`` of the
``family_to_json`` / ``mes_basis_to_json`` dicts below, built from the
``Ket`` objects of ``mub_family`` / ``mes_basis`` one ket at a time, and
``csv.writer`` rows of ``_fmt`` floats.  The CLI must print the same bytes.
"""

import csv
import io
import json

import numpy as np
import pytest

from mesphase.cli import (
    _GOLDEN,
    _OUT_BUFFER,
    _distinct_codes,
    _float_index,
    _float_texts,
    _fmt,
    _json_float,
    main,
)
from mesphase.mes import mes_basis
from mesphase.schwinger import BasisLabel, mub_family
from mesphase.states import Ket


def ket_json(ket):
    """The gen-* ket object: dim and the real and imaginary amplitude lists."""
    amps = ket.amplitudes
    return {"dim": ket.dim, "re": amps.real.tolist(), "im": amps.imag.tolist()}


def family_to_json(d):
    """The full basis family, annotated with (b, m) labels."""
    return {
        "d": d,
        "bases": [
            {
                "b": str(basis[0].b),
                "states": [{"m": s.m, "ket": ket_json(s.vector)} for s in basis],
            }
            for basis in mub_family(d)
        ],
    }


def mes_basis_to_json(d, b, b_prime):
    """The annotated MES basis in serialized form."""
    elements = mes_basis(d, b, b_prime)
    return {
        "d": d,
        "b": str(elements[0].b),
        "b_prime": str(elements[0].b_prime),
        "states": [{"q": e.q, "p": e.p, "ket": ket_json(e.vector)} for e in elements],
    }


def cli_text(capsys, *argv):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def oracle_gen_mub(d, fmt):
    data = family_to_json(d)
    if fmt == "json":
        return json.dumps(data, indent=2) + "\n"
    header = ["b", "m"] + [f"re{k}" for k in range(d)] + [f"im{k}" for k in range(d)]
    rows = [
        [basis["b"], state["m"]]
        + [_fmt(x) for x in state["ket"]["re"]]
        + [_fmt(x) for x in state["ket"]["im"]]
        for basis in data["bases"]
        for state in basis["states"]
    ]
    return csv_text(header, rows)


def oracle_gen_mes(d, b, b_prime, fmt):
    data = mes_basis_to_json(d, BasisLabel.parse(b, d), BasisLabel.parse(b_prime, d))
    if fmt == "json":
        return json.dumps(data, indent=2) + "\n"
    n = d * d
    header = ["b", "b_prime", "q", "p"]
    header += [f"re{k}" for k in range(n)] + [f"im{k}" for k in range(n)]
    rows = [
        [data["b"], data["b_prime"], s["q"], s["p"]]
        + [_fmt(x) for x in s["ket"]["re"]]
        + [_fmt(x) for x in s["ket"]["im"]]
        for s in data["states"]
    ]
    return csv_text(header, rows)


def labels(d):
    return ["cb"] + [str(b) for b in range(d)]


ALL_SMALL_PAIRS = [
    (d, b, b_prime) for d in (3, 5) for b in labels(d) for b_prime in labels(d)
]
LARGER_PAIRS = [
    (7, "cb", "cb"),
    (7, "2", "cb"),
    (7, "6", "3"),
    (11, "cb", "4"),
    (11, "10", "0"),
    (23, "3", "5"),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("d,b,b_prime", ALL_SMALL_PAIRS + LARGER_PAIRS)
def test_gen_mes_matches_oracle(capsys, d, b, b_prime, fmt):
    out = cli_text(
        capsys, "gen-mes", "--d", str(d), "--b", b, "--b-prime", b_prime, "--format", fmt
    )
    assert out == oracle_gen_mes(d, b, b_prime, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("d", [3, 5, 7, 11, 23])
def test_gen_mub_matches_oracle(capsys, d, fmt):
    assert cli_text(capsys, "gen-mub", "--d", str(d), "--format", fmt) == oracle_gen_mub(
        d, fmt
    )


def test_out_file_matches_stdout(capsys, tmp_path):
    # documents from a few KB to several times the --out buffer
    requests = [
        (5, "1", "cb", "csv"),
        (13, "4", "9", "json"),
        (13, "cb", "2", "csv"),
        (23, "json"),
        (17, "0", "cb", "json"),
    ]
    sizes = []
    for k, request in enumerate(requests):
        if len(request) == 2:
            d, fmt = request
            argv, oracle = ["gen-mub", "--d", str(d)], oracle_gen_mub(d, fmt)
        else:
            d, b, b_prime, fmt = request
            argv = ["gen-mes", "--d", str(d), "--b", b, "--b-prime", b_prime]
            oracle = oracle_gen_mes(d, b, b_prime, fmt)
        argv += ["--format", fmt]
        target = tmp_path / f"doc{k}"
        assert cli_text(capsys, *argv, "--out", str(target)) == ""
        written = target.read_bytes()
        assert written == cli_text(capsys, *argv).encode("utf-8") == oracle.encode("utf-8")
        sizes.append(len(written))
    assert max(sizes) > 2 * _OUT_BUFFER


# -- the formatting helper -----------------------------------------------------


def _format_floats(values, fmt):
    """The text of every float of ``values`` from :func:`_float_texts` of
    its :func:`_float_index`, as nested lists of the same shape."""
    texts, codes = _float_texts(_float_index(values), fmt)
    return texts[codes].tolist()


FINITE = np.array(
    [
        [0.0, -0.0, 0.1, 0.1, -0.1],
        [5e-324, -5e-324, 2.2250738585072014e-308, 1 / np.sqrt(3), 0.1],
        [1e300, -1e-300, 0.0, -0.0, 0.30000000000000004],
    ]
)
TRICKY = np.vstack([FINITE, [np.nan, np.inf, -np.inf, 1e16, 123456789012345.67]])


@pytest.mark.parametrize(
    "fmt,reference,values",
    [
        (_json_float, json.dumps, TRICKY),
        (_json_float, float.__repr__, FINITE),
        (_fmt, _fmt, TRICKY),
    ],
)
def test_format_floats_elementwise(fmt, reference, values):
    texts = _format_floats(values, fmt)
    assert np.shape(texts) == values.shape
    for row_text, row in zip(texts, values):
        assert row_text == [reference(float(x)) for x in row]


def test_format_floats_keeps_negative_zero_apart():
    json_texts = _format_floats(np.array([0.0, -0.0, -0.0, 0.0]), _json_float)
    csv_texts = _format_floats(np.array([0.0, -0.0, -0.0, 0.0]), _fmt)
    assert json_texts == ["0.0", "-0.0", "-0.0", "0.0"]
    assert csv_texts == ["0", "-0", "-0", "0"]


def test_format_floats_calls_fmt_once_per_bit_pattern():
    calls = []

    def counting(x):
        calls.append(x)
        return repr(x)

    _format_floats(TRICKY, counting)
    assert len(calls) == len(set(TRICKY.reshape(-1).view(np.int64).tolist()))


# -- distinct codes against np.unique ----------------------------------------------


def crowded_keys(k):
    """k distinct int64 keys that all hash to the last slot of their table,
    so each insert and lookup probes a cluster that wraps round to slot 0."""
    log2 = (2 * k - 1).bit_length()
    rng = np.random.default_rng(k)
    pool = rng.integers(-(2**63), 2**63 - 1, size=400 << log2, dtype=np.int64)
    home = (pool.view(np.uint64) * _GOLDEN) >> np.uint64(64 - log2)
    keys = np.unique(pool[home == (1 << log2) - 1])[:k]
    assert keys.size == k
    return keys


def boundary_case(k):
    """k distinct random keys, each repeated a few times in shuffled order;
    the table holds 2^L slots for 2^(L-2) < k <= 2^(L-1)."""
    rng = np.random.default_rng(1000 + k)
    keys = np.unique(rng.integers(-(2**63), 2**63 - 1, size=2 * k, dtype=np.int64))[:k]
    assert keys.size == k
    return rng.permutation(np.repeat(keys, 3))


RNG = np.random.default_rng(7)
CODE_CASES = {
    "tricky": TRICKY.reshape(-1).view(np.int64),
    "empty": np.array([], dtype=np.int64),
    "one value": np.full(1000, 0.5).view(np.int64),
    "one key": np.array([np.nan]).view(np.int64),
    "duplicated random bits": RNG.choice(RNG.integers(-(2**63), 2**63 - 1, size=40), 20_000),
    "duplicated basis floats": RNG.choice(
        np.exp(2j * np.pi * np.arange(23) / 23).view(np.float64) / np.sqrt(23), 50_000
    ).view(np.int64),
    "neighbouring bits": np.arange(-3000, 3000, dtype=np.int64).repeat(2),
    **{f"{k} keys": boundary_case(k) for k in (2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 4095, 4096, 4097)},
    **{f"{k} crowded keys": np.tile(crowded_keys(k), 2) for k in (2, 5, 8, 9)},
}


@pytest.mark.parametrize("name", list(CODE_CASES))
def test_distinct_codes_match_unique(name):
    bits = CODE_CASES[name]
    keys, codes = _distinct_codes(bits)
    expected_keys, expected_codes = np.unique(bits, return_inverse=True)
    assert keys.dtype == np.int64 and keys.tobytes() == expected_keys.tobytes()
    assert np.array_equal(codes, expected_codes.reshape(-1))


def test_ket_to_json_lists_are_python_floats():
    amps = np.exp(2j * np.pi * np.arange(7) / 7) / np.sqrt(7)
    data = ket_json(Ket(amps))
    assert data["re"] == [float(x) for x in amps.real]
    assert data["im"] == [float(x) for x in amps.imag]
    assert all(type(x) is float for x in data["re"] + data["im"])
