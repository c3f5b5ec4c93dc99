"""The gen-mub / gen-mes writers against the per-float path they replaced.

The oracle is the old serialization: ``json.dumps(..., indent=2)`` of the
public ``family_to_json`` / ``mes_basis_to_json`` dicts, and ``csv.writer``
rows of ``_fmt`` floats.  The CLI must print the same bytes.
"""

import csv
import io
import json

import numpy as np
import pytest

from mesphase.cli import _format_floats, _json_float, _fmt, main
from mesphase.mes import mes_basis_to_json
from mesphase.schwinger import BasisLabel, family_to_json
from mesphase.states import Ket


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
    target = tmp_path / "mes.csv"
    argv = ["gen-mes", "--d", "5", "--b", "1", "--b-prime", "cb", "--format", "csv"]
    assert cli_text(capsys, *argv, "--out", str(target)) == ""
    assert target.read_text(encoding="utf-8") == oracle_gen_mes(5, "1", "cb", "csv")


# -- the formatting helper -----------------------------------------------------


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


def test_ket_to_json_lists_are_python_floats():
    amps = np.exp(2j * np.pi * np.arange(7) / 7) / np.sqrt(7)
    data = Ket(amps).to_json()
    assert data["re"] == [float(x) for x in amps.real]
    assert data["im"] == [float(x) for x in amps.imag]
    assert all(type(x) is float for x in data["re"] + data["im"])
