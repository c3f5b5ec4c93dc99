import csv
import gc
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import mesphase.cli as cli
from mesphase.cli import main
from mesphase.schwinger import BasisLabel
from mesphase.states import Ket, mes_deviation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# -- gen-mub ----------------------------------------------------------------


def test_gen_mub_json_structure(capsys):
    code, out, _ = run(capsys, "gen-mub", "--d", "3")
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 3
    assert len(data["bases"]) == 4
    for basis in data["bases"]:
        assert len(basis["states"]) == 3


def test_gen_mub_rejects_bad_dimensions(capsys):
    for bad in ("2", "9"):
        code, _, err = run(capsys, "gen-mub", "--d", bad)
        assert code == 2
        assert "odd prime" in err


def test_gen_mub_csv(capsys):
    code, out, _ = run(capsys, "gen-mub", "--d", "3", "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:2] == ["b", "m"]
    assert len(rows) == 12  # d(d+1) states


# -- gen-mes ----------------------------------------------------------------


def test_gen_mes_emits_d_squared_states(capsys):
    code, out, _ = run(capsys, "gen-mes", "--d", "3", "--b", "cb", "--b-prime", "cb")
    assert code == 0
    data = json.loads(out)
    assert len(data["states"]) == 9
    assert data["b"] == "cb"


def test_gen_mes_round_trip_reverifies(capsys):
    # parse the emitted kets back and re-check the defining properties offline
    code, out, _ = run(capsys, "gen-mes", "--d", "3", "--b", "1", "--b-prime", "0")
    assert code == 0
    data = json.loads(out)
    kets = [Ket(np.array(s["ket"]["re"]) + 1j * np.array(s["ket"]["im"])) for s in data["states"]]
    vecs = np.array([k.amplitudes for k in kets])
    assert np.abs(vecs.conj() @ vecs.T - np.eye(9)).max() < 1e-10
    for k in kets:
        assert mes_deviation(k) < 1e-10


def test_gen_mes_rejects_bad_label(capsys):
    code, _, err = run(capsys, "gen-mes", "--d", "3", "--b", "7")
    assert code == 2
    assert "label" in err


# -- verify -----------------------------------------------------------------


def test_verify_single_dimension_passes(capsys):
    code, out, err = run(capsys, "verify", "--d", "3")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["check", "d", "params", "max_error", "pass"]
    assert all(row[-1] == "true" for row in rows)
    assert "checks passed" in err


def test_verify_lines_suite_row_count(capsys):
    code, out, _ = run(capsys, "verify", "--d", "5", "--suite", "lines")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 30  # 6 orientations x 5 offsets


def test_verify_impossible_tolerance_fails(capsys):
    code, out, _ = run(capsys, "verify", "--d", "3", "--suite", "mub", "--tol", "1e-30")
    assert code == 1
    _, rows = parse_csv(out)
    failed = [row for row in rows if row[-1] == "false"]
    assert failed
    # reported errors sit near machine epsilon, far above the absurd tolerance
    for row in failed:
        assert 0.0 < float(row[3]) < 1e-12


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--d", "3", "--suite", "collective")
    _, second, _ = run(capsys, "verify", "--d", "3", "--suite", "collective")
    assert first == second


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--d", "3", "--suite", "mub", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert data["dims"] == [3]
    assert all("runtime_ms" not in row for row in data["rows"])


def test_verify_timing_flag_adds_column(capsys):
    code, out, _ = run(capsys, "verify", "--d", "3", "--suite", "mub", "--timing")
    assert code == 0
    header, _ = parse_csv(out)
    assert header[-1] == "runtime_ms"


def test_verify_env_var_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("MESPHASE_TOL", "1e-30")
    code, _, _ = run(capsys, "verify", "--d", "3", "--suite", "mub")
    assert code == 1
    # explicit flag wins over the environment
    code, _, _ = run(capsys, "verify", "--d", "3", "--suite", "mub", "--tol", "1e-10")
    assert code == 0


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "1e300"])
def test_verify_rejects_bad_tolerance(capsys, tol):
    code, out, err = run(capsys, "verify", "--d", "3", "--tol", tol)
    assert code == 2
    assert out == ""
    assert "tolerance" in err


@pytest.mark.parametrize(
    "argv", [("gen-mub", "--d", "3"), ("gen-mes", "--d", "3", "--b", "cb", "--b-prime", "0")]
)
@pytest.mark.parametrize("tol", ["1e-9", "nan", "-5"])
def test_generators_take_no_tolerance(capsys, argv, tol):
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert code == 2
    assert out == ""
    assert "--tol" in err


@pytest.mark.parametrize("value", ["abc", "inf", "-1e-10", "2"])
def test_bad_env_var_tolerance_rejected(capsys, monkeypatch, value):
    monkeypatch.setenv("MESPHASE_TOL", value)
    for argv in (("verify", "--d", "3"), ("lines", "--d", "3")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "MESPHASE_TOL" in err


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_verify_rejects_negative_seed(capsys, seed):
    code, out, err = run(capsys, "verify", "--d", "3", "--seed", seed)
    assert code == 2
    assert out == ""
    assert "--seed" in err and "non-negative" in err
    assert "Traceback" not in err


def test_verify_seed_keeps_int_parsing(capsys):
    code, _, err = run(capsys, "verify", "--d", "3", "--seed", "abc")
    assert code == 2
    assert "argument --seed: invalid int value: 'abc'" in err
    assert run(capsys, "verify", "--d", "3", "--suite", "mes", "--seed", "0")[0] == 0


def test_verify_writes_file(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code, out, _ = run(capsys, "verify", "--d", "3", "--suite", "mub", "--out", str(out_file))
    assert code == 0
    assert out == ""
    header, rows = parse_csv(out_file.read_text())
    assert header[0] == "check" and rows


def test_a_cold_verify_imports_no_numpy_random():
    # the seeded rows draw from the stdlib generator, which numpy has already
    # imported, so numpy.random and its hashlib/secrets chain stay unloaded
    code = (
        "import contextlib, io, sys\n"
        "from mesphase import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.main(['verify', '--d', '3', '--d', '5', '--d', '7'])\n"
        "print(status, sorted(m for m in ('numpy.random', 'secrets', 'hashlib') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (0, "0 []\n")
    assert done.stderr == "177/177 checks passed (tol=1e-10)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--d", "3", "--suite", "mub"],
        ["gen-mub", "--d", "3", "--format", "csv"],
        ["gen-mes", "--d", "3"],
        ["hop", "--d", "5", "--q", "1", "--p", "2", "--word", "Xc"],
        ["lines", "--d", "3"],
    ],
)
@pytest.mark.parametrize("where", ["directory", "missing parent", "empty"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, where):
    # exit 1 means "checks failed" for verify, so a bad --out must not read as
    # it; an empty --out names no file, and does not mean stdout
    targets = {"directory": tmp_path, "missing parent": tmp_path / "missing" / "report.txt", "empty": ""}
    target = targets[where]
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


def clear_caches():
    cli._last_basis.clear()


@pytest.fixture
def no_kept_basis():
    """No gen-mes basis is kept as the test starts or after it ends: the
    kept basis is found by its labels, so a test that patches
    ``cli.mes_stack`` meets its patch only on a new build, and must leave
    no patched stack behind."""
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize("command", ["gen-mub", "gen-mes"])
@pytest.mark.usefixtures("no_kept_basis")
def test_failed_generation_leaves_out_untouched(tmp_path, capsys, monkeypatch, command):
    def nan_stack(d, *labels):
        stack = np.full((d + 1, d, d) if command == "gen-mub" else (d * d, d * d), 0.5 + 0j)
        stack[1, 2] = np.nan
        return stack

    monkeypatch.setattr(cli, "mub_stack" if command == "gen-mub" else "mes_stack", nan_stack)
    target = tmp_path / "old.txt"
    target.write_bytes(b"earlier output\n")
    code, out, err = run(capsys, command, "--d", "3", "--out", str(target))
    assert code == 1
    assert err.startswith("error:") and "not normalized" in err
    assert target.read_bytes() == b"earlier output\n"
    assert out == ""
    # without --out nothing reaches stdout either
    code, out, err = run(capsys, command, "--d", "3")
    assert (code, out) == (1, "") and err.startswith("error:")


REPEATS = [
    ["gen-mes", "--d", "11", "--b", "3", "--b-prime", "cb", "--format", "json"],
    ["gen-mes", "--d", "11", "--b", "3", "--b-prime", "cb", "--format", "csv"],
    ["gen-mes", "--d", "11", "--b", "3", "--b-prime", "cb", "--format", "json"],
    ["gen-mes", "--d", "11", "--b", "cb", "--b-prime", "cb", "--format", "json"],
    ["gen-mes", "--d", "11", "--b", "3", "--b-prime", "cb", "--format", "csv"],
    ["gen-mub", "--d", "11", "--format", "csv"],
    ["gen-mes", "--d", "11", "--b", "cb", "--b-prime", "cb", "--format", "csv"],
]


def test_repeated_gen_calls_in_one_process_match_cold_calls(capsys):
    clear_caches()
    warm = [run(capsys, *argv) for argv in REPEATS]
    cold = []
    for argv in REPEATS:
        clear_caches()
        cold.append(run(capsys, *argv))
    assert warm == cold
    assert all(code == 0 and err == "" for code, _, err in warm)
    assert warm[0] == warm[2] and warm[1] == warm[4]


def test_two_formats_of_one_basis_index_its_floats_once(capsys, monkeypatch):
    clear_caches()
    calls, builds, checks = [], [], []
    distinct_codes, build, check = cli._distinct_codes, cli.mes_stack, cli._check_unit_rows
    monkeypatch.setattr(cli, "_distinct_codes", lambda bits: calls.append(bits.size) or distinct_codes(bits))
    monkeypatch.setattr(cli, "mes_stack", lambda *key: builds.append(key) or build(*key))
    monkeypatch.setattr(cli, "_check_unit_rows", lambda amps: checks.append(amps.shape) or check(amps))
    for fmt in ("json", "csv", "json"):
        assert run(capsys, "gen-mes", "--d", "7", "--b", "2", "--b-prime", "5", "--format", fmt)[0] == 0
    assert calls == [2 * 7**4]
    assert builds == [(7, BasisLabel(2), BasisLabel(5))]
    # the unit-norm check runs once per built basis, not once per format
    assert checks == [(49, 49)]
    # another basis is built, checked and indexed afresh, and gen-mub checked
    # and indexed afresh on each call
    assert run(capsys, "gen-mes", "--d", "7", "--b", "5", "--b-prime", "2", "--format", "csv")[0] == 0
    assert run(capsys, "gen-mub", "--d", "7", "--format", "csv")[0] == 0
    assert run(capsys, "gen-mub", "--d", "7", "--format", "csv")[0] == 0
    assert calls == [2 * 7**4] * 2 + [2 * 8 * 7 * 7] * 2
    assert builds == [(7, BasisLabel(2), BasisLabel(5)), (7, BasisLabel(5), BasisLabel(2))]
    assert checks == [(49, 49)] * 2 + [(8 * 7, 7)] * 2


def test_another_basis_clears_the_entry_before_its_build(capsys, monkeypatch):
    clear_caches()
    assert run(capsys, "gen-mes", "--d", "5", "--b", "1", "--b-prime", "2")[0] == 0
    seen, build = [], cli.mes_stack

    def spy(*key):
        seen.append(dict(cli._last_basis))
        return build(*key)

    monkeypatch.setattr(cli, "mes_stack", spy)
    assert run(capsys, "gen-mes", "--d", "5", "--b", "2", "--b-prime", "1")[0] == 0
    assert seen == [{}]
    assert list(cli._last_basis) == [(5, BasisLabel(2), BasisLabel(1))]


def test_gen_mes_keeps_only_the_float_index(capsys, monkeypatch):
    clear_caches()
    built, build = [], cli.mes_stack

    def spy(*key):
        stack = build(*key)
        built.append(weakref.ref(stack))
        return stack

    monkeypatch.setattr(cli, "mes_stack", spy)
    assert run(capsys, "gen-mes", "--d", "5", "--b", "1", "--b-prime", "2")[0] == 0
    # the stack is freed once it is indexed, and the entry is its index alone
    gc.collect()
    assert [ref() for ref in built] == [None]
    ((keys, codes),) = cli._last_basis.values()
    assert (keys.dtype, codes.shape) == (np.float64, (25, 2, 25))
    refs = [weakref.ref(array) for array in (keys, codes)]
    del keys, codes
    # writing another pair frees the index
    assert run(capsys, "gen-mes", "--d", "5", "--b", "2", "--b-prime", "1")[0] == 0
    gc.collect()
    assert [ref() for ref in built + refs] == [None] * 4


@pytest.mark.parametrize("command", ["gen-mub", "gen-mes"])
@pytest.mark.usefixtures("no_kept_basis")
def test_failed_generation_after_a_cached_success(tmp_path, capsys, monkeypatch, command):
    code, good, _ = run(capsys, command, "--d", "3")
    assert code == 0
    stack = cli.mub_stack if command == "gen-mub" else cli.mes_stack
    # only a new build meets the patch
    clear_caches()

    def nan_stack(d, *labels):
        bad = stack(d, *labels).copy()
        bad.reshape(-1)[5] = np.nan
        bad.setflags(write=False)
        return bad

    monkeypatch.setattr(cli, "mub_stack" if command == "gen-mub" else "mes_stack", nan_stack)
    target = tmp_path / "old.txt"
    target.write_bytes(b"earlier output\n")
    code, out, err = run(capsys, command, "--d", "3", "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "not normalized" in err
    assert target.read_bytes() == b"earlier output\n"
    # a refused basis is not kept
    assert cli._last_basis == {}
    monkeypatch.undo()
    # and only a new build drops the patched stack
    clear_caches()
    assert run(capsys, command, "--d", "3") == (0, good, "")


@pytest.mark.parametrize(
    "argv",
    [["gen-mes", "--d", "11", "--format", "json"], ["lines", "--d", "31", "--format", "json"]],
    ids=["gen-mes", "lines"],
)
def test_a_reader_that_closes_early_gets_no_traceback(argv):
    # each document is several times the size of a pipe's buffer, so the
    # command is still writing when the reader goes
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "mesphase.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


# -- hop ----------------------------------------------------------------------


def test_hop_known_word(capsys):
    code, out, _ = run(capsys, "hop", "--d", "7", "--q", "1", "--p", "2", "--word", "Xc^2 Xr^6")
    assert code == 0
    header, rows = parse_csv(out)
    final = {row[0]: row for row in rows}
    assert final["symbolic"][2:5] == ["3", "2", "5"]
    assert final["dense"][2:5] == ["3", "2", "5"]
    assert final["dense"][6] == "true"


def test_hop_empty_word(capsys):
    code, out, _ = run(capsys, "hop", "--d", "5", "--q", "2", "--p", "3", "--word", "")
    assert code == 0
    _, rows = parse_csv(out)
    final = {row[0]: row for row in rows}
    assert final["symbolic"][2:5] == ["2", "3", "0"]


def test_hop_malformed_word(capsys):
    code, _, err = run(capsys, "hop", "--d", "7", "--q", "0", "--p", "0", "--word", "Xq^2")
    assert code == 2
    assert "bad factor" in err


def test_hop_json(capsys):
    code, out, _ = run(
        capsys, "hop", "--d", "7", "--q", "1", "--p", "2", "--word", "Xc^2 Xr^6",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["symbolic"] == {"q": 3, "p": 2, "phase_exponent": 5}
    assert data["agree"] is True


# -- lines ----------------------------------------------------------------------


def test_lines_table(capsys):
    code, out, _ = run(capsys, "lines", "--d", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "d", "b", "m", "schmidt_rank_ok", "factor_label_b", "factor_label_m",
        "global_phase_exponent", "max_error",
    ]
    assert len(rows) == 30
    assert all(row[3] == "true" for row in rows)


def test_lines_alt_realization(capsys):
    code, out, _ = run(capsys, "lines", "--d", "3", "--alt-realization", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["realization"] == "alt"
    assert len(data["rows"]) == 12


# -- usage ------------------------------------------------------------------------


def test_usage_error_exit_code(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2
    assert main([]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
