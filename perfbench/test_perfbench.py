"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# -- statistics ---------------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(199) == 90.0
    assert run.tail_percentile(999) == 95.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(99) is None
    assert run.tail_percentile(199, (95.0,)) is None


# -- self time ----------------------------------------------------------------------


def test_self_time_nested_spans():
    spans_ = [("root", 0.0, 10.0, -1), ("child", 1.0, 4.0, 0), ("grandchild", 2.0, 3.0, 1)]
    assert spans.self_times(spans_) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_sibling_spans():
    spans_ = [("root", 0.0, 10.0, -1), ("a", 1.0, 3.0, 0), ("b", 5.0, 8.0, 0)]
    assert spans.self_times(spans_) == pytest.approx([5.0, 2.0, 3.0])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans_ = [("root", 0.0, 10.0, -1), ("a", 1.0, 5.0, 0), ("b", 4.0, 6.0, 0), ("c", 9.0, 12.0, 0)]
    assert spans.self_times(spans_)[0] == pytest.approx(10.0 - 5.0 - 1.0)


# -- tracer -------------------------------------------------------------------------


def test_tracer_catches_from_import_bindings_and_restores_them():
    import mesphase
    import mesphase.cli  # noqa: F401  every traced module is loaded before the snapshot
    import mesphase.collective as co
    import mesphase.lines as li
    from mesphase.states import Ket

    original = co.point_state_minus
    post_init = Ket.__post_init__
    kron = np.kron
    assert li.point_state_minus is original and mesphase.point_state_minus is original

    def bindings():
        return {(name, key): value for name, mod in list(sys.modules.items())
                if name.split(".")[0] == "mesphase" for key, value in vars(mod).items()}

    before = bindings()
    tracer = spans.Tracer()
    with tracer:
        assert li.point_state_minus is not original
        assert co.point_state_minus is li.point_state_minus is mesphase.point_state_minus
        li.line_state(5, li.Line(mesphase.BasisLabel(2), 1))
    summary = tracer.summary()

    calls, own, total = summary["spans"]["collective.point_state_minus"]
    assert calls == 5 and 0.0 <= own <= total
    names = [s[0] for s in tracer.spans]
    parents = {tracer.spans[i][3] for i, n in enumerate(names) if n == "collective.point_state_minus"}
    assert parents == {names.index("lines.line_state")}
    assert summary["counts"]["numpy.kron.calls"] == 5
    assert summary["counts"]["states.Ket.constructed"] > 0

    assert co.point_state_minus is original
    assert li.point_state_minus is original and mesphase.point_state_minus is original
    assert Ket.__post_init__ is post_init and np.kron is kron
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


# -- output checks and fail_frac ----------------------------------------------------


def _fake_spawn(corrupt):
    """In-process stand-in for a worker: run the cli calls, then let
    ``corrupt`` damage the outputs."""

    def spawn(spec):
        import mesphase.cli

        codes = [mesphase.cli.main(argv) for argv in spec["calls"]]
        corrupt([Path(argv[argv.index("--out") + 1]) for argv in spec["calls"]])
        return {"codes": codes, "units": [{"parts": [[0.5, 0.01]], "cpu_s": 0.5}],
                "setup_s": 0.1, "setup_ref_s": 0.01,
                "rss_mb": 50.0, "blas_threads": 1, "mesphase_file": mesphase.cli.__file__,
                "mesphase_version": "test"}

    return spawn


def _fail_frac(monkeypatch, tmp_path, sample, corrupt) -> float:
    monkeypatch.setattr(run, "spawn", _fake_spawn(corrupt))
    monkeypatch.setattr(run, "VERIFY_D", 3)
    monkeypatch.setattr(run, "GEN_D", 3)
    bench = run.Run("x", 0, 1.0, False, tmp_path)
    sample(bench, False)
    _, named = run.end_to_end_metrics(bench)
    assert bench.attempted == 1
    return named["fail_frac"][0]


def _flip_first_row(paths):
    payload = json.loads(paths[0].read_text())
    payload["rows"][0]["pass"] = False
    paths[0].write_text(json.dumps(payload))


def _damage_mes_csv(paths):
    lines = paths[2].read_text().splitlines()
    cells = lines[1].split(",")
    cells[4] = str(float(cells[4]) + 1e-6)
    lines[1] = ",".join(cells)
    paths[2].write_text("\n".join(lines) + "\n")


def test_correct_outputs_give_zero_fail_frac(monkeypatch, tmp_path):
    assert _fail_frac(monkeypatch, tmp_path, run.verify_sample, lambda paths: None) == 0.0
    assert _fail_frac(monkeypatch, tmp_path, run.gen_sample, lambda paths: None) == 0.0


def test_failing_verify_row_raises_fail_frac(monkeypatch, tmp_path):
    assert _fail_frac(monkeypatch, tmp_path, run.verify_sample, _flip_first_row) > 0.0


def test_corrupted_gen_output_raises_fail_frac(monkeypatch, tmp_path):
    assert _fail_frac(monkeypatch, tmp_path, run.gen_sample, _damage_mes_csv) > 0.0


def test_missing_verify_row_is_a_failure():
    rows = [{"check": c, "params": p, "d": 5, "max_error": 0.0, "pass": True}
            for c, p in checks.expected_verify_keys(5)]
    assert checks.check_verify_report(0, {"rows": rows, "all_pass": True}, 5) == []
    assert checks.check_verify_report(0, {"rows": rows[1:], "all_pass": True}, 5)
    assert checks.check_verify_report(1, {"rows": rows, "all_pass": True}, 5)
    assert len(checks.expected_verify_keys(13)) == 6 + 7 + 13 + 13 * 14


def test_expected_line_labels():
    assert checks.expected_factor2(7, None, 5) == ("cb", 5)
    assert checks.expected_factor2(7, 3, 5) == ("6", 6)  # README: quarter(3)=6, half(5)=6


# -- the declared benchmark ---------------------------------------------------------


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
