"""mesphase benchmark: the parent process that runs one workload.

    python3 perfbench/run.py --workload verify-d7 --seed 1 --seconds 40 --trace 0

Imports nothing from the package itself: every measurement runs in a child
process (``worker.py``) that imports ``mesphase`` from the ``src/`` next to
this directory, with BLAS pinned to one thread.  Outputs are checked here,
outside the timed region.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A fuller record, with the environment stamp, goes to
``perfbench/results/<workload>-seed<seed>-trace<trace>.json``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
WORK = HERE / ".work"

# About the reference kernel's time (worker.reference_s) on a quiet 2-vCPU
# Intel Xeon (family 6, model 143) VM with numpy 2.4.6.  That machine's speed
# changes by up to 1.8x from second to second and from minute to minute, so
# each gated time is scaled by REF_NOMINAL_S / (kernel time measured around
# it): the time at that reference speed.  Raw times are printed and recorded.
REF_NOMINAL_S = 0.0100
HOLDOUT_SEED = 104729  # keep unused while developing; check claims on it
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 100  # a hung child still lets the run end within 180 s
MIN_SAMPLES = 3  # per-process workloads: at least this many untraced samples
LINE_PROCS = 3  # lines-d17: set-up (import + warm-up pass) is repeated this often
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

VERIFY_D, LINES_D, GEN_D = 7, 17, 23
WORKLOADS = (f"verify-d{VERIFY_D}", f"lines-d{LINES_D}", f"gen-d{GEN_D}")

END_TO_END = {  # name -> unit
    "op_cal_ms.p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYERS = ("collective", "lines", "schwinger", "mes", "states", "verify", "cli")
SUITES = tuple(checks.SUITE_OF_PREFIX.values())


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for _, _, name in spans.SPAN_TARGETS:
        if name.startswith("verify.suite_"):
            units[f"{name}.wall_s"] = "s"
            units[f"{name}.setup_s"] = "s"
        elif name == "cli.main":
            units["cli.main.self_s"] = "s"
        else:
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
    for _, _, name in spans.COUNT_TARGETS:
        units[name] = "count"
    for check in checks.CHECK_NAMES:
        units[f"verify.check.{check}.ms"] = "ms"
    units["verify.rows"] = "count"
    for suite in SUITES:
        units[f"verify.max_error.{suite}"] = "abs"
    units["cli.bytes_out"] = "bytes"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units.update({"proc.cpu_s": "s", "proc.wall_s": "s", "proc.ref_ms": "ms",
                  "proc.blas_threads": "count", "trace.overhead_frac": "ratio"})
    return units


PER_LAYER = _per_layer_units()


# -- statistics ---------------------------------------------------------------------


def tail_percentile(n: int, candidates=TAIL_PERCENTILES) -> float | None:
    """Highest candidate percentile with at least 10 of n samples beyond it."""
    for pct in candidates:
        if n * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    return None


# -- environment ----------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{index}/size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = None
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_env": dict(BLAS_ENV),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache": caches,
        "loadavg_start": (_read("/proc/loadavg") or "").split()[:3],
    }


# -- child processes ---------------------------------------------------------------------


class ChildFailed(Exception):
    pass


def spawn(spec: dict) -> dict:
    """Run one worker; its result gains ``setup_s`` (process start to the
    first timed call)."""
    env = dict(os.environ, **BLAS_ENV)
    spec = dict(spec, src=str(SRC))
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-I", str(WORKER), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"worker exited {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


class Run:
    """Samples, failures and traced units gathered by one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tmp: Path):
        self.workload, self.seconds, self.trace = workload, seconds, trace
        self.rng = random.Random(f"{workload}:{seed}")
        self.tmp = tmp
        self.started = time.monotonic()
        self.op_s: list[float] = []  # untraced operation times
        self.op_cal_s: list[float] = []  # the same, at the reference speed
        self.setup_s: list[float] = []
        self.setup_cal_s: list[float] = []
        self.ref_s: list[float] = []  # reference-kernel times measured in the run
        self.rss_mb: list[float] = []
        self.units: list[dict] = []  # untraced and traced units, for the trace run
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.child: dict = {}

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def record_child(self, result: dict) -> None:
        self.setup_s.append(result["setup_s"])
        self.setup_cal_s.append(result["setup_s"] * REF_NOMINAL_S / result["setup_ref_s"])
        self.rss_mb.append(result["rss_mb"])
        self.ref_s.append(result["setup_ref_s"])
        for unit in result["units"]:
            if unit["traced"]:
                continue
            self.ref_s += [ref for _, ref in unit["parts"]]
            raw = [t for t, _ in unit["parts"]]
            cal = [t * REF_NOMINAL_S / ref for t, ref in unit["parts"]]
            if self.workload.startswith("lines"):
                self.op_s += raw
                self.op_cal_s += cal
            else:  # one operation: the unit's calls back to back
                self.op_s.append(sum(raw))
                self.op_cal_s.append(sum(cal))
        self.units += [dict(u, blas_threads=result["blas_threads"]) for u in result["units"]]
        self.child = {k: result[k] for k in
                      ("mesphase_file", "mesphase_version", "blas_threads")}

    def operation(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


def per_process(run: Run, sample) -> None:
    """Closed loop, one caller: fresh interpreter per sample until the run's
    time is spent.  A traced run alternates untraced and traced samples."""
    took: list[float] = []
    while True:
        traced = run.trace and len(took) % 2 == 1
        t0 = time.monotonic()
        try:
            sample(run, traced)
        except ChildFailed as exc:
            run.operation([str(exc)])
        took.append(time.monotonic() - t0)
        enough = len(took) >= (2 if run.trace else MIN_SAMPLES)
        if enough and run.elapsed() + statistics.median(took) > run.seconds:
            return


def verify_sample(run: Run, traced: bool) -> None:
    vseed = run.rng.randrange(2**31)
    out = run.tmp / "verify.json"
    argv = ["verify", "--d", str(VERIFY_D), "--format", "json", "--timing",
            "--seed", str(vseed), "--out", str(out)]
    result = spawn({"mode": "cli", "calls": [argv], "trace": traced})
    try:
        payload = json.loads(out.read_text(encoding="utf-8"))
        size = out.stat().st_size
    except (OSError, ValueError):
        payload, size = None, 0
    out.unlink(missing_ok=True)
    run.operation(checks.check_verify_report(result["codes"][0], payload, VERIFY_D))
    rows = payload.get("rows", []) if isinstance(payload, dict) else []
    result["units"][0].update(traced=traced, rows=rows, bytes_out=size)
    run.record_child(result)


def gen_sample(run: Run, traced: bool) -> None:
    labels = checks.basis_labels(GEN_D)
    b, b_prime = run.rng.choice(labels), run.rng.choice(labels)
    mub, mes_json, mes_csv = (run.tmp / name for name in ("mub.csv", "mes.json", "mes.csv"))
    d = str(GEN_D)
    calls = [
        ["gen-mub", "--d", d, "--format", "csv", "--out", str(mub)],
        ["gen-mes", "--d", d, "--b", b, "--b-prime", b_prime, "--format", "json",
         "--out", str(mes_json)],
        ["gen-mes", "--d", d, "--b", b, "--b-prime", b_prime, "--format", "csv",
         "--out", str(mes_csv)],
    ]
    result = spawn({"mode": "cli", "calls": calls, "trace": traced})
    problems = [f"{argv[0]} exited {rc}" for argv, rc in zip(calls, result["codes"]) if rc]
    problems += checks.check_mub_csv(mub, GEN_D)
    json_problems, reference = checks.check_mes_json(mes_json, GEN_D, b, b_prime)
    problems += json_problems
    problems += checks.check_mes_csv(mes_csv, GEN_D, b, b_prime, reference)
    size = sum(p.stat().st_size for p in (mub, mes_json, mes_csv) if p.exists())
    for path in (mub, mes_json, mes_csv):
        path.unlink(missing_ok=True)
    run.operation(problems)
    result["units"][0].update(traced=traced, bytes_out=size)
    run.record_child(result)


def lines_run(run: Run) -> None:
    """LINE_PROCS warm processes in turn, each given an equal share of the run."""
    for k in range(LINE_PROCS):
        deadline = run.started + run.seconds * (k + 1) / LINE_PROCS
        spec = {"mode": "lines", "d": LINES_D, "seed": run.rng.randrange(2**31),
                "deadline": deadline, "trace": run.trace}
        try:
            result = spawn(spec)
        except ChildFailed as exc:
            run.operation([str(exc)])
            continue
        run.attempted += result["attempted"]
        run.failed += len(result["failures"])
        run.problems += result["failures"]
        run.record_child(result)


# -- metrics ------------------------------------------------------------------------


def unit_layer_metrics(unit: dict) -> dict[str, float]:
    """Per-layer metrics of one traced unit of work."""
    trace = unit["trace"]
    span_stats, counts = trace["spans"], trace["counts"]
    metrics = {name: 0.0 for name in PER_LAYER}
    rows = unit.get("rows", [])
    row_ms: dict[str, float] = {}
    for r in rows:
        check = str(r.get("check"))
        row_ms[check] = row_ms.get(check, 0.0) + r.get("runtime_ms", 0.0)
        suite = checks.SUITE_OF_PREFIX.get(check.split(".")[0])
        key = f"verify.max_error.{suite}"
        if key in metrics and isinstance(r.get("max_error"), float):
            metrics[key] = max(metrics[key], r["max_error"])
    for _, _, name in spans.SPAN_TARGETS:
        calls, own, total = span_stats.get(name, (0, 0.0, 0.0))
        metrics[f"layer.{name.split('.')[0]}.self_s"] += own
        if name.startswith("verify.suite_"):
            suite = name.removeprefix("verify.suite_")
            ran_ms = sum(ms for check, ms in row_ms.items()
                         if checks.SUITE_OF_PREFIX.get(check.split(".")[0]) == suite)
            metrics[f"{name}.wall_s"] = total
            metrics[f"{name}.setup_s"] = total - ran_ms / 1000.0
        elif name == "cli.main":
            metrics["cli.main.self_s"] = own
        else:
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = own
    for _, _, name in spans.COUNT_TARGETS:
        metrics[name] = counts.get(name, 0)
    for check, ms in row_ms.items():
        if f"verify.check.{check}.ms" in metrics:
            metrics[f"verify.check.{check}.ms"] = ms
    metrics["verify.rows"] = len(rows)
    metrics["cli.bytes_out"] = unit.get("bytes_out", 0)
    return metrics


def per_layer_metrics(run: Run) -> dict[str, float]:
    """Medians over the traced units; untraced units give CPU, wall and the
    tracing overhead."""
    traced = [u for u in run.units if u["traced"]]
    plain = [u for u in run.units if not u["traced"]]
    if not traced or not plain:
        raise ChildFailed("a traced run needs at least one traced and one untraced unit")
    per_unit = [unit_layer_metrics(u) for u in traced]
    metrics = {name: statistics.median(m[name] for m in per_unit) for name in per_unit[0]}
    def busy(unit, scaled=False):
        return sum(t * (REF_NOMINAL_S / ref if scaled else 1.0) for t, ref in unit["parts"])

    wall = statistics.median(busy(u) for u in plain)
    metrics["proc.wall_s"] = wall
    metrics["proc.cpu_s"] = statistics.median(u["cpu_s"] for u in plain)
    metrics["proc.ref_ms"] = 1000.0 * statistics.median(run.ref_s)
    metrics["proc.blas_threads"] = statistics.median(
        u["blas_threads"] if u["blas_threads"] is not None else -1 for u in run.units)
    metrics["trace.overhead_frac"] = (statistics.median(busy(u, True) for u in traced)
                                      / statistics.median(busy(u, True) for u in plain) - 1.0)
    return metrics


def end_to_end_metrics(run: Run) -> tuple[dict[str, float], dict[str, tuple]]:
    """The gated metrics, and the named ones printed for people as
    (raw value, value at the reference speed, unit, note)."""
    if not run.op_s or not run.setup_s:
        raise ChildFailed("no operation completed")
    med = statistics.median
    metrics = {
        "op_cal_ms.p50": 1000.0 * med(run.op_cal_s),
        "setup_s": med(run.setup_cal_s),
        "peak_rss_mb": med(run.rss_mb),
    }
    n = len(run.op_s)
    named: dict[str, tuple] = {}
    if run.workload.startswith("lines"):
        for pct in sorted({50.0, 95.0, tail_percentile(n)} - {None}):
            if pct == 50.0 or tail_percentile(n, (pct,)):
                named[f"line_ms.p{pct:g}"] = (1000.0 * np.percentile(run.op_s, pct),
                                              1000.0 * np.percentile(run.op_cal_s, pct),
                                              "ms", f"{n} lines")
    else:
        name, what = ("verify_s", "verify calls") if run.workload.startswith("verify") \
            else ("gen_s", "generate samples")
        named[name] = (med(run.op_s), med(run.op_cal_s), "s", f"median of {n} {what}")
    named["setup_s"] = (med(run.setup_s), metrics["setup_s"], "s",
                        f"median of {len(run.setup_s)} processes")
    named["peak_rss_mb"] = (metrics["peak_rss_mb"], None, "MB", "median child ru_maxrss")
    named["fail_frac"] = (run.failed / max(run.attempted, 1), None, "ratio",
                          f"{run.failed} of {run.attempted} operations")
    return metrics, named


# -- main -----------------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="mesphase benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "mesphase" / "__init__.py").is_file():
        print(f"error: no mesphase package under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    try:
        if args.workload.startswith("lines"):
            lines_run(run)
        else:
            per_process(run, verify_sample if args.workload.startswith("verify") else gen_sample)
        if run.trace:
            metrics = per_layer_metrics(run)
            units = PER_LAYER
            named = {}
        else:
            metrics, named = end_to_end_metrics(run)
            units = END_TO_END
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        for problem in run.problems[:5]:
            print(f"  {problem}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"wall {run.elapsed():.1f} s")
    if named:
        print(f"  {'metric':<14} {'raw':>12} {'at ref speed':>12} unit")
    for name, (raw, cal, unit, note) in named.items():
        cal_text = "" if cal is None else f"{cal:.6g}"
        print(f"  {name:<14} {raw:12.6g} {cal_text:>12} {unit:<6} {note}")
    for problem in run.problems[:10]:
        print(f"  FAILED: {problem}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": dict(env, **run.child),
        "named": {k: {"raw": v, "at_reference_speed": c, "unit": u, "note": n}
                  for k, (v, c, u, n) in named.items()},
        "reference_nominal_s": REF_NOMINAL_S,
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems[:100],
        "op_s": run.op_s,
        "op_cal_s": run.op_cal_s,
        "setup_s": run.setup_s,
        "setup_cal_s": run.setup_cal_s,
        "ref_s": run.ref_s,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
