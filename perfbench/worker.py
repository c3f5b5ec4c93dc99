"""One benchmark child process: import mesphase from ``src/``, time the calls
given in the JSON spec (first argument), and print one JSON result line.

Started by ``run.py`` with BLAS pinned to one thread; not meant to be run by
hand.  Modes:

* ``cli``: one unit = the listed ``mesphase.cli.main`` calls, back to back;
* ``lines``: one untimed warm-up pass of ``schmidt_inversion_check`` over all
  lines, then seed-shuffled timed passes until the deadline; each pass is a
  unit and each call a sample.  Every report is checked after its timer
  stops.

With ``trace`` set, ``cli`` mode runs its calls under the tracer, and
``lines`` mode alternates untraced and traced passes.

The machine this runs on changes speed from second to second, so the
reference kernel (:func:`reference_s`) is timed right before and right after
every timed stretch, outside it and outside the tracer.  Each timed call is
reported as ``[seconds, reference seconds]``, the reference being the mean of
the two kernel times around its stretch; run.py scales by it.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
LINES_PER_REFERENCE = 51  # lines timed between two reference measurements


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def reference_s(reps: int = 3) -> float:
    """Mean time of a fixed mix of interpreter and small-numpy work, like the
    package's own: how fast the machine runs at this moment."""
    import numpy as np

    v = np.exp(2j * np.pi * np.arange(13) / 13) / np.sqrt(13)
    shift = np.roll(np.eye(13, dtype=complex), 1, axis=0)
    was_enabled = gc.isenabled()
    gc.disable()  # collecting the package's objects is not machine speed
    try:
        t0 = time.perf_counter()
        for _ in range(reps):
            total = 0
            for i in range(20000):
                total += i * i % 7
            a = np.eye(13, dtype=complex)
            for _ in range(300):
                a = a @ shift + np.kron(v, v).reshape(13, 13)
                a /= np.abs(a).max()
        return (time.perf_counter() - t0) / reps
    finally:
        if was_enabled:
            gc.enable()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Timer:
    """Times calls into ``[seconds, reference seconds]`` parts, measuring the
    reference kernel between stretches of calls."""

    def __init__(self, ref: float):
        self.ref = ref
        self.parts: list[list[float]] = []
        self.pending: list[float] = []
        self.cpu_s = 0.0

    def call(self, fn, *args):
        cpu0, t0 = time.process_time(), time.perf_counter()
        out = fn(*args)
        self.pending.append(time.perf_counter() - t0)
        self.cpu_s += time.process_time() - cpu0
        return out

    def close_stretch(self) -> None:
        after = reference_s()
        self.parts += [[t, (self.ref + after) / 2] for t in self.pending]
        self.ref, self.pending = after, []


def _run_cli(spec: dict, tracer) -> dict:
    import mesphase.cli

    ready = time.monotonic()
    reference_s(1)  # warm-up, dropped
    setup_ref = reference_s()
    timer = _Timer(setup_ref)
    codes = []
    for argv in spec["calls"]:
        with tracer or contextlib.nullcontext():
            codes.append(timer.call(mesphase.cli.main, argv))
        timer.close_stretch()
    unit = {"parts": timer.parts, "cpu_s": timer.cpu_s, "traced": tracer is not None}
    if tracer is not None:
        unit["trace"] = tracer.summary()
    return {"ready": ready, "setup_ref_s": setup_ref, "codes": codes, "units": [unit]}


def _run_lines(spec: dict, tracer) -> dict:
    from checks import expected_factor2
    from mesphase import lines as li
    from mesphase.schwinger import BasisLabel

    d = spec["d"]
    rng = random.Random(spec["seed"])
    keys = [(b, m) for b in [None] + list(range(d)) for m in range(d)]
    line_of = {key: li.Line(BasisLabel(key[0]), key[1]) for key in keys}
    for key in keys:  # warm-up pass, untimed
        li.schmidt_inversion_check(d, line_of[key])
    ready = time.monotonic()
    reference_s(1)
    ref = setup_ref = reference_s()

    units, failures, attempted = [], [], 0
    pass_s = 0.0
    while not units or (tracer is not None and len(units) < 2) or (
        time.monotonic() + pass_s <= spec["deadline"]
    ):
        traced = tracer is not None and len(units) % 2 == 1
        order = keys[:]
        rng.shuffle(order)
        timer = _Timer(ref)
        if traced:
            tracer.reset()
        start = time.perf_counter()
        for first in range(0, len(order), LINES_PER_REFERENCE):
            with tracer if traced else contextlib.nullcontext():
                for key in order[first:first + LINES_PER_REFERENCE]:
                    rep = timer.call(li.schmidt_inversion_check, d, line_of[key])
                    attempted += 1
                    got = (str(rep.factor2_b), rep.factor2_m)
                    if got != expected_factor2(d, *key) or not rep.max_error < 1e-10:
                        failures.append(f"line b={key[0]} m={key[1]}: label {got}, "
                                        f"max_error {rep.max_error:.3e}")
            timer.close_stretch()
        ref = timer.ref
        pass_s = time.perf_counter() - start
        unit = {"parts": timer.parts, "cpu_s": timer.cpu_s, "traced": traced}
        if traced:
            unit["trace"] = tracer.summary()
        units.append(unit)
    return {"ready": ready, "setup_ref_s": setup_ref, "units": units,
            "attempted": attempted, "failures": failures}


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    sys.path[:0] = [str(HERE), str(src)]
    import mesphase

    origin = Path(mesphase.__file__).resolve()
    if src not in origin.parents:
        print(f"mesphase imported from {origin}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        tracer = Tracer()
    run = _run_lines if spec["mode"] == "lines" else _run_cli
    result = run(spec, tracer)
    result.update(
        rss_mb=_rss_mb(),
        blas_threads=_blas_threads(),
        mesphase_file=str(origin),
        mesphase_version=getattr(mesphase, "__version__", None),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
