"""Span and call-count tracing of mesphase from outside the package.

A :class:`Tracer` swaps wrappers in for chosen functions and restores the
originals on :meth:`Tracer.uninstall`.  A function object may be bound under
several names (``lines.point_state_minus`` is the object defined in
``collective``, imported with ``from .collective import ...``), so every
binding of the object in every ``mesphase`` module namespace is swapped, not
only the defining one.  Spans are kept in memory as ``[name, start, end,
parent]`` lists; hot, tiny functions get a call counter instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "mesphase"

# (module, attribute, metric name): functions that get a span per call
SPAN_TARGETS = [
    ("mesphase.cli", "main", "cli.main"),
    ("mesphase.verify", "suite_mub", "verify.suite_mub"),
    ("mesphase.verify", "suite_mes", "verify.suite_mes"),
    ("mesphase.verify", "suite_collective", "verify.suite_collective"),
    ("mesphase.verify", "suite_lines", "verify.suite_lines"),
    ("mesphase.collective", "collective_ops", "collective.collective_ops"),
    ("mesphase.collective", "point_state_minus", "collective.point_state_minus"),
    ("mesphase.collective", "point_state_plus", "collective.point_state_plus"),
    ("mesphase.collective", "word_matrix", "collective.word_matrix"),
    ("mesphase.collective", "hop_dense", "collective.hop_dense"),
    ("mesphase.collective", "local_action", "collective.local_action"),
    ("mesphase.lines", "line_state", "lines.line_state"),
    ("mesphase.lines", "schmidt_inversion_check", "lines.schmidt_inversion_check"),
    ("mesphase.lines", "mub_from_lines", "lines.mub_from_lines"),
    ("mesphase.schwinger", "mub_family", "schwinger.mub_family"),
    ("mesphase.mes", "mes_basis", "mes.mes_basis"),
    ("mesphase.mes", "mes_state", "mes.mes_state"),
    ("mesphase.states", "schmidt_decompose", "states.schmidt_decompose"),
    ("mesphase.states", "mes_deviation", "states.mes_deviation"),
]

# (module, dotted attribute, metric name): functions that only get counted
COUNT_TARGETS = [
    ("mesphase.schwinger", "mub_state", "schwinger.mub_state.calls"),
    ("mesphase.states", "Ket.__post_init__", "states.Ket.constructed"),
    ("numpy", "kron", "numpy.kron.calls"),
    ("numpy.linalg", "svd", "numpy.linalg.svd.calls"),
    ("numpy.linalg", "matrix_power", "numpy.linalg.matrix_power.calls"),
]


def _resolve(module_name: str, dotted: str) -> tuple[object, str, object]:
    """(owner, attribute, current value) for ``module:dotted``."""
    owner: object = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans and counts for the targets while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _swap(self, owner: object, attr: str, original: object, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        namespaces = [
            mod
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        targets = [(m, a, n, self._span_wrapper) for m, a, n in SPAN_TARGETS]
        targets += [(m, a, n, self._count_wrapper) for m, a, n in COUNT_TARGETS]
        for module_name, dotted, name, make in targets:
            owner, attr, original = _resolve(module_name, dotted)
            wrapper = make(name, original)
            self._swap(owner, attr, original, wrapper)
            # every other module-level binding of the same object
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original and not (mod is owner and key == attr):
                        self._swap(mod, key, original, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict:
        """Per-name ``[calls, self_s, total_s]`` plus the counters."""
        out: dict[str, list] = {}
        for (name, start, end, _), own in zip(self.spans, self_times(self.spans)):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += own
            entry[2] += end - start
        return {"spans": out, "counts": dict(self.counts)}


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the part of it its children cover.

    ``spans`` holds ``(name, start, end, parent_index)``; a parent index of
    -1 marks a root.  Children are clipped to their parent's interval and
    overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result
