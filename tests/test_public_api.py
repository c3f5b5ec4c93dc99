"""The public surface resolves: every exported name, and every function the
``perfbench`` tracer wraps, so that a deletion cannot break
``perfbench/run.py --trace 1`` without a failing test."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import mesphase

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """perfbench/spans.py, loaded by file path (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exported_and_traced_names_resolve():
    modules = [mesphase] + [
        importlib.import_module(f"mesphase.{info.name}")
        for info in pkgutil.iter_modules(mesphase.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", [])
        if not hasattr(module, name)
    ]
    assert missing == []

    spans = load_spans()
    assert spans.SPAN_TARGETS and spans.COUNT_TARGETS
    for module_name, dotted, metric in spans.SPAN_TARGETS + spans.COUNT_TARGETS:
        owner = importlib.import_module(module_name)
        for part in dotted.split("."):
            assert hasattr(owner, part), f"{metric}: {module_name}.{dotted}"
            owner = getattr(owner, part)
        assert callable(owner), metric


def package_modules():
    """The package's modules, each with its ``__all__``."""
    modules = [
        importlib.import_module(f"mesphase.{info.name}")
        for info in pkgutil.iter_modules(mesphase.__path__)
    ]
    return [module for module in modules if hasattr(module, "__all__")]


def test_no_name_is_public_in_two_modules():
    # the package star-imports each module in turn, so a name in two
    # modules' __all__ would silently take the later module's object
    homes = {}
    for module in package_modules():
        for name in module.__all__:
            homes.setdefault(name, []).append(module.__name__)
    assert {name: where for name, where in homes.items() if len(where) > 1} == {}


def test_package_names_are_their_home_module_objects():
    homes = {name: module for module in package_modules() for name in module.__all__}
    assert sorted(mesphase.__all__) == sorted(set(homes) | {"__version__"})
    for name in mesphase.__all__:
        if name != "__version__":
            assert getattr(mesphase, name) is getattr(homes[name], name), name
