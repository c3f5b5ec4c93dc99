"""The public surface resolves: every exported name, and every function the
``perfbench`` tracer wraps, so that a deletion cannot break
``perfbench/run.py --trace 1`` without a failing test.  And the README's
Python examples run as written."""

import contextlib
import importlib
import importlib.util
import io
import pkgutil
import re
from pathlib import Path

import mesphase

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


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


def test_readme_python_blocks_run_and_print_what_they_state():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    printed = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        printed.append(out.getvalue())
    # the quickstart's line state: factor labels quarter(3)=6, half(5)=6
    assert printed[0] == "6 6\n"
