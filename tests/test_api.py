"""The public surface: every name the benchmark's tracer wraps, and
``sdcyclic.__all__`` against the list in the README."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import sdcyclic

ROOT = Path(__file__).resolve().parents[1]


def _layertrace():
    """perfbench/layertrace.py, loaded by path: only its tables are read."""
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "perfbench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _readme_names():
    """The backquoted names of the bullets of the README's Public API
    section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    names = []
    for line in section.splitlines():
        if line.startswith("* "):
            names += re.findall(r"`(\w+)`", line.split(":", 1)[1])
    return names


def test_every_name_the_tracer_wraps_exists():
    trace = _layertrace()
    for module in trace.MODULES:
        importlib.import_module(f"sdcyclic.{module}")
    for table in (trace.SPANNED, trace.TIMED, trace.COUNTED):
        for module, names in table.items():
            for dotted in names:
                obj = getattr(sdcyclic, module)
                for part in dotted.split("."):
                    assert hasattr(obj, part), f"sdcyclic.{module}.{dotted}"
                    obj = getattr(obj, part)
                assert callable(obj), f"sdcyclic.{module}.{dotted}"
    # the tracer counts cache misses and calls basis_convert with three
    # positional arguments
    assert callable(sdcyclic.gmatrix.g_truncated.cache_info)
    assert len(inspect.signature(sdcyclic.reciprocal.basis_convert).parameters) == 3


def test_all_is_the_readme_list():
    names = _readme_names()
    assert len(names) == len(set(names)) == 30
    assert sorted(sdcyclic.__all__) == sorted(names)
    assert all(hasattr(sdcyclic, name) for name in names)
