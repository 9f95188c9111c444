"""Names bound from outside the package: `modalsim.__all__`, and every
attribute the benchmark harness under `perfbench/` wraps or calls."""

import functools
import importlib
import importlib.util

from spawn import ROOT

import modalsim


def _spans():
    """perfbench/spans.py, imported by its path; importing it runs nothing."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, path: str):
    return functools.reduce(getattr, path.split("."), importlib.import_module(module))


def test_every_exported_name_resolves():
    assert [name for name in modalsim.__all__ if not hasattr(modalsim, name)] == []


def test_every_perfbench_target_resolves():
    targets = [(module, path) for _, module, path, *_ in _spans().TARGETS]
    targets.append(("modalsim.latency", "reported_latency"))  # perfbench/workloads.py calls it
    for module, path in targets:
        assert callable(_resolve(module, path)), (module, path)
