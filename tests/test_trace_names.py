"""The benchmark's per-function metrics name public package functions.

``perfbench/run.py --trace 1`` wraps every public function of each
package module and stops when ``BENCHMARK.json`` names a metric it
cannot measure.  A metric ``<layer>.<fn>.{self_s,incl_s,calls}``, or
the same under ``setup.``, whose layer is a package module must
therefore name a public function defined in that module: a rename or
deletion fails here rather than at benchmark time.
"""

import importlib
import json
import pkgutil
import types
from pathlib import Path

import argshift

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MODULES = {info.name for info in pkgutil.iter_modules(argshift.__path__)}
SUFFIXES = ("self_s", "incl_s", "calls")


def traced_functions() -> set[tuple[str, str]]:
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    found = set()
    for name in names:
        parts = name.split(".")
        if parts[0] == "setup":
            parts = parts[1:]
        if len(parts) == 3 and parts[0] in MODULES and parts[2] in SUFFIXES:
            found.add((parts[0], parts[1]))
    return found


def test_every_traced_function_is_public():
    traced = traced_functions()
    assert traced, "BENCHMARK.json names no per-function metric"
    missing = []
    for layer, fn in sorted(traced):
        mod = importlib.import_module(f"argshift.{layer}")
        value = getattr(mod, fn, None)
        if (fn.startswith("_") or not isinstance(value, types.FunctionType)
                or value.__module__ != mod.__name__):
            missing.append(f"{layer}.{fn}")
    assert not missing, f"BENCHMARK.json traces functions that are gone: {missing}"
