"""The benchmark traces program functions by name; every name it wraps must
still exist, so a change that removes or renames one fails here instead of
crashing the benchmark."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_traced_call_boundaries_resolve(monkeypatch):
    # load read-only: no bytecode cache is written next to the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.targets()
    assert targets
    missing = [name for owner, attr, name in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
