"""The benchmark tracer names its entry points by attribute path; a path
that no longer resolves drops that per-layer metric without an error."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_entry_resolves():
    tracer = load_tracer()
    missing = [
        f"{layer}:{target}"
        for layer, entries in tracer.ENTRIES.items()
        for _, target in entries
        if tracer._resolve(importlib.import_module(f"steinv.{layer}"), target) is None
    ]
    assert missing == []
