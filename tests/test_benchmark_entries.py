"""The benchmark tracer names its entry points by attribute path; a path
that no longer resolves drops that per-layer metric without an error.
`tests/src_lines.py` counts the source lines with the benchmark's own
counter."""

import importlib
import importlib.util
from pathlib import Path

import src_lines

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


def test_src_lines_counts_as_the_benchmark_does():
    counts = src_lines.worktree_counts()
    bench = src_lines.load_run().line_counts()
    assert counts["src.lines"] == bench["src.lines"]
    for path, lines in counts.items():
        layer = Path(path).stem
        if f"{layer}.lines" in bench:
            assert lines == bench[f"{layer}.lines"], path
    assert src_lines.table(counts).splitlines()[-1].split() == ["src.lines", str(bench["src.lines"])]
