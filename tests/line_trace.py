"""List the statements of each steinv module that a pytest run never executes.

Runs pytest in this process under `sys.settrace`, records every line
executed in the package's modules, and prints, per module, each
statement (read from the AST; docstrings and other bare constants left
out) none of whose lines ran.  Only this process is traced: code that only tests running the
command line through `subprocess` reach is listed as never run.
pytest does not collect this file, and it needs nothing beyond the
standard library and pytest.

Usage: PYTHONPATH=src:tests python tests/line_trace.py [pytest arguments]
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest


def trace(run, root) -> dict:
    """Call run() under `sys.settrace`; {path: lines executed} for the
    files under root."""
    root = str(root)
    executed = {}

    def lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(root):
            return None
        executed.setdefault(path, set())
        return lines

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(previous)
    return executed


def statement_spans(tree):
    """(first, last, line) per statement: the lines whose execution counts
    as running it, and the line to report.  A compound statement counts
    by its header, from its first decorator to the line before its body."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        body = getattr(node, "body", None)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        last = body[0].lineno - 1 if body else node.end_lineno
        yield first, max(first, last), node.lineno


def never_run(path, executed) -> list:
    """(line, source text) of each statement of the file at path none of
    whose lines is in executed, in line order."""
    text = Path(path).read_text()
    source = text.splitlines()
    return sorted(
        (line, source[line - 1].strip())
        for first, last, line in statement_spans(ast.parse(text, str(path)))
        if executed.isdisjoint(range(first, last + 1))
    )


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    package = Path(importlib.util.find_spec("steinv").origin).parent
    executed = trace(lambda: pytest.main(args or ["-q", str(Path(__file__).parent)]), package)
    for path in sorted(package.glob("*.py")):
        missed = never_run(path, executed.get(str(path), set()))
        print(f"{path.name}: {len(missed)} statements never ran")
        for line, text in missed:
            print(f"  {path.name}:{line}: {text}")


if __name__ == "__main__":
    main()
