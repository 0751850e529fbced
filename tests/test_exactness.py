"""The package promises exact arithmetic: no floating point in its source."""

import ast
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import line_trace
import steinv
from steinv import (
    AbelianInvariants,
    BreakpointModule,
    CutPoint,
    IntMatrix,
    RealAlgebraicField,
    SlopeGroup,
    beta_cylinder_interval,
    beta_expand,
    errors,
    from_prefix_pairs,
    generator_library,
    golden_field,
    golden_triple,
    make_plmap,
    n_adic_expand,
    rational_field,
    scale_equivalence,
    stein_triple,
    substitute_tau,
    thompson_triple,
    to_prefix_pairs,
)

SOURCES = sorted(Path(steinv.__file__).parent.glob("*.py"))


def float_uses(tree):
    """(line, what) for every float literal and every call of float()."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            yield node.lineno, "call of float()"


def test_sources_use_no_floating_point():
    assert SOURCES
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in float_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def field_mismatch_raises(tree):
    """Lines that raise FieldMismatch, called or not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "FieldMismatch":
                yield node.lineno


def test_only_numbers_decides_which_numbers_enter_a_field():
    # every other module calls RealAlgebraicField.coerce, so the rule and
    # its one message live in one place
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "numbers.py"
        for line in field_mismatch_raises(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
    code = "raise FieldMismatch('x')\nraise FieldMismatch\nraise ValueError('y')\n"
    assert list(field_mismatch_raises(ast.parse(code))) == [1, 2]


def signs_of_differences(tree):
    """Lines that call .sign() on a subtraction, as in (x - y).sign()."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "sign"
            and isinstance(node.func.value, ast.BinOp)
            and isinstance(node.func.value.op, ast.Sub)
        ):
            yield node.lineno


def test_only_numbers_reads_the_sign_of_a_difference():
    # elsewhere order goes through the comparison operators or _cmp, which
    # build no difference and normalize nothing
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "numbers.py"
        for line in signs_of_differences(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
    code = "a = (x - y).sign()\nb = x.sign()\nc = (x + y).sign()\nd = (1 - x * y).sign() > 0\n"
    assert list(signs_of_differences(ast.parse(code))) == [1, 4]


# raises that name no SteinError, with the reason each stays
FOREIGN_RAISES = {
    # the process exit status of the command line
    ("cli.py", "<module>", "SystemExit"),
    ("__main__.py", "<module>", "SystemExit"),
}


def raised_names(tree, scope="<module>"):
    """(line, enclosing function, raised name) for every raise with an
    exception, called or not; a bare re-raise names nothing."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
            yield from raised_names(node, inner)
            continue
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, scope, exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
        yield from raised_names(node, scope)


def test_every_raise_names_a_stein_error():
    # every error raised on a documented failure path derives from SteinError
    found = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        for line, scope, name in raised_names(ast.parse(path.read_text(), str(path)))
        if (path.name, scope, name) not in FOREIGN_RAISES
        and not (isinstance(getattr(errors, name, None), type)
                 and issubclass(getattr(errors, name), errors.SteinError))
    ]
    assert found == []
    code = (
        "class A:\n    def f(self):\n        raise ValueError('x')\n"
        "raise SystemExit(1)\nraise ParseError\ntry:\n    pass\nexcept E:\n    raise\n"
    )
    assert list(raised_names(ast.parse(code))) == [
        (3, "A.f", "ValueError"), (4, "<module>", "SystemExit"), (5, "<module>", "ParseError")
    ]


def messageless_raises(tree):
    """(line, raised name) for every raise of a name that passes no
    positional argument, called or not; a bare re-raise names nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, (ast.Name, ast.Call)):
            call = node.exc if isinstance(node.exc, ast.Call) else None
            exc = call.func if call else node.exc
            if isinstance(exc, ast.Name) and not (call and call.args):
                yield node.lineno, exc.id


def test_every_stein_error_raise_passes_a_message():
    # the command line prints only the message of a SteinError, so the
    # message is what tells one refused input from another
    found = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        for line, name in messageless_raises(ast.parse(path.read_text(), str(path)))
        if isinstance(getattr(errors, name, None), type)
        and issubclass(getattr(errors, name), errors.SteinError)
    ]
    assert found == []
    code = (
        "raise ParseError\nraise ParseError()\nraise ParseError('x')\n"
        "raise e\nraise UsageError(f'{x}') from None\nraise\nraise E(key=1)\n"
    )
    assert list(messageless_raises(ast.parse(code))) == [
        (1, "ParseError"), (2, "ParseError"), (4, "e"), (7, "E")
    ]


PHI = golden_field().generator()
GOLDEN = golden_triple().module
SIXTH_ROOT2 = RealAlgebraicField([-2, 0, 0, 0, 0, 0, 1], (1, 2))

# one input for each refusal that no other in-process test reaches
REFUSALS = [
    (lambda: scale_equivalence(GOLDEN, GOLDEN, -1), "the search bound -1 is negative"),
    (lambda: BreakpointModule(rational_field(), []), "basis must be nonempty"),
    (lambda: SlopeGroup([-PHI]), "slope generators must be positive"),
    (lambda: RealAlgebraicField([-2, 0, 1], (2, 1)), "isolating interval is empty"),
    (lambda: RealAlgebraicField([-3, 1], (4, 5)), "the rational root is outside the interval"),
    (lambda: IntMatrix([[1, 2]]) @ IntMatrix([[1, 2]]), "dimension mismatch in product"),
    (lambda: AbelianInvariants(1, [((1,), 1)], []),
     "invariant factors must be at least 2 and form a chain"),
    (lambda: AbelianInvariants(1, [((1,), 4)], []).reduce((1,), 2),
     "denominator 2 is not invertible modulo 4"),
    (lambda: to_prefix_pairs(make_plmap(thompson_triple(11), [(0, 1, 0)])),
     "digit words support bases up to 10 only"),
    (lambda: to_prefix_pairs(make_plmap(thompson_triple(2, 2), [(0, 1, 0)])),
     "prefix words need endpoint 1"),
    (lambda: from_prefix_pairs(thompson_triple(2), []), "at least one pair is required"),
    (lambda: n_adic_expand(CutPoint(PHI - 1, "+"), 2), "n-adic coding needs a rational cut point"),
    (lambda: substitute_tau("2"), "'2' is not a binary word"),
    # beta_word_value checks a cylinder's word; "20" keeps this row's id apart from the row above
    (lambda: beta_cylinder_interval("20"), "'20' is not a binary word"),
    (lambda: beta_cylinder_interval("11"), "'11' contains the forbidden factor 11"),
    (lambda: beta_expand(Fraction(1, 2), "-"), "1/2 has no expansion with a repeating 10 tail"),
    # 2^(1/6) on its power basis over Z[1/2], a module of rank 6
    (lambda: generator_library(stein_triple(
        [SIXTH_ROOT2.generator() ** i for i in range(6)], [2], [2], 1, SIXTH_ROOT2,
    )), "a generator library is capped at module rank 5"),
    # the rotation by 2^-12, about 98,000 letters of prefix pairs
    (lambda: to_prefix_pairs(make_plmap(thompson_triple(2), [
        (0, 1, Fraction(1, 2**12)), (1 - Fraction(1, 2**12), 1, Fraction(1, 2**12) - 1),
    ])), "a prefix exchange form is capped at 50,000 letters"),
]


@pytest.mark.parametrize("call, message", REFUSALS, ids=[m for _, m in REFUSALS])
def test_each_refusal_gives_its_message(call, message):
    with pytest.raises(errors.SteinError) as info:
        call()
    assert str(info.value) == message


def test_all_names_every_public_name_and_every_error_class():
    public = {
        name for name, value in vars(steinv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(steinv.__all__) == sorted(public)
    defined = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    }
    assert defined <= public


def test_elements_and_coding_import_nothing_from_fractions():
    # degree-one elements, cylinders, digit words, matrices and coordinate
    # vectors over one denominator are integers there
    found = []
    for name in ("elements.py", "coding.py", "intlinalg.py"):
        path = Path(steinv.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text(), name)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module]
            if "fractions" in names:
                found.append(f"{name}:{node.lineno}")
    assert found == []


TESTS = sorted(Path(__file__).parent.glob("*.py"))


def imports_of_tests(tree):
    """(line, module) for every import of a test_* module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
        else:
            continue
        yield from ((node.lineno, n) for n in names if n.split(".")[0].startswith("test_"))


def defined_tests(tree):
    """Names of the test_* functions a module defines, at any depth."""
    return sorted(
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("test_")
    )


def test_no_test_module_imports_another_and_references_holds_no_test():
    # the shared oracles live in references.py: importing a test module
    # runs its body, @given decorators included, inside the importer,
    # which hypothesis refuses when the import happens in a property test
    found = [
        f"{path.name}:{line}: {name}"
        for path in TESTS
        for line, name in imports_of_tests(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
    assert defined_tests(ast.parse(Path(__file__).with_name("references.py").read_text())) == []
    code = (
        "import test_a, os\nfrom test_b import c\ndef f():\n    import test_c.d\n"
        "from references import test_e\nfrom . import test_f\n"
    )
    assert sorted(imports_of_tests(ast.parse(code))) == [
        (1, "test_a"), (2, "test_b"), (4, "test_c.d"), (6, "test_f")
    ]
    code = "def test_x():\n    pass\ndef helper():\n    def test_y():\n        pass\n"
    assert defined_tests(ast.parse(code)) == ["test_x", "test_y"]


def test_the_guard_sees_literals_and_calls_but_not_type_checks():
    code = "x = 0.5\ny = float(x)\nz = isinstance(x, float)\nw = 1e3\n"
    assert sorted(line for line, _ in float_uses(ast.parse(code))) == [1, 2, 4]


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # both cost import time and resident memory on every CLI run; the
    # library alone loads no argument parser either, as the CLI builds
    # its parser at import
    code = (
        "import sys, steinv\n"
        "print(sorted({'steinv.cli', 'argparse'} & set(sys.modules)))\n"
        "import steinv.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    src = str(Path(steinv.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


def test_line_trace_lists_the_statements_that_never_ran(tmp_path):
    # line_trace.py traces the whole suite; here its parts run on one tiny file
    target = tmp_path / "target.py"
    target.write_text(
        'import functools\n@functools.cache\ndef f(x):\n    """Doc."""\n'
        "    if x:\n        return 1\n    return 2\n"
    )
    namespace = {}
    code = compile(target.read_text(), str(target), "exec")
    executed = line_trace.trace(lambda: exec(code, namespace) or namespace["f"](1), tmp_path)
    assert line_trace.never_run(target, executed[str(target)]) == [(7, "return 2")]
