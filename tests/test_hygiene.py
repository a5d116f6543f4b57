"""Every name a braidcalc module imports is used in that module, every
private name a module defines is referenced somewhere in the package, no
module imports another's private name, every parameter of a function is
read in its body, the sparse accumulate loop lives only in the kernel,
only `linalg` imports the modular route's pieces or passes a modulus into
the kernel layer, and only `scalars` and `linalg` read coefficient tuples.

The package __init__ is exempt: its imports are the public re-exports.
"""

import ast
import inspect
import pathlib

import pytest

from braidcalc import linalg

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "braidcalc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted("%s (line %d)" % (name, line)
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = "from .linalg import Echelon, matvec\nimport os\n\nEchelon(1)\n"
    assert unused_imports(source) == ["matvec (line 1)", "os (line 2)"]


def private_definitions(source: str) -> list[str]:
    """The `_x` names a module binds: functions, classes, methods and
    assigned names or attributes (dunder names excepted)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    names.add(target.attr)
    return sorted(n for n in names if n.startswith("_") and not n.startswith("__"))


def references(source: str) -> set[str]:
    """The names and attributes a module reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_names_are_referenced(path):
    read = set().union(*(references(p.read_text(encoding="utf-8"))
                         for p in PACKAGE.glob("*.py")))
    names = private_definitions(path.read_text(encoding="utf-8"))
    assert [n for n in names if n not in read] == []


def test_checker_flags_an_unreferenced_private_name():
    source = ("class _Box:\n    def _unread(self):\n        self._kept = 1\n"
              "        return self._kept\n\n\ndef _orphan():\n    _Box()\n")
    names = private_definitions(source)
    assert names == ["_Box", "_kept", "_orphan", "_unread"]
    assert [n for n in names if n not in references(source)] == \
        ["_orphan", "_unread"]


def private_imports(source: str) -> list[str]:
    """`module.name` for each underscore name imported from within the
    package (dunder names such as __version__ excepted)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("braidcalc")):
            module = (node.module or "").removeprefix("braidcalc.")
            out += ["%s.%s" % (module, alias.name)
                    for alias in node.names if alias.name.startswith("_")
                    and not alias.name.startswith("__")]
    return sorted(out)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_a_private_import():
    source = ("from . import __version__\nfrom .enveloping import _coords, value\n"
              "from braidcalc.linalg import _clear_pivots\nfrom os import _exit\n")
    assert private_imports(source) == ["enveloping._coords",
                                       "linalg._clear_pivots"]


def unread_parameters(source: str) -> list[str]:
    """`function.parameter` for each parameter its function body never reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + \
                [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out += ["%s.%s" % (node.name, p.arg) for p in params
                    if p.arg not in read]
    return sorted(out)


# Every Task.check rule is called as check(field, *arguments); the range rule
# is the one that has no use for the field.
UNREAD_ALLOWED = {"cli.py": ["_range_rule.field"]}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == \
        UNREAD_ALLOWED.get(path.name, [])


def test_checker_flags_an_unread_parameter():
    source = ("def used(a, *rest, key=0, **extra):\n    return a, rest, key, extra\n"
              "\n\ndef padded(space, comps, cutoff=None):\n"
              "    comps = []  # overwritten, never read as passed\n"
              "    return space\n")
    assert unread_parameters(source) == ["padded.comps", "padded.cutoff"]


def inline_accumulates(source: str) -> list[int]:
    """Lines of an `if x.is_zero():` whose body deletes or pops an entry: the
    inline copy of the "target += coeff * source" loop, which
    `linalg.vec_axpy` is the one home of."""
    def drops(n):
        return isinstance(n, ast.Delete) or (
            isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "pop")
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.If) and isinstance(node.test, ast.Call)
                  and isinstance(node.test.func, ast.Attribute)
                  and node.test.func.attr == "is_zero"
                  and any(drops(n) for stmt in node.body for n in ast.walk(stmt)))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_no_inline_accumulate_loop(path):
    assert inline_accumulates(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_inline_accumulate_loop():
    source = ("for tgt, val in source.items():\n    cur = out.get(tgt)\n"
              "    if cur is None:\n        out[tgt] = coeff * val\n    else:\n"
              "        new = cur + coeff * val\n        if new.is_zero():\n"
              "            del out[tgt]\n        else:\n            out[tgt] = new\n"
              "if out.is_zero():\n    out = None\n"
              "if new.is_zero():\n    out.pop(tgt, None)\n")
    assert inline_accumulates(source) == [7, 13]


# The modular route (reduction mod p, CRT, rational reconstruction and the
# kernel mod p) is used only inside `linalg.certified_kernel`.
MODULAR_NAMES = {"Reduction", "crt", "rational_lift"}


def modular_imports(source: str, names=MODULAR_NAMES) -> list[str]:
    """The names among `names`, by default the modular route's, that a
    module imports from within the package."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").startswith("braidcalc"))
                  for alias in node.names if alias.name in names)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_only_linalg_imports_the_modular_route(path):
    assert modular_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_a_modular_import():
    source = ("from .scalars import Reduction, field_make\n"
              "from braidcalc.linalg import crt, matvec\n"
              "from math import crt\nfrom .scalars import rational_lift as lift\n")
    assert modular_imports(source) == ["Reduction", "crt", "rational_lift"]
    source = ("from .linalg import Subspace, certified_kernel\n"
              "from braidcalc.linalg import certified_kernel as solve\n"
              "from kernels import certified_kernel\n")
    assert modular_imports(source, {"certified_kernel"}) == ["certified_kernel"] * 2


# The route between the exact and the modular kernel is read off the
# braiding in one place, `tensorbialg.primitive_kernel`: no other module
# calls `certified_kernel` past it.
@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name not in ("linalg.py", "tensorbialg.py")],
                         ids=lambda p: p.name)
def test_only_tensorbialg_imports_the_certified_kernel(path):
    assert modular_imports(path.read_text(encoding="utf-8"), {"certified_kernel"}) == []


# The names of the kernel layer that take a modulus, the keyword prime p.
# Every module but `linalg` calls them with exact scalars.
MODULUS_TAKERS = sorted(name for name, obj in vars(linalg).items()
                        if getattr(obj, "__module__", None) == linalg.__name__
                        and not name.startswith("_")
                        and "p" in inspect.signature(obj).parameters)


def modulus_passes(source: str) -> list[int]:
    """Lines of a call that hands a kernel-layer name the keyword p, or
    **keywords that may hold it, directly or through `partial`."""
    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.args[0] if name(node.func) == "partial" and node.args else node.func
            if name(func) in MODULUS_TAKERS and any(k.arg in ("p", None) for k in node.keywords):
                out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_only_linalg_passes_a_modulus_to_the_kernel_layer(path):
    assert modulus_passes(path.read_text(encoding="utf-8")) == []


def test_checker_flags_a_modulus_passed_to_the_kernel_layer():
    assert MODULUS_TAKERS == ["Echelon", "left_kernel", "matvec", "stacked_kernel"]
    source = ("Echelon(4, p=7)\nlinalg.matvec(cols, vec, p=q)\n"
              "partial(stacked_kernel, basis, p=q)\nleft_kernel(images, one)\n"
              "stacked_kernel(rows, n, **options)\npow(x, -1, p)\nprint(p=3)\n"
              "partial(matvec, cols)\n")
    assert modulus_passes(source) == [1, 2, 3, 5]


def attribute_reads(source: str, attr: str) -> list[int]:
    """Lines that read the attribute attr of anything."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == attr)


def constructor_calls(source: str, name: str) -> list[int]:
    """Lines of a call of name, bare or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == name)


# An echelon's pivot rows are raw inside `linalg` (ints or coefficient pairs,
# not lead 1): every other module reads them through Echelon's methods.
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_only_linalg_reads_the_raw_pivot_rows(path):
    assert attribute_reads(path.read_text(encoding="utf-8"), "pivot_rows") == []


# Vectors hold raw coefficients inside the library; a scalar's coefficient
# tuple is read only where scalars are made and unmade, in `scalars` and
# `linalg`: the other modules go through `CycloField.raw` and `linalg.boxed`.
@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in ("scalars.py", "linalg.py")],
                         ids=lambda p: p.name)
def test_only_scalars_and_linalg_read_coefficient_tuples(path):
    assert attribute_reads(path.read_text(encoding="utf-8"), "coeffs") == []


def test_checker_flags_a_pivot_rows_read():
    source = ("ech.pivot_rows[3] = {}\nfor c in fq.echelon.pivot_rows:\n    pass\n"
              "pivot_rows = ech.pivots\nrows = ech.rows()\n")
    assert attribute_reads(source, "pivot_rows") == [1, 2]


# Scalars are boxed in `scalars` alone, where the field's intern table is.
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "scalars.py"],
                         ids=lambda p: p.name)
def test_only_scalars_builds_a_cyclo_scalar(path):
    assert constructor_calls(path.read_text(encoding="utf-8"), "CycloScalar") == []


def test_checker_flags_a_cyclo_scalar_call():
    source = ("s = CycloScalar(field, (1,))\nt = scalars.CycloScalar(f, c)\n"
              "isinstance(s, CycloScalar)\nfield.box((1,))\n")
    assert constructor_calls(source, "CycloScalar") == [1, 2]


# The most lines src/braidcalc may hold.  Every perfbench worker compiles
# src/ afresh, at about 9 us a line of set-up, and the aim is the same results
# from less code: a change that needs more lines raises this number as a
# named edit in CHANGES.md.
SRC_LINE_CEILING = 3907


def test_src_stays_under_its_line_ceiling():
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in PACKAGE.glob("*.py"))
    assert lines <= SRC_LINE_CEILING
