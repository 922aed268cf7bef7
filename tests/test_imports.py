"""Every name a library module imports is used in it, every error class is
raised somewhere, the builtin `sum` adds only integers, only the tree reads
its own root distances, no module reads a random generator's internals, and
every name the benchmark tracer binds resolves (no linter is installed)."""

from __future__ import annotations

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cat0ot"
# the package's __init__ imports names to re-export them
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as a name expression anywhere,
    inside a string annotation, or in `__all__`.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [a.annotation for a in every if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read |= {n.id for n in ast.walk(ast.parse(ann.value)) if isinstance(n, ast.Name)}
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from typing import Optional, Sequence\n"
        "import os.path\n"
        "import json as js\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["Optional (line 1)", "js (line 3)"]


def _module_all(source: str):
    """The names listed in a module's `__all__`, or None when it has none."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts}
    return None


def test_package_exports_are_listed_in_each_module_all():
    # what `from cat0ot.<module> import *` gives must cover what the package re-exports
    missing = []
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = _module_all((SRC / f"{node.module}.py").read_text())
            if listed is not None:
                missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    assert missing == []


def dead_errors(errors_source: str, module_sources: list[str]) -> list[str]:
    """The `Cat0otError` subclasses defined in errors_source that no `raise X`
    or `raise X(...)` statement in module_sources names."""
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef)
    }

    def domain(name: str) -> bool:
        return name == "Cat0otError" or any(domain(b) for b in bases.get(name, ()))

    raised = set()
    for source in module_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return sorted(n for n in bases if n != "Cat0otError" and domain(n) and n not in raised)


def test_every_error_class_is_raised():
    modules = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert dead_errors((SRC / "errors.py").read_text(), modules) == []


def test_the_check_sees_a_dead_error_class():
    errors = (
        "class Cat0otError(Exception): pass\n"
        "class Used(Cat0otError): pass\n"
        "class Dead(Used): pass\n"
        "class Bare(Cat0otError): pass\n"
        "class Foreign(ValueError): pass\n"
    )
    module = "def f(exc):\n    if exc:\n        raise exc\n    raise Used('x')\n"
    assert dead_errors(errors, [module]) == ["Bare", "Dead"]
    assert dead_errors(errors, [module, "raise Bare\n"]) == ["Dead"]


# From Python 3.12 the builtin sum adds floats with compensation, so a float
# `sum` gives report bits that depend on the Python version; float totals are
# left folds of `operator.add`. These integer tallies may call it, each keyed
# by its module and top-level function.
INTEGER_SUMS = Counter(
    {
        ("harness.py", "_run_twist"): 1,  # sum(holds), over booleans
        ("transport.py", "check_cyclic_monotonicity"): 2,  # tuple total, violation count
    }
)


def builtin_sum_uses(source: str) -> Counter:
    """How often each top-level function or class of source reads the name
    `sum`, keyed by its name ("" for module-level code)."""
    uses = Counter()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "")
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == "sum" and isinstance(node.ctx, ast.Load):
                uses[owner] += 1
    return uses


def test_builtin_sum_only_tallies_integers():
    uses = Counter()
    for path in sorted(SRC.glob("*.py")):
        uses.update({(path.name, f): c for f, c in builtin_sum_uses(path.read_text()).items()})
    assert uses - INTEGER_SUMS == Counter()


def test_the_check_sees_a_builtin_sum():
    source = (
        "def f(xs):\n"
        "    return sum(xs) + max(map(sum, xs))\n"
        "class A:\n"
        "    def total(self):\n"
        "        return self.values.sum()\n"
        "TOTAL = sum([0.5, 0.25])\n"
    )
    assert builtin_sum_uses(source) == Counter({"f": 2, "": 1})


# A tree path length is a difference of root distances, summed by one helper,
# spaces._path_length, that TreeImpl._route and its pair form _route_rows share;
# every other module asks the tree for distances instead of reading its tables.


def root_distance_reads(source: str) -> list[str]:
    """The attribute reads in source whose name holds `droot`, the tree's
    root-distance tables, in line order."""
    reads = [
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and "droot" in node.attr
    ]
    return [f"{attr} (line {line})" for line, attr in sorted(reads)]


def test_only_the_tree_reads_its_root_distances():
    reads = {m: root_distance_reads((SRC / m).read_text()) for m in MODULES if m != "spaces.py"}
    assert {m: r for m, r in reads.items() if r} == {}


def test_the_check_sees_a_root_distance_read():
    source = (
        "def far(impl, k):\n"
        "    hi = impl._pre_droot\n"
        "    return impl.droot[k] + hi[k] + impl.distance(impl.root, k)\n"
    )
    assert root_distance_reads(source) == ["_pre_droot (line 2)", "droot (line 3)"]


# Sampled points are read off random() doubles, which a Philox stream gives
# alike on every platform; how numpy spends the stream's bits on other draws
# is its own, so no module reads the bit generator, its raw words or its state.
GENERATOR_INTERNALS = ("bit_generator", "random_raw", "state")


def generator_internal_reads(source: str) -> list[str]:
    """The attribute reads in source of a random generator's internals, in
    line order."""
    reads = [
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in GENERATOR_INTERNALS
    ]
    return [f"{attr} (line {line})" for line, attr in sorted(reads)]


def test_no_module_reads_a_generator_s_internals():
    reads = {m: generator_internal_reads((SRC / m).read_text()) for m in MODULES}
    assert {m: r for m, r in reads.items() if r} == {}


def test_the_check_sees_a_generator_internal_read():
    source = (
        "def replay(rng, n):\n"
        "    bitgen = rng.bit_generator\n"
        "    saved, words = bitgen.state, bitgen.random_raw(n)\n"
        "    return rng.random(n), rng.states\n"
    )
    assert generator_internal_reads(source) == ["bit_generator (line 2)", "random_raw (line 3)", "state (line 3)"]


# perfbench/tracing.py wraps library functions by name, and its hooks read some
# of their arguments by name; no tier-1 scenario reaches every hook, so a
# rename would first show in a traced benchmark run. The tracer is read as
# source here, never imported or changed.
TRACER = SRC.parent.parent / "perfbench" / "tracing.py"


def _tracer_bindings(source: str) -> tuple:
    """(boundaries, reads) of a tracer source: its literal `BOUNDARIES` dict,
    span name -> (module, attribute), and span name -> the argument names
    that the hook installed for it reads from its bound-arguments dict."""
    tree = ast.parse(source)
    boundaries = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets)
    )
    methods = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    reads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "hooks" for t in node.targets):
            for key, hook in zip(node.value.keys, node.value.values):
                fn = methods[hook.attr]
                args = fn.args.args[1].arg  # after self
                reads[key.value] = sorted(
                    {
                        sub.slice.value
                        for sub in ast.walk(fn)
                        if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name) and sub.value.id == args
                    }
                )
    return boundaries, reads


def _bound_functions(module_path: str, attr: str) -> list:
    """The functions a boundary names: a module attribute, or for "*Impl.m"
    the method m of every impl class in the module that defines one."""
    module = importlib.import_module(module_path)
    if attr.startswith("*Impl."):
        meth = attr.split(".", 1)[1]
        classes = [c for n, c in vars(module).items() if n.endswith("Impl") and isinstance(c, type)]
        return [vars(c)[meth] for c in classes if meth in vars(c)]
    return [getattr(module, attr)] if hasattr(module, attr) else []


def tracer_name_faults(source: str) -> list[str]:
    """Each boundary of a tracer source that binds no function, and each
    argument a hook reads that a bound function does not take."""
    boundaries, reads = _tracer_bindings(source)
    faults = []
    for name, (module_path, attr) in boundaries.items():
        fns = _bound_functions(module_path, attr)
        if not fns:
            faults.append(f"{name}: {module_path}.{attr} does not resolve")
        for fn in fns if name in reads else []:  # scipy's builtins give no signature
            params = inspect.signature(fn).parameters
            faults += [f"{name}: {fn.__qualname__} has no parameter {a}" for a in reads[name] if a not in params]
    return faults


def test_the_tracer_binds_names_the_library_defines():
    source = TRACER.read_text()
    boundaries, reads = _tracer_bindings(source)
    # the parse finds the boundaries and the hooks that no tier-1 scenario runs
    assert "transport.interior_duals" in boundaries and "spaces.distance" in boundaries
    assert {"n_samples", "psi"} <= {a for names in reads.values() for a in names}
    assert tracer_name_faults(source) == []


def test_the_check_sees_a_name_the_library_lacks():
    source = (
        "BOUNDARIES = {\n"
        "    'a': ('cat0ot.transport', 'check_cyclic_monotonicity'),\n"
        "    'b': ('cat0ot.transport', 'no_such_function'),\n"
        "    'c': ('cat0ot.spaces', '*Impl.no_such_method'),\n"
        "    'd': ('cat0ot.spaces', '*Impl.distance'),\n"
        "}\n"
        "class Tracer:\n"
        "    def count_a(self, args, _out):\n"
        "        return args['max_len'], args['cycle_cap']\n"
        "    def count_d(self, bound, out):\n"
        "        return bound['p'], bound['point']\n"
        "    def install(self):\n"
        "        hooks = {'a': self.count_a, 'd': self.count_d}\n"
    )
    faults = tracer_name_faults(source)
    assert faults[:3] == [
        "a: check_cyclic_monotonicity has no parameter cycle_cap",
        "b: cat0ot.transport.no_such_function does not resolve",
        "c: cat0ot.spaces.*Impl.no_such_method does not resolve",
    ]
    # every impl's distance takes p and q, and none a point
    assert faults[3:] and all(f.startswith("d: ") and f.endswith("has no parameter point") for f in faults[3:])
