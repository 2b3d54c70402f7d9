"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "flaremon"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PERFBENCH = SRC.parent.parent / "perfbench"
README = SRC.parent.parent / "README.md"


def unused_imports(source: str):
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as a bare name anywhere in the
    module: in code, as the root of an attribute chain, or in an unquoted
    annotation.  Quoted annotations are not looked into.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_sees_unused_and_used_names():
    source = ("import os\nimport numpy as np\nfrom typing import List, Dict\n"
              "def f(x: List[int]):\n    return np.asarray(x)\n")
    assert unused_imports(source) == [(1, "os"), (3, "Dict")]


def imported_modules(source: str):
    """Top-level names of the modules a source imports by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def identifiers(source: str):
    """Every name a module reads, binds, imports or takes as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(n for n in (node.name, node.asname) if n)
    return out


@pytest.mark.parametrize("name", ["pipeline.py", "cli.py"])
def test_orchestration_reads_and_writes_no_files(name):
    """Every file format lives in formats.py, so the orchestration and the
    command line need neither JSON nor paths."""
    source = (SRC / name).read_text(encoding="utf-8")
    assert imported_modules(source) & {"json", "os"} == set()


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "formats.py"],
    ids=lambda p: p.name)
def test_feature_log_header_only_in_formats(path):
    assert "FEATURE_LOG_HEADER" not in identifiers(
        path.read_text(encoding="utf-8"))


def test_format_checkers_see_imports_and_names():
    source = ("import os.path\nfrom json import dumps\nfrom . import x\n"
              "from .formats import FEATURE_LOG_HEADER as H\n"
              "y = formats.LOG\n")
    assert imported_modules(source) == {"os", "json"}
    assert {"H", "FEATURE_LOG_HEADER", "LOG", "formats", "y"} <= identifiers(
        source)


TESTS = SRC.parent.parent / "tests"
CLOCKS = {"perf_counter", "perf_counter_ns", "timeit"}


def clocks(source: str):
    """The timers a module reads: `perf_counter`, `perf_counter_ns` or
    anything named `timeit`, imported or taken as an attribute."""
    return identifiers(source) & CLOCKS


def test_one_clock_in_tests():
    """Layer timings come from the one timer in `tests/microbench.py`, so
    no other module under tests/ grows a timer of its own."""
    assert [p.name for p in sorted(TESTS.glob("*.py"))
            if p.name != "microbench.py"
            and clocks(p.read_text(encoding="utf-8"))] == []


def test_clock_checker_sees_timers():
    assert clocks("import time, timeit\nfrom time import perf_counter as p\n"
                  "t = time.perf_counter_ns()\n") == CLOCKS
    assert clocks("import time\nt = time.monotonic()  # perf_counter\n"
                  "s = 'timeit'\n") == set()
    assert clocks((TESTS / "microbench.py").read_text(
        encoding="utf-8")) == {"perf_counter"}


def to_array_calls(source: str):
    """Lines that call a method named to_array: a full-frame mask decode."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "to_array")


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_no_full_frame_mask_decodes(path):
    """Masks are read through core.foreground_indices, which builds no
    frame.  Only tests decode a whole frame (fullframe_oracle.decode_runs);
    no module calls a to_array."""
    assert to_array_calls(path.read_text(encoding="utf-8")) == []


def test_decode_checker_sees_calls():
    source = ("def f(m, x):\n    a = m.to_array()\n    to_array = 1\n"
              "    return x.to_array\n")
    assert to_array_calls(source) == [2]


def python_out(code: str, cwd=None) -> str:
    """The last line a fresh interpreter prints, running `code` in `cwd`."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                         check=True, capture_output=True, text=True).stdout
    return out.strip().rsplit("\n", 1)[-1]


def loaded_by_cli_import(condition: str) -> str:
    """The sorted names `m` of sys.modules that meet `condition` after a
    fresh interpreter imports flaremon.cli."""
    return python_out("import sys, flaremon.cli; print(sorted(m for m in "
                      f"sys.modules if {condition}))")


def test_cli_import_loads_no_http_client():
    """Only `--labeling llm` talks HTTP; start-up must not pay for it."""
    assert loaded_by_cli_import(
        "m.partition('.')[0] in ('requests', 'urllib3') or m in "
        "('ssl', 'http.client', 'urllib.request')") == "[]"


def test_cli_import_loads_no_dataclasses_or_segmenter():
    """Records are named tuples, and only box-only regions need the region
    grow, so start-up defines no dataclass and compiles no segmenter."""
    assert loaded_by_cli_import(
        "m in ('dataclasses', 'flaremon.segment')") == "[]"


def test_cli_import_loads_no_simulator_or_labeling():
    """`monitor`, `eval` and `plot` run neither; `simulate`, `preset:`
    inputs, `label` and `train` import them when they run."""
    assert loaded_by_cli_import(
        "m in ('flaremon.simulator', 'flaremon.labeling')") == "[]"


def test_file_input_train_and_monitor_load_no_simulator(tmp_path):
    """`train` and `monitor` on files run no simulator code, so a change to
    the renderer cannot move their timings."""
    python_out("from flaremon import formats\n"
               "from flaremon.simulator import preset, render\n"
               "spec = preset('three_stacks')._replace(frame_count=10)\n"
               "formats.save_scene(render(spec), 'scene')", tmp_path)
    assert python_out(
        "import sys\nfrom flaremon.cli import main\n"
        "files = ['scene/annotations.jsonl', '--frames', 'scene/frames']\n"
        "assert main(['train', '--annotations', *files, '--out', 'm.json'])"
        " == 0\n"
        "assert main(['monitor', '--model', 'm.json', '--input', *files])"
        " == 0\n"
        "print('flaremon.simulator' in sys.modules)", tmp_path) == "False"


def bound_names(source: str):
    """Names a module binds at its top level."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                out.update(n.id for n in ast.walk(target)
                           if isinstance(n, ast.Name))
    return out


def test_package_root_exports_nothing():
    """Each name is imported from the module that defines it, so that
    importing one module loads no other."""
    assert bound_names((SRC / "__init__.py").read_text(
        encoding="utf-8")) == {"__version__"}


def test_bound_names_sees_every_binding():
    source = ("import os.path\nfrom .core import BBox as B, Mask\n"
              "x, (y, z) = 1, (2, 3)\nw: int = 4\ndef f(): v = 1\n"
              "class C: pass\n")
    assert bound_names(source) == {"os", "B", "Mask", "x", "y", "z", "w",
                                   "f", "C"}


def public_definitions(source: str):
    """The public functions and classes a module defines at its top level."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


# Public names that nothing in src/ or perfbench/ uses, each with the reason
# it stays in src/.
UNUSED_PUBLIC = {
    "derive_alerts_from_log": "the audit replay the README documents: the "
                              "feature log alone re-derives every alert",
}


def test_no_test_only_public_api():
    """A public function or class named nowhere in src/ or perfbench/ but at
    its own definition serves only the tests, and belongs in tests/."""
    used = set().union(*(identifiers(p.read_text(encoding="utf-8"))
                         for p in [*SRC.glob("*.py"),
                                   *PERFBENCH.rglob("*.py")]))
    unused = {name for p in MODULES
              for name in public_definitions(p.read_text(encoding="utf-8"))
              if name not in used}
    assert unused == set(UNUSED_PUBLIC)


def test_public_definitions_skip_private_and_nested_names():
    source = ("def f():\n    def g(): pass\nclass C:\n    def m(self): "
              "pass\ndef _h(): pass\nx = 1\n")
    assert public_definitions(source) == ["f", "C"]


def defined_twice(sources):
    """Each top-level function or class name, leading underscores stripped,
    that more than one of the named sources defines, with the sorted names
    of those sources."""
    where = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                where.setdefault(node.name.lstrip("_"), set()).add(module)
    return {name: sorted(ms) for name, ms in where.items() if len(ms) > 1}


def test_one_reference_per_fact():
    """A test reference defines each function or class once: two oracles
    of one fact could drift apart while each still passes its own tests."""
    assert defined_twice({p.name: p.read_text(encoding="utf-8")
                          for p in TESTS.glob("*_oracle.py")}) == {}


def test_twice_defined_checker_sees_shared_public_names():
    sources = {"b.py": "def f(): pass\ndef _g(): pass\nclass C: pass\n",
               "a.py": "def f(): pass\ndef g(): pass\n"
                       "def h():\n    def C(): pass\n"}
    assert defined_twice(sources) == {"f": ["a.py", "b.py"],
                                      "g": ["a.py", "b.py"]}


def error_subclasses(source: str):
    """The classes a module defines on FlaremonError, directly or through
    another of its classes."""
    found = {"FlaremonError"}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(b, "id", None) in found for b in node.bases):
            found.add(node.name)
    return found - {"FlaremonError"}


def caught_names(source: str):
    """The names of the exception types `except` clauses catch."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            out.update(getattr(t, "id", None) or t.attr for t in types)
    return out


# FlaremonError subclasses that no `except` clause in src/ names, each with
# the reason it stays a class of its own.
UNCAUGHT_ERRORS = {
    "TrainingDataError": "what a caller decides: data a fit cannot use",
    "NumericalError": "what a caller decides: a numerical failure",
    "UnparseableReply": "what a caller decides: a bad LLM reply",
}


def test_every_error_class_is_caught_or_decides_something():
    """An error class that src/ never catches and no caller tells apart
    from its neighbours is a name without a use; its raise sites belong to
    the class whose handling they share."""
    caught = set().union(*(caught_names(p.read_text(encoding="utf-8"))
                           for p in MODULES))
    errors = error_subclasses((SRC / "errors.py").read_text(encoding="utf-8"))
    assert errors - caught == set(UNCAUGHT_ERRORS)


def test_error_checkers_see_subclasses_and_except_clauses():
    source = ("class FlaremonError(Exception): pass\n"
              "class A(FlaremonError): pass\nclass B(A): pass\n"
              "class C(ValueError): pass\n"
              "try:\n    pass\nexcept A:\n    pass\n"
              "except (errors.B, KeyError) as e:\n    pass\n"
              "except:\n    pass\n")
    assert error_subclasses(source) == {"A", "B"}
    assert caught_names(source) == {"A", "B", "KeyError"}


def _is_record(node):
    """A dataclass, or a class based on NamedTuple."""
    return any(ast.unparse(d).startswith(("dataclass", "dataclasses."))
               for d in node.decorator_list) or any(
        ast.unparse(b).endswith("NamedTuple") for b in node.bases)


def defaulted_parameters(source: str):
    """(callee, parameter, position) of each defaulted parameter of a public
    function or method and of each defaulted field of a public dataclass
    or NamedTuple.  The callee is the name a call uses: the class for
    `__init__`, `__new__` and fields.  Positions skip `self` and `cls`;
    keyword-only parameters have None."""
    out = []

    def visit(fn, callee, skip):
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out.extend((callee, a.arg, i - skip)
                   for i, a in enumerate(positional[first:], first))
        out.extend((callee, a.arg, None)
                   for a, d in zip(args.kwonlyargs, args.kw_defaults)
                   if d is not None)

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            visit(node, node.name, 0)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        if _is_record(node):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            out.extend((node.name, f.target.id, i)
                       for i, f in enumerate(fields) if f.value is not None)
        for fn in node.body:
            if isinstance(fn, ast.FunctionDef) and (
                    fn.name in ("__init__", "__new__")
                    or not fn.name.startswith("_")):
                static = "staticmethod" in map(ast.unparse,
                                               fn.decorator_list)
                visit(fn, node.name if fn.name.startswith("_") else fn.name,
                      0 if static else 1)
    return out


def passed_arguments(source: str):
    """(callee, key) of each argument a call passes, keyed by position or
    keyword; a `*` or `**` spread is keyed "*" or "**"."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        out.update((name, "*" if isinstance(a, ast.Starred) else i)
                   for i, a in enumerate(node.args))
        out.update((name, k.arg or "**") for k in node.keywords)
    return out


# Defaulted parameters and fields that nothing in src/ or perfbench/ passes,
# each with the reason it stays settable.
UNPASSED_DEFAULTS = {
    "llm_label.sleep": "test seam: the retry tests record the backoff",
    "review.input_fn": "test seam: the review tests script the answers",
    "review.print_fn": "test seam: the review tests capture the prompts",
    "SmokeSpec.gap": "simulator scene spec: a scene may set any field",
    "SceneSpec.noise_amplitude": "simulator scene spec: a scene may set any "
                                 "field",
}


def test_every_default_is_passed_somewhere():
    """A default that no caller in src/ or perfbench/ overrides is a
    setting only the tests change; it belongs in a module constant."""
    passed = set().union(*(passed_arguments(p.read_text(encoding="utf-8"))
                           for p in [*SRC.glob("*.py"),
                                     *PERFBENCH.rglob("*.py")]))
    unpassed = {f"{callee}.{name}" for p in MODULES
                for callee, name, at in defaulted_parameters(
                    p.read_text(encoding="utf-8"))
                if not {(callee, name), (callee, at), (callee, "*"),
                        (callee, "**")} & passed}
    assert unpassed == set(UNPASSED_DEFAULTS)


def test_default_checkers_see_parameters_fields_and_calls():
    source = ("@dataclass(frozen=True)\nclass C:\n    a: int\n"
              "    b: int = 1\n    def m(self, x, y=2, *, z=3): pass\n"
              "    @staticmethod\n    def s(u=4): pass\n"
              "class D:\n    def __init__(self, v=5): pass\n"
              "def f(p, q=6): pass\ndef _g(r=7): pass\n"
              "class N(typing.NamedTuple):\n    c: int\n    d: int = 8\n"
              "class _B(NamedTuple):\n    e: int = 9\n"
              "class K(_B):\n    def __new__(_cls, e, g=10): pass\n")
    assert defaulted_parameters(source) == [
        ("C", "b", 1), ("m", "y", 1), ("m", "z", None), ("s", "u", 0),
        ("D", "v", 0), ("f", "q", 1), ("N", "d", 1), ("K", "g", 1)]
    assert passed_arguments("f(1, *a, q=2)\no.m(**kw)\n") == {
        ("f", 0), ("f", "*"), ("f", "q"), ("m", "**")}


def fixed_settings(readme: str):
    """(constant, module) of each row of the README's "Fixed settings"
    table, the module without its `flaremon.` prefix."""
    section = readme.split("\n## Fixed settings\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \|.*\| `flaremon\.(\w+)` \|$", section,
                      flags=re.MULTILINE)


def test_fixed_settings_exist():
    """Every constant the README lists as a fixed setting is bound in the
    module its row names, so a removed or renamed setting leaves no row."""
    rows = fixed_settings(README.read_text(encoding="utf-8"))
    assert rows
    assert [(name, module) for name, module in rows
            if name not in bound_names(
                (SRC / f"{module}.py").read_text(encoding="utf-8"))] == []


def test_fixed_settings_checker_reads_only_its_table():
    readme = ("# x\n| `Z` | 0 | `flaremon.core` |\n## Fixed settings\n\n"
              "| Constant | Value | Module |\n| --- | --- | --- |\n"
              "| `A` | 1 (a | b) | `flaremon.core` |\n"
              "| `B_C` | 2 | `flaremon.segment` |\n\n## Next\n"
              "| `D` | 3 | `flaremon.core` |\n")
    assert fixed_settings(readme) == [("A", "core"), ("B_C", "segment")]


# The names of `perfbench.tracing.WRAPPED` that no longer resolve, and what
# does their work now.  The tracer reports each as not found and times
# nothing for it; ROADMAP item 1b re-points them.
STALE_TRACED = {
    ("flaremon.core", "Mask.to_array"):
        "masks decode through core.foreground_indices",
    ("flaremon.pipeline", "format_feature_log"):
        "formats.feature_log_writer writes the log a row at a time",
    ("flaremon.segment", "segment_box"):
        "segment.segment_frame grows all of a frame's boxes in one batch",
    ("flaremon.features", "flame_angle"):
        "the angle comes from features.flame_moments and angle_from_moments",
}


def resolves(source: str, attr: str) -> bool:
    """Whether the module binds `attr`, a name or a Class.method."""
    name, _, member = attr.partition(".")
    if not member:
        return name in bound_names(source)
    return any(isinstance(node, ast.ClassDef) and node.name == name
               and member in {n.name for n in node.body
                              if isinstance(n, ast.FunctionDef)}
               for node in ast.parse(source).body)


def test_traced_names_resolve_in_src():
    """A rename in `src/` cannot silently blind a per-layer metric such as
    `tracker.kalman_s`: every traced name resolves but the stale ones."""
    from perfbench.tracing import WRAPPED

    unresolved = {(module, attr) for module, attr, _ in WRAPPED
                  if not resolves((SRC / f"{module.split('.')[1]}.py")
                                  .read_text(encoding="utf-8"), attr)}
    assert unresolved == set(STALE_TRACED)


def test_resolves_sees_names_and_methods():
    source = ("from .a import b\nclass C:\n    def m(self):\n        pass\n"
              "def f():\n    pass\n")
    assert [resolves(source, a) for a in ("b", "C", "f", "C.m", "g", "C.x",
                                          "D.m", "f.m")] == [
        True, True, True, True, False, False, False, False]
