"""The package surface and the CLI's entry points.

`sdcalc` imports its submodules lazily (PEP 562), and each CLI
subcommand imports only the modules it runs.  The import-boundary cases
start a fresh interpreter each, because a module once imported stays in
`sys.modules` for the rest of the process.
"""

import ast
import doctest
import importlib
import json
import os
import re
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest

import sdcalc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
ENV = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")

ALL = [
    "BlfData", "Circuit", "Classification", "Detection", "Diagram", "FormInvariants",
    "KirbyData", "LinkingMatrix", "SumForm", "SurgeredAction", "ValidationReport", "Verdict",
    "apply_blowup", "apply_stabilization", "apply_word", "circuit", "classify", "contract",
    "delta_twist", "detect", "double", "duality_coefficients", "emit_kirby",
    "euler_characteristics", "fiber_framing", "form_invariants", "generate", "genus1",
    "handles", "hayano_surgery", "homology", "is_primitive", "linking", "linking_matrix",
    "monodromy", "mu_tilde_matrix", "mu_tilde_word", "normalize", "normalize_sum", "pairing",
    "sigma_sequence", "subst", "surgered_action", "switch", "to_blf", "twist_matrix",
    "validate", "verdict",
]

HELP = """\
usage: sdcalc [-h] [--version]
              {validate,info,classify,detect,substitute,switch,double,monodromy,blf,kirby,generate}
              ...

surface-diagram calculus on first homology

positional arguments:
  {validate,info,classify,detect,substitute,switch,double,monodromy,blf,kirby,generate}
    validate            check circuit and switch invariants
    info                framings, linking matrix, invariants, euler numbers
    classify            canonical connected sums (genus 1, untwisted)
    detect              find substitution patterns
    substitute          apply a substitution
    switch              rotate the reference point
    double              close off a circuit by doubling
    monodromy           lift word, matrix, surgered action, verdict
    blf                 broken-fibration handle data
    kirby               handle-decomposition data
    generate            seeded random closed genus-1 circuit with known
                        classification

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""


def python(*args, stdin=None):
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          env=ENV, cwd=ROOT, timeout=60)


# ------------------------------------------------------------ lazy surface

def test_all_is_unchanged():
    assert sorted(sdcalc.__all__) == ALL


@pytest.mark.parametrize("name", ALL)
def test_every_public_name_resolves_to_its_home_object(name):
    obj = getattr(sdcalc, name)
    if name in ("circuit", "genus1", "handles", "homology", "monodromy", "subst"):
        assert obj is sys.modules["sdcalc." + name]
    else:
        assert obj.__module__.startswith("sdcalc.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_binds_every_name():
    ns = {}
    exec("from sdcalc import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == ALL
    assert all(ns[name] is getattr(sdcalc, name) for name in ALL)


def test_dir_lists_the_public_names():
    names = dir(sdcalc)
    assert names == sorted(names)
    assert {"__all__", "__version__"} <= set(names)
    assert set(ALL) <= set(names)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        sdcalc.nope
    assert not hasattr(sdcalc, "nope")


# ---------------------------------------------------------- import boundary

PROBE = """\
import contextlib, io, json, sys
{statement}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("sdcalc."))))
"""

RUN = """\
from sdcalc import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run({argv!r}) == 0
"""

BASE = {"sdcalc.cli", "sdcalc.circuit", "sdcalc.homology"}
HANDLES = BASE | {"sdcalc.handles"}
CLASSIFY = BASE | {"sdcalc.subst", "sdcalc.genus1"}

# argv, the sdcalc modules it loads, and the budget of source lines it
# compiles: those modules' and sdcalc/__init__.py's.  A run that writes no
# bytecode (PYTHONDONTWRITEBYTECODE=1) compiles every line it loads.  A
# change may lower a budget; one that raises it says so in CHANGES.md.
SUBCOMMANDS = {
    "validate": (["validate", "two.sd"], BASE, 1111),
    "switch": (["switch", "two.sd", "--k", "2"], BASE, 1111),
    # full turns: only a twisted diagram loads the matrix powers
    "switch_turns": (["switch", "two.sd", "--k", "7"], BASE, 1111),
    "switch_twisted": (["switch", "twisted.sd", "--k", "7"], BASE | {"sdcalc._power"}, 1192),
    "double": (["double", "open.sd"], BASE, 1111),
    "detect": (["detect", "two.sd"], BASE | {"sdcalc.subst"}, 1351),
    "substitute": (["substitute", "blowup3.sd", "--op", "blowup", "--pos", "1", "--exp", "1"],
                   BASE | {"sdcalc.subst"}, 1351),
    "classify": (["classify", "two.sd"], CLASSIFY, 1614),
    "generate": (["generate", "--seed", "1", "--steps", "3"], CLASSIFY, 1614),
    "info": (["info", "two.sd"], HANDLES, 1509),
    "blf": (["blf", "two.sd"], HANDLES, 1509),
    "kirby": (["kirby", "two.sd"], HANDLES, 1509),
    "monodromy": (["monodromy", "genus2.sd"], BASE | {"sdcalc.monodromy"}, 1354),
}


def data_argv(argv):
    return [str(DATA / a) if a.endswith(".sd") else a for a in argv]


def source_lines(modules):
    paths = [SRC / "sdcalc" / "__init__.py"] + [SRC / (m.replace(".", "/") + ".py") for m in modules]
    return sum(len(p.read_text().splitlines()) for p in paths)


@pytest.mark.parametrize("argv, loaded, budget", SUBCOMMANDS.values(), ids=SUBCOMMANDS)
def test_each_subcommand_imports_only_what_it_runs(argv, loaded, budget):
    proc = python("-c", PROBE.format(statement=RUN.format(argv=data_argv(argv))))
    assert proc.returncode == 0, proc.stderr.decode()
    assert set(json.loads(proc.stdout)) == loaded
    assert source_lines(loaded) <= budget


IMPORTED = re.compile(r"^import time: +\d+ \| +\d+ \| +(\S+)$", re.M)


@pytest.mark.parametrize("argv", [argv for argv, _, _ in SUBCOMMANDS.values()], ids=SUBCOMMANDS)
def test_module_runs_import_neither_the_cli_nor_future(argv):
    # under -m the running cli.py is __main__: a module that imported
    # sdcalc.cli would compile and run it a second time
    proc = python("-X", "importtime", "-m", "sdcalc.cli", *data_argv(argv))
    assert proc.returncode == 0, proc.stderr.decode()
    imported = set(IMPORTED.findall(proc.stderr.decode()))
    assert {"sdcalc", "sdcalc.circuit"} <= imported
    assert not imported & {"sdcalc.cli", "__future__"}


# records are tuples, so no start-up pays for dataclasses or inspect; and
# the arithmetic stays in exact int, without fractions or decimal
HEAVY = ("dataclasses", "inspect", "fractions", "decimal")

HEAVY_PROBE = """\
import contextlib, io, json, sys
def heavy():
    return [m for m in {heavy!r} if m in sys.modules]
import sdcalc.cli
seen = {{"import sdcalc.cli": heavy()}}
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert sdcalc.cli.run(argv) == 0
    seen[" ".join(argv)] = heavy()
print(json.dumps(seen))
"""


def test_no_subcommand_loads_dataclasses_or_inspect():
    bare = python("-c", "import sys; print(sorted(set(sys.modules) & %r))" % (set(HEAVY),))
    if bare.stdout.strip() != b"[]":
        pytest.skip("a bare interpreter already loads %s" % bare.stdout.decode().strip())
    argvs = [data_argv(argv) for argv, _, _ in SUBCOMMANDS.values()]
    proc = python("-c", HEAVY_PROBE.format(heavy=HEAVY, argvs=argvs))
    assert proc.returncode == 0, proc.stderr.decode()
    seen = json.loads(proc.stdout)
    assert len(seen) == 1 + len(SUBCOMMANDS)
    assert seen == dict.fromkeys(seen, [])


@pytest.mark.parametrize("statement, loaded", [
    ("import sdcalc", set()),
    ("import sdcalc.cli", BASE),
    ("import sdcalc; sdcalc.monodromy",
     {"sdcalc.circuit", "sdcalc.homology", "sdcalc.monodromy"}),
    ("from sdcalc import classify", CLASSIFY - {"sdcalc.cli"}),
], ids=["sdcalc", "sdcalc.cli", "submodule", "function"])
def test_imports_load_no_more_than_they_need(statement, loaded):
    proc = python("-c", PROBE.format(statement=statement))
    assert proc.returncode == 0, proc.stderr.decode()
    assert set(json.loads(proc.stdout)) == loaded


# ---------------------------------------------------------------- source

MODULES = sorted(p for p in (SRC / "sdcalc").glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    # __init__ is left out: it names its submodules' objects only in strings
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, "%s imports names it never uses: %s" % (path.name, unused)


SOURCES = sorted((SRC / "sdcalc").glob("*.py"))

# the lines of src/sdcalc/*.py: a change may lower this bound; one that
# raises it says so in CHANGES.md, as for the budgets above
SRC_LINES = 2336


def test_src_does_not_grow():
    assert sum(len(p.read_text().splitlines()) for p in SOURCES) <= SRC_LINES


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_assert_and_no_dataclasses_or_inspect(path):
    # python -O strips assert, so input checks must raise explicitly
    tree = ast.parse(path.read_text())
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not asserts, "%s uses assert at lines %s" % (path.name, asserts)
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    heavy = [m for m in modules if m and m.split(".")[0] in HEAVY]
    assert not heavy, "%s imports %s" % (path.name, heavy)


def test_every_module_level_name_is_used():
    # a module-level name that no module reads and that is not public is
    # dead code, even when a test names it
    trees = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    read = set()
    for node in chain.from_iterable(map(ast.walk, trees.values())):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += ["%s.%s" % (module, name) for name in names
                     if not (name.startswith("__") and name.endswith("__"))
                     and name not in sdcalc.__all__ and name not in read]
    assert not dead, "names that nothing uses: %s" % dead


# ------------------------------------------------------------- entry points

def test_module_entry_point_runs_cleanly():
    # runpy warns on stderr if the package has already imported sdcalc.cli
    proc = python("-m", "sdcalc.cli", "validate", str(DATA / "two.sd"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"ok (Exact)\n", b"")


@pytest.mark.parametrize("flag, out", [("--version", "sdcalc 0.1.0\n"), ("-h", HELP)])
def test_module_entry_point_flags(flag, out):
    proc = python("-m", "sdcalc.cli", flag)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (0, out, b"")


def test_console_script_target_runs():
    pyproject = (ROOT / "pyproject.toml").read_text()
    module, attr = re.search(r'^sdcalc = "(.+)"$', pyproject, re.M).group(1).split(":")
    assert (module, attr) == ("sdcalc.cli", "main")
    # what the installed `sdcalc` script does
    script = "import sys; from %s import %s; sys.argv[0] = 'sdcalc'; sys.exit(%s())" % (
        module, attr, attr)
    proc = python("-c", script, "classify", "-", stdin=(DATA / "two.sd").read_bytes())
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode().startswith("canonical form")


def test_readme_quick_start_runs():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert (result.attempted, result.failed) == (3, 0)
