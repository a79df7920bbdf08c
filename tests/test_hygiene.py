"""Source hygiene: every import is used, every definition has a caller,
every error class is raised, the commands load no scipy module where
numpy's own LAPACK serves the Newton solves, nor OpenSSL's binding, and
verify calls nothing in numpy.linalg."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import fdelab
from fdelab import comoving

PACKAGE = Path(fdelab.__file__).resolve().parent


def _bound_names(node):
    """(bound name, line) for each alias of an import statement."""
    for alias in node.names:
        if isinstance(node, ast.Import):
            name = alias.asname or alias.name.split(".")[0]
        else:
            name = alias.asname or alias.name
        yield name, node.lineno


def unused_imports(source: str) -> list[tuple[str, int]]:
    """Imported names never read in the module and not listed in __all__."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(_bound_names(node))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(_bound_names(node))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(name, line) for name, line in imported if name not in used]


def test_unused_import_detector():
    src = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport numpy as np\n"
        "from a import b, c as d\n"
        "__all__ = ['b']\n"
        "x: np.ndarray = math.pi\n"
    )
    assert unused_imports(src) == [("os", 3), ("d", 5)]


def test_package_has_no_unused_imports():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in unused_imports(path.read_text())
    ]
    assert found == []


# -- parameters never read -------------------------------------------------------


def unused_parameters(source: str) -> list[tuple[str, str, int]]:
    """(function, parameter, line) for each parameter of a def or lambda
    that its body never reads, nested functions included.  self, cls and
    names with a leading underscore are exempt: an underscore marks a slot
    that an interface fills positionally."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        reads = {n.id for part in body for n in ast.walk(part)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found.extend(
            (name, a.arg, a.lineno) for a in params
            if a is not None and a.arg not in reads and a.arg not in ("self", "cls")
            and not a.arg.startswith("_")
        )
    return found


def test_unused_parameter_detector():
    src = (
        "def f(a, b, *args, c=1, _slot=None, **kw):\n"
        "    def g(x):\n        return a + x\n"
        "    return g\n"
        "class K:\n"
        "    def m(self, used, unused):\n        return used\n"
        "h = lambda p, q: p\n"
    )
    assert unused_parameters(src) == [
        ("f", "b", 1), ("f", "args", 1), ("f", "c", 1), ("f", "kw", 1),
        ("m", "unused", 6), ("<lambda>", "q", 8),
    ]


def test_package_has_no_unused_parameters():
    found = [
        f"{path.name}:{line} {func}({name})"
        for path in sorted(PACKAGE.glob("*.py"))
        for func, name, line in unused_parameters(path.read_text())
    ]
    assert found == []


# -- definitions without a caller ----------------------------------------------

# the command-line entry point; the lone-run solver that the tests use as
# the reference for the row solver lives in tests/reference_routes.py
ENTRY_POINTS = {"cli.main"}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(eq=False)
class _Scope:
    """A def or class (or a module body, with name None) and the names it
    reads in its own body, nested definitions' bodies excluded: Name ids in
    reads, attribute names (obj.name) in attrs.  Reading a name bound by
    `import x as y` reads x."""

    qualname: str
    name: str | None
    parent: "_Scope | None"
    is_class: bool = False
    reads: set = field(default_factory=set)
    attrs: set = field(default_factory=set)
    calls: set = field(default_factory=set)  # names called


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _scopes(module: str, source: str) -> list[_Scope]:
    out = []

    def visit(node, scope):
        if isinstance(node, _DEFS):
            for part in (*node.decorator_list, *getattr(node, "bases", ())):
                visit(part, scope)
            if not isinstance(node, ast.ClassDef):
                for part in (*node.args.defaults, *node.args.kw_defaults):
                    if part is not None:
                        visit(part, scope)
            inner = _Scope(
                f"{scope.qualname}.{node.name}", node.name, scope,
                is_class=isinstance(node, ast.ClassDef),
            )
            out.append(inner)
            for child in node.body:
                visit(child, inner)
            return
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            aliases.update((a.asname, a.name) for a in node.names if a.asname)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            scope.reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            scope.attrs.add(node.attr)
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            scope.calls.add(called)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    root = _Scope(module, None, None)
    aliases = {}
    out.append(root)
    visit(ast.parse(source), root)
    for scope in out:
        scope.reads |= {aliases[name] for name in scope.reads if name in aliases}
    return out


def live_scopes(sources: dict, entry_points=()) -> tuple[list, list]:
    """(live, dead) scopes of a package given as {module: source}.

    Module bodies and entry points are live; a definition becomes live when
    a live scope reads its name, a definition directly in a class body only
    through an attribute read (obj.name), and a dunder method also when its
    class is live.  Reads from dead code keep nothing alive.
    """
    scopes = [s for module, src in sources.items() for s in _scopes(module, src)]
    live = [s for s in scopes if s.name is None or s.qualname in entry_points]
    reads = set().union(*(s.reads for s in live))
    attrs = set().union(*(s.attrs for s in live))
    dead = [s for s in scopes if s not in live]
    grew = True
    while grew:
        grew = False
        for s in list(dead):
            dunder = _is_dunder(s.name)
            member = s.parent.is_class and not dunder
            read = s.name in attrs or (not member and s.name in reads)
            if read or (dunder and s.parent in live):
                live.append(s)
                dead.remove(s)
                reads |= s.reads
                attrs |= s.attrs
                grew = True
    return live, dead


def _package_sources():
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_definition_scanner():
    sources = {"a": (
        "import b\nfrom c import f as g\n"
        "def used():\n    shadowed = helper()\n    print(shadowed)\n"
        "    raise b.E1('boom')\n"
        "def helper():\n    pass\n"
        "def dead():\n    only_from_dead()\n    raise b.E2('never')\n"
        "def only_from_dead():\n    pass\n"
        "def entry():\n    pass\n"
        "class K:\n"
        "    def __init__(self):\n        self.m()\n"
        "    def m(self):\n        def inner():\n            pass\n        return inner\n"
        "    def unused(self):\n        pass\n"
        "    def shadowed(self):\n        pass\n"
        "class Q:\n    def __init__(self):\n        kept_by_dead_class()\n"
        "def kept_by_dead_class():\n    pass\n"
        "used()\nK()\ng()\n"
    ), "b": "class E1(Exception):\n    pass\nclass E2(Exception):\n    pass\n",
       "c": "def f():\n    pass\n"}
    live, dead = live_scopes(sources, entry_points={"a.entry"})
    # K.shadowed is dead: its name is read only as the bare local in used()
    assert sorted(s.qualname for s in dead) == [
        "a.K.shadowed", "a.K.unused", "a.Q", "a.Q.__init__", "a.dead",
        "a.kept_by_dead_class", "a.only_from_dead", "b.E2",
    ]
    calls = set().union(*(s.calls for s in live))
    assert {"E1", "helper", "used", "K", "m"} <= calls
    assert "E2" not in calls


def test_every_definition_has_a_caller():
    _, dead = live_scopes(_package_sources(), ENTRY_POINTS)
    found = [s.qualname for s in dead if not _is_dunder(s.name)]
    assert found == []


def test_every_error_class_is_raised():
    # an error counts when live code outside errors.py constructs it (to
    # raise it, or to store it for the caller to raise)
    sources = _package_sources()
    live, _ = live_scopes(sources, ENTRY_POINTS)
    raised = set().union(*(s.calls for s in live if not s.qualname.startswith("errors")))
    classes = [
        node.name for node in ast.parse(sources["errors"]).body
        if isinstance(node, ast.ClassDef)
    ]
    assert [name for name in classes if name not in raised | {"FdelabError"}] == []


# -- import graph -----------------------------------------------------------------

_IMPORT_PROBE = """
import json, os, sys
import numpy.linalg
from fdelab.cli import main

LINALG = os.path.dirname(numpy.linalg.__file__) + os.sep
linalg_calls = set()

def spy(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(LINALG):
        linalg_calls.add(frame.f_code.co_name)

def loaded():
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    return {"scipy": scipy, "openssl": "_hashlib" in sys.modules, "linalg": sorted(linalg_calls)}

after = [loaded()]
sys.setprofile(spy)
main(["verify", "--config", sys.argv[1], "--out", sys.argv[3]])
sys.setprofile(None)
assert not {"fdelab.pde", "fdelab.comoving"} & set(sys.modules), "verify loaded the PDE solver"
after.append(loaded())
main(["simulate", "--force", "--config", sys.argv[2], "--out", sys.argv[3]])
after.append(loaded())
print(json.dumps(after))
"""


def _fresh_python(*args):
    """Python on args in a fresh process that imports this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)


def test_package_import_loads_no_submodule():
    # each name has one import path, its defining submodule; the package
    # itself re-exports nothing
    proc = _fresh_python("-c", (
        "import json, sys, fdelab\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('fdelab.'))))"
    ))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.fixture(scope="module")
def commands_loaded(tmp_path_factory):
    """What a fresh process has loaded after importing the CLI, after a
    16x4 verify and after the simulate smoke run: per point, the scipy
    modules, whether OpenSSL's binding (_hashlib) is loaded, and the
    numpy.linalg functions called so far, traced during verify only."""
    tmp_path = tmp_path_factory.mktemp("commands")
    base = {"n": 3, "m": 0.1, "gamma": 1.5, "A": 2.0, "T": 1.0, "lambda": 1.0,
            "theta1_minus": -1.0}
    verify = tmp_path / "verify.json"
    verify.write_text(json.dumps(dict(base, grid_eta=16, grid_tau=4)))
    simulate = tmp_path / "simulate.json"
    simulate.write_text(json.dumps(dict(
        base, tau0=10.0, tau_end=10.6, n_cells=200, dtau=0.01, eps=0.018,
    )))
    proc = _fresh_python("-c", _IMPORT_PROBE, str(verify), str(simulate), str(tmp_path / "runs"))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_load_no_scipy_integrate_or_optimize(commands_loaded):
    # importing the CLI and a 16x4 verify load no scipy module at all, and
    # verify loads no fdelab.pde (the probe asserts it in the process), nor
    # does the simulate smoke run load scipy when numpy's OpenBLAS has the
    # gtsv symbol; only without it may the Newton solves load scipy's
    # LAPACK, and still neither scipy.integrate nor scipy.optimize
    after_import, after_verify, after_simulate = (at["scipy"] for at in commands_loaded)
    assert after_import == []
    assert after_verify == []
    if comoving._openblas_gtsv() is not None:
        assert after_simulate == []
    else:
        assert "scipy.linalg.lapack" in after_simulate
        assert [m for m in after_simulate
                if m.startswith(("scipy.integrate", "scipy.optimize"))] == []


def test_verify_calls_nothing_in_numpy_linalg(commands_loaded):
    # the minus threshold's quintic root is bisected in integer arithmetic,
    # so a 16x4 verify makes no LAPACK call (np.roots would call eigvals)
    assert [at["linalg"] for at in commands_loaded[:2]] == [[], []]


@pytest.mark.skipif(
    importlib.util.find_spec("_sha2") is None and importlib.util.find_spec("_sha256") is None,
    reason="no built-in sha256 module: config_hash falls back to hashlib",
)
def test_commands_load_no_openssl(commands_loaded):
    # config_hash takes sha256 from the built-in module, so no command
    # loads hashlib's OpenSSL binding
    assert [at["openssl"] for at in commands_loaded] == [False, False, False]
