"""The package depends on nothing outside the standard library, and its
Boolean and ODE halves load apart: a command imports only the half it runs."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import operon

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "operon"

BOOLEAN = {"logic", "gf2", "groebner", "boolnet"}
ODE = {"exactpoly", "realroots", "lacmodel"}

# every public name `import operon` gave before the namespace turned lazy
PUBLIC = {
    "errors": ["ParseError"],
    "logic": ["parse_expr", "evaluate"],
    "gf2": ["BoolPoly", "MonomialOrder", "VarSet", "translate_expr"],
    "groebner": ["GroebnerBasis", "PolySystem", "buchberger_reduced", "load_system",
                 "parse_system", "solve_boolean_system"],
    "boolnet": ["BooleanNetwork", "StateGraph", "Trajectory", "load_network",
                "parse_network"],
    "exactpoly": ["Poly", "discriminant", "format_poly", "resultant"],
    "realroots": ["RootBox", "count_real_roots", "decimal_str", "isolate_real_roots"],
    "lacmodel": ["BifurcationReport", "LacParams", "SteadyState", "bifurcation_csv",
                 "bifurcation_curve", "build_system", "critical_lactose_values",
                 "eliminant_text", "eliminate_M", "load_ode", "steady_state_count",
                 "steady_states_at"],
}

# child processes find the package where this process imported it from
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def module_level_imports(path: Path) -> set[str]:
    """The operon submodules a file imports when it is itself imported:
    its import statements outside function bodies."""
    found = set()
    pending = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("operon.")}
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.startswith("operon."):
                found.add(node.module.split(".")[1])
            elif node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1 or (node.level == 0 and node.module == "operon"):
                found |= {alias.name for alias in node.names}
        pending.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("module,forbidden", [
    *[(name, ODE) for name in sorted(BOOLEAN)],
    *[(name, BOOLEAN) for name in sorted(ODE)],
    ("cli", BOOLEAN | ODE),
    ("__init__", BOOLEAN | ODE),
])
def test_halves_import_apart(module, forbidden):
    assert module_level_imports(PACKAGE / f"{module}.py") & forbidden == set()


def test_import_guard_sees_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from . import gf2, __version__\n"
                    "from .lacmodel import load_ode\n"
                    "import operon.realroots\n"
                    "from operon.logic import parse_expr\n"
                    "if True:\n"
                    "    from operon import boolnet\n"
                    "class C:\n"
                    "    from . import exactpoly\n"
                    "def f():\n"
                    "    from . import groebner\n", encoding="utf-8")
    assert module_level_imports(path) == {
        "gf2", "__version__", "lacmodel", "realroots", "logic", "boolnet", "exactpoly"}


def loaded_after(*argv) -> set[str]:
    """The modules a fresh interpreter holds after running
    `operon.cli.main(argv)`, or after `import operon` alone when argv is empty."""
    script = ("import sys, io, json, contextlib\n"
              "import operon\n"
              "if sys.argv[1:]:\n"
              "    from operon import cli\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main(sys.argv[1:]) == 0\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script, *argv], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def submodules(loaded: set[str]) -> set[str]:
    """The operon submodules among the loaded modules, without the package prefix."""
    return {name.split(".", 1)[1] for name in loaded if name.startswith("operon.")}


BOOLEAN_COMMANDS = [
    ["solve", "lac_on.gf2"],
    ["groebner", "lac_on.gf2"],
    ["fixed-points", "lac.bn", "--all-params"],
    ["state-graph", "lac.bn", "--set", "a=1,g=0", "--attractors"],
]


@pytest.mark.parametrize("argv", BOOLEAN_COMMANDS)
def test_boolean_commands_leave_the_ode_half_unloaded(argv):
    argv = [operon.model_path(arg) if "." in arg else arg for arg in argv]
    loaded = submodules(loaded_after(*argv))
    assert loaded & BOOLEAN and loaded & ODE == set()


ODE_COMMANDS = [
    ["ode", "eliminate", "lac.ode"],
    ["ode", "bifurcation", "lac.ode"],
    ["ode", "steady-states", "lac.ode", "--L", "1"],
]


@pytest.mark.parametrize("argv", ODE_COMMANDS)
def test_ode_commands_leave_the_boolean_half_unloaded(argv):
    argv = [operon.model_path(arg) if "." in arg else arg for arg in argv]
    loaded = submodules(loaded_after(*argv))
    assert ODE <= loaded and loaded & BOOLEAN == set()


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_boolean_half_never_imports_dataclasses(module):
    # a @dataclass generates and execs its methods when its class is
    # created, on every fresh import; the records of both halves are plain
    # classes on errors.Frozen
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "dataclasses" not in imported


@pytest.mark.parametrize("argv", BOOLEAN_COMMANDS + ODE_COMMANDS)
def test_boolean_commands_load_neither_dataclasses_nor_inspect(argv):
    argv = [operon.model_path(arg) if "." in arg else arg for arg in argv]
    assert loaded_after(*argv) & {"dataclasses", "inspect"} == set()


RECORDS = {
    "logic": ["Var", "Const", "Not", "And", "Or", "Xor"],
    "boolnet": ["BooleanNetwork", "Trajectory", "StateGraph"],
    "realroots": ["RootBox"],
    "lacmodel": ["LacParams", "SteadyState", "Region", "SamplePoint", "BifurcationReport"],
}


def test_every_record_sits_on_one_base():
    from operon.errors import Frozen

    for module, names in RECORDS.items():
        home = importlib.import_module(f"operon.{module}")
        assert "Frozen" not in vars(home) or home.Frozen is Frozen
        for name in names:
            assert issubclass(getattr(home, name), Frozen), name


def test_bare_import_loads_no_submodule():
    assert submodules(loaded_after()) == set()


def test_lazy_names_are_the_defining_modules_objects():
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"operon.{module}")
        for name in names:
            assert getattr(operon, name) is getattr(home, name), name


def test_submodules_reachable_after_a_bare_import():
    script = ("import json, operon\n"
              "names = ['logic', 'gf2', 'groebner', 'boolnet', 'exactpoly', 'realroots',"
              " 'lacmodel']\n"
              "print(json.dumps([getattr(operon, n).__name__ for n in names]))\n")
    done = subprocess.run([sys.executable, "-c", script], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        "operon.logic", "operon.gf2", "operon.groebner", "operon.boolnet",
        "operon.exactpoly", "operon.realroots", "operon.lacmodel"]


def test_star_import_and_dir_list_every_name():
    every = {name for names in PUBLIC.values() for name in names} | set(PUBLIC) | {
        "model_path"}
    namespace = {}
    exec("from operon import *", namespace)
    assert every <= set(namespace)
    assert every <= set(dir(operon))
    assert set(operon.__all__) <= set(dir(operon))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        operon.nonexistent
    assert not hasattr(operon, "cli_main")


def load_traced() -> list[tuple[str, str]]:
    """`TRACED` of bench/tracer.py: the (module, name) pairs the benchmark wraps."""
    path = PACKAGE.parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


# definitions that only an acceptance criterion calls
CRITERIA_ONLY = {
    ("lacmodel", "LacParams.defaults"),  # criteria 5-8 build the bundled model with it
    ("lacmodel", "LacParams.with_lactose"),  # criterion 7 fixes L = 1 with it
    ("gf2", "MonomialOrder.lex"),  # criterion 3 runs Buchberger under lex
}


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level def and class, and of each
    method of a top-level class; dunders are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("__"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("__")):
                        yield f"{node.name}.{item.name}", item


def references(node: ast.AST) -> Counter:
    """How often each identifier is read or written inside node, as a
    plain name or as an attribute."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def unreferenced() -> list[str]:
    """The definitions in the package that nothing reaches: no other code
    in it names them, operon does not export them, the benchmark tracer
    does not wrap them and no acceptance criterion calls them."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    reached = {(module, name) for module, names in operon._EXPORTS.items() for name in names}
    reached |= {("__init__", name) for name in operon.__all__}
    reached |= set(load_traced()) | CRITERIA_ONLY
    out = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = qualname.rpartition(".")[2]
            # a recursive call does not reach a definition from elsewhere
            if (module, qualname) in reached or everywhere[name] > references(node)[name]:
                continue
            out.append(f"{module}.{qualname}")
    return out


def test_every_definition_is_reached():
    assert unreferenced() == []


def test_realroots_takes_only_the_poly_type_and_horner_from_exactpoly():
    # the real-root engine reads a Poly's coefficients itself, as integers
    tree = ast.parse((PACKAGE / "realroots.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "exactpoly"
                for alias in node.names}
    assert imported == {"Poly", "homogeneous_value"}
