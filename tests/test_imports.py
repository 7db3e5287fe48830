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


# the refinement kernels change as they are used, so read-only fields and
# equality by value would be wrong for them
MUTABLE_KERNELS = {
    # fills in the Yun factors of its polynomial when first asked, a
    # cached_property, which needs an instance dict
    ("realroots", "_Oracle"),
    # each refinement moves its deepest certified cell further down; the
    # boxes that share the kernel keep their own depths
    ("realroots", "_Cells"),
}


def unfrozen_classes() -> list[str]:
    """The top-level classes in the package that do not subclass
    `errors.Frozen`, leaving out Frozen itself, exceptions, the dict
    subclasses that fill in as they are read, and `MUTABLE_KERNELS`."""
    from operon.errors import Frozen

    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
        home = importlib.import_module(f"operon.{path.stem}")
        for name in names:
            cls = getattr(home, name)
            if not (issubclass(cls, (Frozen, BaseException))
                    or issubclass(cls, dict) and "__missing__" in vars(cls)
                    or (path.stem, name) in MUTABLE_KERNELS):
                out.append(f"{path.stem}.{name}")
    return out


def test_every_record_sits_on_one_base():
    assert unfrozen_classes() == []


def test_plain_records_take_the_generic_constructor(lac_bn):
    import copy
    import pickle
    from fractions import Fraction

    from operon import boolnet, lacmodel, logic
    from operon.errors import Frozen

    net = boolnet.load_network(lac_bn)
    report = lacmodel.bifurcation_curve(lacmodel.LacParams.defaults(),
                                        (Fraction(1, 10), Fraction(5, 2)), 3)
    records = [net, net.trajectory((0,) * 9, {"a": 1, "g": 0}), net.state_graph({"a": 1, "g": 0}),
               report.regions[0], report]
    for record in records:
        cls, names, values = type(record), type(record)._fields, record._values()
        assert "__init__" not in vars(cls) and cls.__init__ is Frozen.__init__
        named = dict(zip(names, values))
        assert cls(*values) == record == cls(**named) == cls(values[0], **{
            name: named[name] for name in reversed(names[1:])})
        assert record.replace() == record and record.replace(**named) == record
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
        other = record.replace(**{names[-1]: None})
        assert other != record and getattr(other, names[-1]) is None
        # a missing, extra, repeated or unknown field
        for args, kwargs in [(values[:-1], {}), ((*values, None), {}),
                             ((), {name: named[name] for name in names[1:]}),
                             (values[:1], {names[-1]: values[-1]}), (values, {names[0]: values[0]}),
                             (values, {"other": 1})]:
            with pytest.raises(TypeError, match="takes " + ", ".join(names) + ", each once"):
                cls(*args, **kwargs)
        with pytest.raises(TypeError, match="'other'"):
            record.replace(other=1)
    # the expression nodes keep their own constructors
    for cls in (logic.Var, logic.Const, logic.Not, logic.And, logic.Or, logic.Xor):
        assert cls.__init__ is not Frozen.__init__


def test_importing_main_runs_nothing(capsys):
    # `python -m operon` runs the CLI; an import, as a module walker makes,
    # neither parses this process's argv nor exits
    sys.modules.pop("operon.__main__", None)
    module = importlib.import_module("operon.__main__")
    assert module.main.__module__ == "operon.cli"
    assert capsys.readouterr() == ("", "")


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


def test_readme_python_api_block_runs(capsys):
    # the README's example runs as printed, and shows the two outputs it
    # spells out beside their calls
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["[(1, 1, 1, 1, 0, 1, 1, 1, 1)]",
                         "({'a': 1, 'g': 0}, [(1, 1, 1, 1, 0, 1, 1, 1, 1)])"]
    for line in lines[:2]:
        assert f"# {line}\n" in block


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
    ("gf2", "BoolPoly.evaluate_mask"),  # criterion 10 checks step against the system with it
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


def references(node: ast.AST, modules) -> tuple[Counter, Counter]:
    """How often each identifier is read or written inside node: as a plain
    name, and as an attribute (`obj.name`).  An attribute of one of modules
    (`logic.evaluate`) counts as a plain name: it reaches that module's
    top-level definition, never a method."""
    names, attributes = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            of_module = isinstance(sub.value, ast.Name) and sub.value.id in modules
            (names if of_module else attributes)[sub.attr] += 1
    return names, attributes


def unreferenced(package: Path = PACKAGE) -> list[str]:
    """The definitions in the package that nothing reaches: no other code
    in it names them, operon does not export them, the benchmark tracer
    does not wrap them and no acceptance criterion calls them.

    A method is reached only through an attribute (`obj.name`); a local
    variable, parameter or function that shares its name does not reach
    it.  A top-level definition is reached through either form."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    by_name, by_attribute = Counter(), Counter()
    for tree in trees.values():
        names, attributes = references(tree, trees.keys())
        by_name += names
        by_attribute += attributes
    reached = {(module, name) for module, names in operon._EXPORTS.items() for name in names}
    reached |= {("__init__", name) for name in operon.__all__}
    reached |= set(load_traced()) | CRITERIA_ONLY
    out = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            if (module, qualname) in reached:
                continue
            name = qualname.rpartition(".")[2]
            own_names, own_attributes = references(node, trees.keys())
            # a recursive call does not reach a definition from elsewhere
            outside = by_attribute[name] - own_attributes[name]
            if "." not in qualname:
                outside += by_name[name] - own_names[name]
            if outside <= 0:
                out.append(f"{module}.{qualname}")
    return out


def test_every_definition_is_reached():
    assert unreferenced() == []


def test_reach_guard_reads_methods_by_attribute(tmp_path):
    # a local variable, a parameter or a function of the same name does not
    # reach a method, nor does a call in its own body; a top-level function
    # is reached by its name or as an attribute of its module, and such an
    # attribute does not reach a method of the same name
    (tmp_path / "m.py").write_text(
        "from . import n\n"
        "class C:\n"
        "    def called(self):\n"
        "        return 1\n"
        "    def width(self):\n"
        "        return 2\n"
        "    def rule(self):\n"
        "        return 3\n"
        "    def substitute(self):\n"
        "        return 4\n"
        "    def recursive(self):\n"
        "        return self.recursive()\n"
        "    def evaluate(self):\n"
        "        return 6\n"
        "def helper(rule):\n"
        "    width = rule\n"
        "    return width\n"
        "def by_attribute():\n"
        "    return 5\n"
        "def main():\n"
        "    return C().called() + helper(0) + substitute() + n.evaluate()\n", encoding="utf-8")
    (tmp_path / "n.py").write_text(
        "from . import m\n"
        "def substitute():\n"
        "    return m.by_attribute()\n"
        "def evaluate():\n"
        "    return 7\n", encoding="utf-8")
    assert unreferenced(tmp_path) == [
        "m.C.width", "m.C.rule", "m.C.substitute", "m.C.recursive", "m.C.evaluate",
        "m.main"]


def test_realroots_takes_only_the_poly_type_and_horner_from_exactpoly():
    # the real-root engine reads a Poly's coefficients itself, as integers
    tree = ast.parse((PACKAGE / "realroots.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "exactpoly"
                for alias in node.names}
    assert imported == {"Poly", "homogeneous_value"}


def indented_dumps(package: Path = PACKAGE) -> list[str]:
    """The calls in the package that pass indent= to `json.dumps` or
    `json.dump`, which then encodes in pure Python."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("dumps", "dump") and any(kw.arg == "indent" for kw in node.keywords):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_report_is_indented_by_json():
    # indented reports are rendered by errors.json_text
    assert indented_dumps() == []


def test_indent_guard_sees_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "import json\n"
        "from json import dumps\n"
        "json.dumps([], indent=2)\n"
        "json.dump([], fh, indent=None)\n"
        "dumps({}, sort_keys=True, indent=4)\n"
        "json.dumps([])\n", encoding="utf-8")
    assert indented_dumps(tmp_path) == ["m:3", "m:4", "m:5"]
