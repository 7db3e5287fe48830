"""Exact algebra toolkit for Boolean and continuous gene-circuit models.

Two engines share one package: polynomial solving over GF(2) for logical
network models (fixed points, attractors, Groebner bases), and exact
rational algebra (elimination, Sturm sequences) for the steady states and
bifurcations of a small ODE model of the same circuit.

The public names and submodules load on first use (PEP 562), so a program
that touches only the Boolean half never imports the ODE half, nor the
reverse.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule that `operon.<name>` serves, with the public names it defines
_EXPORTS = {
    "errors": ("ParseError",),
    "logic": ("parse_expr", "evaluate"),
    "gf2": ("BoolPoly", "MonomialOrder", "VarSet", "translate_expr"),
    "groebner": ("GroebnerBasis", "PolySystem", "buchberger_reduced", "load_system",
                 "parse_system", "solve_boolean_system"),
    "boolnet": ("BooleanNetwork", "StateGraph", "Trajectory", "load_network",
                "parse_network"),
    "exactpoly": ("Poly", "discriminant", "format_poly", "resultant"),
    "realroots": ("RootBox", "count_real_roots", "decimal_str", "isolate_real_roots"),
    "lacmodel": ("BifurcationReport", "LacParams", "SteadyState", "bifurcation_csv",
                 "bifurcation_curve", "build_system", "critical_lactose_values",
                 "eliminant_text", "eliminate_M", "load_ode", "steady_state_count",
                 "steady_states_at"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME, "model_path"])


def __getattr__(name: str):
    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def model_path(name: str) -> str:
    """Filesystem path of a bundled model file, e.g. 'lac.bn' or 'lac.ode'."""
    from importlib import resources

    return str(resources.files(__package__) / "models" / name)
