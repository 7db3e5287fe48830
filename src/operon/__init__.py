"""Exact algebra toolkit for Boolean and continuous gene-circuit models.

Two engines share one package: polynomial solving over GF(2) for logical
network models (fixed points, attractors, Groebner bases), and exact
rational algebra (elimination, Sturm sequences) for the steady states and
bifurcations of a small ODE model of the same circuit.
"""

from importlib import resources

__version__ = "0.1.0"

from .errors import ParseError
from .logic import parse_expr, evaluate
from .gf2 import BoolPoly, MonomialOrder, VarSet, translate_expr
from .groebner import (
    GroebnerBasis,
    PolySystem,
    buchberger_reduced,
    load_system,
    parse_system,
    solve_boolean_system,
)
from .boolnet import (
    BooleanNetwork,
    StateGraph,
    Trajectory,
    load_network,
    parse_network,
)
from .exactpoly import Poly, discriminant, format_poly, resultant
from .realroots import (
    RootBox,
    count_real_roots,
    decimal_str,
    isolate_real_roots,
)
from .lacmodel import (
    BifurcationReport,
    LacParams,
    SteadyState,
    bifurcation_csv,
    bifurcation_curve,
    build_system,
    critical_lactose_values,
    eliminant_text,
    eliminate_M,
    load_ode,
    steady_state_count,
    steady_states_at,
)


def model_path(name: str) -> str:
    """Filesystem path of a bundled model file, e.g. 'lac.bn' or 'lac.ode'."""
    return str(resources.files(__package__) / "models" / name)
