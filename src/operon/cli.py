"""Command-line front end tying the engines to files and reports.

Exit codes: 0 success, 1 domain errors (bad model files, degenerate
systems, I/O failures), 2 usage errors.  All output is deterministic for
identical invocations.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

# each command imports the half it runs (Boolean or ODE) when it runs
from . import __version__
from .errors import parse_rational


def lactose_range(text: str) -> tuple[Fraction, Fraction]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError("expected lo:hi")
    return parse_rational(lo), parse_rational(hi)


def _bits(state) -> str:
    return "".join(str(b) for b in state)


def _parse_set(text: str, error) -> dict[str, int]:
    out: dict[str, int] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, value = chunk.partition("=")
        name, value = name.strip(), value.strip()
        if not sep or not name:
            error(f"malformed --set entry {chunk!r}: expected name=value")
        if value not in ("0", "1"):
            error("parameter values must be 0 or 1")
        out[name] = int(value)
    return out


def _load_network_params(args) -> tuple:
    from . import boolnet

    net = boolnet.load_network(args.model)
    values = _parse_set(args.set or "", args.sub.error)
    try:
        net.check_params(values)
    except ValueError as exc:
        args.sub.error(str(exc))
    return net, values


def cmd_groebner(args) -> int:
    from . import gf2, groebner

    system = groebner.load_system(args.system)
    order = gf2.MonomialOrder(args.order, len(system.vars))
    basis = groebner.buchberger_reduced(system, order)
    for poly in basis:
        print(gf2.format_poly(poly, order))
    return 0


def cmd_solve(args) -> int:
    from . import groebner

    system = groebner.load_system(args.system)
    for solution in groebner.solve_boolean_system(system, method=args.method):
        print(_bits(solution))
    return 0


# --all-params reads all 2^k settings off one truth table over parameters and
# variables, or by Groebner bases solves each setting; at the cap (in process,
# 2-core Xeon VM) a three-variable network takes 0.03 s, a twelve-variable 0.08 s
MAX_ALL_PARAMS = 12


def cmd_fixed_points(args) -> int:
    from . import boolnet

    if args.all_params:
        net = boolnet.load_network(args.model)
        k = len(net.params)
        if k > MAX_ALL_PARAMS:
            raise ValueError(f"--all-params is capped at {MAX_ALL_PARAMS} parameters "
                             f"(got {k}); use --set")
        rows = [(",".join(f"{name}={value}" for name, value in setting.items()),
                 [_bits(p) for p in points])
                for setting, points in net.fixed_points_by_setting(args.method)]
        if args.json:
            print(json.dumps(dict(rows), indent=2))
        else:
            for label, bits in rows:
                print(f"{label}: " + " ".join(bits))
    else:
        net, values = _load_network_params(args)
        points = net.fixed_points(values, method=args.method)
        if args.json:
            print(boolnet.fixed_points_json(points))
        else:
            for p in points:
                print(_bits(p))
    return 0


def _parse_init(text: str, n: int, error):
    if len(text) != n or any(ch not in "01" for ch in text):
        error(f"--init must be {n} characters of 0/1")
    return tuple(int(ch) for ch in text)


def cmd_simulate(args) -> int:
    net, values = _load_network_params(args)
    state = _parse_init(args.init, len(net.vars), args.sub.error)
    if args.steps is not None and args.steps < 0:
        args.sub.error("--steps must be nonnegative")
    traj = net.trajectory(state, values, max_steps=args.steps)
    for i, s in enumerate(traj.states):
        print(f"{i} {_bits(s)}")
    if traj.truncated:
        print(f"truncated after {len(traj.states) - 1} steps")
    else:
        cyc = traj.cycle
        if len(cyc) == 1:
            print(f"fixed point {_bits(cyc[0])} reached at step {traj.cycle_start}")
        else:
            print(f"cycle of length {len(cyc)} entered at step {traj.cycle_start}")
    return 0


def cmd_state_graph(args) -> int:
    net, values = _load_network_params(args)
    graph = net.state_graph(values)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph.to_dot())
    if args.attractors:
        print(graph.attractor_report_json())
    if not (args.dot or args.attractors):
        print(graph.adjacency_json())
    return 0


def cmd_ode_eliminate(args) -> int:
    from . import lacmodel

    params = lacmodel.load_ode(args.model)
    print(lacmodel.eliminant_text(params))
    return 0


def cmd_ode_bifurcation(args) -> int:
    from . import lacmodel
    from .realroots import decimal_str

    params = lacmodel.load_ode(args.model)
    lo, hi = args.range
    report = lacmodel.bifurcation_curve(params, (lo, hi), args.samples,
                                        precision=args.precision)
    lines = [f"critical L{i} = {decimal_str(box.representative(), args.digits)}"
             for i, box in enumerate(report.critical, start=1)]
    lines.append("region counts: " + ", ".join(str(r.count) for r in report.regions))
    boundary = sum(1 for s in report.samples if s.boundary)
    lines.append(f"samples: {len(report.samples)}, boundary: {boundary}")
    # the file goes first, so a failed write leaves stdout empty
    if args.csv:
        text = lacmodel.bifurcation_csv(report)
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        lines.append(f"wrote {args.csv}")
    print("\n".join(lines))
    return 0


def cmd_ode_steady_states(args) -> int:
    from . import lacmodel

    params = lacmodel.load_ode(args.model)
    if args.L is not None:
        level = args.L
    elif params.L is not None:
        level = params.L
    else:
        args.sub.error("--L is required when the model keeps L symbolic")
    states = lacmodel.steady_states_at(params, level, precision=args.precision)
    print(json.dumps([st.as_dict(args.digits) for st in states], indent=2))
    return 0


# CPython's default limit on converting an int to a string: a value is
# printed with its fractional digits as one int, so no value prints with
# more digits than that unless it starts with zeros
MAX_DIGITS = 4300


def _digits(text: str) -> int:
    # ArgumentTypeError messages reach the user as they are; a ValueError
    # would show as "invalid _digits value"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("digits must be nonnegative")
    if value > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"at most {MAX_DIGITS} digits")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="operon",
        description="Exact steady-state analysis of Boolean and ODE operon models.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("groebner", help="reduced Groebner basis of a GF(2) system")
    p.add_argument("system", help="polynomial system file (.gf2)")
    p.add_argument("--order", choices=("lex", "degrevlex"), default="degrevlex")
    p.set_defaults(func=cmd_groebner, sub=p)

    p = sub.add_parser("solve", help="all 0/1 solutions of a GF(2) system")
    p.add_argument("system", help="polynomial system file (.gf2)")
    p.add_argument("--method", choices=("groebner", "enumerate"), default=None,
                   help="'groebner': from the reduced basis; 'enumerate': from truth tables "
                        "over all 2^n points, up to 24 variables (default: 'enumerate' "
                        "up to 24 variables, else 'groebner')")
    p.set_defaults(func=cmd_solve, sub=p)

    p = sub.add_parser("fixed-points", help="fixed points of a Boolean network")
    p.add_argument("model", help="network file (.bn)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--set", help="parameter values, e.g. a=1,g=0")
    group.add_argument("--all-params", action="store_true",
                       help="iterate every 0/1 parameter combination")
    p.add_argument("--method", choices=("groebner", "enumerate"), default=None,
                   help="'groebner': from the reduced basis; 'enumerate': from truth tables "
                        "over all 2^n states, up to 24 variables (default: 'enumerate' "
                        "up to 24 variables, else 'groebner')")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_fixed_points, sub=p)

    p = sub.add_parser("simulate", help="synchronous trajectory of a network")
    p.add_argument("model", help="network file (.bn)")
    p.add_argument("--set", required=True, help="parameter values, e.g. a=1,g=0")
    p.add_argument("--init", required=True, help="initial state bits, e.g. 110100101")
    p.add_argument("--steps", type=int, default=None,
                   help="maximum steps before truncation (default: full orbit)")
    p.set_defaults(func=cmd_simulate, sub=p)

    p = sub.add_parser("state-graph", help="full state-transition graph")
    p.add_argument("model", help="network file (.bn)")
    p.add_argument("--set", required=True, help="parameter values, e.g. a=1,g=0")
    p.add_argument("--dot", metavar="FILE", help="write Graphviz DOT to FILE")
    p.add_argument("--attractors", action="store_true",
                   help="print attractors with basin sizes instead of adjacency")
    p.set_defaults(func=cmd_state_graph, sub=p)

    ode = sub.add_parser("ode", help="continuous-model analyses")
    ode_sub = ode.add_subparsers(dest="ode_command", required=True,
                                 metavar="ANALYSIS")

    p = ode_sub.add_parser("eliminate",
                           help="one-variable steady-state polynomial in A")
    p.add_argument("model", help="model constants file (.ode)")
    p.set_defaults(func=cmd_ode_eliminate, sub=p)

    p = ode_sub.add_parser("bifurcation",
                           help="critical lactose values and branch census")
    p.add_argument("model", help="model constants file (.ode)")
    p.add_argument("--range", type=lactose_range, default=(Fraction(1, 10), Fraction(5, 2)),
                   metavar="LO:HI", help="lactose sweep range (default 0.1:2.5)")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--precision", type=parse_rational, default=Fraction(1, 10 ** 6),
                   metavar="P", help="interval width target (default 1e-6)")
    p.add_argument("--digits", type=_digits, default=5)
    p.add_argument("--csv", metavar="FILE", help="write sampled branches as CSV")
    p.set_defaults(func=cmd_ode_bifurcation, sub=p)

    p = ode_sub.add_parser("steady-states",
                           help="certified steady states at one lactose level")
    p.add_argument("model", help="model constants file (.ode)")
    p.add_argument("--L", type=parse_rational, default=None,
                   help="lactose level (required when the model has L = sym)")
    p.add_argument("--precision", type=parse_rational, default=Fraction(1, 10 ** 6),
                   metavar="P", help="interval width target (default 1e-6)")
    p.add_argument("--digits", type=_digits, default=5)
    p.set_defaults(func=cmd_ode_steady_states, sub=p)

    return parser


_PARSER = None


def main(argv=None) -> int:
    # the parser holds no state between calls, so one per process serves
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"operon: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
