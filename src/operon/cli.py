"""Command-line front end tying the engines to files and reports.

Exit codes: 0 success, 1 domain errors (bad model files, degenerate
systems, I/O failures) or a closed stdout, which prints nothing, 2 usage
errors.  All output is deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

# each command imports the half it runs (Boolean or ODE) when it runs
from . import __version__
from .errors import json_text, parse_rational


def lactose_range(text: str) -> tuple[Fraction, Fraction]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError("expected lo:hi")
    return parse_rational(lo), parse_rational(hi)


def _usage(convert):
    """convert as an argparse type: the message of its ValueError is the
    usage error, where argparse would print "invalid <name> value"."""
    def argument(text):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return argument


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
        if name in out:
            error(f"duplicate parameter {name!r} in --set")
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
            print(json_text(dict(rows)))
        else:
            for label, bits in rows:
                print(f"{label}: " + " ".join(bits))
    else:
        net, values = _load_network_params(args)
        points = net.fixed_points(values, method=args.method)
        if args.json:
            print(json.dumps([_bits(p) for p in points]))
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
    try:
        traj = net.trajectory(state, values, max_steps=args.steps)
    except ValueError as exc:
        # past the cap a full orbit needs a step limit: the flag, not the keyword
        raise ValueError(str(exc).replace("max_steps", "--steps")) from None
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
            fh.writelines(graph.dot_pieces())
    if args.attractors:
        sys.stdout.writelines(graph.attractor_pieces())
    if not (args.dot or args.attractors):
        sys.stdout.writelines(graph.adjacency_pieces())
    return 0


def cmd_ode_eliminate(args) -> int:
    from . import lacmodel

    params = lacmodel.load_ode(args.model)
    print(lacmodel.eliminant_text(params))
    return 0


def cmd_ode_bifurcation(args) -> int:
    from . import lacmodel

    params = lacmodel.load_ode(args.model)
    lo, hi = args.range
    report = lacmodel.bifurcation_curve(params, (lo, hi), args.samples,
                                        precision=args.precision)
    lines = [f"critical L{i} = {box.decimal(args.digits)}"
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
    print(json_text([st.as_dict(args.digits) for st in states]))
    return 0


# CPython's default limit on converting an int to a string: a value is
# printed with its fractional digits as one int, so no value prints with
# more digits than that unless it starts with zeros
MAX_DIGITS = 4300


def _digits(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise ValueError("digits must be nonnegative")
    if value > MAX_DIGITS:
        raise ValueError(f"at most {MAX_DIGITS} digits")
    return value


_METHOD_HELP = ("'groebner': from the reduced basis; 'enumerate': from truth tables over all "
                "2^n {}, up to 24 variables (default: 'enumerate' up to 24 variables, "
                "else 'groebner')")


def _groebner_args(p):
    p.add_argument("system", help="polynomial system file (.gf2)")
    p.add_argument("--order", choices=("lex", "degrevlex"), default="degrevlex")


def _solve_args(p):
    p.add_argument("system", help="polynomial system file (.gf2)")
    p.add_argument("--method", choices=("groebner", "enumerate"), default=None,
                   help=_METHOD_HELP.format("points"))


def _fixed_points_args(p):
    p.add_argument("model", help="network file (.bn)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--set", help="parameter values, e.g. a=1,g=0")
    group.add_argument("--all-params", action="store_true",
                       help="iterate every 0/1 parameter combination")
    p.add_argument("--method", choices=("groebner", "enumerate"), default=None,
                   help=_METHOD_HELP.format("states"))
    p.add_argument("--json", action="store_true", help="emit JSON")


def _simulate_args(p):
    p.add_argument("model", help="network file (.bn)")
    p.add_argument("--set", required=True, help="parameter values, e.g. a=1,g=0")
    p.add_argument("--init", required=True, help="initial state bits, e.g. 110100101")
    p.add_argument("--steps", type=int, default=None,
                   help="maximum steps before truncation (default: full orbit)")


def _state_graph_args(p):
    p.add_argument("model", help="network file (.bn)")
    p.add_argument("--set", required=True, help="parameter values, e.g. a=1,g=0")
    p.add_argument("--dot", metavar="FILE", help="write Graphviz DOT to FILE")
    p.add_argument("--attractors", action="store_true",
                   help="print attractors with basin sizes instead of adjacency")


def _ode_eliminate_args(p):
    p.add_argument("model", help="model constants file (.ode)")


def _precision_digits_args(p):
    p.add_argument("--precision", type=_usage(parse_rational), default=Fraction(1, 10 ** 6),
                   metavar="P", help="interval width target (default 1e-6)")
    p.add_argument("--digits", type=_usage(_digits), default=5)


def _ode_bifurcation_args(p):
    p.add_argument("model", help="model constants file (.ode)")
    p.add_argument("--range", type=_usage(lactose_range),
                   default=(Fraction(1, 10), Fraction(5, 2)),
                   metavar="LO:HI", help="lactose sweep range (default 0.1:2.5)")
    p.add_argument("--samples", type=int, default=25)
    _precision_digits_args(p)
    p.add_argument("--csv", metavar="FILE", help="write sampled branches as CSV")


def _ode_steady_states_args(p):
    p.add_argument("model", help="model constants file (.ode)")
    p.add_argument("--L", type=_usage(parse_rational), default=None,
                   help="lactose level (required when the model has L = sym)")
    _precision_digits_args(p)


# command words -> (help line, command, function adding its arguments), in the
# order of the help listing; a group (ode) has no command of its own
COMMANDS = {
    ("groebner",): ("reduced Groebner basis of a GF(2) system", cmd_groebner, _groebner_args),
    ("solve",): ("all 0/1 solutions of a GF(2) system", cmd_solve, _solve_args),
    ("fixed-points",): ("fixed points of a Boolean network", cmd_fixed_points,
                        _fixed_points_args),
    ("simulate",): ("synchronous trajectory of a network", cmd_simulate, _simulate_args),
    ("state-graph",): ("full state-transition graph", cmd_state_graph, _state_graph_args),
    ("ode",): ("continuous-model analyses", None, None),
    ("ode", "eliminate"): ("one-variable steady-state polynomial in A", cmd_ode_eliminate,
                           _ode_eliminate_args),
    ("ode", "bifurcation"): ("critical lactose values and branch census", cmd_ode_bifurcation,
                             _ode_bifurcation_args),
    ("ode", "steady-states"): ("certified steady states at one lactose level",
                               cmd_ode_steady_states, _ode_steady_states_args),
}


def _command(p: argparse.ArgumentParser, words: tuple[str, ...]) -> argparse.ArgumentParser:
    _, func, add_args = COMMANDS[words]
    add_args(p)
    p.set_defaults(func=func, sub=p)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree: the top-level parser, whose help and errors
    cover every command."""
    parser = argparse.ArgumentParser(
        prog="operon",
        description="Exact steady-state analysis of Boolean and ODE operon models.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    groups = {(): parser.add_subparsers(dest="command", required=True, metavar="COMMAND")}
    for words, (line, func, _) in COMMANDS.items():
        p = groups[words[:-1]].add_parser(words[-1], help=line)
        if func is None:
            groups[words] = p.add_subparsers(dest=f"{words[-1]}_command", required=True,
                                             metavar="ANALYSIS")
        else:
            _command(p, words)
    return parser


def _command_words(argv: list[str]) -> tuple[str, ...] | None:
    """The command words argv starts with, or None when it names no command
    (a group such as ode alone is none)."""
    for words in (tuple(argv[:2]), tuple(argv[:1])):
        entry = COMMANDS.get(words)
        if entry and entry[1]:
            return words
    return None


_PARSER = None
_LEAVES: dict[tuple[str, ...], argparse.ArgumentParser] = {}


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed as `build_parser().parse_args` parses it.

    The top-level parser hands everything after the command words to a
    parser with prog "operon <words>" and that command's arguments, so when
    argv names a command, that parser alone gives the same arguments, help
    and usage errors.  The whole tree parses argv only when it names no
    command or that parser leaves arguments over, since only the top-level
    parser reports unrecognized arguments.
    """
    # parsers hold no state between calls, so one of each per process serves
    global _PARSER
    words = _command_words(argv)
    if words is not None:
        leaf = _LEAVES.get(words)
        if leaf is None:
            leaf = _LEAVES[words] = _command(
                argparse.ArgumentParser(prog=" ".join(("operon", *words))), words)
        args, rest = leaf.parse_known_args(argv[len(words):])
        if not rest:
            return args
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: stdout goes to devnull, so the flush at exit passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"operon: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
