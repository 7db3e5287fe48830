"""Fuzzing of the three file parsers, directly and through the CLI.

A malformed file may only raise `ParseError` or `ValueError` from its parser,
and through `cli.main` it exits 1 with an `operon:` message: never an uncaught
exception, which a user would see as a traceback.  Texts are drawn both as
arbitrary strings and as small edits of a valid file in the formats' own
tokens, so that most of them get past the header line.
"""

from hypothesis import given, settings, strategies as st

from operon import cli
from operon.boolnet import parse_network
from operon.errors import ParseError
from operon.groebner import parse_system
from operon.lacmodel import parse_ode_text

TOKENS = {
    "gf2": ["vars:", "x1", "x2", "x3", "y", "+", "*", "0", "1", "#", "\n", " ", "-",
            "\t", "\f", "\x1c", "\u2028", "\xa0"],
    "ode": ["c0", "c", "gamma", "v", "delta", "h", "n", "L", "=", "sym", "1/2", "0",
            "-3", "2", "65", "1e5", "1/0", "#", "\n", " ", ".",
            "\t", "\f", "\x1c", "\u2028", "\xa0"],
    "bn": ["network", "lac", "vars:", "params:", "a", "b", "g", "'", "=", "&", "|",
           "^", "!", "(", ")", "0", "1", "#", "\n", " ", ",",
           "\t", "\f", "\x1c", "\u2028", "\xa0"],
}

# a valid file of each format, as (header, body lines); a structured fuzz case
# keeps the header and edits a few body lines: it replaces one or inserts a
# new one, either a run of tokens or a body line with tokens spliced in
SEEDS = {
    "gf2": ("vars: x1 x2 x3\n", ["x1*x2 + x3 + 1", "x2 + x3", "x1"]),
    "ode": ("", ["c0 = 1/20", "c = 1", "gamma = 1", "v = 1", "delta = 1/5", "h = 2",
                 "n = 5", "L = sym"]),
    "bn": ("network lac\nvars: a, b\n", ["params: g", "a' = b & !g", "b' = a | g"]),
}

PARSERS = {"gf2": parse_system, "ode": parse_ode_text, "bn": parse_network}

COMMANDS = {
    "gf2": lambda path: ["solve", path],
    "ode": lambda path: ["ode", "eliminate", path],
    "bn": lambda path: ["fixed-points", path, "--all-params"],
}


def texts(kind):
    header, lines = SEEDS[kind]
    tokens = st.lists(st.sampled_from(TOKENS[kind]), max_size=12).map("".join)
    spliced = st.tuples(st.sampled_from(lines), st.integers(0, 12), st.integers(0, 3),
                        tokens).map(lambda t: t[0][:t[1]] + t[3] + t[0][t[1] + t[2]:])
    edits = st.lists(st.tuples(st.integers(0, 9), st.booleans(), st.one_of(spliced, tokens)),
                     min_size=1, max_size=3)

    def edit(changes):
        body = list(lines)
        for pos, replace, new in changes:
            pos %= len(body) + 1
            if replace and pos < len(body):
                body[pos] = new
            else:
                body.insert(pos, new)
        return header + "\n".join(body) + "\n"

    return st.one_of(edits.map(edit), st.text(max_size=80))


def check_parser(kind, text):
    try:
        PARSERS[kind](text)
    except (ParseError, ValueError):
        pass


def check_cli(kind, text, directory, capsys):
    path = directory / f"fuzz.{kind}"
    path.write_text(text, encoding="utf-8")
    code = cli.main(COMMANDS[kind](str(path)))
    out, err = capsys.readouterr()
    if code != 0:
        assert code == 1 and out == ""
        assert err.startswith("operon: ") and err.count("\n") == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(texts("gf2"))
def test_parse_system_fuzz(text):
    check_parser("gf2", text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(texts("ode"))
def test_parse_ode_text_fuzz(text):
    check_parser("ode", text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(texts("bn"))
def test_parse_network_fuzz(text):
    check_parser("bn", text)


def test_cli_on_fuzzed_files(tmp_path, capsys):
    # one hypothesis run per format inside the test, so the function-scoped
    # fixtures are shared by every example
    for kind in ("gf2", "ode", "bn"):

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(texts(kind))
        def run(text):
            check_cli(kind, text, tmp_path, capsys)

        run()
