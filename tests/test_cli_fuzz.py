"""A fuzzer over the CLI's command table.

``cli.main`` runs in-process on arbitrary input: flag-only commands get
argv built from their own ``COMMANDS`` flags with arbitrary values, and
document commands get a fixture document, perhaps with one field replaced by
an arbitrary JSON value, and their fixture flags, each optional one kept,
dropped or given an arbitrary value.  Whatever the input, ``main`` returns
0, 1 or 2 (or argparse exits 0 or 2), a 2 comes with an ``error:`` message,
no other exception escapes, and a case slower than the deadline fails.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ainfkit import cli
from test_cli import GEOMETRIC_DOC, PRESENTATION_DOC, TWO_GEN_DOC

SETTINGS = settings(max_examples=25, deadline=2000,
                    suppress_health_check=[HealthCheck.too_slow])


def _identity_morphism(labels):
    return {"role": "morphism", "tables": [
        {"k": 1, "lam": "0", "mu": 0, "role": "morphism", "entries": [
            {"inputs": [l], "output": l, "coeff": "1"} for l in labels]}]}


ASSIGNMENTS = '{"q:p": {"c": "1/4"}, "p:q": {"c": "-1/4"}}'
SYSTEM = dict(TWO_GEN_DOC, morphisms={"p": _identity_morphism(["x", "y"])})
PRESENTATION = dict(PRESENTATION_DOC,
                    morphisms={"j": _identity_morphism(["h0_0", "p:q", "q:p"])})

# a fixture document and valid arguments for every document command
DOCUMENT_RUNS = {
    "check": (SYSTEM, ["--level", "2"]),
    "truncate": (SYSTEM, ["--level", "2"]),
    "minimal-model": (SYSTEM, ["--kmax", "3"]),
    "inverse-strict": (SYSTEM, ["--morphism", "p", "--kmax", "3"]),
    "ank-from-geo": (GEOMETRIC_DOC, ["--level", "1", "--parity", "3"]),
    "twist": (SYSTEM, ["--element", "b"]),
    "mc-residual": (SYSTEM, ["--element", "b"]),
    "mc-solve": (SYSTEM, []),
    "bc-criteria": (PRESENTATION, []),
    "gauge": (PRESENTATION, ["--morphism", "j", "--element", "b"]),
    "hf": (PRESENTATION, ["--element", "zero"]),
    "hf-product": (PRESENTATION, ["--element", "zero", "--x", "b", "--y", "b"]),
    "union": (PRESENTATION, ["--other", None]),
    "rescale": (PRESENTATION, ["--assignments", ASSIGNMENTS, "--element", "b"]),
    "legendrian-check": (PRESENTATION, []),
}

# strings the documents and flags use, so that values often almost parse
WORDS = st.sampled_from(["", "x", "y", "b", "zero", "p:q", "q:p", "h0_0", "0", "1", "-1",
                         "1/2", "1/0", "2.5", "1*T^(1)*e^(0)", "-1*T^(1/2)*e^(0)",
                         "nov0", "cy0", "system", "presentation", "geometric"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | WORDS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text() | WORDS, inner,
                                                                max_size=4),
    max_leaves=8)
FLAG_VALUES = st.text() | WORDS | st.integers().map(str) | JSON_VALUES.map(json.dumps)


def _paths(value, prefix=()):
    """The path of every field below ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for step, child in items:
        yield prefix + (step,)
        yield from _paths(child, prefix + (step,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return doc


def _run(argv, stdin_text=""):
    """``cli.main(argv)`` on ``stdin_text``; checks the exit contract."""
    err = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse: --help, or a usage error
        assert exc.code == 0 or exc.code == 2 and "error: " in err.getvalue(), argv
        return
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())


@pytest.fixture(scope="module")
def other_path(tmp_path_factory):
    # the fixture's tables and elements name unprefixed labels
    path = tmp_path_factory.mktemp("fuzz") / "other.json"
    path.write_text(json.dumps(dict(PRESENTATION_DOC, prefix="B.", tables=[], elements={})))
    return str(path)


def _drawn_flag(data, flag, kwargs):
    """``flag`` with an arbitrary value, as argv items."""
    if kwargs.get("action") == "store_true":
        return [flag]
    choices = st.sampled_from(kwargs["choices"]) if "choices" in kwargs else st.nothing()
    return [f"{flag}={data.draw(FLAG_VALUES | choices, label=flag)}"]


FLAG_COMMANDS = [name for name, command in cli.COMMANDS.items()
                 if not command.reads_document]


def test_the_fuzzed_commands_are_the_command_table():
    assert set(DOCUMENT_RUNS) | set(FLAG_COMMANDS) == set(cli.COMMANDS)
    assert not set(DOCUMENT_RUNS) & set(FLAG_COMMANDS)


@pytest.mark.parametrize("name", FLAG_COMMANDS)
@SETTINGS
@given(data=st.data())
def test_flag_commands_keep_the_exit_contract(name, data):
    argv = [name]
    for flag, kwargs in cli.COMMANDS[name].flags:
        if data.draw(st.booleans(), label=flag):
            argv += _drawn_flag(data, flag, kwargs)
    _run(argv)


@pytest.mark.parametrize("name", sorted(DOCUMENT_RUNS))
@SETTINGS
@given(data=st.data())
def test_document_commands_keep_the_exit_contract(other_path, name, data):
    doc, args = DOCUMENT_RUNS[name]
    if data.draw(st.booleans(), label="replace a field"):
        path = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)), label="path")
        doc = _replaced(doc, path, data.draw(JSON_VALUES, label="value"))
    given_values = dict(zip(args[::2], (other_path if a is None else a for a in args[1::2])))
    argv = [name]
    for flag, kwargs in cli.COMMANDS[name].flags:
        how = "keep" if kwargs.get("required") else data.draw(
            st.sampled_from(["keep", "drop", "fuzz"]), label=flag)
        if how == "fuzz":
            argv += _drawn_flag(data, flag, kwargs)
        elif how == "keep" and flag in given_values:
            argv += [flag, given_values[flag]]
    _run(argv, json.dumps(doc))
