import importlib
import io
import json
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ainfkit
from ainfkit.cli import (
    COMMANDS,
    _frac_str,
    document_json,
    emit_report,
    load,
    parse_document,
)
from ainfkit.errors import DocumentError
from conftest import two_generator_algebra


TWO_GEN_DOC = {
    "kind": "system",
    "flavor": "nov0",
    "cutoff": "3",
    "monoid": [["1", 0]],
    "basis": [["x", 0], ["y", 1]],
    "role": "algebra",
    "tables": [
        {"k": 1, "lam": "0", "mu": 0, "role": "algebra",
         "entries": [{"inputs": ["x"], "output": "y", "coeff": "1"}]},
        {"k": 0, "lam": "1", "mu": 0, "role": "algebra",
         "entries": [{"inputs": [], "output": "y", "coeff": "1"}]},
    ],
    "elements": {"b": {"x": ["-1*T^(1)*e^(0)"]}},
}


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "ainfkit.cli"] + args,
        input=stdin_text, capture_output=True, text=True,
    )
    return proc


def test_minimal_document_loads(tmp_path):
    doc = {"kind": "system", "flavor": "cy0", "cutoff": "1",
           "basis": [["g", 0]], "tables": []}
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(doc))
    loaded = load(str(path))
    assert loaded.kind == "system"
    assert loaded.algebra.source.basis == (("g", 0),)


def test_undeclared_label_is_reference_error():
    doc = {"kind": "system", "flavor": "cy0", "cutoff": "1",
           "basis": [["g", 0]], "tables": [],
           "elements": {"b": {"w": ["1*T^(1)*e^(0)"]}}}
    with pytest.raises(DocumentError) as err:
        parse_document(doc)
    assert "w" in str(err.value)


def test_cy_flavor_violation():
    doc = {"kind": "system", "flavor": "cy0", "cutoff": "2",
           "monoid": [["1", 1]],
           "basis": [["g", 0], ["h", -1]],
           "tables": [{"k": 1, "lam": "1", "mu": 1, "role": "algebra",
                       "entries": [{"inputs": ["g"], "output": "h", "coeff": "1"}]}]}
    with pytest.raises(DocumentError):
        parse_document(doc)


def test_round_trip_identity():
    doc = parse_document(TWO_GEN_DOC)
    once = document_json(doc)
    twice = document_json(parse_document(once))
    assert once == twice


def test_round_trip_presentation():
    proc = run_cli(["preset-whitney", "--n", "3"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert document_json(parse_document(data)) == data


def test_byte_stable_output():
    doc_text = json.dumps(TWO_GEN_DOC)
    a = run_cli(["check", "--level", "3", "--machine"], doc_text)
    b = run_cli(["check", "--level", "3", "--machine"], doc_text)
    assert a.stdout == b.stdout and a.returncode == 0


def test_exit_codes():
    ok = run_cli(["check", "--level", "3"], json.dumps(TWO_GEN_DOC))
    assert ok.returncode == 0
    broken = dict(TWO_GEN_DOC)
    broken["tables"] = [
        {"k": 1, "lam": "0", "mu": 0, "role": "algebra",
         "entries": [{"inputs": ["x"], "output": "y", "coeff": "1"}]},
        {"k": 0, "lam": "1", "mu": 0, "role": "algebra",
         "entries": [{"inputs": [], "output": "x", "coeff": "1"}]},
    ]
    fail = run_cli(["check", "--level", "3"], json.dumps(broken))
    assert fail.returncode == 2  # degree violation: malformed input
    relation_broken = dict(TWO_GEN_DOC)
    relation_broken["basis"] = [["u", 1], ["v", 2]]
    relation_broken["tables"] = [
        {"k": 1, "lam": "0", "mu": 0, "role": "algebra",
         "entries": [{"inputs": ["u"], "output": "v", "coeff": "1"}]},
        {"k": 0, "lam": "1", "mu": 0, "role": "algebra",
         "entries": [{"inputs": [], "output": "u", "coeff": "1"}]},
    ]
    relation_broken.pop("elements")
    fail2 = run_cli(["check", "--level", "3"], json.dumps(relation_broken))
    assert fail2.returncode == 1  # verification failure
    assert "witness" in fail2.stdout
    garbage = run_cli(["check", "--level", "3"], "{not json")
    assert garbage.returncode == 2


def test_failure_report_includes_witness():
    relation_broken = {
        "kind": "system", "flavor": "nov0", "cutoff": "3",
        "monoid": [["1", 0]], "basis": [["u", 1], ["v", 2]],
        "role": "algebra",
        "tables": [
            {"k": 1, "lam": "0", "mu": 0, "role": "algebra",
             "entries": [{"inputs": ["u"], "output": "v", "coeff": "1"}]},
            {"k": 0, "lam": "1", "mu": 0, "role": "algebra",
             "entries": [{"inputs": [], "output": "u", "coeff": "1"}]},
        ],
    }
    out = run_cli(["check", "--level", "3", "--machine"], json.dumps(relation_broken))
    data = json.loads(out.stdout)
    assert data["failures"][0]["witness"] == [[], "v"]


def test_pipeline_preset_to_criteria():
    preset = run_cli(["preset-whitney", "--n", "3"])
    crit = run_cli(["bc-criteria", "--in", "-"], preset.stdout)
    assert crit.returncode == 0
    assert "unique bounding cochain: 0" in crit.stdout


def test_mc_solve_and_twist_commands():
    doc_text = json.dumps(TWO_GEN_DOC)
    solved = run_cli(["mc-solve", "--machine"], doc_text)
    data = json.loads(solved.stdout)
    assert data["solved"] and data["bounding_cochain"] == {"x": ["-1*T^(1)*e^(0)"]}
    twisted = run_cli(["twist", "--element", "b"], doc_text)
    assert twisted.returncode == 0
    tdoc = json.loads(twisted.stdout)
    assert all(t["k"] != 0 for t in tdoc["tables"])
    residual = run_cli(["mc-residual", "--element", "b"], doc_text)
    assert residual.returncode == 0


def test_hf_command_reports_cutoff_and_stability():
    preset = run_cli(["preset-whitney", "--n", "3"])
    doc = json.loads(preset.stdout)
    doc["elements"] = {"zero": {}}
    out = run_cli(["hf", "--element", "zero", "--machine"], json.dumps(doc))
    data = json.loads(out.stdout)
    assert data["cutoff"] == "2"
    assert data["stable"] is True
    assert data["groups"]["-1"]["free"] == 1


def _unit_block_doc(cutoff, n, diagonal):
    """cy0 with n double-point pairs over G = <1/100>, whose degree-0 -> 1
    block is all ones plus T^(1/100) at the ``diagonal`` positions.  The
    pivot 1 + T^(1/100) has a power series inverse with 100 E terms below
    the cutoff E."""
    points = [{"p_minus": f"P{i}{a}", "p_plus": f"P{i}{b}", "eta": eta}
              for i in range(n) for a, b, eta in (("-", "+", 1), ("+", "-", 2))]
    ones = [{"inputs": [f"P{c}-:P{c}+"], "output": f"P{r}+:P{r}-", "coeff": "1"}
            for r in range(n) for c in range(n)]
    ts = [{"inputs": [f"P{i}-:P{i}+"], "output": f"P{i}+:P{i}-", "coeff": "1"}
          for i in diagonal]
    return {"kind": "presentation", "flavor": "cy0", "cutoff": str(cutoff),
            "monoid": [["1/100", 0]], "ambient_dim": 3,
            "homology_ranks": {"0": 1, "3": 1}, "double_points": points,
            "tables": [{"k": 1, "lam": "0", "mu": 0, "entries": ones},
                       {"k": 1, "lam": "1/100", "mu": 0, "entries": ts}],
            "elements": {"zero": {}}}


@pytest.mark.parametrize("n, diagonal, groups", [
    (2, (0,), {"1": (0, []), "2": (0, ["1/100"])}),
    (3, (0, 1, 2), {"1": (0, []), "2": (0, ["1/100", "1/100"])}),
])
@pytest.mark.parametrize("cutoff", [2000, 10**6])
def test_hf_cost_does_not_grow_with_the_cutoff(n, diagonal, groups, cutoff):
    def report(e):
        proc = subprocess.run(
            [sys.executable, "-m", "ainfkit.cli", "hf", "--element", "zero", "--machine"],
            input=json.dumps(_unit_block_doc(e, n, diagonal)), capture_output=True,
            text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    small, large = report(3), report(cutoff)
    assert {k: (g["free"], g["torsion"]) for k, g in small["groups"].items()
            if k in groups} == groups
    assert large["cutoff"] == str(cutoff)
    assert {**large, "cutoff": "3"} == small


def test_trees_vdim_feasible_commands():
    trees = run_cli(["trees", "--k", "4", "--mode", "strict", "--machine"])
    assert json.loads(trees.stdout)["count"] == 11
    vdim = run_cli(["vdim", "--kind", "main", "--machine",
                    "--params", '{"maslov": 2, "k": 3, "n": 4}'])
    assert json.loads(vdim.stdout)["value"] == 2 + 3 - 2 + 4
    feas = run_cli(["feasible", "--dims", '{"0": 1}'])
    assert feas.returncode == 1
    feas2 = run_cli(["feasible", "--dims", '{"-1": 1, "0": 2, "1": 1}'])
    assert feas2.returncode == 0


def test_signs_command_kinds():
    z2 = run_cli(["signs", "--kind", "zeta2", "--n", "2", "--i", "1",
                  "--k1", "1", "--k2", "2", "--machine"])
    assert json.loads(z2.stdout)["sign"] == -1
    face = run_cli(["signs", "--kind", "face", "--i", "1", "--j", "0", "--machine"])
    assert json.loads(face.stdout)["sign"] == -1
    swap = run_cli(["signs", "--kind", "swap", "--dims", "2,2,1", "--machine"])
    assert json.loads(swap.stdout)["sign"] == -1  # (2-1)(2-1) odd


def test_index_shifted_command():
    out = run_cli(["index", "--kind", "shifted", "--target", "manifold",
                   "--n", "3", "--a", "3", "--machine"])
    assert json.loads(out.stdout)["shifted_degree"] == -1


def test_minimal_model_command(tmp_path):
    doc = dict(TWO_GEN_DOC)
    out = run_cli(["minimal-model", "--kmax", "3"], json.dumps(doc))
    assert out.returncode == 0
    model = json.loads(out.stdout)
    assert model["basis"] == []  # acyclic fixture: zero model
    assert "inclusion" in model


def _readme_commands():
    """The command names in the README's "Commands:" list."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    listing = text[text.index("\nCommands: "):]
    return set(re.findall(r"`([a-z0-9-]+)`", listing[:listing.index("\n\n")]))


def test_every_command_reaches_exactly_one_operation():
    # the command table is a bijection between commands and designated
    # operations; every named operation exists in the library
    assert set(COMMANDS) == _readme_commands()
    targets = [op for command in COMMANDS.values() for op in command.operations]
    assert len(set(targets)) == len(targets)
    for dotted in targets:
        module_name, func = dotted.split(".")
        module = importlib.import_module(f"ainfkit.{module_name}")
        assert callable(getattr(module, func)), dotted


def test_command_operations_match_argparse():
    from ainfkit.cli import _build_parser
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, __import__("argparse")._SubParsersAction))
    assert set(sub.choices) == set(COMMANDS)


def test_emit_report_deterministic():
    r = {"b": 2, "a": 1}
    assert emit_report(r) == "a: 1\nb: 2\n"
    assert emit_report(r, machine=True) == json.dumps(r, sort_keys=True, indent=2) + "\n"


def json_reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, default=str) + "\n"


def golden_values():
    """Every golden file, and every JSON report recorded in one."""
    for path in sorted((Path(__file__).parent / "golden").glob("*")):
        recorded = json.loads(path.read_text())
        yield recorded
        for text in recorded.values():
            body = text.split("\n", 1)[1] if text.startswith("exit ") else text
            try:
                yield json.loads(body)
            except ValueError:
                pass  # a text report


def test_machine_report_renders_as_json_dumps_on_the_goldens():
    values = list(golden_values())
    assert len(values) > 80
    for value in values:
        assert emit_report(value, machine=True) == json_reference(value)


report_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.fractions(max_denominator=50), st.floats(allow_nan=False))
report_values = st.recursive(report_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.tuples(inner, inner),
    st.dictionaries(st.text(max_size=4), inner, max_size=4),
    st.dictionaries(st.integers(-3, 3), inner, max_size=3)), max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(report_values)
def test_machine_report_renders_as_json_dumps(value):
    # non-ASCII text, empty containers, bool, None, int keys, Fraction and
    # float leaves
    assert emit_report(value, machine=True) == json_reference(value)


PRESENTATION_DOC = {
    "kind": "presentation", "flavor": "cy0", "cutoff": "2",
    "monoid": [["1", 0]], "ambient_dim": 3,
    "homology_ranks": {"0": 1},
    "double_points": [
        {"p_minus": "p", "p_plus": "q", "eta": 2, "a_value": "1/3"},
        {"p_minus": "q", "p_plus": "p", "eta": 1, "a_value": "2/3"},
    ],
    "tables": [{"k": 1, "lam": "1", "mu": 0, "role": "algebra",
                "entries": [{"inputs": ["q:p"], "output": "p:q", "coeff": "1"}]}],
    "elements": {"zero": {}, "b": {"q:p": ["1*T^(1/2)*e^(0)"]}},
}


def test_gauge_certifies_only_maurer_cartan_elements():
    doc = dict(TWO_GEN_DOC)
    doc["elements"] = {"b": {"x": ["-1*T^(1)*e^(0)"]}, "c": {"x": ["1*T^(1)*e^(0)"]}}
    doc["morphisms"] = {"j": {"role": "morphism", "tables": [
        {"k": 1, "lam": "0", "mu": 0, "role": "morphism", "entries": [
            {"inputs": [l], "output": l, "coeff": "1"} for l in ("x", "y")]}]}}
    for element, certified in (("b", True), ("c", False)):
        out = run_cli(["gauge", "--morphism", "j", "--element", element, "--machine"],
                      json.dumps(doc))
        assert out.returncode == 0
        assert json.loads(out.stdout)["certified"] is certified, element


def test_remaining_commands_wire_through(tmp_path):
    text = json.dumps(PRESENTATION_DOC)
    # energy 1 on (q:p) -> p:q: 1 - 2/3 - 1/3 = 0 lies in the lattice
    out = run_cli(["legendrian-check", "--machine"], text)
    assert out.returncode == 0
    assert json.loads(out.stdout)["ok"] is True
    assert run_cli(["truncate", "--level", "3"], text).returncode == 0
    resc = run_cli(["rescale", "--assignments",
                    '{"q:p": {"c": "1/4"}, "p:q": {"c": "-1/4"}}',
                    "--element", "b"], text)
    assert resc.returncode == 0
    # gauge with the identity morphism
    doc = dict(PRESENTATION_DOC)
    doc["morphisms"] = {"j": {"role": "morphism", "tables": [
        {"k": 1, "lam": "0", "mu": 0, "role": "morphism", "entries": [
            {"inputs": ["h0_0"], "output": "h0_0", "coeff": "1"},
            {"inputs": ["p:q"], "output": "p:q", "coeff": "1"},
            {"inputs": ["q:p"], "output": "q:p", "coeff": "1"},
        ]}]}}
    gauged = run_cli(["gauge", "--morphism", "j", "--element", "b", "--machine"],
                     json.dumps(doc))
    assert gauged.returncode == 0
    assert json.loads(gauged.stdout)["transported"] == {"q:p": ["1*T^(1/2)*e^(0)"]}
    # hf-product on a zero-operation presentation: product vanishes, cycle ok
    doc2 = dict(PRESENTATION_DOC)
    doc2 = {k: v for k, v in doc2.items() if k != "tables"}
    doc2["elements"] = {"zero": {}, "x": {"h0_0": ["1*T^(0)*e^(0)"]}}
    prod = run_cli(["hf-product", "--element", "zero", "--x", "x", "--y", "x"],
                   json.dumps(doc2))
    assert prod.returncode == 0
    # union of two disjoint presentations through files
    a_doc = dict(doc2)
    a_doc["prefix"] = "A."
    b_doc = dict(doc2)
    b_doc["prefix"] = "B."
    for name, payload in (("a.json", a_doc), ("b.json", b_doc)):
        (tmp_path / name).write_text(json.dumps(
            {k: v for k, v in payload.items() if k != "elements"}))
    union = run_cli(["union", "--in", str(tmp_path / "a.json"),
                     "--other", str(tmp_path / "b.json"), "--machine"])
    assert union.returncode == 0
    assert "sectors" in json.loads(union.stdout)


def test_inverse_strict_command():
    doc = dict(TWO_GEN_DOC)
    doc["morphisms"] = {"p": {"role": "morphism", "tables": [
        {"k": 1, "lam": "0", "mu": 0, "role": "morphism", "entries": [
            {"inputs": ["x"], "output": "x", "coeff": "1"},
            {"inputs": ["y"], "output": "y", "coeff": "1"},
        ]}]}}
    out = run_cli(["inverse-strict", "--morphism", "p", "--kmax", "3", "--machine"],
                  json.dumps(doc))
    assert out.returncode == 0
    assert json.loads(out.stdout)["identity_check"] is True


GEOMETRIC_DOC = {
    "kind": "geometric", "flavor": "nov0", "cutoff": "2",
    "monoid": [["1", 0]],
    "basis": [["x", 0], ["y", 1]],
    "filtration": {"x": 0, "y": 0},
    "tables": [{"k": 1, "lam": "0", "mu": 0, "role": "algebra",
                "entries": [{"inputs": ["x"], "output": "y", "coeff": "1"}]}],
    # every admissible key up to N' = 3
    "declared": [[k, str(lam), 0] for k in range(0, 6) for lam in (0, 1, 2)],
}


def test_ank_from_geo_command():
    doc = GEOMETRIC_DOC
    out = run_cli(["ank-from-geo", "--level", "1", "--parity", "3"],
                  json.dumps(doc))
    assert out.returncode == 0
    result = json.loads(out.stdout)
    assert result["kind"] == "system"
    # geometric documents round trip
    from ainfkit.cli import parse_document, document_json
    parsed = parse_document(doc)
    assert document_json(parse_document(document_json(parsed))) == \
        document_json(parsed)


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli(["trees", "--k", "3", "--mode", "strict", "--machine",
                    "--out", str(target)])
    assert proc.returncode == 0 and proc.stdout == ""
    assert json.loads(target.read_text())["count"] == 3


def _with(doc, path, value):
    """A deep copy of ``doc`` with the field at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize("doc, path", [
    (TWO_GEN_DOC, ("tables", 0, "k")),
    (TWO_GEN_DOC, ("tables", 0, "mu")),
    (TWO_GEN_DOC, ("basis", 0, 1)),
    (PRESENTATION_DOC, ("double_points", 0, "eta")),
    (PRESENTATION_DOC, ("ambient_dim",)),
], ids=["k", "mu", "basis-degree", "eta", "ambient_dim"])
def test_non_integer_field_exits_2(tmp_path, capsys, doc, path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_with(doc, path, "1.5")))
    assert ainfkit.cli.main(["check", "--level", "2", "--in", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad integer '1.5'" in err


@pytest.mark.parametrize("doc, args, named", [
    (TWO_GEN_DOC, ["inverse-strict", "--morphism", "nope", "--kmax", "2"], "morphism"),
    (PRESENTATION_DOC, ["gauge", "--morphism", "nope", "--element", "b"], "morphism"),
    (PRESENTATION_DOC, ["hf-product", "--element", "zero", "--x", "nope", "--y", "b"],
     "element"),
    (PRESENTATION_DOC, ["hf-product", "--element", "zero", "--x", "b", "--y", "nope"],
     "element"),
    (PRESENTATION_DOC, ["rescale", "--assignments", "{}", "--element", "nope"], "element"),
], ids=["inverse-strict-morphism", "gauge-morphism", "hf-product-x", "hf-product-y",
        "rescale-element"])
def test_unknown_name_exits_2(tmp_path, capsys, doc, args, named):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert ainfkit.cli.main(args + ["--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: no {named} named 'nope' in the document\n"


def _check_level_2(doc):
    return subprocess.run([sys.executable, "-m", "ainfkit.cli", "check", "--level", "2"],
                          input=json.dumps(doc), capture_output=True, text=True, timeout=10)


def test_check_on_fine_grained_monoid_is_fast():
    # 2001 monoid elements up to the cutoff: the norms take one pass
    out = _check_level_2(dict(TWO_GEN_DOC, monoid=[["1/1000", 0]], cutoff="2"))
    assert out.returncode == 0, out.stderr


def test_oversized_monoid_exits_2():
    out = _check_level_2(dict(TWO_GEN_DOC, monoid=[["1/1000", 0], ["1/997", 1]],
                              cutoff="10"))
    assert out.returncode == 2
    assert out.stderr.startswith("error: the monoid has more than")


@pytest.mark.parametrize("args, flag", [
    (["index", "--r-minus=abc"], "--r-minus"),
    (["index", "--r-minus=1/0"], "--r-minus"),
    (["preset-whitney", "--n", "2", "--cutoff", "abc"], "--cutoff"),
    (["signs", "--kind", "tree", "--degs", "x"], "--degs"),
    (["vdim", "--kind", "disc", "--params", "notjson"], "--params"),
    (["feasible", "--dims", "[1]"], "--dims"),
    (["feasible", "--dims", '{"a": 1}'], "--dims"),
    (["feasible", "--dims", '{"0": 1.5}'], "--dims"),
    (["trees", "--k", "-1"], "--k"),
    # values that parse but that the library refuses
    (["vdim", "--kind", "disc"], "--kind/--params"),
    (["vdim", "--kind", "main"], "--kind/--params"),
    (["vdim", "--kind", "main", "--params", '{"maslov": 1.5, "k": 2, "n": 3}'],
     "--kind/--params"),
    (["vdim", "--kind", "main", "--params", '{"maslov": true, "k": 2, "n": 3}'],
     "--kind/--params"),
    (["vdim", "--kind", "main", "--params", '{"maslov": 2, "k": 2, "n": 3, "etas": [0.5]}'],
     "--kind/--params"),
    (["vdim", "--kind", "withChains", "--params",
      '{"maslov": 2, "n": 3, "degs": [], "zero_in_I": 1, "eta0": 4}'], "--kind/--params"),
    (["feasible", "--dims", '{"0": -1}'], "--dims"),
    (["index", "--n", "2"], "--n/--r-minus/--r-plus"),
    (["signs", "--kind", "swap"], "--kind/--dims"),
    (["preset-whitney", "--n", "0"], "--n/--cutoff"),
    (["preset-whitney", "--n", "2", "--cutoff", "-1"], "--n/--cutoff"),
    (["trees", "--k", "3", "--mode", "filtered", "--low-valence", "-1"], "--low-valence"),
    # wall shifts: a JSON object {"p-:p+": {"c": rational, "d": integer}}
    (["rescale", "--assignments", "notjson"], "--assignments"),
    (["rescale", "--assignments", "[1]"], "--assignments"),
    (["rescale", "--assignments", '{"x": {"c": "1/4"}}'], "--assignments"),
    (["rescale", "--assignments", '{"p-:p+": 5}'], "--assignments"),
    (["rescale", "--assignments", '{"p-:p+": {"c": 0.25}}'], "--assignments"),
    (["rescale", "--assignments", '{"p-:p+": {"c": "1/4", "d": "x"}}'], "--assignments"),
    (["vdim", "--kind", "main", "--params", "[" * 100_000 + "]" * 100_000], "--params"),
    # exponent notation would let a few characters stand for a huge integer
    (["preset-whitney", "--n", "2", "--cutoff", "1e5000"], "--cutoff"),
    # levels outside [0, MAX_LEVEL]
    *[([cmd, "--level", level], "--level")
      for cmd in ("check", "truncate", "minimal-model", "inverse-strict", "ank-from-geo")
      for level in ("-1", str(ainfkit.cli.MAX_LEVEL + 1))],
    # arity bounds too
    *[([cmd, "--kmax", kmax], "--kmax")
      for cmd in ("minimal-model", "inverse-strict")
      for kmax in ("-1", str(ainfkit.cli.MAX_LEVEL + 1))],
], ids=["r-minus-word", "r-minus-zero-denominator", "cutoff", "degs", "params",
        "dims-list", "dims-key", "dims-value", "k-negative", "vdim-unknown-kind",
        "vdim-missing-params", "vdim-float-maslov", "vdim-bool-maslov", "vdim-float-etas",
        "vdim-int-flag", "dims-negative", "index-missing-phases", "signs-missing-dims",
        "whitney-n-too-small", "whitney-negative-cutoff", "low-valence-negative",
        "assignments-not-json", "assignments-list", "assignments-key", "assignments-value",
        "assignments-float-c", "assignments-word-d", "params-nested-too-deeply",
        "cutoff-exponent",
        *[f"{cmd}-level-{side}"
          for cmd in ("check", "truncate", "minimal-model", "inverse-strict", "ank-from-geo")
          for side in ("negative", "too-large")],
        *[f"{cmd}-kmax-{side}" for cmd in ("minimal-model", "inverse-strict")
          for side in ("negative", "too-large")]])
def test_bad_flag_value_exits_2(capsys, args, flag):
    with pytest.raises(SystemExit) as exc:
        ainfkit.cli.main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err and "Traceback" not in err


# novZ energies are integers, and this curvature sits at T^(1/2)
OFF_LATTICE_DOC = {
    "kind": "system", "flavor": "novZ", "cutoff": "3", "monoid": [["1/2", 0]],
    "basis": [["v", 1]], "role": "algebra",
    "tables": [{"k": 0, "lam": "1/2", "mu": 0,
                "entries": [{"inputs": [], "output": "v", "coeff": "1"}]}],
    "elements": {"b": {}},
}
MORPHISM_DOC = dict(TWO_GEN_DOC, role="morphism", tables=[
    {"k": 1, "lam": "0", "mu": 0, "entries": [{"inputs": ["x"], "output": "x", "coeff": "1"}]}])


@pytest.mark.parametrize("args, doc, message", [
    (["check", "--level", "1", "--in", "/nonexistent"], None,
     "cannot read /nonexistent: No such file or directory"),
    (["union", "--other", "/nonexistent"], PRESENTATION_DOC,
     "cannot read /nonexistent: No such file or directory"),
    (["union", "--other", "-", "--cross", "/nonexistent"], PRESENTATION_DOC,
     "cannot read /nonexistent: No such file or directory"),
    (["union", "--other", "-", "--cross", "a\0b"], PRESENTATION_DOC,
     "cannot read 'a\\x00b': embedded null byte"),
    (["trees", "--k", "3", "--out", "/nonexistent/report.json"], None,
     "cannot write /nonexistent/report.json: No such file or directory"),
    (["union", "--other", "-", "--cross", "{bad}"], PRESENTATION_DOC, "not valid JSON"),
    (["union", "--other", "-", "--cross", "{list}"], PRESENTATION_DOC,
     "document must be a JSON object"),
    (["check", "--level", "1", "--in", "{deep}"], None, "JSON nested too deeply"),
    (["check", "--level", "1"], _with(TWO_GEN_DOC, ("tables",), [5]),
     "tables[0]: must be a JSON object"),
    (["check", "--level", "1"], _with(TWO_GEN_DOC, ("tables", 0, "entries"), [5]),
     "tables[0].entries[0]: entry needs inputs/output/coeff"),
    (["check", "--level", "1"], _with(TWO_GEN_DOC, ("morphisms",), {"f": [1]}),
     "morphisms.f: must be a JSON object"),
    (["check", "--level", "1"], _with(TWO_GEN_DOC, ("basis",), [["x"]]),
     "basis[0]: must be a JSON array of 2 items"),
    (["check", "--level", "1"], _with(TWO_GEN_DOC, ("basis", 1, 0), "x"),
     "basis: duplicate basis labels"),
    (["check", "--level", "1"], _with(TWO_GEN_DOC, ("monoid",), [["1"]]),
     "monoid[0]: must be a JSON array of 2 items"),
    (["check", "--level", "1"], _with(TWO_GEN_DOC, ("elements",), {"b": {"x": 5}}),
     "elements.b.x: must be a JSON array"),
    (["check", "--level", "1"], _with(OFF_LATTICE_DOC, ("elements", "b"),
                                      {"v": ["1*T^(1/2)*e^(0)"]}),
     "elements.b.v: term T^(1/2): energy not in the novZ lattice"),
    (["check", "--level", "1"], _with(GEOMETRIC_DOC, ("declared",), [[1]]),
     "declared[0]: must be a JSON array of 3 items"),
    (["check", "--level", "1"],
     _with(PRESENTATION_DOC, ("double_points", 0, "phases_minus"), 5),
     "double_points[0].phases_minus: must be a JSON array"),
    (["check", "--level", "1"], _with(TWO_GEN_DOC, ("cutoff",), -1), "cutoff: must be >= 0"),
    (["check", "--level", "1"], _with(TWO_GEN_DOC, ("cutoff",), "1e5000"),
     "exponent notation is not accepted"),
    # a falsy value of the wrong type is no empty container
    (["check", "--level", "1"], _with(TWO_GEN_DOC, ("tables",), {}),
     "tables: must be a JSON array"),
    (["check", "--level", "1"], _with(TWO_GEN_DOC, ("elements",), []),
     "elements: must be a JSON object"),
    (["check", "--level", "1"], _with(TWO_GEN_DOC, ("morphisms",), False),
     "morphisms: must be a JSON object"),
    (["check", "--level", "1"], _with(PRESENTATION_DOC, ("double_points",), ""),
     "double_points: must be a JSON array"),
    (["check", "--level", "1"], _with(PRESENTATION_DOC, ("homology_ranks",), []),
     "homology_ranks: must be a JSON object"),
    (["bc-criteria"], _with(PRESENTATION_DOC, ("homology_ranks", "0"), -1),
     "negative homology rank in {0: -1}"),
    (["bc-criteria"], _with(PRESENTATION_DOC, ("ambient_dim",), -3),
     "ambient dimension -3 < 0"),
    (["check", "--level", "1"], _with(PRESENTATION_DOC, ("prefix",), 5),
     "prefix: 5 is not a string"),
    # a term off the ring: an energy off the novZ lattice, an e-power in cy0
    (["mc-solve"], OFF_LATTICE_DOC, "T^(1/2): energy not in the novZ lattice"),
    (["mc-residual", "--element", "b"], OFF_LATTICE_DOC,
     "T^(1/2): energy not in the novZ lattice"),
    (["union", "--other", "{other}", "--cross", "{e_cross}"], PRESENTATION_DOC,
     "flavor violation: e-power 1 in a cy0 system"),
    # an algebra command on a system of another role
    (["check", "--level", "2"], MORPHISM_DOC, "role: a system document of role 'morphism'"),
    (["mc-solve"], MORPHISM_DOC, "role: a system document of role 'morphism'"),
], ids=["in-missing", "other-missing", "cross-missing", "cross-nul", "out-unwritable",
        "cross-not-json", "cross-list", "in-nested-too-deeply",
        "tables", "entries", "morphisms", "basis", "basis-duplicate-label", "monoid",
        "elements", "element-off-lattice", "declared",
        "phases", "negative-cutoff", "exponent-cutoff", "tables-empty-object", "elements-empty-array",
        "morphisms-false", "double-points-empty-string", "homology-ranks-empty-array",
        "negative-homology-rank", "negative-ambient-dim", "prefix-not-a-string",
        "mc-solve-off-lattice", "mc-residual-off-lattice", "union-cross-e-power",
        "check-on-a-morphism", "mc-solve-on-a-morphism"])
def test_bad_file_or_document_shape_exits_2(tmp_path, capsys, monkeypatch, args, doc,
                                            message):
    # "{bad}", "{list}" and "{deep}" name files holding invalid JSON, a JSON
    # array and arrays nested past the decoder's recursion limit; "{other}"
    # a second presentation and "{e_cross}" a cross table at e^1
    files = {"bad": "{not json", "list": "[1]", "deep": "[" * 100_000 + "]" * 100_000,
             "other": json.dumps(dict(PRESENTATION_DOC, prefix="B.", tables=[], elements={})),
             "e_cross": json.dumps({"tables": [{"k": 0, "lam": "1", "mu": 1, "entries": []}]})}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
    args = [a.format(**{name: tmp_path / f"{name}.json" for name in files}) for a in args]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    if "union" in args:
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        args += ["--in", str(tmp_path / "doc.json")]
    assert ainfkit.cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_a_float_never_renders_as_a_rational():
    # str(Fraction(0.1)) would print the float's binary expansion
    assert [_frac_str(x) for x in (F(1, 10), F(4, 2), 3, "6/4")] == ["1/10", "2", "3", "3/2"]
    with pytest.raises(TypeError):
        _frac_str(0.1)


@pytest.mark.parametrize("args", [["minimal-model"], ["inverse-strict", "--morphism", "p"]],
                         ids=["minimal-model", "inverse-strict"])
def test_tree_sums_without_a_bound_exit_2(tmp_path, capsys, args):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(TWO_GEN_DOC, morphisms={"p": MORPHISM_DOC})))
    with pytest.raises(SystemExit) as exc:
        ainfkit.cli.main(args + ["--in", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "Traceback" not in err
    assert "error: one of the arguments --level --kmax is required" in err


def test_truncate_keeps_a_system_of_any_role():
    out = run_cli(["truncate", "--level", "2"], json.dumps(MORPHISM_DOC))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["role"] == "morphism" and len(result["tables"]) == 1


def test_trees_past_the_count_bound_exit_2_at_once(capsys):
    # k = 40 has about 10^20 strict trees; they are counted, not enumerated
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        ainfkit.cli.main(["trees", "--k", "40"])
    assert exc.value.code == 2 and time.perf_counter() - start < 1
    assert "error: argument --k: more than 200000 strict trees" in capsys.readouterr().err


def test_filtered_trees_past_the_count_bound_exit_2_at_once(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        ainfkit.cli.main(["trees", "--k", "4", "--mode", "filtered", "--low-valence", "5"])
    assert exc.value.code == 2 and time.perf_counter() - start < 1
    assert "error: argument --k/--low-valence: more than 200000 filtered trees" in \
        capsys.readouterr().err


def _legendrian_doc(inputs, output="p:q"):
    """PRESENTATION_DOC plus the double points r:s (a = 1/5, degree 0) and
    s:r, with one algebra entry ``inputs`` -> ``output`` at energy 1/2."""
    return dict(PRESENTATION_DOC, monoid=[["1/2", 0]], double_points=[
        *PRESENTATION_DOC["double_points"],
        {"p_minus": "r", "p_plus": "s", "eta": 1, "a_value": "1/5"},
        {"p_minus": "s", "p_plus": "r", "eta": 2, "a_value": "4/5"},
    ], tables=[{"k": len(inputs), "lam": "1/2", "mu": 0, "role": "algebra", "entries": [
        {"inputs": inputs, "output": output, "coeff": "1"}]}])


def test_legendrian_check_on_a_repeated_label_is_fast(capsys, monkeypatch):
    # 2^22 sign choices, but 23 distinct signed sums
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_legendrian_doc(["q:p"] * 21))))
    start = time.perf_counter()
    assert ainfkit.cli.main(["legendrian-check", "--machine"]) == 1
    assert time.perf_counter() - start < 1
    offsets = ", ".join(["Fraction(2, 3)"] * 21 + ["Fraction(1, 3)"])
    assert json.loads(capsys.readouterr().out)["violations"] == [
        f"energy 1/2 at (k=21, mu=0) entry {tuple(['q:p'] * 21)} -> p:q misses the "
        f"integer lattice for offsets [{offsets}]"]


def test_legendrian_check_past_the_signed_sum_bound_exits_2(capsys, monkeypatch):
    # 100 * 100 * 2 > 10000 signed sums
    doc = _legendrian_doc(["q:p"] * 99 + ["r:s"] * 99)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    start = time.perf_counter()
    assert ainfkit.cli.main(["legendrian-check"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: entry -> p:q at (k=198, lam=1/2, mu=0) has more than "
                          "10000 signed sums") and "Traceback" not in err


def test_trees_at_the_largest_allowed_k(capsys):
    assert ainfkit.cli.main(["trees", "--k", "10", "--machine"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 103_049
