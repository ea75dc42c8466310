import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

import ainfkit
from ainfkit.cli import (
    COMMAND_OPERATIONS,
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


def test_every_command_reaches_exactly_one_operation():
    # the dispatch table is a bijection between commands and designated
    # operations; every named operation exists in the library
    commands = set(COMMAND_OPERATIONS)
    assert len(commands) == 21
    targets = list(COMMAND_OPERATIONS.values())
    assert len(set(targets)) == len(targets)
    for target in targets:
        for dotted in target.split("+"):
            module_name, func = dotted.split(".")
            module = getattr(ainfkit, "cli").__dict__[module_name] if False else None
            import importlib
            module = importlib.import_module(f"ainfkit.{module_name}")
            assert callable(getattr(module, func)), dotted


def test_command_operations_match_argparse():
    from ainfkit.cli import _build_parser
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, __import__("argparse")._SubParsersAction))
    assert set(sub.choices) == set(COMMAND_OPERATIONS)


def test_emit_report_deterministic():
    r = {"b": 2, "a": 1}
    assert emit_report(r) == "a: 1\nb: 2\n"
    assert emit_report(r, machine=True) == json.dumps(r, sort_keys=True, indent=2) + "\n"


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


def test_ank_from_geo_command():
    doc = {
        "kind": "geometric", "flavor": "nov0", "cutoff": "2",
        "monoid": [["1", 0]],
        "basis": [["x", 0], ["y", 1]],
        "filtration": {"x": 0, "y": 0},
        "tables": [{"k": 1, "lam": "0", "mu": 0, "role": "algebra",
                    "entries": [{"inputs": ["x"], "output": "y", "coeff": "1"}]}],
        "declared": [],
    }
    # declare every admissible key up to N' = 3
    declared = []
    for k in range(0, 6):
        for lam in (0, 1, 2):
            declared.append([k, str(lam), 0])
    doc["declared"] = declared
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
