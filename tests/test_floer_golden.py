"""Byte-for-byte golden outputs of the Floer-side commands.

``twist``, ``mc-residual``, ``mc-solve``, ``gauge``, ``hf``, ``hf-product``,
``union`` and ``rescale`` are run through ``cli.main`` with ``--machine`` on
fixed fixtures, and their reports are compared with the texts stored in
``golden/floer_golden.json``.  The fixtures reach every b-insertion sum
(arities 0 to 3, e-powers, curvature), an ``mc-solve`` that ends in an
obstruction, and a ``gauge`` of a certified bounding cochain.  The CLI
certifies an element that solves the Maurer-Cartan equation of its source;
the gauges of cochains found by ``mc_solve`` run on the library and are
rendered with the CLI's report fields.

Re-record (only for an intended change of the reports):

    PYTHONPATH=src python tests/test_floer_golden.py
"""

import json
import random
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest

from ainfkit import (
    BoundingCochain,
    DoublePoint,
    EnergyMonoid,
    GradedSpace,
    NovikovElement,
    OperationSystem,
    OperationTable,
    gauge_act,
    make_presentation,
    mc_solve,
    minimal_model,
    twist,
    whitney_preset,
)
from ainfkit.cli import (
    _double_points_to_json,
    _element_to_json,
    _tables_to_json,
    document_json,
    emit_report,
    main,
)
from conftest import (
    heisenberg_algebra,
    random_curved_algebra,
    random_element,
    random_operations,
    random_rich_algebra,
    three_generator_algebra,
    two_generator_algebra,
)

GOLDEN = Path(__file__).parent / "golden" / "floer_golden.json"
WIDE = ((1, 0), (F(1, 2), 1))


def _nov(terms, flavor="nov0", cutoff=F(3)):
    return NovikovElement.make(terms, flavor, cutoff)


# -- operation systems with elements ----------------------------------------

def _two_gen():
    alg = two_generator_algebra()
    return document_json(alg, {"b": {"x": _nov([(-1, 1, 0)])},
                               "c": {"x": _nov([(1, 1, 0), (2, 2, 0)])}})


def _curved(seed, **kwargs):
    rng = random.Random(seed)
    alg = random_curved_algebra(rng, cutoff=F(3), **kwargs)
    return document_json(alg, {"b": random_element(rng, alg, density=0.5)})


def _rich(seed):
    rng = random.Random(seed)
    alg = random_rich_algebra(rng)
    return document_json(alg, {"b": random_element(rng, alg, density=0.4)})


def _obstructed(with_image):
    """m_0 = T v with v a class of degree-one cohomology; with ``with_image``
    a degree-0 x with d x = y and m_0 = T (v + y), so the solve runs on a
    nonempty domain before it fails."""
    G = EnergyMonoid.make([(1, 0)])
    if not with_image:
        space = GradedSpace.make([("v", 1)])
        tables = [OperationTable(0, F(1), 0, "algebra", {(): {"v": F(1)}})]
    else:
        space = GradedSpace.make([("x", 0), ("y", 1), ("v", 1)])
        tables = [OperationTable(1, F(0), 0, "algebra", {("x",): {"y": F(1)}}),
                  OperationTable(0, F(1), 0, "algebra", {(): {"v": F(2), "y": F(1)}})]
    return document_json(OperationSystem.algebra(space, G, "nov0", F(3), tables))


# -- gauge --------------------------------------------------------------------

def _random_morphism(seed):
    """(A, j, b): random degree-respecting tables of arity 0 to 3 on a space
    with an e-graded label, and a random degree-0 element.  ``gauge_act``
    does not check the morphism relations, so j need not satisfy them."""
    rng = random.Random(seed)
    G = EnergyMonoid.make(WIDE)
    space = GradedSpace.make([("a0", 0), ("a1", 0), ("a2", 0), ("e", -2),
                              ("c0", 1), ("c1", 1)])
    j = random_operations(rng, space, G, "morphism")
    A = OperationSystem.algebra(space, G, "nov0", F(3), [])
    return A, j, random_element(rng, A, min_energy=F(1, 2), density=0.6)


def _inclusion(seed):
    """(M, i, A): the minimal model of a twisted Heisenberg dga and its
    inclusion, which has components of arity 1 to 3."""
    rng = random.Random(seed)
    base = heisenberg_algebra()
    A = twist(base, random_element(rng, base, density=0.4))
    M, i = minimal_model(A, kmax=3)
    return M, i, A


def _morphism_doc(source, elements, name, j, target=None):
    doc = document_json(source, elements)
    doc["morphisms"] = {name: {"role": "morphism", "tables": _tables_to_json(j.tables)}}
    if target is not None:
        doc["morphisms"][name]["target"] = document_json(target)
    return doc


def _random_morphism_doc(seed):
    A, j, b = _random_morphism(seed)
    return _morphism_doc(A, {"b": b}, "j", j)


def _inclusion_doc(seed):
    M, i, A = _inclusion(seed)
    b = random_element(random.Random(seed + 100), M, density=0.5)
    return _morphism_doc(M, {"b": b}, "i", i, A)


def _gauge_report(j, b, target):
    """The ``gauge`` command's report fields, for a certified cochain."""
    jb, transport = gauge_act(j, b, target)
    result = {
        "command": "gauge",
        "transported": _element_to_json(jb.element),
        "certified": jb.certified,
        "transport_entries": {
            f"{r}<-{c}": str(v) for (r, c), v in sorted(transport.data.items())},
    }
    return "exit 0\n" + emit_report(result, machine=True)


def _certified_three_generator(broken):
    """b = -T x solves the three-generator algebra; j_1 = id and higher
    components into the closed z keep j.b a bounding cochain, unless
    ``broken`` adds j_0 = T x, whose differential is T y."""
    A = three_generator_algebra()
    tables = [
        OperationTable(1, F(0), 0, "morphism", {(l,): {l: F(1)} for l in "xyz"}),
        OperationTable(0, F(1), 0, "morphism", {(): {"z": F(1), "x": F(int(broken))}}),
        OperationTable(2, F(0), 0, "morphism", {("x", "x"): {"z": F(1)},
                                                ("x", "z"): {"z": F(-2)}}),
        OperationTable(3, F(0), 0, "morphism", {("x", "x", "x"): {"z": F(3)}}),
    ]
    j = OperationSystem.morphism(A.source, A.source, A.monoid, A.flavor, A.cutoff,
                                 tables)
    b = mc_solve(A)
    assert isinstance(b, BoundingCochain) and b.certified
    return _gauge_report(j, b, A)


def _certified_inclusion(seed):
    M, i, A = _inclusion(seed)
    b = mc_solve(M)
    assert isinstance(b, BoundingCochain) and b.certified
    return _gauge_report(i, b, A)


# -- presentations --------------------------------------------------------------

def _points(*specs):
    return [DoublePoint(a, b, eta) for a, b, eta in specs]


def _blocks_presentation():
    """cy0, n = 3, sphere homology, an acyclic pair block A0 and a torsion
    block B0 (d = 2 T^(1/2) + T), curvature T on A0+:A0- and one product
    coupling the blocks; ``b`` solves the Maurer-Cartan equation."""
    points = _points(("A0-", "A0+", 1), ("A0+", "A0-", 2),
                     ("B0-", "B0+", 1), ("B0+", "B0-", 2))
    a, da, bb, db = "A0-:A0+", "A0+:A0-", "B0-:B0+", "B0+:B0-"
    tables = [
        OperationTable(1, F(0), 0, "algebra", {(a,): {da: F(1)}}),
        OperationTable(1, F(1, 2), 0, "algebra", {(bb,): {db: F(2)}}),
        OperationTable(1, F(1), 0, "algebra", {(bb,): {db: F(1)}}),
        OperationTable(0, F(1), 0, "algebra", {(): {da: F(1)}}),
        OperationTable(2, F(0), 0, "algebra", {(a, bb): {db: F(1)}}),
    ]
    G = EnergyMonoid.make([(F(1, 2), 0)])
    pres = make_presentation(3, {0: 1, 3: 1}, points, G, "cy0", F(2), tables)
    one = lambda terms: _nov(terms, "cy0", F(2))  # noqa: E731
    return document_json(pres, {"b": {a: one([(-1, 1, 0)])},
                                "bad": {a: one([(1, 1, 0)])},
                                "zero": {}})


def _collapsed_presentation():
    """nov0 with an e-power differential, so HF degrees collapse mod 2."""
    points = _points(("p", "q", 2), ("q", "p", 1))
    tables = [OperationTable(1, F(1), 1, "algebra", {("p:q",): {"q:p": F(1)}})]
    G = EnergyMonoid.make([(1, 0), (1, 1)])
    pres = make_presentation(3, {0: 1}, points, G, "nov0", F(2), tables)
    return document_json(pres, {"zero": {}})


def _product_presentation():
    """m_2(x:y, y:x) = h0_0 and m_3(r:s, x:y, y:x) = T h0_0, with r:s not a
    cycle (m_1 r:s = T s:r); b sits on r:s."""
    points = _points(("x", "y", 2), ("y", "x", 1), ("r", "s", 1), ("s", "r", 2))
    tables = [
        OperationTable(2, F(0), 0, "algebra", {("x:y", "y:x"): {"h0_0": F(1)}}),
        OperationTable(3, F(1), 0, "algebra", {("r:s", "x:y", "y:x"): {"h0_0": F(3)}}),
        OperationTable(1, F(1), 0, "algebra", {("r:s",): {"s:r": F(1)}}),
    ]
    G = EnergyMonoid.make([(F(1, 2), 0)])
    pres = make_presentation(3, {0: 1}, points, G, "cy0", F(2), tables)
    one = lambda terms: _nov(terms, "cy0", F(2))  # noqa: E731
    return document_json(pres, {
        "zero": {}, "b": {"r:s": one([(2, F(1, 2), 0)])},
        "x": {"x:y": one([(1, 0, 0)])}, "y": {"y:x": one([(1, 0, 0), (-1, 1, 0)])},
        "r": {"r:s": one([(1, 0, 0)])}})


def _simple(prefix, tables=()):
    points = _points(("p", "q", 2), ("q", "p", 1))
    return document_json(make_presentation(
        3, {0: 1}, points, EnergyMonoid.make([(1, 0)]), "cy0", F(2),
        list(tables), prefix=prefix))


def _union_files(cross):
    """Two prefixed presentations with a table at the same key, and
    optionally cross generators whose table overlaps A's entry."""
    a_table = OperationTable(1, F(1), 0, "algebra", {("A.q:p",): {"A.p:q": F(1)}})
    b_table = OperationTable(1, F(1), 0, "algebra", {("B.q:p",): {"B.p:q": F(3)}})
    files = {"in": _simple("A.", [a_table]), "other": _simple("B.", [b_table])}
    if cross:
        files["cross"] = {
            "double_points": _double_points_to_json(
                _points(("x", "y", 2), ("y", "x", 1))),
            "tables": _tables_to_json({t.key: t for t in [
                OperationTable(1, F(1), 0, "algebra",
                               {("A.q:p",): {"A.p:q": F(-1), "x:y": F(2)},
                                ("y:x",): {"x:y": F(1)}}),
                OperationTable(2, F(1), 0, "algebra",
                               {("x:y", "y:x"): {"A.h0_0": F(1)}}),
            ]}),
        }
    return files


def _rescale_presentation(flavor, table_lam=F(1), with_a=False):
    points = [DoublePoint("p", "q", 2, a_value=F(1, 3) if with_a else None),
              DoublePoint("q", "p", 1, a_value=F(2, 3) if with_a else None)]
    tables = [OperationTable(1, table_lam, 0, "algebra", {("q:p",): {"p:q": F(1)}}),
              OperationTable(2, F(1), 0, "algebra",
                             {("q:p", "q:p"): {"p:q": F(5)}})]
    G = EnergyMonoid.make([(table_lam, 0), (1, 0)])
    pres = make_presentation(3, {0: 1}, points, G, flavor, F(2), tables)
    return document_json(pres, {"b": {"q:p": _nov([(1, F(1, 2), 0), (-2, 1, 0)],
                                                  flavor, F(2))}})


def _shift(c):
    return json.dumps({"p:q": {"c": str(c)}, "q:p": {"c": str(-c)}})


def _one(build):
    return lambda: {"in": build()}


SYSTEMS = {
    "two-gen": _two_gen,
    **{f"curved-{s}": (lambda s=s: _curved(s, n_labels=5)) for s in range(4)},
    **{f"curved-wide-{s}": (lambda s=s: _curved(s, generators=WIDE)) for s in range(2)},
    **{f"rich-{s}": (lambda s=s: _rich(s)) for s in range(2)},
    "blocks": _blocks_presentation,
}

CASES = {
    **{f"twist-{n}": (_one(b), ["twist", "--element", "b"]) for n, b in SYSTEMS.items()},
    "twist-two-gen-c": (_one(_two_gen), ["twist", "--element", "c"]),
    **{f"mc-residual-{n}": (_one(b), ["mc-residual", "--element", "b"])
       for n, b in SYSTEMS.items()},
    "mc-residual-two-gen-c": (_one(_two_gen), ["mc-residual", "--element", "c"]),
    **{f"mc-solve-{n}": (_one(b), ["mc-solve"]) for n, b in SYSTEMS.items()},
    "mc-solve-obstructed-empty-domain": (_one(lambda: _obstructed(False)), ["mc-solve"]),
    "mc-solve-obstructed": (_one(lambda: _obstructed(True)), ["mc-solve"]),
    **{f"gauge-random-{s}": (_one(lambda s=s: _random_morphism_doc(s)),
                             ["gauge", "--morphism", "j", "--element", "b"])
       for s in range(4)},
    **{f"gauge-inclusion-{s}": (_one(lambda s=s: _inclusion_doc(s)),
                                ["gauge", "--morphism", "i", "--element", "b"])
       for s in range(2)},
    "hf-whitney-3": (_one(lambda: document_json(whitney_preset(3), {"zero": {}})),
                     ["hf", "--element", "zero"]),
    "hf-whitney-4-nov0": (
        _one(lambda: document_json(whitney_preset(4, flavor="nov0"), {"zero": {}})),
        ["hf", "--element", "zero"]),
    "hf-blocks": (_one(_blocks_presentation), ["hf", "--element", "b"]),
    "hf-blocks-not-mc": (_one(_blocks_presentation), ["hf", "--element", "bad"]),
    "hf-collapsed": (_one(_collapsed_presentation), ["hf", "--element", "zero"]),
    "hf-product-plain": (_one(_product_presentation),
                         ["hf-product", "--element", "zero", "--x", "x", "--y", "y"]),
    "hf-product-twisted": (_one(_product_presentation),
                           ["hf-product", "--element", "b", "--x", "x", "--y", "y"]),
    "hf-product-not-cycle": (_one(_product_presentation),
                             ["hf-product", "--element", "zero", "--x", "r", "--y", "y"]),
    "union-plain": (lambda: _union_files(False),
                    ["union", "--other", "{other}"]),
    "union-cross": (lambda: _union_files(True),
                    ["union", "--other", "{other}", "--cross", "{cross}"]),
    "rescale-shift": (_one(lambda: _rescale_presentation("cy0", with_a=True)),
                      ["rescale", "--assignments", _shift(F(1, 4)), "--element", "b"]),
    "rescale-wall": (_one(lambda: _rescale_presentation("cy0")),
                     ["rescale", "--assignments", _shift(F(3, 4)), "--element", "b"]),
    "rescale-algebra-wall": (_one(lambda: _rescale_presentation("cy0", F(1, 4))),
                             ["rescale", "--assignments", _shift(F(1, 2))]),
    "rescale-regrade": (
        _one(lambda: _rescale_presentation("nov0")),
        ["rescale", "--assignments",
         json.dumps({"p:q": {"d": 1}, "q:p": {"d": -1}}), "--element", "b"]),
}

LIBRARY_CASES = {
    "gauge-certified-three-gen": lambda: _certified_three_generator(False),
    "gauge-certified-three-gen-broken": lambda: _certified_three_generator(True),
    "gauge-certified-inclusion-0": lambda: _certified_inclusion(0),
}


def render(name) -> str:
    if name in LIBRARY_CASES:
        return LIBRARY_CASES[name]()
    build, args = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for role, doc in build().items():
            paths[role] = Path(tmp) / f"{role}.json"
            paths[role].write_text(json.dumps(doc))
        out_path = Path(tmp) / "out.txt"
        args = [str(paths[a[1:-1]]) if a in ("{other}", "{cross}") else a for a in args]
        code = main(args + ["--machine", "--in", str(paths["in"]), "--out", str(out_path)])
        return f"exit {code}\n" + (out_path.read_text() if out_path.exists() else "")


@pytest.mark.parametrize("name", sorted(CASES) + sorted(LIBRARY_CASES))
def test_floer_report_is_byte_identical(name):
    assert render(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {n: render(n) for n in sorted(CASES) + sorted(LIBRARY_CASES)},
        indent=1, sort_keys=True) + "\n")
