"""Byte-for-byte golden outputs of the tree-sum commands.

``minimal-model``, ``inverse-strict`` and ``ank-from-geo`` are run through
``cli.main`` with ``--machine`` on fixed fixtures, and their reports are
compared with the texts stored in ``golden/transfer_golden.json``.  Any change
to the tree engine or to the energy layer under it must leave these reports
unchanged.

Re-record (only for an intended change of the reports):

    PYTHONPATH=src python tests/test_transfer_golden.py
"""

import json
import random
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest

from ainfkit import (
    EnergyMonoid,
    GradedSpace,
    OperationSystem,
    OperationTable,
    ank_from_geometric,
    twist,
)
from ainfkit.cli import _tables_to_json, document_json, main, parse_document
from ainfkit.errors import MissingDataError
from ainfkit.gapped import monoid_elements, monoid_norm
from ainfkit.transfer import GeometricData
from conftest import (
    heisenberg_algebra,
    random_complex,
    random_curved_algebra,
    random_element,
    random_rich_algebra,
    three_generator_algebra,
    two_generator_algebra,
)

GOLDEN = Path(__file__).parent / "golden" / "transfer_golden.json"
WIDE = ((1, 0), (F(1, 2), 1))


def _twisted_heisenberg(seed):
    base = heisenberg_algebra()
    return twist(base, random_element(random.Random(seed), base, density=0.4))


def _wide_complex(seed, cutoff):
    rng = random.Random(seed)
    base = random_complex(rng, n_labels=8, degree_span=(-2, 2), cutoff=F(cutoff),
                          generators=WIDE)
    return twist(base, random_element(rng, base, density=0.3))


def _with_morphism(alg, name, tables, target=None):
    doc = document_json(alg)
    doc["morphisms"] = {name: {"role": "morphism", "tables": _tables_to_json(
        {t.key: t for t in tables})}}
    if target is not None:
        doc["morphisms"][name]["target"] = document_json(target)
    return doc


def _identity_doc():
    alg = two_generator_algebra()
    ident = {(l,): {l: F(1)} for l, _ in alg.source.basis}
    return _with_morphism(alg, "p", [OperationTable(1, F(0), 0, "morphism", ident)])


def _projection_doc():
    # projection of {x, y, z; d(x) = y} onto span{z}
    alg = three_generator_algebra()
    D = OperationSystem.algebra(GradedSpace.make([("z", 0)]), alg.monoid, "nov0",
                                alg.cutoff, [])
    return _with_morphism(alg, "p", [
        OperationTable(1, F(0), 0, "morphism", {("z",): {"z": F(1)}})], D)


def _higher_projection_doc():
    # p_1 = (1 + T) on the retained generator z
    G = EnergyMonoid.make([(1, 0)])
    space = GradedSpace.make([("z", 0), ("c", 0), ("dc", 1)])
    A = OperationSystem.algebra(space, G, "nov0", F(3), [
        OperationTable(1, F(0), 0, "algebra", {("c",): {"dc": F(1)}})])
    D = OperationSystem.algebra(GradedSpace.make([("z", 0)]), G, "nov0", F(3), [])
    return _with_morphism(A, "p", [
        OperationTable(1, F(0), 0, "morphism", {("z",): {"z": F(1)}}),
        OperationTable(1, F(1), 0, "morphism", {("z",): {"z": F(1)}})], D)


def _geometric_doc(alg, filtration, level):
    """Every key inside the N' = level (level + 2) budget declared."""
    n_prime = level * (level + 2)
    declared = set(alg.tables)
    for key in monoid_elements(alg.monoid, alg.cutoff):
        n = monoid_norm(alg.monoid, key)
        declared.update((k, key[0], key[1]) for k in range(0, n_prime + 2 - n))
    geo = GeometricData(alg.source, filtration, alg.monoid, alg.cutoff, alg.flavor,
                        declared, {key: t.entries for key, t in alg.tables.items()})
    return document_json(geo)


def _contractible_extension_doc(level):
    base = heisenberg_algebra()
    space = GradedSpace.make(list(base.source.basis) + [("u", 0), ("du", 1)])
    d = dict(base.table(1, F(0), 0).entries)
    d[("u",)] = {"du": F(1)}
    big = OperationSystem.algebra(space, base.monoid, "nov0", F(2), [
        OperationTable(1, F(0), 0, "algebra", d), base.table(2, F(0), 0)])
    filtration = {l: 0 for l, _ in base.source.basis}
    filtration.update({"u": level + 1, "du": level + 1})
    return _geometric_doc(big, filtration, level)


def _flat(alg):
    return {l: 0 for l, _ in alg.source.basis}


CASES = {
    "mm-two-gen-kmax3": (lambda: document_json(two_generator_algebra()),
                         ["minimal-model", "--kmax", "3"]),
    "mm-two-gen-level3": (lambda: document_json(two_generator_algebra()),
                          ["minimal-model", "--level", "3"]),
    "mm-heisenberg-kmax4": (lambda: document_json(heisenberg_algebra()),
                            ["minimal-model", "--kmax", "4"]),
    "mm-heisenberg-level4": (lambda: document_json(heisenberg_algebra(cutoff=F(3))),
                             ["minimal-model", "--level", "4"]),
    **{f"mm-twisted-heisenberg-{s}-kmax4": (
        lambda s=s: document_json(_twisted_heisenberg(s)),
        ["minimal-model", "--kmax", "4"]) for s in range(3)},
    **{f"mm-curved-{s}-level3": (
        lambda s=s: document_json(random_curved_algebra(random.Random(s))),
        ["minimal-model", "--level", "3"]) for s in range(3)},
    **{f"mm-curved-wide-{s}-kmax3": (
        lambda s=s: document_json(random_curved_algebra(
            random.Random(s), cutoff=F(3), generators=WIDE)),
        ["minimal-model", "--kmax", "3"]) for s in range(3)},
    "mm-rich-kmax3": (lambda: document_json(random_rich_algebra(random.Random(4))),
                      ["minimal-model", "--kmax", "3"]),
    **{f"mm-wide-8-{s}-kmax3": (lambda s=s: document_json(_wide_complex(s, 4)),
                                ["minimal-model", "--kmax", "3"]) for s in range(2)},
    "mm-wide-8-level2": (lambda: document_json(_wide_complex(2, 4)),
                         ["minimal-model", "--level", "2"]),
    "inv-identity-kmax3": (_identity_doc,
                           ["inverse-strict", "--morphism", "p", "--kmax", "3"]),
    "inv-projection-kmax3": (_projection_doc,
                             ["inverse-strict", "--morphism", "p", "--kmax", "3"]),
    "inv-higher-level3": (_higher_projection_doc,
                          ["inverse-strict", "--morphism", "p", "--level", "3"]),
    "geo-heisenberg-level3": (
        lambda: _geometric_doc(heisenberg_algebra(), _flat(heisenberg_algebra()), 3),
        ["ank-from-geo", "--level", "3", "--parity", "3"]),
    "geo-heisenberg-level2-parity0": (
        lambda: _geometric_doc(heisenberg_algebra(), _flat(heisenberg_algebra()), 2),
        ["ank-from-geo", "--level", "2", "--parity", "0"]),
    "geo-contractible-level2": (lambda: _contractible_extension_doc(2),
                                ["ank-from-geo", "--level", "2", "--parity", "3"]),
    **{f"geo-curved-{s}-level2": (
        lambda s=s: _geometric_doc(random_curved_algebra(random.Random(s)),
                                   {"a0": 0, "a1": 1, "a2": 0, "a3": 2, "a4": 0}, 2),
        ["ank-from-geo", "--level", "2", "--parity", "1"]) for s in range(2)},
}


def render(name) -> str:
    build, args = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        doc_path, out_path = Path(tmp) / "in.json", Path(tmp) / "out.txt"
        doc_path.write_text(json.dumps(build()))
        code = main(args + ["--machine", "--in", str(doc_path), "--out", str(out_path)])
        return f"exit {code}\n" + out_path.read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_transfer_report_is_byte_identical(name):
    assert render(name) == json.loads(GOLDEN.read_text())[name]


# Keys left out of the Heisenberg geometric data at level 2, and the key the
# failure names: the first one a walk over the output keys in ascending order
# meets, at each output key in sorted (arity, key) order.
MISSING = [
    ({(0, F(1), 0)}, "(k=0, lam=1, mu=0)"),
    ({(1, F(1), 0)}, "(k=1, lam=1, mu=0)"),
    ({(2, F(0), 0), (4, F(1), 0)}, "(k=2, lam=0, mu=0)"),
    ({(1, F(1), 0), (3, F(0), 0)}, "(k=3, lam=0, mu=0)"),
    ({(2, F(1), 0), (3, F(0), 0), (4, F(1), 0)}, "(k=3, lam=0, mu=0)"),
    ({(5, F(1), 0), (6, F(0), 0)}, "(k=6, lam=0, mu=0)"),
    ({(7, F(0), 0)}, "(k=7, lam=0, mu=0)"),
]


@pytest.mark.parametrize("dropped, named", MISSING)
def test_missing_geometric_key_is_named(dropped, named):
    alg = heisenberg_algebra()
    geo = parse_document(_geometric_doc(alg, _flat(alg), 2)).payload
    geo.declared -= dropped
    for key in dropped:
        geo.entries.pop(key, None)
    with pytest.raises(MissingDataError) as err:
        ank_from_geometric(geo, 2, ambient_parity=3)
    assert str(err.value) == named


def test_key_no_output_energy_reaches_is_not_looked_up():
    # at level 1 no output key with a tree sum has energy 2, so (0, 2, 0)
    # is never read and leaving it out is no error
    alg = heisenberg_algebra(cutoff=F(3))
    geo = parse_document(_geometric_doc(alg, _flat(alg), 1)).payload
    geo.declared.remove((0, F(2), 0))
    assert len(ank_from_geometric(geo, 1, ambient_parity=3).tables) == 2


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({n: render(n) for n in sorted(CASES)},
                                 indent=1, sort_keys=True) + "\n")
