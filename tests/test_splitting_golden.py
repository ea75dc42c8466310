"""Byte-for-byte golden outputs on twisted truncated free dgas.

``minimal-model`` and ``check`` are run through ``cli.main`` with
``--machine`` on ``T(a0..a_{r-1})/(length > L)`` twisted by a degree-0
element (``check`` also on a copy with one product coefficient negated, so
that the failing keys and their witnesses are pinned too), and their reports
are compared with the texts stored in
``golden/splitting_golden.json``.  The splitting (``linalg``), the relation
stitching and the tree engine all run on these inputs, so a change to any of
them must leave these reports unchanged.

Re-record (only for an intended change of the reports):

    PYTHONPATH=src python tests/test_splitting_golden.py
"""

import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest

from ainfkit.cli import document_json, main
from conftest import twisted_free_dga

GOLDEN = Path(__file__).parent / "golden" / "splitting_golden.json"

CASES = {
    **{f"{command}-r{r}L{L}": (r, L, 1, False, [command, "--level", "3"])
       for r, L in ((3, 3), (4, 3))
       for command in ("minimal-model", "check")},
    **{f"check-broken-r{r}L{L}": (r, L, 1, True, ["check", "--level", "3"])
       for r, L in ((3, 3), (4, 3))},
}


def _document(r, L, seed, broken):
    alg = twisted_free_dga(r, L, seed)
    if broken:
        m2 = alg.table(2, F(0), 0).entries
        inputs = min(m2)
        out = min(m2[inputs])
        m2[inputs][out] = -m2[inputs][out]
    return document_json(alg)


def render(name) -> str:
    *params, args = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        doc_path, out_path = Path(tmp) / "in.json", Path(tmp) / "out.txt"
        doc_path.write_text(json.dumps(_document(*params)))
        code = main(args + ["--machine", "--in", str(doc_path), "--out", str(out_path)])
        return f"exit {code}\n" + out_path.read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_dense_report_is_byte_identical(name):
    assert render(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({n: render(n) for n in sorted(CASES)},
                                 indent=1, sort_keys=True) + "\n")
