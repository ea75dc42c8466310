"""The benchmark's recorded mc-hf reports, rendered in-process.

``perfbench/digests.json`` holds the sha256 prefix of every report that the
benchmark's default seed renders.  This renders each mc-hf job that has a
recorded digest with the benchmark's own pipeline, and compares, so a change
to the Maurer-Cartan solver or to Floer cohomology that alters a report
fails here and not only in a benchmark run.  The benchmark's files are
read, never written.
"""

import hashlib
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_mc_hf_reports_match_the_recorded_digests():
    import ainfkit as ak
    from ainfkit import cli

    recorded = json.loads((PERFBENCH / "digests.json").read_text())
    want = recorded["digests"]["mc-hf"]
    sys.path.insert(0, str(PERFBENCH))
    try:
        import pipelines
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    got = {}
    for job_id, _, doc, _ in workloads.WORKLOADS["mc-hf"].instances(recorded["seed"]):
        if job_id in want and job_id not in got:
            text, _ = pipelines.mc_hf(ak, cli, cli.parse_document(doc), False)
            got[job_id] = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    assert len(want) == 92
    assert got == want
