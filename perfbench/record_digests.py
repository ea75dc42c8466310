"""Record the rendered-report digests that runs on the default seed check.

    python3 perfbench/record_digests.py

Runs every workload on the default seed for the rounds every run makes at
least (``run.min_rounds``) and writes ``digests.json``.  Re-record only
when a change to the rendered reports is intended, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    digests = {}
    for name, workload in run.WORKLOADS.items():
        jobs, rounds = run.pool(workload, run.DEFAULT_SEED)
        report = run.child({"workload": name, "rounds": rounds, "flip": False,
                            "min_rounds": run.min_rounds(workload), "mode": "run",
                            "trace": False, "seconds": 0}, jobs)
        failed = [job["id"] for job in report["jobs"] if job["error"]]
        if failed:
            sys.stderr.write(f"error: {name}: jobs failed, nothing recorded: {failed}\n")
            return 1
        digests[name] = {job["id"]: job["digest"] for job in report["jobs"]}
    run.DIGESTS.write_text(json.dumps({"seed": run.DEFAULT_SEED, "digests": digests},
                                      indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
