"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

For every workload, on its two smallest ladder steps (the fewest that give
``scaling_exp`` a slope), it runs the plain and the traced pass for a second
each and checks that the printed result is correct and that its metric names
and units are exactly those of BENCHMARK.json.  Then it negates one output
coefficient of the first job and checks that the run counts a failure.  That
run uses a seed without recorded report digests, so only the pipeline's and
the benchmark's own checks can catch the flip.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run


def printed_result(workloads, argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, workloads)
    if code != 0:
        raise RuntimeError(f"run.py {' '.join(argv)} exited with {code}")
    return json.loads(out.getvalue().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name, workload in run.WORKLOADS.items():
        small = dataclasses.replace(workload, ladder=workload.ladder[:2])
        for trace in (0, 1):
            result = printed_result({name: small}, ["--workload", name, "--seconds", "1",
                                                    "--trace", str(trace)])
            printed = {m: v["unit"] for m, v in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {result['failed']} jobs failed")
            if printed != declared[trace]:
                problems.append(f"{name} trace={trace}: printed {printed} "
                                f"!= declared {declared[trace]}")
        flip_seed = run.DEFAULT_SEED + 1
        if run.recorded_digests(name, flip_seed):
            problems.append(f"{name}: seed {flip_seed} has recorded digests")
        flipped, _ = run.measure(small, flip_seed, 1, trace=False, flip=True)
        if not flipped["failed"] / flipped["attempted"] > 0:
            problems.append(f"{name}: a flipped output coefficient went unnoticed")
        print(f"{name}: checked")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
