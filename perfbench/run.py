"""The ainfkit benchmark: certified-result latency on three pipelines.

    python3 perfbench/run.py --workload dense-basis --seed 1 --seconds 30 --trace 0

Run it from the repository root.  Each run generates its inputs from the
seed, then starts fresh interpreters (``pipelines.py``) that import the
library from ``src/`` and run the jobs.  The last line of stdout is one JSON
object: ``--trace 0`` gives the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones.  Times are in reference seconds: wall
seconds rescaled to the speed at which ``pipelines.calibrate`` takes
``CAL_REF_S``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1      # the seed whose report digests digests.json records
SETUP_REPEATS = 5     # set-up-only children; the run child adds one more sample
TAIL_BEYOND = 10      # jobs beyond the tail percentile
RUN_BUDGET_S = 170    # every child together must end within this
DIGESTS = HERE / "digests.json"
CAL_REF_S = 0.015     # calibrate()'s time on the machine of the README's baseline


def child(request: dict, jobs: list, deadline: float | None = None) -> dict:
    """Run pipelines.py in a fresh interpreter and return its JSON report;
    the child is killed if it is still running at ``deadline`` (monotonic)."""
    if deadline is None:
        deadline = time.monotonic() + RUN_BUDGET_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, str(HERE / "pipelines.py")],
        input=json.dumps(dict(request, jobs=jobs)), capture_output=True, text=True,
        cwd=ROOT, env=env, timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    return at_reference_speed(json.loads(proc.stdout.splitlines()[-1]))


def at_reference_speed(report: dict) -> dict:
    """Rescale the child's set-up time and job latencies to reference
    seconds, each by the calibration loop's time around it.  A 2-vCPU
    shared VM drifts 1.3-2x in speed within minutes; the loop drifts with
    the jobs, so the quotient moves far less (see README.md)."""
    report["setup_s"] *= CAL_REF_S / report["setup_cal_s"]
    for job in report.get("jobs", ()):
        job["latency_s"] *= CAL_REF_S / job["cal_s"]
    return report


def pool(workload, seed):
    """The seeded inputs as child jobs, and the job indices of each round."""
    jobs = [{"id": job_id, "cls": cls, "doc": json.dumps(doc), "oracle": oracle}
            for job_id, cls, doc, oracle in workload.instances(seed)]
    per_round = sum(c.weight for c in workload.ladder)
    rounds = [list(range(i, i + per_round)) for i in range(0, len(jobs), per_round)]
    return jobs, rounds


def min_rounds(workload) -> int:
    """Rounds a run makes even past --seconds: enough that the largest class
    alone has jobs beyond the tail percentile, so job_tail_s never falls
    into the gap below that class on a slow machine."""
    return math.ceil((TAIL_BEYOND + 1) / workload.ladder[-1].weight)


def recorded_digests(workload_name, seed) -> dict:
    data = json.loads(DIGESTS.read_text())
    if data["seed"] != seed:
        return {}
    return data["digests"].get(workload_name, {})


def outcomes(run, expected_digests):
    """Failure message per job: library error, failed oracle, or a rendered
    report that differs from the recorded one."""
    out = []
    for job in run["jobs"]:
        error = job["error"]
        want = expected_digests.get(job["id"])
        if error is None and want is not None and job["digest"] != want:
            error = f"report digest {job['digest']} != recorded {want}"
        out.append((job, error))
    return out


def class_medians(workload, ok_jobs):
    return {c.name: statistics.median(j["latency_s"] for j in ok_jobs if j["cls"] == c.name)
            for c in workload.ladder if any(j["cls"] == c.name for j in ok_jobs)}


def slope(points):
    """Least-squares slope of y against x."""
    xs, ys = zip(*points)
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in points)
            / sum((x - mx) ** 2 for x in xs))


def end_to_end(workload, run, setup_samples, ok_jobs, notes):
    latencies = sorted(j["latency_s"] for j in ok_jobs)
    n = len(latencies)
    tail_index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    notes.append(f"job_tail_s: p{100 * (tail_index + 1) / n:.1f} of {n} certified jobs, "
                 f"{n - 1 - tail_index} beyond it")
    medians = class_medians(workload, ok_jobs)
    sizes = {c.name: c.size for c in workload.ladder}
    notes.append("class medians (s): " + ", ".join(
        f"{name}={m:.4f}" for name, m in medians.items()))
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "jobs_per_s": (n / sum(latencies), "1/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (latencies[tail_index], "s"),
        "scaling_exp": (slope([(math.log(sizes[c]), math.log(m))
                               for c, m in medians.items()]), "1"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def per_layer(workload, plain_ok, traced, traced_ok):
    """Layer counters from the traced child, plus the tracing overhead: the
    weighted sum of per-class median latencies, traced over plain.  Layer
    times are rescaled by the traced jobs' median calibration."""
    weights = {c.name: c.weight for c in workload.ladder}
    plain_m, traced_m = class_medians(workload, plain_ok), class_medians(workload, traced_ok)
    common = [c for c in traced_m if c in plain_m]
    scale = CAL_REF_S / statistics.median(j["cal_s"] for j in traced["jobs"])
    metrics = {name: (value * scale if unit == "s" else value, unit)
               for name, (value, unit) in traced["layers"].items()}
    metrics["cli.parse_s"] = (traced["parse_s"] * CAL_REF_S / traced["setup_cal_s"], "s")
    metrics["trace.overhead_ratio"] = (
        sum(weights[c] * traced_m[c] for c in common)
        / sum(weights[c] * plain_m[c] for c in common), "1")
    return metrics


def measure(workload, seed, seconds, trace, flip=False):
    """One benchmark run; returns (result dict, note lines)."""
    jobs, rounds = pool(workload, seed)
    request = {"workload": workload.name, "rounds": rounds, "flip": flip,
               "min_rounds": min_rounds(workload)}
    expected = recorded_digests(workload.name, seed)
    notes = []
    deadline = time.monotonic() + RUN_BUDGET_S
    if not trace:
        setup_samples = [child(dict(request, mode="setup", trace=False, seconds=0), jobs,
                               deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
        runs = [child(dict(request, mode="run", trace=False, seconds=seconds), jobs,
                      deadline)]
        setup_samples.append(runs[0]["setup_s"])
    else:
        # No tail figure here, so no round floor: a traced run stays near --seconds.
        half = seconds / 2
        runs = [child(dict(request, mode="run", trace=traced, seconds=half, min_rounds=1),
                      jobs, deadline)
                for traced in (False, True)]
    judged = [outcomes(run, expected) for run in runs]
    attempted = sum(len(j) for j in judged)
    failures = [(job["id"], error) for j in judged for job, error in j if error]
    notes.append(f"fail_ratio: {len(failures)}/{attempted} jobs attempted")
    notes.extend(f"failed {job_id}: {error}" for job_id, error in failures[:5])
    ok = [[job for job, error in j if error is None] for j in judged]
    if not all(ok):
        metrics = {}
    elif not trace:
        metrics = end_to_end(workload, runs[0], setup_samples, ok[0], notes)
    else:
        metrics = per_layer(workload, ok[0], runs[1], ok[1])
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, notes


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ainfkit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no ainfkit sources under {ROOT / 'src'}; "
                         "run from a checkout of the repository\n")
        return 2
    result, notes = measure(workloads[args.workload], args.seed, args.seconds,
                            bool(args.trace))
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
