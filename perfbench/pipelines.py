"""One benchmark run in a fresh interpreter: set up, run jobs, report JSON.

``run.py`` starts this file as a child process and writes the request to its
stdin; the child prints one JSON line.  A fresh process per run means no run
inherits ``gapped``'s ``lru_cache`` state, just as each CLI invocation
starts clean.  ``ainfkit`` is imported only inside the timed set-up.

Every timed span (the set-up, each job) is bracketed by ``calibrate()``, a
fixed loop that never calls the library.  ``run.py`` divides each span by the
loop's time around it, so a machine that slows down for a while slows the
span and its yardstick alike.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import random
import resource
import sys
import time
from collections import Counter
from fractions import Fraction

CAL_ENTRIES = 1500  # about 15 ms of calibrate() on a 2-vCPU Xeon VM


def calibrate() -> float:
    """Seconds a fixed loop of tuple-keyed dict and Fraction work, the kind
    the library does, takes right now.  It touches nothing of the library,
    and it runs with the cyclic collector off, so objects the library keeps
    alive cannot slow it down."""
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(7)
        acc = {}
        for i in range(CAL_ENTRIES):
            key = (i % 37, (i * 7) % 53, i % 11)
            acc[key] = acc.get(key, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 9))
        folded = {}
        for (a, b, _), value in acc.items():
            folded[b, a] = folded.get((b, a), 0) + value * value
        return time.perf_counter() - start
    finally:
        gc.enable()


def _flip(systems):
    """Negate one output coefficient: the first entry of the first stored
    table of the first system that has one."""
    for sys_ in systems:
        for key in sorted(sys_.tables):
            entries = sys_.tables[key].entries
            inputs = min(entries)
            out = min(entries[inputs])
            entries[inputs][out] = -entries[inputs][out]
            return


def _render_model(cli, workload, model, incl, checks) -> str:
    return cli.emit_report({
        "workload": workload,
        "model": cli.document_json(model),
        "inclusion": cli.document_json(incl),
        "checks": {name: str(report) for name, report in checks.items()},
    }, machine=True)


def dense_basis(ak, cli, doc, flip):
    """twist -> check A^b0 -> minimal model at level 3 -> check M and i."""
    twisted = ak.twist(doc.algebra, doc.elements["b0"])
    checks = {"twisted": ak.check_relations(twisted, 3)}
    model, incl = ak.minimal_model(twisted, level=3)
    if flip:
        _flip((model, incl))
    checks["model"] = ak.check_relations(model, 3)
    checks["inclusion"] = ak.check_morphism(incl, model, twisted, 3)
    text = _render_model(cli, "dense-basis", model, incl, checks)
    return text, (twisted, model, incl, checks)


def wide_monoid(ak, cli, doc, flip):
    """twist -> minimal model with kmax 3 -> check M and i at level 2.

    Level 2 is the highest level the kmax-3 transfer computes: level 3
    admits arity 4, which the model does not have."""
    twisted = ak.twist(doc.algebra, doc.elements["b0"])
    model, incl = ak.minimal_model(twisted, kmax=3)
    if flip:
        _flip((model, incl))
    checks = {"model": ak.check_relations(model, 2),
              "inclusion": ak.check_morphism(incl, model, twisted, 2)}
    text = _render_model(cli, "wide-monoid", model, incl, checks)
    return text, (twisted, model, incl, checks)


def mc_hf(ak, cli, doc, flip):
    """twist by b0 -> greedy MC solve -> HF of the twisted presentation."""
    pres = doc.presentation
    twisted = ak.twist(pres.algebra, doc.elements["b0"])
    bc = ak.mc_solve(twisted)
    if not isinstance(bc, ak.BoundingCochain):
        raise RuntimeError(f"mc_solve did not certify: {bc}")
    if flip:
        label = min(bc.element)
        value = bc.element[label]
        terms = [(-value.terms[0][0],) + value.terms[0][1:]] + list(value.terms[1:])
        bc.element[label] = ak.NovikovElement.make(terms, value.flavor, value.cutoff)
    on_twisted = ak.make_presentation(pres.n, pres.homology_ranks, pres.double_points,
                                      twisted.monoid, twisted.flavor, twisted.cutoff,
                                      twisted.tables.values())
    report = ak.hf_compute(on_twisted, bc)
    text = cli.emit_report({
        "workload": "mc-hf",
        "bounding_cochain": {label: str(v) for label, v in sorted(bc.element.items())},
        "certified": bc.certified,
        "hf": str(report),
    }, machine=True)
    return text, (twisted, bc, report)


def verify(ak, workload, state, oracle):
    """The benchmark's own checks of one job's output; None when it passes."""
    if workload in ("dense-basis", "wide-monoid"):
        twisted, model, incl, checks = state
        failed = [name for name, report in checks.items() if not report.ok]
        if failed:
            return f"check failed: {', '.join(failed)}"
        dims = dict(Counter(d for _, d in model.source.basis))
        ranks = ak.cohomology_ranks(twisted.source, twisted.table(1, 0, 0))
        if dims != ranks:
            return f"model dimensions {dims} != cohomology ranks {ranks}"
        if workload == "wide-monoid":
            # The level-2 budget reaches only low energies.  The kmax-3
            # transfer is exact at arities <= 2 on every key up to the cutoff
            # (the arity-k relations take arity k + 1 through the curvature).
            for k in range(3):
                for lam, mu in ak.monoid_elements(twisted.monoid, twisted.cutoff):
                    if (ak.relation_defect(model, k, lam, mu)
                            or ak.ainfty.morphism_defect(incl, model, twisted,
                                                         k, lam, mu)):
                        return f"relation fails at (k={k}, lam={lam}, mu={mu})"
        return None
    twisted, bc, report = state
    if not bc.certified:
        return "bounding cochain not certified"
    if not ak.mc_residual(twisted, bc.element)[1]:
        return "bounding cochain fails the Maurer-Cartan equation"
    torsion = sorted(str(v) for v in report.groups[2]["torsion"])
    if torsion != oracle["torsion"]:
        return f"HF^2 torsion {torsion} != block B energies {oracle['torsion']}"
    free = {str(k): g["free"] for k, g in report.groups.items()}
    if free != oracle["free"]:
        return f"HF free ranks {free} != {oracle['free']}"
    if not report.stable:
        return "HF reports unstable"
    return None


PIPELINES = {"dense-basis": dense_basis, "wide-monoid": wide_monoid, "mc-hf": mc_hf}


def main():
    request = json.load(sys.stdin)
    jobs = request["jobs"]
    calibrate()  # warm-up: the first pass pays for lazy interpreter set-up
    cal_before = calibrate()
    t0 = time.perf_counter()
    import ainfkit as ak
    from ainfkit import cli
    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.start()
    docs = [cli.parse_document(json.loads(job["doc"])) for job in jobs]
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "setup_cal_s": (cal_before + calibrate()) / 2}
    if request["mode"] == "setup":
        print(json.dumps(out))
        return
    if tracer:
        tracer.stop()
        out["parse_s"] = tracer.incl_s["cli.parse_document"]
        tracer.reset()
        tracer.start()

    pipeline = PIPELINES[request["workload"]]
    rounds = request["rounds"]
    results = []
    loop_start = time.perf_counter()
    cal_before = calibrate()
    r = 0
    while True:
        for index in rounds[r % len(rounds)]:
            job = jobs[index]
            flip = request["flip"] and not results
            start = time.perf_counter()
            latency = None
            try:
                text, state = pipeline(ak, cli, docs[index], flip)
                latency = time.perf_counter() - start
                with tracer.paused() if tracer else contextlib.nullcontext():
                    error = verify(ak, request["workload"], state, job["oracle"])
            except Exception as exc:  # a failed job is counted, the loop goes on
                latency = latency or time.perf_counter() - start
                text, error = "", f"{type(exc).__name__}: {exc}"
            cal_after = calibrate()
            results.append({
                "id": job["id"], "cls": job["cls"], "latency_s": latency,
                "cal_s": (cal_before + cal_after) / 2, "error": error,
                "digest": hashlib.sha256(text.encode("utf-8")).hexdigest()[:16],
            })
            cal_before = cal_after
        r += 1
        if (r >= request["min_rounds"]
                and time.perf_counter() - loop_start >= request["seconds"]):
            break
    out["jobs"] = results
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.stop()
        out["layers"] = tracer.summary(len(results))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
