"""Presentation file format, validation, command dispatch, and deterministic
reports.

Documents are UTF-8 JSON; rationals travel as reduced fraction strings
("3/2"), Novikov elements as lists of term strings "q*T^(l)*e^(m)".  Reports
default to human text; --machine emits JSON with the same schema as inputs
plus result blocks.  Output is byte-stable for identical inputs: fixed key
order, fixed rational formatting.

Exit codes: 0 pass/success, 1 verification failure, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import ainfty, floer, gapped, geomsign, gradedcore, transfer
from .errors import AinfError, DocumentError
from .floer import DoublePoint, LagrangianPresentation, make_presentation
from .gapped import EnergyMonoid
from .gradedcore import GradedSpace, OperationSystem, OperationTable
from .novikov import FLAVORS, NovikovElement, as_fraction, format_term, parse_term
from .transfer import GeometricData


# ---------------------------------------------------------------------------
# rationals and elements on the wire

def _frac(text, ctx):
    try:
        return as_fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad rational {text!r}: {exc}", ctx)


def _int(text, ctx):
    """A JSON integer or a string of one; a float such as 1.5 is refused."""
    if type(text) is int:
        return text
    try:
        return int(str(text))
    except ValueError as exc:
        raise DocumentError(f"bad integer {text!r}: {exc}", ctx)


def _frac_str(x) -> str:
    return str(as_fraction(x))


def _element_to_json(vec: dict) -> dict:
    return {
        label: [format_term(c, l, m) for c, l, m in val.terms]
        for label, val in sorted(vec.items()) if not val.is_zero()
    }


def _element_from_json(data, flavor, cutoff, ctx, space=None) -> dict:
    out = {}
    if not isinstance(data, dict):
        raise DocumentError("element must be an object {label: [terms]}", ctx)
    for label, terms in data.items():
        if space is not None and not space.has(label):
            raise DocumentError(f"undeclared label {label!r}", ctx)
        try:
            parsed = [parse_term(t) for t in terms]
        except ValueError as exc:
            raise DocumentError(str(exc), f"{ctx}.{label}")
        val = NovikovElement.make(parsed, flavor, cutoff)
        if not val.is_zero():
            out[label] = val
    return out


# ---------------------------------------------------------------------------
# documents

def _tables_to_json(tables) -> list:
    out = []
    for key in sorted(tables, key=lambda k: (k[0], k[1], k[2])):
        t = tables[key]
        entries = []
        for inputs in sorted(t.entries):
            for out_label in sorted(t.entries[inputs]):
                entries.append({
                    "inputs": list(inputs),
                    "output": out_label,
                    "coeff": _frac_str(t.entries[inputs][out_label]),
                })
        out.append({"k": t.k, "lam": _frac_str(t.lam), "mu": t.mu,
                    "role": t.role, "entries": entries})
    return out


def _tables_from_json(data, role, ctx) -> list:
    tables = []
    for i, tdoc in enumerate(data or []):
        tctx = f"{ctx}[{i}]"
        for fieldname in ("k", "lam", "mu"):
            if fieldname not in tdoc:
                raise DocumentError(f"table missing {fieldname!r}", tctx)
        k = _int(tdoc["k"], f"{tctx}.k")
        entries = {}
        for j, e in enumerate(tdoc.get("entries", [])):
            ectx = f"{tctx}.entries[{j}]"
            if "output" not in e or "coeff" not in e:
                raise DocumentError("entry needs inputs/output/coeff", ectx)
            inputs = tuple(e.get("inputs", []))
            if len(inputs) != k:
                raise DocumentError(
                    f"entry arity {len(inputs)} != k={tdoc['k']}", ectx)
            tgt = entries.setdefault(inputs, {})
            tgt[e["output"]] = tgt.get(e["output"], 0) + _frac(e["coeff"], ectx)
        tables.append(OperationTable(k, _frac(tdoc["lam"], tctx),
                                     _int(tdoc["mu"], f"{tctx}.mu"),
                                     tdoc.get("role", role), entries))
    return tables


def _double_points_from_json(data, ctx) -> list:
    points = []
    for i, p in enumerate(data or []):
        pctx = f"{ctx}[{i}]"
        for fieldname in ("p_minus", "p_plus", "eta"):
            if fieldname not in p:
                raise DocumentError(f"double point missing {fieldname!r}", pctx)
        points.append(DoublePoint(
            p_minus=str(p["p_minus"]), p_plus=str(p["p_plus"]),
            eta=_int(p["eta"], f"{pctx}.eta"),
            eps=_int(p["eps"], f"{pctx}.eps") if p.get("eps") is not None else None,
            phases_minus=tuple(_frac(x, pctx) for x in p["phases_minus"])
            if p.get("phases_minus") else None,
            phases_plus=tuple(_frac(x, pctx) for x in p["phases_plus"])
            if p.get("phases_plus") else None,
            a_value=_frac(p["a_value"], pctx) if p.get("a_value") is not None else None,
            c_shift=_frac(p.get("c", 0), pctx),
            regrade=_int(p.get("d", 0), f"{pctx}.d"),
        ))
    return points


def _double_points_to_json(points) -> list:
    out = []
    for dp in points:
        rec = {"p_minus": dp.p_minus, "p_plus": dp.p_plus, "eta": dp.eta}
        if dp.eps is not None:
            rec["eps"] = dp.eps
        if dp.phases_minus is not None:
            rec["phases_minus"] = [_frac_str(x) for x in dp.phases_minus]
        if dp.phases_plus is not None:
            rec["phases_plus"] = [_frac_str(x) for x in dp.phases_plus]
        if dp.a_value is not None:
            rec["a_value"] = _frac_str(dp.a_value)
        if dp.c_shift:
            rec["c"] = _frac_str(dp.c_shift)
        if dp.regrade:
            rec["d"] = dp.regrade
        out.append(rec)
    return out


class PresentationDocument:
    """Parsed input file: exactly one presentation, operation system, or
    geometric-data block, plus named elements and morphisms."""

    def __init__(self, kind, payload, elements, morphisms, raw):
        self.kind = kind          # "presentation" | "system" | "geometric"
        self.payload = payload    # LagrangianPresentation | OperationSystem | GeometricData
        self.elements = elements  # name -> vector
        self.morphisms = morphisms  # name -> (OperationSystem, target doc or None)
        self.raw = raw

    @property
    def algebra(self) -> OperationSystem:
        if self.kind == "presentation":
            return self.payload.algebra
        if self.kind == "system":
            return self.payload
        raise DocumentError(f"a {self.kind} document has no algebra")

    @property
    def presentation(self) -> LagrangianPresentation:
        if self.kind != "presentation":
            raise DocumentError(f"need a presentation document, got {self.kind}")
        return self.payload


def parse_document(data: dict) -> PresentationDocument:
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    flavor = data.get("flavor", "nov0")
    if flavor not in FLAVORS:
        raise DocumentError(f"unknown flavor {flavor!r}", "flavor")
    cutoff = _frac(data.get("cutoff", "1"), "cutoff")
    monoid = EnergyMonoid.make([
        (_frac(g[0], f"monoid[{i}]"), _int(g[1], f"monoid[{i}]"))
        for i, g in enumerate(data.get("monoid", []))
    ])
    kind = data.get("kind")
    if kind is None:
        kind = "presentation" if ("double_points" in data or "homology_ranks" in data) \
            else ("geometric" if "filtration" in data else "system")
    if kind == "presentation":
        n = _int(data.get("ambient_dim", 0), "ambient_dim")
        ranks = {_int(k, "homology_ranks"): _int(v, f"homology_ranks.{k}")
                 for k, v in (data.get("homology_ranks") or {}).items()}
        points = _double_points_from_json(data.get("double_points"), "double_points")
        tables = _tables_from_json(data.get("tables"), "algebra", "tables")
        try:
            payload = make_presentation(n, ranks, points, monoid, flavor, cutoff,
                                        tables, prefix=data.get("prefix", ""))
        except (ValueError, AinfError) as exc:
            raise DocumentError(str(exc))
        space = payload.space
    elif kind == "system":
        basis = data.get("basis")
        if not isinstance(basis, list):
            raise DocumentError("system document needs a basis", "basis")
        space = GradedSpace.make([(str(l), _int(d, "basis")) for l, d in basis])
        role = data.get("role", "algebra")
        tables = _tables_from_json(data.get("tables"), role, "tables")
        try:
            payload = OperationSystem(space, space, monoid, flavor, cutoff, role,
                                      {t.key: t for t in tables})
        except (ValueError, AinfError) as exc:
            raise DocumentError(str(exc))
    elif kind == "geometric":
        basis = data.get("basis")
        if not isinstance(basis, list):
            raise DocumentError("geometric document needs a basis", "basis")
        space = GradedSpace.make([(str(l), _int(d, "basis")) for l, d in basis])
        filtration = {str(l): _int(v, f"filtration.{l}")
                      for l, v in (data.get("filtration") or {}).items()}
        declared = set()
        entries = {}
        for t in _tables_from_json(data.get("tables"), "algebra", "tables"):
            declared.add(t.key)
            entries[t.key] = t.entries
        for key in data.get("declared", []):
            declared.add((_int(key[0], "declared"), _frac(key[1], "declared"),
                          _int(key[2], "declared")))
        payload = GeometricData(space, filtration, monoid, cutoff, flavor,
                                declared, entries)
    else:
        raise DocumentError(f"unknown document kind {kind!r}", "kind")

    elements = {
        name: _element_from_json(vec, flavor, cutoff, f"elements.{name}", space)
        for name, vec in (data.get("elements") or {}).items()
    }
    morphisms = {}
    for name, mdoc in (data.get("morphisms") or {}).items():
        mctx = f"morphisms.{name}"
        target_doc = None
        target_space = space
        if mdoc.get("target"):
            target_doc = parse_document(mdoc["target"])
            target_space = target_doc.algebra.source
        role = mdoc.get("role", "morphism")
        tables = _tables_from_json(mdoc.get("tables"), role, f"{mctx}.tables")
        try:
            sys_ = OperationSystem(space, target_space, monoid, flavor, cutoff,
                                   role, {t.key: t for t in tables})
        except (ValueError, AinfError) as exc:
            raise DocumentError(str(exc), mctx)
        morphisms[name] = (sys_, target_doc)
    return PresentationDocument(kind, payload, elements, morphisms, data)


def load(path) -> PresentationDocument:
    """Read and validate a document; failures carry field context."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}")
    return parse_document(data)


def document_json(doc_or_payload, elements=None) -> dict:
    """Canonical JSON form of a presentation, system, or document."""
    if isinstance(doc_or_payload, PresentationDocument):
        elements = elements or doc_or_payload.elements
        payload = doc_or_payload.payload
    else:
        payload = doc_or_payload
    def ring(x):
        return {"flavor": x.flavor, "cutoff": _frac_str(x.cutoff),
                "monoid": [[_frac_str(l), m] for l, m in x.monoid.generators]}

    if isinstance(payload, LagrangianPresentation):
        alg = payload.algebra
        out = {
            "kind": "presentation", **ring(alg),
            "ambient_dim": payload.n,
            "homology_ranks": {str(d): r for d, r in sorted(payload.homology_ranks.items())},
            "double_points": _double_points_to_json(payload.double_points),
            "tables": _tables_to_json(alg.tables),
        }
        if payload.label_prefix:
            out["prefix"] = payload.label_prefix
    elif isinstance(payload, OperationSystem):
        out = {
            "kind": "system", **ring(payload),
            "basis": [[l, d] for l, d in payload.source.basis],
            "role": payload.role,
            "tables": _tables_to_json(payload.tables),
        }
    elif isinstance(payload, GeometricData):
        out = {
            "kind": "geometric", **ring(payload),
            "basis": [[l, d] for l, d in payload.space.basis],
            "filtration": {l: v for l, v in sorted(payload.filtration.items())},
            "declared": [[k, _frac_str(l), m]
                         for k, l, m in sorted(payload.declared)],
            "tables": _tables_to_json({
                key: OperationTable(key[0], key[1], key[2], "algebra", e)
                for key, e in payload.entries.items()
            }),
        }
    else:
        raise TypeError(type(payload))
    if elements:
        out["elements"] = {n: _element_to_json(v) for n, v in sorted(elements.items())}
    return out


def emit_report(result, machine=False) -> str:
    """Byte-stable rendering: fixed key order, rational strings.

    Documents (results carrying a "kind") always emit as JSON so that
    commands chain through pipes; plain reports default to key: value text.
    """
    is_document = isinstance(result, dict) and result.get("kind") in (
        "presentation", "system", "geometric")
    if machine or is_document:
        return json.dumps(result, sort_keys=True, indent=2, default=str) + "\n"
    if isinstance(result, dict):
        lines = []
        for key in sorted(result):
            value = result[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True, default=str)
            lines.append(f"{key}: {value}")
        return "\n".join(lines) + "\n"
    return str(result) + "\n"


# ---------------------------------------------------------------------------
# dispatch

# Every command maps one-to-one onto a library operation; the signs command
# selects among the three sign operations with --kind, and index covers the
# two index-arithmetic operations.  The coverage test enumerates this table.
COMMAND_OPERATIONS = {
    "check": "ainfty.check_relations",
    "truncate": "gapped.truncate_level",
    "minimal-model": "transfer.minimal_model",
    "inverse-strict": "transfer.homotopy_inverse_strict",
    "ank-from-geo": "transfer.ank_from_geometric",
    "twist": "floer.twist",
    "mc-residual": "floer.mc_residual",
    "mc-solve": "floer.mc_solve",
    "bc-criteria": "floer.bc_criteria",
    "gauge": "floer.gauge_act",
    "hf": "floer.hf_compute",
    "hf-product": "floer.hf_product",
    "union": "floer.union_sectors",
    "rescale": "floer.rescale_regrade",
    "legendrian-check": "floer.legendrian_validate",
    "index": "geomsign.eta_from_phases+geomsign.shifted_degree",
    "vdim": "geomsign.vdim_formulas",
    "signs": "geomsign.sign_zeta+geomsign.sign_boundary_insertion+geomsign.sign_fibre_product",
    "preset-whitney": "floer.whitney_preset",
    "feasible": "floer.acyclicity_feasible",
    "trees": "transfer.enumerate_trees",
}


def _named(named: dict, name, what="element"):
    """``named[name]``; a name the document does not define is a DocumentError."""
    if name not in named:
        raise DocumentError(f"no {what} named {name!r} in the document")
    return named[name]


def _hf_groups_json(report):
    return {
        "cutoff": _frac_str(report.cutoff),
        "flavor": report.flavor,
        "stable": report.stable,
        "parity_collapsed": report.parity_collapsed,
        "groups": {
            str(k): {"free": g["free"], "torsion": [_frac_str(v) for v in g["torsion"]]}
            for k, g in sorted(report.groups.items())
        },
    }


def _fail_witness(report):
    out = []
    for kind, key, witness in report.failures:
        out.append({
            "kind": kind,
            "k": key[0], "lam": _frac_str(key[1]), "mu": key[2],
            "witness": [list(witness[0]), witness[1]] if witness else None,
        })
    return out


def dispatch(command, args):
    """Run one command; returns (exit_code, result)."""
    doc = load(args.infile) if "infile" in vars(args) else None
    if command == "check":
        report = ainfty.check_relations(doc.algebra, args.level)
        code = 0 if report.ok else 1
        return code, {"command": "check", "ok": report.ok, "level": args.level,
                      "failures": _fail_witness(report)}
    if command == "truncate":
        out = gapped.truncate_level(doc.algebra, args.level)
        return 0, document_json(out)
    if command == "minimal-model":
        model, incl = transfer.minimal_model(doc.algebra, level=args.level,
                                             kmax=args.kmax)
        result = document_json(model)
        result["inclusion"] = _tables_to_json(incl.tables)
        return 0, result
    if command == "inverse-strict":
        p, target_doc = _named(doc.morphisms, args.morphism, "morphism")
        target = target_doc.algebra if target_doc else doc.algebra
        q = transfer.homotopy_inverse_strict(p, doc.algebra, target,
                                             level=args.level, kmax=args.kmax)
        composed = ainfty.compose_morphisms(p, q)
        ident = ainfty.identity_morphism(target)
        ok = composed.tables == ident.tables or _same_tables(composed, ident)
        return (0 if ok else 1), {
            "command": "inverse-strict", "identity_check": ok,
            "tables": _tables_to_json(q.tables),
        }
    if command == "ank-from-geo":
        if doc.kind != "geometric":
            raise DocumentError("ank-from-geo needs a geometric document")
        out = transfer.ank_from_geometric(doc.payload, args.level, args.parity)
        return 0, document_json(out)
    if command == "twist":
        out = floer.twist(doc.algebra, _named(doc.elements, args.element))
        return 0, document_json(out)
    if command == "mc-residual":
        residual, ok = floer.mc_residual(doc.algebra, _named(doc.elements, args.element))
        return (0 if ok else 1), {
            "command": "mc-residual", "verified_zero": ok,
            "residual": _element_to_json(residual),
        }
    if command == "mc-solve":
        out = floer.mc_solve(doc.algebra)
        if isinstance(out, floer.BoundingCochain):
            return 0, {"command": "mc-solve", "solved": True,
                       "bounding_cochain": _element_to_json(out.element)}
        return 1, {"command": "mc-solve", "solved": False,
                   "obstruction": {"level": _frac_str(out.level), "mu": out.mu,
                                   "class": {l: _frac_str(c) for l, c in
                                             sorted(out.class_vector.items())}},
                   "note": out.note}
    if command == "bc-criteria":
        report = floer.bc_criteria(doc.presentation, exact=args.exact)
        result = {
            "command": "bc-criteria",
            "every_degree0_is_bc": report.every_degree0_is_bc,
            "zero_is_only_candidate": report.zero_is_only_candidate,
            "zero_is_bc": report.zero_is_bc,
            "notes": report.notes,
        }
        if report.unique_zero:
            result["unique bounding cochain"] = "0"
        return 0, result
    if command == "gauge":
        j, target_doc = _named(doc.morphisms, args.morphism, "morphism")
        target = target_doc.algebra if target_doc else doc.algebra
        b = _named(doc.elements, args.element)
        _, solves = floer.mc_residual(doc.algebra, b)
        jb, transport = floer.gauge_act(j, floer.BoundingCochain(b, certified=solves), target)
        return 0, {
            "command": "gauge",
            "transported": _element_to_json(jb.element),
            "certified": jb.certified,
            "transport_entries": {
                f"{r}<-{c}": str(v) for (r, c), v in sorted(transport.data.items())
            },
        }
    if command == "hf":
        report = floer.hf_compute(doc.presentation, _named(doc.elements, args.element))
        result = {"command": "hf"}
        result.update(_hf_groups_json(report))
        return 0, result
    if command == "hf-product":
        x = _named(doc.elements, args.x)
        y = _named(doc.elements, args.y)
        prod, cycle_ok = floer.hf_product(doc.presentation,
                                          _named(doc.elements, args.element), x, y)
        return (0 if cycle_ok else 1), {
            "command": "hf-product", "cycle_certificate": cycle_ok,
            "product": _element_to_json(prod),
        }
    if command == "union":
        other = load(args.other)
        cross_points, cross_tables = [], []
        if args.cross:
            with open(args.cross, encoding="utf-8") as fh:
                cross = json.load(fh)
            cross_points = _double_points_from_json(cross.get("double_points"),
                                                    "cross.double_points")
            cross_tables = _tables_from_json(cross.get("tables"), "algebra",
                                             "cross.tables")
        union = floer.union_sectors(doc.presentation, other.presentation,
                                    cross_points, cross_tables)
        result = document_json(union)
        result["sectors"] = dict(sorted(union.sectors.items()))
        return 0, result
    if command == "rescale":
        assignments = json.loads(args.assignments)
        assignments = {
            tuple(k.split(":")): v for k, v in assignments.items()
        }
        b = _named(doc.elements, args.element) if args.element else None
        report = floer.rescale_regrade(doc.presentation, assignments, b)
        result = {
            "command": "rescale",
            "wall": report.wall,
            "algebra_wall": report.algebra_wall,
            "intertwining_checked": report.intertwining_checked,
        }
        if report.transported_valuation is not None:
            result["transported_valuation"] = (
                "inf" if report.transported_valuation == float("inf")
                else _frac_str(report.transported_valuation))
            result["transported"] = _element_to_json(report.transported)
        if report.presentation is not None:
            result["presentation"] = document_json(report.presentation)
        return (1 if (report.wall or report.algebra_wall) else 0), result
    if command == "legendrian-check":
        report = floer.legendrian_validate(doc.presentation)
        return (0 if report.ok else 1), {
            "command": "legendrian-check", "ok": report.ok,
            "violations": report.violations,
        }
    if command == "index":
        if args.kind == "eta":
            eta = _flag_call("--n/--r-minus/--r-plus", geomsign.eta_from_phases,
                             args.n, args.r_minus, args.r_plus)
            return 0, {"command": "index", "eta": eta, "partner": args.n - eta}
        value = _flag_call("--target", geomsign.shifted_degree, args.target, args.a,
                           n=args.n, eta=args.eta, dim_t=args.dim_t)
        return 0, {"command": "index", "shifted_degree": value}
    if command == "vdim":
        value = _flag_call("--kind/--params", geomsign.vdim_formulas, args.kind,
                           **args.params)
        return 0, {"command": "vdim", "kind": args.kind, "value": value}
    if command == "signs":
        q = geomsign.SignQuery(
            n=args.n, i=args.i, j=args.j, k=args.k, k1=args.k1, k2=args.k2,
            dim_t=args.dim_t,
            degs=args.degs, eta_prefix=args.eta_prefix, eta_block=args.eta_block,
            eta_tail=args.eta_tail, eta_by_index=args.eta_by_index,
            zero_in_I=args.zero_in_i, eta0=args.eta0,
            i_in_I1=args.i_in_i1, zero_in_I2=args.zero_in_i2, eta_i=args.eta_i,
            deg_f=args.deg_f,
        )
        if args.kind.startswith("zeta"):
            value = _flag_call("--kind/--k/--degs", geomsign.sign_zeta, args.kind, q)
        elif args.kind in ("face", "split", "insert", "vcSplit", "familySplit"):
            value = geomsign.sign_boundary_insertion(args.kind, q)
        else:
            value = _flag_call("--kind/--dims", geomsign.sign_fibre_product,
                               args.kind, *args.dims)
        return 0, {"command": "signs", "kind": args.kind, "sign": value}
    if command == "preset-whitney":
        pres = floer.whitney_preset(args.n, flavor=args.flavor, cutoff=args.cutoff)
        return 0, document_json(pres)
    if command == "feasible":
        ok, bad = floer.acyclicity_feasible(args.dims)
        return (0 if ok else 1), {"command": "feasible", "feasible": ok,
                                  "first_failure": bad}
    if command == "trees":
        out = _flag_call("--k", transfer.enumerate_trees, args.k, args.mode,
                         args.low_valence)
        return 0, {"command": "trees", "count": len(out),
                   "shapes": [t.shape() for t in out]}
    raise DocumentError(f"unknown command {command!r}")


def _flag_call(flags, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` for a command whose only input is its flags:
    an error the library raises on their values is an argparse error that
    names ``flags``, so the CLI exits 2 with a message."""
    try:
        return fn(*args, **kwargs)
    except (IndexError, TypeError, ValueError) as exc:
        raise argparse.ArgumentError(None, f"argument {flags}: {exc}") from None


def _same_tables(a: OperationSystem, b: OperationSystem) -> bool:
    keys = set(a.tables) | set(b.tables)
    for key in keys:
        ta = a.tables.get(key)
        tb = b.tables.get(key)
        ea = ta.entries if ta else {}
        eb = tb.entries if tb else {}
        if ea != eb:
            return False
    return True


# ---------------------------------------------------------------------------
# argument parsing
#
# Flag values are parsed by argparse ``type=`` callables: a value they refuse
# raises ArgumentTypeError, and argparse exits 2 with a usage message.

def _rational_arg(text):
    """A rational such as 3/2."""
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _int_arg(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _count_arg(text):
    """An integer >= 0."""
    value = _int_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
    return value


def _list_arg(parse):
    """Comma-separated values, each read by ``parse``; the empty string is []."""
    return lambda text: [parse(x) for x in text.split(",")] if text else []


def _object_arg(text):
    """A JSON object."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise argparse.ArgumentTypeError(f"not a JSON object: {text!r}")
    return data


def _int_object_arg(text):
    """A JSON object with integer keys and integer values, e.g. {"0": 1}."""
    try:
        return {_int(k, "key"): _int(v, f"value at {k!r}")
                for k, v in _object_arg(text).items()}
    except DocumentError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ainfkit",
        description="gapped filtered A-infinity calculus over truncated Novikov rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--machine", action="store_true",
                       help="emit the machine-readable JSON report")
        p.add_argument("--out", default=None, help="write the report to a file")
        return p

    def add_doc(name, **kwargs):
        p = add(name, **kwargs)
        p.add_argument("--in", dest="infile", default="-",
                       help="input document (default: stdin)")
        return p

    p = add_doc("check", help="verify the A-infinity relations")
    p.add_argument("--level", type=int, required=True)
    p = add_doc("truncate", help="keep the tables admitted at a budget level")
    p.add_argument("--level", type=int, required=True)
    p = add_doc("minimal-model", help="tree-sum minimal model and inclusion")
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p = add_doc("inverse-strict", help="homotopy inverse of a strict surjective wqe")
    p.add_argument("--morphism", required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p = add_doc("ank-from-geo", help="assemble an A_{N,0} algebra from geometric tables")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--parity", type=int, required=True,
                   help="ambient dimension parity entering the edge sign")
    p = add_doc("twist", help="twist the operations by a named element")
    p.add_argument("--element", required=True)
    p = add_doc("mc-residual", help="Maurer-Cartan residual of a named element")
    p.add_argument("--element", required=True)
    add_doc("mc-solve", help="greedy level-by-level Maurer-Cartan solver")
    p = add_doc("bc-criteria", help="existence/uniqueness criteria from ranks and indices")
    p.add_argument("--exact", action="store_true")
    p = add_doc("gauge", help="gauge action of a named morphism on a named element")
    p.add_argument("--morphism", required=True)
    p.add_argument("--element", required=True)
    p = add_doc("hf", help="Floer cohomology of a presentation")
    p.add_argument("--element", required=True)
    p = add_doc("hf-product", help="signed product of two named cycles")
    p.add_argument("--element", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p = add_doc("union", help="disjoint union with sector tags")
    p.add_argument("--other", required=True)
    p.add_argument("--cross", default=None)
    p = add_doc("rescale", help="wall-crossing energy shifts and e-regrades")
    p.add_argument("--assignments", required=True,
                   help='JSON like {"p-:p+": {"c": "1/4", "d": 0}, ...}')
    p.add_argument("--element", default=None)
    add_doc("legendrian-check", help="a-value pairing and energy lattice check")

    p = add("index", help="double-point index and shifted degrees")
    p.add_argument("--kind", choices=["eta", "shifted"], default="eta")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--r-minus", type=_list_arg(_rational_arg), default="")
    p.add_argument("--r-plus", type=_list_arg(_rational_arg), default="")
    p.add_argument("--target", default="manifold")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--eta", type=int, default=0)
    p.add_argument("--dim-t", dest="dim_t", type=int, default=0)
    p = add("vdim", help="closed-form virtual dimensions")
    p.add_argument("--kind", required=True)
    p.add_argument("--params", type=_object_arg, default="{}",
                   help="JSON parameter object")
    p = add("signs", help="orientation sign formulas")
    p.add_argument("--kind", required=True)
    for flag in ("n", "i", "j", "k", "k1", "k2", "eta0", "eta-i", "deg-f", "dim-t"):
        p.add_argument(f"--{flag}", dest=flag.replace("-", "_"), type=int, default=0)
    for flag in ("degs", "eta-prefix", "eta-block", "eta-tail", "dims"):
        p.add_argument(f"--{flag}", dest=flag.replace("-", "_"), type=_list_arg(_int_arg),
                       default="")
    p.add_argument("--eta-by-index", dest="eta_by_index", type=_int_object_arg,
                   default="{}")
    p.add_argument("--zero-in-I", dest="zero_in_i", action="store_true")
    p.add_argument("--i-in-I1", dest="i_in_i1", action="store_true")
    p.add_argument("--zero-in-I2", dest="zero_in_i2", action="store_true")
    p = add("preset-whitney", help="the immersed-sphere presentation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--flavor", default="cy0", choices=list(FLAVORS))
    p.add_argument("--cutoff", type=_rational_arg, default="2")
    p = add("feasible", help="acyclic-differential rank feasibility")
    p.add_argument("--dims", type=_int_object_arg, required=True,
                   help='JSON like {"0": 1, "1": 2}')
    p = add("trees", help="enumerate planar rooted trees")
    p.add_argument("--k", type=_count_arg, required=True)
    p.add_argument("--mode", choices=["strict", "filtered"], default="strict")
    p.add_argument("--low-valence", dest="low_valence", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, result = dispatch(args.command, args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    except DocumentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AinfError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    text = emit_report(result, machine=getattr(args, "machine", False))
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
