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
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

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


def _json_array(value, ctx, size=None) -> list:
    """``value``, which must be a JSON array (of ``size`` items, if given)."""
    if not isinstance(value, list) or size is not None and len(value) != size:
        raise DocumentError("must be a JSON array" + (f" of {size} items" if size else ""),
                            ctx)
    return value


def _json_object(value, ctx) -> dict:
    """``value``, which must be a JSON object."""
    if not isinstance(value, dict):
        raise DocumentError("must be a JSON object", ctx)
    return value


def _json_string(value, ctx) -> str:
    """``value``, which must be a JSON string."""
    if not isinstance(value, str):
        raise DocumentError(f"{value!r} is not a string", ctx)
    return value


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
        lctx = f"{ctx}.{label}"
        try:  # a term off the ring (NovikovElement.make) is a ValueError too
            parsed = [parse_term(_json_string(t, lctx)) for t in _json_array(terms, lctx)]
            val = NovikovElement.make(parsed, flavor, cutoff)
        except ZeroDivisionError:
            raise DocumentError("zero denominator in a term", lctx)
        except ValueError as exc:
            raise DocumentError(str(exc), lctx)
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
    for i, tdoc in enumerate(_json_array(data, ctx)):
        tctx = f"{ctx}[{i}]"
        _json_object(tdoc, tctx)
        for fieldname in ("k", "lam", "mu"):
            if fieldname not in tdoc:
                raise DocumentError(f"table missing {fieldname!r}", tctx)
        k = _int(tdoc["k"], f"{tctx}.k")
        entries = {}
        for j, e in enumerate(_json_array(tdoc.get("entries", []), f"{tctx}.entries")):
            # checked inline, once per structure constant; the entry's context
            # is formatted only when a check fails
            try:
                if not isinstance(e, dict) or "output" not in e or "coeff" not in e:
                    raise DocumentError("entry needs inputs/output/coeff")
                inputs = e.get("inputs", [])
                output = e["output"]
                if not isinstance(inputs, list) or not isinstance(output, str):
                    raise DocumentError("inputs must be an array, output a string")
                for label in inputs:
                    if not isinstance(label, str):
                        raise DocumentError(f"input {label!r} is not a string")
                inputs = tuple(inputs)
                if len(inputs) != k:
                    raise DocumentError(f"entry arity {len(inputs)} != k={tdoc['k']}")
                tgt = entries.setdefault(inputs, {})
                tgt[output] = tgt.get(output, 0) + _frac(e["coeff"], None)
            except DocumentError as exc:
                raise DocumentError(str(exc), f"{tctx}.entries[{j}]") from None
        lam = _frac(tdoc["lam"], tctx)
        mu = _int(tdoc["mu"], f"{tctx}.mu")
        table_role = _json_string(tdoc.get("role", role), f"{tctx}.role")
        try:
            tables.append(OperationTable(k, lam, mu, table_role, entries))
        except ValueError as exc:  # an unknown role
            raise DocumentError(str(exc), tctx)
    return tables


def _phases(data, ctx):
    """A phase list, or None when the record has none (absent, null or [])."""
    if data is None:
        return None
    return tuple(_frac(x, ctx) for x in _json_array(data, ctx)) or None


def _double_points_from_json(data, ctx) -> list:
    points = []
    for i, p in enumerate(_json_array(data, ctx)):
        pctx = f"{ctx}[{i}]"
        _json_object(p, pctx)
        for fieldname in ("p_minus", "p_plus", "eta"):
            if fieldname not in p:
                raise DocumentError(f"double point missing {fieldname!r}", pctx)
        points.append(DoublePoint(
            p_minus=str(p["p_minus"]), p_plus=str(p["p_plus"]),
            eta=_int(p["eta"], f"{pctx}.eta"),
            eps=_int(p["eps"], f"{pctx}.eps") if p.get("eps") is not None else None,
            phases_minus=_phases(p.get("phases_minus"), f"{pctx}.phases_minus"),
            phases_plus=_phases(p.get("phases_plus"), f"{pctx}.phases_plus"),
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


def _space_from_json(data, kind) -> GradedSpace:
    if not isinstance(data, list):
        raise DocumentError(f"{kind} document needs a basis", "basis")
    basis = []
    for i, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError("must be a JSON array of 2 items", f"basis[{i}]")
        basis.append((str(pair[0]), _int(pair[1], "basis")))
    try:
        return GradedSpace.make(basis)
    except ValueError as exc:  # a repeated label
        raise DocumentError(str(exc), "basis") from None


class PresentationDocument:
    """Parsed input file: exactly one presentation, operation system, or
    geometric-data block, plus named elements and morphisms."""

    def __init__(self, kind, payload, elements, morphisms):
        self.kind = kind          # "presentation" | "system" | "geometric"
        self.payload = payload    # LagrangianPresentation | OperationSystem | GeometricData
        self.elements = elements  # name -> vector
        self.morphisms = morphisms  # name -> (OperationSystem, target doc or None)

    @property
    def algebra(self) -> OperationSystem:
        if self.kind == "presentation":
            return self.payload.algebra
        if self.kind == "system":
            if self.payload.role != "algebra":
                raise DocumentError(f"a system document of role {self.payload.role!r} "
                                    "is no algebra", "role")
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
    if cutoff < 0:
        raise DocumentError("must be >= 0", "cutoff")
    generators = []
    for i, g in enumerate(_json_array(data.get("monoid", []), "monoid")):
        gctx = f"monoid[{i}]"
        lam, mu = _json_array(g, gctx, 2)
        generators.append((_frac(lam, gctx), _int(mu, gctx)))
    monoid = EnergyMonoid.make(generators)
    kind = data.get("kind")
    if kind is None:
        kind = "presentation" if ("double_points" in data or "homology_ranks" in data) \
            else ("geometric" if "filtration" in data else "system")
    if kind == "presentation":
        n = _int(data.get("ambient_dim", 0), "ambient_dim")
        ranks = {_int(k, "homology_ranks"): _int(v, f"homology_ranks.{k}")
                 for k, v in _json_object(data.get("homology_ranks", {}),
                                          "homology_ranks").items()}
        points = _double_points_from_json(data.get("double_points", []), "double_points")
        tables = _tables_from_json(data.get("tables", []), "algebra", "tables")
        try:
            payload = make_presentation(n, ranks, points, monoid, flavor, cutoff, tables,
                                        prefix=_json_string(data.get("prefix", ""), "prefix"))
        except (ValueError, AinfError) as exc:
            raise DocumentError(str(exc))
        space = payload.space
    elif kind == "system":
        space = _space_from_json(data.get("basis"), kind)
        role = _json_string(data.get("role", "algebra"), "role")
        tables = _tables_from_json(data.get("tables", []), role, "tables")
        try:
            payload = OperationSystem(space, space, monoid, flavor, cutoff, role,
                                      {t.key: t for t in tables})
        except (ValueError, AinfError) as exc:
            raise DocumentError(str(exc))
    elif kind == "geometric":
        space = _space_from_json(data.get("basis"), kind)
        filtration = {str(l): _int(v, f"filtration.{l}")
                      for l, v in _json_object(data.get("filtration", {}),
                                               "filtration").items()}
        declared = set()
        entries = {}
        for t in _tables_from_json(data.get("tables", []), "algebra", "tables"):
            declared.add(t.key)
            entries[t.key] = t.entries
        for i, key in enumerate(_json_array(data.get("declared", []), "declared")):
            k, lam, mu = _json_array(key, f"declared[{i}]", 3)
            declared.add((_int(k, "declared"), _frac(lam, "declared"),
                          _int(mu, "declared")))
        payload = GeometricData(space, filtration, monoid, cutoff, flavor,
                                declared, entries)
    else:
        raise DocumentError(f"unknown document kind {kind!r}", "kind")

    elements = {
        name: _element_from_json(vec, flavor, cutoff, f"elements.{name}", space)
        for name, vec in _json_object(data.get("elements", {}), "elements").items()
    }
    morphisms = {}
    for name, mdoc in _json_object(data.get("morphisms", {}), "morphisms").items():
        mctx = f"morphisms.{name}"
        target_doc = None
        target_space = space
        if _json_object(mdoc, mctx).get("target") is not None:
            target_doc = parse_document(mdoc["target"])
            target_space = target_doc.algebra.source
        role = _json_string(mdoc.get("role", "morphism"), f"{mctx}.role")
        tables = _tables_from_json(mdoc.get("tables", []), role, f"{mctx}.tables")
        try:
            sys_ = OperationSystem(space, target_space, monoid, flavor, cutoff,
                                   role, {t.key: t for t in tables})
        except (ValueError, AinfError) as exc:
            raise DocumentError(str(exc), mctx)
        morphisms[name] = (sys_, target_doc)
    return PresentationDocument(kind, payload, elements, morphisms)


def _read_json(path) -> dict:
    """The JSON object in the file at ``path``; "-" reads stdin."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"not UTF-8: {exc}", path)
    except ValueError as exc:  # a NUL in the path
        raise DocumentError(f"cannot read {path!r}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}")
    except RecursionError:
        raise DocumentError("JSON nested too deeply", path) from None
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object", path)
    return data


def load(path) -> PresentationDocument:
    """Read and validate a document; failures carry field context."""
    return parse_document(_read_json(path))


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


def _is_document(result) -> bool:
    return isinstance(result, dict) and result.get("kind") in (
        "presentation", "system", "geometric")


def _json_text(value, indent="") -> str:
    """``json.dumps(value, sort_keys=True, indent=2, default=str)`` byte for
    byte, at nesting ``indent``.  json indents with its pure-Python encoder;
    this writer renders strings, str-keyed dicts, lists, ints, bools and None
    itself and hands any other value to ``json.dumps``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [f"{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}"
                 for key in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = [_json_text(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    # strings are escaped, so every newline in json's text is an indent
    text = json.dumps(value, sort_keys=True, indent=2, default=str)
    return text.replace("\n", "\n" + indent)


def emit_report(result, machine=False) -> str:
    """Byte-stable rendering: fixed key order, rational strings.

    Documents (results carrying a "kind") always emit as JSON so that
    commands chain through pipes; plain reports default to key: value text.
    """
    if machine or _is_document(result):
        return _json_text(result) + "\n"
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
# command handlers: (document or None, parsed flags) -> (exit code, report)

def _named(named: dict, name, what="element"):
    """``named[name]``; a name the document does not define is a DocumentError."""
    if name not in named:
        raise DocumentError(f"no {what} named {name!r} in the document")
    return named[name]


def _flag_call(flags, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` for a command whose only input is its flags:
    an error the library raises on their values is an argparse error that
    names ``flags``, so the CLI exits 2 with a message."""
    try:
        return fn(*args, **kwargs)
    except (IndexError, TypeError, ValueError) as exc:
        raise argparse.ArgumentError(None, f"argument {flags}: {exc}") from None


def _same_tables(a: OperationSystem, b: OperationSystem) -> bool:
    """Equal entries at every key; a missing table counts as an empty one."""
    def stored(s):
        return {key: t.entries for key, t in s.tables.items() if t.entries}
    return stored(a) == stored(b)


def _check(doc, args):
    report = ainfty.check_relations(doc.algebra, args.level)
    failures = []
    for kind, key, witness in report.failures:
        failures.append({
            "kind": kind,
            "k": key[0], "lam": _frac_str(key[1]), "mu": key[2],
            "witness": [list(witness[0]), witness[1]] if witness else None,
        })
    return (0 if report.ok else 1), {"ok": report.ok, "level": args.level,
                                     "failures": failures}


def _truncate(doc, args):
    # truncate_level keeps the role, so a system document of any role is cut
    sys_ = doc.payload if doc.kind == "system" else doc.algebra
    return 0, document_json(gapped.truncate_level(sys_, args.level))


def _level_or_kmax(args):
    """Refuse, as argparse would, a tree-sum command given no bound."""
    if args.level is None and args.kmax is None:
        raise argparse.ArgumentError(None, "one of the arguments --level --kmax is required")


def _minimal_model(doc, args):
    _level_or_kmax(args)
    model, incl = transfer.minimal_model(doc.algebra, level=args.level, kmax=args.kmax)
    result = document_json(model)
    result["inclusion"] = _tables_to_json(incl.tables)
    return 0, result


def _inverse_strict(doc, args):
    _level_or_kmax(args)
    p, target_doc = _named(doc.morphisms, args.morphism, "morphism")
    target = target_doc.algebra if target_doc else doc.algebra
    q = transfer.homotopy_inverse_strict(p, doc.algebra, target,
                                         level=args.level, kmax=args.kmax)
    ok = _same_tables(ainfty.compose_morphisms(p, q), ainfty.identity_morphism(target))
    return (0 if ok else 1), {"identity_check": ok, "tables": _tables_to_json(q.tables)}


def _ank_from_geo(doc, args):
    if doc.kind != "geometric":
        raise DocumentError("ank-from-geo needs a geometric document")
    return 0, document_json(transfer.ank_from_geometric(doc.payload, args.level,
                                                        args.parity))


def _twist(doc, args):
    return 0, document_json(floer.twist(doc.algebra, _named(doc.elements, args.element)))


def _mc_residual(doc, args):
    residual, ok = floer.mc_residual(doc.algebra, _named(doc.elements, args.element))
    return (0 if ok else 1), {"verified_zero": ok, "residual": _element_to_json(residual)}


def _mc_solve(doc, args):
    out = floer.mc_solve(doc.algebra)
    if isinstance(out, floer.BoundingCochain):
        return 0, {"solved": True, "bounding_cochain": _element_to_json(out.element)}
    return 1, {"solved": False,
               "obstruction": {"level": _frac_str(out.level), "mu": out.mu,
                               "class": {l: _frac_str(c) for l, c in
                                         sorted(out.class_vector.items())}},
               "note": out.note}


def _bc_criteria(doc, args):
    report = floer.bc_criteria(doc.presentation, exact=args.exact)
    result = {
        "every_degree0_is_bc": report.every_degree0_is_bc,
        "zero_is_only_candidate": report.zero_is_only_candidate,
        "zero_is_bc": report.zero_is_bc,
        "notes": report.notes,
    }
    if report.unique_zero:
        result["unique bounding cochain"] = "0"
    return 0, result


def _gauge(doc, args):
    j, target_doc = _named(doc.morphisms, args.morphism, "morphism")
    target = target_doc.algebra if target_doc else doc.algebra
    b = _named(doc.elements, args.element)
    _, solves = floer.mc_residual(doc.algebra, b)
    jb, transport = floer.gauge_act(j, floer.BoundingCochain(b, certified=solves), target)
    return 0, {
        "transported": _element_to_json(jb.element),
        "certified": jb.certified,
        "transport_entries": {
            f"{r}<-{c}": str(v) for (r, c), v in sorted(transport.data.items())
        },
    }


def _hf(doc, args):
    report = floer.hf_compute(doc.presentation, _named(doc.elements, args.element))
    return 0, {
        "cutoff": _frac_str(report.cutoff),
        "flavor": report.flavor,
        "stable": report.stable,
        "parity_collapsed": report.parity_collapsed,
        "groups": {
            str(k): {"free": g["free"], "torsion": [_frac_str(v) for v in g["torsion"]]}
            for k, g in sorted(report.groups.items())
        },
    }


def _hf_product(doc, args):
    x = _named(doc.elements, args.x)
    y = _named(doc.elements, args.y)
    prod, cycle_ok = floer.hf_product(doc.presentation,
                                      _named(doc.elements, args.element), x, y)
    return (0 if cycle_ok else 1), {"cycle_certificate": cycle_ok,
                                    "product": _element_to_json(prod)}


def _union(doc, args):
    other = load(args.other)
    cross = _read_json(args.cross) if args.cross else {}
    union = floer.union_sectors(
        doc.presentation, other.presentation,
        _double_points_from_json(cross.get("double_points", []), "cross.double_points"),
        _tables_from_json(cross.get("tables", []), "algebra", "cross.tables"))
    result = document_json(union)
    result["sectors"] = dict(sorted(union.sectors.items()))
    return 0, result


def _rescale(doc, args):
    b = _named(doc.elements, args.element) if args.element else None
    report = floer.rescale_regrade(doc.presentation, args.assignments, b)
    result = {
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


def _legendrian_check(doc, args):
    report = floer.legendrian_validate(doc.presentation)
    return (0 if report.ok else 1), {"ok": report.ok, "violations": report.violations}


def _index(doc, args):
    if args.kind == "eta":
        eta = _flag_call("--n/--r-minus/--r-plus", geomsign.eta_from_phases,
                         args.n, args.r_minus, args.r_plus)
        return 0, {"eta": eta, "partner": args.n - eta}
    value = _flag_call("--target", geomsign.shifted_degree, args.target, args.a,
                       n=args.n, eta=args.eta, dim_t=args.dim_t)
    return 0, {"shifted_degree": value}


def _vdim(doc, args):
    value = _flag_call("--kind/--params", geomsign.vdim_formulas, args.kind, **args.params)
    return 0, {"kind": args.kind, "value": value}


def _signs(doc, args):
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
    return 0, {"kind": args.kind, "sign": value}


def _preset_whitney(doc, args):
    pres = _flag_call("--n/--cutoff", floer.whitney_preset, args.n, flavor=args.flavor,
                      cutoff=args.cutoff)
    return 0, document_json(pres)


def _feasible(doc, args):
    ok, bad = _flag_call("--dims", floer.acyclicity_feasible, args.dims)
    return (0 if ok else 1), {"feasible": ok, "first_failure": bad}


def _trees(doc, args):
    flags = "--k" if args.mode == "strict" else "--k/--low-valence"
    out = _flag_call(flags, transfer.enumerate_trees, args.k, args.mode, args.low_valence)
    return 0, {"count": len(out), "shapes": [t.shape() for t in out]}


# ---------------------------------------------------------------------------
# flag types and the command table
#
# Flag values are parsed by argparse ``type=`` callables: a value they refuse
# raises ArgumentTypeError, and argparse exits 2 with a usage message.

def _rational_arg(text):
    """A rational such as 3/2."""
    try:
        return as_fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
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


# The largest --level admitted.  A level bounds the arity and norm of the
# keys that check and the tree sums visit, and their work grows with it: on a
# two-generator system, level 1,000 takes a few hundredths of a second.
MAX_LEVEL = 1_000


def _level_arg(text):
    """An integer in [0, MAX_LEVEL]."""
    value = _count_arg(text)
    if value > MAX_LEVEL:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_LEVEL}: {text!r}")
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
    except RecursionError:
        raise argparse.ArgumentTypeError("JSON nested too deeply") from None
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


def _assignments_arg(text):
    """Wall shifts per double point, {"p-:p+": {"c": rational, "d": integer}}."""
    out = {}
    for key, shift in _object_arg(text).items():
        pair = tuple(key.split(":"))
        if len(pair) != 2:
            raise argparse.ArgumentTypeError(f"key {key!r} is not of the form 'p-:p+'")
        if not isinstance(shift, dict):
            raise argparse.ArgumentTypeError(f"value at {key!r} is not a JSON object")
        try:
            out[pair] = {"c": _rational_arg(shift.get("c", 0)),
                         "d": _int(shift.get("d", 0), "d")}
        except (argparse.ArgumentTypeError, DocumentError) as exc:
            raise argparse.ArgumentTypeError(f"value at {key!r}: {exc}") from None
    return out


class Command(NamedTuple):
    handler: Callable      # (document or None, parsed flags) -> (exit code, report)
    operations: tuple      # the library operations it reaches
    help: str
    reads_document: bool   # from --in
    flags: tuple = ()      # (flag, add_argument kwargs) pairs


def _required(flag):
    name, kwargs = flag
    return name, {**kwargs, "required": True}


# flags that several commands share; _required(...) where a command needs one
_LEVEL = ("--level", {"type": _level_arg})
_KMAX = ("--kmax", {"type": _level_arg})
_ELEMENT = ("--element", {})
_MORPHISM = ("--morphism", {"required": True})

# One operation per command, except that signs selects among three with
# --kind and index covers two.
COMMANDS = {
    "check": Command(_check, ("ainfty.check_relations",),
                     "verify the A-infinity relations", True, (_required(_LEVEL),)),
    "truncate": Command(_truncate, ("gapped.truncate_level",),
                        "keep the tables admitted at a budget level", True,
                        (_required(_LEVEL),)),
    "minimal-model": Command(_minimal_model, ("transfer.minimal_model",),
                             "tree-sum minimal model and inclusion", True, (_LEVEL, _KMAX)),
    "inverse-strict": Command(_inverse_strict, ("transfer.homotopy_inverse_strict",),
                              "homotopy inverse of a strict surjective wqe", True,
                              (_MORPHISM, _LEVEL, _KMAX)),
    "ank-from-geo": Command(
        _ank_from_geo, ("transfer.ank_from_geometric",),
        "assemble an A_{N,0} algebra from geometric tables", True,
        (_required(_LEVEL), ("--parity", {
            "type": int, "required": True,
            "help": "ambient dimension parity entering the edge sign"}))),
    "twist": Command(_twist, ("floer.twist",), "twist the operations by a named element",
                     True, (_required(_ELEMENT),)),
    "mc-residual": Command(_mc_residual, ("floer.mc_residual",),
                           "Maurer-Cartan residual of a named element", True,
                           (_required(_ELEMENT),)),
    "mc-solve": Command(_mc_solve, ("floer.mc_solve",),
                        "greedy level-by-level Maurer-Cartan solver", True),
    "bc-criteria": Command(_bc_criteria, ("floer.bc_criteria",),
                           "existence/uniqueness criteria from ranks and indices", True,
                           (("--exact", {"action": "store_true"}),)),
    "gauge": Command(_gauge, ("floer.gauge_act",),
                     "gauge action of a named morphism on a named element", True,
                     (_MORPHISM, _required(_ELEMENT))),
    "hf": Command(_hf, ("floer.hf_compute",), "Floer cohomology of a presentation", True,
                  (_required(_ELEMENT),)),
    "hf-product": Command(_hf_product, ("floer.hf_product",),
                          "signed product of two named cycles", True,
                          (_required(_ELEMENT), ("--x", {"required": True}),
                           ("--y", {"required": True}))),
    "union": Command(_union, ("floer.union_sectors",), "disjoint union with sector tags",
                     True, (("--other", {"required": True}), ("--cross", {"default": None}))),
    "rescale": Command(_rescale, ("floer.rescale_regrade",),
                       "wall-crossing energy shifts and e-regrades", True,
                       (("--assignments", {
                           "type": _assignments_arg, "required": True,
                           "help": 'JSON like {"p-:p+": {"c": "1/4", "d": 0}, ...}'}),
                        _ELEMENT)),
    "legendrian-check": Command(_legendrian_check, ("floer.legendrian_validate",),
                                "a-value pairing and energy lattice check", True),
    "index": Command(_index, ("geomsign.eta_from_phases", "geomsign.shifted_degree"),
                     "double-point index and shifted degrees", False, (
        ("--kind", {"choices": ["eta", "shifted"], "default": "eta"}),
        ("--n", {"type": int, "default": 0}),
        ("--r-minus", {"type": _list_arg(_rational_arg), "default": ""}),
        ("--r-plus", {"type": _list_arg(_rational_arg), "default": ""}),
        ("--target", {"default": "manifold"}),
        ("--a", {"type": int, "default": 0}),
        ("--eta", {"type": int, "default": 0}),
        ("--dim-t", {"type": int, "default": 0}))),
    "vdim": Command(_vdim, ("geomsign.vdim_formulas",), "closed-form virtual dimensions",
                    False, (("--kind", {"required": True}), ("--params", {
                        "type": _object_arg, "default": "{}",
                        "help": "JSON parameter object"}))),
    "signs": Command(_signs, ("geomsign.sign_zeta", "geomsign.sign_boundary_insertion",
                              "geomsign.sign_fibre_product"),
                     "orientation sign formulas", False, (
        ("--kind", {"required": True}),
        *((f"--{flag}", {"type": int, "default": 0}) for flag in
          ("n", "i", "j", "k", "k1", "k2", "eta0", "eta-i", "deg-f", "dim-t")),
        *((f"--{flag}", {"type": _list_arg(_int_arg), "default": ""}) for flag in
          ("degs", "eta-prefix", "eta-block", "eta-tail", "dims")),
        ("--eta-by-index", {"type": _int_object_arg, "default": "{}"}),
        ("--zero-in-I", {"dest": "zero_in_i", "action": "store_true"}),
        ("--i-in-I1", {"dest": "i_in_i1", "action": "store_true"}),
        ("--zero-in-I2", {"dest": "zero_in_i2", "action": "store_true"}))),
    "preset-whitney": Command(_preset_whitney, ("floer.whitney_preset",),
                              "the immersed-sphere presentation", False, (
        ("--n", {"type": int, "required": True}),
        ("--flavor", {"default": "cy0", "choices": list(FLAVORS)}),
        ("--cutoff", {"type": _rational_arg, "default": "2"}))),
    "feasible": Command(_feasible, ("floer.acyclicity_feasible",),
                        "acyclic-differential rank feasibility", False, (("--dims", {
                            "type": _int_object_arg, "required": True,
                            "help": 'JSON like {"0": 1, "1": 2}'}),)),
    "trees": Command(_trees, ("transfer.enumerate_trees",), "enumerate planar rooted trees",
                     False, (
        ("--k", {"type": _count_arg, "required": True}),
        ("--mode", {"choices": ["strict", "filtered"], "default": "strict"}),
        ("--low-valence", {"type": _count_arg, "default": 0}))),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ainfkit",
        description="gapped filtered A-infinity calculus over truncated Novikov rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--machine", action="store_true",
                       help="emit the machine-readable JSON report")
        p.add_argument("--out", default=None, help="write the report to a file")
        if command.reads_document:
            p.add_argument("--in", dest="infile", default="-",
                           help="input document (default: stdin)")
        for flag, kwargs in command.flags:
            p.add_argument(flag, **kwargs)
    return parser


def dispatch(command, args):
    """Run one command; returns (exit_code, result)."""
    entry = COMMANDS[command]
    code, result = entry.handler(load(args.infile) if entry.reads_document else None, args)
    if not _is_document(result):
        result = {"command": command, **result}
    return code, result


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, result = dispatch(args.command, args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    except AinfError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    text = emit_report(result, machine=args.machine)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {args.out}: {exc.strerror or exc}\n")
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
