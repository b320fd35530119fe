"""Command line interface.

Outputs are deterministic: every listing is sorted.  Failures print one
JSON object on stderr ({"error": kind, "message": text}) and exit with
status 1; argparse usage problems keep the usual status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import hopf, io, iso, models, rewrite, series
from .graphs import (GraphError, TwoGraph, boundary, euler_characteristic,
                     faces, internal_face_count, validate)


def _jsonable(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(data, fmt, out):
    if fmt == "table":
        _emit_table(data, out)
    else:
        json.dump(_jsonable(data), out, indent=2, sort_keys=True)
        out.write("\n")


def _emit_table(data, out, indent=""):
    if isinstance(data, dict):
        for k in sorted(data):
            v = data[k]
            if isinstance(v, (dict, list, tuple)):
                out.write(f"{indent}{k}:\n")
                _emit_table(v, out, indent + "  ")
            else:
                out.write(f"{indent}{k}: {_jsonable(v)}\n")
    elif isinstance(data, (list, tuple)):
        for i, v in enumerate(data):
            if isinstance(v, (dict, list, tuple)):
                out.write(f"{indent}- [{i}]\n")
                _emit_table(v, out, indent + "  ")
            else:
                out.write(f"{indent}- {_jsonable(v)}\n")
    else:
        out.write(f"{indent}{_jsonable(data)}\n")


def _fail(kind, message):
    json.dump({"error": kind, "message": str(message)}, sys.stderr)
    sys.stderr.write("\n")
    return 1


def _load_graph(path):
    with open(path, encoding="utf-8") as f:
        return io.loads_graph(f.read())


def _load_theory(name):
    if name in models.PRESETS:
        return models.preset(name)
    try:
        return io.read_theory(name)
    except FileNotFoundError:
        raise GraphError(
            f"unknown theory {name!r}: not a preset "
            f"({', '.join(sorted(models.PRESETS))}) or a readable file"
        ) from None


def _mono_out(mono):
    return [[code, e] for code, e in mono]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args):
    with open(args.file, encoding="utf-8") as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return _fail("parse", f"not valid JSON: {exc}")
    try:
        g = io.document_to_graph(doc)
    except io.DocumentError as exc:
        _emit({"valid": False, "violations": [str(exc)]}, args.format,
              sys.stdout)
        return _fail("document", exc)
    except GraphError as exc:
        _emit({"valid": False, "violations": str(exc).split("; ")},
              args.format, sys.stdout)
        return _fail("validation", exc)
    rep = validate(g)
    _emit({"valid": rep.valid, "violations": list(rep.violations)},
          args.format, sys.stdout)
    return 0 if rep.valid else _fail("validation", "; ".join(rep.violations))


def _info_dict(g, theory):
    internal, external = faces(g)
    b = boundary(g)
    info = {
        "vertices": len(g.vertices),
        "edges": g.n_edges(),
        "half_edges": len(g.half_edges),
        "strands": len(g.strands),
        "internal_faces": len(internal),
        "external_faces": len(external),
        "external_half_edges": len(g.external_half_edges()),
        "boundary_components": len(b.components()),
        "boundary_code": iso.one_graph_code(b),
        "euler_characteristic": euler_characteristic(g),
        "canonical_code": iso.canonical_code(g),
        "automorphisms": iso.automorphism_count(g),
    }
    try:
        info["genus"] = models.genus(g)
    except GraphError:
        pass
    if theory is not None:
        info["theory"] = theory.name
        info["superficial_degree"] = models.superficial_degree(theory, g)
        info["components"] = [dataclasses.asdict(rep)
                              for rep in models.classify(theory, g)]
    return info


def _cmd_info(args):
    g = _load_graph(args.file)
    theory = _load_theory(args.theory) if args.theory else None
    _emit(_info_dict(g, theory), args.format, sys.stdout)
    return 0


def _cmd_contract(args):
    g = _load_graph(args.file)
    tokens = [t for t in args.edges.split(",") if t]
    if not tokens:
        raise GraphError("no edges given")
    pairs = []
    known = set(g.half_edges)
    for t in tokens:
        if t not in known:
            raise GraphError(f"unknown half-edge {t!r}")
        other = g.iota[t]
        if other == t:
            raise GraphError(f"half-edge {t!r} is external, not an edge")
        pairs.append(tuple(sorted((t, other))))
    contracted = rewrite.contract(g, sorted(set(pairs)))
    sys.stdout.write(io.dumps_graph(contracted))
    return 0


def _cmd_coproduct(args):
    g = _load_graph(args.file)
    terms = hopf.coproduct(g)
    data = [{"left": _mono_out(lm), "right": _mono_out(rm),
             "coefficient": c}
            for (lm, rm), c in sorted(terms.items())]
    _emit(data, args.format, sys.stdout)
    return 0


def _cmd_antipode(args):
    g = _load_graph(args.file)
    el = hopf.antipode(g)
    data = [{"term": _mono_out(m), "coefficient": c}
            for m, c in sorted(el.items())]
    _emit(data, args.format, sys.stdout)
    return 0


def _cmd_classify(args):
    g = _load_graph(args.file)
    theory = _load_theory(args.theory)
    reports = [dataclasses.asdict(rep) for rep in models.classify(theory, g)]
    _emit(reports, args.format, sys.stdout)
    return 0


def _cmd_enumerate(args):
    theory = _load_theory(args.theory)
    boundary_graph = None
    if args.boundary:
        with open(args.boundary, encoding="utf-8") as f:
            boundary_graph = io.loads_one_graph(f.read())
    ts = series.enumerate_diagrams(theory, args.max_edges,
                                   connected=args.connected,
                                   boundary_graph=boundary_graph)
    for term in ts.terms:
        doc = io.graph_to_document(term.graph)
        doc["coefficient"] = _jsonable(term.coefficient)
        doc["edges"] = term.n_edges
        doc["automorphisms"] = term.automorphisms
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return 0


def _cmd_central_check(args):
    theory = _load_theory(args.theory)
    rep = series.check_central_identity(theory, args.max_edges)
    data = {
        "status": "PASS" if rep.passed else "FAIL",
        "theory": theory.name,
        "max_edges": args.max_edges,
        "universe_size": rep.universe_size,
        "pairs_checked": rep.pairs_checked,
        "multi_trace_vertex_classes": rep.multi_trace_vertex_classes,
    }
    if not rep.passed and rep.mismatches:
        (left, right), lhs, rhs = rep.mismatches[0]
        data["first_mismatch"] = {"left": list(left), "right": right,
                                  "coproduct_side": lhs,
                                  "insertion_side": rhs}
    _emit(data, args.format, sys.stdout)
    return 0 if rep.passed else 1


def _cmd_export_dot(args):
    g = _load_graph(args.file)
    sys.stdout.write(io.to_dot(g, args.mode))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _edge_bound(text):
    """argparse type of ``--max-edges``: a non-negative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {n}")
    return n


def _build_parser():
    p = argparse.ArgumentParser(
        prog="strandhopf",
        description="Stranded graphs and their renormalization Hopf algebra.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--format", choices=("json", "table"),
                        default="json")
        return sp

    sp = add("validate", _cmd_validate, help="check a graph document")
    sp.add_argument("file")

    sp = add("info", _cmd_info, help="structural summary of a graph")
    sp.add_argument("file")
    sp.add_argument("--theory")

    sp = add("contract", _cmd_contract,
             help="contract the edges named by their half-edges")
    sp.add_argument("file")
    sp.add_argument("--edges", required=True,
                    help="comma-separated half-edge labels, one per edge")

    sp = add("coproduct", _cmd_coproduct, help="coproduct term list")
    sp.add_argument("file")

    sp = add("antipode", _cmd_antipode, help="antipode term list")
    sp.add_argument("file")

    sp = add("classify", _cmd_classify, help="divergence reports")
    sp.add_argument("file")
    sp.add_argument("--theory", required=True)

    sp = add("enumerate", _cmd_enumerate,
             help="stream diagram classes as JSON lines")
    sp.add_argument("--theory", required=True)
    sp.add_argument("--max-edges", type=_edge_bound, required=True)
    sp.add_argument("--connected", action="store_true")
    sp.add_argument("--boundary", help="1-graph document file")

    sp = add("central-check", _cmd_central_check,
             help="verify the coproduct central identity up to a bound")
    sp.add_argument("--theory", required=True)
    sp.add_argument("--max-edges", type=_edge_bound, required=True)

    sp = add("export-dot", _cmd_export_dot, help="DOT rendering")
    sp.add_argument("file")
    sp.add_argument("--mode", choices=("stranded", "vertexgraph"),
                    default="stranded")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except io.DocumentError as exc:
        return _fail("document", exc)
    except GraphError as exc:
        return _fail("graph", exc)
    except FileNotFoundError as exc:
        return _fail("file", exc)


if __name__ == "__main__":
    sys.exit(main())
