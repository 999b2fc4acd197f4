"""Command-line front end: one binary with subcommands.

Exit codes: 0 success, 1 property failure, 2 usage error.  ``inspect``
reports an invalid graph (``stable: False`` and its first violation) and
still exits 0, except that ``--dot`` on a graph whose vertex cycles do not
partition its half-edges (or with a negative defect, which the same pass
stops at) exits 2 before writing anything; an unreadable or malformed
file exits 2, and so do a malformed number list, an exponent list that
is empty or has a negative entry, a perimeter list that is not one
positive number per face, ``check --cases`` or ``--jobs`` below 1, an
unknown ``check --suite`` and an unstable (g, n); exponents that sum to
anything but 3g - 3 + n exit 1.  Usage errors print
``usage error: ...`` on stderr.  Numbers in ``--perimeters``
and ``--points`` are integers, decimals or fractions (``19/3``); exponent
notation (``1e5``) is refused as a bad list entry, since its value can
have far more digits than its text.  All randomness is seedable.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

# every module ``intersect`` runs is imported here; the other subcommands
# import ``json``, ``serialize``, ``model0`` and ``suites`` where they use
# them, so a cold query does not pay for them
from . import permgraph
from .cells import cell_polytope
from .enumeration import (SizeGuardError, automorphisms, enumerate_cells,
                          enumerate_trivalent)
from .intersect import (OrientationError, QueryError, check_p_independence,
                        intersection_number, make_query)
from .permgraph import faces, genus, validate
from .stable import ContractionError, contract_set


def _load_graph(path: str) -> permgraph.StableRibbonGraph:
    text = Path(path).read_text()
    return permgraph.loads(text)


def _print_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


# -- inspect ---------------------------------------------------------------


def cmd_inspect(args) -> int:
    g = _load_graph(args.graph)
    violation = validate(g)
    if (args.dot and violation is not None
            and violation.kind in permgraph.PARTITION_KINDS):
        # the digraph reads each half-edge's vertex
        raise ValueError(f"--dot needs vertex cycles that partition the "
                         f"half-edges ({violation})")
    report = {
        "half_edges": g.num_half_edges,
        "edges": g.num_edges,
        "vertices": len(g.vertices),
        "degrees": sorted(v.degree for v in g.vertices),
        "defects": list(g.defects),
        "stable": violation is None,
    }
    if violation is not None:
        report["violation"] = str(violation)
    else:
        ws = faces(g)
        report.update({
            "faces": len(ws),
            "face_degrees": {w.label: w.degree for w in ws},
            "genus": genus(g),
            "aut_order": automorphisms(g).order,
            "trivalent": g.is_trivalent(),
        })
    if args.format == "json":
        _print_json(report)
    else:
        print("\n".join(f"{k}: {v}" for k, v in report.items()))
    if args.roundtrip:
        Path(args.roundtrip).write_text(permgraph.dumps(g, indent=2) + "\n")
    if args.dot:
        Path(args.dot).write_text(_dot_digest(g))
    return 0


def _dot_digest(g) -> str:
    # structural digraph only: one node per vertex, one arc per edge
    lines = ["digraph ribbon {"]
    for vi, v in enumerate(g.vertices):
        label = f"v{vi}" + (f" [{v.defect}]" if v.defect else "")
        lines.append(f'  v{vi} [label="{label}"];')
    for e in range(g.num_edges):
        a = g.vertex_of[2 * e]
        b = g.vertex_of[2 * e + 1]
        lines.append(f'  v{a} -> v{b} [label="e{e}", dir=none];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- contract ---------------------------------------------------------------


def cmd_contract(args) -> int:
    g = _load_graph(args.graph)
    edges = _parse_int_list(args.edges)
    result = contract_set(g, set(edges))
    text = permgraph.dumps(result, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


# -- enumerate ----------------------------------------------------------------


def cmd_enumerate(args) -> int:
    import json

    index = {"genus": args.genus, "faces": args.faces, "classes": []}
    if args.all_cells:
        summary = enumerate_cells(args.genus, args.faces)
        items = [(key, cls.graph) for key, cls in sorted(summary.classes.items())]
        index["boundary"] = [
            {"parent": pk.hex()[:16], "edge": e, "child": ck.hex()[:16]}
            for pk, e, ck in summary.boundary]
        index["top_cells"] = [k.hex()[:16] for k in summary.top_keys]
    else:
        items = [(c.key, c.graph) for c in enumerate_trivalent(args.genus, args.faces)]
    files = {}
    for i, (key, graph) in enumerate(items):
        name = f"class_{i:04d}.json"
        files[name] = permgraph.dumps(graph, indent=2) + "\n"
        index["classes"].append({
            "file": name,
            "key": key.hex()[:16],
            "edges": graph.num_edges,
            "aut_order": automorphisms(graph).order,
        })
    index["count"] = len(items)
    files["index.json"] = json.dumps(index, indent=2) + "\n"
    out = _write_all(args.out, files)
    print(f"wrote {len(items)} classes to {out}")
    return 0


def _write_all(path: str, files: dict[str, str]) -> Path:
    """Create the output directory and write every file into it; called
    only once the whole output is computed, so failed input leaves no
    directory behind."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    return out


# -- cells ----------------------------------------------------------------


def cmd_cells(args) -> int:
    import json

    from . import serialize

    p = _parse_fraction_list(args.perimeters)
    summary = enumerate_cells(args.genus, args.faces)
    index = {"genus": args.genus, "faces": args.faces,
             "perimeters": [serialize.rat(x) for x in p], "cells": []}
    files = {}
    for i, key in enumerate(sorted(summary.classes)):
        cell = cell_polytope(summary.classes[key].graph, p)
        name = f"cell_{i:04d}.json"
        payload = serialize.cell_to_json(cell)
        payload["key"] = key.hex()[:16]
        payload["top"] = key in summary.top_keys
        files[name] = json.dumps(payload, indent=2) + "\n"
        index["cells"].append({
            "file": name, "key": key.hex()[:16], "dim": cell.dim,
            "empty": cell.is_empty, "rank_deficient": cell.rank_deficient})
    index["boundary"] = [
        {"parent": pk.hex()[:16], "edge": e, "child": ck.hex()[:16]}
        for pk, e, ck in summary.boundary]
    files["index.json"] = json.dumps(index, indent=2) + "\n"
    out = _write_all(args.out, files)
    print(f"wrote {len(index['cells'])} cells to {out}")
    return 0


# -- intersect ----------------------------------------------------------------


def cmd_intersect(args) -> int:
    d = _parse_int_list(args.d)
    p = _parse_fraction_list(args.perimeters) if args.perimeters else None
    if args.check_p_independence:
        base = make_query(args.genus, d, p).perimeters
        shifted = [x + Fraction(1, 97 + i) for i, x in enumerate(base)]
        result = check_p_independence(args.genus, d, [base, shifted])[0]
    else:
        result = intersection_number(args.genus, d, p)
    # the text answer needs neither json nor serialize
    if args.ledger:
        import json

        from .serialize import ledger_to_json

        ledger = ledger_to_json(result)
        Path(args.ledger).write_text(json.dumps(ledger, indent=2) + "\n")
    if args.format == "json":
        from .serialize import rat

        _print_json({"value": rat(result.value)})
    else:
        print(result.value)
    return 0


# -- model0 ----------------------------------------------------------------


def _parse_qqi(token: str) -> QQi | str:
    from .model0 import INFINITY, QQi

    token = token.strip()
    if token in ("inf", "oo"):
        return INFINITY
    body = token[:-1] if token.endswith("i") else None
    if body is not None:
        # split a+bi / a-bi at the sign separating the parts
        for k in range(1, len(body)):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                return QQi.of(_rational(body[:k]), _imaginary(body[k:]))
        return QQi.of(0, _imaginary(body))
    return QQi.of(_rational(token), 0)


def _imaginary(coeff: str) -> Fraction:
    """The coefficient of i; a bare sign (or nothing) stands for 1."""
    return _rational(coeff + "1" if coeff in ("", "+", "-") else coeff)


def cmd_model0(args) -> int:
    import json

    from .model0 import PointConfig, full_map

    points = _parse_list(args.points, _parse_qqi)
    cfg = PointConfig.create(points)
    out = []
    for i, pt in enumerate(full_map(cfg), start=1):
        out.append({"i": i, "coords": [str(c) for c in pt.coords]})
    print(json.dumps({"n": cfg.n, "maps": out}, indent=2))
    return 0


# -- check ----------------------------------------------------------------


def cmd_check(args) -> int:
    import json

    from .suites import SUITE_NAMES, run_suite

    if args.cases is not None and args.cases < 1:
        raise ValueError(f"--cases must be at least 1, got {args.cases}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.jobs > 1 and args.suite == "all":
        import multiprocessing as mp

        with mp.Pool(min(args.jobs, len(SUITE_NAMES))) as pool:
            grouped = pool.starmap(
                run_suite, [(s, args.seed, args.cases) for s in SUITE_NAMES])
        reports = [r for group in grouped for r in group]
    else:
        reports = run_suite(args.suite, args.seed, args.cases)
    failed = False
    for r in sorted(reports, key=lambda x: x.suite):
        status = "ok" if r.ok else f"{len(r.failures)} FAILURES"
        print(f"{r.suite}: {r.cases} cases, {status} ({r.wall_time:.2f}s)")
        if not r.ok:
            failed = True
            for f in r.failures[:5]:
                print("  " + json.dumps(f))
    if args.report:
        Path(args.report).write_text(json.dumps(
            [r.to_json() for r in reports], indent=2) + "\n")
    return 1 if failed else 0


# -- parsing helpers ----------------------------------------------------------


def _parse_list(text: str, kind) -> list:
    """The comma-separated entries of ``text`` read by ``kind``; a bad
    entry raises ``ValueError`` naming it."""
    out = []
    for token in text.split(","):
        if token.strip() == "":
            continue
        try:
            out.append(kind(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad list entry {token!r} in {text!r}") from exc
    return out


def _parse_int_list(text: str) -> list[int]:
    return _parse_list(text, int)


def _rational(token: str) -> Fraction:
    """``Fraction(token)`` without exponent notation, which ``Fraction``
    would expand: ``1e100000000`` is a 10^8-digit integer, so the memory
    taken would not be bounded by the length of the input."""
    if "e" in token.lower():
        raise ValueError(f"exponent notation is not accepted: {token!r}")
    return Fraction(token)


def _parse_fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_list(text, _rational))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ribboncells",
        description="Exact computations on ribbon graph cell complexes")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="digest of a graph JSON file")
    p.add_argument("graph")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--roundtrip", help="re-emit the parsed graph to this file")
    p.add_argument("--dot", help="write a structural digraph in DOT format")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("contract", help="contract an edge subset")
    p.add_argument("--graph", required=True)
    p.add_argument("--edges", required=True, help="comma-separated edge indices")
    p.add_argument("--out")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("enumerate", help="enumerate graph classes")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--faces", type=int, required=True)
    p.add_argument("--all-cells", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("cells", help="cell polytopes over fixed perimeters")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--faces", type=int, required=True)
    p.add_argument("--perimeters", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("intersect", help="exact intersection number")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--d", required=True, help="comma-separated exponents")
    p.add_argument("--perimeters")
    p.add_argument("--check-p-independence", action="store_true")
    p.add_argument("--ledger", help="write the per-cell ledger JSON here")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("model0", help="projective value vectors of a "
                                      "marked-point configuration")
    p.add_argument("--points", required=True,
                   help="comma-separated rational complex points, e.g. "
                        "'0,1,1/2+3i,inf'")
    p.set_defaults(func=cmd_model0)

    p = sub.add_parser("check", help="run a seeded property suite")
    p.add_argument("--suite", default="all",
                   help="a suite name, or 'all' (the default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for --suite all; output order is "
                        "deterministic regardless")
    p.add_argument("--report", help="write the suite report JSON here")
    p.set_defaults(func=cmd_check)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContractionError, QueryError, OrientationError, SizeGuardError,
            permgraph.InvalidGraphError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
