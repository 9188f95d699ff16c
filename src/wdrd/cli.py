"""Command-line interface.

Subcommands: gen (emit DGF), check (weak distance-regularity report),
scheme (attached-scheme table), structure (Johnson neighbourhood and
mu-graph oracles), search (orientation search), iso (digraph isomorphism).

Primary output is a stable JSON document on stdout (or --out); all
diagnostics and timings go to stderr.  Exit codes: 0 success, 1 domain
failure (an --expect that does not hold, or an invalid scheme), 2 usage or
input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from pathlib import Path

from . import __version__
from .analysis import arc_purity, mu_case, verify_local_counts, wdrd_report
from .canon import MAX_N, are_isomorphic
from .digraph import Digraph, format_dgf, parse_dgf
from .errors import (
    BadMuSizeError,
    MuCaseMatchError,
    UnderlyingNotDistanceRegularError,
    WdrdError,
)
from .generators import (
    LabeledGraph,
    cayley_cyclic,
    complete_graph,
    folded_johnson,
    intersection_array,
    johnson,
)
from .scheme import AssociationScheme, scheme_table
from .search import PRUNE_MODES, report_to_dict, search_commutative_wdrd
from .structure import mu_graph_property, verify_neighbourhood_structure

_EXPECT_CHECK = ("wdrd", "commutative-wdrd", "not-wdrd")


class UsageError(Exception):
    pass


def _load_graph_tokens(tokens: list[str]):
    """Resolve a graph source: generator spec or a DGF file path."""
    if not tokens:
        raise UsageError("no graph source given")
    kind = tokens[0]
    try:
        if kind == "johnson" and len(tokens) == 3:
            g = johnson(int(tokens[1]), int(tokens[2]))
            return g, f"johnson({tokens[1]},{tokens[2]})"
        if kind == "folded-johnson" and len(tokens) == 2:
            g = folded_johnson(int(tokens[1]))
            return g, f"folded-johnson({tokens[1]})"
        if kind == "complete" and len(tokens) == 2:
            return complete_graph(int(tokens[1])), f"complete({tokens[1]})"
        if kind == "cayley" and len(tokens) == 3:
            conn = _parse_connection(tokens[2])
            g = cayley_cyclic(int(tokens[1]), conn)
            return g, f"cayley({tokens[1]},{{{tokens[2]}}})"
    except ValueError as exc:
        raise UsageError(f"bad graph parameters: {exc}") from exc
    if len(tokens) == 1:
        path = Path(tokens[0])
        if not path.exists():
            raise UsageError(f"no such graph source: {tokens[0]}")
        return parse_dgf(path.read_text()), tokens[0]
    raise UsageError(f"unrecognized graph source {' '.join(tokens)!r}")


def _parse_connection(text: str) -> set[int]:
    try:
        return {int(t) for t in text.split(",") if t}
    except ValueError as exc:
        raise UsageError(f"bad connection set {text!r}") from exc


def _read_digraph(spec: str) -> Digraph:
    if spec == "-":
        return parse_dgf(sys.stdin.read())
    path = Path(spec)
    if not path.exists():
        raise UsageError(f"no such file: {spec}")
    return parse_dgf(path.read_text())


def _emit(text: str, out: str | None) -> None:
    if out and out != "-":
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", out)


# -- subcommands -------------------------------------------------------------

def _cmd_gen(args) -> int:
    g, gid = _load_graph_tokens([args.kind] + args.params)
    if args.labels and not isinstance(g, LabeledGraph):
        raise UsageError("--labels only applies to johnson/folded-johnson")
    d = g.graph if isinstance(g, LabeledGraph) else g
    _emit(format_dgf(d, comment=gid), args.out)
    if args.labels:
        lines = [f"{v} {{{','.join(map(str, sorted(g.label_set(v))))}}}"
                 for v in range(d.n)]
        Path(args.labels).write_text("\n".join(lines) + "\n")
    return 0


def _scheme_payload(rep) -> dict:
    if rep.scheme is None:
        return {"valid": False, "reason": "not strongly connected"}
    if isinstance(rep.scheme, AssociationScheme):
        return {"valid": True, **scheme_table(rep.scheme)}
    v = rep.scheme
    return {"valid": False, "axiom": v.axiom, "message": v.message,
            "witness": v.witness}


def _cmd_check(args) -> int:
    d = _read_digraph(args.file)
    rep = wdrd_report(d)
    doc = {
        "n": d.n,
        "arcs": d.arc_count,
        "strongly_connected": rep.strongly_connected,
        "non_symmetric": rep.non_symmetric,
        "is_wdrd": rep.is_wdrd,
        "commutative": rep.commutative,
        "type_set": sorted(rep.type_set) if rep.type_set is not None else None,
        "scheme": _scheme_payload(rep),
    }
    if args.local:
        doc["local"] = _local_payload(d, rep)
    _emit_json(doc, args.out)
    if args.expect:
        ok = {
            "wdrd": rep.is_wdrd,
            "commutative-wdrd": rep.is_wdrd and rep.commutative,
            "not-wdrd": not rep.is_wdrd,
        }[args.expect]
        if not ok:
            print(f"expectation {args.expect!r} not met", file=sys.stderr)
            return 1
    return 0


def _local_payload(d: Digraph, rep) -> dict:
    """Eq-style local verification: per-class counting identity (when the
    underlying graph is distance-regular, else a note), purity per arc
    type, and mu-case statistics over (2,2)-pairs, where pairs outside the
    five-case taxonomy count as "not covered"."""
    out: dict = {}
    if not (rep.is_wdrd and isinstance(rep.scheme, AssociationScheme)):
        out["note"] = "local checks need a valid weakly distance-regular digraph"
        return out
    s = rep.scheme
    und = d.underlying_graph().distance_matrix()
    try:
        counts = []
        for lbl in s.classes:
            if lbl == (0, 0):
                continue
            x0, y0 = s.partition.members(lbl)[0]
            ud = int(und[x0, y0])
            if ud in (1, 2):
                counts.append({"class": list(lbl), "underlying_distance": ud,
                               "ok": verify_local_counts(d, s, lbl)})
        out["local_counts"] = counts
    except UnderlyingNotDistanceRegularError as exc:
        out["note"] = f"no local counts: {exc}"
    out["purity"] = [{"q": t - 1, "result": arc_purity(d, t - 1).value}
                     for t in sorted(rep.type_set)]
    mu_stats: dict[str, int] = {}
    if s.partition.classes.count((2, 2)):
        for x, y in s.partition.members((2, 2)):
            if x < y:
                try:
                    mc = mu_case(d, x, y)
                    key = f"case {mc.case} params {list(mc.params)}"
                except (BadMuSizeError, MuCaseMatchError):
                    key = "not covered"
                mu_stats[key] = mu_stats.get(key, 0) + 1
    out["mu_cases"] = dict(sorted(mu_stats.items()))
    return out


def _cmd_scheme(args) -> int:
    d = _read_digraph(args.file)
    rep = wdrd_report(d)
    doc = _scheme_payload(rep)
    _emit_json(doc, args.out)
    return 0 if doc["valid"] else 1


def _cmd_structure(args) -> int:
    g, gid = _load_graph_tokens(args.graph)
    if not isinstance(g, LabeledGraph):
        raise UsageError("structure oracles need johnson/folded-johnson input")
    if args.sample is not None and args.sample < 1:
        raise UsageError(f"--sample must be at least 1, got {args.sample}")
    edges = [(u, v) for u, v in g.graph.arcs() if u < v]
    if args.sample and args.sample < len(edges):
        rng = random.Random(args.seed)
        edges = sorted(rng.sample(edges, args.sample))
    agg = {"distances_ok": True, "symmetry_ok": True, "exchange_ok": True}
    first_failure = None
    for u, v in edges:
        r = verify_neighbourhood_structure(g, u, v)
        for key in agg:
            agg[key] = agg[key] and getattr(r, key)
        if not r.ok and first_failure is None:
            first_failure = {"edge": [u, v], "witness": r.witness}
    mu = mu_graph_property(g)
    arr = intersection_array(g)
    doc = {
        "graph": gid,
        "edges_checked": len(edges),
        "neighbourhood": {**agg, "first_failure": first_failure},
        "mu_property": {
            "ok": mu.ok,
            "pairs_checked": mu.pairs_checked,
            "witness_pair": list(mu.witness_pair) if mu.witness_pair else None,
            "witness_mu_size": mu.witness_mu_size,
            "witness_detail": mu.witness_detail,
        },
        "intersection_array": (
            {"b": list(arr.b), "c": list(arr.c), "a": list(arr.a)}
            if hasattr(arr, "b") else {"not_distance_regular": True}),
    }
    _emit_json(doc, args.out)
    if args.expect == "pass" and not (all(agg.values()) and mu.ok):
        print("structure expectation 'pass' not met", file=sys.stderr)
        return 1
    return 0


def _cmd_search(args) -> int:
    g, gid = _load_graph_tokens(args.graph)
    t0 = time.perf_counter()
    rep = search_commutative_wdrd(
        g, graph_id=gid, prune=args.prune, jobs=args.jobs,
        max_edges=args.max_edges, use_reversal=args.use_reversal)
    print(f"search over {rep.total_candidates} candidates took "
          f"{(time.perf_counter() - t0) * 1000:.1f} ms", file=sys.stderr)
    _emit_json(report_to_dict(rep), args.out)
    if args.classes_dir:
        outdir = Path(args.classes_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for idx, cls in enumerate(rep.iso_classes):
            (outdir / f"class-{idx:03d}.dgf").write_text(
                format_dgf(cls.digraph, comment=f"{gid} class {idx}"))
    if args.expect_classes is not None and \
            len(rep.iso_classes) != args.expect_classes:
        print(f"expected {args.expect_classes} classes, found "
              f"{len(rep.iso_classes)}", file=sys.stderr)
        return 1
    return 0


def _cmd_iso(args) -> int:
    a = _read_digraph(args.file_a)
    b = _read_digraph(args.file_b)
    result = are_isomorphic(a, b, max_n=args.max_n)
    _emit_json({"isomorphic": result}, args.out)
    if args.expect == "iso" and not result:
        return 1
    if args.expect == "non-iso" and result:
        return 1
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="wdrd",
        description="Weakly distance-regular digraph toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a generated graph as DGF")
    p.add_argument("kind",
                   choices=["johnson", "folded-johnson", "cayley", "complete"])
    p.add_argument("params", nargs="*")
    p.add_argument("--labels", help="side file mapping vertex -> subset label")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="weak distance-regularity report")
    p.add_argument("file", help="DGF file, or - for stdin")
    p.add_argument("--expect", choices=_EXPECT_CHECK)
    p.add_argument("--local", action="store_true",
                   help="add local-count, purity and mu-case verification")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("scheme", help="attached-scheme table")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scheme)

    p = sub.add_parser("structure", help="Johnson structure oracles")
    p.add_argument("--graph", nargs="+", required=True)
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--expect", choices=["pass"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("search", help="orientation search for commutative "
                                      "weakly distance-regular digraphs")
    p.add_argument("--graph", nargs="+", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--prune", choices=PRUNE_MODES, default="none")
    p.add_argument("--max-edges", type=int, default=20)
    p.add_argument("--use-reversal", action="store_true")
    p.add_argument("--classes-dir",
                   help="write one DGF file per surviving class here")
    p.add_argument("--expect-classes", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("iso", help="digraph isomorphism")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--expect", choices=["iso", "non-iso"])
    p.add_argument("--max-n", type=int, default=MAX_N)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_iso)
    return ap


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, WdrdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
