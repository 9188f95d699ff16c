"""The benchmark's workloads: seeded inputs, one timed call, pinned checks.

A workload class is built from `(seed, smoke)`; building it is the set-up
step that `setup_s` times, and it makes every input from the seed.  Then:

- `prepare(workdir)` does untimed work a run needs once;
- `call()` is the timed call into wdrd;
- `check(result)` returns the failures of one result (empty when correct);
- `counters(result)` summarises a result in deterministic numbers;
- `work` is the number of units one call decides: candidate orientations
  (3^|E|) on the sweeps, digraphs certified on `certify`.

`smoke=True` swaps every input for a toy of the same shape, so the whole
set runs in seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

from wdrd import analysis, canon, cli, digraph, generators, scheme, search
from wdrd import structure


# -- helpers independent of the code under test ------------------------------

def _arcs(d) -> list[tuple[int, int]]:
    return [(int(u), int(v)) for u, v in zip(*d.adjacency.nonzero())]


def _cyclic_arcs(m, conn) -> list[tuple[int, int]]:
    return [(x, (x + s) % m) for x in range(m) for s in conn]


def _parse_dgf(text) -> tuple[int, list[tuple[int, int]]]:
    lines = [ln.split() for ln in text.splitlines()
             if ln.strip() and not ln.startswith("#")]
    return int(lines[0][1]), [(int(u), int(v)) for u, v in lines[1:]]


def _dgf(n, arcs) -> str:
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(arcs))


def isomorphic(n, arcs_a, arcs_b) -> bool:
    """Backtracking isomorphism test for the small pinned digraphs."""
    a, b = set(arcs_a), set(arcs_b)
    if len(a) != len(b):
        return False

    def sig(arcs, v):
        return (sum(u == v for u, _ in arcs), sum(w == v for _, w in arcs))

    sa = [sig(a, v) for v in range(n)]
    sb = [sig(b, v) for v in range(n)]
    if sorted(sa) != sorted(sb):
        return False
    image = [-1] * n
    used = [False] * n

    def extend(v):
        if v == n:
            return True
        for w in range(n):
            if used[w] or sa[v] != sb[w]:
                continue
            if all(((v, u) in a) == ((w, image[u]) in b)
                   and ((u, v) in a) == ((image[u], w) in b)
                   for u in range(v)):
                image[v], used[w] = w, True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


def _permuted(n, arcs, rng) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in arcs]


# -- the orientation sweeps ---------------------------------------------------

# (n, arcs of the reference digraph, type set, labelled count) per class
_Z6_12 = (6, _cyclic_arcs(6, (1, 2)), (3, 4), 8)
_Z6_14 = (6, _cyclic_arcs(6, (1, 4)), (3,), 2)
_Z7_124 = (7, _cyclic_arcs(7, (1, 2, 4)), (3,), 240)
_Z4_12 = (4, _cyclic_arcs(4, (1, 2)), (2, 3), 6)
_Z6_134 = (6, _cyclic_arcs(6, (1, 3, 4)), (2, 3), 30)
_Z6_1235 = (6, _cyclic_arcs(6, (1, 2, 3, 5)), (2, 3), 40)
_Z8_1 = (8, _cyclic_arcs(8, (1,)), (8,), 2)


def _check_classes(found, expected, wdrd_count, total, accounted) -> list[str]:
    """`found`: (n, arcs, type set, labelled count) per reported class."""
    errs = []
    if accounted != total:
        errs.append(f"leaf accounting {accounted} != {total}")
    want_count = sum(e[3] for e in expected)
    if wdrd_count != want_count:
        errs.append(f"wdrd_count {wdrd_count} != {want_count}")
    if len(found) != len(expected):
        return errs + [f"{len(found)} classes, expected {len(expected)}"]
    for n, arcs, ts, count in expected:
        hits = [f for f in found if f[0] == n and tuple(f[2]) == ts
                and f[3] == count and isomorphic(n, f[1], arcs)]
        if len(hits) != 1:
            errs.append(f"no class isomorphic to the pinned type-{ts} digraph")
    return errs


class _Sweep:
    """`search_commutative_wdrd` on a seeded relabelling of one graph."""

    graph: tuple        # (toy, full) underlying graphs as (n, arcs)
    kwargs: dict = {}
    expected: tuple     # (toy, full) pinned classes

    def __init__(self, seed, smoke):
        n, arcs = self.graph[0 if smoke else 1]()
        rng = random.Random(seed)
        self.g = digraph.Digraph.from_arcs(n, _permuted(n, arcs, rng))
        self.want = self.expected[0 if smoke else 1]
        self.edges = len(arcs) // 2
        self.work = 3 ** self.edges

    def prepare(self, workdir):
        pass

    def call(self):
        return search.search_commutative_wdrd(self.g, **self.kwargs)

    def check(self, rep) -> list[str]:
        found = [(c.digraph.n, _arcs(c.digraph), c.type_set, c.labelled_count)
                 for c in rep.iso_classes]
        skipped = sum(v for k, v in rep.prune_stats.items()
                      if k.startswith("skipped"))
        errs = _check_classes(found, self.want, rep.wdrd_count, self.work,
                              rep.examined + skipped)
        if rep.total_candidates != self.work:
            errs.append(f"total_candidates {rep.total_candidates}")
        return errs

    def counters(self, rep) -> dict:
        return {"core_sha256": _digest(rep.core()), "examined": rep.examined,
                "wdrd_count": rep.wdrd_count, **rep.prune_stats}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _graph_arcs(make):
    def build():
        d = make()
        d = d.graph if isinstance(d, generators.LabeledGraph) else d
        return d.n, _arcs(d)
    return build


class SweepFull(_Sweep):
    graph = (_graph_arcs(lambda: generators.complete_graph(4)),
             _graph_arcs(lambda: generators.johnson(4, 2)))
    expected = ((_Z4_12,), (_Z6_12, _Z6_14))


class SweepPruned(_Sweep):
    graph = (_graph_arcs(lambda: generators.complete_graph(6)),
             _graph_arcs(lambda: generators.complete_graph(7)))
    kwargs = {"prune": "degree", "max_edges": 21}
    expected = ((_Z6_134, _Z6_1235), (_Z7_124,))


class SweepParallel:
    """`wdrd search --jobs 2` in-process on a seeded relabelled J(4,2) file;
    checked against the `--jobs 1` JSON of the same file, apart from `jobs`."""

    def __init__(self, seed, smoke):
        if smoke:
            n, arcs = 8, _cyclic_arcs(8, (1, 7))
            self.want = (_Z8_1,)
        else:
            n, arcs = _graph_arcs(lambda: generators.johnson(4, 2))()
            self.want = (_Z6_12, _Z6_14)
        rng = random.Random(seed)
        self.text = digraph.format_dgf(
            digraph.Digraph.from_arcs(n, _permuted(n, arcs, rng)))
        self.work = 3 ** (len(arcs) // 2)

    def prepare(self, workdir: Path):
        self.src = workdir / "graph.dgf"
        self.src.write_text(self.text)
        self.out = workdir / "search.json"
        doc, errs = self._run(1)
        if errs:
            raise RuntimeError(f"--jobs 1 reference run failed: {errs}")
        self.reference = doc

    def _run(self, jobs):
        argv = ["search", "--graph", str(self.src), "--jobs", str(jobs),
                "--out", str(self.out)]
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        if code != 0:
            return None, [f"exit code {code}"]
        return json.loads(self.out.read_text()), []

    def call(self):
        return self._run(2)

    def check(self, result) -> list[str]:
        doc, errs = result
        if errs:
            return errs
        doc = dict(doc)
        if doc.pop("jobs") != 2:
            errs.append("report does not say jobs=2")
        ref = dict(self.reference)
        ref.pop("jobs")
        if json.dumps(doc, sort_keys=True) != json.dumps(ref, sort_keys=True):
            errs.append("--jobs 2 JSON differs from the --jobs 1 JSON")
        found = []
        for c in doc["iso_classes"]:
            n, arcs = _parse_dgf(c["dgf"])
            found.append((n, arcs, tuple(c["type_set"]), c["labelled_count"]))
        skipped = sum(v for k, v in doc["prune_stats"].items()
                      if k.startswith("skipped"))
        return errs + _check_classes(found, self.want, doc["wdrd_count"],
                                     self.work, doc["examined"] + skipped)

    def counters(self, result) -> dict:
        doc = dict(result[0])
        stats = {"examined": doc["examined"], "wdrd_count": doc["wdrd_count"],
                 **doc["prune_stats"]}
        for k in ("graph_id", "examined", "prune_stats", "prune", "jobs",
                  "use_reversal"):
            doc.pop(k, None)
        return {"core_sha256": _digest(doc), **stats}


# -- certification of given digraphs ------------------------------------------

# The present canon needs 0.04 s for the directed 10-cycle, 0.35 s for the
# 12-cycle and minutes for the 16-cycle, so only items up to 10 vertices
# go through it.
CANON_MAX_N = 10
LOCAL_MAX_N = 16
# Seeded relabelled copies per item.  With the item and its reversal that is
# six digraphs per item and about 5 s per pass, so one pass averages over
# short slowdowns of the host while a 40 s run still holds several passes.
RELABELLINGS = 4


def _paley(p):
    return sorted({x * x % p for x in range(1, p)})


class Certify:
    """WDRD report, scheme table, identities and commutation on a seeded
    corpus, each item also as relabelled copies and reversed; local checks,
    canon and isomorphism on the small items; structure oracles on the
    Johnson family."""

    def __init__(self, seed, smoke):
        rng = random.Random(seed)
        items = []      # (name, n, arcs, known verdict or None, labels)

        def cayley(m, conn, name, known):
            d = generators.cayley_cyclic(m, conn)
            items.append((name, m, _arcs(d), known, None))

        def johnson_like(g, name, mu_ok, array):
            diameter = len(array.c)
            items.append((name, g.graph.n, _arcs(g.graph),
                          {"wdrd": False, "valid": True,
                           "symmetric_scheme": True, "classes": diameter + 1,
                           "mu_ok": mu_ok, "array": array},
                          (g.m, g.e, g.label_masks, g.kind)))

        def wdrd_known(types, classes):
            return {"wdrd": True, "valid": True, "commutative": True,
                    "type_set": types, "classes": classes}

        # the two classified digraphs; the mu-case taxonomy is stated for them
        cayley(6, (1, 2), "Cay(Z6,{1,2})", {**wdrd_known((3, 4), 6),
                                            "mu_cases": [(3, (2, 3))] * 3})
        cayley(6, (1, 4), "Cay(Z6,{1,4})", {**wdrd_known((3,), 4),
                                            "mu_cases": []})
        if smoke:
            cayley(7, _paley(7), "Paley(7)", wdrd_known((3,), 3))
            johnson_like(generators.johnson(4, 2), "J(4,2)", True,
                         generators.predicted_array("johnson", 4, 2))
            sizes = [8]
        else:
            for m in (3, 4, 5, 6, 8, 10, 12, 16, 24, 32):
                cayley(m, (1,), f"C{m}", wdrd_known((m,), m))
            for p in (3, 7, 11, 19, 23, 31, 43, 47, 59):
                cayley(p, _paley(p), f"Paley({p})", wdrd_known((3,), 3))
            for m, e in ((4, 2), (5, 2), (6, 2), (6, 3), (7, 2), (7, 3)):
                johnson_like(generators.johnson(m, e), f"J({m},{e})", True,
                             generators.predicted_array("johnson", m, e))
            johnson_like(generators.folded_johnson(4), "folded-J(8,4)", False,
                         generators.predicted_array("folded", 4))
            sizes = [6, 7, 8, 9, 10, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52,
                     56, 60, 64, 64, 64]
        for m in sizes:
            conn = rng.sample(range(1, m), rng.choice((3, 4)))
            cayley(m, conn, f"Cay(Z{m},{sorted(conn)})", None)

        self.items = []
        for name, n, arcs, known, labels in items:
            self.items.append({
                "name": name, "n": n, "known": known, "labels": labels,
                "text": _dgf(n, arcs),
                "relabelled": [_dgf(n, _permuted(n, arcs, rng))
                               for _ in range(RELABELLINGS)],
            })
        self.work = (RELABELLINGS + 2) * len(self.items)

    def prepare(self, workdir):
        pass

    def call(self):
        out = []
        forms: dict[int, list] = {}
        for item in self.items:
            d = digraph.parse_dgf(item["text"])
            copies = (d, *map(digraph.parse_dgf, item["relabelled"]),
                      d.reverse())
            verdicts = [_verdict(c) for c in copies]
            extra = {}
            if "mu_cases" in (item["known"] or ()):
                extra["mu_cases"] = [_mu_cases(c) for c in copies]
            if item["n"] <= CANON_MAX_N:
                extra["forms_equal"] = len({canon.canonical_form(c)
                                            for c in copies}) == 1
                forms.setdefault(item["n"], []).append((item, verdicts[0], d))
            if item["labels"] is not None:
                extra["structure"] = _structure(d, item["labels"])
            out.append((item, verdicts, extra))
        pairs = []
        for group in forms.values():
            for (ia, va, a), (ib, vb, b) in itertools.combinations(group, 2):
                if va != vb:
                    pairs.append((ia["name"], ib["name"],
                                  canon.are_isomorphic(a, b)))
        return out, pairs

    def check(self, result) -> list[str]:
        out, pairs = result
        errs = []
        for item, verdicts, extra in out:
            name = item["name"]
            if any(v != verdicts[0] for v in verdicts[1:-1]):
                errs.append(f"{name}: a relabelled copy gets another verdict")
            if verdicts[-1] != verdicts[0]:
                errs.append(f"{name}: reversed digraph gets another verdict")
            if extra.get("forms_equal") is False:
                errs.append(f"{name}: canonical forms of the copies differ")
            known = item["known"]
            v = verdicts[0]
            if known is not None:
                for key, want in known.items():
                    if key == "mu_cases":
                        got = extra["mu_cases"][0]
                    elif key in ("mu_ok", "array"):
                        got = extra["structure"][key]
                    else:
                        got = v.get(key)
                    if got != want:
                        errs.append(f"{name}: {key} is {got!r}, expected {want!r}")
            if "mu_cases" in extra and any(m != extra["mu_cases"][0]
                                           for m in extra["mu_cases"]):
                errs.append(f"{name}: mu cases differ between the copies")
            if "structure" in extra and not extra["structure"]["edges_ok"]:
                errs.append(f"{name}: neighbourhood structure check failed")
            if v.get("local_ok") is False:
                errs.append(f"{name}: local counting identity failed")
        for a, b, iso in pairs:
            if iso:
                errs.append(f"{a} and {b} have different verdicts but are "
                            "reported isomorphic")
        return errs

    def counters(self, result) -> dict:
        out, pairs = result
        return {"core_sha256": _digest([[i["name"], v] for i, v, _ in out]),
                "non_isomorphic_pairs": len(pairs)}


def _verdict(d) -> dict:
    """Everything `certify` decides about one digraph, in a form that a
    relabelling or a reversal leaves unchanged."""
    rep = analysis.wdrd_report(d)
    v = {"strongly_connected": rep.strongly_connected, "wdrd": rep.is_wdrd,
         "commutative": rep.commutative,
         "type_set": tuple(sorted(rep.type_set)) if rep.type_set else None}
    s = rep.scheme
    if s is None:
        v["valid"] = None
        return v
    if not isinstance(s, scheme.AssociationScheme):
        v["valid"] = False
        v["axiom"] = s.axiom
        return v
    table = scheme.scheme_table(s)
    v["valid"] = True
    v["classes"] = len(table["classes"])
    v["valencies"] = sorted(table["valencies"])
    v["symmetric_scheme"] = scheme.is_symmetric_scheme(s)
    v["identities_ok"] = scheme.check_intersection_identities(s).ok
    v["matrices_commute"] = scheme.matrices_commute(s)
    if rep.is_wdrd and d.n <= LOCAL_MAX_N and isinstance(
            generators.intersection_array(d.underlying_graph()),
            generators.IntersectionArray):
        v.update(_local(d, s, rep))
    return v


def _local(d, s, rep) -> dict:
    """Local counting identity and arc purity."""
    und = d.underlying_graph()
    dist = und.distance_matrix()
    local_ok = True
    for lbl in s.classes[1:]:
        x, y = s.partition.members(lbl)[0]
        if int(dist[x, y]) in (1, 2):
            local_ok = local_ok and analysis.verify_local_counts(d, s, lbl)
    purity = sorted((t, analysis.arc_purity(d, t - 1).value)
                    for t in rep.type_set)
    return {"local_ok": local_ok, "purity": purity}


def _mu_cases(d) -> list:
    """Mu cases of the (2,2)-pairs, for the digraphs the taxonomy is
    stated for."""
    dist = d.distance_matrix()
    return sorted((mc.case, mc.params) for mc in (
        analysis.mu_case(d, x, z) for x in range(d.n) for z in range(x + 1, d.n)
        if int(dist[x, z]) == 2 and int(dist[z, x]) == 2))


def _structure(d, labels) -> dict:
    m, e, masks, kind = labels
    g = generators.LabeledGraph(d, m, e, masks, kind)
    edges_ok = all(structure.verify_neighbourhood_structure(g, u, v).ok
                   for u, v in _arcs(d) if u < v)
    return {"edges_ok": edges_ok,
            "mu_ok": structure.mu_graph_property(g).ok,
            "array": generators.intersection_array(g)}


WORKLOADS = {"sweep-full": SweepFull, "sweep-pruned": SweepPruned,
             "sweep-parallel": SweepParallel, "certify": Certify}
