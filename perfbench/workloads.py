"""The four workloads: seeded inputs, the ops a run times, and their checks.

Every host is a seeded sparse random graph with ``n`` nodes labelled from
``a b c`` and ``2n`` edges labelled ``x y`` between uniformly drawn endpoints,
each label used equally often.
A workload yields its ops in rounds of fixed composition, so that every run
times the same mix whatever its length; inputs are drawn afresh each round
except where noted.  The engine is reached only through module attributes
(``engine.rewriting.apply``), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import os
from dataclasses import dataclass
from pathlib import Path
from random import Random
from types import SimpleNamespace
from typing import Callable, Iterator

from oracle import (
    Plain,
    PlainRule,
    count_injective_morphisms,
    dangling_scan,
    delete,
    from_doc,
    from_engine,
    iso_problems,
    isomorphic,
    morphism_problems,
    rewrite,
    same_graph,
)


@dataclass
class Op:
    """One timed call into the system and the check of what it returned.

    ``check`` receives the return value, or the exception when the call
    raised one whose class name is ``expect`` (an expected verdict).
    ``before`` runs untimed ahead of the call; ``written`` gives the bytes
    the call wrote, for ops that write output.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    expect: str | None = None
    before: Callable[[], None] | None = None
    written: Callable[[object], int] | None = None
    outcome: object = None
    ok: bool = False


def _rule(L, K, R, b_v, r_v, b_e=None, r_e=None) -> PlainRule:
    return PlainRule(L, K, R, b_v, b_e or {}, r_v, r_e or {})


_abb = {0: "a", 1: "b", 2: "b"}
# move an x-edge a->b to another b node: deletes an edge, creates an edge
REWIRE = _rule(
    Plain.make(_abb, {0: (0, 1, "x")}),
    Plain.make(_abb, {}),
    Plain.make(_abb, {0: (0, 2, "x")}),
    {0: 0, 1: 1, 2: 2},
    {0: 0, 1: 1, 2: 2},
)
# hang a new b leaf off an a node: creates a node and an edge
GROW = _rule(
    Plain.make({0: "a"}, {}),
    Plain.make({0: "a"}, {}),
    Plain.make({0: "a", 1: "b"}, {0: (0, 1, "x")}),
    {0: 0},
    {0: 0},
)
# remove a b leaf and its edge: applicable only when the leaf has no other edge
PRUNE = _rule(
    Plain.make({0: "a", 1: "b"}, {0: (0, 1, "x")}),
    Plain.make({0: "a"}, {}),
    Plain.make({0: "a"}, {}),
    {0: 0},
    {0: 0},
)
RULES = {"rewire": REWIRE, "grow": GROW, "prune": PRUNE}

# left-hand sides searched by match_search
EDGE_AB = Plain.make({0: "a", 1: "b"}, {0: (0, 1, "x")})
EDGE_CC = Plain.make({0: "c", 1: "c"}, {0: (0, 1, "y")})
PATH_ABC = Plain.make({0: "a", 1: "b", 2: "c"}, {0: (0, 1, "x"), 1: (1, 2, "y")})
CYCLE_BBB = Plain.make({0: "b", 1: "b", 2: "b"}, {0: (0, 1, "x"), 1: (1, 2, "x"), 2: (2, 0, "x")})


def random_host(rng: Random, n: int) -> Plain:
    """n nodes, 2n edges with uniform endpoints; each label is used equally
    often (to within one), because search costs grow with label counts."""
    nlabels = ["abc"[v % 3] for v in range(n)]
    elabels = ["xy"[e % 2] for e in range(2 * n)]
    rng.shuffle(nlabels)
    rng.shuffle(elabels)
    edges = {e: (rng.randrange(n), rng.randrange(n), elabels[e]) for e in range(2 * n)}
    return Plain.make(dict(enumerate(nlabels)), edges)


def shuffled(rng: Random, g: Plain) -> Plain:
    """A copy of ``g`` under random permutations of its node and edge ids."""
    vs, es = list(g.nlabel), list(g.elabel)
    pv, pe = vs[:], es[:]
    rng.shuffle(pv)
    rng.shuffle(pe)
    vmap, emap = dict(zip(vs, pv)), dict(zip(es, pe))
    return Plain(
        {vmap[v]: l for v, l in g.nlabel.items()},
        {emap[e]: vmap[s] for e, s in g.src.items()},
        {emap[e]: vmap[t] for e, t in g.tgt.items()},
        {emap[e]: l for e, l in g.elabel.items()},
    )


def flipped(rng: Random, g: Plain) -> Plain:
    """A shuffled copy with one edge label changed: never isomorphic to ``g``."""
    h = shuffled(rng, g)
    e = rng.choice(sorted(h.elabel))
    h.elabel[e] = "y" if h.elabel[e] == "x" else "x"
    return h


def plant_leaf(rng: Random, g: Plain) -> Plain:
    """Add one b node hanging off an a node by an x edge, so PRUNE applies."""
    a = rng.choice(sorted(v for v, l in g.nlabel.items() if l == "a"))
    v, e = max(g.nlabel) + 1, max(g.elabel) + 1
    g.nlabel[v] = "b"
    g.src[e], g.tgt[e], g.elabel[e] = a, v, "x"
    return g


# ---------------------------------------------------------------- engine glue


def to_engine(E, p: Plain):
    return E.graph.graph(p.nlabel, {e: p.edge(e) for e in p.elabel})


def rule_to_engine(E, r: PlainRule):
    L, K, R = to_engine(E, r.L), to_engine(E, r.K), to_engine(E, r.R)
    return E.rewriting.Rule(
        L=L,
        K=K,
        R=R,
        b=E.morphism.Morphism(K, L, dict(r.b_v), dict(r.b_e)),
        r=E.morphism.Morphism(K, R, dict(r.r_v), dict(r.r_e)),
    )


def match_to_engine(E, rule, host, mv: dict, me: dict):
    return E.rewriting.Match(E.morphism.Morphism(rule.L, host, dict(mv), dict(me)))


def derivation_problems(G: Plain, rule: PlainRule, mv: dict, me: dict, d, what: str) -> tuple[Plain, list[str]]:
    """Check a direct derivation against the plain rewrite of ``G``."""
    H, problems = from_engine(d.H)
    cm = d.comatch
    if d.match.m.fv != mv or d.match.m.fe != me:
        problems.append(f"{what}: derivation reports another match")
    problems += morphism_problems(rule.R, H, cm.fv, cm.fe, f"{what} comatch", injective=True)
    if problems:
        return H, problems
    expected, delta_problems = rewrite(G, rule, mv, me, cm.fv, cm.fe)
    return H, problems + [f"{what} {p}" for p in delta_problems] + same_graph(expected, H, f"{what} result")


def _ints(doc: dict) -> dict[int, int]:
    return {int(k): v for k, v in doc.items()}


def unnamed_result_problems(G: Plain, steps, H: Plain, what: str) -> list[str]:
    """``H`` is ``G`` minus every step's deleted items plus its created items.

    Used where the created items' ids are not reported: the kept part must be
    unchanged and the new items must match the created ones by label and by
    endpoints, a created endpoint standing for any new node of its label.
    ``steps`` are ``(rule, mv, me)`` with matches into ``G``.
    """
    kept = G
    for rule, mv, me in steps:
        kept = delete(kept, *rule.deleted(mv, me))
    problems = []
    if any(H.nlabel.get(v) != l for v, l in kept.nlabel.items()):
        problems.append(f"{what}: a kept node is missing or relabelled")
    if any(e not in H.elabel or H.edge(e) != kept.edge(e) for e in kept.elabel):
        problems.append(f"{what}: a kept edge is missing or changed")
    new_v = H.nlabel.keys() - kept.nlabel.keys()
    new_e = H.elabel.keys() - kept.elabel.keys()

    def end(v):
        return ("new", H.nlabel[v]) if v in new_v else v

    got_nodes = sorted(H.nlabel[v] for v in new_v)
    got_edges = sorted((str(end(H.src[e])), str(end(H.tgt[e])), H.elabel[e]) for e in new_e)
    want_nodes, want_edges = [], []
    for rule, mv, me in steps:
        cv, ce = rule.created()
        kept_of = {x: mv[rule.b_v[k]] for k, x in rule.r_v.items()}
        want_nodes += [rule.R.nlabel[x] for x in cv]

        def rend(y):
            return kept_of[y] if y in kept_of else ("new", rule.R.nlabel[y])

        want_edges += [(str(rend(rule.R.src[x])), str(rend(rule.R.tgt[x])), rule.R.elabel[x]) for x in ce]
    if got_nodes != sorted(want_nodes) or got_edges != sorted(want_edges):
        problems.append(f"{what}: created items differ from the rules' right-hand sides")
    return problems


class Pool:
    """A set with O(1) add, remove and seeded uniform choice."""

    def __init__(self):
        self.items: list[int] = []
        self.pos: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.items)

    def set(self, x: int, member: bool) -> None:
        if member and x not in self.pos:
            self.pos[x] = len(self.items)
            self.items.append(x)
        elif not member and x in self.pos:
            i = self.pos.pop(x)
            last = self.items.pop()
            if i < len(self.items):
                self.items[i] = last
                self.pos[last] = i

    def choice(self, rng: Random) -> int:
        return self.items[rng.randrange(len(self.items))]


def _ab_x(G: Plain, e: int) -> bool:
    s, t = G.src[e], G.tgt[e]
    return G.elabel[e] == "x" and G.nlabel[s] == "a" and G.nlabel[t] == "b"


def pick(rng: Random, G: Plain, kind: str, avoid: set[int] = frozenset(), edge: int | None = None):
    """A match ``(mv, me)`` of RULES[kind] in ``G`` by a scan of the host,
    touching no node in ``avoid``; ``edge`` fixes the matched x edge."""
    ok = lambda v: v not in avoid  # noqa: E731
    if kind == "grow":
        return {0: rng.choice(sorted(v for v, l in G.nlabel.items() if l == "a" and ok(v)))}, {}
    degree: dict[int, int] = {}
    for e, s in G.src.items():
        degree[s] = degree.get(s, 0) + 1
        degree[G.tgt[e]] = degree.get(G.tgt[e], 0) + 1
    if edge is None:
        edges = sorted(
            e
            for e in G.elabel
            if _ab_x(G, e)
            and ok(G.src[e])
            and ok(G.tgt[e])
            and (kind != "prune" or degree[G.tgt[e]] == 1)
        )
        edge = rng.choice(edges)
    s, t = G.src[edge], G.tgt[edge]
    if kind == "prune":
        return {0: s, 1: t}, {0: edge}
    b2 = rng.choice(sorted(v for v, l in G.nlabel.items() if l == "b" and v != t and ok(v)))
    return {0: s, 1: t, 2: b2}, {0: edge}


# ---------------------------------------------------------------- workloads


class Workload:
    """Base: ``warmup()`` gives untimed calls run during set-up; ``round()``
    yields the timed ops of one round; ``tail_pct`` is the tail percentile,
    fixed so that every run of a workload reports the same one."""

    tail_pct: int

    def __init__(self, engine: SimpleNamespace, rng: Random, smoke: bool, workdir: Path):
        self.E = engine
        self.rng = rng
        self.smoke = smoke
        self.workdir = workdir

    def warmup(self) -> list[Callable[[], object]]:
        return []

    def round(self) -> Iterator[Op]:
        raise NotImplementedError


class RewriteChain(Workload):
    """Small rules applied to a ~10^4-node host, each to the previous result.

    The harness keeps its own copy of the host and an index of where each
    rule applies, picks every match from that index, and checks every result
    against the plain rewrite.  Two ops in twenty pick a PRUNE match whose
    leaf has other edges, so the dangling condition rejects them.
    """

    tail_pct = 95
    PATTERN = (
        "grow rewire prune rewire grow prune rewire dangling grow rewire "
        "prune grow rewire prune grow rewire dangling prune grow rewire"
    ).split()

    def __init__(self, *args):
        super().__init__(*args)
        n = 300 if self.smoke else 10_000
        self.model = random_host(self.rng, n)
        self.host = to_engine(self.E, self.model)
        self.rules = {k: rule_to_engine(self.E, r) for k, r in RULES.items()}
        self._reindex()

    def _reindex(self) -> None:
        G = self.model
        self.incid: dict[int, set[int]] = {v: set() for v in G.nlabel}
        for e, s in G.src.items():
            self.incid[s].add(e)
            self.incid[G.tgt[e]].add(e)
        self.a_nodes, self.b_nodes, self.ab_x, self.leaves = Pool(), Pool(), Pool(), Pool()
        for v in sorted(G.nlabel):
            self._index_node(v)
        for e in sorted(G.elabel):
            self._index_edge(e)

    def _index_node(self, v: int) -> None:
        label = self.model.nlabel.get(v)
        self.a_nodes.set(v, label == "a")
        self.b_nodes.set(v, label == "b")

    def _index_edge(self, e: int) -> None:
        G = self.model
        abx = e in G.elabel and G.src[e] != G.tgt[e] and _ab_x(G, e)
        self.ab_x.set(e, abx)
        self.leaves.set(e, abx and self.incid[G.tgt[e]] == {e})

    def _advance(self, old: Plain, new: Plain, del_v, del_e, new_v, new_e) -> None:
        """Move the harness's host and index from ``old`` to ``new``.

        A created item may reuse the id of a deleted one, so deletions are
        undone before creations are added.
        """
        touched = set(del_v) | set(new_v)
        for e in del_e:
            for v in (old.src[e], old.tgt[e]):
                self.incid[v].discard(e)
                touched.add(v)
        for v in del_v:
            del self.incid[v]
        for v in new_v:
            self.incid[v] = set()
        for e in new_e:
            for v in (new.src[e], new.tgt[e]):
                self.incid[v].add(e)
                touched.add(v)
        self.model = new
        edges = set(del_e) | set(new_e)
        for v in sorted(touched):
            self._index_node(v)
            edges |= self.incid.get(v, set())
        for e in sorted(edges):
            self._index_edge(e)

    def _match(self, kind: str):
        G, rng = self.model, self.rng
        if kind == "grow":
            return {0: self.a_nodes.choice(rng)}, {}
        if kind == "prune":
            e = self.leaves.choice(rng)
            return {0: G.src[e], 1: G.tgt[e]}, {0: e}
        if kind == "dangling":
            for _ in range(10_000):
                e = self.ab_x.choice(rng)
                if len(self.incid[G.tgt[e]]) > 1:
                    return {0: G.src[e], 1: G.tgt[e]}, {0: e}
            raise RuntimeError("no b node with more than one edge to break the dangling condition at")
        e = self.ab_x.choice(rng)
        t = G.tgt[e]
        b2 = self.b_nodes.choice(rng)
        while b2 == t:
            b2 = self.b_nodes.choice(rng)
        return {0: G.src[e], 1: t, 2: b2}, {0: e}

    def warmup(self):
        E, host = self.E, self.host
        calls = []
        for kind in ("rewire", "grow", "prune"):
            if kind == "prune" and not self.leaves:
                continue
            mv, me = self._match(kind)
            rule = self.rules[kind]
            calls.append(lambda rule=rule, mv=mv, me=me: E.rewriting.apply(rule, match_to_engine(E, rule, host, mv, me)))
        return calls

    def round(self):
        E = self.E
        for kind in self.PATTERN:
            if kind == "prune" and not self.leaves:
                kind = "grow"  # only tiny smoke hosts run out of leaves
            rule_kind = "prune" if kind == "dangling" else kind
            rule, plain = self.rules[rule_kind], RULES[rule_kind]
            mv, me = self._match(kind)
            G, host = self.model, self.host

            def call(rule=rule, host=host, mv=mv, me=me):
                return E.rewriting.apply(rule, match_to_engine(E, rule, host, mv, me))

            if kind == "dangling":
                del_v, del_e = plain.deleted(mv, me)

                def check(exc, del_v=del_v, del_e=del_e, G=G):
                    if not isinstance(exc, BaseException):
                        return ["dangling match was applied"]
                    want = dangling_scan(G, del_v, del_e)
                    got = sorted(getattr(exc, "edges", ()))
                    return [] if got == want else [f"dangling edges {got[:5]} != scan {want[:5]}"]

                yield Op("apply.dangling", call, check, expect="DanglingConditionError")
                continue

            result = {}

            def check(d, plain=plain, G=G, mv=mv, me=me, result=result):
                H, problems = derivation_problems(G, plain, mv, me, d, "apply")
                result["H"] = H
                if not problems:
                    cv, ce = plain.created()
                    result["delta"] = (
                        *plain.deleted(mv, me),
                        [d.comatch.fv[x] for x in cv],
                        [d.comatch.fe[x] for x in ce],
                    )
                return problems

            op = Op(f"apply.{kind}", call, check)
            yield op
            if op.ok:
                self.host = op.outcome.H
                self._advance(G, result["H"], *result["delta"])
            elif "H" in result:
                # the engine's result was wrong: carry on from it, so later
                # ops are checked against what the engine actually holds
                self.host = op.outcome.H
                self.model = result["H"]
                self._reindex()


class MatchSearch(Workload):
    """Read-only search: ``find_matches`` and ``is_isomorphic``.

    Each round draws fresh hosts.  Match counts are checked against networkx
    and every match against the morphism axioms; isomorphism verdicts are
    known by construction and also checked against networkx.  The id-aligned
    copy past 1000 nodes is drawn once: ``is_isomorphic`` recurses once per
    node and fails on it with ``RecursionError`` today.
    """

    tail_pct = 90

    def __init__(self, *args):
        super().__init__(*args)
        small = self.smoke
        # most two-node searches run on 200 nodes, so that the median op is
        # one of them; the three-node searches all run on 150 nodes, so that
        # the tail percentile falls inside their cluster
        self.sizes = (30, 40) if small else (150, 200, 200, 200, 200, 300)
        self.path_sizes = (30, 30) if small else (150, 150)
        self.cycle_size = 30 if small else 150
        # up to 80 nodes: at 100 the backtracking search takes over 5 s on
        # about one shuffled copy in a hundred, and then that one copy sets
        # the whole run's throughput
        self.iso_sizes = (10, 20) if small else (40, 55, 70, 80)
        self.flip_sizes = (10,) if small else (60, 100)
        self.lhs = {name: to_engine(self.E, g) for name, g in
                    (("edge_ab", EDGE_AB), ("edge_cc", EDGE_CC), ("path_abc", PATH_ABC), ("cycle_bbb", CYCLE_BBB))}
        self.rules = {name: self.E.rewriting.identity_rule(L) for name, L in self.lhs.items()}
        self.plain_lhs = {"edge_ab": EDGE_AB, "edge_cc": EDGE_CC, "path_abc": PATH_ABC, "cycle_bbb": CYCLE_BBB}
        g = random_host(self.rng, 1024)
        self.aligned = (g, to_engine(self.E, g), to_engine(self.E, g.copy()))
        self.aligned_nx: bool | None = None

    def warmup(self):
        E, rw = self.E, self.E.rewriting
        g = random_host(self.rng, self.sizes[0])
        h = to_engine(E, g)
        small = random_host(self.rng, self.iso_sizes[0])
        a, b = to_engine(E, small), to_engine(E, shuffled(self.rng, small))
        return [lambda: rw.find_matches(self.rules["edge_ab"], h), lambda: E.graph.is_isomorphic(a, b)]

    def _find(self, name: str, G: Plain) -> Op:
        E, rule, L = self.E, self.rules[name], self.plain_lhs[name]
        host = to_engine(E, G)

        def check(matches):
            problems = []
            seen = set()
            for i, match in enumerate(matches):
                m = match.m
                problems += morphism_problems(L, G, m.fv, m.fe, f"match {i}", injective=True)
                seen.add((tuple(sorted(m.fv.items())), tuple(sorted(m.fe.items()))))
            if len(seen) != len(matches):
                problems.append("find_matches returned a match twice")
            want = count_injective_morphisms(L, G)
            if len(matches) != want:
                problems.append(f"find_matches found {len(matches)}, networkx {want}")
            return problems

        return Op(f"find_matches.{name}", lambda: E.rewriting.find_matches(rule, host), check)

    def _iso(self, kind: str, G: Plain, H: Plain, engine_pair=None) -> Op:
        E = self.E
        g, h = engine_pair or (to_engine(E, G), to_engine(E, H))
        expected = kind != "flipped"

        def check(w):
            if (w is not None) != expected:
                return [f"is_isomorphic said {w is not None}, expected {expected}"]
            if kind == "aligned":
                if self.aligned_nx is None:
                    self.aligned_nx = isomorphic(G, H)
                verdict = self.aligned_nx
            else:
                verdict = isomorphic(G, H)
            problems = [] if verdict == expected else [f"networkx says isomorphic={verdict}"]
            if w is not None:
                problems += iso_problems(G, H, w.node_map, w.edge_map, "iso witness")
            return problems

        return Op(f"is_isomorphic.{kind}", lambda: E.graph.is_isomorphic(g, h), check)

    def round(self):
        rng = self.rng
        for n in self.sizes:
            G = random_host(rng, n)
            yield self._find("edge_ab", G)
            yield self._find("edge_cc", G)
        for n in self.path_sizes:
            yield self._find("path_abc", random_host(rng, n))
        yield self._find("cycle_bbb", random_host(rng, self.cycle_size))
        for n in self.iso_sizes:
            G = random_host(rng, n)
            yield self._iso("shuffled", G, shuffled(rng, G))
        for n in self.flip_sizes:
            G = random_host(rng, n)
            yield self._iso("flipped", G, flipped(rng, G))
        g, eg, eh = self.aligned
        yield self._iso("aligned", g, g, (eg, eh))


class CommuteDiamond(Workload):
    """Parallel pairs closed into a diamond and re-checked square by square.

    Each op applies two rules to one fresh host, asks whether the pair is
    parallel independent and, if so, commutes it and verifies the squares.
    Seven pairs in eight are independent by construction (their matches
    share no node); the eighth shares the edge both delete, so the verdict
    must be None.
    """

    tail_pct = 75
    # one dependent pair, then two pairs at each size: the median op is a
    # 250-node diamond and the 75th percentile a 300-node one
    PLAN = ((200, False), (200, True), (200, True), (250, True), (250, True), (300, True), (300, True), (600, True))
    INDEPENDENT = (("rewire", "rewire"), ("rewire", "grow"), ("prune", "rewire"), ("grow", "prune"))
    DEPENDENT = (("rewire", "rewire"), ("prune", "rewire"))

    def __init__(self, *args):
        super().__init__(*args)
        self.plan = [(60, False), (60, True), (80, True)] if self.smoke else self.PLAN
        self.rules = {k: rule_to_engine(self.E, r) for k, r in RULES.items()}
        self.count = 0

    def warmup(self):
        op = self._pair(self.plan[0][0], True)
        return [op.call]

    def _pair(self, n: int, independent: bool) -> Op:
        E, rng = self.E, self.rng
        G = plant_leaf(rng, random_host(rng, n))
        table = self.INDEPENDENT if independent else self.DEPENDENT
        k1, k2 = table[self.count % len(table)]
        self.count += 1
        if not independent:
            mv1, me1 = pick(rng, G, k1)
            mv2, me2 = pick(rng, G, k2, edge=me1[0])
        elif k2 == "prune":
            # leaves are rare: place the prune first, then keep clear of it
            mv2, me2 = pick(rng, G, k2)
            mv1, me1 = pick(rng, G, k1, avoid=set(mv2.values()))
        else:
            mv1, me1 = pick(rng, G, k1)
            mv2, me2 = pick(rng, G, k2, avoid=set(mv1.values()))
        r1, r2 = RULES[k1], RULES[k2]
        d1v, d1e = r1.deleted(mv1, me1)
        d2v, d2e = r2.deleted(mv2, me2)
        blocked = (set(mv1.values()) & d2v or set(me1.values()) & d2e
                   or set(mv2.values()) & d1v or set(me2.values()) & d1e)
        host = to_engine(E, G)
        e1, e2 = self.rules[k1], self.rules[k2]

        def call():
            ind, rw = E.independence, E.rewriting
            pair = ind.ParallelPair(
                rw.apply(e1, match_to_engine(E, e1, host, mv1, me1)),
                rw.apply(e2, match_to_engine(E, e2, host, mv2, me2)),
            )
            witness = ind.parallel_independent(pair)
            if witness is None:
                return pair, None, None, None
            result = ind.commute(pair)
            return pair, witness, result, ind.verify_commutation_squares(pair, witness, result)

        def check(out):
            pair, witness, result, report = out
            H1, problems = derivation_problems(G, r1, mv1, me1, pair.d1, "d1")
            H2, p2 = derivation_problems(G, r2, mv2, me2, pair.d2, "d2")
            problems += p2
            if (witness is None) != bool(blocked):
                return problems + [f"parallel_independent: got {witness is not None}, expected {not blocked}"]
            if witness is None:
                return problems
            D1, _ = from_engine(pair.d1.D)
            D2, _ = from_engine(pair.d2.D)
            problems += same_graph(delete(G, d1v, d1e), D1, "D1") + same_graph(delete(G, d2v, d2e), D2, "D2")
            for name, j, L, D, mv, me in (("j1", witness.j1, r1.L, D2, mv1, me1), ("j2", witness.j2, r2.L, D1, mv2, me2)):
                problems += morphism_problems(L, D, j.fv, j.fe, name, injective=True)
                if j.fv != mv or j.fe != me:
                    problems.append(f"{name} is not the match co-restricted")
            # residual matches are the original ones: contexts embed by identity
            Gp, p = derivation_problems(H1, r2, mv2, me2, result.e1, "e1")
            problems += p
            Gq, p = derivation_problems(H2, r1, mv1, me1, result.e2, "e2")
            problems += p
            problems += same_graph(Gp, from_engine(result.Gp)[0], "G'")
            problems += iso_problems(Gp, Gq, result.iso.node_map, result.iso.edge_map, "diamond iso")
            if not report:
                problems.append(f"verify_commutation_squares: {report.failed_clause}")
            return problems

        return Op("diamond." + ("independent" if independent else "dependent"), call, check)

    def round(self):
        for n, independent in self.plan:
            yield self._pair(n, independent)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _dump(doc, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def _rule_doc(r: PlainRule) -> dict:
    def m(fv, fe):
        return {"fv": {str(k): v for k, v in fv.items()}, "fe": {str(k): v for k, v in fe.items()}}

    return {"L": r.L.to_doc(), "K": r.K.to_doc(), "R": r.R.to_doc(), "b": m(r.b_v, r.b_e), "r": m(r.r_v, r.r_e)}


def _morph_doc(fv: dict, fe: dict) -> dict:
    return {"fv": {str(k): v for k, v in fv.items()}, "fe": {str(k): v for k, v in fe.items()}}


class CliBatch(Workload):
    """``dpo.cli.main(argv)`` in process, on JSON files written during set-up.

    Read verbs (``validate``, ``check-square``) and the write verb ``apply``
    run on a ~10^4-node host; ``match``, ``iso``, ``independent`` and
    ``commute`` run on a ~100-node host.  Every exit code, report and output
    file is checked.  The input files stay the same from round to round.
    """

    # a round is six small-host ops, four commutes, two validations of the
    # big host, four check-squares and one apply, so that the median op is a
    # commute and the 80th percentile a check-square
    tail_pct = 80

    def __init__(self, *args):
        super().__init__(*args)
        rng, d = self.rng, self.workdir
        d.mkdir(parents=True, exist_ok=True)
        big = random_host(rng, 300 if self.smoke else 10_000)
        small = random_host(rng, 60 if self.smoke else 100)
        # iso runs on 80 nodes for the reason given in MatchSearch
        iso_host = random_host(rng, 20 if self.smoke else 80)
        self.big, self.small = big, small
        files = {}

        def put(name, doc):
            files[name] = str(d / name)
            _dump(doc, d / name)

        put("host.json", big.to_doc())
        put("rewire.json", _rule_doc(REWIRE))
        put("edge_ab.json", _rule_doc(_rule(EDGE_AB, EDGE_AB, EDGE_AB, {0: 0, 1: 1}, {0: 0, 1: 1}, {0: 0}, {0: 0})))
        self.apply_match = pick(rng, big, "rewire")
        put("match.json", _morph_doc(*self.apply_match))
        # the left square of that derivation: K -> L, K -> D, L -> G, D -> G
        mv, me = self.apply_match
        context = delete(big, *REWIRE.deleted(mv, me))
        put("context.json", context.to_doc())
        short = delete(context, (), (min(context.elabel),))
        put("context_short.json", short.to_doc())
        for name, ctx, cfile in (("square.json", context, "context.json"), ("square_bad.json", short, "context_short.json")):
            put(name, {
                "A": REWIRE.K.to_doc(), "B": REWIRE.L.to_doc(), "C": cfile, "D": "host.json",
                "ab": _morph_doc(REWIRE.b_v, REWIRE.b_e),
                "ac": _morph_doc({k: mv[x] for k, x in REWIRE.b_v.items()}, {}),
                "bd": _morph_doc(mv, me),
                "cd": _morph_doc({v: v for v in ctx.nlabel}, {e: e for e in ctx.elabel}),
            })
        put("small.json", small.to_doc())
        self.iso_pair = (iso_host, shuffled(rng, iso_host))
        put("iso_a.json", iso_host.to_doc())
        put("iso_b.json", self.iso_pair[1].to_doc())
        put("iso_flip.json", flipped(rng, iso_host).to_doc())
        self.m_a = pick(rng, small, "rewire")
        self.m_b = pick(rng, small, "rewire", avoid=set(self.m_a[0].values()))
        self.m_c = pick(rng, small, "rewire", edge=self.m_a[1][0])
        for name, m in (("m_a.json", self.m_a), ("m_b.json", self.m_b), ("m_c.json", self.m_c)):
            put(name, _morph_doc(*m))
        self.files = files
        self.out = {k: str(d / k) for k in ("apply_H.json", "apply_H.trace.json", "commute_G.json", "commute_G.report.json")}
        self.match_count: int | None = None
        self.trace_digest: str | None = None

    def _run(self, *argv: str):
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.E.cli.main([*argv, "--json"])
        return code, out.getvalue(), err.getvalue()

    def _op(self, kind: str, argv: list[str], code: int, check_doc, writes: tuple[str, ...] = ()) -> Op:
        def check(outcome):
            got, stdout, stderr = outcome
            if got != code:
                return [f"{kind}: exit {got}, expected {code}: {stderr.strip()[-200:]}"]
            try:
                doc = json.loads(stdout) if stdout.strip() else None
                return check_doc(doc)
            except (ValueError, KeyError, TypeError) as exc:
                return [f"{kind}: unreadable output: {type(exc).__name__}: {exc}"]

        def before():
            for path in writes:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)

        def written(outcome) -> int:
            return len(outcome[1]) + sum(os.path.getsize(p) for p in writes if os.path.exists(p))

        return Op(f"cli.{kind}", lambda: self._run(*argv), check, before=before, written=written)

    def warmup(self):
        f = self.files
        return [lambda: self._run("validate", f["small.json"]), lambda: self._run("validate", f["rewire.json"])]

    def round(self):
        f, out = self.files, self.out
        pair = [f["rewire.json"], f["rewire.json"], f["small.json"], "--match1", f["m_a.json"]]
        commute = self._op("commute", ["commute", *pair, "--match2", f["m_b.json"], "--out", out["commute_G.json"]],
                           0, self._check_commute, writes=(out["commute_G.json"], out["commute_G.report.json"]))
        validate_big = self._op("validate.graph", ["validate", f["host.json"]], 0,
                                lambda d: [] if d["kind"] == "graph" and d["ok"] else [f"validate: {d}"])
        yield self._op("validate.rule", ["validate", f["rewire.json"]], 0,
                       lambda d: [] if d["kind"] == "rule" and d["ok"] else [f"validate: {d}"])
        yield self._op("match", ["match", f["edge_ab.json"], f["small.json"]], 0, self._check_match)
        yield commute
        yield self._op("iso.yes", ["iso", f["iso_a.json"], f["iso_b.json"]], 0, self._check_iso)
        yield self._op("iso.no", ["iso", f["iso_a.json"], f["iso_flip.json"]], 3,
                       lambda d: [] if d["isomorphic"] is False else [f"iso: {d}"])
        yield validate_big
        yield commute
        yield self._op("independent.yes", ["independent", *pair, "--match2", f["m_b.json"]], 0, self._check_independent)
        yield self._op("independent.no", ["independent", *pair, "--match2", f["m_c.json"]], 4,
                       lambda d: [] if d["independent"] is False and d["blocked"] else [f"independent: {d}"])
        yield commute
        for square, mode, code in (("square.json", "pushout", 0), ("square.json", "pullback", 0),
                                   ("square_bad.json", "pushout", 3), ("square_bad.json", "pullback", 0)):
            yield self._op(f"check_square.{square[:-5]}.{mode}", ["check-square", f[square], "--mode", mode], code,
                           lambda d, ok=code == 0: [] if d["verdict"] is ok else [f"check-square: {d}"])
        yield validate_big
        yield commute
        yield self._op("apply", ["apply", f["rewire.json"], f["host.json"], "--match", f["match.json"],
                                 "--out", out["apply_H.json"]], 0, self._check_apply,
                       writes=(out["apply_H.json"], out["apply_H.trace.json"]))

    def _load(self, key: str):
        with open(self.out[key], encoding="utf-8") as fh:
            return json.load(fh)

    def _check_apply(self, doc) -> list[str]:
        H = from_doc(self._load("apply_H.json"))
        problems = unnamed_result_problems(self.big, [(REWIRE, *self.apply_match)], H, "apply output")
        # the trace is not parsed: that would cost the harness more memory
        # than the CLI itself uses, and peak_rss_mb would measure the harness.
        # Same input, same bytes: every trace must equal the first one.
        digest = _sha256(self.out["apply_H.trace.json"])
        if self.trace_digest is None:
            with open(self.out["apply_H.trace.json"], "rb") as fh:
                head = fh.read(1)
                fh.seek(-2, os.SEEK_END)
                tail = fh.read()
            if head != b"{" or tail.rstrip() != b"}":
                problems.append("apply trace is not a JSON object")
            self.trace_digest = digest
        elif digest != self.trace_digest:
            problems.append("apply trace differs from the first round's")
        if doc["nodes"] != len(H.nlabel) or doc["edges"] != len(H.elabel):
            problems.append(f"apply report {doc} does not describe the output")
        return problems

    def _check_match(self, doc) -> list[str]:
        if self.match_count is None:
            self.match_count = count_injective_morphisms(EDGE_AB, self.small)
        problems = [] if doc["count"] == self.match_count == len(doc["matches"]) else [
            f"match count {doc['count']}, networkx {self.match_count}"]
        for i, m in enumerate(doc["matches"]):
            problems += morphism_problems(EDGE_AB, self.small, _ints(m["fv"]), _ints(m["fe"]), f"match {i}", injective=True)
        return problems

    def _check_iso(self, doc) -> list[str]:
        if doc["isomorphic"] is not True:
            return [f"iso: {doc}"]
        w = doc["witness"]
        return iso_problems(*self.iso_pair, _ints(w["node_map"]), _ints(w["edge_map"]), "iso witness")

    def _check_independent(self, doc) -> list[str]:
        if doc["independent"] is not True:
            return [f"independent: {doc}"]
        problems = []
        for name, (mv, me) in (("j1", self.m_a), ("j2", self.m_b)):
            if _ints(doc[name]["fv"]) != mv or _ints(doc[name]["fe"]) != me:
                problems.append(f"{name} is not the match co-restricted")
        return problems

    def _check_commute(self, doc) -> list[str]:
        Gp = from_doc(self._load("commute_G.json"))
        problems = unnamed_result_problems(self.small, [(REWIRE, *self.m_a), (REWIRE, *self.m_b)], Gp, "commute output")
        report = self._load("commute_G.report.json")
        if report["squares"]["verdict"] is not True:
            problems.append(f"commute report: squares {report['squares']}")
        node_map = _ints(report["iso"]["node_map"])
        if node_map.keys() != Gp.nlabel.keys() or len(set(node_map.values())) != len(node_map):
            problems.append("commute report: iso is not a bijection on G' nodes")
        return problems


WORKLOADS = {
    "rewrite_chain": RewriteChain,
    "match_search": MatchSearch,
    "commute_diamond": CommuteDiamond,
    "cli_batch": CliBatch,
}
