"""Output checkers that share no code with the engine.

Graphs are compared in a plain form: four dicts ``nlabel``, ``src``, ``tgt``
and ``elabel``, the same shape as the engine's fields but built and compared
here.  Morphism axioms, the effect of a rule application and the dangling
condition are checked by direct scans; match counts and isomorphism verdicts
are checked against networkx's VF2 matcher.  Every checker returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass

import networkx as nx
from networkx.algorithms.isomorphism import DiGraphMatcher


@dataclass
class Plain:
    """A labelled multigraph as four dicts keyed by node or edge id."""

    nlabel: dict[int, str]
    src: dict[int, int]
    tgt: dict[int, int]
    elabel: dict[int, str]

    @classmethod
    def make(cls, nodes: dict[int, str], edges: dict[int, tuple[int, int, str]]) -> "Plain":
        return cls(
            dict(nodes),
            {e: s for e, (s, _, _) in edges.items()},
            {e: t for e, (_, t, _) in edges.items()},
            {e: l for e, (_, _, l) in edges.items()},
        )

    def copy(self) -> "Plain":
        return Plain(dict(self.nlabel), dict(self.src), dict(self.tgt), dict(self.elabel))

    def edge(self, e: int) -> tuple[int, int, str]:
        return self.src[e], self.tgt[e], self.elabel[e]

    def to_doc(self) -> dict:
        """The graph document format the CLI reads."""
        return {
            "nodes": [{"id": v, "label": l} for v, l in sorted(self.nlabel.items())],
            "edges": [
                {"id": e, "src": self.src[e], "tgt": self.tgt[e], "label": self.elabel[e]}
                for e in sorted(self.elabel)
            ],
        }


def from_engine(g) -> tuple[Plain, list[str]]:
    """Copy an engine graph into plain form and report broken invariants."""
    p = Plain(dict(g.nlabel), dict(g.src), dict(g.tgt), dict(g.elabel))
    problems = []
    if set(g.nodes) != p.nlabel.keys():
        problems.append("graph: node set differs from the node-label domain")
    if not (set(g.edges) == p.src.keys() == p.tgt.keys() == p.elabel.keys()):
        problems.append("graph: edge set differs from the edge-map domains")
    if any(s not in p.nlabel for s in p.src.values()) or any(t not in p.nlabel for t in p.tgt.values()):
        problems.append("graph: an edge endpoint is not a node")
    return p, problems


def from_doc(doc) -> Plain:
    """Read a graph document; raises ``KeyError``/``TypeError`` on a bad one."""
    nodes = {n["id"]: n["label"] for n in doc["nodes"]}
    edges = {e["id"]: (e["src"], e["tgt"], e["label"]) for e in doc["edges"]}
    if len(nodes) != len(doc["nodes"]) or len(edges) != len(doc["edges"]):
        raise ValueError("duplicate id in graph document")
    return Plain.make(nodes, edges)


def same_graph(expected: Plain, actual: Plain, what: str) -> list[str]:
    problems = []
    for field in ("nlabel", "src", "tgt", "elabel"):
        want, got = getattr(expected, field), getattr(actual, field)
        if want != got:
            missing = sorted(want.keys() - got.keys())[:5]
            extra = sorted(got.keys() - want.keys())[:5]
            changed = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])[:5]
            problems.append(
                f"{what}: {field} differs (missing {missing}, extra {extra}, changed {changed})"
            )
    return problems


def morphism_problems(
    S: Plain, T: Plain, fv: dict, fe: dict, what: str, injective: bool = False
) -> list[str]:
    """Totality on exactly the source, range, label and incidence preservation."""
    problems = []
    if fv.keys() != S.nlabel.keys() or fe.keys() != S.elabel.keys():
        problems.append(f"{what}: maps are not defined on exactly the source items")
        return problems
    for v, w in fv.items():
        if w not in T.nlabel:
            problems.append(f"{what}: node {v} maps outside the target")
        elif T.nlabel[w] != S.nlabel[v]:
            problems.append(f"{what}: node {v} label not preserved")
    for e, f in fe.items():
        if f not in T.elabel:
            problems.append(f"{what}: edge {e} maps outside the target")
            continue
        if T.elabel[f] != S.elabel[e]:
            problems.append(f"{what}: edge {e} label not preserved")
        if fv.get(S.src[e]) != T.src[f] or fv.get(S.tgt[e]) != T.tgt[f]:
            problems.append(f"{what}: edge {e} endpoints not preserved")
    if injective and (len(set(fv.values())) != len(fv) or len(set(fe.values())) != len(fe)):
        problems.append(f"{what}: not injective")
    return problems


def iso_problems(S: Plain, T: Plain, fv: dict, fe: dict, what: str) -> list[str]:
    problems = morphism_problems(S, T, fv, fe, what, injective=True)
    if not problems and (len(fv) != len(T.nlabel) or len(fe) != len(T.elabel)):
        problems.append(f"{what}: not surjective")
    return problems


@dataclass
class PlainRule:
    """A span ``L <- K -> R`` with ``b: K -> L`` and ``r: K -> R`` as dicts."""

    L: Plain
    K: Plain
    R: Plain
    b_v: dict[int, int]
    b_e: dict[int, int]
    r_v: dict[int, int]
    r_e: dict[int, int]

    def deleted(self, mv: dict, me: dict) -> tuple[set[int], set[int]]:
        """Host items a match sends the non-interface part of L to."""
        kept_v, kept_e = set(self.b_v.values()), set(self.b_e.values())
        return (
            {mv[v] for v in self.L.nlabel if v not in kept_v},
            {me[e] for e in self.L.elabel if e not in kept_e},
        )

    def created(self) -> tuple[list[int], list[int]]:
        kept_v, kept_e = set(self.r_v.values()), set(self.r_e.values())
        return (
            sorted(v for v in self.R.nlabel if v not in kept_v),
            sorted(e for e in self.R.elabel if e not in kept_e),
        )


def delete(G: Plain, del_v, del_e) -> Plain:
    """A copy of ``G`` without the given nodes and edges."""
    D = G.copy()
    for e in del_e:
        del D.src[e], D.tgt[e], D.elabel[e]
    for v in del_v:
        del D.nlabel[v]
    return D


def dangling_scan(G: Plain, del_v: set[int], del_e: set[int]) -> list[int]:
    """Surviving host edges that touch a deleted node, by a full edge scan."""
    return sorted(
        e for e, s in G.src.items() if e not in del_e and (s in del_v or G.tgt[e] in del_v)
    )


def rewrite(G: Plain, rule: PlainRule, mv: dict, me: dict, cv: dict, ce: dict) -> tuple[Plain, list[str]]:
    """The expected result: G minus the deleted items plus the created items.

    ``cv``/``ce`` is the comatch ``R -> H`` the engine reported; it is checked
    to agree with the match on the interface and to give created items fresh,
    distinct identifiers, and it then names the created items.
    """
    problems = []
    if cv.keys() != rule.R.nlabel.keys() or ce.keys() != rule.R.elabel.keys():
        return G, ["comatch: maps are not defined on exactly R's items"]
    for k, x in rule.r_v.items():
        if cv[x] != mv[rule.b_v[k]]:
            problems.append(f"comatch: interface node {k} not sent where the match sent it")
    for k, x in rule.r_e.items():
        if ce[x] != me[rule.b_e[k]]:
            problems.append(f"comatch: interface edge {k} not sent where the match sent it")
    new_v, new_e = rule.created()
    H = delete(G, *rule.deleted(mv, me))
    fresh_v = [cv[x] for x in new_v]
    fresh_e = [ce[x] for x in new_e]
    # fresh means unused by the kept items: the id of a deleted item may return
    if len(set(fresh_v)) != len(fresh_v) or any(v in H.nlabel for v in fresh_v):
        problems.append("comatch: created nodes do not get fresh distinct ids")
    if len(set(fresh_e)) != len(fresh_e) or any(e in H.elabel for e in fresh_e):
        problems.append("comatch: created edges do not get fresh distinct ids")
    for x in new_v:
        H.nlabel[cv[x]] = rule.R.nlabel[x]
    for x in new_e:
        H.src[ce[x]] = cv[rule.R.src[x]]
        H.tgt[ce[x]] = cv[rule.R.tgt[x]]
        H.elabel[ce[x]] = rule.R.elabel[x]
    return H, problems


def _collapsed(g: Plain) -> nx.DiGraph:
    """One arc per ordered node pair, carrying the multiset of edge labels."""
    d = nx.DiGraph()
    for v, label in g.nlabel.items():
        d.add_node(v, label=label)
    labels: dict[tuple[int, int], Counter] = {}
    for e, s in g.src.items():
        labels.setdefault((s, g.tgt[e]), Counter())[g.elabel[e]] += 1
    for (s, t), c in labels.items():
        d.add_edge(s, t, labels=c)
    return d


def _node_match(a: dict, b: dict) -> bool:
    return a["label"] == b["label"]


class _KeepRecursionLimit:
    # networkx's VF2 raises the interpreter's recursion limit for large
    # graphs and does not restore it; the engine's behaviour near that limit
    # is part of what is measured, so the checker must leave it untouched
    def __enter__(self):
        self.limit = sys.getrecursionlimit()

    def __exit__(self, *exc):
        sys.setrecursionlimit(self.limit)


def count_injective_morphisms(L: Plain, G: Plain) -> int:
    """Number of injective morphisms ``L -> G`` of labelled multigraphs.

    VF2 enumerates the injective node maps under which every arc of L has a
    host arc carrying at least its label multiset; each such node map extends
    to ``prod P(host count, pattern count)`` injective edge maps.
    """
    host, pattern = _collapsed(G), _collapsed(L)

    def edge_match(h: dict, p: dict) -> bool:
        return all(h["labels"][l] >= n for l, n in p["labels"].items())

    total = 0
    with _KeepRecursionLimit():
        matcher = DiGraphMatcher(host, pattern, node_match=_node_match, edge_match=edge_match)
        for mapping in matcher.subgraph_monomorphisms_iter():
            inverse = {p: h for h, p in mapping.items()}
            ways = 1
            for s, t, data in pattern.edges(data=True):
                have = host[inverse[s]][inverse[t]]["labels"]
                for label, need in data["labels"].items():
                    for i in range(need):
                        ways *= have[label] - i
            total += ways
    return total


def isomorphic(G: Plain, H: Plain) -> bool:
    """Whether two labelled multigraphs are isomorphic, by VF2."""
    if len(G.nlabel) != len(H.nlabel) or len(G.elabel) != len(H.elabel):
        return False

    def edge_match(a: dict, b: dict) -> bool:
        return a["labels"] == b["labels"]

    with _KeepRecursionLimit():
        matcher = DiGraphMatcher(
            _collapsed(G), _collapsed(H), node_match=_node_match, edge_match=edge_match
        )
        return matcher.is_isomorphic()
