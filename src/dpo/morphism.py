"""Graph morphisms: structure- and label-preserving mappings between graphs.

A morphism stores its node and edge maps extensionally, defined on exactly
the source graph's nodes and edges. Equality of morphisms is therefore
decidable by pointwise comparison (see :func:`morphisms_agree`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import PreconditionError
from .graph import Graph, ValidationReport, Violation


@dataclass(frozen=True, eq=True)
class Morphism:
    """A pair of maps ``fv``/``fe`` from one graph's items into another's."""

    source: Graph
    target: Graph
    fv: dict[int, int]
    fe: dict[int, int]

    def __repr__(self) -> str:
        fv = {v: self.fv.get(v) for v in sorted(self.source.nodes)}
        fe = {e: self.fe.get(e) for e in sorted(self.source.edges)}
        return f"Morphism(fv={fv}, fe={fe})"


def identity(g: Graph) -> Morphism:
    """The identity morphism on ``g``."""
    return Morphism(g, g, {v: v for v in g.nodes}, {e: e for e in g.edges})


def validate_morphism(m: Morphism) -> ValidationReport:
    """Check totality, range, the four preservation clauses and the domain."""
    g, h = m.source, m.target
    bad: list[Violation] = []
    for v in sorted(g.nodes):
        if v not in m.fv:
            bad.append(Violation("fv not total on source nodes", f"node {v}"))
        elif m.fv[v] not in h.nodes:
            bad.append(Violation("fv out of target nodes", f"node {v}"))
        elif g.nlabel[v] != h.nlabel[m.fv[v]]:
            bad.append(Violation("node label not preserved", f"node {v}"))
    for e in sorted(g.edges):
        if e not in m.fe:
            bad.append(Violation("fe not total on source edges", f"edge {e}"))
            continue
        if m.fe[e] not in h.edges:
            bad.append(Violation("fe out of target edges", f"edge {e}"))
            continue
        if m.fv.get(g.src[e]) != h.src[m.fe[e]]:
            bad.append(Violation("source not preserved", f"edge {e}"))
        if m.fv.get(g.tgt[e]) != h.tgt[m.fe[e]]:
            bad.append(Violation("target not preserved", f"edge {e}"))
        if g.elabel[e] != h.elabel[m.fe[e]]:
            bad.append(Violation("edge label not preserved", f"edge {e}"))
    for v in sorted(set(m.fv) - g.nodes):
        bad.append(Violation("fv defined outside source nodes", f"node {v}"))
    for e in sorted(set(m.fe) - g.edges):
        bad.append(Violation("fe defined outside source edges", f"edge {e}"))
    return ValidationReport(tuple(bad))


def compose(g: Morphism, f: Morphism) -> Morphism:
    """The composite ``g after f``; the middle graphs must coincide."""
    if f.target != g.source:
        raise PreconditionError("compose: f.target differs from g.source")
    return Morphism(
        source=f.source,
        target=g.target,
        fv={v: g.fv[f.fv[v]] for v in f.source.nodes},
        fe={e: g.fe[f.fe[e]] for e in f.source.edges},
    )


def is_injective(m: Morphism) -> bool:
    fv = [m.fv[v] for v in m.source.nodes]
    fe = [m.fe[e] for e in m.source.edges]
    return len(set(fv)) == len(fv) and len(set(fe)) == len(fe)


def is_surjective(m: Morphism) -> bool:
    return (
        {m.fv[v] for v in m.source.nodes} == m.target.nodes
        and {m.fe[e] for e in m.source.edges} == m.target.edges
    )


def is_bijective(m: Morphism) -> bool:
    return is_injective(m) and is_surjective(m)


def invert(m: Morphism) -> Morphism:
    """The inverse of a bijective morphism."""
    if not is_bijective(m):
        raise PreconditionError("invert: morphism is not bijective")
    return Morphism(
        source=m.target,
        target=m.source,
        fv={m.fv[v]: v for v in m.source.nodes},
        fe={m.fe[e]: e for e in m.source.edges},
    )


def is_inclusion(m: Morphism) -> bool:
    """True iff both maps are identities on the source's items."""
    return all(m.fv[v] == v for v in m.source.nodes) and all(
        m.fe[e] == e for e in m.source.edges
    )


def morphisms_agree(m1: Morphism, m2: Morphism) -> bool:
    """Pointwise equality of two morphisms with the same endpoints."""
    if m1.source != m2.source or m1.target != m2.target:
        raise PreconditionError("morphisms_agree: endpoints differ")
    return all(m1.fv[v] == m2.fv[v] for v in m1.source.nodes) and all(
        m1.fe[e] == m2.fe[e] for e in m1.source.edges
    )


def enumerate_morphisms(g: Graph, h: Graph, injective_only: bool = False) -> list[Morphism]:
    """All valid morphisms ``g -> h``, in a deterministic order.

    Ordering is lexicographic in the vector of images taken over ascending
    source node ids followed by ascending source edge ids. The enumeration
    is complete; with ``injective_only`` it is restricted to morphisms whose
    node and edge maps are both injective.
    """
    return list(_iter_morphisms(g, h, injective_only))


def _iter_morphisms(g: Graph, h: Graph, injective_only: bool) -> Iterator[Morphism]:
    nodes = sorted(g.nodes)
    edges = sorted(g.edges)
    node_candidates = {
        v: [w for w in sorted(h.nodes) if h.nlabel[w] == g.nlabel[v]] for v in nodes
    }
    edge_index: dict[tuple[int, int, str], list[int]] = {}
    for e in sorted(h.edges):
        edge_index.setdefault((h.src[e], h.tgt[e], h.elabel[e]), []).append(e)

    fv: dict[int, int] = {}
    fe: dict[int, int] = {}
    used_nodes: set[int] = set()
    used_edges: set[int] = set()

    def assign_edges(j: int) -> Iterator[Morphism]:
        if j == len(edges):
            yield Morphism(g, h, dict(fv), dict(fe))
            return
        e = edges[j]
        # an endpoint outside g's nodes has no image, so no morphism exists
        key = (fv.get(g.src[e]), fv.get(g.tgt[e]), g.elabel[e])
        for cand in edge_index.get(key, ()):
            if injective_only and cand in used_edges:
                continue
            fe[e] = cand
            used_edges.add(cand)
            yield from assign_edges(j + 1)
            del fe[e]
            used_edges.discard(cand)

    def assign_nodes(i: int) -> Iterator[Morphism]:
        if i == len(nodes):
            yield from assign_edges(0)
            return
        v = nodes[i]
        for cand in node_candidates[v]:
            if injective_only and cand in used_nodes:
                continue
            fv[v] = cand
            used_nodes.add(cand)
            yield from assign_nodes(i + 1)
            del fv[v]
            used_nodes.discard(cand)

    yield from assign_nodes(0)
