"""Hypothesis strategies for small graphs and morphism-shaped data."""

from __future__ import annotations

from hypothesis import strategies as st

from dpo.graph import Graph, graph
from dpo.morphism import Morphism

NODE_LABELS = ("a", "b")
EDGE_LABELS = ("x", "y")


@st.composite
def graphs(draw, max_nodes: int = 4, max_edges: int = 4) -> Graph:
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    nodes = {v: draw(st.sampled_from(NODE_LABELS)) for v in range(n)}
    edges = {}
    if n:
        m = draw(st.integers(min_value=0, max_value=max_edges))
        for e in range(m):
            edges[e] = (
                draw(st.integers(0, n - 1)),
                draw(st.integers(0, n - 1)),
                draw(st.sampled_from(EDGE_LABELS)),
            )
    return graph(nodes, edges)


@st.composite
def morphisms_into(draw, target: Graph, max_nodes: int = 5, max_edges: int = 5) -> Morphism:
    """A morphism into ``target``, built source-from-target: each source
    node picks its image first, so the map need not be injective."""
    t_nodes = sorted(target.nodes)
    n = draw(st.integers(0, max_nodes)) if t_nodes else 0
    fv = {v: draw(st.sampled_from(t_nodes)) for v in range(n)}
    preimages: dict[int, list[int]] = {}
    for v, w in sorted(fv.items()):
        preimages.setdefault(w, []).append(v)
    # the target edges whose two endpoints both have a preimage
    liftable = [
        e for e in sorted(target.edges)
        if target.src[e] in preimages and target.tgt[e] in preimages
    ]
    edges, fe = {}, {}
    if liftable:
        for e in range(draw(st.integers(0, max_edges))):
            te = draw(st.sampled_from(liftable))
            s = draw(st.sampled_from(preimages[target.src[te]]))
            t = draw(st.sampled_from(preimages[target.tgt[te]]))
            edges[e] = (s, t, target.elabel[te])
            fe[e] = te
    nodes = {v: target.nlabel[w] for v, w in fv.items()}
    return Morphism(graph(nodes, edges), target, fv, fe)


@st.composite
def cospans(draw) -> tuple[Morphism, Morphism]:
    """Two morphisms ``f: B -> D`` and ``g: C -> D`` into a shared target."""
    d = draw(graphs(max_nodes=4, max_edges=5))
    return draw(morphisms_into(d)), draw(morphisms_into(d))
