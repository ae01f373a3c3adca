"""Hypothesis strategies for small graphs, morphisms, rules and matches."""

from __future__ import annotations

from hypothesis import strategies as st

from dpo.graph import Graph, graph
from dpo.morphism import Morphism
from dpo.rewriting import Match, Rule

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


@st.composite
def extensions(draw, small: Graph, max_nodes: int = 2, max_edges: int = 2) -> Morphism:
    """An injective morphism from ``small`` into a graph with up to
    ``max_nodes`` more nodes and ``max_edges`` more edges. Identifiers on
    both sides are drawn permutations, and a new edge may join any two
    nodes, so it may be a loop or touch the image of ``small``."""
    old_v, old_e = sorted(small.nodes), sorted(small.edges)
    n_v = len(old_v) + draw(st.integers(0, max_nodes))
    ids_v = draw(st.permutations(range(n_v)))
    fv = dict(zip(old_v, ids_v))
    nodes = {fv[v]: small.nlabel[v] for v in old_v}
    for w in ids_v[len(old_v):]:
        nodes[w] = draw(st.sampled_from(NODE_LABELS))
    n_e = len(old_e) + (draw(st.integers(0, max_edges)) if nodes else 0)
    ids_e = draw(st.permutations(range(n_e)))
    fe = dict(zip(old_e, ids_e))
    edges = {fe[e]: (fv[small.src[e]], fv[small.tgt[e]], small.elabel[e]) for e in old_e}
    ends = sorted(nodes)
    for x in ids_e[len(old_e):]:
        edges[x] = (
            draw(st.sampled_from(ends)),
            draw(st.sampled_from(ends)),
            draw(st.sampled_from(EDGE_LABELS)),
        )
    return Morphism(small, graph(nodes, edges), fv, fe)


@st.composite
def rules(draw) -> Rule:
    """A rule ``L <- K -> R`` whose sides each extend ``K`` by up to two
    nodes and two edges: the empty interface, node deletion, loop creation
    and the identity rule are all among the draws."""
    k = draw(graphs(max_nodes=3, max_edges=2))
    b = draw(extensions(k))
    r = draw(extensions(k))
    return Rule(L=b.target, K=k, R=r.target, b=b, r=r)


@st.composite
def rules_with_matches(draw) -> tuple[Rule, Match]:
    """A rule and an injective match into a host that extends ``L``; the
    host's extra edges may touch deleted nodes, so the match may dangle."""
    rule = draw(rules())
    return rule, Match(draw(extensions(rule.L, max_nodes=3, max_edges=4)))
