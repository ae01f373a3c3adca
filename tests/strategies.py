"""Hypothesis strategies for small graphs, morphisms, rules and matches."""

from __future__ import annotations

from hypothesis import strategies as st

from dpo.constructions import gluing
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
        if target.edge[e][0] in preimages and target.edge[e][1] in preimages
    ]
    edges, fe = {}, {}
    if liftable:
        for e in range(draw(st.integers(0, max_edges))):
            te = draw(st.sampled_from(liftable))
            s = draw(st.sampled_from(preimages[target.edge[te][0]]))
            t = draw(st.sampled_from(preimages[target.edge[te][1]]))
            edges[e] = (s, t, target.edge[te][2])
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
    edges = {fe[e]: (fv[small.edge[e][0]], fv[small.edge[e][1]], small.edge[e][2]) for e in old_e}
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


@st.composite
def square_legs(draw) -> dict[str, Morphism]:
    """The four legs ``ab``, ``ac``, ``bd``, ``cd`` of a square of small
    graphs, wired corner to corner and often corrupted.

    They start either as the gluing square of an injective span, which is a
    pushout, or as a cospan from :func:`cospans` under an apex of some of
    the item pairs that agree in its target, which commutes and may be
    injective or not. Then the apex may lose one item, which can break the
    chain-condition, or ``bd`` may have one item re-pointed, which can break
    commutativity, injectivity or, for an edge, the edge's endpoints, so that
    ``bd`` is no longer a morphism and no square of these legs can be built.
    """
    if draw(st.booleans()):
        k = draw(graphs(max_nodes=3, max_edges=2))
        b, d = draw(extensions(k)), draw(extensions(k))
        glued = gluing(b, d)
        legs = {"ab": b, "ac": d, "bd": glued.h, "cd": glued.c}
    else:
        f, g = draw(cospans())
        B, C = f.source, g.source
        node_pairs = [(x, y) for x in sorted(B.nodes) for y in sorted(C.nodes) if f.fv[x] == g.fv[y]]
        kept = [p for p in node_pairs if draw(st.booleans())]
        node_id = {p: i for i, p in enumerate(kept)}
        edge_pairs = [
            (x, y) for x in sorted(B.edges) for y in sorted(C.edges)
            if f.fe[x] == g.fe[y]
            and (B.edge[x][0], C.edge[y][0]) in node_id and (B.edge[x][1], C.edge[y][1]) in node_id
            and draw(st.booleans())
        ]
        apex = graph(
            {i: B.nlabel[x] for (x, _), i in node_id.items()},
            {
                i: (node_id[B.edge[x][0], C.edge[y][0]], node_id[B.edge[x][1], C.edge[y][1]], B.edge[x][2])
                for i, (x, y) in enumerate(edge_pairs)
            },
        )
        legs = {
            "ab": Morphism(apex, B, {i: x for (x, _), i in node_id.items()}, {i: x for i, (x, _) in enumerate(edge_pairs)}),
            "ac": Morphism(apex, C, {i: y for (_, y), i in node_id.items()}, {i: y for i, (_, y) in enumerate(edge_pairs)}),
            "bd": f,
            "cd": g,
        }
    corruption = draw(st.sampled_from(("none", "drop", "repoint")))
    A = legs["ab"].source
    if corruption == "drop" and (A.nodes or A.edges):
        if A.edges and draw(st.booleans()):
            gone_v, gone_e = set(), {draw(st.sampled_from(sorted(A.edges)))}
        else:
            v = draw(st.sampled_from(sorted(A.nodes)))
            gone_v, gone_e = {v}, {e for e in A.edges if v in A.edge[e][:2]}
        nodes = {v: A.nlabel[v] for v in A.nodes - gone_v}
        edges = {e: A.edge[e] for e in A.edges - gone_e}
        smaller = graph(nodes, edges)
        for leg in ("ab", "ac"):
            m = legs[leg]
            legs[leg] = Morphism(smaller, m.target, {v: m.fv[v] for v in nodes}, {e: m.fe[e] for e in edges})
    elif corruption == "repoint":
        bd = legs["bd"]
        B, D = bd.source, bd.target
        fv, fe = dict(bd.fv), dict(bd.fe)
        if B.edges and len(D.edges) > 1 and draw(st.booleans()):
            fe[draw(st.sampled_from(sorted(B.edges)))] = draw(st.sampled_from(sorted(D.edges)))
        elif B.nodes and len(D.nodes) > 1:
            fv[draw(st.sampled_from(sorted(B.nodes)))] = draw(st.sampled_from(sorted(D.nodes)))
        legs["bd"] = Morphism(B, D, fv, fe)
    return legs
