"""Seeded random generators for the tests: graphs, embeddings, spans,
rules, morphisms into a graph, cospans, rules with an applicable match,
parallel pairs of derivations, a morphism with one image moved, and a
rewiring rule at a match on a large random host; and two fixed pairs of
graphs with equal node signatures and edge-label counts that are not
isomorphic.

Every generator is driven by a caller-supplied :class:`random.Random`, so a
seed gives the same corpus every time. Injective morphisms are generated as
random embeddings, so rules are valid by construction.
"""

from __future__ import annotations

import random
from typing import Sequence

from dpo.errors import DanglingConditionError
from dpo.graph import Graph, graph
from dpo.independence import ParallelPair
from dpo.morphism import Morphism
from dpo.rewriting import Match, Rule, apply

# one-label cycles: every node has label a, out-degree 1 and in-degree 1
TWO_TRIANGLES = graph({v: "a" for v in range(6)}, {v: (v, 3 * (v // 3) + (v + 1) % 3, "x") for v in range(6)})
HEXAGON = graph({v: "a" for v in range(6)}, {v: (v, (v + 1) % 6, "x") for v in range(6)})
# two parallel pairs each: {x, y} twice against {x, x} and {y, y}
MIXED_PAIRS = graph({v: "a" for v in range(4)}, {0: (0, 1, "x"), 1: (0, 1, "y"), 2: (2, 3, "x"), 3: (2, 3, "y")})
PURE_PAIRS = graph({v: "a" for v in range(4)}, {0: (0, 1, "x"), 1: (0, 1, "x"), 2: (2, 3, "y"), 3: (2, 3, "y")})

NODE_LABELS: Sequence[str] = ("a", "b", "c")
EDGE_LABELS: Sequence[str] = ("x", "y")


def random_graph(
    rng: random.Random,
    max_nodes: int = 6,
    max_edges: int = 8,
    node_labels: Sequence[str] = NODE_LABELS,
    edge_labels: Sequence[str] = EDGE_LABELS,
    min_nodes: int = 0,
) -> Graph:
    n = rng.randint(min_nodes, max_nodes)
    nodes = {v: rng.choice(node_labels) for v in range(n)}
    edges = {}
    if n:
        for e in range(rng.randint(0, max_edges)):
            edges[e] = (rng.randrange(n), rng.randrange(n), rng.choice(edge_labels))
    return graph(nodes, edges)


def random_embedding(
    rng: random.Random,
    small: Graph,
    extra_nodes: int = 2,
    extra_edges: int = 2,
    node_labels: Sequence[str] = NODE_LABELS,
    edge_labels: Sequence[str] = EDGE_LABELS,
    attach_nodes: set[int] | None = None,
) -> Morphism:
    """An injective morphism from ``small`` into a random larger graph.

    ``attach_nodes`` restricts which images of ``small``'s nodes the extra
    edges may touch (extra edges can always touch the fresh nodes).
    """
    total_n = len(small.nodes) + extra_nodes
    image_v = dict(zip(sorted(small.nodes), rng.sample(range(total_n), len(small.nodes))))
    nodes = {image_v[v]: small.nlabel[v] for v in small.nodes}
    for v in range(total_n):
        if v not in nodes:
            nodes[v] = rng.choice(node_labels)

    total_e = len(small.edges) + extra_edges
    image_e = dict(zip(sorted(small.edges), rng.sample(range(total_e), len(small.edges))))
    edges: dict[int, tuple[int, int, str]] = {}
    for e in small.edges:
        edges[image_e[e]] = (image_v[small.edge[e][0]], image_v[small.edge[e][1]], small.edge[e][2])
    if attach_nodes is None:
        allowed = list(range(total_n))
    else:
        fresh = [v for v in range(total_n) if v not in set(image_v.values())]
        allowed = sorted(fresh + [image_v[v] for v in attach_nodes])
    if allowed:
        for e in range(total_e):
            if e not in edges:
                edges[e] = (rng.choice(allowed), rng.choice(allowed), rng.choice(edge_labels))
    big = graph(nodes, edges)
    return Morphism(small, big, image_v, image_e)


def random_span(
    rng: random.Random,
    max_interface_nodes: int = 3,
    max_interface_edges: int = 2,
    extra_nodes: int = 3,
    extra_edges: int = 3,
    surjective_b: bool = False,
) -> tuple[Morphism, Morphism]:
    """An injective span ``b: K -> R``, ``d: K -> D`` over a shared interface."""
    k = random_graph(rng, max_interface_nodes, max_interface_edges)
    if surjective_b:
        b = random_embedding(rng, k, extra_nodes=0, extra_edges=0)
    else:
        b = random_embedding(rng, k, rng.randint(0, extra_nodes), rng.randint(0, extra_edges))
    d = random_embedding(rng, k, rng.randint(0, extra_nodes), rng.randint(0, extra_edges))
    return b, d


def random_rule(
    rng: random.Random,
    max_interface_nodes: int = 2,
    max_interface_edges: int = 1,
    extra_nodes: int = 2,
    extra_edges: int = 2,
) -> Rule:
    b, r = random_span(rng, max_interface_nodes, max_interface_edges, extra_nodes, extra_edges)
    return Rule(L=b.target, K=b.source, R=r.target, b=b, r=r)


def random_morphism_into(
    rng: random.Random,
    target: Graph,
    max_nodes: int = 6,
    max_edges: int = 8,
) -> Morphism:
    """A random valid morphism into ``target``, built source-from-target."""
    t_nodes = sorted(target.nodes)
    t_edges = sorted(target.edges)
    n = rng.randint(0, max_nodes) if t_nodes else 0
    fv = {v: rng.choice(t_nodes) for v in range(n)}
    nodes = {v: target.nlabel[fv[v]] for v in range(n)}
    preimages: dict[int, list[int]] = {}
    for v, w in fv.items():
        preimages.setdefault(w, []).append(v)
    edges = {}
    fe = {}
    if t_edges and n:
        e_id = 0
        for _ in range(rng.randint(0, max_edges)):
            te = rng.choice(t_edges)
            us = preimages.get(target.edge[te][0], ())
            vs = preimages.get(target.edge[te][1], ())
            if not us or not vs:
                continue
            edges[e_id] = (rng.choice(us), rng.choice(vs), target.edge[te][2])
            fe[e_id] = te
            e_id += 1
    return Morphism(graph(nodes, edges), target, fv, fe)


def random_cospan(
    rng: random.Random,
    max_target_nodes: int = 5,
    max_target_edges: int = 5,
    max_source_nodes: int = 5,
    max_source_edges: int = 5,
) -> tuple[Morphism, Morphism]:
    """Two morphisms ``f: B -> D`` and ``g: C -> D`` into a shared target."""
    d = random_graph(rng, max_target_nodes, max_target_edges)
    f = random_morphism_into(rng, d, max_source_nodes, max_source_edges)
    g = random_morphism_into(rng, d, max_source_nodes, max_source_edges)
    return f, g


def random_rule_with_match(
    rng: random.Random,
    max_interface_nodes: int = 2,
    extra_nodes: int = 2,
    extra_edges: int = 2,
    junk_nodes: int = 2,
    junk_edges: int = 2,
) -> tuple[Rule, Match]:
    """A rule together with an applicable (dangling-safe) match.

    The host is built around an embedded copy of the left-hand side; stray
    edges only attach to preserved images or to fresh nodes, so the dangling
    condition holds by construction.
    """
    rule = random_rule(rng, max_interface_nodes, 1, extra_nodes, extra_edges)
    preserved = {rule.b.fv[k] for k in rule.K.nodes}
    m = random_embedding(
        rng,
        rule.L,
        extra_nodes=rng.randint(0, junk_nodes),
        extra_edges=rng.randint(0, junk_edges),
        attach_nodes=preserved,
    )
    return rule, Match(m)


def _disjoint_double_embedding(
    rng: random.Random,
    L1: Graph,
    L2: Graph,
    host_extra_nodes: int,
    host_extra_edges: int,
    attach1: set[int],
    attach2: set[int],
    share: tuple[int, int] | None,
    node_labels: Sequence[str] = NODE_LABELS,
    edge_labels: Sequence[str] = EDGE_LABELS,
) -> tuple[Morphism, Morphism]:
    n1 = len(L1.nodes)
    mv1 = {v: i for i, v in enumerate(sorted(L1.nodes))}
    mv2 = {v: n1 + i for i, v in enumerate(sorted(L2.nodes))}
    if share is not None:
        v1, v2 = share
        mv2[v2] = mv1[v1]
    nodes = {mv1[v]: L1.nlabel[v] for v in L1.nodes}
    nodes.update({mv2[v]: L2.nlabel[v] for v in L2.nodes})
    fresh_start = n1 + len(L2.nodes)
    fresh = list(range(fresh_start, fresh_start + host_extra_nodes))
    for v in fresh:
        nodes[v] = rng.choice(node_labels)

    me1 = {e: i for i, e in enumerate(sorted(L1.edges))}
    me2 = {e: len(L1.edges) + i for i, e in enumerate(sorted(L2.edges))}
    edges: dict[int, tuple[int, int, str]] = {}
    for e in L1.edges:
        edges[me1[e]] = (mv1[L1.edge[e][0]], mv1[L1.edge[e][1]], L1.edge[e][2])
    for e in L2.edges:
        edges[me2[e]] = (mv2[L2.edge[e][0]], mv2[L2.edge[e][1]], L2.edge[e][2])
    allowed = sorted(set(fresh) | {mv1[v] for v in attach1} | {mv2[v] for v in attach2})
    next_e = len(L1.edges) + len(L2.edges)
    if allowed:
        for e in range(next_e, next_e + host_extra_edges):
            edges[e] = (rng.choice(allowed), rng.choice(allowed), rng.choice(edge_labels))
    host = graph(nodes, edges)
    return Morphism(L1, host, mv1, me1), Morphism(L2, host, mv2, me2)


def random_parallel_independent_pair(
    rng: random.Random,
    max_interface_nodes: int = 2,
    extra_nodes: int = 2,
    extra_edges: int = 2,
    junk_nodes: int = 2,
    junk_edges: int = 2,
) -> ParallelPair:
    """Two derivations from one host that are parallel independent by
    construction: the matches overlap at most in one preserved node."""
    rule1 = random_rule(rng, max_interface_nodes, 1, extra_nodes, extra_edges)
    rule2 = random_rule(rng, max_interface_nodes, 1, extra_nodes, extra_edges)
    preserved1 = {rule1.b.fv[k] for k in rule1.K.nodes}
    preserved2 = {rule2.b.fv[k] for k in rule2.K.nodes}
    share = None
    if rng.random() < 0.5:
        candidates = [
            (v1, v2)
            for v1 in sorted(preserved1)
            for v2 in sorted(preserved2)
            if rule1.L.nlabel[v1] == rule2.L.nlabel[v2]
        ]
        if candidates:
            share = rng.choice(candidates)
    m1, m2 = _disjoint_double_embedding(
        rng,
        rule1.L,
        rule2.L,
        rng.randint(0, junk_nodes),
        rng.randint(0, junk_edges),
        attach1=preserved1,
        attach2=preserved2,
        share=share,
    )
    return ParallelPair(apply(rule1, Match(m1)), apply(rule2, Match(m2)))


def random_parallel_pair(rng: random.Random, max_attempts: int = 40) -> ParallelPair:
    """Two applicable derivations from one host, independent or not.

    Matches may overlap on arbitrary same-label nodes; attempts whose
    matches are not applicable are discarded, falling back to an
    independent-by-construction pair.
    """
    for _ in range(max_attempts):
        rule1 = random_rule(rng, 2, 1, 2, 2)
        rule2 = random_rule(rng, 2, 1, 2, 2)
        share = None
        candidates = [
            (v1, v2)
            for v1 in sorted(rule1.L.nodes)
            for v2 in sorted(rule2.L.nodes)
            if rule1.L.nlabel[v1] == rule2.L.nlabel[v2]
        ]
        if candidates and rng.random() < 0.7:
            share = rng.choice(candidates)
        m1, m2 = _disjoint_double_embedding(
            rng,
            rule1.L,
            rule2.L,
            rng.randint(0, 2),
            rng.randint(0, 2),
            attach1=set(rule1.L.nodes),
            attach2=set(rule2.L.nodes),
            share=share,
        )
        try:
            return ParallelPair(apply(rule1, Match(m1)), apply(rule2, Match(m2)))
        except DanglingConditionError:
            continue
    return random_parallel_independent_pair(rng)


def one_item_moved(rng: random.Random, m: Morphism, pool: Graph):
    """``m`` with the image of one node or edge changed to another item of
    ``pool``, or ``None`` if there is no other."""
    fv, fe = dict(m.fv), dict(m.fe)
    if m.source.edges and len(pool.edges) > 1 and rng.random() < 0.5:
        e = rng.choice(sorted(m.source.edges))
        fe[e] = rng.choice(sorted(pool.edges - {fe[e]}))
    elif m.source.nodes and len(pool.nodes) > 1:
        v = rng.choice(sorted(m.source.nodes))
        fv[v] = rng.choice(sorted(pool.nodes - {fv[v]}))
    else:
        return None
    return Morphism(m.source, m.target, fv, fe)


def rewire() -> Rule:
    """Move an x-edge's target from one b-node to another."""
    nodes = {0: "a", 1: "b", 2: "b"}
    l, k, r = graph(nodes, {0: (0, 1, "x")}), graph(nodes), graph(nodes, {0: (0, 2, "x")})
    return Rule(L=l, K=k, R=r, b=Morphism(k, l, {0: 0, 1: 1, 2: 2}, {}), r=Morphism(k, r, {0: 0, 1: 1, 2: 2}, {}))


def rewire_on_random_host(n: int) -> tuple[Rule, Match]:
    """:func:`rewire` on a random host of n nodes and up to 2n edges drawn
    with seed n, matched at the lowest-id x-edge from an a-node to a b-node,
    with the lowest-id other b-node as the edge's new target."""
    rng = random.Random(n)
    host = random_graph(rng, n, 2 * n, min_nodes=n)
    rule = rewire()
    e = min(e for e, (s, t, label) in host.edge.items() if label == "x" and host.nlabel[s] == "a"
            and host.nlabel[t] == "b" and s != t)
    s, t, _ = host.edge[e]
    other = min(v for v in host.nodes if host.nlabel[v] == "b" and v != t)
    return rule, Match(Morphism(rule.L, host, {0: s, 1: t, 2: other}, {0: e}))
