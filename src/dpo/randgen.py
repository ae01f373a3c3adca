"""Seeded random generators for desk-scale test corpora.

Everything is driven by a caller-supplied :class:`random.Random`, so corpora
are reproducible from a seed. Injective morphisms are generated as random
embeddings, so rules are valid by construction.
"""

from __future__ import annotations

import random
from typing import Sequence

from .graph import Graph, graph
from .morphism import Morphism
from .rewriting import Rule

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
        edges[image_e[e]] = (image_v[small.src[e]], image_v[small.tgt[e]], small.elabel[e])
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
