"""Independent brute-force oracles used to cross-check the engine.

These deliberately avoid the engine's own search code: isomorphism is
decided by enumerating node bijections and filtering by the morphism
axioms, and morphism counting enumerates raw map products.
"""

from __future__ import annotations

import itertools
from collections import Counter

from dpo.graph import Graph, graph
from dpo.morphism import Morphism, compose, enumerate_morphisms, morphisms_agree
from dpo.independence import ParallelPair


def morphism_axioms_ok(source: Graph, target: Graph, fv: dict, fe: dict) -> bool:
    """Re-check totality, range and the four preservation clauses directly."""
    for v in source.nodes:
        if v not in fv or fv[v] not in target.nodes:
            return False
        if source.nlabel[v] != target.nlabel[fv[v]]:
            return False
    for e in source.edges:
        if e not in fe or fe[e] not in target.edges:
            return False
        if fv[source.src[e]] != target.src[fe[e]]:
            return False
        if fv[source.tgt[e]] != target.tgt[fe[e]]:
            return False
        if source.elabel[e] != target.elabel[fe[e]]:
            return False
    return True


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """Enumerate all node bijections; a bijection extends to an isomorphism
    iff labels are preserved and every ordered node pair carries the same
    edge-label multiset on both sides."""
    if len(g.nodes) != len(h.nodes) or len(g.edges) != len(h.edges):
        return False
    g_nodes = sorted(g.nodes)
    pair_labels_g = _pair_label_index(g)
    pair_labels_h = _pair_label_index(h)
    for image in itertools.permutations(sorted(h.nodes)):
        fv = dict(zip(g_nodes, image))
        if any(g.nlabel[v] != h.nlabel[fv[v]] for v in g_nodes):
            continue
        if all(
            pair_labels_g.get((u, v)) == pair_labels_h.get((fv[u], fv[v]))
            for u in g_nodes
            for v in g_nodes
        ):
            return True
    return False


def _pair_label_index(g: Graph) -> dict[tuple[int, int], Counter]:
    index: dict[tuple[int, int], Counter] = {}
    for e in g.edges:
        index.setdefault((g.src[e], g.tgt[e]), Counter())[g.elabel[e]] += 1
    return index


def brute_force_pullback(f: Morphism, g: Morphism) -> tuple[list, list, Graph]:
    """The canonical pullback of a cospan ``f: B -> D <- C :g`` by comparing
    every ``B`` item with every ``C`` item: the node pairs and edge pairs
    that agree in ``D``, in lexicographic order, and the object whose items
    are numbered in that order and labelled from ``B``."""
    B, C = f.source, g.source
    node_pairs = [
        (x, y) for x in sorted(B.nodes) for y in sorted(C.nodes) if f.fv[x] == g.fv[y]
    ]
    edge_pairs = [
        (x, y) for x in sorted(B.edges) for y in sorted(C.edges) if f.fe[x] == g.fe[y]
    ]
    node_id = {pair: i for i, pair in enumerate(node_pairs)}
    A = graph(
        {i: B.nlabel[x] for (x, _), i in node_id.items()},
        {
            i: (node_id[B.src[x], C.src[y]], node_id[B.tgt[x], C.tgt[y]], B.elabel[x])
            for i, (x, y) in enumerate(edge_pairs)
        },
    )
    return node_pairs, edge_pairs, A


def brute_force_morphism_count(g: Graph, h: Graph, injective_only: bool = False) -> int:
    """Count valid morphisms by filtering the raw product of all maps."""
    g_nodes = sorted(g.nodes)
    g_edges = sorted(g.edges)
    h_nodes = sorted(h.nodes)
    h_edges = sorted(h.edges)
    if g_nodes and not h_nodes:
        return 0
    if g_edges and not h_edges:
        return 0
    count = 0
    for node_images in itertools.product(h_nodes, repeat=len(g_nodes)):
        fv = dict(zip(g_nodes, node_images))
        if injective_only and len(set(node_images)) != len(node_images):
            continue
        if any(g.nlabel[v] != h.nlabel[fv[v]] for v in g_nodes):
            continue
        for edge_images in itertools.product(h_edges, repeat=len(g_edges)):
            fe = dict(zip(g_edges, edge_images))
            if injective_only and len(set(edge_images)) != len(edge_images):
                continue
            if morphism_axioms_ok(g, h, fv, fe):
                count += 1
    return count


def exhaustive_parallel_witness_exists(pair: ParallelPair) -> bool:
    """Search all morphism pairs for an independence witness, by enumeration
    plus the two commuting-triangle filters."""
    found1 = any(
        morphisms_agree(compose(pair.d2.deletion.c, j1), pair.d1.match.m)
        for j1 in enumerate_morphisms(pair.d1.rule.L, pair.d2.deletion.D)
    )
    if not found1:
        return False
    return any(
        morphisms_agree(compose(pair.d1.deletion.c, j2), pair.d2.match.m)
        for j2 in enumerate_morphisms(pair.d2.rule.L, pair.d1.deletion.D)
    )
