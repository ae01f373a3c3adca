"""Set-theoretic constructions: gluing, deletion, and the pullback object.

Gluing builds the pushout object of an injective span by keeping the context
graph's identifiers verbatim and allocating fresh identifiers for the new
items, so the context's embedding into the result is a literal inclusion.
Deletion builds the pushout complement by set difference and is verified
against the pushout characterization by its callers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DanglingConditionError, PreconditionError
from .graph import Graph
from .morphism import Morphism, is_injective


@dataclass(frozen=True)
class GluingResult:
    """Pushout object ``H`` of an injective span, with ``h: R -> H`` and the
    inclusion ``c: D -> H``."""

    H: Graph
    h: Morphism
    c: Morphism


@dataclass(frozen=True)
class DeletionResult:
    """Pushout complement ``D`` of a match, with ``d: K -> D`` and the
    inclusion ``c: D -> G``."""

    D: Graph
    d: Morphism
    c: Morphism


@dataclass(frozen=True)
class PullbackResult:
    """Pullback object ``A`` with projections ``b: A -> B`` and ``c: A -> C``.

    ``node_pairs``/``edge_pairs`` record, for each fresh identifier of ``A``,
    the originating pair of items from ``B`` and ``C``.
    """

    A: Graph
    b: Morphism
    c: Morphism
    node_pairs: dict[int, tuple[int, int]]
    edge_pairs: dict[int, tuple[int, int]]


def gluing(b: Morphism, d: Morphism, fresh_offset: int | None = None) -> GluingResult:
    """Glue ``d.target`` and ``b.target`` along the shared interface.

    ``b: K -> R`` and ``d: K -> D`` must both be injective. Items of ``R``
    outside the interface image receive fresh identifiers starting past the
    largest identifier in ``D`` (or past ``fresh_offset``, whichever is
    larger), in ascending ``R``-id order. Identifiers of ``D`` are kept, so
    ``c`` is an identity inclusion.
    """
    if b.source != d.source:
        raise PreconditionError("gluing: b and d must share their source graph")
    if not is_injective(b):
        raise PreconditionError("gluing: b is not injective")
    if not is_injective(d):
        raise PreconditionError("gluing: d is not injective")
    R, D = b.target, d.target

    b_inv_v = {b.fv[k]: k for k in b.source.nodes}
    b_inv_e = {b.fe[k]: k for k in b.source.edges}
    new_nodes = sorted(R.nodes - set(b_inv_v))
    new_edges = sorted(R.edges - set(b_inv_e))

    floor = fresh_offset if fresh_offset is not None else 0
    node_start = max(max(D.nodes, default=-1) + 1, floor)
    edge_start = max(max(D.edges, default=-1) + 1, floor)
    fresh_v = {x: node_start + i for i, x in enumerate(new_nodes)}
    fresh_e = {x: edge_start + i for i, x in enumerate(new_edges)}

    def node_in_h(x: int) -> int:
        # image in H of an R-node: through the interface if it has one,
        # else its fresh copy
        return d.fv[b_inv_v[x]] if x in b_inv_v else fresh_v[x]

    src = dict(D.src)
    tgt = dict(D.tgt)
    elabel = dict(D.elabel)
    for e in new_edges:
        src[fresh_e[e]] = node_in_h(R.src[e])
        tgt[fresh_e[e]] = node_in_h(R.tgt[e])
        elabel[fresh_e[e]] = R.elabel[e]
    nlabel = dict(D.nlabel)
    for v in new_nodes:
        nlabel[fresh_v[v]] = R.nlabel[v]

    H = Graph(
        nodes=D.nodes | frozenset(fresh_v.values()),
        edges=D.edges | frozenset(fresh_e.values()),
        src=src,
        tgt=tgt,
        nlabel=nlabel,
        elabel=elabel,
    )
    h = Morphism(
        source=R,
        target=H,
        fv={x: node_in_h(x) for x in R.nodes},
        fe={x: fresh_e[x] if x in fresh_e else d.fe[b_inv_e[x]] for x in R.edges},
    )
    c = Morphism(D, H, {v: v for v in D.nodes}, {e: e for e in D.edges})
    return GluingResult(H=H, h=h, c=c)


def dangling_edges(rule_left: Morphism, match: Morphism) -> list[int]:
    """Host edges that survive deletion but touch a deleted node.

    ``rule_left: K -> L`` and ``match: L -> G``. An empty result means the
    dangling condition holds for this rule/match combination.
    """
    L, G = match.source, match.target
    preserved_v = {rule_left.fv[k] for k in rule_left.source.nodes}
    preserved_e = {rule_left.fe[k] for k in rule_left.source.edges}
    deleted_nodes = {match.fv[v] for v in L.nodes - preserved_v}
    deleted_edges = {match.fe[e] for e in L.edges - preserved_e}
    return sorted(
        e
        for e in G.edges - deleted_edges
        if G.src[e] in deleted_nodes or G.tgt[e] in deleted_nodes
    )


def deletion(rule_left: Morphism, match: Morphism) -> DeletionResult:
    """Remove the matched, non-interface part of the host graph.

    ``rule_left: K -> L`` and ``match: L -> G`` must both be injective with a
    shared middle graph ``L``, and the dangling condition must hold. The
    result's ``c: D -> G`` is an identity inclusion and the produced square
    is a pushout (verified by callers through the characterization check).
    """
    if rule_left.target != match.source:
        raise PreconditionError("deletion: rule_left.target differs from match.source")
    if not is_injective(rule_left):
        raise PreconditionError("deletion: rule_left is not injective")
    if not is_injective(match):
        raise PreconditionError("deletion: match is not injective")
    dangling = dangling_edges(rule_left, match)
    if dangling:
        raise DanglingConditionError(dangling)

    K = rule_left.source
    L, G = match.source, match.target
    preserved_v = {rule_left.fv[k] for k in K.nodes}
    preserved_e = {rule_left.fe[k] for k in K.edges}
    deleted_nodes = {match.fv[v] for v in L.nodes - preserved_v}
    deleted_edges = {match.fe[e] for e in L.edges - preserved_e}

    nodes = G.nodes - deleted_nodes
    edges = G.edges - deleted_edges
    D = Graph(
        nodes=nodes,
        edges=edges,
        src={e: G.src[e] for e in edges},
        tgt={e: G.tgt[e] for e in edges},
        nlabel={v: G.nlabel[v] for v in nodes},
        elabel={e: G.elabel[e] for e in edges},
    )
    d = Morphism(
        source=K,
        target=D,
        fv={k: match.fv[rule_left.fv[k]] for k in K.nodes},
        fe={k: match.fe[rule_left.fe[k]] for k in K.edges},
    )
    c = Morphism(D, G, {v: v for v in D.nodes}, {e: e for e in D.edges})
    return DeletionResult(D=D, d=d, c=c)


def pullback_construct(f: Morphism, g: Morphism) -> PullbackResult:
    """Build the canonical pullback of a cospan ``f: B -> D <- C :g``.

    The object's items are the pairs of ``B``/``C`` items that agree in
    ``D``; identifiers are fresh consecutive integers in lexicographic pair
    order, labels are taken from the ``B`` component, and the projections
    return the respective components.

    The pairs are found by a hash join on the image in ``D`` (see
    :func:`_agreeing_pairs`), so for ``k`` pairs the cost is
    ``O(|B| + |C| + k log k)``.
    """
    if f.target != g.target:
        raise PreconditionError("pullback_construct: targets differ")
    B, C = f.source, g.source

    node_pairs = _agreeing_pairs(B.nodes, f.fv, C.nodes, g.fv)
    edge_pairs = _agreeing_pairs(B.edges, f.fe, C.edges, g.fe)
    node_id = {pair: i for i, pair in enumerate(node_pairs)}
    edge_id = {pair: i for i, pair in enumerate(edge_pairs)}
    for x, y in edge_pairs:
        if (B.src[x], C.src[y]) not in node_id or (B.tgt[x], C.tgt[y]) not in node_id:
            raise PreconditionError("pullback_construct: f or g does not preserve edge endpoints")

    A = Graph(
        nodes=frozenset(node_id.values()),
        edges=frozenset(edge_id.values()),
        src={edge_id[x, y]: node_id[B.src[x], C.src[y]] for x, y in edge_pairs},
        tgt={edge_id[x, y]: node_id[B.tgt[x], C.tgt[y]] for x, y in edge_pairs},
        nlabel={node_id[x, y]: B.nlabel[x] for x, y in node_pairs},
        elabel={edge_id[x, y]: B.elabel[x] for x, y in edge_pairs},
    )
    b = Morphism(
        source=A,
        target=B,
        fv={node_id[x, y]: x for x, y in node_pairs},
        fe={edge_id[x, y]: x for x, y in edge_pairs},
    )
    c = Morphism(
        source=A,
        target=C,
        fv={node_id[x, y]: y for x, y in node_pairs},
        fe={edge_id[x, y]: y for x, y in edge_pairs},
    )
    return PullbackResult(
        A=A,
        b=b,
        c=c,
        node_pairs={i: pair for pair, i in node_id.items()},
        edge_pairs={i: pair for pair, i in edge_id.items()},
    )


def _agreeing_pairs(
    xs: frozenset[int], fx: dict[int, int], ys: frozenset[int], gy: dict[int, int]
) -> list[tuple[int, int]]:
    """The pairs ``(x, y)`` with ``fx[x] == gy[y]``, in lexicographic order.

    The smaller side is indexed by its image and the larger side probes the
    index, so only the pairs found are sorted.
    """
    if not xs or not ys:
        # no pairs: return before reading the other side's map
        return []
    if len(xs) <= len(ys):
        by_image: dict[int, list[int]] = {}
        for x in xs:
            by_image.setdefault(fx[x], []).append(x)
        pairs = [(x, y) for y in ys for x in by_image.get(gy[y], ())]
    else:
        by_image = {}
        for y in ys:
            by_image.setdefault(gy[y], []).append(y)
        pairs = [(x, y) for x in xs for y in by_image.get(fx[x], ())]
    pairs.sort()
    return pairs
