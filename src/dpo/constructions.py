"""Set-theoretic constructions: gluing, deletion, and the pullback object.

Gluing builds the pushout object of an injective span by keeping the context
graph's identifiers verbatim and allocating fresh identifiers for the new
items, so the context's embedding into the result is a literal inclusion.
Deletion builds the pushout complement by removing the deleted items from
the host's maps, so the context embeds into the host the same way, and both
inclusions are built only when read. Both are one graph edit,
:meth:`~dpo.graph.Graph.edited`, which layers each map it changes over the
host's (:class:`~dpo.graph._Layer`), shares the others and carries the
host's built indexes on, patched, in O(|rule| + degree) Python work. The
dangling check reads the incidence index; gluing allocates fresh ids past
the largest carried id, the same ids a scan of ``D`` would give. Neither
construction certifies its square: :func:`~dpo.rewriting.apply` does,
over the rule's items only.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .errors import DanglingConditionError, PreconditionError
from .graph import Graph
from .morphism import Morphism, inclusion, is_injective


@dataclass(frozen=True)
class GluingResult:
    """Pushout object ``H`` of an injective span, with ``h: R -> H`` and the
    inclusion ``c: D -> H``, built on first access."""

    H: Graph
    h: Morphism
    D: Graph

    @cached_property
    def c(self) -> Morphism:
        return inclusion(self.D, self.H)


@dataclass(frozen=True)
class DeletionResult:
    """Pushout complement ``D`` of a match into ``G``, with ``d: K -> D`` and
    the inclusion ``c: D -> G``, built on first access."""

    D: Graph
    d: Morphism
    G: Graph

    @cached_property
    def c(self) -> Morphism:
        return inclusion(self.D, self.G)


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


def gluing(b: Morphism, d: Morphism) -> GluingResult:
    """Glue ``d.target`` and ``b.target`` along the shared interface.

    ``b: K -> R`` and ``d: K -> D`` must both be injective. Items of ``R``
    outside the interface image receive fresh identifiers starting past the
    largest identifier in ``D``, in ascending ``R``-id order; ``D``'s largest
    ids are read from :attr:`~dpo.graph.Graph.max_node_id` and
    ``max_edge_id``, only for a kind the rule creates. Identifiers of ``D``
    are kept, so ``c`` is an identity inclusion. ``h``'s maps are the ones
    the ids are allocated into: each starts as ``d`` after ``b``'s inverse
    on the interface, and each created item is added at its fresh id. ``H``
    is ``D`` :meth:`~dpo.graph.Graph.edited` to add the new items.
    """
    if b.source != d.source:
        raise PreconditionError("gluing: b and d must share their source graph")
    if not is_injective(b):
        raise PreconditionError("gluing: b is not injective")
    if not is_injective(d):
        raise PreconditionError("gluing: d is not injective")
    R, D = b.target, d.target

    fv = {b.fv[k]: d.fv[k] for k in b.source.nodes}
    fe = {b.fe[k]: d.fe[k] for k in b.source.edges}
    new_nodes = sorted(R.nodes - fv.keys())
    new_edges = sorted(R.edges - fe.keys())
    fv.update({x: D.max_node_id + 1 + i for i, x in enumerate(new_nodes)})
    fe.update({x: D.max_edge_id + 1 + i for i, x in enumerate(new_edges)})

    H = D.edited(
        (), (),
        nlabel={fv[v]: R.nlabel[v] for v in new_nodes},
        edge={fe[e]: (fv[s], fv[t], label) for e in new_edges for s, t, label in [R.edge[e]]},
    )
    return GluingResult(H=H, h=Morphism(source=R, target=H, fv=fv, fe=fe), D=D)


def deleted_items(rule_left: Morphism, match: Morphism) -> tuple[set[int], set[int]]:
    """The host nodes and edges matched by items of ``L`` outside ``K``."""
    L = match.source
    return (
        {match.fv[v] for v in L.nodes - set(rule_left.fv.values())},
        {match.fe[e] for e in L.edges - set(rule_left.fe.values())},
    )


def dangling_edges(rule_left: Morphism, match: Morphism) -> list[int]:
    """Host edges that survive deletion but touch a deleted node.

    ``rule_left: K -> L`` and ``match: L -> G``. An empty result means the
    dangling condition holds for this rule/match combination. Only the
    edges at deleted nodes are read, through the host's incidence index,
    which a rule that deletes no node never builds.
    """
    deleted_nodes, deleted_edges = deleted_items(rule_left, match)
    if not deleted_nodes:
        return []
    incidence = match.target.incidence
    touching = set().union(*(incidence.get(v, ()) for v in deleted_nodes))
    return sorted(touching - deleted_edges)


def deletion(rule_left: Morphism, match: Morphism) -> DeletionResult:
    """Remove the matched, non-interface part of the host graph.

    ``rule_left: K -> L`` and ``match: L -> G`` must both be injective with a
    shared middle graph ``L``, and the dangling condition must hold. ``D``
    is ``G`` :meth:`~dpo.graph.Graph.edited` to remove the deleted items.
    The result's ``c: D -> G`` is an identity inclusion; the square is a
    pushout, which :func:`~dpo.rewriting.apply` certifies.
    """
    if rule_left.target != match.source:
        raise PreconditionError("deletion: rule_left.target differs from match.source")
    if not is_injective(rule_left):
        raise PreconditionError("deletion: rule_left is not injective")
    if not is_injective(match):
        raise PreconditionError("deletion: match is not injective")
    dangling = dangling_edges(rule_left, match)
    if dangling:
        raise DanglingConditionError("dangling edges", tuple(dangling))

    K, G = rule_left.source, match.target
    D = G.edited(*deleted_items(rule_left, match), {}, {})
    d = Morphism(
        source=K,
        target=D,
        fv={k: match.fv[rule_left.fv[k]] for k in K.nodes},
        fe={k: match.fe[rule_left.fe[k]] for k in K.edges},
    )
    return DeletionResult(D=D, d=d, G=G)


def pullback_construct(f: Morphism, g: Morphism) -> PullbackResult:
    """Build the canonical pullback of a cospan ``f: B -> D <- C :g``.

    The object's items are the pairs of :func:`pullback_pairs`; identifiers
    are fresh consecutive integers in lexicographic pair order, labels are
    taken from the ``B`` component, and the projections return the
    respective components.
    """
    node_pairs, edge_pairs = pullback_pairs(f, g)
    B, C = f.source, g.source
    node_id = {pair: i for i, pair in enumerate(node_pairs)}
    edge_id = {pair: i for i, pair in enumerate(edge_pairs)}
    A = Graph.from_maps(
        nlabel={node_id[x, y]: B.nlabel[x] for x, y in node_pairs},
        edge={
            edge_id[x, y]: (node_id[bs, cs], node_id[bt, ct], label)
            for x, y in edge_pairs
            for (bs, bt, label), (cs, ct, _) in [(B.edge[x], C.edge[y])]
        },
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


def pullback_pairs(f: Morphism, g: Morphism) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The node pairs and the edge pairs of ``B``/``C`` items that agree in
    ``D``, for a cospan ``f: B -> D <- C :g``, each in lexicographic order.

    These are the items of the canonical pullback, without building it. An
    edge pair whose endpoints do not pair up means ``f`` or ``g`` is not a
    morphism, and raises :class:`PreconditionError`. The pairs are found by
    a hash join on the image in ``D`` (see :func:`_agreeing_pairs`), so for
    ``k`` pairs the cost is ``O(|B| + |C| + k log k)``.
    """
    if f.target != g.target:
        raise PreconditionError("pullback_pairs: targets differ")
    B, C = f.source, g.source
    node_pairs = _agreeing_pairs(B.nodes, f.fv, C.nodes, g.fv)
    edge_pairs = _agreeing_pairs(B.edges, f.fe, C.edges, g.fe)
    paired = set(node_pairs)
    for x, y in edge_pairs:
        (bs, bt, _), (cs, ct, _) = B.edge[x], C.edge[y]
        if (bs, cs) not in paired or (bt, ct) not in paired:
            raise PreconditionError("pullback_pairs: f or g does not preserve edge endpoints")
    return node_pairs, edge_pairs


def _agreeing_pairs(
    xs: Set[int], fx: dict[int, int], ys: Set[int], gy: dict[int, int]
) -> list[tuple[int, int]]:
    """The pairs ``(x, y)`` with ``fx[x] == gy[y]``, in lexicographic order.

    The smaller side is indexed by its image and the larger side probes the
    index at C level (``compress`` over ``map``), so only its items that
    find a partner reach Python, and only the pairs found are sorted. A map
    that lacks an item of its side raises ``KeyError``.
    """
    if not xs or not ys:
        # no pairs: return before reading the other side's map
        return []
    if len(xs) > len(ys):
        return sorted((x, y) for y, x in _agreeing_pairs(ys, gy, xs, fx))
    by_image: dict[int, list[int]] = {}
    for x in xs:
        by_image.setdefault(fx[x], []).append(x)
    hits = compress(ys, map(by_image.__contains__, map(gy.__getitem__, ys)))
    pairs = [(x, y) for y in hits for x in by_image[gy[y]]]
    pairs.sort()
    return pairs
