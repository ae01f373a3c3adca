"""Set-theoretic constructions: gluing, deletion, and the pullback object.

Gluing builds the pushout object of an injective span by keeping the context
graph's identifiers verbatim and allocating fresh identifiers for the new
items, so the context's embedding into the result is a literal inclusion.
Deletion builds the pushout complement by removing the deleted items from
the host's maps, so the context embeds into the host the same way, and both
inclusions are built only when read. Both are one graph edit,
:func:`_edited`: each of the graph's two maps, ``nlabel`` and ``edge``, that
it changes is copied in bulk, at C level, and patched with the rule's items;
the other is shared with the input graph. A result's item sets are the key
views of its maps, so no item set is built. So a construction costs at most
two C-level copies of the host's maps, plus one of its incidence index once
built, and O(|rule| + degree) Python work.

Maps are copied with ``dict.copy()``. ``dict(m)`` and ``{**m, **new}``
re-insert every key once ``m`` has had a key deleted, which every pruned
map and patched index of a chain has; ``m.copy()`` clones the table
whole. On a 2*10^4-entry edge map with one key deleted, ``timeit`` on
CPython 3.10-3.13 gave 0.5-0.8 ms for either form and 0.3 ms for
``m.copy()``.

A graph's derived indexes (:attr:`~dpo.graph.Graph.incidence`,
``max_node_id``, ``max_edge_id``) are carried on to the result once
built, patched in O(|rule| + degree). The dangling check reads the
incidence index; gluing allocates fresh ids past the largest carried id,
the same ids a scan of ``D`` would give. Neither construction certifies
its square: :func:`~dpo.rewriting.apply` does, over the rule's items only.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection

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
    are kept, so ``c`` is an identity inclusion. ``H`` is ``D``
    :func:`_edited` to add the new items.
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

    fresh_v = _fresh_ids(new_nodes, lambda: D.max_node_id)
    fresh_e = _fresh_ids(new_edges, lambda: D.max_edge_id)

    def node_in_h(x: int) -> int:
        # image in H of an R-node: through the interface if it has one,
        # else its fresh copy
        return d.fv[b_inv_v[x]] if x in b_inv_v else fresh_v[x]

    H = _edited(
        D, (), (),
        nlabel={fresh_v[v]: R.nlabel[v] for v in new_nodes},
        edge={fresh_e[e]: (node_in_h(s), node_in_h(t), label) for e in new_edges for s, t, label in [R.edge[e]]},
    )
    h = Morphism(
        source=R,
        target=H,
        fv={x: node_in_h(x) for x in R.nodes},
        fe={x: fresh_e[x] if x in fresh_e else d.fe[b_inv_e[x]] for x in R.edges},
    )
    return GluingResult(H=H, h=h, D=D)


def deleted_items(rule_left: Morphism, match: Morphism) -> tuple[set[int], set[int]]:
    """The host nodes and edges matched by items of ``L`` outside ``K``."""
    L = match.source
    preserved_v = {rule_left.fv[k] for k in rule_left.source.nodes}
    preserved_e = {rule_left.fe[k] for k in rule_left.source.edges}
    return (
        {match.fv[v] for v in L.nodes - preserved_v},
        {match.fe[e] for e in L.edges - preserved_e},
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
    is ``G`` :func:`without` the deleted items. The result's ``c: D -> G``
    is an identity inclusion; the square is a pushout, which
    :func:`~dpo.rewriting.apply` certifies.
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
    D = without(G, *deleted_items(rule_left, match))
    d = Morphism(
        source=K,
        target=D,
        fv={k: match.fv[rule_left.fv[k]] for k in K.nodes},
        fe={k: match.fe[rule_left.fe[k]] for k in K.edges},
    )
    return DeletionResult(D=D, d=d, G=G)


def without(g: Graph, nodes: set[int], edges: set[int]) -> Graph:
    """``g`` without the given nodes and edges, which must leave no edge of
    ``g`` dangling: :func:`_edited` with nothing added."""
    return _edited(g, nodes, edges, {}, {})


def _fresh_ids(items: list[int], largest: Callable[[], int]) -> dict[int, int]:
    """Consecutive identifiers for ``items`` past ``largest()``, which is
    read only when there are items."""
    if not items:
        return {}
    start = largest() + 1
    return {x: start + i for i, x in enumerate(items)}


def _edited(
    old: Graph, gone_nodes: Collection[int], gone_edges: Collection[int],
    nlabel: dict[int, str], edge: dict[int, tuple[int, int, str]],
) -> Graph:
    """``old`` without ``gone_nodes`` and ``gone_edges``, plus the items of
    the two given maps, whose ids ``old`` does not hold.

    Each map of ``old`` that loses or gains an item is copied with
    ``dict.copy()`` and patched; the other is shared, since graphs are
    never mutated. Each derived index of ``old`` that has been built is
    carried on, patched for the removed and added items: one bulk copy
    plus O(degree) per item. A largest id whose item was removed is not
    carried; the result rebuilds it if read.
    """
    maps = []
    for m, gone, added in ((old.nlabel, gone_nodes, nlabel), (old.edge, gone_edges, edge)):
        if gone or added:
            m = m.copy()
            for k in gone:
                m.pop(k, None)
            m.update(added)
        maps.append(m)
    new = Graph.from_maps(*maps)
    # where functools.cached_property keeps the values it builds
    built, carried = vars(old), vars(new)
    for name, gone, added in (("max_node_id", gone_nodes, nlabel), ("max_edge_id", gone_edges, edge)):
        largest = built.get(name)
        if largest is not None and largest not in gone:
            carried[name] = max(largest, max(added, default=-1))
    index = built.get("incidence")
    if index is None:
        return new
    if gone_nodes or gone_edges or edge:
        index = index.copy()
    for v in gone_nodes:
        index.pop(v, None)
    for e in gone_edges:
        s, t, _ = old.edge[e]
        for v in {s, t}:
            if v in index:  # not a removed node
                rest = index[v] - {e}
                if rest:
                    index[v] = rest
                else:
                    del index[v]
    for e, (s, t, _) in edge.items():
        for v in {s, t}:
            index[v] = index.get(v, frozenset()) | {e}
    carried["incidence"] = index
    return new


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
    index, so only the pairs found are sorted.
    """
    if not xs or not ys:
        # no pairs: return before reading the other side's map
        return []
    if len(xs) > len(ys):
        return sorted((x, y) for y, x in _agreeing_pairs(ys, gy, xs, fx))
    by_image: dict[int, list[int]] = {}
    for x in xs:
        by_image.setdefault(fx[x], []).append(x)
    pairs = [(x, y) for y in ys for x in by_image.get(gy[y], ())]
    pairs.sort()
    return pairs
