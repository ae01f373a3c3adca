"""Graph morphisms: structure- and label-preserving mappings between graphs.

A morphism stores its node and edge maps extensionally, defined on exactly
the source graph's nodes and edges. Equality of morphisms is therefore
decidable by pointwise comparison (see :func:`morphisms_agree`).
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .errors import PreconditionError
from .graph import (
    PASSED,
    CheckReport,
    Graph,
    Violation,
    ends_are_nodes,
    failure,
    flat,
    flattened,
    is_subgraph,
    validate_graph,
)


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


def inclusion(sub: Graph, g: Graph) -> Morphism:
    """The identity inclusion of ``sub`` in ``g``, its maps built at C level."""
    return Morphism(sub, g, dict(zip(sub.nodes, sub.nodes)), dict(zip(sub.edges, sub.edges)))


def identity(g: Graph) -> Morphism:
    """The identity morphism on ``g``."""
    return inclusion(g, g)


def validate_morphism(m: Morphism) -> CheckReport:
    """Check totality, range, the four preservation clauses and the domain.

    An identity inclusion of a well-formed graph, the form in which every
    context embeds into its host, passes by C-level set, list and dict-view
    tests; anything else runs the item-by-item loop."""
    g, h = m.source, m.target
    if (
        m.fv.keys() == g.nodes
        and m.fe.keys() == g.edges
        and list(m.fv) == list(m.fv.values())
        and list(m.fe) == list(m.fe.values())
        and is_subgraph(g, h)
        and validate_graph(g)
    ):
        return PASSED
    bad: list[Violation] = []
    for v in sorted(g.nodes):
        if v not in m.fv:
            bad.append(Violation("fv not total on source nodes", ("node", v)))
        elif m.fv[v] not in h.nodes:
            bad.append(Violation("fv out of target nodes", ("node", v)))
        elif g.nlabel[v] != h.nlabel[m.fv[v]]:
            bad.append(Violation("node label not preserved", ("node", v)))
    for e in sorted(g.edges):
        if e not in m.fe:
            bad.append(Violation("fe not total on source edges", ("edge", e)))
            continue
        if m.fe[e] not in h.edges:
            bad.append(Violation("fe out of target edges", ("edge", e)))
            continue
        (s, t, label), (hs, ht, hlabel) = g.edge[e], h.edge[m.fe[e]]
        if m.fv.get(s) != hs:
            bad.append(Violation("source not preserved", ("edge", e)))
        if m.fv.get(t) != ht:
            bad.append(Violation("target not preserved", ("edge", e)))
        if label != hlabel:
            bad.append(Violation("edge label not preserved", ("edge", e)))
    for v in sorted(set(m.fv) - g.nodes):
        bad.append(Violation("fv defined outside source nodes", ("node", v)))
    for e in sorted(set(m.fe) - g.edges):
        bad.append(Violation("fe defined outside source edges", ("edge", e)))
    return CheckReport(tuple(bad))


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


def morphisms_agree(m1: Morphism, m2: Morphism) -> CheckReport:
    """Pointwise equality of two morphisms with the same endpoints; else
    the least node, or if none the least edge, that they map apart."""
    if m1.source != m2.source or m1.target != m2.target:
        raise PreconditionError("morphisms_agree: endpoints differ")
    apart = [("node", v) for v in m1.source.nodes if m1.fv[v] != m2.fv[v]]
    apart = apart or [("edge", e) for e in m1.source.edges if m1.fe[e] != m2.fe[e]]
    return failure("maps differ", min(apart)) if apart else PASSED


def enumerate_morphisms(g: Graph, h: Graph) -> list[Morphism]:
    """All injective morphisms ``g -> h``, in a deterministic order.

    Ordering is lexicographic in the vector of images taken over ascending
    source node ids followed by ascending source edge ids. The enumeration
    is complete among the morphisms whose node and edge maps are both
    injective, the matches of DPO rewriting. An edge of ``g`` with an
    endpoint outside ``g``'s nodes admits no morphism.

    A pattern whose every component is one node or one edge, two nodes
    joined by it or one node with a loop, is matched without ``h``'s
    incidence index: each such edge takes its images from one pass over
    ``h``'s edges (:func:`_one_edge_passes`), and each component is bound in
    one step (:func:`_component_maps`). Any other pattern is bound node by
    node along a plan built once per call (see :func:`_plan`): first the
    node whose label is rarest in ``h``, then always the unbound node with
    the most edges to bound ones, as in VF2++ (Jüttner and Madarasi, DAM
    242, 2018). A node reached by an edge, its anchor, draws its candidates
    from the host edges at the image of the anchor's other end, read from
    ``h.incidence``; only the first node of each connected component of
    ``g`` takes every host node with its label. Every other edge of ``g``
    is checked once, when its second endpoint is bound. The node maps found
    are sorted into the order above, and each is expanded into its edge
    maps in ascending edge id. Nothing recurses per item, so the size of
    ``g`` is not bounded by the interpreter's recursion limit.

    Cost: O(|E_g|) to build ``g.incidence``, once per graph, so a rule's
    ``L`` is indexed once over all its searches. A pattern of single nodes
    and single edges then costs O(|V_h|) per label pool of a lone node,
    O(|E_h|) per pass, shared by edges alike in label, end labels and
    loop-ness, and the matches found: it neither reads nor builds
    ``h.incidence``, whether or not it is built. Any other pattern costs
    O(|V_h|) for the label count and each label pool scanned; O(|E_h|) to
    build ``h.incidence`` where it is not built yet, once per graph and
    carried on by :meth:`~dpo.graph.Graph.edited`; where ``h`` holds a layer
    (:class:`~dpo.graph._Layer`), O(|h|) to flatten it, once per graph
    (:func:`~dpo.graph.flattened`); then, per candidate extension, the
    degree in ``h`` of the anchor's image and of each checked edge's ends.
    Last come sorting the node maps found and expanding their edge maps.
    """
    nodes, edges = sorted(g.nodes), sorted(g.edges)
    if not ends_are_nodes(g):
        return []
    if all(len(at) == 1 for at in g.incidence.values()):
        ends_of = _one_edge_passes(g, h)
        host = h
        node_maps = _component_maps(g, h, nodes, ends_of)
    else:
        ends_of = {}
        # the search looks up host items one by one, over whole label pools
        host = flattened(h)
        node_maps = _node_maps(_plan(g, h), host, nodes)
    # each edge of g with its host edges grouped by ends, if a pass gave them
    grouped = [(s, t, label, ends_of.get(e)) for e, (s, t, label) in zip(edges, map(g.edge.__getitem__, edges))]
    out: list[Morphism] = []
    for images in sorted(node_maps):
        fv = dict(zip(nodes, images))
        choices = [
            _parallel(host, fv[s], fv[t], label) if ends is None else ends[fv[s], fv[t]]
            for s, t, label, ends in grouped
        ]
        # product is lexicographic; images can repeat only among parallel
        # edges of g with one label, which the filter drops
        for edge_images in itertools.product(*choices):
            if len(set(edge_images)) == len(edge_images):
                out.append(Morphism(g, h, fv, dict(zip(edges, edge_images))))
    return out


@dataclass(frozen=True)
class _Step:
    """One position of a search plan: the node bound there, the edge to an
    earlier node its candidates are drawn from, if any, and the edges to
    earlier nodes or to itself that are checked once it is bound. An edge
    is ``(other end, label, whether the bound node is its source)``."""

    node: int
    label: str
    anchor: Optional[tuple[int, str, bool]]
    closes: tuple[tuple[int, str, bool], ...]


def _plan(g: Graph, h: Graph) -> list[_Step]:
    """The order in which :func:`enumerate_morphisms` binds ``g``'s nodes.

    A heap keyed by (minus the edges to bound nodes, the label's count in
    ``h``, the id) picks each next node, whose edges are read from
    ``g.incidence`` in ascending id; a node gains one stale entry per edge
    to a newly bound node, so building the plan costs O(|g| log |g|)."""
    incidence = g.incidence
    rarity = Counter(h.nlabel.values())
    links = dict.fromkeys(g.nodes, 0)
    heap = [(0, rarity[g.nlabel[v]], v) for v in g.nodes]
    heapq.heapify(heap)
    placed: set[int] = set()
    plan: list[_Step] = []
    while heap:
        minus_links, _, v = heapq.heappop(heap)
        if v in placed or -minus_links != links[v]:
            continue
        placed.add(v)
        anchor = None
        closes = []
        for e in sorted(incidence.get(v, ())):
            s, t, label = g.edge[e]
            v_is_src = s == v
            u = t if v_is_src else s
            if u not in placed:
                links[u] += 1
                heapq.heappush(heap, (-links[u], rarity[g.nlabel[u]], u))
            elif u != v and anchor is None:
                anchor = (u, label, v_is_src)
            else:
                closes.append((u, label, v_is_src))
        plan.append(_Step(v, g.nlabel[v], anchor, tuple(closes)))
    return plan


def _one_edge_passes(g: Graph, h: Graph) -> dict[int, dict[tuple[int, int], list[int]]]:
    """For each edge of ``g``, the edges of ``h`` with its label, its ends'
    labels and its loop-ness, grouped by their ``(src, tgt)`` in ascending
    id; edges of ``g`` alike in those four share one pass over ``h``'s flat
    edge and node-label maps. Reads no incidence index."""
    passes: dict[tuple[str, str, str, bool], dict[tuple[int, int], list[int]]] = {}
    ends_of: dict[int, dict[tuple[int, int], list[int]]] = {}
    for e, (s, t, label) in g.edge.items():
        key = (label, g.nlabel[s], g.nlabel[t], s == t)
        if key not in passes:
            _, src_label, tgt_label, loop = key
            nlabel = flat(h.nlabel)
            ends: dict[tuple[int, int], list[int]] = {}
            for x, (hs, ht, hl) in flat(h.edge).items():
                if hl == label and nlabel[hs] == src_label and nlabel[ht] == tgt_label and (hs == ht) == loop:
                    ends.setdefault((hs, ht), []).append(x)
            for xs in ends.values():
                xs.sort()
            passes[key] = ends
        ends_of[e] = passes[key]
    return ends_of


def _component_maps(
    g: Graph, h: Graph, nodes: list[int], ends_of: dict[int, dict[tuple[int, int], list[int]]]
) -> list[tuple[int, ...]]:
    """For a ``g`` whose components are single nodes and single edges, every
    injective node map under which each edge has an image among
    ``ends_of``, as its images over ``nodes``, unsorted.

    Each component is bound in one step, to one tuple of its nodes' images:
    a lone node to a host node with its label, two nodes joined by an edge
    to a ``(src, tgt)`` of that edge's groups, a node with a loop to the
    end of one. The components with the fewest candidates come first."""
    pools: dict[str, list[tuple[int]]] = {}
    units: list[tuple[tuple[int, ...], list[tuple[int, ...]]]] = []
    for v in g.nodes - g.incidence.keys():
        label = g.nlabel[v]
        if label not in pools:
            pools[label] = [(w,) for w, l in h.nlabel.items() if l == label]
        units.append(((v,), pools[label]))
    for e, ends in ends_of.items():
        s, t, _ = g.edge[e]
        units.append(((s, t), list(ends)) if s != t else ((s,), [(x,) for x, _ in ends]))
    if not units:
        return [()]
    units.sort(key=lambda unit: len(unit[1]))
    at = {v: i for i, v in enumerate(v for vs, _ in units for v in vs)}
    order = [at[v] for v in nodes]
    found: list[tuple[int, ...]] = []
    picked: list[tuple[int, ...]] = []
    used: set[int] = set()
    pending = [iter(units[0][1])]
    while pending:
        for images in pending[-1]:
            if used.isdisjoint(images):
                break
        else:
            pending.pop()
            if picked:
                used.difference_update(picked.pop())
            continue
        if len(pending) == len(units):
            line = [*itertools.chain.from_iterable(picked), *images]
            found.append(tuple(map(line.__getitem__, order)))
        else:
            picked.append(images)
            used.update(images)
            pending.append(iter(units[len(pending)][1]))
    return found


def _node_maps(plan: list[_Step], h: Graph, nodes: list[int]) -> list[tuple[int, ...]]:
    """Every injective node map along ``plan`` under which each edge of the
    source has an image candidate in ``h``, as its images over ``nodes``,
    unsorted."""
    incidence = h.incidence
    pools: dict[str, list[int]] = {}
    fv: dict[int, int] = {}
    used: set[int] = set()

    def candidates(step: _Step) -> list[int]:
        if step.anchor is None:
            if step.label not in pools:
                pools[step.label] = [w for w, l in h.nlabel.items() if l == step.label]
            return pools[step.label]
        u, label, v_is_src = step.anchor
        x = fv[u]
        at_x = map(h.edge.__getitem__, incidence.get(x, ()))
        # a set, since parallel host edges lead to the same neighbour
        if v_is_src:
            found = {s for s, t, l in at_x if t == x and l == label}
        else:
            found = {t for s, t, l in at_x if s == x and l == label}
        return [w for w in found if h.nlabel[w] == step.label]

    def closed(step: _Step) -> bool:
        for u, label, v_is_src in step.closes:
            s, t = (fv[step.node], fv[u]) if v_is_src else (fv[u], fv[step.node])
            if not _parallel(h, s, t, label):
                return False
        return True

    found: list[tuple[int, ...]] = []
    last = len(plan) - 1
    pending = [iter(candidates(plan[0]))] + [iter(())] * last
    i = 0
    while i >= 0:
        step = plan[i]
        for w in pending[i]:
            if w not in used:
                fv[step.node] = w
                if closed(step):
                    break
        else:
            i -= 1
            if i >= 0:
                used.discard(fv[plan[i].node])
            continue
        if i == last:
            found.append(tuple(map(fv.__getitem__, nodes)))
        else:
            used.add(w)
            i += 1
            pending[i] = iter(candidates(plan[i]))
    return found


def _parallel(h: Graph, s: int, t: int, label: str) -> list[int]:
    """The edges of ``h`` from ``s`` to ``t`` with ``label``, ascending."""
    key = (s, t, label)
    return sorted(e for e in h.incidence.get(s, ()) if h.edge[e] == key)
