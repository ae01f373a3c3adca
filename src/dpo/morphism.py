"""Graph morphisms: structure- and label-preserving mappings between graphs.

A morphism stores its node and edge maps extensionally, defined on exactly
the source graph's nodes and edges. Equality of morphisms is therefore
decidable by pointwise comparison (see :func:`morphisms_agree`).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .errors import PreconditionError
from .graph import (
    PASSED,
    CheckReport,
    Graph,
    Violation,
    ends_are_nodes,
    failure,
    flat,
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

    One pass over ``h``'s edges finds the images of every edge of ``g``,
    grouped by their ends (:func:`_edge_images`); no index of ``h`` is read
    or built. ``g``'s nodes are then bound along a plan built once per
    call (:func:`_plan`), as in VF2++ (Jüttner and Madarasi, DAM 242, 2018):
    each connected component of ``g`` starts from its edge with the fewest
    pairs of host ends, bound in one step, and goes on with the unbound
    node with the most edges to bound ones, its candidates the host nodes
    that its cheapest such edge's groups join to the image of the other
    end. A lone node takes every host node with its label. Every other edge
    of ``g`` is checked once, by a lookup in its groups, when both its ends
    are bound. The node maps found are sorted into the order above, and
    each is expanded into its edge maps in ascending edge id. Nothing
    recurses per item, so the size of ``g`` is not bounded by the
    interpreter's recursion limit.

    Cost: the pass, O(|E_h|), shared by edges of ``g`` alike in label, end
    labels and loop-ness; O(|V_h|) per label of a lone node of ``g``; the
    plan, O(|g| log |g|) plus the groups of each edge a node is bound
    along; then, per candidate extension, one lookup per checked edge.
    Last come sorting the node maps found and expanding their edge maps.
    """
    nodes, edges = sorted(g.nodes), sorted(g.edges)
    if not ends_are_nodes(g):
        return []
    ends_of = _edge_images(g, h)
    grouped = [(s, t, ends_of[e]) for e, (s, t, _) in zip(edges, map(g.edge.__getitem__, edges))]
    out: list[Morphism] = []
    for images in sorted(_node_maps(_plan(g, h, ends_of), nodes)):
        fv = dict(zip(nodes, images))
        # product is lexicographic; images can repeat only among parallel
        # edges of g with one label, which the filter drops
        for edge_images in itertools.product(*[ends[fv[s], fv[t]] for s, t, ends in grouped]):
            if len(set(edge_images)) == len(edge_images):
                out.append(Morphism(g, h, fv, dict(zip(edges, edge_images))))
    return out


def _edge_images(g: Graph, h: Graph) -> dict[int, dict[tuple[int, int], list[int]]]:
    """For each edge of ``g``, the edges of ``h`` that fit it, grouped by
    their ``(src, tgt)``, each group in ascending id. A host edge fits when
    its label, both end labels and loop-ness match; edges of ``g`` that
    agree on all four share their groups. One pass over ``h``'s flat edge
    and node-label maps."""
    kind = {e: (label, g.nlabel[s], g.nlabel[t], s == t) for e, (s, t, label) in g.edge.items()}
    wanted: dict[tuple[str, str, str, bool], dict[tuple[int, int], list[int]]] = {k: {} for k in kind.values()}
    labels, src_labels, tgt_labels = ({k[i] for k in wanted} for i in range(3))
    nlabel = flat(h.nlabel)
    crowded = []
    for x, (s, t, label) in flat(h.edge).items() if wanted else ():
        # three set tests turn most edges away before a key is built
        if (
            label in labels
            and (ls := nlabel[s]) in src_labels
            and (lt := nlabel[t]) in tgt_labels
            and (groups := wanted.get((label, ls, lt, s == t))) is not None
        ):
            if (s, t) in groups:
                # host edges come in no fixed order: only a group of
                # parallel edges can need sorting
                groups[s, t].append(x)
                crowded.append(groups[s, t])
            else:
                groups[s, t] = [x]
    for xs in crowded:
        xs.sort()
    return {e: wanted[k] for e, k in kind.items()}


class _Step(NamedTuple):
    """One position of a search plan: the nodes bound there, together; the
    bound node whose image keys ``table``, if any; their candidate images,
    tuples in an iterable, or in a map from that image; and the edges
    checked once they are bound, each as its groups and its two ends."""

    binds: tuple[int, ...]
    anchor: Optional[int]
    table: Union[list, dict]
    closes: tuple[tuple[dict, int, int], ...]


def _plan(g: Graph, h: Graph, ends_of: dict[int, dict[tuple[int, int], list[int]]]) -> list[_Step]:
    """The order in which :func:`enumerate_morphisms` binds ``g``'s nodes.

    A heap keyed by (minus the edges to bound nodes, the fewest host pairs
    of an edge at the node, or a lone node's label count in ``h``, the id)
    picks each next node; a node gains one stale entry per edge to a newly
    bound node. A node with no edge to a bound one starts a component and
    is bound together with the other end of its cheapest edge, the seed.
    A neighbour table is built once per kind of edge and direction."""
    # the edges at each node in ascending id, each with its other end
    at: dict[int, list[tuple[int, int]]] = {v: [] for v in g.nodes}
    for e in sorted(g.edges):
        s, t, _ = g.edge[e]
        at[s].append((e, t))
        if t != s:
            at[t].append((e, s))
    nlabel = flat(h.nlabel)
    pools: dict[str, list[tuple[int]]] = {}
    for v, links in at.items():
        if not links and g.nlabel[v] not in pools:
            pools[g.nlabel[v]] = [(w,) for w, l in nlabel.items() if l == g.nlabel[v]]

    def cost(link: tuple[int, int]) -> tuple[int, int]:
        return len(ends_of[link[0]]), link[0]

    weight = {v: min(len(ends_of[e]) for e, _ in links) if links else len(pools[g.nlabel[v]]) for v, links in at.items()}
    linked = dict.fromkeys(g.nodes, 0)
    heap = [(0, weight[v], v) for v in g.nodes]
    heapq.heapify(heap)
    tables: dict[tuple, dict[int, list[tuple[int]]]] = {}
    bound: set[int] = set()
    plan: list[_Step] = []
    while heap:
        minus_linked, _, v = heapq.heappop(heap)
        if v in bound or -minus_linked != linked[v]:
            continue
        if not at[v]:
            step_edge, binds, anchor, table = None, (v,), None, pools[g.nlabel[v]]
        elif not linked[v]:
            step_edge, _ = min(at[v], key=cost)
            s, t, _ = g.edge[step_edge]
            ends = ends_of[step_edge]
            # a dict iterates its (src, tgt) keys
            binds, anchor, table = ((s, t), None, ends) if s != t else ((s,), None, [(x,) for x, _ in ends])
        else:
            step_edge, anchor = min(((e, u) for e, u in at[v] if u != v and u in bound), key=cost)
            s, t, label = g.edge[step_edge]
            key = (label, g.nlabel[s], g.nlabel[t], s == v)
            if key not in tables:
                tables[key] = {}
                for hs, ht in ends_of[step_edge]:
                    u, w = (ht, hs) if s == v else (hs, ht)
                    tables[key].setdefault(u, []).append((w,))
            binds, table = (v,), tables[key]
        bound.update(binds)
        closes = {}
        for w in binds:
            for e, u in at[w]:
                if u not in bound:
                    linked[u] += 1
                    heapq.heappush(heap, (-linked[u], weight[u], u))
                elif e != step_edge:
                    s, t, _ = g.edge[e]
                    closes[e] = (ends_of[e], s, t)
        plan.append(_Step(binds, anchor, table, tuple(closes.values())))
    return plan


def _node_maps(plan: list[_Step], nodes: list[int]) -> list[tuple[int, ...]]:
    """Every injective node map along ``plan`` under which each checked
    edge has a group at its ends' images, as its images over ``nodes``,
    unsorted."""
    if not plan:
        return [()]
    found: list[tuple[int, ...]] = []
    fv: dict[int, int] = {}
    used: set[int] = set()
    picked: list[tuple[int, ...]] = []

    def fits(step: _Step):
        # the candidates of step that bind distinct host nodes and pass its
        # checks, each left bound in fv while it is the current one
        binds, anchor, table, closes = step
        for images in table if anchor is None else table.get(fv[anchor], ()):
            if used.isdisjoint(images):
                fv.update(zip(binds, images))
                if not closes or all((fv[s], fv[t]) in ends for ends, s, t in closes):
                    yield images

    last = len(plan) - 1
    pending = [fits(plan[0])]
    while pending:
        if len(pending) > last:
            found += [tuple(map(fv.__getitem__, nodes)) for _ in pending.pop()]
        elif (images := next(pending[-1], None)) is not None:
            picked.append(images)
            used.update(images)
            pending.append(fits(plan[len(pending)]))
            continue
        else:
            pending.pop()
        if picked:
            used.difference_update(picked.pop())
    return found
