"""Finite labelled directed multigraphs over integer identifiers.

Nodes and edges are identified by non-negative integers; the two identifier
spaces are independent. Labels are opaque strings compared by equality.
Parallel edges and loops are allowed; two parallel edges with identical
endpoints and labels are distinct whenever their identifiers differ.

A graph ``(V, E, s, t, l_V, l_E)`` is held as two maps: ``nlabel`` is
``l_V``, and ``edge`` is the one function ``E -> V x V x L`` that ``s``,
``t`` and ``l_E`` make together, ``e -> (src, tgt, label)``. An edge so
has all three parts or none, and a step that deletes or creates edges
copies one host-sized edge map, not three.

A graph is derived from another by one edit, :meth:`Graph.edited`, which
removes and adds items: each of the two maps that it changes is copied in
bulk, at C level, and patched; the other is shared with the input graph.
A result's item sets are the key views of its maps, so no item set is
built.

Maps are copied with ``dict.copy()``. ``dict(m)`` and ``{**m, **new}``
re-insert every key once ``m`` has had a key deleted, which every pruned
map and patched index of a chain has; ``m.copy()`` clones the table
whole. On a 2*10^4-entry edge map with one key deleted, ``timeit`` on
CPython 3.10-3.13 gave 0.5-0.8 ms for either form and 0.3 ms for
``m.copy()``.

A graph's derived indexes (:attr:`Graph.incidence`, ``max_node_id``,
``max_edge_id``) are carried on to the edited graph once built, patched
in O(|items| + degree).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Set
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Mapping, Optional


@dataclass(frozen=True)
class Violation:
    """A failed clause and its item: ``("node", 3)``, ``("edge", 0)``, a
    pair ``("node", b, c)``, a part ``("b",)``, dangling edge ids, or none."""

    clause: str
    item: tuple

    def __str__(self) -> str:
        return f"{self.clause}: {' '.join(map(str, self.item))}" if self.item else self.clause


@dataclass(frozen=True)
class CheckReport:
    """A check's violations, in the order found; it passes iff there are none.
    Its failed clause, counterexample and ``str`` are the first one's."""

    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return str(self.violations[0]) if self.violations else "passed"

    @property
    def failed_clause(self) -> Optional[str]:
        return self.violations[0].clause if self.violations else None

    @property
    def counterexample(self) -> Optional[tuple]:
        return self.violations[0].item if self.violations else None


PASSED = CheckReport()


def failure(clause: str, item: tuple) -> CheckReport:
    """The report of one failed clause at ``item``."""
    return CheckReport((Violation(clause, item),))


@dataclass(frozen=True, eq=True)
class Graph:
    """A finite labelled directed multigraph ``(V, E, s, t, l_V, l_E)``.

    ``nlabel`` gives every node its label; ``edge`` gives every edge its
    ``(src, tgt, label)``, the source, target and labelling functions on
    ``E`` held as one map. ``nodes`` and ``edges`` may be any set of ids
    equal to those maps' keys; every graph the engine builds is given the
    key views themselves (:meth:`from_maps`), so no item set is built or
    copied. Instances are treated as immutable values and may be shared
    freely between threads.

    :attr:`src`, :attr:`tgt` and :attr:`elabel` are projections of
    ``edge``, each a new dict built at C level on every read and not kept,
    so writing to one changes nothing; the engine reads ``edge`` itself.

    :attr:`incidence`, :attr:`max_node_id` and :attr:`max_edge_id` are
    derived indexes, each built on first use and then kept on the instance;
    they are not fields, so equality and ``repr`` ignore them.
    :meth:`edited` hands each built index on to its result, patched for
    the items it changes, unless it removed the item a largest id names:
    that one is rebuilt on first read.
    """

    nodes: Set[int]
    edges: Set[int]
    nlabel: dict[int, str]
    edge: dict[int, tuple[int, int, str]]

    @classmethod
    def from_maps(cls, nlabel: dict[int, str], edge: dict[int, tuple[int, int, str]]) -> Graph:
        """The graph of two maps, its item sets their key views."""
        return cls(nlabel.keys(), edge.keys(), nlabel, edge)

    def __reduce__(self) -> tuple:
        # key views do not pickle; a copy has frozensets and no built index
        return Graph, (frozenset(self.nodes), frozenset(self.edges), self.nlabel, self.edge)

    def __repr__(self) -> str:
        ns = ", ".join(f"{v}:{self.nlabel.get(v)!r}" for v in sorted(self.nodes))
        es = ", ".join(
            f"{e}:{s}->{t}:{l!r}"
            for e in sorted(self.edges)
            for s, t, l in [self.edge.get(e, (None, None, None))]
        )
        return f"Graph([{ns}], [{es}])"

    @property
    def src(self) -> dict[int, int]:
        """The source of each edge, projected from ``edge``."""
        return dict(zip(self.edge, map(_SRC, self.edge.values())))

    @property
    def tgt(self) -> dict[int, int]:
        """The target of each edge, projected from ``edge``."""
        return dict(zip(self.edge, map(_TGT, self.edge.values())))

    @property
    def elabel(self) -> dict[int, str]:
        """The label of each edge, projected from ``edge``."""
        return dict(zip(self.edge, map(_LABEL, self.edge.values())))

    @cached_property
    def incidence(self) -> dict[int, frozenset[int]]:
        """The edges at each node that has any, as either endpoint.

        Nodes without edges are absent. Building it reads every edge once;
        :meth:`edited` hands a built index on to its result, patched in
        O(degree).
        """
        at: dict[int, list[int]] = {}
        for e, (s, t, _) in self.edge.items():
            at.setdefault(s, []).append(e)
            if t != s:
                at.setdefault(t, []).append(e)
        return {v: frozenset(es) for v, es in at.items()}

    @cached_property
    def max_node_id(self) -> int:
        """The largest node identifier, or -1 when there are no nodes."""
        return max(self.nodes, default=-1)

    @cached_property
    def max_edge_id(self) -> int:
        """The largest edge identifier, or -1 when there are no edges."""
        return max(self.edges, default=-1)

    def edited(
        self, gone_nodes: Collection[int], gone_edges: Collection[int],
        nlabel: dict[int, str], edge: dict[int, tuple[int, int, str]],
    ) -> Graph:
        """This graph without ``gone_nodes`` and ``gone_edges``, plus the
        items of the two given maps, each with an id it does not hold or
        one removed in the same call; the removal must leave no edge
        dangling.

        Each map that loses or gains an item is copied with ``dict.copy()``
        and patched; the other is shared, since graphs are never mutated.
        Each derived index built on this graph is carried on, patched for
        the removed and added items: one bulk copy plus O(degree) per item.
        A largest id whose item was removed is not carried; the result
        rebuilds it if read.
        """
        maps = []
        for m, gone, added in ((self.nlabel, gone_nodes, nlabel), (self.edge, gone_edges, edge)):
            if gone or added:
                m = m.copy()
                for k in gone:
                    m.pop(k, None)
                m.update(added)
            maps.append(m)
        new = Graph.from_maps(*maps)
        # where functools.cached_property keeps the values it builds
        built, carried = vars(self), vars(new)
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
            s, t, _ = self.edge[e]
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


_SRC, _TGT, _LABEL = itemgetter(0), itemgetter(1), itemgetter(2)


def graph(
    nodes: Mapping[int, str],
    edges: Mapping[int, tuple[int, int, str]] | None = None,
) -> Graph:
    """Build a graph from ``{node_id: label}`` and ``{edge_id: (src, tgt, label)}``."""
    return Graph.from_maps(dict(nodes), {e: (s, t, l) for e, (s, t, l) in (edges or {}).items()})


def ends_are_nodes(g: Graph) -> bool:
    """Whether every edge's source and target are keys of ``nlabel``, by
    two C-level passes over ``edge``."""
    ends = g.edge.values()
    return all(map(g.nlabel.__contains__, map(_SRC, ends))) and all(map(g.nlabel.__contains__, map(_TGT, ends)))


def validate_graph(g: Graph) -> CheckReport:
    """Check every graph invariant; report each failed clause with its item.
    Whole-set tests at C level decide a pass (endpoints are looked up in
    ``nlabel``, equal to ``nodes`` once the first holds); else the loop runs.
    An edge has its source, target and label together or not at all, so one
    clause covers a missing ``edge`` entry."""
    if (
        g.nlabel.keys() == g.nodes
        and g.edge.keys() == g.edges
        and min(g.nodes, default=0) >= 0
        and min(g.edges, default=0) >= 0
        and ends_are_nodes(g)
    ):
        return PASSED
    bad: list[Violation] = []
    for v in sorted(g.nodes):
        if v < 0:
            bad.append(Violation("node id negative", ("node", v)))
        if v not in g.nlabel:
            bad.append(Violation("nlabel not total on nodes", ("node", v)))
    for e in sorted(g.edges):
        if e < 0:
            bad.append(Violation("edge id negative", ("edge", e)))
        if e not in g.edge:
            bad.append(Violation("edge map not total on edges", ("edge", e)))
            continue
        s, t, _ = g.edge[e]
        if s not in g.nodes:
            bad.append(Violation("src out of V", ("edge", e)))
        if t not in g.nodes:
            bad.append(Violation("tgt out of V", ("edge", e)))
    for v in sorted(set(g.nlabel) - g.nodes):
        bad.append(Violation("nlabel defined outside nodes", ("node", v)))
    for e in sorted(set(g.edge) - g.edges):
        bad.append(Violation("edge map defined outside edges", ("edge", e)))
    return CheckReport(tuple(bad))


def is_subgraph(sub: Graph, g: Graph) -> bool:
    """Whether ``sub``'s items, labels and endpoints are ``g``'s, by C-level
    set tests and dict views; a map ``sub`` shares with ``g`` is not read."""
    return sub.nodes <= g.nodes and sub.edges <= g.edges and all(
        x is y or x.items() <= y.items() for x, y in ((sub.nlabel, g.nlabel), (sub.edge, g.edge))
    )


@dataclass(frozen=True)
class IsoWitness:
    """A structure- and label-preserving bijection between two graphs."""

    node_map: dict[int, int]
    edge_map: dict[int, int]


def is_isomorphic(g: Graph, h: Graph) -> Optional[IsoWitness]:
    """Search for an isomorphism ``g -> h``; ``None`` means non-isomorphic.

    Backtracking over nodes with pruning by (label, in-degree, out-degree)
    signatures; candidates are tried in ascending identifier order, so the
    returned witness is deterministic. A candidate pair ``v -> w`` is checked
    against the already-assigned neighbours of ``v`` and of ``w`` only, as in
    VF2's feasibility rules, so each check costs O(degree): an assigned node
    adjacent to neither side carries no edges to compare.

    Each graph is indexed in one pass over its edges: per ordered node pair,
    the key ``tuple(sorted(labels))`` of its edge-label multiset (labels are
    strings), compared as one C-level tuple; per node, its neighbours. The
    search still recurses once per node: past the recursion limit (about
    1,000 nodes) it raises :class:`RecursionError`.
    """
    if len(g.nodes) != len(h.nodes) or len(g.edges) != len(h.edges):
        return None
    sig_g = _node_signatures(g)
    sig_h = _node_signatures(h)
    if Counter(sig_g.values()) != Counter(sig_h.values()):
        return None
    if Counter(map(_LABEL, g.edge.values())) != Counter(map(_LABEL, h.edge.values())):
        return None

    pair_g, nbrs_g = _edge_label_index(g)
    pair_h, nbrs_h = _edge_label_index(h)
    order = sorted(g.nodes)
    by_sig: dict[tuple, list[int]] = {}
    for w in sorted(h.nodes):
        by_sig.setdefault(sig_h[w], []).append(w)

    assignment: dict[int, int] = {}
    inverse: dict[int, int] = {}

    def consistent(v: int, w: int) -> bool:
        # every ordered pair involving v (including the loop pair) must carry
        # the same edge-label key on both sides; pairs with an assigned
        # node that is adjacent to neither v nor w are empty on both sides
        if pair_g.get((v, v)) != pair_h.get((w, w)):
            return False
        for u in nbrs_g.get(v, ()):
            x = assignment.get(u)
            if x is not None and (
                pair_g.get((v, u)) != pair_h.get((w, x)) or pair_g.get((u, v)) != pair_h.get((x, w))
            ):
                return False
        for x in nbrs_h.get(w, ()):
            u = inverse.get(x)
            if u is not None and (
                pair_g.get((v, u)) != pair_h.get((w, x)) or pair_g.get((u, v)) != pair_h.get((x, w))
            ):
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in by_sig.get(sig_g[v], ()):
            if w in inverse or not consistent(v, w):
                continue
            assignment[v] = w
            inverse[w] = v
            if extend(i + 1):
                return True
            del assignment[v]
            del inverse[w]
        return False

    try:
        if not extend(0):
            return None
    finally:
        del extend  # a cycle through its own closure cell; freed by refcount once emptied
    edge_map = _edge_bijection(g, h, assignment)
    return IsoWitness(node_map=dict(assignment), edge_map=edge_map)


def _node_signatures(g: Graph) -> dict[int, tuple]:
    outdeg = Counter(map(_SRC, g.edge.values()))
    indeg = Counter(map(_TGT, g.edge.values()))
    return {v: (g.nlabel[v], outdeg.get(v, 0), indeg.get(v, 0)) for v in g.nodes}


def _edge_label_index(g: Graph) -> tuple[dict[tuple[int, int], tuple[str, ...]], dict[int, tuple[int, ...]]]:
    # the sorted edge labels on each ordered node pair that has an edge, and
    # the distinct nodes joined to each node by an edge in either direction,
    # loops left out
    labels: dict[tuple[int, int], list[str]] = {}
    adjacent: dict[int, set[int]] = {}
    for s, t, label in g.edge.values():
        labels.setdefault((s, t), []).append(label)
        if s != t:
            adjacent.setdefault(s, set()).add(t)
            adjacent.setdefault(t, set()).add(s)
    return (
        {pair: tuple(sorted(ls)) for pair, ls in labels.items()},
        {v: tuple(us) for v, us in adjacent.items()},
    )


def _edge_bijection(g: Graph, h: Graph, node_map: Mapping[int, int]) -> dict[int, int]:
    # parallel edges with equal endpoints and labels are interchangeable;
    # pair them off in ascending id order on both sides
    classes_h: dict[tuple[int, int, str], list[int]] = {}
    for e in sorted(h.edges):
        classes_h.setdefault(h.edge[e], []).append(e)
    edge_map: dict[int, int] = {}
    cursor: dict[tuple[int, int, str], int] = {}
    for e in sorted(g.edges):
        s, t, label = g.edge[e]
        key = (node_map[s], node_map[t], label)
        i = cursor.get(key, 0)
        edge_map[e] = classes_h[key][i]
        cursor[key] = i + 1
    return edge_map
