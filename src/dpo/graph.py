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
removes and adds items. Each map that it changes becomes a layer: the
input's dict (the root), the root keys removed since and the entries added
since, read through those three parts, so a step copies the edits made
since the root and no host-sized map; the other map is shared with the
input graph. Point reads (``[]``, ``get``, ``in``, ``len``) stay O(1); the
first bulk read of a layer (iteration, a view, ``==``, ``copy``, pickling)
builds its flat dict once, by ``dict.copy()`` of the root and a patch, the
dict a copy of the input and the same pops and updates would give, in its
entries and its order. An edit whose layer would hold more edits than
1/64 of its root returns that flat dict instead, so a chain that is never
read in bulk copies the host once per 1/64 of the host it rewrites; a
persistent map in the sense of Driscoll, Sarnak, Sleator and Tarjan (JCSS
38, 1989), with one level. A result's item sets are the key sets of its
maps, so no item set is built. Every point read of a layer, flattened or
not, is a Python call; a reader that looks up items one by one over a
whole host, as the matcher and the isomorphism search do, reads the flat
dicts themselves (:func:`flat`, :func:`flattened`).

A graph's derived indexes (:attr:`Graph.incidence`, ``max_node_id``,
``max_edge_id``) are carried on to the edited graph once built, patched
in O(|items| + degree), the incidence index as a layer too.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Collection, Mapping, Set
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Optional


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
    maps' key sets themselves (:meth:`from_maps`), so no item set is built
    or copied. Instances are treated as immutable values and may be shared
    freely between threads.

    A map is a dict, or, on a graph :meth:`edited` from another, a layer:
    a read-only map over the dict it was edited from (its root), the root
    keys removed and the entries added since. Point reads of a layer or of
    its key set go through those three parts. Its first bulk read builds
    the flat dict, :func:`flat`, once, and publishes it in one assignment,
    so a reader in another thread sees the three parts or the flat dict,
    never a half-built one; every later read is the flat dict's, through
    the layer's own methods. :func:`flattened` gives a graph of the flat
    dicts, for readers that look up a host's worth of items.

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
    nlabel: Mapping[int, str]
    edge: Mapping[int, tuple[int, int, str]]

    @classmethod
    def from_maps(cls, nlabel: Mapping[int, str], edge: Mapping[int, tuple[int, int, str]]) -> Graph:
        """The graph of two maps, its item sets their key sets."""
        return cls(_key_set(nlabel), _key_set(edge), nlabel, edge)

    def __reduce__(self) -> tuple:
        # key views do not pickle; a copy has frozensets, dicts and no built index
        return Graph, (frozenset(self.nodes), frozenset(self.edges), flat(self.nlabel), flat(self.edge))

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
    def incidence(self) -> Mapping[int, frozenset[int]]:
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
        nlabel: Mapping[int, str], edge: Mapping[int, tuple[int, int, str]],
    ) -> Graph:
        """This graph without ``gone_nodes`` and ``gone_edges``, plus the
        items of the two given maps, each with an id it does not hold or
        one removed in the same call; the removal must leave no edge
        dangling.

        Each map that loses or gains an item is a layer over its root, the
        input's map or, if that is a layer, the same root (:func:`_edited`):
        the step copies the edits made since the root and reads O(|items|)
        entries. If the layer's edits would pass 1/64 of its root, the
        result holds the flat dict instead, one host-sized copy. A map
        whose items the step leaves alone is shared, since graphs are never
        mutated. The first bulk read of a layer pays its flat copy, once.
        Each derived index built on this graph is carried on, patched for
        the removed and added items in O(degree) per item, the incidence
        index by the same layered edit. A largest id whose item was removed
        is not carried; the result rebuilds it if read.
        """
        new = Graph.from_maps(_edited(self.nlabel, gone_nodes, nlabel), _edited(self.edge, gone_edges, edge))
        # where functools.cached_property keeps the values it builds
        built, carried = vars(self), vars(new)
        for name, gone, added in (("max_node_id", gone_nodes, nlabel), ("max_edge_id", gone_edges, edge)):
            largest = built.get(name)
            if largest is not None and largest not in gone:
                carried[name] = max(largest, max(added, default=-1))
        index = built.get("incidence")
        if index is None:
            return new
        # the pops and assignments a copy of the index would take, in order,
        # as the nodes it removes and the entries it sets
        removed, patch = set(gone_nodes), {}
        for e in gone_edges:
            s, t, _ = self.edge[e]
            for v in {s, t}:
                at = patch[v] if v in patch else None if v in removed else index.get(v)
                if at is None:  # a removed node
                    continue
                if rest := at - {e}:
                    patch[v] = rest
                else:
                    patch.pop(v, None)
                    removed.add(v)
        for e, (s, t, _) in edge.items():
            for v in {s, t}:
                at = patch[v] if v in patch else None if v in removed else index.get(v)
                patch[v] = (at or frozenset()) | {e}
        carried["incidence"] = _edited(index, removed, patch)
        return new


# an edit flattens a layer whose edits would pass 1/_FLATTEN of its root.
# Each edit copies the edits since the root, on average |root|/(2 _FLATTEN)
# entries in a chain that never reads in bulk: over 5,000 edge-rewiring
# steps on a 10^5-node host (CPython 3.11) a step took 0.07 ms at 1/64 and
# at 1/256, and 0.17-0.20 ms at 1/16, rising to 0.30 ms by the end
_FLATTEN = 64
_NO_KEYS = frozenset()
_NO_ITEMS = MappingProxyType({})


class _Layer(Mapping):
    """A read-only map: a root dict, the root keys removed from it and the
    entries added since, with its size; built by :func:`_edited` only.

    ``[]``, ``get``, ``in`` and ``len`` read the three parts. Every other
    read is the flat dict's (:meth:`flat`): the first builds it, and then
    the layer holds it as its root, with nothing removed or added."""

    __slots__ = ("_parts",)

    def __init__(self, root: dict, gone: Set, added: Mapping, size: int):
        self._parts = root, gone, added, size

    def __getitem__(self, k):
        root, gone, added, _ = self._parts
        if k in added:
            return added[k]
        if k in gone:
            raise KeyError(k)
        return root[k]

    def get(self, k, default=None):
        root, gone, added, _ = self._parts
        if k in added:
            return added[k]
        return default if k in gone else root.get(k, default)

    def __contains__(self, k) -> bool:
        root, gone, added, _ = self._parts
        return k in added or (k not in gone and k in root)

    def __len__(self) -> int:
        return self._parts[3]

    def flat(self) -> dict:
        """The root copied, without the removed keys, updated with the added
        entries; built on the first call, and published in one assignment."""
        root, gone, added, size = self._parts
        if gone or added:
            root = root.copy()
            for k in gone:
                del root[k]
            root.update(added)
            self._parts = root, _NO_KEYS, _NO_ITEMS, size
        return root

    def __iter__(self):
        return iter(self.flat())

    def keys(self):
        return self.flat().keys()

    def items(self):
        return self.flat().items()

    def values(self):
        return self.flat().values()

    def copy(self) -> dict:
        return self.flat().copy()

    def __eq__(self, other) -> bool:
        return other is self or self.flat() == flat(other)

    def __repr__(self) -> str:
        return repr(self.flat())

    def __reduce__(self) -> tuple:
        return dict, (self.flat(),)


class _Keys(Set):
    """A layer's key set: ``in`` and ``len`` are the layer's; every other
    read, set operations and comparisons included, is its flat dict's keys
    view's."""

    __slots__ = ("_map",)

    def __init__(self, m: _Layer):
        self._map = m

    def __contains__(self, k) -> bool:
        return k in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self):
        return iter(self._map.flat())

    def _view(self):
        return self._map.flat().keys()

    def isdisjoint(self, other) -> bool:
        return self._view().isdisjoint(other)

    def __eq__(self, other) -> bool:
        return other is self or self._view() == _viewed(other)

    def __repr__(self) -> str:
        return repr(self._view())

    def __reduce__(self) -> tuple:
        # as a keys view, which does not pickle; a Graph pickles its item sets
        raise TypeError("cannot pickle a layer's key set")


def _viewed(x):
    return x._view() if type(x) is _Keys else x


# the order comparisons and set operations, each side through _viewed
for _op in (operator.lt, operator.le, operator.gt, operator.ge, operator.and_, operator.or_, operator.sub, operator.xor):
    _name = _op.__name__.strip("_")
    setattr(_Keys, f"__{_name}__", lambda self, other, op=_op: op(self._view(), _viewed(other)))
    if _name in ("and", "or", "sub", "xor"):
        setattr(_Keys, f"__r{_name}__", lambda self, other, op=_op: op(_viewed(other), self._view()))


def flat(m: Mapping) -> dict:
    """``m`` as a dict: itself, or a layer's flat dict, built once."""
    return m.flat() if type(m) is _Layer else m


def flattened(g: Graph) -> Graph:
    """``g`` itself if its maps and built incidence index are dicts, else a
    graph of their flat dicts, :func:`flat`, with ``g``'s incidence index,
    built on ``g`` if it is not yet and then flattened: for a reader that
    looks up items one by one over a whole host, at the speed of a dict."""
    index = vars(g).get("incidence")
    if type(g.nlabel) is not _Layer and type(g.edge) is not _Layer and type(index) is not _Layer:
        return g
    flat_g = Graph.from_maps(flat(g.nlabel), flat(g.edge))
    # where functools.cached_property keeps the values it builds
    vars(flat_g)["incidence"] = flat(g.incidence)
    return flat_g


def _key_set(m: Mapping) -> Set:
    """The key set of a map: a dict's keys view, or a layer's :class:`_Keys`."""
    return _Keys(m) if type(m) is _Layer else m.keys()


def _edited(m: Mapping, gone: Collection, added: Mapping) -> Mapping:
    """``m`` without the keys ``gone``, then updated with ``added``: the
    dict that ``m.copy()``, ``pop`` and ``update`` build, in its entries
    and order, as a layer over ``m``'s root, or as that flat dict once the
    layer's edits would pass 1/_FLATTEN of its root; ``m`` if both are empty.

    The one map edit. It copies the edits made since the root: a root key
    removed stays in ``gone`` when added again, so the flat dict puts it
    last, as ``pop`` then ``update`` do; a root key only changed is in
    ``added`` alone, and keeps its place."""
    if not gone and not added:
        return m
    root, was_gone, was_added, size = m._parts if type(m) is _Layer else (m, _NO_KEYS, _NO_ITEMS, len(m))
    now_gone, now_added = set(was_gone), was_added.copy()
    for k in gone:
        if k in now_added or (k in root and k not in now_gone):
            size -= 1
        now_added.pop(k, None)
        if k in root:
            now_gone.add(k)
    for k in added:
        if k not in now_added and (k not in root or k in now_gone):
            size += 1
    now_added.update(added)
    layer = _Layer(root, now_gone, now_added, size)
    return layer.flat() if _FLATTEN * (len(now_gone) + len(now_added)) > len(root) else layer


_SRC, _TGT, _LABEL = operator.itemgetter(0), operator.itemgetter(1), operator.itemgetter(2)


def graph(
    nodes: Mapping[int, str],
    edges: Mapping[int, tuple[int, int, str]] | None = None,
) -> Graph:
    """Build a graph from ``{node_id: label}`` and ``{edge_id: (src, tgt, label)}``."""
    return Graph.from_maps(dict(nodes), {e: (s, t, l) for e, (s, t, l) in (edges or {}).items()})


def ends_are_nodes(g: Graph) -> bool:
    """Whether every edge's source and target are keys of ``nlabel``, by
    two C-level passes over ``edge``."""
    has, ends = flat(g.nlabel).__contains__, flat(g.edge).values()
    return all(map(has, map(_SRC, ends))) and all(map(has, map(_TGT, ends)))


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
    nlabel, ends = flat(g.nlabel), flat(g.edge).values()
    outdeg = Counter(map(_SRC, ends))
    indeg = Counter(map(_TGT, ends))
    return {v: (nlabel[v], outdeg.get(v, 0), indeg.get(v, 0)) for v in g.nodes}


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
    g_edge, h_edge = flat(g.edge), flat(h.edge)
    classes_h: dict[tuple[int, int, str], list[int]] = {}
    for e in sorted(h.edges):
        classes_h.setdefault(h_edge[e], []).append(e)
    edge_map: dict[int, int] = {}
    cursor: dict[tuple[int, int, str], int] = {}
    for e in sorted(g.edges):
        s, t, label = g_edge[e]
        key = (node_map[s], node_map[t], label)
        i = cursor.get(key, 0)
        edge_map[e] = classes_h[key][i]
        cursor[key] = i + 1
    return edge_map
