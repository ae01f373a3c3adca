import copy
import dataclasses
import gc
import itertools
import pickle
import random
import sys
import threading
from collections import Counter

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import MultiDiGraphMatcher, categorical_node_match

from dpo.errors import PreconditionError
from dpo.graph import (
    PASSED,
    CheckReport,
    Graph,
    Violation,
    _edge_label_index,
    flattened,
    graph,
    incidence_if_built,
    is_isomorphic,
    items_by_id,
    validate_graph,
)
from dpo.morphism import Morphism, enumerate_morphisms, validate_morphism

from .generators import HEXAGON, MIXED_PAIRS, PURE_PAIRS, TWO_TRIANGLES, random_graph
from .oracles import (
    brute_force_isomorphic,
    is_bijective,
    max_ids_if_built,
    morphism_axioms_ok,
    pair_label_index,
    reference_incidence,
    reference_max_ids,
    reference_validate_graph,
    renumber,
    sorted_incidence,
)
from .strategies import EDGE_LABELS, NODE_LABELS, graphs


@st.composite
def corrupted_graphs(draw) -> Graph:
    """A graph with at most one corruption: a negative id or an endpoint
    off the nodes."""
    g = draw(graphs())
    nlabel, edge = dict(g.nlabel), dict(g.edge)
    kind = draw(st.sampled_from(["none", "negative node", "negative edge", "endpoint"]))
    if kind == "negative node":
        nlabel[-1] = "a"
    elif kind == "negative edge" and nlabel:
        edge[-1] = (min(nlabel), min(nlabel), "x")
    elif kind == "endpoint" and edge:
        e = draw(st.sampled_from(sorted(edge)))
        s, t, label = edge[e]
        end = draw(st.integers(-1, 6))
        edge[e] = (end, t, label) if draw(st.booleans()) else (s, end, label)
    return Graph(frozenset(nlabel), frozenset(edge), nlabel, edge)


def with_edge_labels(g: Graph, labels: dict[int, str]) -> Graph:
    """``g`` with each edge in ``labels`` relabelled, ends kept."""
    return Graph(g.nodes, g.edges, g.nlabel, {**g.edge, **{e: (*g.edge[e][:2], l) for e, l in labels.items()}})


class TestCheckReport:
    def test_reads_its_first_violation(self):
        report = CheckReport((Violation("tgt out of V", ("edge", 1)), Violation("src out of V", ("edge", 2))))
        assert not report
        assert (report.failed_clause, report.counterexample, str(report)) == (
            "tgt out of V", ("edge", 1), "tgt out of V: edge 1"
        )

    def test_passes_without_violations(self):
        assert PASSED == CheckReport()
        assert (bool(PASSED), PASSED.failed_clause, PASSED.counterexample, str(PASSED)) == (True, None, None, "passed")


class TestValidateGraph:
    def test_empty_graph_is_ok(self):
        assert validate_graph(graph({}))

    def test_loop_is_ok(self):
        g = graph({0: "a"}, {0: (0, 0, "x")})
        assert validate_graph(g)

    def test_parallel_edges_are_ok(self):
        g = graph({0: "a", 1: "a"}, {0: (0, 1, "x"), 1: (0, 1, "x")})
        assert validate_graph(g)

    def test_src_out_of_nodes_is_reported(self):
        g = graph({0: "a"}, {0: (5, 0, "x")})
        report = validate_graph(g)
        assert not report
        assert any(v.clause == "src out of V" and v.item == ("edge", 0) for v in report.violations)

    @settings(max_examples=400, deadline=None)
    @given(corrupted_graphs())
    @example(Graph(frozenset({-1}), frozenset(), {-1: "a"}, {}))
    def test_agrees_with_the_reference_loop(self, g):
        assert validate_graph(g) == reference_validate_graph(g)


class TestConstruction:
    """A graph's item sets are its maps' key sets: given explicitly, each is
    checked against its map once, at construction."""

    @pytest.mark.parametrize(
        "nodes, edges, nlabel, edge, message",
        [
            ({0, 1, 2}, set(), {0: "a"}, {}, "graph: nodes are not the keys of nlabel: node 1"),
            ({0}, set(), {5: "b", 0: "a", 3: "a"}, {}, "graph: nodes are not the keys of nlabel: node 3"),
            ({0}, {4, 0, 2}, {0: "a"}, {0: (0, 0, "x")}, "graph: edges are not the keys of edge: edge 2"),
            ({0}, set(), {0: "a"}, {4: (0, 0, "x"), 3: (0, 0, "x")}, "graph: edges are not the keys of edge: edge 3"),
        ],
        ids=["node without a label", "label without a node", "edge without an edge entry", "edge entry without an edge"],
    )
    def test_item_sets_that_are_not_the_maps_keys_raise(self, nodes, edges, nlabel, edge, message):
        for items in (set, frozenset):
            with pytest.raises(PreconditionError) as caught:
                Graph(items(nodes), items(edges), nlabel, edge)
            assert str(caught.value) == message

    def test_replace_with_matching_nodes_on_a_layered_graph(self):
        g = graph({v: "a" for v in range(200)}, {0: (0, 1, "x")})
        H = g.edited((), (), {200: "b"}, {})
        assert type(H.nlabel) is not dict
        x = max(H.nodes) + 1
        H2 = dataclasses.replace(H, nodes=H.nodes | {x}, nlabel={**H.nlabel, x: "a"})
        assert H2.nodes == H2.nlabel.keys() == set(range(202)) and H2.edges == H2.edge.keys()
        assert H2.edge is H.edge and H2 != H
        with pytest.raises(PreconditionError, match="graph: nodes are not the keys of nlabel: node 201"):
            dataclasses.replace(H, nlabel={**H.nlabel, x: "a"})

    def test_equality_reads_the_two_maps(self):
        assert [f.name for f in dataclasses.fields(Graph) if f.compare] == ["nlabel", "edge"]
        nlabel, edge = {0: "a", 1: "b"}, {2: (0, 1, "x")}
        built = (
            Graph(frozenset(nlabel), frozenset(edge), dict(nlabel), dict(edge)),
            graph(nlabel, edge),
            Graph.from_maps(nlabel, edge),
        )
        for g, h in itertools.product(built, repeat=2):
            assert g == h and (g.nodes, g.edges) == ({0, 1}, {2})
            assert g.nodes == g.nlabel.keys() and g.edges == g.edge.keys()

    def test_a_layered_graph_pickles_to_an_equal_graph_of_dicts(self):
        g = graph({v: "a" for v in range(200)}, {e: (e, e + 1, "x") for e in range(199)})
        h = g.edited((), (5,), {200: "b"}, {5: (200, 0, "y")})
        assert type(h.nlabel) is not dict and type(h.edge) is not dict
        clone = pickle.loads(pickle.dumps(h))
        assert clone == h and type(clone.nlabel) is dict and type(clone.edge) is dict
        assert clone.nodes == clone.nlabel.keys() and clone.edges == clone.edge.keys()


INDEXES = ("incidence", "max_node_id", "max_edge_id")


@st.composite
def edits(draw) -> tuple:
    """A graph, the nodes and edges :meth:`Graph.edited` removes (every edge
    at a removed node among them), the nodes and edges it adds, and the
    derived indexes to build on the graph first. An added id is fresh or
    one removed in the same call; an added edge ends at a node the result
    holds."""
    g = draw(graphs(max_nodes=5, max_edges=6))

    def some(ids) -> set[int]:
        return draw(st.sets(st.sampled_from(sorted(ids)))) if ids else set()

    gone_nodes = some(g.nodes)
    at_gone = {e for e, (s, t, _) in g.edge.items() if s in gone_nodes or t in gone_nodes}
    gone_edges = at_gone | some(g.edges - at_gone)
    fresh_v, fresh_e = max(g.nodes, default=-1) + 1, max(g.edges, default=-1) + 1
    nlabel = {v: draw(st.sampled_from(NODE_LABELS)) for v in sorted(some(gone_nodes | {fresh_v, fresh_v + 1}))}
    ends = sorted((g.nodes - gone_nodes) | nlabel.keys())
    edge = {
        e: (draw(st.sampled_from(ends)), draw(st.sampled_from(ends)), draw(st.sampled_from(EDGE_LABELS)))
        for e in sorted(some(gone_edges | {fresh_e, fresh_e + 1}) if ends else ())
    }
    return g, gone_nodes, gone_edges, nlabel, edge, some(INDEXES)


def stored(g: Graph) -> tuple:
    """Copies of ``g``'s maps and of the indexes built on it."""
    built = {name: vars(g)[name] for name in INDEXES if name in vars(g)}
    return dict(g.nlabel), dict(g.edge), {name: dict(x) if isinstance(x, dict) else x for name, x in built.items()}


class TestEdited:
    """:meth:`Graph.edited` gives the graph that :func:`graph` builds from
    the edited maps, copies only the maps it changes, and carries each index
    built on its input, patched, unless it removed the item a largest id
    names."""

    @settings(max_examples=400, deadline=None)
    @given(edits())
    # a removed node and edge re-added with other label and ends, beside fresh ones
    @example((graph({0: "a", 1: "a"}, {0: (0, 1, "x")}), {1}, {0}, {1: "b", 2: "a"}, {0: (1, 2, "y"), 1: (0, 0, "x")}, set(INDEXES)))
    # the largest ids removed and re-added: neither is carried
    @example((graph({0: "a", 1: "b"}, {0: (1, 1, "x")}), {1}, {0}, {1: "a"}, {0: (0, 1, "x")}, set(INDEXES)))
    # additions only, and removals only, with no index built
    @example((graph({0: "a"}), set(), set(), {1: "b"}, {0: (0, 1, "y")}, set()))
    @example((graph({0: "a", 1: "a"}, {0: (0, 1, "x")}), {0}, {0}, {}, {}, set()))
    def test_contract(self, case):
        g, gone_nodes, gone_edges, nlabel, edge, built = case
        for name in built:
            getattr(g, name)
        before = stored(g)
        new = g.edited(gone_nodes, gone_edges, nlabel, edge)

        kept_v = {v: l for v, l in g.nlabel.items() if v not in gone_nodes}
        kept_e = {e: x for e, x in g.edge.items() if e not in gone_edges}
        assert new == graph({**kept_v, **nlabel}, {**kept_e, **edge})
        assert validate_graph(new)
        for old_map, new_map, changed in ((g.nlabel, new.nlabel, gone_nodes or nlabel), (g.edge, new.edge, gone_edges or edge)):
            assert (new_map is not old_map) if changed else (new_map is old_map)

        assert sorted_incidence(incidence_if_built(new)) == (reference_incidence(new) if "incidence" in built else None)
        gone = {"max_node_id": gone_nodes, "max_edge_id": gone_edges}
        carried = {name for name in built & gone.keys() if vars(g)[name] not in gone[name]}
        assert max_ids_if_built(new) == {name: reference_max_ids(new)[name] for name in carried}
        assert stored(g) == before


@st.composite
def edit_chains(draw) -> tuple:
    """A graph of 1,024 to 1,536 nodes and up to twice as many edges, its
    incidence index built, and up to 10 edits for :meth:`Graph.edited`, each
    as ``(gone_nodes, gone_edges, nlabel, edge)``. An edit removes up to one
    node with its edges and up to two more edges, and adds one or two nodes
    and up to two edges, each at a fresh id or at one removed by an earlier edit
    or this one; an added edge ends at a node the result holds. At that size
    the first edits make layers, and later ones may pass 1/64 of a root and
    flatten."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1024, 1536))
    g = random_graph(rng, n, 2 * n, min_nodes=n)
    g.incidence
    nodes, edges = dict(g.nlabel), dict(g.edge)
    fresh_v, fresh_e = n, len(edges)
    steps = []
    for _ in range(draw(st.integers(1, 10))):
        gone_nodes = set(draw(st.lists(st.sampled_from(sorted(nodes)), max_size=1)))
        at_gone = {e for e, (s, t, _) in edges.items() if s in gone_nodes or t in gone_nodes}
        rest = sorted(edges.keys() - at_gone)
        gone_edges = at_gone | set(draw(st.lists(st.sampled_from(rest), max_size=2)) if rest else ())
        free_v = sorted(set(range(fresh_v)) - nodes.keys() | gone_nodes) + [fresh_v, fresh_v + 1]
        nlabel = {v: draw(st.sampled_from(NODE_LABELS)) for v in draw(st.lists(st.sampled_from(free_v), min_size=1, max_size=2, unique=True))}
        fresh_v = max([fresh_v, *(v + 1 for v in nlabel)])
        for v in gone_nodes:
            del nodes[v]
        nodes.update(nlabel)
        free_e = sorted(set(range(fresh_e)) - edges.keys() | gone_edges) + [fresh_e, fresh_e + 1]
        ends = st.sampled_from(sorted(nodes))
        edge = {
            e: (draw(ends), draw(ends), draw(st.sampled_from(EDGE_LABELS)))
            for e in draw(st.lists(st.sampled_from(free_e), max_size=2, unique=True))
        }
        fresh_e = max([fresh_e, *(e + 1 for e in edge)])
        for e in gone_edges:
            del edges[e]
        edges.update(edge)
        steps.append((gone_nodes, gone_edges, nlabel, edge))
    return g, steps


def replayed(maps: tuple, gone_nodes, gone_edges, nlabel, edge) -> tuple:
    """One edit on plain dicts, the way a copy of each map takes it: the
    node-label and edge maps are copied, popped and updated; the incidence
    index is copied and patched node by node, a removed edge dropped from
    its nodes' tuples and an added one appended."""
    nodes, edges, index = (m.copy() for m in maps)
    for v in gone_nodes:
        nodes.pop(v)
        index.pop(v, None)
    nodes.update(nlabel)
    for e in gone_edges:
        s, t, _ = edges.pop(e)
        for v in {s, t}:
            if v in index:
                if rest := tuple(x for x in index[v] if x != e):
                    index[v] = rest
                else:
                    del index[v]
    edges.update(edge)
    for e, (s, t, _) in edge.items():
        for v in {s, t}:
            index[v] = index.get(v, ()) + (e,)
    return nodes, edges, index


class TestLayeredMaps:
    """A chain of :meth:`Graph.edited` calls, read item by item as it goes
    and in bulk at the end, against the same edits on copied plain dicts."""

    @settings(max_examples=60, deadline=None)
    @given(edit_chains())
    def test_reads_equal_a_plain_replay(self, chain):
        g, steps = chain
        graphs = [(g, (dict(g.nlabel), dict(g.edge), dict(g.incidence)))]
        # every id an edit touched, as an item or an endpoint, and every
        # 13th id besides: the others are all read from the root alike
        touched: set[int] = set()
        for step in steps:
            gone_nodes, gone_edges, nlabel, edge = step
            was = graphs[-1][1][1]
            touched |= gone_nodes | gone_edges | nlabel.keys() | edge.keys()
            touched.update(v for e in gone_edges for v in was[e][:2])
            touched.update(v for s, t, _ in edge.values() for v in (s, t))
            g = g.edited(*step)
            graphs.append((g, replayed(graphs[-1][1], *step)))
            nodes, edges, index = graphs[-1][1]
            top = max(max(nodes), max(edges, default=0))
            probes = touched | {-1, top + 1, top + 2} | set(range(0, top + 1, 13))
            for m, want, items in ((g.nlabel, nodes, g.nodes), (g.edge, edges, g.edges), (g.incidence, index, None)):
                assert len(m) == len(want)
                for k in probes:
                    assert (k in m) == (k in want)
                    assert m.get(k) == want.get(k) and m.get(k, "absent") == want.get(k, "absent")
                    if k in want:
                        assert m[k] == want[k]
                    else:
                        pytest.raises(KeyError, m.__getitem__, k)
                    if items is not None:
                        assert (k in items) == (k in want)
                if items is not None:
                    assert len(items) == len(want)
        assert any(type(m) is not dict for g, _ in graphs[1:] for m in (g.nlabel, g.edge, g.incidence))

        nodes, edges, index = graphs[-1][1]
        for m, want in ((g.nlabel, nodes), (g.edge, edges), (g.incidence, index)):
            assert list(m.items()) == list(want.items())
            assert list(m) == list(want) and list(m.values()) == list(want.values())
            assert m == want and want == m and not m != want and not want != m
            assert type(m.copy()) is dict and list(m.copy().items()) == list(want.items())
        for items, want in ((g.nodes, nodes.keys()), (g.edges, edges.keys())):
            some = set(list(want)[::3]) | {-1}
            for other in (some, frozenset(some), dict.fromkeys(some).keys(), want, set(want)):
                assert items - other == want - other and other - items == other - want
                assert items & other == want & other and other & items == other & want
                assert items | other == want | other and other | items == other | want
                assert items ^ other == want ^ other and other ^ items == other ^ want
                assert (items <= other, items >= other, items < other) == (want <= other, want >= other, want < other)
                assert (other <= items, other >= items, other > items) == (other <= want, other >= want, other > want)
                assert (items == other) == (want == other) == (other == items)
                assert items.isdisjoint(other) == want.isdisjoint(other)
            assert sorted(items) == sorted(want)
            for unpicklable in (items, want):
                pytest.raises(TypeError, pickle.dumps, unpicklable)
        plain = graph(nodes, edges)
        assert g == plain and plain == g
        for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert copied == plain and list(copied.nlabel.items()) == list(nodes.items())
            assert list(copied.edge.items()) == list(edges.items())
        for earlier, (nodes, edges, index) in graphs:
            assert list(earlier.nlabel.items()) == list(nodes.items())
            assert list(earlier.edge.items()) == list(edges.items())
            assert list(earlier.incidence.items()) == list(index.items())

    def test_flattened_reads_dicts_and_builds_the_index_on_the_graph(self):
        g = graph({v: "ab"[v % 2] for v in range(256)}, {e: (e, (e + 1) % 256, "x") for e in range(256)})
        assert flattened(g) is g
        s, t, label = g.edge[255]
        h = g.edited((), (0,), {}, {256: (t, s, label)})
        assert type(h.edge) is not dict and "incidence" not in vars(h)
        flat_h = flattened(h)
        assert flat_h == h and flattened(flat_h) is flat_h
        assert all(type(m) is dict for m in (flat_h.nlabel, flat_h.edge, vars(flat_h)["incidence"]))
        # the index is built on h, so an edit of h carries it
        assert vars(h)["incidence"] == vars(flat_h)["incidence"]
        assert sorted_incidence(vars(h)["incidence"]) == reference_incidence(h)
        # the matcher reads flat_h and names h as the target
        L = graph({0: h.nlabel[s], 1: h.nlabel[t]}, {0: (0, 1, label)})
        found = enumerate_morphisms(L, h)
        assert found and all(m.target is h for m in found)
        plain = graph(dict(h.nlabel), dict(h.edge))
        assert [(m.fv, m.fe) for m in found] == [(m.fv, m.fe) for m in enumerate_morphisms(L, plain)]

    def test_threads_reading_a_layer_as_it_flattens_agree(self):
        # the first bulk read publishes the flat dict in one assignment, so
        # a thread that reads while another flattens sees the layer's parts
        # or the flat dict, and reads the same entries from either; the
        # layer holds 995 edits, 985 of them removals, so that flattening
        # spans thread switches
        rng = random.Random(5)
        n = 32_000
        g = graph(dict.fromkeys(range(n), "a"), {e: (rng.randrange(n), rng.randrange(n), "x") for e in range(2 * n)})
        gone, added = set(range(0, 2 * n, 65)), {e: (e % n, (e + 1) % n, "y") for e in range(2 * n, 2 * n + 10)}
        h = g.edited((), gone, {}, added)
        assert type(h.edge) is not dict
        edges = {e: x for e, x in g.edge.items() if e not in gone} | added
        probe = sorted(gone | added.keys())
        wrong, go, flattened = [], threading.Event(), threading.Event()

        def read() -> None:
            go.wait(timeout=10)
            while not flattened.is_set():
                wrong.extend(k for k in probe if h.edge.get(k) != edges.get(k) or (k in h.edges) != (k in edges))

        def flatten() -> None:
            go.wait(timeout=10)
            wrong.extend(["bulk read"] if list(h.edge.items()) != list(edges.items()) else [])
            flattened.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(3)] + [threading.Thread(target=flatten)]
            for t in threads:
                t.start()
            go.set()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


def layered(n: int = 200):
    """A graph of ``n`` nodes and ``n - 1`` edges, and the graph it edits
    to, whose two maps are layers: edge 5 removed, node ``n`` and edge
    ``n - 1`` added."""
    g = graph({v: "ab"[v % 2] for v in range(n)}, {e: (e, e + 1, "x") for e in range(n - 1)})
    h = g.edited((), (5,), {n: "b"}, {n - 1: (n, 0, "y")})
    assert type(h.nlabel) is not dict and type(h.edge) is not dict
    return g, h


class TestReading:
    """How a graph is read: its item sets are its maps' own ``keys()``,
    whose ``in`` and ``len`` read a layer's parts, and every id-ordered
    listing is :func:`items_by_id`."""

    def test_in_and_len_on_a_layers_key_set_leave_its_edits_in_place(self):
        _, h = layered()
        # where a layer keeps its root, removed keys, added entries and size
        parts = h.nlabel._parts, h.edge._parts
        for keys in (h.nlabel.keys(), h.nodes):
            assert 200 in keys and 0 in keys and -1 not in keys and len(keys) == 201
        for keys in (h.edge.keys(), h.edges):
            assert 199 in keys and 0 in keys and 5 not in keys and len(keys) == 199
        assert h.nlabel._parts is parts[0] and h.edge._parts is parts[1]

    def test_item_sets_are_the_maps_keys_views(self):
        g, h = layered()
        for x in (g, h, graph({}), pickle.loads(pickle.dumps(h))):
            assert type(x.nodes) is type(x.nlabel.keys()) and type(x.edges) is type(x.edge.keys())
        assert type(h.nodes) is not type(g.nodes)

    def test_items_by_id_is_the_sorted_items(self):
        g, h = layered()
        for x in (g, h, graph({2: "a", 0: "b"}, {3: (2, 0, "y"), 1: (0, 0, "x")}), graph({})):
            nodes, labels, edges, ends = items_by_id(x)
            assert list(zip(nodes, labels)) == sorted(x.nlabel.items())
            assert list(zip(edges, ends)) == sorted(x.edge.items())
            assert all(type(column) is list for column in (nodes, labels, edges, ends))
        assert items_by_id(graph({2: "a", 0: "b"})) == ([0, 2], ["b", "a"], [], [])

    def test_repr_lists_items_by_id(self):
        assert repr(graph({2: "a", 0: "b"}, {3: (2, 0, "y"), 1: (0, 0, "x")})) == (
            "Graph([0:'b', 2:'a'], [1:0->0:'x', 3:2->0:'y'])"
        )
        _, h = layered()
        assert repr(h) == repr(graph(dict(h.nlabel), dict(h.edge)))


class TestRenumber:
    def test_identity_maps_give_equal_graph(self):
        g = graph({0: "a", 1: "b"}, {0: (0, 1, "x")})
        assert renumber(g, {0: 0, 1: 1}, {0: 0}) == g

    def test_shifted_ids_stay_isomorphic(self):
        g = graph({0: "a", 1: "b"}, {0: (0, 1, "x")})
        h = renumber(g, {0: 10, 1: 11}, {0: 10})
        assert validate_graph(h)
        assert is_isomorphic(g, h) is not None

    def test_witness_is_exactly_the_maps(self):
        g = graph({0: "a", 1: "a"}, {0: (0, 1, "x")})
        node_map, edge_map = {0: 4, 1: 7}, {0: 2}
        h = renumber(g, node_map, edge_map)
        m = Morphism(g, h, node_map, edge_map)
        assert validate_morphism(m)
        assert is_bijective(m)

    def test_collapsing_node_map_is_rejected(self):
        g = graph({0: "a", 1: "a"})
        with pytest.raises(PreconditionError):
            renumber(g, {0: 5, 1: 5}, {})

    def test_partial_map_is_rejected(self):
        g = graph({0: "a", 1: "a"})
        with pytest.raises(PreconditionError):
            renumber(g, {0: 1}, {})


class TestIsIsomorphic:
    def test_single_nodes_with_different_labels(self):
        assert is_isomorphic(graph({0: "a"}), graph({0: "b"})) is None

    def test_self_iso_gives_identity_witness(self):
        g = graph({0: "a", 1: "b"}, {0: (0, 1, "x")})
        w = is_isomorphic(g, g)
        assert w is not None
        assert w.node_map == {0: 0, 1: 1}
        assert w.edge_map == {0: 0}

    def test_witness_is_a_bijective_morphism(self):
        g = graph({0: "a", 1: "a", 2: "b"}, {0: (0, 1, "x"), 1: (1, 2, "y")})
        h = renumber(g, {0: 2, 1: 0, 2: 1}, {0: 1, 1: 0})
        w = is_isomorphic(g, h)
        assert w is not None
        m = Morphism(g, h, w.node_map, w.edge_map)
        assert validate_morphism(m)
        assert is_bijective(m)

    def test_parallel_edge_multiplicity_matters(self):
        g = graph({0: "a", 1: "a"}, {0: (0, 1, "x"), 1: (0, 1, "x")})
        h = graph({0: "a", 1: "a"}, {0: (0, 1, "x"), 1: (1, 0, "x")})
        assert is_isomorphic(g, h) is None

    def test_random_permutations_are_recovered(self):
        rng = random.Random(7)
        for _ in range(60):
            g = random_graph(rng, max_nodes=5, max_edges=6)
            nodes = sorted(g.nodes)
            edges = sorted(g.edges)
            shuffled_nodes = nodes[:]
            shuffled_edges = edges[:]
            rng.shuffle(shuffled_nodes)
            rng.shuffle(shuffled_edges)
            h = renumber(g, dict(zip(nodes, shuffled_nodes)), dict(zip(edges, shuffled_edges)))
            assert is_isomorphic(g, h) is not None

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_reflexive(self, g):
        assert is_isomorphic(g, g) is not None

    @settings(max_examples=60, deadline=None)
    @given(graphs(), graphs())
    def test_symmetric_and_agrees_with_brute_force(self, g, h):
        forward = is_isomorphic(g, h)
        backward = is_isomorphic(h, g)
        assert (forward is None) == (backward is None)
        assert (forward is not None) == brute_force_isomorphic(g, h)


def sparse_host(rng: random.Random, n: int, m: int):
    """n nodes labelled a, b, c in turn and m uniformly random edges."""
    return graph(
        {v: "abc"[v % 3] for v in range(n)},
        {e: (rng.randrange(n), rng.randrange(n), rng.choice("xy")) for e in range(m)},
    )


def tree_host(rng: random.Random, n: int):
    """n randomly labelled nodes, an edge from each node to an earlier one,
    and n more random edges.

    Every node but 0 has a lower-numbered neighbour, so the search, which
    takes g's nodes in ascending order, always extends along an edge. On
    :func:`sparse_host` graphs of this size the unguided backtracking can
    run for minutes (ROADMAP direction 4).
    """
    nodes = {v: rng.choice("abc") for v in range(n)}
    edges = {}
    for v in range(1, n):
        u = rng.randrange(v)
        edges[len(edges)] = (u, v, rng.choice("xy")) if rng.random() < 0.5 else (v, u, rng.choice("xy"))
    for _ in range(n):
        edges[len(edges)] = (rng.randrange(n), rng.randrange(n), rng.choice("xy"))
    return graph(nodes, edges)


def shuffled(rng: random.Random, g):
    nodes, edges = sorted(g.nodes), sorted(g.edges)
    new_nodes, new_edges = nodes[:], edges[:]
    rng.shuffle(new_nodes)
    rng.shuffle(new_edges)
    return renumber(g, dict(zip(nodes, new_nodes)), dict(zip(edges, new_edges)))


def swapped_labels(rng: random.Random, g):
    """g with the labels of one x-edge and one y-edge exchanged: node
    signatures and label counts stay the same, so only the search can tell
    the two apart."""
    a = rng.choice(sorted(e for e in g.edges if g.edge[e][2] == "x"))
    b = rng.choice(sorted(e for e in g.edges if g.edge[e][2] == "y"))
    return with_edge_labels(g, {a: "y", b: "x"})


def networkx_isomorphic(g, h) -> bool:
    def to_nx(x):
        m = nx.MultiDiGraph()
        m.add_nodes_from((v, {"label": x.nlabel[v]}) for v in x.nodes)
        m.add_edges_from((s, t, e, {"label": label}) for e, (s, t, label) in x.edge.items())
        return m

    def same_label_multiset(a: dict, b: dict) -> bool:
        return Counter(d["label"] for d in a.values()) == Counter(d["label"] for d in b.values())

    return MultiDiGraphMatcher(
        to_nx(g), to_nx(h),
        node_match=categorical_node_match("label", None),
        edge_match=same_label_multiset,
    ).is_isomorphic()


# the witness is_isomorphic returned for the pair built in
# test_witness_of_a_symmetric_pair_is_pinned, as images of 0, 1, 2, ...
PINNED_NODE_IMAGES = [
    45, 20, 57, 55, 56, 19, 1, 14, 28, 32, 46, 48, 51, 22, 6, 41, 17, 39, 12, 18,
    26, 24, 9, 43, 54, 30, 37, 5, 0, 16, 50, 33, 36, 42, 31, 29, 8, 35, 25, 7, 10,
    4, 49, 27, 44, 13, 3, 58, 23, 21, 11, 53, 2, 47, 34, 59, 40, 38, 52, 15,
]
PINNED_EDGE_IMAGES = [
    41, 75, 55, 26, 15, 8, 20, 24, 35, 6, 37, 33, 57, 32, 53, 89, 54, 85, 45, 50,
    79, 40, 2, 56, 51, 78, 22, 38, 80, 25, 31, 39, 0, 77, 13, 81, 68, 62, 76, 16,
    58, 27, 73, 43, 63, 11, 59, 61, 65, 64, 42, 10, 3, 71, 46, 66, 30, 72, 18, 44,
    36, 48, 83, 52, 28, 88, 4, 87, 12, 14, 74, 60, 5, 1, 7, 9, 49, 86, 21, 19, 23,
    34, 47, 69, 82, 29, 17, 84, 70, 67,
]


class TestIsIsomorphicAgainstNetworkx:
    @pytest.mark.parametrize("n", [100, 200, 300])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["shuffled", "swapped"])
    def test_verdict_and_witness(self, kind, seed, n):
        rng = random.Random(f"{kind}:{n}:{seed}")
        g = tree_host(rng, n)
        h = shuffled(rng, g if kind == "shuffled" else swapped_labels(rng, g))
        w = is_isomorphic(g, h)
        assert (w is not None) == networkx_isomorphic(g, h)
        assert (w is not None) == (kind == "shuffled")
        if w is not None:
            assert morphism_axioms_ok(g, h, w.node_map, w.edge_map)
            back_v = {x: v for v, x in w.node_map.items()}
            back_e = {x: e for e, x in w.edge_map.items()}
            assert len(back_v) == len(h.nodes) and len(back_e) == len(h.edges)
            assert morphism_axioms_ok(h, g, back_v, back_e)

    def test_witness_of_a_symmetric_pair_is_pinned(self):
        # g has 24 automorphisms, so which witness comes back depends on the
        # order of the search; the lists were recorded before the search
        # switched to neighbour-local checks
        rng = random.Random(6)
        g = sparse_host(rng, 60, 90)
        h = shuffled(rng, g)
        w = is_isomorphic(g, h)
        assert w is not None
        assert [w.node_map[v] for v in range(60)] == PINNED_NODE_IMAGES
        assert [w.edge_map[e] for e in range(90)] == PINNED_EDGE_IMAGES


@st.composite
def bundled_graphs(draw) -> Graph:
    """Up to 6 nodes labelled a or b, and up to 5 bundles of 1-3 edges, each
    bundle on one ordered node pair with labels drawn from x, y, z: parallel
    edges of mixed labels, and loops carrying two labels."""
    n = draw(st.integers(1, 6))
    nodes = {v: draw(st.sampled_from("ab")) for v in range(n)}
    edges = {}
    for _ in range(draw(st.integers(0, 5))):
        s, t = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        for label in draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3)):
            edges[len(edges)] = (s, t, label)
    return graph(nodes, edges)


@st.composite
def iso_candidate_pairs(draw) -> tuple[Graph, Graph]:
    """A bundled graph and a renumbered copy of it, left as it is, with one
    edge flipped, or with the labels of two edges swapped; or a second,
    independent draw."""
    g = draw(bundled_graphs())
    kind = draw(st.sampled_from(["shuffled", "flipped", "swapped", "independent"]))
    if kind == "independent":
        return g, draw(bundled_graphs())
    changed = g
    if kind == "flipped" and g.edges:
        e = draw(st.sampled_from(sorted(g.edges)))
        s, t, label = g.edge[e]
        changed = Graph(g.nodes, g.edges, g.nlabel, {**g.edge, e: (t, s, label)})
    elif kind == "swapped" and g.edges:
        e, f = draw(st.sampled_from(sorted(g.edges))), draw(st.sampled_from(sorted(g.edges)))
        changed = with_edge_labels(g, {e: g.edge[f][2], f: g.edge[e][2]})
    nodes, edges = sorted(g.nodes), sorted(g.edges)
    # new ids drawn from 0-40, so the copy's ids need not follow the original's order
    new_nodes = draw(st.lists(st.integers(0, 40), min_size=len(nodes), max_size=len(nodes), unique=True))
    new_edges = draw(st.lists(st.integers(0, 40), min_size=len(edges), max_size=len(edges), unique=True))
    return g, renumber(changed, dict(zip(nodes, new_nodes)), dict(zip(edges, new_edges)))


class TestEdgeLabelKeys:
    """Each ordered node pair is keyed by its sorted edge labels; two keys
    are equal exactly when the pairs' edge-label multisets are."""

    @settings(max_examples=400, deadline=None)
    @given(iso_candidate_pairs())
    @example((
        graph({0: "a"}, {0: (0, 0, "x"), 1: (0, 0, "y")}),
        graph({5: "a"}, {3: (5, 5, "y"), 8: (5, 5, "x")}),
    ))
    @example((
        graph({0: "a", 1: "a"}, {0: (0, 1, "x"), 1: (0, 1, "y"), 2: (1, 1, "x"), 3: (1, 1, "y")}),
        graph({0: "a", 1: "a"}, {0: (0, 1, "x"), 1: (0, 1, "x"), 2: (1, 1, "y"), 3: (1, 1, "y")}),
    ))
    def test_keys_are_equal_exactly_when_multisets_are(self, pair):
        entries = []
        for x in pair:
            keys, counters = _edge_label_index(x)[0], pair_label_index(x)
            assert keys.keys() == counters.keys()
            entries += [(keys[p], counters[p]) for p in keys]
        for (k1, c1), (k2, c2) in itertools.product(entries, repeat=2):
            assert (k1 == k2) == (c1 == c2)

    @settings(max_examples=200, deadline=None)
    @given(iso_candidate_pairs())
    def test_symmetric_and_agrees_with_brute_force(self, pair):
        g, h = pair
        forward = is_isomorphic(g, h)
        assert (forward is None) == (is_isomorphic(h, g) is None)
        assert (forward is not None) == brute_force_isomorphic(g, h)


class TestIsIsomorphicTellsApartEqualSignatures:
    """Pairs with the same node signatures and edge-label counts that are
    not isomorphic: only the search can tell them apart."""

    def test_two_triangles_against_a_hexagon(self):
        assert is_isomorphic(TWO_TRIANGLES, HEXAGON) is None
        assert is_isomorphic(HEXAGON, TWO_TRIANGLES) is None

    def test_mixed_parallel_pairs_against_pure_ones(self):
        assert is_isomorphic(MIXED_PAIRS, PURE_PAIRS) is None
        assert is_isomorphic(PURE_PAIRS, MIXED_PAIRS) is None

    def test_label_multiplicities_on_equal_label_sets(self):
        # every pair carries labels {x, y}; the a-pair has two x in g, one in h
        g = graph({0: "a", 1: "a", 2: "b", 3: "b"}, {
            0: (0, 1, "x"), 1: (0, 1, "x"), 2: (0, 1, "y"), 3: (2, 3, "x"), 4: (2, 3, "y"), 5: (2, 3, "y"),
        })
        h = with_edge_labels(g, {1: "y", 4: "x"})
        assert is_isomorphic(g, h) is None

    def test_each_pair_is_isomorphic_to_a_renumbered_copy_of_itself(self):
        for g in (TWO_TRIANGLES, HEXAGON, MIXED_PAIRS, PURE_PAIRS):
            nodes, edges = sorted(g.nodes), sorted(g.edges)
            h = renumber(g, dict(zip(nodes, reversed(nodes))), dict(zip(edges, reversed(edges))))
            assert is_isomorphic(g, h) is not None


def garbage_after(call) -> int:
    """The objects the cycle collector finds after ``call()``, run with
    automatic collection off: what reference counting did not free."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


class TestIsIsomorphicLeavesNoGarbage:
    """The search state is freed when the call returns or raises, not left
    as a reference cycle for the collector."""

    def test_after_a_witness_is_found(self):
        rng = random.Random(6)
        g = sparse_host(rng, 60, 90)
        h = shuffled(rng, g)
        assert garbage_after(lambda: is_isomorphic(g, h)) == 0

    def test_after_the_search_fails(self):
        rng = random.Random(1)
        g = tree_host(rng, 100)
        h = shuffled(rng, swapped_labels(rng, g))
        assert garbage_after(lambda: is_isomorphic(g, h)) == 0

    def test_after_the_recursion_limit_is_hit(self):
        n = sys.getrecursionlimit() + 100
        path = graph({v: "a" for v in range(n)}, {v: (v, v + 1, "x") for v in range(n - 1)})

        def call():
            with pytest.raises(RecursionError):
                is_isomorphic(path, path)

        assert garbage_after(call) == 0
