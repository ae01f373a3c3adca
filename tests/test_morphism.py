import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpo.errors import PreconditionError
from dpo.graph import failure, graph
from dpo.morphism import (
    Morphism,
    compose,
    enumerate_morphisms,
    identity,
    inclusion,
    is_injective,
    morphisms_agree,
    validate_morphism,
)

from .generators import random_embedding, random_graph, random_morphism_into
from .oracles import (
    brute_force_morphism_count,
    incidence_if_built,
    invert,
    is_bijective,
    is_inclusion,
    is_surjective,
    morphism_axioms_ok,
    reference_enumerate_morphisms,
    reference_validate_morphism,
    renumber,
)
from .strategies import graphs

A2 = graph({0: "a", 1: "a"}, {0: (0, 1, "x")})


class TestValidateMorphism:
    def test_identity_is_ok(self):
        assert validate_morphism(identity(A2))

    def test_label_clash_is_clause_3(self):
        g = graph({0: "a"})
        h = graph({0: "b"})
        report = validate_morphism(Morphism(g, h, {0: 0}, {}))
        assert any(v.clause == "node label not preserved" for v in report.violations)

    def test_map_keys_outside_the_source_are_reported(self):
        g = graph({})
        report = validate_morphism(Morphism(g, graph({0: "a"}), {5: 0}, {7: 0}))
        assert [(v.clause, v.item) for v in report.violations] == [
            ("fv defined outside source nodes", ("node", 5)),
            ("fe defined outside source edges", ("edge", 7)),
        ]

    def test_broken_source_preservation_is_clause_1(self):
        g = graph({0: "a", 1: "a"}, {0: (0, 1, "x")})
        h = graph({0: "a", 1: "a", 2: "a"}, {0: (2, 1, "x")})
        report = validate_morphism(Morphism(g, h, {0: 0, 1: 1}, {0: 0}))
        assert any(v.clause == "source not preserved" for v in report.violations)


@st.composite
def inclusions(draw) -> Morphism:
    """The identity inclusion of a subgraph, often with one change: a label
    or an endpoint of the target changed, a map entry moved, dropped or
    added, or a target edge with an end outside the subgraph added to it."""
    h = draw(graphs(max_nodes=5, max_edges=6))
    nodes = {v: h.nlabel[v] for v in h.nodes if draw(st.booleans())}
    edges = {
        e: h.edge[e]
        for e in sorted(h.edges)
        if h.edge[e][0] in nodes and h.edge[e][1] in nodes and draw(st.booleans())
    }
    g = graph(nodes, edges)
    m = inclusion(g, h)
    fv, fe = dict(m.fv), dict(m.fe)
    kind = draw(st.sampled_from(["none", "label", "endpoint", "move", "drop", "add", "dangling"]))
    if kind == "label" and h.nodes:
        v = draw(st.sampled_from(sorted(h.nodes)))
        h = graph({**h.nlabel, v: "c"}, {e: h.edge[e] for e in h.edges})
    elif kind == "endpoint" and h.edges:
        e = draw(st.sampled_from(sorted(h.edges)))
        ends = {x: h.edge[x] for x in h.edges}
        ends[e] = (draw(st.sampled_from(sorted(h.nodes))), h.edge[e][1], h.edge[e][2])
        h = graph(h.nlabel, ends)
    elif kind == "move" and fe and draw(st.booleans()):
        fe[draw(st.sampled_from(sorted(fe)))] = draw(st.sampled_from(sorted(h.edges)))
    elif kind == "move" and fv:
        fv[draw(st.sampled_from(sorted(fv)))] = draw(st.sampled_from(sorted(h.nodes)))
    elif kind == "drop" and (fv or fe):
        f = fe if fe and draw(st.booleans()) else fv
        if f:
            del f[draw(st.sampled_from(sorted(f)))]
    elif kind == "add":
        (fe if draw(st.booleans()) else fv)[draw(st.integers(0, 9))] = draw(st.integers(0, 9))
    elif kind == "dangling":
        outside = sorted(e for e in h.edges if e not in edges and not set(h.edge[e][:2]) <= nodes.keys())
        if outside:
            e = draw(st.sampled_from(outside))
            g = graph(nodes, {**edges, e: h.edge[e]})
            fe[e] = e
    return Morphism(g, h, fv, fe)


class TestValidateMorphismAgainstTheLoop:
    """An identity inclusion passes by whole-set tests; any other map runs
    the loop, kept in ``tests/oracles.py``. The reports must be the same."""

    @settings(max_examples=400, deadline=None)
    @given(inclusions())
    def test_inclusions_with_one_change(self, m):
        assert validate_morphism(m) == reference_validate_morphism(m)

    def test_random_morphisms(self):
        rng = random.Random(17)
        for _ in range(300):
            m = random_morphism_into(rng, random_graph(rng))
            assert validate_morphism(m) == reference_validate_morphism(m)


class TestCompose:
    def test_identity_law(self):
        m = enumerate_morphisms(graph({0: "a"}), A2)[0]
        assert morphisms_agree(compose(identity(A2), m), m)
        assert morphisms_agree(compose(m, identity(graph({0: "a"}))), m)

    def test_singleton_chain(self):
        g0 = graph({0: "a"})
        g1 = graph({1: "a"})
        g2 = graph({2: "a"})
        f = Morphism(g0, g1, {0: 1}, {})
        g = Morphism(g1, g2, {1: 2}, {})
        assert compose(g, f).fv == {0: 2}

    def test_middle_graph_mismatch_raises(self):
        f = Morphism(graph({0: "a"}), A2, {0: 0}, {})
        with pytest.raises(PreconditionError):
            compose(f, f)

    def test_random_composites_are_valid(self):
        rng = random.Random(3)
        for _ in range(200):
            k = random_graph(rng, max_nodes=6, max_edges=6)
            g = random_morphism_into(rng, k, max_nodes=6, max_edges=6)
            f = random_morphism_into(rng, g.source, max_nodes=6, max_edges=6)
            gf = compose(g, f)
            assert validate_morphism(gf)
            assert morphism_axioms_ok(gf.source, gf.target, gf.fv, gf.fe)

    def test_composition_preserves_injective_and_surjective(self):
        rng = random.Random(11)
        for _ in range(60):
            k = random_graph(rng, max_nodes=4, max_edges=3, min_nodes=1)
            b = random_embedding(rng, k, 2, 2)
            c = random_embedding(rng, b.target, 2, 2)
            assert is_injective(compose(c, b))
        for _ in range(40):
            g = random_graph(rng, max_nodes=3, max_edges=2)
            assert is_surjective(compose(identity(g), identity(g)))


class TestPredicates:
    def test_identity_is_bijective(self):
        i = identity(A2)
        assert is_injective(i) and is_surjective(i) and is_bijective(i)
        assert is_inclusion(i)

    def test_inclusion_is_injective_not_surjective(self):
        g = graph({0: "a"})
        m = Morphism(g, A2, {0: 0}, {})
        assert is_injective(m)
        assert not is_surjective(m)

    def test_fold_is_surjective_not_injective(self):
        g = graph({0: "a", 1: "a"})
        h = graph({0: "a"})
        m = Morphism(g, h, {0: 0, 1: 0}, {})
        assert is_surjective(m)
        assert not is_injective(m)


class TestInvert:
    def test_identity_inverts_to_itself(self):
        i = identity(A2)
        assert morphisms_agree(invert(i), i)

    def test_swap_is_an_involution(self):
        g = graph({0: "a", 1: "a"})
        swap = Morphism(g, g, {0: 1, 1: 0}, {})
        assert morphisms_agree(invert(swap), swap)

    def test_round_trips_are_identities(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng, max_nodes=5, max_edges=5)
            nodes, edges = sorted(g.nodes), sorted(g.edges)
            nm = dict(zip(nodes, rng.sample(range(10), len(nodes))))
            em = dict(zip(edges, rng.sample(range(10), len(edges))))
            h = renumber(g, nm, em)
            m = Morphism(g, h, nm, em)
            assert morphisms_agree(compose(invert(m), m), identity(g))
            assert morphisms_agree(compose(m, invert(m)), identity(h))

    def test_non_bijective_raises(self):
        m = Morphism(graph({0: "a"}), A2, {0: 0}, {})
        with pytest.raises(PreconditionError):
            invert(m)


class TestMorphismsAgree:
    def test_reflexive(self):
        m = identity(A2)
        assert morphisms_agree(m, m)

    def test_detects_single_node_difference(self):
        g = graph({0: "a"})
        h = graph({0: "a", 1: "a"})
        assert not morphisms_agree(Morphism(g, h, {0: 0}, {}), Morphism(g, h, {0: 1}, {}))

    def test_names_the_least_node_then_the_least_edge_mapped_apart(self):
        g = graph({0: "a", 1: "a", 2: "a"}, {0: (0, 1, "x"), 1: (1, 2, "x")})
        h = graph({0: "a", 1: "a", 2: "a"}, {0: (0, 1, "x"), 1: (1, 2, "x"), 2: (0, 1, "x"), 3: (1, 2, "x")})
        m = Morphism(g, h, {0: 0, 1: 1, 2: 2}, {0: 0, 1: 1})
        edges_apart = Morphism(g, h, m.fv, {0: 2, 1: 3})
        assert morphisms_agree(m, edges_apart) == failure("maps differ", ("edge", 0))
        swapped = graph({0: "a", 1: "a", 2: "a"})
        flip = Morphism(swapped, swapped, {0: 2, 1: 1, 2: 0}, {})
        assert morphisms_agree(identity(swapped), flip) == failure("maps differ", ("node", 0))

    def test_endpoint_mismatch_raises(self):
        with pytest.raises(PreconditionError):
            morphisms_agree(identity(A2), identity(graph({0: "a"})))

    def test_associativity_on_random_triples(self):
        rng = random.Random(17)
        for _ in range(50):
            k = random_graph(rng, max_nodes=4, max_edges=4)
            h = random_morphism_into(rng, k, 4, 4)
            g = random_morphism_into(rng, h.source, 4, 4)
            f = random_morphism_into(rng, g.source, 4, 4)
            assert morphisms_agree(compose(h, compose(g, f)), compose(compose(h, g), f))


class TestEnumerateMorphisms:
    def test_empty_source_has_exactly_the_empty_morphism(self):
        out = enumerate_morphisms(graph({}), A2)
        assert len(out) == 1
        assert out[0].fv == {} and out[0].fe == {}

    def test_edge_with_a_missing_endpoint_has_no_morphism(self):
        ill_formed = graph({0: "a"}, {0: (0, 9, "x")})
        assert enumerate_morphisms(ill_formed, graph({0: "a"}, {0: (0, 0, "x")})) == []

    def test_single_node_into_two_like_nodes(self):
        out = enumerate_morphisms(graph({0: "a"}), graph({0: "a", 1: "a"}))
        assert len(out) == 2

    def test_loop_into_parallel_loops(self):
        g = graph({0: "a"}, {0: (0, 0, "x")})
        h = graph({0: "a"}, {0: (0, 0, "x"), 1: (0, 0, "x")})
        assert len(enumerate_morphisms(g, h)) == 2

    def test_deterministic_order_and_no_duplicates(self):
        g = graph({0: "a"}, {0: (0, 0, "x")})
        h = graph({0: "a"}, {0: (0, 0, "x"), 1: (0, 0, "x")})
        out = enumerate_morphisms(g, h)
        assert out == enumerate_morphisms(g, h)
        seen = {(tuple(sorted(m.fv.items())), tuple(sorted(m.fe.items()))) for m in out}
        assert len(seen) == len(out)

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_nodes=3, max_edges=3), graphs(max_nodes=3, max_edges=3))
    def test_matches_brute_force_count(self, g, h):
        found = enumerate_morphisms(g, h)
        assert all(validate_morphism(m) and is_injective(m) for m in found)
        assert len(found) == brute_force_morphism_count(g, h)

    @settings(max_examples=300, deadline=None)
    @given(graphs(max_nodes=4, max_edges=4), graphs(max_nodes=5, max_edges=7))
    @example(graph({}), graph({0: "a"}, {0: (0, 0, "x")}))
    @example(graph({0: "a", 1: "b"}), graph({0: "b", 1: "a", 2: "a"}))
    @example(
        graph({0: "a", 1: "a"}, {0: (0, 0, "x"), 1: (0, 1, "y"), 2: (0, 1, "y")}),
        graph({0: "a", 1: "a"}, {0: (0, 1, "y"), 1: (0, 0, "x"), 2: (0, 1, "y"), 3: (0, 0, "x")}),
    )
    def test_equals_the_reference_list_in_order(self, g, h):
        # empty, disconnected and looped sources, and parallel edges on both
        # sides, are among the draws; the examples pin one of each
        assert enumerate_morphisms(g, h) == reference_enumerate_morphisms(g, h, injective_only=True)

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_nodes=4, max_edges=4), graphs(max_nodes=5, max_edges=7))
    # a one-edge component with a loop, beside parallel loops, a non-loop
    # edge and a loop of another label
    @example(
        graph({0: "a"}, {0: (0, 0, "x")}),
        graph({0: "a", 1: "a"}, {3: (1, 1, "x"), 0: (0, 1, "x"), 1: (1, 1, "x"), 2: (0, 0, "x"), 4: (0, 0, "y")}),
    )
    # parallel host edges on the matched pair, listed in descending id
    @example(
        graph({0: "a", 1: "b"}, {0: (0, 1, "x")}),
        graph({0: "a", 1: "b", 2: "b"}, {4: (0, 1, "x"), 3: (0, 2, "x"), 1: (0, 1, "x"), 0: (1, 0, "x"), 2: (0, 1, "y")}),
    )
    # an isolated pattern node beside a one-edge component
    @example(
        graph({0: "b", 1: "a", 2: "b"}, {0: (1, 0, "x")}),
        graph({0: "a", 1: "b", 2: "b", 3: "a"}, {0: (0, 1, "x"), 1: (3, 2, "x"), 2: (0, 2, "y")}),
    )
    # two components competing for the same nodes: two alike edges, which
    # share their groups, and then one edge and a two-edge path
    @example(
        graph({0: "a", 1: "a", 2: "a", 3: "a"}, {0: (0, 1, "x"), 1: (2, 3, "x")}),
        graph({v: "a" for v in range(5)}, {0: (0, 1, "x"), 1: (1, 2, "x"), 2: (2, 3, "x"), 3: (3, 4, "x"), 4: (4, 0, "x")}),
    )
    @example(
        graph({0: "a", 1: "a", 2: "a", 3: "a", 4: "a"}, {0: (0, 1, "x"), 1: (2, 3, "x"), 2: (3, 4, "x")}),
        graph({v: "a" for v in range(5)}, {0: (0, 1, "x"), 1: (1, 2, "x"), 2: (2, 3, "x"), 3: (3, 4, "x"), 4: (4, 0, "x")}),
    )
    # a seed edge with a loop at its target: the host has fewer pairs for
    # the edge than loops, so the edge is the seed and the loop is checked
    @example(
        graph({0: "a", 1: "a"}, {0: (0, 1, "x"), 1: (1, 1, "x")}),
        graph({0: "a", 1: "a", 2: "a"}, {3: (1, 1, "x"), 0: (0, 1, "x"), 1: (2, 1, "x"), 4: (2, 2, "x"), 5: (0, 0, "x")}),
    )
    # two parallel pattern edges of different labels
    @example(
        graph({0: "a", 1: "b"}, {0: (0, 1, "x"), 1: (0, 1, "y")}),
        graph({0: "a", 1: "b", 2: "b"}, {2: (0, 1, "y"), 0: (0, 1, "x"), 1: (0, 2, "x"), 3: (0, 1, "x"), 4: (0, 2, "y")}),
    )
    # a two-edge path beside a lone node
    @example(
        graph({0: "a", 1: "b", 2: "a", 3: "b"}, {0: (0, 1, "x"), 1: (1, 2, "x")}),
        graph({0: "a", 1: "b", 2: "a", 3: "b", 4: "a"}, {1: (2, 1, "x"), 0: (0, 1, "x"), 2: (4, 3, "x"), 3: (3, 2, "x")}),
    )
    def test_equals_the_reference_on_a_fresh_an_indexed_and_a_layered_host(self, g, h):
        # h padded with 128 nodes, each with a loop, of a label no pattern
        # uses, so that an edit of it returns layers: a padding node and its
        # loop removed and put back leave the same graph
        n, m = max(h.nodes, default=-1) + 1, max(h.edges, default=-1) + 1
        nlabel = {**h.nlabel, **{n + i: "p" for i in range(128)}}
        edge = {**h.edge, **{m + i: (n + i, n + i, "p") for i in range(128)}}
        fresh, indexed, base = graph(nlabel, edge), graph(nlabel, edge), graph(nlabel, edge)
        indexed.incidence
        layered = base.edited({n}, {m}, {n: "p"}, {m: edge[m]})
        assert type(layered.nlabel) is not dict and type(layered.edge) is not dict
        for host in (fresh, indexed, layered):
            found = enumerate_morphisms(g, host)
            assert found == reference_enumerate_morphisms(g, host, injective_only=True)
            assert all(m.target is host for m in found)
        # no pattern reads or builds the host's index
        assert incidence_if_built(fresh) is None and incidence_if_built(layered) is None

    def test_a_long_path_maps_onto_itself_by_the_identity_only(self):
        # one search position per node: a recursive search exceeds the
        # interpreter's recursion limit here
        n = 2000
        path = graph({v: f"n{v}" for v in range(n)}, {e: (e, e + 1, "x") for e in range(n - 1)})
        assert enumerate_morphisms(path, path) == [identity(path)]
