import copy
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpo.constructions import dangling_edges, deletion, gluing, pullback_construct
from dpo.diagrams import (
    Square,
    commutes,
    is_pullback,
    is_pushout_injective,
    jointly_surjective,
    reduced_chain_condition,
)
from dpo.errors import (
    DanglingConditionError,
    DependentDerivationsError,
    FormatError,
    InternalConsistencyError,
    PreconditionError,
)
from dpo.graph import failure, graph, incidence_if_built, is_isomorphic, validate_graph
from dpo.morphism import (
    Morphism,
    identity,
    is_injective,
    validate_morphism,
)

from .generators import random_cospan, random_embedding, random_graph, random_rule_with_match, random_span
from .oracles import (
    brute_force_pullback,
    is_bijective,
    is_inclusion,
    is_surjective,
    max_ids_if_built,
    reference_dangling_edges,
    reference_deletion,
    reference_gluing,
    reference_incidence,
    reference_max_ids,
    sorted_incidence,
)
from .strategies import cospans, rules_with_matches


def gluing_square(b, d, result) -> Square:
    return Square(ab=b, ac=d, bd=result.h, cd=result.c)


class TestGluing:
    def test_empty_interface_gives_disjoint_union(self):
        k = graph({})
        d_graph = graph({0: "a"})
        r_graph = graph({0: "b"})
        result = gluing(Morphism(k, r_graph, {}, {}), Morphism(k, d_graph, {}, {}))
        assert len(result.H.nodes) == 2
        assert len(result.H.edges) == 0
        assert sorted(result.H.nlabel.values()) == ["a", "b"]

    def test_loop_transplanted_through_interface(self):
        # the new loop's endpoint routes through the interface inverse
        k = graph({0: "a"})
        r = graph({1: "a"}, {0: (1, 1, "x")})
        d = graph({7: "a"})
        result = gluing(Morphism(k, r, {0: 1}, {}), Morphism(k, d, {0: 7}, {}))
        assert result.H.nodes == frozenset({7})
        (loop,) = result.H.edges
        assert result.H.edge[loop][0] == 7 and result.H.edge[loop][1] == 7
        assert result.H.edge[loop][2] == "x"
        assert is_pushout_injective(
            gluing_square(Morphism(k, r, {0: 1}, {}), Morphism(k, d, {0: 7}, {}), result)
        )

    def test_identity_interface_changes_nothing(self):
        rng = random.Random(2)
        for _ in range(20):
            k = random_graph(rng, 4, 4)
            d = random_embedding(rng, k, 2, 2)
            result = gluing(identity(k), d)
            assert is_isomorphic(result.H, d.target) is not None
            assert is_bijective(result.c)

    def test_non_injective_input_rejected(self):
        k = graph({0: "a", 1: "a"})
        r = graph({0: "a"})
        fold = Morphism(k, r, {0: 0, 1: 0}, {})
        with pytest.raises(PreconditionError):
            gluing(fold, identity(k))

    @pytest.mark.parametrize(
        "b, d, message",
        [
            (identity(graph({0: "a"})), Morphism(graph({}), graph({0: "a"}), {}, {}),
             "gluing: b and d must share their source graph"),
            (identity(graph({0: "a", 1: "a"})), Morphism(graph({0: "a", 1: "a"}), graph({0: "a"}), {0: 0, 1: 0}, {}),
             "gluing: d is not injective"),
        ],
        ids=["two sources", "d not injective"],
    )
    def test_a_span_it_cannot_glue_raises(self, b, d, message):
        with pytest.raises(PreconditionError) as raised:
            gluing(b, d)
        assert str(raised.value) == message

    def test_random_spans_satisfy_the_construction_contract(self):
        rng = random.Random(13)
        for _ in range(60):
            b, d = random_span(rng)
            result = gluing(b, d)
            assert validate_graph(result.H)
            assert validate_morphism(result.h)
            assert validate_morphism(result.c)
            assert is_inclusion(result.c)
            assert is_injective(result.h) and is_injective(result.c)
            sq = gluing_square(b, d, result)
            assert commutes(sq)
            assert reduced_chain_condition(sq)
            assert jointly_surjective(result.h, result.c)
            assert is_pushout_injective(sq)
            assert is_pullback(sq)

    def test_surjective_interface_gives_surjective_inclusion(self):
        rng = random.Random(19)
        for _ in range(30):
            b, d = random_span(rng, surjective_b=True)
            result = gluing(b, d)
            assert is_surjective(b)
            assert is_surjective(result.c)


class TestDeletion:
    def test_identity_rule_deletes_nothing(self):
        g = graph({0: "a", 1: "b"}, {0: (0, 1, "x")})
        result = deletion(identity(g), identity(g))
        assert result.D == g
        assert is_inclusion(result.c)

    def test_single_matched_node_is_removed(self):
        l = graph({0: "a"})
        g = graph({5: "a"})
        result = deletion(Morphism(graph({}), l, {}, {}), Morphism(l, g, {0: 5}, {}))
        assert result.D == graph({})

    def test_node_with_loop_fully_matched(self):
        l = graph({0: "a"}, {0: (0, 0, "x")})
        g = graph({3: "a"}, {9: (3, 3, "x")})
        b = Morphism(graph({}), l, {}, {})
        m = Morphism(l, g, {0: 3}, {0: 9})
        result = deletion(b, m)
        assert result.D == graph({})
        assert is_pushout_injective(Square(ab=b, ac=result.d, bd=m, cd=result.c))

    @pytest.mark.parametrize(
        "rule_left, match, message",
        [
            (identity(graph({0: "a"})), identity(graph({0: "b"})),
             "deletion: rule_left.target differs from match.source"),
            (Morphism(graph({0: "a", 1: "a"}), graph({0: "a"}), {0: 0, 1: 0}, {}), identity(graph({0: "a"})),
             "deletion: rule_left is not injective"),
        ],
        ids=["L differs", "rule_left not injective"],
    )
    def test_a_rule_and_match_it_cannot_delete_with_raise(self, rule_left, match, message):
        with pytest.raises(PreconditionError) as raised:
            deletion(rule_left, match)
        assert str(raised.value) == message

    def test_dangling_violation_names_the_edges(self):
        l = graph({0: "a"})
        g = graph({0: "a", 1: "b"}, {4: (0, 1, "x")})
        b = Morphism(graph({}), l, {}, {})
        m = Morphism(l, g, {0: 0}, {})
        assert dangling_edges(b, m) == [4]
        with pytest.raises(DanglingConditionError) as exc:
            deletion(b, m)
        assert exc.value.edges == (4,)

    @pytest.mark.parametrize(
        "cls, clause, item, message",
        [
            pytest.param(*case, id=case[0].__name__)
            for case in (
                (DanglingConditionError, "dangling edges", (1, 3), "dangling edges: 1 3"),
                (PreconditionError, "gluing: b is not injective", (), "gluing: b is not injective"),
                (FormatError, "h.json: invalid graph: tgt out of V", ("edge", 1),
                 "h.json: invalid graph: tgt out of V: edge 1"),
                (DependentDerivationsError, "commute: pair is not parallel independent: L1 into D2", ("node", 0),
                 "commute: pair is not parallel independent: L1 into D2: node 0"),
                (InternalConsistencyError, "apply: left square failed commutativity", ("node", 2),
                 "apply: left square failed commutativity: node 2"),
            )
        ],
    )
    def test_dangling_error_keeps_its_edges_and_message_through_pickle_and_copy(self, cls, clause, item, message):
        # every error keeps its report, and the dangling error its edges
        exc = cls(clause, item)
        assert exc.report == failure(clause, item)
        for clone in (pickle.loads(pickle.dumps(exc)), copy.copy(exc)):
            assert type(clone) is cls
            assert clone.report == exc.report
            assert str(clone) == str(exc) == message
        if cls is DanglingConditionError:
            assert exc.edges == clone.edges == (1, 3)

    def test_left_square_is_a_pushout_on_random_instances(self):
        rng = random.Random(23)
        for _ in range(50):
            rule, match = random_rule_with_match(rng)
            result = deletion(rule.b, match.m)
            sq = Square(ab=rule.b, ac=result.d, bd=match.m, cd=result.c)
            assert is_pushout_injective(sq)
            assert is_inclusion(result.c)
            assert is_injective(result.d)

    def test_delete_then_reglue_restores_the_host(self):
        rng = random.Random(29)
        for _ in range(40):
            rule, match = random_rule_with_match(rng)
            removed = deletion(rule.b, match.m)
            back = gluing(rule.b, removed.d)
            assert is_isomorphic(back.H, match.m.target) is not None


class TestPullbackConstruct:
    def test_singleton_diagonal(self):
        g = graph({0: "a"})
        result = pullback_construct(identity(g), identity(g))
        assert len(result.A.nodes) == 1
        assert result.node_pairs == {0: (0, 0)}

    def test_two_against_one_gives_two_pairs(self):
        b = graph({0: "a", 1: "a"})
        c = graph({0: "a"})
        d = graph({0: "a"})
        f = Morphism(b, d, {0: 0, 1: 0}, {})
        g = Morphism(c, d, {0: 0}, {})
        result = pullback_construct(f, g)
        assert len(result.A.nodes) == 2
        assert sorted(result.node_pairs.values()) == [(0, 0), (1, 0)]

    def test_empty_source_gives_empty_object(self):
        c = graph({0: "a"})
        f = Morphism(graph({}), c, {}, {})
        result = pullback_construct(f, identity(c))
        assert result.A == graph({})

    def test_target_mismatch_raises(self):
        with pytest.raises(PreconditionError):
            pullback_construct(identity(graph({0: "a"})), identity(graph({0: "b"})))

    def test_legs_that_break_edge_endpoints_raise(self):
        b = graph({0: "a", 1: "a"}, {0: (0, 1, "x")})
        d = graph({0: "a", 1: "a", 2: "a"}, {0: (0, 1, "x")})
        # a total map that sends the x-edge but not its source along with it
        g = Morphism(b, d, {0: 2, 1: 1}, {0: 0})
        with pytest.raises(PreconditionError, match="edge endpoints"):
            pullback_construct(Morphism(b, d, {0: 0, 1: 1}, {0: 0}), g)

    def test_projections_return_pair_components(self):
        rng = random.Random(31)
        for _ in range(40):
            f, g = random_cospan(rng)
            result = pullback_construct(f, g)
            assert validate_graph(result.A)
            assert validate_morphism(result.b)
            assert validate_morphism(result.c)
            for a, (x, y) in result.node_pairs.items():
                assert result.b.fv[a] == x and result.c.fv[a] == y
            sq = Square(ab=result.b, ac=result.c, bd=f, cd=g)
            assert is_pullback(sq)
            assert reduced_chain_condition(sq)


def _one_into_three() -> tuple[Morphism, Morphism]:
    """A one-node B and a three-node C whose leg folds two nodes and two
    parallel edges onto one."""
    d = graph({0: "a", 1: "a"}, {0: (0, 1, "x")})
    b = graph({0: "a"})
    c = graph({0: "a", 1: "a", 2: "a"}, {0: (0, 2, "x"), 1: (1, 2, "x")})
    return Morphism(b, d, {0: 0}, {}), Morphism(c, d, {0: 0, 1: 0, 2: 1}, {0: 0, 1: 0})


def _empty_into(d) -> tuple[Morphism, Morphism]:
    return Morphism(graph({}), d, {}, {}), identity(d)


class TestPullbackJoin:
    """The hash join against the nested-loop oracle, and at a size the
    nested loop cannot reach."""

    @settings(max_examples=300, deadline=None)
    @given(cospans())
    @example(_one_into_three())
    @example(_one_into_three()[::-1])
    @example(_empty_into(graph({0: "a"}, {0: (0, 0, "x")})))
    @example(_empty_into(graph({0: "a"}, {0: (0, 0, "x")}))[::-1])
    def test_join_matches_the_nested_loop(self, cospan):
        f, g = cospan
        node_pairs, edge_pairs, A = brute_force_pullback(f, g)
        result = pullback_construct(f, g)
        assert result.node_pairs == dict(enumerate(node_pairs))
        assert result.edge_pairs == dict(enumerate(edge_pairs))
        assert result.A == A

    def test_identity_square_of_twenty_thousand_nodes(self):
        # no wall-clock bound: the join takes well under a second here,
        # where comparing every pair of items would take minutes
        rng = random.Random(41)
        n = 20_000
        g = graph(
            {v: "abc"[v % 3] for v in range(n)},
            {e: (rng.randrange(n), rng.randrange(n), "xy"[e % 2]) for e in range(2 * n)},
        )
        result = pullback_construct(identity(g), identity(g))
        assert result.node_pairs == {v: (v, v) for v in range(n)}
        assert result.edge_pairs == {e: (e, e) for e in range(2 * n)}
        assert result.A == g
        sq = Square(ab=identity(g), ac=identity(g), bd=identity(g), cd=identity(g))
        assert is_pullback(sq)
        assert is_pushout_injective(sq)


class TestAgainstReference:
    """Deletion and gluing against the item-by-item reference constructions
    in ``tests/oracles.py``, with and without built derived indexes."""

    @settings(max_examples=300, deadline=None)
    @given(rules_with_matches(), st.booleans())
    def test_same_graphs_maps_ids_and_dangling_edges(self, rule_match, indexed):
        rule, match = rule_match
        G = match.m.target
        if indexed:
            assert sorted_incidence(G.incidence) == reference_incidence(G)
            assert {"max_node_id": G.max_node_id, "max_edge_id": G.max_edge_id} == reference_max_ids(G)
        assert dangling_edges(rule.b, match.m) == reference_dangling_edges(rule.b, match.m)
        if reference_dangling_edges(rule.b, match.m):
            with pytest.raises(DanglingConditionError):
                deletion(rule.b, match.m)
            return
        deleted = deletion(rule.b, match.m)
        D, d = reference_deletion(rule.b, match.m)
        assert deleted.D == D
        assert (deleted.d.fv, deleted.d.fe) == (d.fv, d.fe)
        glued = gluing(rule.r, deleted.d)
        H, h = reference_gluing(rule.r, d)
        assert glued.H == H
        assert (glued.h.fv, glued.h.fe) == (h.fv, h.fe)
        for result in (deleted, glued):
            assert is_inclusion(result.c) and validate_morphism(result.c)
        # the dangling check builds the index for a rule that deletes a node
        built = indexed or bool(rule.L.nodes - set(rule.b.fv.values()))
        for g in (G, deleted.D, glued.H):
            assert sorted_incidence(incidence_if_built(g)) == (reference_incidence(g) if built else None)
            assert max_ids_if_built(g).items() <= reference_max_ids(g).items()

    def test_a_graph_without_deleted_nodes_builds_no_index(self):
        k = graph({0: "a", 1: "a"})
        l = graph({0: "a", 1: "a"}, {0: (0, 1, "x")})
        g = graph({0: "a", 1: "a", 2: "a"}, {0: (0, 1, "x"), 1: (1, 2, "x")})
        b = Morphism(k, l, {0: 0, 1: 1}, {})
        m = Morphism(l, g, {0: 0, 1: 1}, {0: 0})
        assert dangling_edges(b, m) == []
        deleted = deletion(b, m)
        assert incidence_if_built(g) is None and incidence_if_built(deleted.D) is None

    def test_unchanged_maps_are_shared_and_changed_ones_copied(self):
        g = graph({0: "a", 1: "a"}, {0: (0, 1, "x")})
        k = graph({0: "a", 1: "a"})
        l = graph({0: "a", 1: "a"}, {0: (0, 1, "x")})
        deleted = deletion(Morphism(k, l, {0: 0, 1: 1}, {}), Morphism(l, g, {0: 0, 1: 1}, {0: 0}))
        assert deleted.D.nlabel is g.nlabel and deleted.D.nodes == g.nlabel.keys()
        assert deleted.D.edge is not g.edge and g.edge == {0: (0, 1, "x")}
