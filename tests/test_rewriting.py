import copy
import dataclasses
import itertools
import pickle
import random
import tracemalloc
from collections import Counter
from typing import Iterator

import networkx as nx
import pytest
from hypothesis import example, given, settings
from networkx.algorithms.isomorphism import DiGraphMatcher, categorical_node_match

from dpo import io, rewriting
from dpo.diagrams import Square, _local_pushout, certify_pushout, is_pullback, is_pushout_injective
from dpo.errors import DanglingConditionError, InternalConsistencyError, PreconditionError
from dpo.graph import Graph, failure, graph, is_isomorphic, validate_graph
from dpo.morphism import Morphism, identity, is_injective, validate_morphism
from dpo.rewriting import (
    Match,
    Rule,
    apply,
    dangling_condition,
    find_matches,
    identity_rule,
    validate_rule,
)

from .generators import random_rule_with_match, rewire, rewire_on_random_host
from .oracles import (
    built_square,
    derivations_isomorphic,
    incidence_if_built,
    is_bijective,
    max_ids_if_built,
    reference_gluing,
    reference_incidence,
    reference_max_ids,
    reference_validate_morphism,
    sorted_incidence,
)
from .strategies import rules_with_matches


def edge_deletion_rule() -> Rule:
    """Delete one x-edge between two preserved a-nodes."""
    k = graph({0: "a", 1: "a"})
    l = graph({0: "a", 1: "a"}, {0: (0, 1, "x")})
    keep = Morphism(k, l, {0: 0, 1: 1}, {})
    return Rule(L=l, K=k, R=k, b=keep, r=identity(k))


def node_creation_rule(label: str = "b") -> Rule:
    empty = graph({})
    r = graph({0: label})
    return Rule(L=empty, K=empty, R=r, b=identity(empty), r=Morphism(empty, r, {}, {}))


class TestValidateRule:
    def test_identity_rule_is_ok(self):
        rule = identity_rule(graph({0: "a"}, {0: (0, 0, "x")}))
        assert validate_rule(rule.L, rule.K, rule.R, rule.b, rule.r)

    def test_non_injective_b_is_reported(self):
        k = graph({0: "a", 1: "a"})
        l = graph({0: "a"})
        report = validate_rule(l, k, k, Morphism(k, l, {0: 0, 1: 0}, {}), identity(k))
        assert any("b not injective" == v.clause for v in report.violations)

    def test_wrong_endpoint_is_reported(self):
        k = graph({0: "a"})
        other = graph({0: "a", 1: "a"})
        report = validate_rule(k, k, k, identity(k), identity(other))
        assert any("endpoint mismatch" in v.clause for v in report.violations)


class TestRuleIsCheckedWhenBuilt:
    """Every clause of :func:`validate_rule` that a rule's parts break makes
    :class:`Rule` raise, naming that clause as the first violation."""

    # the parts of a rule that deletes an x-edge and creates a b-node, and a
    # graph whose only edge ends at a missing node
    K = graph({0: "a", 1: "a"})
    L = graph({0: "a", 1: "a"}, {0: (0, 1, "x")})
    R = graph({0: "a", 1: "a", 2: "b"})
    PARTS = {"L": L, "K": K, "R": R, "b": Morphism(K, L, {0: 0, 1: 1}, {}), "r": Morphism(K, R, {0: 0, 1: 1}, {})}
    ILL_FORMED = graph({0: "a"}, {0: (0, 5, "x")})

    @pytest.mark.parametrize(
        "broken, message",
        [
            ({"L": ILL_FORMED}, "graph L: tgt out of V: edge 0"),
            ({"K": ILL_FORMED}, "graph K: tgt out of V: edge 0"),
            ({"R": ILL_FORMED}, "graph R: tgt out of V: edge 0"),
            ({"b": identity(K)}, "b endpoint mismatch: b"),
            ({"r": identity(K)}, "r endpoint mismatch: r"),
            ({"b": Morphism(K, L, {0: 0}, {})}, "b: fv not total on source nodes: node 1"),
            ({"r": Morphism(K, R, {0: 0, 1: 9}, {})}, "r: fv out of target nodes: node 1"),
            ({"b": Morphism(K, L, {0: 0, 1: 0}, {})}, "b not injective: b"),
            ({"r": Morphism(K, R, {0: 1, 1: 1}, {})}, "r not injective: r"),
        ],
        ids=[
            "graph-L", "graph-K", "graph-R", "b-endpoint", "r-endpoint",
            "b-not-a-morphism", "r-not-a-morphism", "b-not-injective", "r-not-injective",
        ],
    )
    def test_a_broken_clause_raises_naming_it(self, broken, message):
        parts = {**self.PARTS, **broken}
        with pytest.raises(PreconditionError) as exc:
            Rule(**parts)
        assert str(exc.value) == f"invalid rule: {message}"
        assert str(validate_rule(**parts)) == message

    def test_identity_rule_of_an_ill_formed_graph_raises(self):
        with pytest.raises(PreconditionError, match="invalid rule: graph L: tgt out of V: edge 0"):
            identity_rule(self.ILL_FORMED)

    def test_no_search_on_an_lhs_with_a_dangling_edge(self):
        # this rule used to be built, and to find no match anywhere
        empty = graph({})
        with pytest.raises(PreconditionError, match="graph L: tgt out of V"):
            find_matches(
                Rule(L=self.ILL_FORMED, K=empty, R=empty, b=Morphism(empty, self.ILL_FORMED, {}, {}), r=identity(empty)),
                graph({0: "a"}),
            )

    def test_no_dangling_verdict_on_a_non_injective_b(self):
        # this rule used to be built, and to pass the dangling check
        l, k = graph({0: "a"}), self.K
        with pytest.raises(PreconditionError, match="b not injective"):
            dangling_condition(
                Rule(L=l, K=k, R=k, b=Morphism(k, l, {0: 0, 1: 0}, {}), r=identity(k)),
                Match(identity(l)),
            )


class TestFindMatches:
    def test_empty_lhs_has_one_match_anywhere(self):
        rule = node_creation_rule()
        assert len(find_matches(rule, graph({0: "a", 1: "b"}, {0: (0, 1, "x")}))) == 1

    def test_two_like_nodes_give_two_matches(self):
        rule = identity_rule(graph({0: "a"}))
        assert len(find_matches(rule, graph({0: "a", 1: "a"}))) == 2

    def test_triangle_gives_three_edge_matches(self):
        triangle = graph(
            {0: "a", 1: "a", 2: "a"},
            {0: (0, 1, "x"), 1: (1, 2, "x"), 2: (2, 0, "x")},
        )
        rule = edge_deletion_rule()
        matches = find_matches(rule, triangle)
        assert len(matches) == 3
        assert sorted(m.m.fe[0] for m in matches) == [0, 1, 2]

    def test_dangling_is_not_filtered_here(self):
        delete_node = Rule(
            L=graph({0: "a"}),
            K=graph({}),
            R=graph({}),
            b=Morphism(graph({}), graph({0: "a"}), {}, {}),
            r=identity(graph({})),
        )
        host = graph({0: "a", 1: "b"}, {0: (0, 1, "x")})
        matches = find_matches(delete_node, host)
        assert len(matches) == 1
        assert not dangling_condition(delete_node, matches[0])

    def test_an_edgeless_lhs_builds_no_index_on_a_dict_or_a_layered_host(self):
        grow = _chain_rules()["grow"]
        G = _random_host(300, seed=6)
        # one node added: a layer over each of G's maps
        layered = G.edited((), (), {300: "a"}, {600: (300, 0, "x")})
        assert type(layered.nlabel) is not dict and type(layered.edge) is not dict
        for host in (G, layered):
            found = find_matches(grow, host)
            assert [m.m.fv for m in found] == [{0: v} for v in sorted(host.nodes) if host.nlabel[v] == "a"]
            assert incidence_if_built(host) is None

    def test_rewire_on_ten_thousand_nodes_is_the_same_without_an_index(self):
        # rewire's L is an a-x->b edge beside a lone b-node; twenty b-nodes
        # among 10^4 keep its matches few
        rng = random.Random(8)
        n = 10_000
        nodes = {v: rng.choice("ac") for v in range(n)}
        nodes.update((v, "b") for v in rng.sample(range(n), 20))
        edges = {e: (rng.randrange(n), rng.randrange(n), rng.choice("xy")) for e in range(2 * n)}
        fresh, indexed = graph(nodes, edges), graph(nodes, edges)
        indexed.incidence
        rule = rewire()
        found = [(m.m.fv, m.m.fe) for m in find_matches(rule, fresh)]
        assert found and found == [(m.m.fv, m.m.fe) for m in find_matches(rule, indexed)]
        assert incidence_if_built(fresh) is None


def networkx_match_count(L: Graph, G: Graph) -> int:
    """The number of injective morphisms ``L -> G`` for an ``L`` without
    parallel edges, counted by networkx: VF2 lists the injective node maps
    of the graphs with parallel edges merged, under which each L-edge's
    label occurs between the images; each node map then extends in one way
    per choice of a host edge for every L-edge."""

    def merged(g: Graph) -> nx.DiGraph:
        d = nx.DiGraph()
        d.add_nodes_from((v, {"label": g.nlabel[v]}) for v in g.nodes)
        for s, t, label in g.edge.values():
            if not d.has_edge(s, t):
                d.add_edge(s, t, labels=Counter())
            d[s][t]["labels"][label] += 1
        return d

    host, pattern = merged(G), merged(L)
    matcher = DiGraphMatcher(
        host, pattern,
        node_match=categorical_node_match("label", None),
        edge_match=lambda h, p: all(h["labels"][x] >= n for x, n in p["labels"].items()),
    )
    total = 0
    for node_map in matcher.subgraph_monomorphisms_iter():
        image = {p: h for h, p in node_map.items()}
        ways = 1
        for e in L.edges:
            ways *= host[image[L.edge[e][0]]][image[L.edge[e][1]]]["labels"][L.edge[e][2]]
        total += ways
    return total


class TestFindMatchesAgainstNetworkx:
    """Match counts on 10^3-node hosts, far beyond the brute-force oracles.
    Hosts have n nodes labelled a, b, c and 2n random edges labelled x, y,
    plus five planted copies of L, since random hosts this sparse seldom
    hold a 3-cycle of b-nodes. The one-edge patterns are bound by a pass
    over the host's edges, the others along its incidence index."""

    LHS = {
        "edge_ab": graph({0: "a", 1: "b"}, {0: (0, 1, "x")}),
        "loop_a": graph({0: "a"}, {0: (0, 0, "y")}),
        "path_abc": graph({0: "a", 1: "b", 2: "c"}, {0: (0, 1, "x"), 1: (1, 2, "y")}),
        "cycle_bbb": graph({0: "b", 1: "b", 2: "b"}, {0: (0, 1, "x"), 1: (1, 2, "x"), 2: (2, 0, "x")}),
    }

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("lhs", sorted(LHS))
    def test_count_equals_networkx(self, lhs, seed):
        rng = random.Random(f"{lhs}:{seed}")
        n, L = 1000, self.LHS[lhs]
        nodes = {v: rng.choice("abc") for v in range(n)}
        edges = {e: (rng.randrange(n), rng.randrange(n), rng.choice("xy")) for e in range(2 * n)}
        for _ in range(5):
            image = dict(zip(sorted(L.nodes), rng.sample(range(n), len(L.nodes))))
            nodes.update((image[v], L.nlabel[v]) for v in L.nodes)
            for e in sorted(L.edges):
                edges[len(edges)] = (image[L.edge[e][0]], image[L.edge[e][1]], L.edge[e][2])
        G = graph(nodes, edges)
        matches = find_matches(identity_rule(L), G)
        assert len(matches) == networkx_match_count(L, G) > 0
        assert len({(tuple(m.m.fv.items()), tuple(m.m.fe.items())) for m in matches}) == len(matches)
        assert all(validate_morphism(m.m) for m in matches)


class TestDanglingCondition:
    def test_identity_rule_never_dangles(self):
        g = graph({0: "a", 1: "b"}, {0: (0, 1, "x")})
        rule = identity_rule(g)
        assert dangling_condition(rule, Match(identity(g)))

    def test_unmatched_incident_edge_is_reported(self):
        delete_node = Rule(
            L=graph({0: "a"}),
            K=graph({}),
            R=graph({}),
            b=Morphism(graph({}), graph({0: "a"}), {}, {}),
            r=identity(graph({})),
        )
        host = graph({0: "a", 1: "b"}, {7: (1, 0, "y")})
        report = dangling_condition(delete_node, find_matches(delete_node, host)[0])
        assert not report
        assert report.counterexample == (7,)

    def test_node_and_loop_deleted_together(self):
        l = graph({0: "a"}, {0: (0, 0, "x")})
        rule = Rule(
            L=l, K=graph({}), R=graph({}),
            b=Morphism(graph({}), l, {}, {}), r=identity(graph({})),
        )
        host = graph({4: "a"}, {2: (4, 4, "x")})
        match = find_matches(rule, host)[0]
        assert dangling_condition(rule, match)


class TestApply:
    def test_identity_rule_preserves_the_host(self):
        g = graph({0: "a", 1: "b"}, {0: (0, 1, "x"), 1: (1, 1, "y")})
        derivation = apply(identity_rule(g), Match(identity(g)))
        assert is_isomorphic(derivation.H, g) is not None

    def test_node_creation_adds_one_node(self):
        host = graph({0: "a"})
        derivation = apply(node_creation_rule(), find_matches(node_creation_rule(), host)[0])
        assert len(derivation.H.nodes) == 2
        assert sorted(derivation.H.nlabel.values()) == ["a", "b"]
        assert is_pushout_injective(derivation.right_square)

    def test_edge_deletion_leaves_isolated_nodes(self):
        rule = edge_deletion_rule()
        host = graph({5: "a", 6: "a"}, {3: (5, 6, "x")})
        derivation = apply(rule, find_matches(rule, host)[0])
        assert derivation.H == graph({5: "a", 6: "a"})
        assert is_pushout_injective(derivation.left_square)
        assert is_pushout_injective(derivation.right_square)

    def test_dangling_match_raises(self):
        delete_node = Rule(
            L=graph({0: "a"}),
            K=graph({}),
            R=graph({}),
            b=Morphism(graph({}), graph({0: "a"}), {}, {}),
            r=identity(graph({})),
        )
        host = graph({0: "a", 1: "b"}, {0: (0, 1, "x")})
        with pytest.raises(DanglingConditionError) as exc:
            apply(delete_node, find_matches(delete_node, host)[0])
        assert exc.value.edges == (0,)

    def test_invalid_rule_raises_precondition(self):
        k = graph({0: "a", 1: "a"})
        l = graph({0: "a"})
        with pytest.raises(PreconditionError):
            apply(Rule(L=l, K=k, R=k, b=Morphism(k, l, {0: 0, 1: 0}, {}), r=identity(k)), Match(identity(l)))

    def test_invalid_match_raises_naming_its_first_violation(self):
        rule = identity_rule(graph({0: "a", 1: "a"}))
        match = Match(Morphism(rule.L, graph({0: "a", 1: "b"}), {0: 0, 1: 1}, {}))
        with pytest.raises(PreconditionError) as exc:
            apply(rule, match)
        assert str(exc.value) == "apply: invalid match: node label not preserved: node 1"

    def test_a_failed_certificate_names_the_square_clause_and_item(self, monkeypatch):
        monkeypatch.setattr(rewriting, "certify_pushout", lambda *legs: failure("commutativity", ("node", 0)))
        rule = identity_rule(graph({0: "a"}))
        with pytest.raises(InternalConsistencyError) as exc:
            apply(rule, Match(identity(rule.L)))
        assert str(exc.value) == "apply: left square failed commutativity: node 0"

    def test_checks_no_rule_across_100_applications(self, monkeypatch):
        rng = random.Random(43)
        instances = [random_rule_with_match(rng) for _ in range(100)]
        calls, check = [], rewriting.validate_rule
        monkeypatch.setattr(rewriting, "validate_rule", lambda *parts: calls.append(parts) or check(*parts))
        for rule, match in instances:
            apply(rule, match)
        assert calls == []

    def test_results_survive_pickle_and_deepcopy(self):
        # D's and H's item sets are key views of their maps, which pickle
        # cannot write; a copy is rebuilt from the maps, with no index
        derivation = apply(*rewire_on_random_host(200))
        derivation.H.incidence  # built, so a copy that carried it would show
        for g in (derivation.D, derivation.H):
            for clone in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
                assert clone == g and g == clone
                assert validate_graph(clone)
                assert incidence_if_built(clone) is None
                # the two maps are the graph; the projections follow them
                assert (clone.nlabel, clone.edge) == (g.nlabel, g.edge) and clone.edge is not g.edge
                assert all(type(v) is tuple for v in clone.edge.values())
                assert (dict(clone.src), dict(clone.tgt), dict(clone.elabel)) == (g.src, g.tgt, g.elabel)

    def test_both_squares_hold_on_random_instances(self):
        rng = random.Random(37)
        for _ in range(40):
            rule, match = random_rule_with_match(rng)
            derivation = apply(rule, match)
            assert is_pushout_injective(derivation.left_square)
            assert is_pushout_injective(derivation.right_square)
            assert is_pullback(derivation.left_square)
            assert is_pullback(derivation.right_square)
            assert is_injective(derivation.comatch)


class TestDerivationsIsomorphic:
    def test_derivation_equals_itself(self):
        g = graph({0: "a"})
        d = apply(identity_rule(g), Match(identity(g)))
        assert derivations_isomorphic(d, d)

    def test_fresh_offsets_do_not_matter(self):
        # Rosen's uniqueness: gluing the same context with the created ids
        # taken past 50 gives a result isomorphic to apply's
        rng = random.Random(41)
        for _ in range(30):
            rule, match = random_rule_with_match(rng)
            d = apply(rule, match)
            H, _ = reference_gluing(rule.r, d.deletion.d, fresh_offset=50)
            assert is_isomorphic(d.H, H) is not None

    def test_different_results_are_detected(self):
        g = graph({0: "a"})
        d1 = apply(identity_rule(g), Match(identity(g)))
        d2 = apply(node_creation_rule(), find_matches(node_creation_rule(), g)[0])
        assert not derivations_isomorphic(d1, d2)

    def test_fresh_offsets_give_a_built_witness_at_ten_thousand_nodes(self):
        # Rosen's uniqueness: glue apply's D again with the created ids taken
        # past 3n; the identity on D plus the created items, read off apply's
        # delta and the second comatch, is an isomorphism of the results. The
        # search in derivations_isomorphic does not reach this size
        n = 10_000
        rule, match = rewire_on_random_host(n)
        d = apply(rule, match)
        H, h = reference_gluing(rule.r, d.deletion.d, fresh_offset=3 * n)
        _, _, made_v, made_e = d.delta
        assert made_e and set(made_e.values()).isdisjoint(h.fe[x] for x in made_e)
        witness = Morphism(
            d.H,
            H,
            {**{v: v for v in d.D.nodes}, **{made_v[x]: h.fv[x] for x in made_v}},
            {**{e: e for e in d.D.edges}, **{made_e[x]: h.fe[x] for x in made_e}},
        )
        assert reference_validate_morphism(witness)
        assert is_bijective(witness)


class TestDelta:
    """A derivation's delta against set differences of its three graphs."""

    def test_deleted_and_created_items_are_the_differences_of_g_d_and_h(self):
        rng = random.Random(53)
        for _ in range(150):
            rule, match = random_rule_with_match(rng)
            d = apply(rule, match)
            gone_v, gone_e, made_v, made_e = d.delta
            assert gone_v == d.G.nodes - d.D.nodes
            assert gone_e == d.G.edges - d.D.edges
            assert set(made_v.values()) == d.H.nodes - d.D.nodes
            assert set(made_e.values()) == d.H.edges - d.D.edges
            assert list(made_v) == sorted(rule.R.nodes - set(rule.r.fv.values()))
            assert list(made_e) == sorted(rule.R.edges - set(rule.r.fe.values()))
            assert d.delta is d.delta

    def test_a_rebuilt_derivation_reads_its_own_comatch(self):
        rule = node_creation_rule()
        d = apply(rule, find_matches(rule, graph({0: "a"}))[0])
        assert d.delta[2] == {0: 1}
        h = d.comatch
        H = graph({0: "a", 9: "b"})
        moved = dataclasses.replace(d, gluing=dataclasses.replace(d.gluing, H=H, h=Morphism(h.source, H, {0: 9}, {})))
        assert moved.delta[2] == {0: 9}
        assert d.delta[2] == {0: 1}


def enumerate_subgraphs(g: Graph):
    """All (node subset, edge subset) pairs of g that form valid subgraphs."""
    nodes = sorted(g.nodes)
    edges = sorted(g.edges)
    for r in range(len(nodes) + 1):
        for node_subset in itertools.combinations(nodes, r):
            kept = set(node_subset)
            closed = [e for e in edges if g.edge[e][0] in kept and g.edge[e][1] in kept]
            for s in range(len(closed) + 1):
                for edge_subset in itertools.combinations(closed, s):
                    yield kept, set(edge_subset)


def subgraph_of(g: Graph, nodes: set, edges: set) -> Graph:
    return Graph(
        nodes=frozenset(nodes),
        edges=frozenset(edges),
        nlabel={v: g.nlabel[v] for v in nodes},
        edge={e: g.edge[e] for e in edges},
    )


class TestPushoutComplementUniqueness:
    def test_all_passing_complements_are_isomorphic(self):
        rng = random.Random(43)
        instances = 0
        while instances < 12:
            rule, match = random_rule_with_match(
                rng, max_interface_nodes=2, extra_nodes=1, extra_edges=1,
                junk_nodes=1, junk_edges=1,
            )
            host = match.m.target
            if len(host.nodes) > 4 or len(host.edges) > 4:
                continue
            instances += 1
            derivation = apply(rule, match)
            passing = []
            forced_v = {k: match.m.fv[rule.b.fv[k]] for k in rule.K.nodes}
            forced_e = {k: match.m.fe[rule.b.fe[k]] for k in rule.K.edges}
            for nodes, edges in enumerate_subgraphs(host):
                if not set(forced_v.values()) <= nodes:
                    continue
                if not set(forced_e.values()) <= edges:
                    continue
                candidate = subgraph_of(host, nodes, edges)
                d = Morphism(rule.K, candidate, forced_v, forced_e)
                inc = Morphism(candidate, host,
                               {v: v for v in nodes}, {e: e for e in edges})
                sq = Square(ab=rule.b, ac=d, bd=match.m, cd=inc)
                if is_pushout_injective(sq):
                    passing.append(candidate)
            assert passing, "the engine's own complement must be among the candidates"
            assert any(c == derivation.D for c in passing)
            for c1, c2 in itertools.combinations(passing, 2):
                assert is_isomorphic(c1, c2) is not None


def _inclusion(sub: Graph, g: Graph) -> Morphism:
    return Morphism(sub, g, {v: v for v in sub.nodes}, {e: e for e in sub.edges})


def _subgraph(g: Graph, drop_nodes: set, drop_edges: set) -> Graph:
    nodes = g.nodes - drop_nodes
    edges = g.edges - drop_edges
    return graph(
        {v: g.nlabel[v] for v in nodes},
        {e: g.edge[e] for e in edges},
    )


def drop_context_item(sq: Square) -> Square | None:
    """The square with one context item outside ``ac``'s image removed
    (an edge if there is one, else a node and its edges); ``None`` if the
    context has no such item."""
    C = sq.C
    spare_e = sorted(C.edges - set(sq.ac.fe.values()))
    spare_v = sorted(C.nodes - set(sq.ac.fv.values()))
    if spare_e:
        C2 = _subgraph(C, set(), {spare_e[0]})
    elif spare_v:
        v = spare_v[0]
        C2 = _subgraph(C, {v}, {e for e in C.edges if v in C.edge[e][:2]})
    else:
        return None
    ac = Morphism(sq.A, C2, sq.ac.fv, sq.ac.fe)
    return Square(ab=sq.ab, ac=ac, bd=sq.bd, cd=_inclusion(C2, sq.D))


def add_uncovered_node(sq: Square) -> Square:
    """The square with a node added to its corner D that nothing covers."""
    D = sq.D
    v = max(D.nodes, default=-1) + 1
    D2 = graph({**D.nlabel, v: "a"}, {e: D.edge[e] for e in D.edges})
    bd = Morphism(sq.B, D2, sq.bd.fv, sq.bd.fe)
    return Square(ab=sq.ab, ac=sq.ac, bd=bd, cd=_inclusion(sq.C, D2))


def break_d(sq: Square) -> Square | None:
    """The square with ``ac`` changed on one item of A, staying an injective
    morphism: an A-node on no A-edge, or an A-edge, is sent to another
    context item of its image's label and, for an edge, endpoints, which is
    unused or is swapped with the item of A that uses it (another such node,
    or an edge); ``None`` if no item of A can be moved so."""
    A, C = sq.A, sq.C
    on_edges = {v for e in A.edges for v in A.edge[e][:2]}
    for kind, items, f, targets, signature in (
        ("fv", sorted(A.nodes - on_edges), sq.ac.fv, C.nodes, C.nlabel.get),
        ("fe", sorted(A.edges), sq.ac.fe, C.edges, lambda c: C.edge[c]),
    ):
        used = {f[x]: x for x in f}
        for x in items:
            for c in sorted(targets):
                if c == f[x] or signature(c) != signature(f[x]):
                    continue
                changed = dict(f)
                if c not in used:
                    changed[x] = c
                elif used[c] in items:
                    changed[x], changed[used[c]] = c, f[x]
                else:
                    continue
                maps = {"fv": sq.ac.fv, "fe": sq.ac.fe, kind: changed}
                return Square(ab=sq.ab, ac=Morphism(A, C, maps["fv"], maps["fe"]), bd=sq.bd, cd=sq.cd)
    return None


def keep_deleted_item(sq: Square) -> Square | None:
    """The square with one item of D that B alone covers added to the
    context (a node if there is one, else an edge between context nodes);
    ``None`` if there is no such item."""
    C, D = sq.C, sq.D
    own_v = sorted(set(sq.bd.fv.values()) - C.nodes)
    own_e = sorted(e for e in set(sq.bd.fe.values()) - C.edges if set(D.edge[e][:2]) <= C.nodes)
    nodes = dict(C.nlabel)
    edges = {e: C.edge[e] for e in C.edges}
    if own_v:
        nodes[own_v[0]] = D.nlabel[own_v[0]]
    elif own_e:
        e = own_e[0]
        edges[e] = D.edge[e]
    else:
        return None
    C2 = graph(nodes, edges)
    ac = Morphism(sq.A, C2, sq.ac.fv, sq.ac.fe)
    return Square(ab=sq.ab, ac=ac, bd=sq.bd, cd=_inclusion(C2, D))


def retarget_bd(sq: Square) -> Square | None:
    """The square with ``bd`` sending the image of A's least node to a new
    copy of its old image in D, and each B-edge at that node to a new copy
    of its old image, moved along, so that ``bd`` stays an injective
    morphism; ``None`` if A has no node."""
    if not sq.A.nodes:
        return None
    B, D = sq.B, sq.D
    nodes = dict(D.nlabel)
    edges = {e: D.edge[e] for e in D.edges}
    fv, fe = dict(sq.bd.fv), dict(sq.bd.fe)
    b = sq.ab.fv[min(sq.A.nodes)]
    fv[b] = max(D.nodes) + 1
    nodes[fv[b]] = D.nlabel[sq.bd.fv[b]]
    for e in sorted(B.edges):
        if b in B.edge[e][:2]:
            fe[e] = max(edges) + 1
            edges[fe[e]] = (fv[B.edge[e][0]], fv[B.edge[e][1]], B.edge[e][2])
    D2 = graph(nodes, edges)
    return Square(ab=sq.ab, ac=sq.ac, bd=Morphism(sq.B, D2, fv, fe), cd=_inclusion(sq.C, D2))


CORRUPTIONS = (drop_context_item, add_uncovered_node, break_d, keep_deleted_item, retarget_bd)


def _rule(L, K, R, b, r) -> Rule:
    return Rule(L=L, K=K, R=R, b=Morphism(K, L, *b), r=Morphism(K, R, *r))


def _node_deleting():
    # delete a b-node and its x-edge from an a-node, in a host with a spare node
    K, L = graph({0: "a"}), graph({0: "a", 1: "b"}, {0: (0, 1, "x")})
    G = graph({0: "a", 1: "b", 2: "a"}, {3: (0, 1, "x")})
    rule = _rule(L, K, K, ({0: 0}, {}), ({0: 0}, {}))
    return rule, Match(Morphism(L, G, {0: 0, 1: 1}, {0: 3}))


def _loop_creating():
    K = graph({0: "a"})
    R = graph({0: "a"}, {0: (0, 0, "y")})
    G = graph({5: "a", 6: "b"}, {1: (5, 6, "x")})
    return _rule(K, K, R, ({0: 0}, {}), ({0: 0}, {})), Match(Morphism(K, G, {0: 5}, {}))


def _identity():
    L = graph({0: "a", 1: "b"}, {0: (0, 1, "x")})
    G = graph({0: "a", 1: "b", 2: "b"}, {0: (0, 1, "x"), 1: (2, 0, "y")})
    return identity_rule(L), Match(Morphism(L, G, {0: 0, 1: 1}, {0: 0}))


def _empty_interface():
    empty, L, R = graph({}), graph({0: "b"}), graph({0: "c"})
    G = graph({0: "a", 1: "b"}, {0: (0, 0, "x")})
    return _rule(L, empty, R, ({}, {}), ({}, {})), Match(Morphism(L, G, {0: 1}, {}))


class TestLocalCertification:
    """``apply``'s local check against the general ``is_pushout_injective``
    on every derivation square, and on squares corrupted five ways, each of
    which keeps every leg a morphism."""

    @settings(max_examples=300, deadline=None)
    @given(rules_with_matches())
    @example(_node_deleting())
    @example(_loop_creating())
    @example(_identity())
    @example(_empty_interface())
    def test_local_and_general_checks_agree(self, rule_match):
        rule, match = rule_match
        try:
            derivation = apply(rule, match)
        except DanglingConditionError:
            return
        for sq in (derivation.left_square, derivation.right_square):
            assert is_pushout_injective(sq)
            assert _local_pushout(sq.ab, sq.ac, sq.bd)
            for corrupt in CORRUPTIONS:
                bad = corrupt(sq)
                if bad is None:
                    continue
                general = is_pushout_injective(bad)
                assert not general
                assert not _local_pushout(bad.ab, bad.ac, bad.bd)
                assert certify_pushout(bad.ab, bad.ac, bad.bd) == general

    def test_each_corruption_fails_the_clause_it_breaks(self):
        rule, match = _node_deleting()
        sq = apply(rule, match).left_square
        assert is_pushout_injective(drop_context_item(sq)).failed_clause == "joint surjectivity"
        report = is_pushout_injective(add_uncovered_node(sq))
        assert (report.failed_clause, report.counterexample) == ("joint surjectivity", ("node", 3))
        assert is_pushout_injective(break_d(sq)).failed_clause == "commutativity"
        report = is_pushout_injective(keep_deleted_item(sq))
        assert (report.failed_clause, report.counterexample) == ("reduced chain-condition", ("node", 1, 1))
        report = is_pushout_injective(retarget_bd(sq))
        assert (report.failed_clause, report.counterexample) == ("commutativity", ("node", 0))

    def test_a_leg_that_is_not_a_morphism_raises_when_the_square_is_built(self):
        # bd sends L's b-node to a copy in D but keeps its x-edge on the old
        # node: outside certify_pushout's precondition, so no verdict
        rule, match = _node_deleting()
        sq = apply(rule, match).left_square
        D2 = graph({**sq.D.nlabel, 3: "b"}, {e: sq.D.edge[e] for e in sq.D.edges})
        legs = {"ab": sq.ab, "ac": sq.ac, "bd": Morphism(sq.B, D2, {0: 0, 1: 3}, {0: 3}), "cd": _inclusion(sq.C, D2)}
        assert built_square(legs) is None
        with pytest.raises(PreconditionError, match="^square 'bd': invalid morphism: target not preserved: edge 0$"):
            certify_pushout(legs["ab"], legs["ac"], legs["bd"])

    def test_a_non_injective_square_raises_as_the_general_check_does(self):
        one = graph({0: "a"})
        two = graph({0: "a", 1: "a"})
        fold = Morphism(two, one, {0: 0, 1: 0}, {})
        sq = Square(ab=identity(two), ac=fold, bd=fold, cd=identity(one))
        assert not _local_pushout(sq.ab, sq.ac, sq.bd)
        with pytest.raises(PreconditionError, match="not injective"):
            certify_pushout(sq.ab, sq.ac, sq.bd)

    def test_apply_builds_neither_inclusion(self):
        derivation = apply(*_node_deleting())
        assert "c" not in vars(derivation.deletion) and "c" not in vars(derivation.gluing)


def _chain_rules() -> dict[str, Rule]:
    """REWIRE turns an a-x->b edge into b-y->a; GROW hangs a new b-leaf off
    an a-node; PRUNE deletes a b-node with its x-edge from an a-node; LOOP
    puts a y-loop on an a-node."""
    a, ab = graph({0: "a"}), graph({0: "a", 1: "b"})
    edge = graph({0: "a", 1: "b"}, {0: (0, 1, "x")})
    return {
        "rewire": _rule(edge, ab, graph({0: "a", 1: "b"}, {0: (1, 0, "y")}), ({0: 0, 1: 1}, {}), ({0: 0, 1: 1}, {})),
        "grow": _rule(a, a, edge, ({0: 0}, {}), ({0: 0}, {})),
        "prune": _rule(edge, a, a, ({0: 0}, {}), ({0: 0}, {})),
        "loop": _rule(a, a, graph({0: "a"}, {0: (0, 0, "y")}), ({0: 0}, {}), ({0: 0}, {})),
    }


class _Replay:
    """A host kept as plain dicts and rewritten by hand from the items each
    derivation reports, to compare the engine's chain against."""

    def __init__(self, G: Graph):
        self.nodes = dict(G.nlabel)
        self.edges = {e: G.edge[e] for e in G.edges}

    def dangling(self, deleted_node: int, deleted_edges: set) -> list[int]:
        return sorted(
            e for e, (s, t, _) in self.edges.items()
            if deleted_node in (s, t) and e not in deleted_edges
        )

    def step(self, rule: Rule, match: Match, comatch: Morphism) -> None:
        m = match.m
        for e in rule.L.edges - set(rule.b.fe.values()):
            del self.edges[m.fe[e]]
        for v in rule.L.nodes - set(rule.b.fv.values()):
            del self.nodes[m.fv[v]]
        for v in rule.R.nodes - set(rule.r.fv.values()):
            self.nodes[comatch.fv[v]] = rule.R.nlabel[v]
        for e in rule.R.edges - set(rule.r.fe.values()):
            self.edges[comatch.fe[e]] = (
                comatch.fv[rule.R.edge[e][0]], comatch.fv[rule.R.edge[e][1]], rule.R.edge[e][2]
            )

    def graph(self) -> Graph:
        return graph(self.nodes, self.edges)


def run_chain(G: Graph, replay: _Replay, steps: int, seed: int) -> Iterator[Graph]:
    """Apply the chain rules ``steps`` times, each on the previous result,
    and replay each step on ``replay``.

    Matches are drawn from the replay: REWIRE and PRUNE at a random
    a-x->b edge (PRUNE mostly dangles there, and the rejection must name
    the replay's edges), PRUNE also at the leaf the last GROW made. Yields
    ``D`` and ``H`` of every derivation, in order.
    """
    rng = random.Random(seed)
    rules = _chain_rules()
    candidates = sorted(replay.edges)
    leaf = None
    for i in range(steps):
        kind = ("grow", "rewire", "prune", "loop", "prune")[i % 5]
        rule = rules[kind]
        if kind == "grow" or kind == "loop":
            v = rng.choice([v for v in itertools.islice(replay.nodes, 50) if replay.nodes[v] == "a"])
            fv, fe = {0: v}, {}
        elif kind == "prune" and leaf is not None:
            (fv, fe), leaf = leaf, None
        else:
            while True:
                e = rng.choice(candidates)
                if e in replay.edges:
                    s, t, label = replay.edges[e]
                    if label == "x" and replay.nodes[s] == "a" and replay.nodes[t] == "b":
                        break
            fv, fe = {0: s, 1: t}, {0: e}
        match = Match(Morphism(rule.L, G, fv, fe))
        try:
            derivation = apply(rule, match)
        except DanglingConditionError as exc:
            assert kind == "prune"
            assert sorted(exc.edges) == replay.dangling(fv[1], {fe[0]})
            continue
        replay.step(rule, match, derivation.comatch)
        if kind == "grow":
            h = derivation.comatch
            leaf = ({0: h.fv[0], 1: h.fv[1]}, {0: h.fe[0]})
        G = derivation.H
        yield derivation.D
        yield G


def _random_host(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return graph(
        {v: "ab"[rng.randrange(2)] for v in range(n)},
        {e: (rng.randrange(n), rng.randrange(n), "xy"[rng.randrange(2)]) for e in range(2 * n)},
    )


class TestLongChains:
    def test_carried_incidence_equals_a_rebuilt_one(self):
        G = _random_host(300, seed=3)
        replay = _Replay(G)
        graphs = [G, *run_chain(G, replay, steps=200, seed=3)]
        assert graphs[-1] == replay.graph()
        # the first PRUNE, the third step, builds the index on its host, the
        # second step's H (graphs are G, D1, H1, D2, H2, ...); every later
        # graph carries it
        built = [incidence_if_built(g) is not None for g in graphs]
        assert built == [False] * 4 + [True] * (len(graphs) - 4)
        for g in graphs[4:]:
            assert sorted_incidence(incidence_if_built(g)) == reference_incidence(g)

    def test_no_index_before_the_first_node_deletion(self):
        G = _random_host(50, seed=4)
        rules = _chain_rules()
        a = min(v for v in G.nodes if G.nlabel[v] == "a")
        H = apply(rules["grow"], Match(Morphism(rules["grow"].L, G, {0: a}, {}))).H
        assert incidence_if_built(G) is None and incidence_if_built(H) is None

    def test_carried_largest_ids_equal_rebuilt_ones(self):
        G = _random_host(300, seed=3)
        graphs = [G, *run_chain(G, _Replay(G), steps=200, seed=3)]
        # PRUNE at the leaf the last GROW made deletes the largest node id
        assert any(max(host.nodes) not in D.nodes for host, D in zip(graphs[0::2], graphs[1::2]))
        # no chain rule deletes the largest edge id, a created y-edge; one
        # more step deletes it
        H = graphs[-1]
        top = max(H.edges)
        ends = dict(enumerate(dict.fromkeys(H.edge[top][:2])))
        K = graph({i: H.nlabel[v] for i, v in ends.items()})
        L = graph(K.nlabel, {0: (0, len(ends) - 1, H.edge[top][2])})
        keep = ({i: i for i in ends}, {})
        last = apply(_rule(L, K, K, keep, keep), Match(Morphism(L, H, ends, {0: top})))
        graphs += [last.D, last.H]
        for g in graphs:
            assert max_ids_if_built(g).items() <= reference_max_ids(g).items()
        # every graph after G carries the largest edge id until it is deleted
        assert all("max_edge_id" in max_ids_if_built(g) for g in graphs[1:-2])
        assert not any("max_edge_id" in max_ids_if_built(g) for g in graphs[-2:])
        assert last.H.max_edge_id == max(last.H.edges)

    def test_no_largest_id_is_built_before_a_step_creates_an_item_of_its_kind(self):
        G = _random_host(50, seed=4)
        loop = _chain_rules()["loop"]
        a = min(v for v in G.nodes if G.nlabel[v] == "a")
        # LOOP deletes nothing, so deletion builds nothing on D; it creates
        # one edge, so gluing reads D's largest edge id and hands it on
        d = apply(loop, Match(Morphism(loop.L, G, {0: a}, {})))
        assert max_ids_if_built(G) == {}
        assert max_ids_if_built(d.D) == {"max_edge_id": max(G.edges)}
        assert max_ids_if_built(d.H) == {"max_edge_id": max(G.edges) + 1}
        # a rule that deletes and creates nothing builds neither, anywhere
        same = apply(identity_rule(loop.L), Match(Morphism(loop.L, G, {0: a}, {})))
        assert [max_ids_if_built(g) for g in (G, same.D, same.H)] == [{}, {}, {}]

    def test_a_chain_leaves_every_earlier_graph_as_it_was(self):
        # each step copies the maps it changes and edits the copies in place;
        # no step may edit a map or incidence index of an earlier graph
        G = _random_host(300, seed=6)
        G.incidence  # built first, so every step patches a copy of it

        def contents(g: Graph) -> list:
            return [dict(m) for m in (g.nlabel, g.edge, incidence_if_built(g))]

        seen = [(g, contents(g)) for g in itertools.chain([G], run_chain(G, _Replay(G), steps=100, seed=6))]
        assert all(contents(g) == before for g, before in seen)
        # a map whose items a step leaves alone is shared, not copied: D's
        # nlabel is its host's when no node is deleted, H's edge map is D's
        # when no edge is created
        shared = Counter()
        for (x, _), (y, _) in zip(seen, seen[1:]):
            for field, items in (("nlabel", "nodes"), ("edge", "edges")):
                if getattr(x, items) == getattr(y, items):
                    assert getattr(x, field) is getattr(y, field)
                    shared[field] += 1
        assert len(shared) == 2

    def test_item_sets_equal_the_maps_along_a_chain(self):
        # every D and H is well formed, and equal to the graph read back
        # from its own document
        G = _random_host(300, seed=8)
        for g in run_chain(G, _Replay(G), steps=100, seed=8):
            assert g.nodes == g.nlabel.keys()
            assert g.edges == g.edge.keys()
            assert validate_graph(g)
            assert g == io.graph_from_json(io.graph_to_json(g))

    def test_chain_on_a_hundred_thousand_nodes_matches_a_plain_replay(self):
        # no wall-clock bound; a step edits layers over the host's maps, and
        # only the reads that build the index or a largest id scan the host
        G = _random_host(100_000, seed=5)
        replay = _Replay(G)
        for H in run_chain(G, replay, steps=25, seed=5):
            pass
        assert H == replay.graph()
        assert sorted_incidence(incidence_if_built(H)) == reference_incidence(H)
        # a late PRUNE deleted the largest node id and no later step created a
        # node, so H carries only the largest edge id
        assert max_ids_if_built(H).items() <= reference_max_ids(H).items()
        assert "max_edge_id" in max_ids_if_built(H)

    def test_a_step_on_a_hundred_thousand_nodes_allocates_no_host_sized_map(self):
        # the cost, not the representation: once the host's indexes are
        # built, one more apply allocates about what the rule needs
        rule, match = rewire_on_random_host(100_000)
        G = match.m.target
        G.incidence, G.max_node_id, G.max_edge_id
        apply(rule, match)
        tracemalloc.start()
        try:
            apply(rule, match)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
