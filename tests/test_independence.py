import dataclasses
import random

import pytest

from dpo import independence, randgen
from dpo.errors import DependentDerivationsError, InternalConsistencyError, PreconditionError
from dpo.graph import Graph, graph, is_isomorphic
from dpo.independence import (
    ParallelPair,
    commute,
    parallel_independent,
    residual_match,
    sequential_independent,
    verify_commutation_squares,
)
from dpo.morphism import Morphism, identity, is_injective, validate_morphism
from dpo.rewriting import (
    Match,
    Rule,
    apply,
    dangling_condition,
    find_matches,
    identity_rule,
)

from .oracles import exhaustive_parallel_witness_exists, is_inclusion


def node_deletion_rule() -> Rule:
    l = graph({0: "a"})
    empty = graph({})
    return Rule(L=l, K=empty, R=empty, b=Morphism(empty, l, {}, {}), r=identity(empty))


def loop_addition_rule() -> Rule:
    k = graph({0: "b"})
    r = graph({0: "b"}, {0: (0, 0, "y")})
    return Rule(L=k, K=k, R=r, b=identity(k), r=Morphism(k, r, {0: 0}, {}))


def edge_deletion_rule() -> Rule:
    k = graph({0: "a", 1: "a"})
    l = graph({0: "a", 1: "a"}, {0: (0, 1, "x")})
    return Rule(L=l, K=k, R=k, b=Morphism(k, l, {0: 0, 1: 1}, {}), r=identity(k))


class TestParallelIndependent:
    def test_disjoint_matches_are_independent(self):
        host = graph({0: "a", 1: "b"})
        d1 = apply(node_deletion_rule(), Match(Morphism(node_deletion_rule().L, host, {0: 0}, {})))
        d2 = apply(loop_addition_rule(), Match(Morphism(loop_addition_rule().L, host, {0: 1}, {})))
        witness = parallel_independent(ParallelPair(d1, d2))
        assert witness is not None
        assert validate_morphism(witness.j1).ok
        assert validate_morphism(witness.j2).ok

    def test_deleting_the_same_node_is_dependent(self):
        host = graph({0: "a"})
        rule = node_deletion_rule()
        match = Match(Morphism(rule.L, host, {0: 0}, {}))
        pair = ParallelPair(apply(rule, match), apply(rule, match))
        assert parallel_independent(pair) is None

    def test_deleting_an_edge_the_other_match_uses_is_dependent(self):
        host = graph({0: "a", 1: "a"}, {0: (0, 1, "x")})
        deleter = edge_deletion_rule()
        keeper = identity_rule(graph({0: "a", 1: "a"}, {0: (0, 1, "x")}))
        m = Match(Morphism(deleter.L, host, {0: 0, 1: 1}, {0: 0}))
        d1 = apply(deleter, m)
        d2 = apply(keeper, Match(identity(host)))
        pair = ParallelPair(d1, d2)
        assert parallel_independent(pair) is None
        assert not exhaustive_parallel_witness_exists(pair)

    def test_different_hosts_raise(self):
        g1, g2 = graph({0: "a"}), graph({0: "a", 1: "a"})
        d1 = apply(identity_rule(g1), Match(identity(g1)))
        d2 = apply(identity_rule(g2), Match(identity(g2)))
        with pytest.raises(PreconditionError):
            parallel_independent(ParallelPair(d1, d2))

    def test_forced_candidate_agrees_with_exhaustive_search(self):
        rng = random.Random(47)
        for _ in range(40):
            pair = randgen.random_parallel_pair(rng)
            assert (parallel_independent(pair) is not None) == exhaustive_parallel_witness_exists(pair)


class TestSequentialIndependent:
    def test_identity_first_then_anything(self):
        host = graph({0: "a", 1: "b"})
        first = apply(identity_rule(host), Match(identity(host)))
        rule = loop_addition_rule()
        second = apply(rule, Match(Morphism(rule.L, first.H, {0: 1}, {})))
        assert sequential_independent(first, second) is not None

    def test_create_then_delete_is_dependent(self):
        host = graph({})
        create = Rule(
            L=graph({}), K=graph({}), R=graph({0: "a"}),
            b=identity(graph({})), r=Morphism(graph({}), graph({0: "a"}), {}, {}),
        )
        first = apply(create, Match(Morphism(graph({}), host, {}, {})))
        deleter = node_deletion_rule()
        second = apply(deleter, find_matches(deleter, first.H)[0])
        assert sequential_independent(first, second) is None

    def test_graph_mismatch_raises(self):
        g = graph({0: "a"})
        d = apply(identity_rule(g), Match(identity(g)))
        other = graph({0: "a", 1: "a"})
        e = apply(identity_rule(other), Match(identity(other)))
        with pytest.raises(PreconditionError):
            sequential_independent(d, e)


class TestResidualMatch:
    def test_disjoint_matches_keep_their_item_ids(self):
        host = graph({0: "a", 1: "b"})
        rule1 = node_deletion_rule()
        rule2 = loop_addition_rule()
        d1 = apply(rule1, Match(Morphism(rule1.L, host, {0: 0}, {})))
        d2 = apply(rule2, Match(Morphism(rule2.L, host, {0: 1}, {})))
        pair = ParallelPair(d1, d2)
        witness = parallel_independent(pair)
        m2p, m1p = residual_match(pair, witness)
        assert m2p.m.fv == d2.match.m.fv
        assert m1p.m.fv == d1.match.m.fv

    def test_identity_first_leaves_the_match_unchanged(self):
        host = graph({0: "a", 1: "b"}, {0: (0, 1, "x")})
        rule2 = loop_addition_rule()
        d1 = apply(identity_rule(host), Match(identity(host)))
        d2 = apply(rule2, Match(Morphism(rule2.L, host, {0: 1}, {})))
        pair = ParallelPair(d1, d2)
        m2p, _ = residual_match(pair, parallel_independent(pair))
        assert m2p.m.fv == d2.match.m.fv and m2p.m.fe == d2.match.m.fe

    def test_residuals_are_valid_injective_and_applicable(self):
        rng = random.Random(53)
        for _ in range(30):
            pair = randgen.random_parallel_independent_pair(rng)
            witness = parallel_independent(pair)
            assert witness is not None
            m2p, m1p = residual_match(pair, witness)
            for rule, m in ((pair.d2.rule, m2p), (pair.d1.rule, m1p)):
                assert validate_morphism(m.m).ok
                assert is_injective(m.m)
                assert dangling_condition(rule, m)


class TestCommute:
    def test_identity_rules_commute_to_the_host(self):
        g = graph({0: "a", 1: "b"}, {0: (0, 1, "x")})
        d = apply(identity_rule(g), Match(identity(g)))
        result = commute(ParallelPair(d, d))
        assert is_isomorphic(result.Gp, g) is not None

    def test_two_creations_on_the_empty_graph(self):
        empty = graph({})
        create_a = Rule(L=empty, K=empty, R=graph({0: "a"}),
                        b=identity(empty), r=Morphism(empty, graph({0: "a"}), {}, {}))
        create_b = Rule(L=empty, K=empty, R=graph({0: "b"}),
                        b=identity(empty), r=Morphism(empty, graph({0: "b"}), {}, {}))
        d1 = apply(create_a, Match(Morphism(empty, empty, {}, {})))
        d2 = apply(create_b, Match(Morphism(empty, empty, {}, {})))
        result = commute(ParallelPair(d1, d2))
        assert len(result.Gp.nodes) == 2
        assert sorted(result.Gp.nlabel.values()) == ["a", "b"]

    def test_edge_deletion_and_loop_addition_commute(self):
        host = graph({0: "a", 1: "a", 2: "b"}, {0: (0, 1, "x")})
        deleter = edge_deletion_rule()
        adder = loop_addition_rule()
        d1 = apply(deleter, Match(Morphism(deleter.L, host, {0: 0, 1: 1}, {0: 0})))
        d2 = apply(adder, Match(Morphism(adder.L, host, {0: 2}, {})))
        result = commute(ParallelPair(d1, d2))
        assert is_isomorphic(result.e1.H, result.e2.H) is not None
        assert len(result.Gp.edges) == 1

    def test_dependent_pair_raises(self):
        host = graph({0: "a"})
        rule = node_deletion_rule()
        match = Match(Morphism(rule.L, host, {0: 0}, {}))
        pair = ParallelPair(apply(rule, match), apply(rule, match))
        with pytest.raises(DependentDerivationsError):
            commute(pair)

    def test_swapped_pair_gives_isomorphic_result(self):
        rng = random.Random(59)
        for _ in range(15):
            pair = randgen.random_parallel_independent_pair(rng)
            forward = commute(pair)
            backward = commute(ParallelPair(pair.d2, pair.d1))
            assert is_isomorphic(forward.Gp, backward.Gp) is not None

    def test_composites_are_sequentially_independent(self):
        rng = random.Random(61)
        for _ in range(15):
            pair = randgen.random_parallel_independent_pair(rng)
            result = commute(pair)
            assert sequential_independent(pair.d1, result.e1) is not None
            assert sequential_independent(pair.d2, result.e2) is not None


class TestVerifyCommutationSquares:
    def test_disjoint_instance_passes_all_squares(self):
        host = graph({0: "a", 1: "b", 2: "a"}, {0: (0, 0, "x")})
        rule1 = loop_addition_rule()
        rule2 = node_deletion_rule()
        d1 = apply(rule1, Match(Morphism(rule1.L, host, {0: 1}, {})))
        d2 = apply(rule2, Match(Morphism(rule2.L, host, {0: 2}, {})))
        pair = ParallelPair(d1, d2)
        witness = parallel_independent(pair)
        assert witness is not None
        result = commute(pair)
        assert verify_commutation_squares(pair, witness, result)

    def test_identity_instance_is_degenerate_but_passes(self):
        g = graph({0: "a"}, {0: (0, 0, "x")})
        d = apply(identity_rule(g), Match(identity(g)))
        pair = ParallelPair(d, d)
        witness = parallel_independent(pair)
        result = commute(pair)
        assert verify_commutation_squares(pair, witness, result)

    def test_generated_instances_pass(self):
        rng = random.Random(67)
        for _ in range(20):
            pair = randgen.random_parallel_independent_pair(rng)
            witness = parallel_independent(pair)
            result = commute(pair)
            report = verify_commutation_squares(pair, witness, result)
            assert report, report

    def test_corrupted_result_fails_the_final_square(self):
        empty = graph({})
        create_a = Rule(L=empty, K=empty, R=graph({0: "a"}),
                        b=identity(empty), r=Morphism(empty, graph({0: "a"}), {}, {}))
        create_b = Rule(L=empty, K=empty, R=graph({0: "b"}),
                        b=identity(empty), r=Morphism(empty, graph({0: "b"}), {}, {}))
        d1 = apply(create_a, Match(Morphism(empty, empty, {}, {})))
        d2 = apply(create_b, Match(Morphism(empty, empty, {}, {})))
        pair = ParallelPair(d1, d2)
        witness = parallel_independent(pair)
        result = commute(pair)
        assert verify_commutation_squares(pair, witness, result)
        kept = sorted(result.Gp.nodes)[:1]
        smaller = graph({v: result.Gp.nlabel[v] for v in kept})
        corrupted = dataclasses.replace(result, Gp=smaller)
        report = verify_commutation_squares(pair, witness, corrupted)
        assert not report
        assert "(5)" in report.failed_clause


def both_deleted_removed(pair: ParallelPair) -> Graph:
    """G without the items either rule deletes, read off the matches."""
    G = pair.d1.G
    gone_v, gone_e = set(), set()
    for d in (pair.d1, pair.d2):
        b, m = d.rule.b, d.match.m
        gone_v |= {m.fv[v] for v in d.rule.L.nodes - set(b.fv.values())}
        gone_e |= {m.fe[e] for e in d.rule.L.edges - set(b.fe.values())}
    return graph(
        {v: G.nlabel[v] for v in G.nodes - gone_v},
        {e: (G.src[e], G.tgt[e], G.elabel[e]) for e in G.edges - gone_e},
    )


def large_pair(seed: int, n: int) -> ParallelPair:
    """On a random host of ``n`` nodes and ``2n`` edges, one rule deletes an
    edge between two distinct nodes and the other an isolated node."""
    rng = random.Random(seed)
    host = randgen.random_graph(rng, n, 2 * n, min_nodes=n)
    while len(host.edges) < n:
        host = randgen.random_graph(rng, n, 2 * n, min_nodes=n)
    e = min(e for e in host.edges if host.src[e] != host.tgt[e])
    s, t = host.src[e], host.tgt[e]
    k = graph({0: host.nlabel[s], 1: host.nlabel[t]})
    l = graph(dict(k.nlabel), {0: (0, 1, host.elabel[e])})
    edge_rule = Rule(L=l, K=k, R=k, b=Morphism(k, l, {0: 0, 1: 1}, {}), r=identity(k))
    touched = set(host.src.values()) | set(host.tgt.values())
    v = min(host.nodes - touched)
    empty, single = graph({}), graph({0: host.nlabel[v]})
    node_rule = Rule(L=single, K=empty, R=empty, b=Morphism(empty, single, {}, {}), r=identity(empty))
    return ParallelPair(
        apply(edge_rule, Match(Morphism(l, host, {0: s, 1: t}, {0: e}))),
        apply(node_rule, Match(Morphism(single, host, {0: v}, {}))),
    )


class TestSharedContext:
    """The decomposition's shared context is D1 ∩ D2, built by deletion on
    G's identifiers; read from the squares the verification checks."""

    @staticmethod
    def checked_squares(monkeypatch, pair: ParallelPair):
        seen = []
        for name in ("is_pullback", "is_pushout_injective"):
            check = getattr(independence, name)

            def spy(sq, check=check):
                seen.append(sq)
                return check(sq)

            monkeypatch.setattr(independence, name, spy)
        witness = parallel_independent(pair)
        assert verify_commutation_squares(pair, witness, commute(pair))
        labels = ("(12)", "(11)", "(21)", "(22)", "(31)", "(32)", "(41)", "(42)", "(5)")
        return dict(zip(labels, seen))

    def assert_decomposition(self, monkeypatch, pair: ParallelPair) -> None:
        squares = self.checked_squares(monkeypatch, pair)
        shared = both_deleted_removed(pair)
        assert squares["(12)"].A == shared
        assert squares["(32)"].A == shared
        assert is_inclusion(squares["(12)"].ab) and is_inclusion(squares["(12)"].ac)
        for label, d in (("(11)", pair.d1), ("(31)", pair.d2)):
            k = squares[label].ac
            assert k.target == shared
            assert (k.fv, k.fe) == (d.deletion.d.fv, d.deletion.d.fe)

    def test_generated_pairs(self, monkeypatch):
        rng = random.Random(71)
        for _ in range(20):
            self.assert_decomposition(monkeypatch, randgen.random_parallel_independent_pair(rng))
            monkeypatch.undo()

    def test_a_600_node_pair(self, monkeypatch):
        pair = large_pair(seed=3, n=600)
        assert len(pair.d1.G.nodes) == 600
        self.assert_decomposition(monkeypatch, pair)


class TestCorruptedWitness:
    """A witness that does not fit gives a failing report, never an exception."""

    def test_j1_that_moves_a_preserved_node_fails(self):
        host = graph({0: "b", 1: "b", 2: "a"})
        rule1 = loop_addition_rule()
        rule2 = node_deletion_rule()
        d1 = apply(rule1, Match(Morphism(rule1.L, host, {0: 0}, {})))
        d2 = apply(rule2, Match(Morphism(rule2.L, host, {0: 2}, {})))
        pair = ParallelPair(d1, d2)
        witness = parallel_independent(pair)
        result = commute(pair)
        moved = Morphism(witness.j1.source, witness.j1.target, {0: 1}, {})
        report = verify_commutation_squares(pair, dataclasses.replace(witness, j1=moved), result)
        assert not report

    def test_generated_witnesses_with_one_item_moved_fail(self):
        rng = random.Random(73)
        checked = 0
        while checked < 60:
            pair = randgen.random_parallel_independent_pair(rng)
            witness = parallel_independent(pair)
            name = rng.choice(("j1", "j2"))
            j = getattr(witness, name)
            fv, fe = dict(j.fv), dict(j.fe)
            G = pair.d1.G
            if j.source.edges and len(G.edges) > 1 and rng.random() < 0.5:
                e = rng.choice(sorted(j.source.edges))
                fe[e] = rng.choice(sorted(set(G.edges) - {fe[e]}))
            elif j.source.nodes and len(G.nodes) > 1:
                v = rng.choice(sorted(j.source.nodes))
                fv[v] = rng.choice(sorted(set(G.nodes) - {fv[v]}))
            else:
                continue
            moved = Morphism(j.source, j.target, fv, fe)
            report = verify_commutation_squares(
                pair, dataclasses.replace(witness, **{name: moved}), commute(pair)
            )
            assert not report
            checked += 1


class TestResidualsCheckedOnce:
    """commute hands each residual match to apply, whose checks are the only
    ones it meets; a failure there is an internal inconsistency."""

    @staticmethod
    def pair() -> ParallelPair:
        host = graph({0: "a", 1: "a", 2: "a", 3: "b"}, {0: (2, 3, "x")})
        keep = identity_rule(graph({0: "a", 1: "a"}))
        delete = node_deletion_rule()
        return ParallelPair(
            apply(keep, Match(Morphism(keep.L, host, {0: 1, 1: 2}, {}))),
            apply(delete, Match(Morphism(delete.L, host, {0: 0}, {}))),
        )

    def patch_residual(self, monkeypatch, which: int, fv: dict) -> None:
        real = independence.residual_match

        def fake(pair, witness):
            residuals = list(real(pair, witness))
            m = residuals[which].m
            residuals[which] = Match(Morphism(m.source, m.target, fv, dict(m.fe)))
            return tuple(residuals)

        monkeypatch.setattr(independence, "residual_match", fake)

    def test_non_injective_residual(self, monkeypatch):
        # m1' sends both a-nodes of the first rule to node 1 of H2
        self.patch_residual(monkeypatch, 1, {0: 1, 1: 1})
        with pytest.raises(InternalConsistencyError, match="residual application failed: .*not injective"):
            commute(self.pair())

    def test_dangling_residual(self, monkeypatch):
        # m2' deletes node 2 of H1, which the x-edge 0 still touches
        self.patch_residual(monkeypatch, 0, {0: 2})
        with pytest.raises(InternalConsistencyError, match=r"residual application failed: dangling edges: \[0\]"):
            commute(self.pair())
