import dataclasses
import random
from collections import Counter

import pytest

from dpo import constructions, diagrams, independence, rewriting
from dpo.constructions import DeletionResult, GluingResult
from dpo.errors import DependentDerivationsError, InternalConsistencyError, PreconditionError
from dpo.graph import CheckReport, Graph, Violation, graph, is_isomorphic
from dpo.independence import (
    CommutationResult,
    ParallelPair,
    blocking_items,
    commute,
    parallel_independent,
    residual_match,
    sequential_independent,
    verify_commutation_squares,
)
from dpo.morphism import Morphism, identity, is_injective, validate_morphism
from dpo.rewriting import (
    DirectDerivation,
    Match,
    Rule,
    apply,
    dangling_condition,
    find_matches,
    identity_rule,
)

from .generators import one_item_moved, random_graph, random_parallel_independent_pair, random_parallel_pair
from .oracles import (
    exhaustive_parallel_witness_exists,
    is_inclusion,
    reference_verify_commutation_squares,
)


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
        assert validate_morphism(witness.j1)
        assert validate_morphism(witness.j2)

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
        with pytest.raises(PreconditionError, match="parallel pair: derivations start from different graphs"):
            ParallelPair(d1, d2)

    def test_forced_candidate_agrees_with_exhaustive_search(self):
        rng = random.Random(47)
        for _ in range(40):
            pair = random_parallel_pair(rng)
            assert (parallel_independent(pair) is not None) == exhaustive_parallel_witness_exists(pair)
            assert bool(blocking_items(pair)) == (parallel_independent(pair) is not None)


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
            pair = random_parallel_independent_pair(rng)
            witness = parallel_independent(pair)
            assert witness is not None
            m2p, m1p = residual_match(pair, witness)
            for rule, m in ((pair.d2.rule, m2p), (pair.d1.rule, m1p)):
                assert validate_morphism(m.m)
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
        with pytest.raises(DependentDerivationsError) as exc:
            commute(pair)
        assert str(exc.value) == "commute: pair is not parallel independent: L1 into D2: node 0"

    def test_dependent_pair_names_the_first_item_blocked_in_either_triangle(self):
        host = graph({0: "a", 1: "a"}, {0: (0, 1, "x")})
        deleter, keeper = edge_deletion_rule(), identity_rule(host)
        d1 = apply(deleter, Match(Morphism(deleter.L, host, {0: 0, 1: 1}, {0: 0})))
        d2 = apply(keeper, Match(identity(host)))
        # only the second triangle is blocked: d2 deletes nothing d1 matched
        assert blocking_items(ParallelPair(d1, d2)) == CheckReport((Violation("L2 into D1", ("edge", 0)),))
        with pytest.raises(DependentDerivationsError) as exc:
            commute(ParallelPair(d1, d2))
        assert str(exc.value) == "commute: pair is not parallel independent: L2 into D1: edge 0"

    def test_swapped_pair_gives_isomorphic_result(self):
        rng = random.Random(59)
        for _ in range(15):
            pair = random_parallel_independent_pair(rng)
            forward = commute(pair)
            backward = commute(ParallelPair(pair.d2, pair.d1))
            assert is_isomorphic(forward.Gp, backward.Gp) is not None

    def test_composites_are_sequentially_independent(self):
        rng = random.Random(61)
        for _ in range(15):
            pair = random_parallel_independent_pair(rng)
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
            pair = random_parallel_independent_pair(rng)
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
        corrupted = with_result_graph(result, smaller)
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
        {e: G.edge[e] for e in G.edges - gone_e},
    )


def large_pair(seed: int, n: int) -> ParallelPair:
    """On a random host of ``n`` nodes and ``2n`` edges, one rule deletes an
    edge between two distinct nodes and the other an isolated node."""
    rng = random.Random(seed)
    host = random_graph(rng, n, 2 * n, min_nodes=n)
    while len(host.edges) < n:
        host = random_graph(rng, n, 2 * n, min_nodes=n)
    e = min(e for e in host.edges if host.edge[e][0] != host.edge[e][1])
    s, t, _ = host.edge[e]
    k = graph({0: host.nlabel[s], 1: host.nlabel[t]})
    l = graph(dict(k.nlabel), {0: (0, 1, host.edge[e][2])})
    edge_rule = Rule(L=l, K=k, R=k, b=Morphism(k, l, {0: 0, 1: 1}, {}), r=identity(k))
    touched = {v for s, t, _ in host.edge.values() for v in (s, t)}
    v = min(host.nodes - touched)
    empty, single = graph({}), graph({0: host.nlabel[v]})
    node_rule = Rule(L=single, K=empty, R=empty, b=Morphism(empty, single, {}, {}), r=identity(empty))
    return ParallelPair(
        apply(edge_rule, Match(Morphism(l, host, {0: s, 1: t}, {0: e}))),
        apply(node_rule, Match(Morphism(single, host, {0: v}, {}))),
    )


def with_a_node_added(g: Graph) -> Graph:
    """``g`` with one more, isolated node."""
    edges = {e: g.edge[e] for e in g.edges}
    return graph({**g.nlabel, max(g.nodes, default=-1) + 1: "z"}, edges)


def with_result_graph(result: CommutationResult, Gp: Graph) -> CommutationResult:
    """``result`` whose G', the graph its first composite ``e1`` ends in,
    is ``Gp``; ``e1``'s comatch is left as it was."""
    e1 = result.e1
    return dataclasses.replace(result, e1=dataclasses.replace(e1, gluing=dataclasses.replace(e1.gluing, H=Gp)))


class TestSharedContext:
    """The decomposition's shared context is D1 ∩ D2 on G's identifiers;
    read from the pushout complements (11) and (31) that the general path
    builds, by applying each rule in the other's context, reached with a G'
    the local pass rejects."""

    @staticmethod
    def checked_squares(monkeypatch, pair: ParallelPair):
        built = []
        delete = rewriting.deletion

        def spy(b, j):
            built.append(delete(b, j))
            return built[-1]

        witness = parallel_independent(pair)
        result = commute(pair)
        monkeypatch.setattr(rewriting, "deletion", spy)
        corrupted = with_result_graph(result, with_a_node_added(result.Gp))
        assert not verify_commutation_squares(pair, witness, corrupted)
        return dict(zip(("(11)", "(31)"), built, strict=True))

    def assert_decomposition(self, monkeypatch, pair: ParallelPair) -> None:
        squares = self.checked_squares(monkeypatch, pair)
        shared = both_deleted_removed(pair)
        # (12) is the square of pi2 and pi1, the inclusions (11) and (31)
        # have as cd, over c2 and c1
        pi2, pi1 = squares["(11)"].c, squares["(31)"].c
        assert pi2.source == shared and pi1.source == shared
        assert is_inclusion(pi2) and is_inclusion(pi1)
        assert (pi2.target, pi1.target) == (pair.d2.D, pair.d1.D)
        for label, d in (("(11)", pair.d1), ("(31)", pair.d2)):
            k = squares[label].d
            assert k.target == shared
            assert (k.fv, k.fe) == (d.deletion.d.fv, d.deletion.d.fe)

    def test_generated_pairs(self, monkeypatch):
        rng = random.Random(71)
        for _ in range(20):
            self.assert_decomposition(monkeypatch, random_parallel_independent_pair(rng))
            monkeypatch.undo()

    def test_a_600_node_pair(self, monkeypatch):
        pair = large_pair(seed=3, n=600)
        assert len(pair.d1.G.nodes) == 600
        self.assert_decomposition(monkeypatch, pair)


def assembled_result(pair: ParallelPair, witness) -> CommutationResult:
    """The diamond closed by applying each rule at its residual match,
    without commute's isomorphism search; verification does not read iso."""
    m2p, m1p = residual_match(pair, witness)
    e1, e2 = apply(pair.d2.rule, m2p), apply(pair.d1.rule, m1p)
    return CommutationResult(e1=e1, e2=e2, iso=None)


class TestNoHostSizedPass:
    """A passing instance is decided without the general checks, the
    host-sized mediators, the context inclusions, any construction or any
    rule application: it builds no graph or morphism."""

    UNCALLED = (
        "is_pushout_injective", "is_pullback", "pushout_mediator",
        "gluing", "deletion", "certify_pushout", "apply",
    )

    def assert_local_pass(self, monkeypatch, pair: ParallelPair, result=None) -> None:
        witness = parallel_independent(pair)
        result = result or commute(pair)
        calls = []
        # each name where it is defined and wherever independence imports it
        for module in (constructions, diagrams, independence):
            for name in self.UNCALLED:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
        assert verify_commutation_squares(pair, witness, result)
        monkeypatch.undo()
        assert calls == []
        for d in (pair.d1, pair.d2):
            assert "c" not in vars(d.deletion) and "c" not in vars(d.gluing)

    def test_generated_pairs(self, monkeypatch):
        rng = random.Random(79)
        for _ in range(30):
            self.assert_local_pass(monkeypatch, random_parallel_independent_pair(rng))

    def test_a_600_node_pair(self, monkeypatch):
        self.assert_local_pass(monkeypatch, large_pair(seed=3, n=600))

    def test_a_10000_node_pair(self, monkeypatch):
        pair = large_pair(seed=5, n=10_000)
        self.assert_local_pass(monkeypatch, pair, assembled_result(pair, parallel_independent(pair)))


class TestNoSquareOnAPassingPath:
    """A square is checked when it is built, so the passing paths build
    none: apply certifies both its squares locally, and so does a passing
    verify_commutation_squares."""

    def test_apply_and_a_passing_verification_build_no_square(self, monkeypatch):
        built, check = [], diagrams.Square.__post_init__

        def counting(sq):
            built.append(sq)
            check(sq)

        monkeypatch.setattr(diagrams.Square, "__post_init__", counting)
        rng = random.Random(89)
        pairs = [random_parallel_independent_pair(rng) for _ in range(50)]  # two applications each
        assert built == []
        for pair in pairs[:10]:
            assert verify_commutation_squares(pair, parallel_independent(pair), commute(pair))
        assert built == []
        # the spy sees a square that is built
        sq = diagrams.Square(*[identity(graph({0: "a"}))] * 4)
        assert built == [sq]


def with_comatch(d, h: Morphism):
    """The derivation ``d`` with its comatch replaced by ``h``."""
    return dataclasses.replace(d, gluing=dataclasses.replace(d.gluing, h=h))


class TestCorruptedWitness:
    """A witness that does not fit gives a failing report, never an exception."""

    @staticmethod
    def diamond():
        """A loop added at a b-node next to an a-node deleted: the pair, its
        witness and its closed diamond."""
        host = graph({0: "b", 1: "b", 2: "a"})
        rule1 = loop_addition_rule()
        rule2 = node_deletion_rule()
        d1 = apply(rule1, Match(Morphism(rule1.L, host, {0: 0}, {})))
        d2 = apply(rule2, Match(Morphism(rule2.L, host, {0: 2}, {})))
        pair = ParallelPair(d1, d2)
        return pair, parallel_independent(pair), commute(pair)

    def test_j1_that_moves_a_preserved_node_fails(self):
        pair, witness, result = self.diamond()
        moved = Morphism(witness.j1.source, witness.j1.target, {0: 1}, {})
        report = verify_commutation_squares(pair, dataclasses.replace(witness, j1=moved), result)
        assert report.violations == (
            Violation("decomposition construction failed: pushout_mediator: cospan does not factor", ("node", 1)),
        )

    def test_a_witness_into_another_graph_names_its_part(self):
        pair, witness, result = self.diamond()
        into_g = Morphism(witness.j1.source, pair.d1.G, dict(witness.j1.fv), {})
        report = verify_commutation_squares(pair, dataclasses.replace(witness, j1=into_g), result)
        assert report.violations == (Violation("witness j1 is not a morphism into its context", ("j1",)),)

    def test_a_witness_that_is_no_morphism_names_its_first_violation(self):
        pair, witness, result = self.diamond()
        off = Morphism(witness.j2.source, witness.j2.target, {0: 7}, {})
        report = verify_commutation_squares(pair, dataclasses.replace(witness, j2=off), result)
        assert report.violations == (
            Violation("witness j2 is not a morphism into its context: fv out of target nodes", ("node", 0)),
        )

    def test_a_result_that_misses_the_context_names_the_item(self):
        # G' read from d2, which has no edge for the loop d1 adds
        pair, witness, result = self.diamond()
        misfit = dataclasses.replace(result, e1=pair.d2)
        report = verify_commutation_squares(pair, witness, misfit)
        assert report.violations == (
            Violation("square (5): context embedding into G' invalid: fe out of target edges", ("edge", 0)),
        )
        assert report == reference_verify_commutation_squares(pair, witness, misfit)

    def test_a_moved_comatch_of_e1_names_the_node_where_square_5_does_not_factor(self):
        # with the derivations swapped, e1 adds the loop at b-node 0 of d1's
        # result; its comatch moved to node 1 leaves square (5)'s mediator
        # two images for one node
        pair, _, _ = self.diamond()
        pair = ParallelPair(pair.d2, pair.d1)
        witness, result = parallel_independent(pair), commute(pair)
        h = result.e1.comatch
        moved = dataclasses.replace(result, e1=with_comatch(result.e1, Morphism(h.source, h.target, {0: 1}, dict(h.fe))))
        report = verify_commutation_squares(pair, witness, moved)
        assert report.violations == (
            Violation("square (5): construction failed: pushout_mediator: cospan does not factor", ("node", 0)),
        )
        assert report == reference_verify_commutation_squares(pair, witness, moved)

    def test_generated_witnesses_with_one_item_moved_fail(self):
        rng = random.Random(73)
        checked = 0
        while checked < 60:
            pair = random_parallel_independent_pair(rng)
            witness = parallel_independent(pair)
            name = rng.choice(("j1", "j2"))
            moved = one_item_moved(rng, getattr(witness, name), pair.d1.G)
            if moved is None:
                continue
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
        with pytest.raises(InternalConsistencyError, match=r"^commute: residual application failed: dangling edges: 0$"):
            commute(self.pair())


def shrunk(rng: random.Random, g: Graph):
    """``g`` without one edge, or without one node and its edges."""
    if g.edges and rng.random() < 0.5:
        gone_v, gone_e = set(), {rng.choice(sorted(g.edges))}
    elif g.nodes:
        v = rng.choice(sorted(g.nodes))
        gone_v, gone_e = {v}, {e for e in g.edges if v in g.edge[e][:2]}
    else:
        return None
    return graph(
        {v: g.nlabel[v] for v in g.nodes - gone_v},
        {e: g.edge[e] for e in g.edges - gone_e},
    )


def relabelled(rng: random.Random, g: Graph):
    """``g`` with the label of one edge or one node changed."""
    if g.edges and rng.random() < 0.5:
        e = rng.choice(sorted(g.edges))
        s, t, label = g.edge[e]
        return dataclasses.replace(g, edge={**g.edge, e: (s, t, label + "'")})
    if not g.nodes:
        return None
    v = rng.choice(sorted(g.nodes))
    return dataclasses.replace(g, nlabel={**g.nlabel, v: g.nlabel[v] + "'"})


def context_and_result_relabelled(d, v: int, label: str):
    """The derivation ``d`` with node ``v`` of its context and of its result
    relabelled, and its ``k`` and comatch retargeted to them."""
    D = dataclasses.replace(d.D, nlabel={**d.D.nlabel, v: label})
    H = dataclasses.replace(d.H, nlabel={**d.H.nlabel, v: label})
    h, k = d.comatch, d.deletion.d
    return dataclasses.replace(
        d,
        deletion=dataclasses.replace(d.deletion, D=D, d=Morphism(k.source, D, k.fv, k.fe)),
        gluing=dataclasses.replace(d.gluing, D=D, H=H, h=Morphism(h.source, H, h.fv, h.fe)),
    )


def with_partial_comatch(rng: random.Random, result: CommutationResult):
    """``result`` whose ``e1.comatch`` has lost one node map entry."""
    h = result.e1.comatch
    if not h.fv:
        return None
    fv = dict(h.fv)
    del fv[rng.choice(sorted(fv))]
    e1 = with_comatch(result.e1, Morphism(h.source, h.target, fv, dict(h.fe)))
    return dataclasses.replace(result, e1=e1)


def with_least_node_dropped(pair: ParallelPair, which: str, part: str):
    """``pair`` whose derivation ``which`` has lost the least node map
    entry of its ``k``, comatch ``h`` or ``match``, and that node; ``None``
    and ``None`` when that morphism maps no node."""
    d = getattr(pair, which)
    m = {"k": d.deletion.d, "h": d.comatch, "match": d.match.m}[part]
    if not m.fv:
        return None, None
    node = min(m.fv)
    partial = Morphism(m.source, m.target, {v: w for v, w in m.fv.items() if v != node}, m.fe)
    if part == "k":
        d = dataclasses.replace(d, deletion=dataclasses.replace(d.deletion, d=partial))
    elif part == "h":
        d = with_comatch(d, partial)
    else:
        d = dataclasses.replace(d, match=Match(partial))
    return dataclasses.replace(pair, **{which: d}), node


class TestAgainstReference:
    """The local pass and the general fallback together give the same
    report as the reference, which builds and checks every square."""

    def variants(self, rng: random.Random, pair: ParallelPair):
        witness = parallel_independent(pair)
        result = commute(pair)
        yield "intact", pair, witness, result
        name = rng.choice(("j1", "j2"))
        moved = one_item_moved(rng, getattr(witness, name), pair.d1.G)
        if moved is not None:
            yield "witness moved", pair, dataclasses.replace(witness, **{name: moved}), result
        for name, corrupt in (("G' shrunk", shrunk), ("G' relabelled", relabelled)):
            Gp = corrupt(rng, result.Gp)
            if Gp is not None:
                yield name, pair, witness, with_result_graph(result, Gp)
        yield "e1, e2 swapped", pair, witness, dataclasses.replace(result, e1=result.e2, e2=result.e1)
        moved = one_item_moved(rng, result.e1.comatch, result.Gp)
        if moved is not None:
            yield "e1 comatch moved", pair, witness, dataclasses.replace(result, e1=with_comatch(result.e1, moved))
        which = rng.choice(("d1", "d2"))
        d = getattr(pair, which)
        moved = one_item_moved(rng, d.comatch, d.H)
        if moved is not None:
            yield "comatch moved", dataclasses.replace(pair, **{which: with_comatch(d, moved)}), witness, result
        # both contexts relabel one host node that neither match touches
        untouched = pair.d1.G.nodes - {*pair.d1.match.m.fv.values(), *pair.d2.match.m.fv.values()}
        if untouched:
            v = min(untouched)
            label = pair.d1.G.nlabel[v] + "'"
            relabelled_pair = ParallelPair(*(context_and_result_relabelled(d, v, label) for d in (pair.d1, pair.d2)))
            yield (
                "contexts relabelled",
                relabelled_pair,
                parallel_independent(relabelled_pair),
                commute(relabelled_pair),
            )

    def test_identical_reports(self):
        rng = random.Random(83)
        seen = Counter()
        for _ in range(200):
            for name, pair, witness, result in self.variants(rng, random_parallel_independent_pair(rng)):
                report = verify_commutation_squares(pair, witness, result)
                assert report == reference_verify_commutation_squares(pair, witness, result), name
                seen[name, bool(report)] += 1
        assert seen["intact", True] == 200
        for name in (
            "witness moved",
            "G' shrunk",
            "G' relabelled",
            "e1, e2 swapped",
            "e1 comatch moved",
            "comatch moved",
            "contexts relabelled",
        ):
            assert seen[name, False] > 100, name

    def test_degenerate_and_large_instances(self):
        g = graph({0: "a"}, {0: (0, 0, "x")})
        d = apply(identity_rule(g), Match(identity(g)))
        for pair in (ParallelPair(d, d), large_pair(seed=3, n=600)):
            witness = parallel_independent(pair)
            result = commute(pair)
            report = verify_commutation_squares(pair, witness, result)
            assert report and report == reference_verify_commutation_squares(pair, witness, result)

    def test_a_partial_comatch_fails_square_5(self):
        # the reference meets the missing entry in the mediator of square
        # (5), which names the same node under its own clause
        rng = random.Random(3)
        checked = 0
        while checked < 100:
            pair = random_parallel_independent_pair(rng)
            result = with_partial_comatch(rng, commute(pair))
            if result is None:
                continue
            witness = parallel_independent(pair)
            expected = reference_verify_commutation_squares(pair, witness, result)
            assert expected.failed_clause == "square (5): construction failed: pushout_mediator: cospan leg 'p' is not total"
            report = verify_commutation_squares(pair, witness, result)
            assert not report
            assert report.failed_clause == "square (5): comatch of e1 is not total"
            assert report.counterexample == expected.counterexample
            assert report.counterexample[0] == "node"
            assert report.counterexample[1] not in result.e1.comatch.fv
            checked += 1

    def test_a_partial_context_morphism_gives_the_reference_outcome(self):
        # d1's k loses its least K-node: the local pass must not read the
        # missing entry, and the general path then meets what the reference
        # meets, d1's left square built with a partial 'ac', and fails there
        def outcome(check, pair, witness, result):
            try:
                return check(pair, witness, result)
            except Exception as exc:
                return type(exc), str(exc)

        rng = random.Random(5)
        failing = 0
        for _ in range(300):
            pair = random_parallel_independent_pair(rng)
            corrupted, node = with_least_node_dropped(pair, "d1", "k")
            if corrupted is None:
                continue
            witness, result = parallel_independent(pair), commute(pair)
            got = outcome(verify_commutation_squares, corrupted, witness, result)
            assert got == outcome(reference_verify_commutation_squares, corrupted, witness, result)
            assert isinstance(got, CheckReport) and not got
            assert str(got) == f"composite (11)+(12): square 'ac': invalid morphism: fv not total on source nodes: node {node}"
            failing += 1
        assert failing == 194

    @pytest.mark.parametrize(
        "which, part, clause, count",
        [
            ("d1", "k", "composite (11)+(12): square 'ac': invalid morphism: fv not total on source nodes", 133),
            ("d1", "h", "decomposition construction failed: pushout_mediator: cospan leg 'p' is not total", 176),
            ("d1", "match", "composite (11)+(12): square 'bd': invalid morphism: fv not total on source nodes", 179),
            ("d2", "k", "composite (31)+(32): square 'ac': invalid morphism: fv not total on source nodes", 129),
            ("d2", "h", "decomposition construction failed: pushout_mediator: cospan leg 'p' is not total", 182),
            ("d2", "match", "composite (31)+(32): square 'bd': invalid morphism: fv not total on source nodes", 171),
        ],
    )
    def test_a_partial_derivation_morphism_fails_as_the_reference_does(self, which, part, clause, count):
        # one of the pair's own k, comatch h or match loses its least node:
        # every such draw gives a failing report naming that node, and
        # nothing raises, in the engine or in the reference
        rng = random.Random(5)
        failing = 0
        for _ in range(200):
            pair = random_parallel_independent_pair(rng)
            corrupted, node = with_least_node_dropped(pair, which, part)
            if corrupted is None:
                continue
            witness, result = parallel_independent(pair), commute(pair)
            report = verify_commutation_squares(corrupted, witness, result)
            assert report == reference_verify_commutation_squares(corrupted, witness, result)
            assert (report.failed_clause, report.counterexample) == (clause, ("node", node))
            failing += 1
        assert failing == count

    def test_a_10000_node_result_relabelled(self):
        # the local pass rejects e1's result, so the general path builds
        # and checks every square on the 10^4-node host, as the reference does
        pair = large_pair(seed=5, n=10_000)
        witness = parallel_independent(pair)
        result = assembled_result(pair, witness)
        Gp = result.Gp
        v = min(Gp.nodes)
        corrupted = with_result_graph(result, dataclasses.replace(Gp, nlabel={**Gp.nlabel, v: Gp.nlabel[v] + "'"}))
        report = verify_commutation_squares(pair, witness, corrupted)
        assert not report
        assert report.failed_clause.startswith("square (5)")
        assert report == reference_verify_commutation_squares(pair, witness, corrupted)


class TestCorruptedPair:
    """Derivations that do not fit the host, the witness, each other or the
    result, one way each; every one fails, with the reference's report."""

    @staticmethod
    def pair() -> ParallelPair:
        host = graph({0: "a", 1: "a", 2: "b", 3: "b"})
        l, empty = graph({0: "a", 1: "a"}), graph({})
        delete_two = Rule(L=l, K=empty, R=empty, b=Morphism(empty, l, {}, {}), r=identity(empty))
        add_loop = loop_addition_rule()
        return ParallelPair(
            apply(delete_two, Match(Morphism(l, host, {0: 0, 1: 1}, {}))),
            apply(add_loop, Match(Morphism(add_loop.L, host, {0: 2}, {}))),
        )

    @staticmethod
    def relabel(g: Graph, v: int, label: str) -> Graph:
        return dataclasses.replace(g, nlabel={**g.nlabel, v: label})

    def witness_swapping_the_deleted_nodes(self, pair, witness, result):
        j1 = witness.j1
        return pair, dataclasses.replace(witness, j1=Morphism(j1.source, j1.target, {0: 1, 1: 0}, {})), result

    def host_with_a_node_neither_context_has(self, pair, witness, result):
        G = graph({**pair.d1.G.nlabel, 9: "c"})

        def moved(d):
            m = d.match.m
            return dataclasses.replace(
                d,
                match=Match(Morphism(m.source, G, m.fv, m.fe)),
                deletion=dataclasses.replace(d.deletion, G=G),
            )

        return ParallelPair(moved(pair.d1), moved(pair.d2)), witness, result

    def first_context_and_result_relabelled(self, pair, witness, result):
        d1 = context_and_result_relabelled(pair.d1, 3, "c")
        j2 = Morphism(witness.j2.source, d1.D, witness.j2.fv, witness.j2.fe)
        return ParallelPair(d1, pair.d2), dataclasses.replace(witness, j2=j2), result

    def both_contexts_and_results_relabelled(self, pair, witness, result):
        # node 3 is b in G and c in both contexts and results; neither match
        # touches it, so the pair is independent and commutes as built
        pair = ParallelPair(*(context_and_result_relabelled(d, 3, "c") for d in (pair.d1, pair.d2)))
        return pair, parallel_independent(pair), commute(pair)

    def result_relabelled(self, d, v: int):
        """The derivation ``d`` with node ``v`` of its result relabelled and
        its comatch retargeted to it."""
        H, h = self.relabel(d.H, v, "c"), d.comatch
        return dataclasses.replace(d, gluing=dataclasses.replace(d.gluing, H=H, h=Morphism(h.source, H, h.fv, h.fe)))

    def first_result_relabelled(self, pair, witness, result):
        return ParallelPair(self.result_relabelled(pair.d1, 3), pair.d2), witness, result

    def second_result_relabelled(self, pair, witness, result):
        # node 0 is kept by d2 and deleted by d1, so G' never has it; only
        # d2's context inclusion into its result reads its label
        return ParallelPair(pair.d1, self.result_relabelled(pair.d2, 0)), witness, result

    def first_gluing_context_relabelled(self, pair, witness, result):
        d1 = pair.d1
        d1 = dataclasses.replace(d1, gluing=dataclasses.replace(d1.gluing, D=self.relabel(d1.D, 3, "c")))
        return ParallelPair(d1, pair.d2), witness, result

    def e1_context_and_result_relabelled(self, pair, witness, result):
        # e1 agrees with itself and with G', but its context relabels node 3
        # of d1's result, the host it starts from
        e1 = context_and_result_relabelled(result.e1, 3, "c")
        return pair, witness, dataclasses.replace(result, e1=e1)

    def first_match_folding_two_preserved_nodes(self, pair, witness, result):
        # d1 keeps both a-nodes of its rule, and its match sends them to
        # host node 0; its context and result are the host itself, so every
        # delta agrees, and only the match's injectivity fails
        keep_two = identity_rule(graph({0: "a", 1: "a"}))
        G, folded = pair.d1.G, {0: 0, 1: 0}
        d1 = DirectDerivation(
            rule=keep_two,
            match=Match(Morphism(keep_two.L, G, folded, {})),
            deletion=DeletionResult(D=G, d=Morphism(keep_two.K, G, folded, {}), G=G),
            gluing=GluingResult(H=G, h=Morphism(keep_two.R, G, folded, {}), D=G),
        )
        pair = ParallelPair(d1, pair.d2)
        witness = parallel_independent(pair)
        # commute cannot apply the first rule at a folded residual; e1 is
        # what verification reads
        e1 = apply(pair.d2.rule, residual_match(pair, witness)[0])
        return pair, witness, dataclasses.replace(result, e1=e1)

    @pytest.mark.parametrize(
        "corruption, violation",
        [
            (
                "witness_swapping_the_deleted_nodes",
                Violation("composite (11)+(12) differs from the derivation square", ("bd",)),
            ),
            (
                "first_result_relabelled",
                Violation(
                    "decomposition construction failed: pushout_mediator: mediating map is not a morphism: "
                    "node label not preserved",
                    ("node", 3),
                ),
            ),
            (
                "second_result_relabelled",
                Violation(
                    "decomposition construction failed: square 'cd': invalid morphism: node label not preserved",
                    ("node", 0),
                ),
            ),
        ],
    )
    def test_a_failure_while_building_or_pasting_names_its_item(self, corruption, violation):
        # the error raised while building a square, or the arrow in which a
        # composite differs, is the item under the stage's label
        pair = self.pair()
        report = verify_commutation_squares(*getattr(self, corruption)(pair, parallel_independent(pair), commute(pair)))
        assert report.violations == (violation,)

    def test_second_host_relabelled_is_refused(self):
        # node 0 is deleted by d1 and kept by d2, whose own host differs
        # there, where no context reads: the pair is refused when built
        pair = self.pair()
        d2 = pair.d2
        G2 = self.relabel(d2.G, 0, "c")
        m = d2.match.m
        d2 = dataclasses.replace(
            d2, match=Match(Morphism(m.source, G2, m.fv, m.fe)), deletion=dataclasses.replace(d2.deletion, G=G2)
        )
        with pytest.raises(PreconditionError, match="parallel pair: derivations start from different graphs"):
            ParallelPair(pair.d1, d2)

    @pytest.mark.parametrize(
        "corruption",
        [
            "first_match_folding_two_preserved_nodes",
            "witness_swapping_the_deleted_nodes",
            "host_with_a_node_neither_context_has",
            "first_context_and_result_relabelled",
            "first_result_relabelled",
            "second_result_relabelled",
            "first_gluing_context_relabelled",
            "both_contexts_and_results_relabelled",
            "e1_context_and_result_relabelled",
        ],
    )
    def test_fails_as_the_reference_does(self, corruption):
        pair = self.pair()
        witness = parallel_independent(pair)
        result = commute(pair)
        assert verify_commutation_squares(pair, witness, result)
        pair, witness, result = getattr(self, corruption)(pair, witness, result)
        report = verify_commutation_squares(pair, witness, result)
        assert not report
        assert report == reference_verify_commutation_squares(pair, witness, result)
