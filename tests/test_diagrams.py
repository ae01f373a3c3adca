import random
from collections import Counter

import pytest
from hypothesis import given

from dpo.constructions import gluing, pullback_construct
from dpo.diagrams import (
    Square,
    commutes,
    compose_squares_vertical,
    is_pullback,
    is_pushout_injective,
    jointly_surjective,
    pushout_mediator,
    reduced_chain_condition,
    squares_agree,
)
from dpo.errors import PreconditionError
from dpo.graph import failure, graph
from dpo.morphism import (
    Morphism,
    compose,
    identity,
    is_injective,
    morphisms_agree,
)

from .generators import (
    NODE_LABELS,
    one_item_moved,
    random_cospan,
    random_embedding,
    random_graph,
    random_morphism_into,
    random_span,
)
from .oracles import (
    built_square,
    is_surjective,
    pullback_chain_condition,
    reference_enumerate_morphisms,
    reference_is_pullback,
    reference_jointly_surjective,
    reference_pushout_mediator,
)
from .strategies import square_legs


def identity_square(g) -> Square:
    i = identity(g)
    return Square(ab=i, ac=i, bd=i, cd=i)


def random_gluing_square(rng, **kwargs) -> Square:
    b, d = random_span(rng, **kwargs)
    result = gluing(b, d)
    return Square(ab=b, ac=d, bd=result.h, cd=result.c)


def random_pullback_square(rng, **kwargs) -> Square:
    f, g = random_cospan(rng, **kwargs)
    result = pullback_construct(f, g)
    return Square(ab=result.b, ac=result.c, bd=f, cd=g)


class TestCommutes:
    def test_identity_square(self):
        assert commutes(identity_square(graph({0: "a"}, {0: (0, 0, "x")})))

    def test_gluing_square_commutes(self):
        assert commutes(random_gluing_square(random.Random(1)))

    def test_perturbed_square_reports_the_node(self):
        g = graph({0: "a", 1: "a"})
        i = identity(g)
        swap = Morphism(g, g, {0: 1, 1: 0}, {})
        report = commutes(Square(ab=i, ac=i, bd=swap, cd=i))
        assert not report
        assert report.failed_clause == "commutativity"
        assert report.counterexample == ("node", 0)

    def test_wiring_mismatch_raises(self):
        with pytest.raises(PreconditionError):
            commutes(Square(ab=identity(graph({0: "a"})), ac=identity(graph({0: "b"})),
                            bd=identity(graph({0: "a"})), cd=identity(graph({0: "b"}))))

    def test_a_relabelling_leg_raises_when_the_square_is_built(self):
        a, b = graph({0: "a"}), graph({0: "b"})
        into_b = Morphism(a, b, {0: 0}, {})
        with pytest.raises(PreconditionError) as raised:
            Square(ab=identity(a), ac=identity(a), bd=into_b, cd=into_b)
        assert str(raised.value) == "square 'bd': invalid morphism: node label not preserved: node 0"


class TestReducedChainCondition:
    def test_identity_square(self):
        assert reduced_chain_condition(identity_square(graph({0: "a"})))

    def test_canonical_pullback_square(self):
        assert reduced_chain_condition(random_pullback_square(random.Random(2)))

    def test_empty_apex_with_agreeing_pair_fails(self):
        empty = graph({})
        single = graph({0: "a"})
        sq = Square(
            ab=Morphism(empty, single, {}, {}),
            ac=Morphism(empty, single, {}, {}),
            bd=identity(single),
            cd=identity(single),
        )
        report = reduced_chain_condition(sq)
        assert not report
        assert report.counterexample == ("node", 0, 0)


def outcome(check, *args):
    """A check's report, or the message of the PreconditionError it raised."""
    try:
        return check(*args)
    except PreconditionError as exc:
        return f"raised: {exc}"


class TestChainConditionAgainstThePullbackObject:
    """The chain-condition reads the cospan's agreeing pairs without building
    the pullback object; the oracle builds it and reads its pairs. Legs that
    are not all morphisms form no square, and get no report."""

    @given(square_legs())
    def test_reports_are_identical_to_the_oracle(self, legs):
        sq = built_square(legs)
        if sq is None:
            return
        expected = outcome(pullback_chain_condition, sq)
        commuting = commutes(sq)
        if commuting:
            assert outcome(reduced_chain_condition, sq) == expected
            if is_injective(sq.ab):
                # the mediating map is then injective, so is_pullback is
                # the chain-condition under its surjectivity clause
                chain = reduced_chain_condition(sq)
                assert is_pullback(sq) == (chain or failure("mediating map not surjective", chain.counterexample))
        if all(is_injective(m) for m in (sq.ab, sq.ac, sq.bd, sq.cd)):
            if not commuting:
                pushout = commuting
            elif isinstance(expected, str) or not expected:
                pushout = expected
            else:
                pushout = jointly_surjective(sq.bd, sq.cd)
            assert outcome(is_pushout_injective, sq) == pushout

    def test_endpoint_breaking_leg_raises_the_pullback_error(self):
        # bd and cd agree on the edge but not on its endpoints, so bd is not
        # a morphism: the pullback construction of the cospan raises, and the
        # square is rejected when built, naming bd, before any check reads it
        edge = graph({0: "a", 1: "a"}, {0: (0, 1, "x")})
        target = graph({0: "a", 1: "a", 2: "a"}, {0: (0, 1, "x")})
        empty = graph({})
        legs = {
            "ab": Morphism(empty, edge, {}, {}),
            "ac": Morphism(empty, edge, {}, {}),
            "bd": Morphism(edge, target, {0: 1, 1: 2}, {0: 0}),
            "cd": Morphism(edge, target, {0: 0, 1: 1}, {0: 0}),
        }
        with pytest.raises(PreconditionError, match="pullback_pairs: f or g does not preserve edge endpoints"):
            pullback_construct(legs["bd"], legs["cd"])
        with pytest.raises(PreconditionError) as raised:
            Square(**legs)
        assert str(raised.value) == "square 'bd': invalid morphism: source not preserved: edge 0"


class TestJointlySurjective:
    def test_one_surjective_leg_suffices(self):
        g = graph({0: "a"})
        assert jointly_surjective(identity(g), Morphism(graph({}), g, {}, {}))

    def test_gluing_cospan_is_jointly_surjective(self):
        rng = random.Random(3)
        b, d = random_span(rng)
        result = gluing(b, d)
        assert jointly_surjective(result.h, result.c)

    def test_unreached_node_is_named(self):
        g = graph({0: "a"})
        h = graph({0: "a", 1: "b"})
        inc = Morphism(g, h, {0: 0}, {})
        report = jointly_surjective(inc, inc)
        assert not report
        assert report.counterexample == ("node", 1)


class TestIsPushoutInjective:
    def test_identity_square(self):
        assert is_pushout_injective(identity_square(graph({0: "a"}, {0: (0, 0, "x")})))

    def test_gluing_squares_pass(self):
        rng = random.Random(4)
        for _ in range(30):
            assert is_pushout_injective(random_gluing_square(rng))

    def test_extra_target_node_fails_joint_surjectivity(self):
        g = graph({0: "a"})
        h = graph({0: "a", 1: "b"})
        inc = Morphism(g, h, {0: 0}, {})
        report = is_pushout_injective(Square(ab=identity(g), ac=identity(g), bd=inc, cd=inc))
        assert not report
        assert report.failed_clause == "joint surjectivity"

    def test_non_injective_leg_is_a_scope_error(self):
        two = graph({0: "a", 1: "a"})
        one = graph({0: "a"})
        fold = Morphism(two, one, {0: 0, 1: 0}, {})
        with pytest.raises(PreconditionError):
            is_pushout_injective(Square(ab=fold, ac=fold, bd=identity(one), cd=identity(one)))

    def test_pushouts_are_pullbacks(self):
        rng = random.Random(5)
        for _ in range(30):
            sq = random_gluing_square(rng)
            assert is_pushout_injective(sq)
            assert is_pullback(sq)

    def test_preservation_of_surjectivity_and_injectivity(self):
        rng = random.Random(6)
        for _ in range(30):
            b, d = random_span(rng, surjective_b=True)
            result = gluing(b, d)
            sq = Square(ab=b, ac=d, bd=result.h, cd=result.c)
            assert is_surjective(sq.ab)
            assert is_surjective(sq.cd)
        for _ in range(30):
            sq = random_gluing_square(rng)
            assert is_injective(sq.ab)
            assert is_injective(sq.cd)


class TestIsPullback:
    def test_canonical_construction_passes(self):
        rng = random.Random(7)
        for _ in range(30):
            assert is_pullback(random_pullback_square(rng))

    def test_special_diagram_with_injective_m(self):
        rng = random.Random(8)
        for _ in range(30):
            k = random_graph(rng, 4, 3)
            m = random_embedding(rng, k, 2, 2)
            sq = Square(ab=identity(k), ac=identity(k), bd=m, cd=m)
            assert is_pullback(sq)

    def test_special_diagram_with_non_injective_m_fails(self):
        two = graph({0: "a", 1: "a"})
        one = graph({0: "a"})
        fold = Morphism(two, one, {0: 0, 1: 0}, {})
        sq = Square(ab=identity(two), ac=identity(two), bd=fold, cd=fold)
        report = is_pullback(sq)
        assert not report
        assert report.failed_clause == "mediating map not surjective"

    def test_dropping_a_pair_breaks_surjectivity_of_the_mediator(self):
        rng = random.Random(9)
        victim = None
        while victim is None:
            # draw until the pullback has a node pair no edge pair touches
            f, g = random_cospan(rng, max_target_nodes=3, max_source_nodes=3)
            result = pullback_construct(f, g)
            ends = {v for s, t, _ in result.A.edge.values() for v in (s, t)}
            victim = max(result.A.nodes - ends, default=None)
        smaller = graph({v: label for v, label in result.A.nlabel.items() if v != victim}, result.A.edge)
        sq = Square(
            ab=Morphism(smaller, f.source, {v: result.b.fv[v] for v in smaller.nodes}, dict(result.b.fe)),
            ac=Morphism(smaller, g.source, {v: result.c.fv[v] for v in smaller.nodes}, dict(result.c.fe)),
            bd=f,
            cd=g,
        )
        report = is_pullback(sq)
        assert not report
        assert report.failed_clause == "mediating map not surjective"

    def test_non_commuting_square_raises(self):
        g = graph({0: "a", 1: "a"})
        i = identity(g)
        swap = Morphism(g, g, {0: 1, 1: 0}, {})
        with pytest.raises(PreconditionError):
            is_pullback(Square(ab=i, ac=i, bd=swap, cd=i))


LEGS = {"ab": ("A", "B"), "ac": ("A", "C"), "bd": ("B", "D"), "cd": ("C", "D")}
CORRUPTIONS = ("none", "shrink", "merge", "alias", "move", "relabel")


def relabelled(rng, g):
    """``g`` with the label of one node or edge changed, if it has one."""
    nodes = dict(g.nlabel)
    edges = {e: g.edge[e] for e in g.edges}
    if edges and (not nodes or rng.random() < 0.5):
        e = rng.choice(sorted(edges))
        s, t, label = edges[e]
        edges[e] = (s, t, "y" if label == "x" else "x")
    elif nodes:
        v = rng.choice(sorted(nodes))
        nodes[v] = rng.choice([x for x in NODE_LABELS if x != nodes[v]])
    return graph(nodes, edges)


def corrupted_square(rng) -> tuple[str, dict[str, Morphism]]:
    """The legs of a canonical pullback square of a random cospan into a
    target of at most three nodes and five edges, where parallel edges and
    loops are common, or now and then of a gluing square; then one
    corruption, named first: none; ``shrink``, an apex item dropped;
    ``merge``, two apex nodes made one, which keeps the first one's images;
    ``alias``, an apex item added with the images of another; ``move``, one
    item of one leg sent elsewhere in its target; or ``relabel``, one label
    of one corner changed. Any but the first may leave a leg that is not a
    morphism."""
    if rng.random() < 0.2:
        sq = random_gluing_square(rng)
    else:
        sq = random_pullback_square(rng, max_target_nodes=3)
    corners = {"B": sq.B, "C": sq.C, "D": sq.D}
    maps = {leg: (dict(m.fv), dict(m.fe)) for leg, m in zip(LEGS, (sq.ab, sq.ac, sq.bd, sq.cd))}
    A = sq.A
    nodes = dict(A.nlabel)
    edges = {e: A.edge[e] for e in A.edges}
    kind = rng.choice(CORRUPTIONS)
    if kind == "shrink" and nodes:
        if edges and rng.random() < 0.5:
            del edges[rng.choice(sorted(edges))]
        else:
            v = rng.choice(sorted(nodes))
            del nodes[v]
            edges = {e: x for e, x in edges.items() if v not in x[:2]}
    elif kind == "merge" and len(nodes) > 1:
        i, j = rng.sample(sorted(nodes), 2)
        del nodes[j]
        edges = {e: (i if s == j else s, i if t == j else t, label) for e, (s, t, label) in edges.items()}
    elif kind == "alias" and nodes:
        if edges and rng.random() < 0.5:
            e, new = rng.choice(sorted(edges)), max(edges) + 1
            edges[new] = edges[e]
            for leg in ("ab", "ac"):
                maps[leg][1][new] = maps[leg][1][e]
        else:
            v, new = rng.choice(sorted(nodes)), max(nodes) + 1
            nodes[new] = nodes[v]
            for leg in ("ab", "ac"):
                maps[leg][0][new] = maps[leg][0][v]
    for leg in ("ab", "ac"):
        fv, fe = maps[leg]
        maps[leg] = ({v: fv[v] for v in nodes}, {e: fe[e] for e in edges})
    corners["A"] = graph(nodes, edges)
    if kind == "move":
        leg = rng.choice(sorted(LEGS))
        target = corners[LEGS[leg][1]]
        fv, fe = maps[leg]
        if fe and rng.random() < 0.5:
            fe[rng.choice(sorted(fe))] = rng.choice(sorted(target.edges))
        elif fv:
            fv[rng.choice(sorted(fv))] = rng.choice(sorted(target.nodes))
    elif kind == "relabel":
        corner = rng.choice("ABCD")
        corners[corner] = relabelled(rng, corners[corner])
    return kind, {leg: Morphism(corners[s], corners[t], *maps[leg]) for leg, (s, t) in LEGS.items()}


class TestAgainstTheCanonicalPullbackObject:
    """``is_pullback`` decides on the agreeing pairs, and
    ``jointly_surjective`` by set difference; the references build the
    canonical pullback and its mediating morphism, and scan the target in
    order. Reports and ``PreconditionError`` messages must be the same. Legs
    that are not all morphisms form no square: building one raises, naming
    the first such leg, exactly as ``reference_square_error`` predicts."""

    def test_two_thousand_corrupted_squares(self):
        rng = random.Random(2024)
        verdicts, shapes = Counter(), Counter()
        for _ in range(2000):
            kind, legs = corrupted_square(rng)
            bd, cd = legs["bd"], legs["cd"]
            assert outcome(jointly_surjective, bd, cd) == outcome(reference_jointly_surjective, bd, cd)
            D = bd.target
            ends = [D.edge[e][:2] for e in D.edges]
            shapes["loop"] += any(s == t for s, t in ends)
            shapes["parallel"] += len(set(ends)) < len(ends)
            sq = built_square(legs)
            if sq is None:
                verdicts["not built: a leg is not a morphism"] += 1
                continue
            expected = outcome(reference_is_pullback, sq)
            assert outcome(is_pullback, sq) == expected, kind
            verdicts[expected if isinstance(expected, str) else expected.failed_clause] += 1
        assert set(verdicts) == {
            None,
            "mediating map not injective",
            "mediating map not surjective",
            "raised: is_pullback: square does not commute",
            "not built: a leg is not a morphism",
        }
        assert verdicts["not built: a leg is not a morphism"] == 327
        assert shapes["loop"] >= 100 and shapes["parallel"] >= 100

    @given(square_legs())
    def test_hypothesis_squares(self, legs):
        assert outcome(jointly_surjective, legs["bd"], legs["cd"]) == outcome(
            reference_jointly_surjective, legs["bd"], legs["cd"]
        )
        sq = built_square(legs)
        if sq is not None:
            assert outcome(is_pullback, sq) == outcome(reference_is_pullback, sq)


def transposed(sq: Square) -> Square:
    """``sq`` mirrored along its diagonal, its B and C corners swapped."""
    return Square(ab=sq.ac, ac=sq.ab, bd=sq.cd, cd=sq.bd)


def pasted_horizontally(left: Square, right: Square) -> Square:
    """Two squares sharing a vertical edge (``left.bd`` is ``right.ac``)
    pasted side by side: the transpose of their transposes' vertical paste."""
    return transposed(compose_squares_vertical(transposed(left), transposed(right)))


class TestSquareComposition:
    def test_composing_with_identity_square_returns_the_same_square(self):
        rng = random.Random(10)
        sq = random_gluing_square(rng)
        right = Square(ab=identity(sq.B), ac=sq.bd, bd=sq.bd, cd=identity(sq.D))
        composed = pasted_horizontally(sq, right)
        assert squares_agree(composed, sq)

    def test_two_gluing_squares_compose_to_a_pushout(self):
        rng = random.Random(11)
        for _ in range(25):
            sq1 = random_gluing_square(rng)
            ext = random_embedding(rng, sq1.B, 1, 1)
            glue2 = gluing(ext, sq1.bd)
            sq2 = Square(ab=ext, ac=sq1.bd, bd=glue2.h, cd=glue2.c)
            composed = pasted_horizontally(sq1, sq2)
            assert is_pushout_injective(composed)

    def test_decomposition_recovers_the_inner_pushout(self):
        rng = random.Random(12)
        for _ in range(25):
            sq1 = random_gluing_square(rng)
            ext = random_embedding(rng, sq1.B, 1, 1)
            glue2 = gluing(ext, sq1.bd)
            sq2 = Square(ab=ext, ac=sq1.bd, bd=glue2.h, cd=glue2.c)
            composed = pasted_horizontally(sq1, sq2)
            assert is_pushout_injective(sq1)
            assert is_pushout_injective(composed)
            assert is_pushout_injective(sq2)

    def test_two_pullback_squares_compose_to_a_pullback(self):
        rng = random.Random(13)
        for _ in range(25):
            f_graph = random_graph(rng, 4, 4)
            w = random_morphism_into(rng, f_graph, 4, 4)
            u = random_morphism_into(rng, f_graph, 4, 4)
            pb2 = pullback_construct(u, w)
            sq2 = Square(ab=pb2.b, ac=pb2.c, bd=u, cd=w)
            g_leg = random_morphism_into(rng, w.source, 4, 4)
            pb1 = pullback_construct(pb2.c, g_leg)
            sq1 = Square(ab=pb1.b, ac=pb1.c, bd=pb2.c, cd=g_leg)
            composed = pasted_horizontally(sq1, sq2)
            assert is_pullback(composed)
            assert is_pullback(sq1)

    def test_wiring_mismatch_raises(self):
        sq = identity_square(graph({0: "a"}))
        other = identity_square(graph({0: "b"}))
        with pytest.raises(PreconditionError):
            pasted_horizontally(sq, other)

    def test_a_shared_edge_with_other_maps_raises(self):
        g = graph({0: "a", 1: "a"})
        swap = Morphism(g, g, {0: 1, 1: 0}, {})
        top, bottom = identity_square(g), Square(ab=swap, ac=swap, bd=identity(g), cd=identity(g))
        with pytest.raises(PreconditionError, match="^square paste: shared edge maps differ: node 0$"):
            compose_squares_vertical(top, bottom)

    def test_squares_agree_names_the_first_arrow_that_differs(self):
        g = graph({0: "a", 1: "a"})
        swap, i = Morphism(g, g, {0: 1, 1: 0}, {}), identity(g)
        assert squares_agree(Square(i, i, i, i), Square(i, i, i, i))
        assert squares_agree(Square(i, i, i, i), Square(i, i, swap, swap)) == failure("arrows differ", ("bd",))
        # an arrow between other graphs differs too, and nothing raises
        assert squares_agree(identity_square(g), identity_square(graph({0: "a"}))) == failure("arrows differ", ("ab",))

    def test_vertical_composition_transposes_correctly(self):
        sq = identity_square(graph({0: "a"}))
        assert squares_agree(compose_squares_vertical(sq, sq), sq)
        assert squares_agree(compose_squares_vertical(transposed(sq), transposed(sq)), transposed(sq))


class TestPushoutMediator:
    def test_mediator_of_own_cospan_is_identity(self):
        rng = random.Random(14)
        sq = random_gluing_square(rng)
        u = pushout_mediator(sq, p=sq.bd, t=sq.cd)
        assert morphisms_agree(u, identity(sq.D))

    def test_mediator_satisfies_both_triangles(self):
        rng = random.Random(15)
        for _ in range(10):
            sq = random_gluing_square(rng, max_interface_nodes=2, extra_nodes=2, extra_edges=1)
            ext = random_embedding(rng, sq.D, 1, 1)
            p = compose(ext, sq.bd)
            t = compose(ext, sq.cd)
            u = pushout_mediator(sq, p=p, t=t)
            assert morphisms_agree(compose(u, sq.bd), p)
            assert morphisms_agree(compose(u, sq.cd), t)


def through(m: Morphism, u_v: dict, u_e: dict, X) -> Morphism:
    """``u after m`` into ``X``, for item maps ``u`` that need not be a morphism."""
    return Morphism(m.source, X, {x: u_v[y] for x, y in m.fv.items()}, {x: u_e[y] for x, y in m.fe.items()})


class TestPushoutMediatorAgainstReference:
    """One pass per item kind raises on the same cospans, with the same
    clause and item, as the reference's image sets per D-item, and
    otherwise returns the same map."""

    @staticmethod
    def outcome(mediator, sq: Square, p: Morphism, t: Morphism):
        try:
            u = mediator(sq, p=p, t=t)
        except PreconditionError as exc:
            return exc.report
        return u.source, u.target, u.fv, u.fe

    @staticmethod
    def cases(rng: random.Random):
        # gluing squares are pushouts: a cospan through a morphism out of D
        # factors; one through arbitrary item maps need not be a morphism
        sq = random_gluing_square(rng, max_interface_nodes=2, extra_nodes=2, extra_edges=2)
        ext = random_embedding(rng, sq.D, 1, 1)
        X = ext.target
        p, t = compose(ext, sq.bd), compose(ext, sq.cd)
        yield "factors", sq, p, t
        # a leg that misses its least node or edge, read before anything else
        if p.fv:
            yield "p partial", sq, Morphism(p.source, X, {v: w for v, w in p.fv.items() if v != min(p.fv)}, p.fe), t
        if t.fe:
            yield "t partial", sq, p, Morphism(t.source, X, t.fv, {e: x for e, x in t.fe.items() if e != min(t.fe)})
        moved = one_item_moved(rng, p, X)
        if moved is not None:
            yield "B and C disagree", sq, moved, t
        moved = one_item_moved(rng, t, X)
        if moved is not None:
            yield "B and C disagree", sq, p, moved
        u_v = {v: rng.choice(sorted(X.nodes)) for v in sq.D.nodes}
        u_e = {e: rng.choice(sorted(X.edges)) for e in sq.D.edges}
        yield "arbitrary maps", sq, through(sq.bd, u_v, u_e, X), through(sq.cd, u_v, u_e, X)
        # a cospan under an empty apex, whose legs need be neither injective
        # nor jointly surjective
        bd, cd = random_cospan(rng)
        empty = graph({})
        sq = Square(Morphism(empty, bd.source, {}, {}), Morphism(empty, cd.source, {}, {}), bd, cd)
        yield "cospan", sq, bd, cd
        moved = one_item_moved(rng, bd, bd.target)
        if moved is not None:
            yield "cospan, p moved", sq, moved, cd
        yield "endpoints", sq, cd, bd

    def test_same_outcome_as_the_reference(self):
        rng = random.Random(17)
        seen = Counter()
        for _ in range(300):
            for name, sq, p, t in self.cases(rng):
                got = self.outcome(pushout_mediator, sq, p, t)
                assert got == self.outcome(reference_pushout_mediator, sq, p, t), name
                # the clause after "pushout_mediator: ", and the item's kind
                seen["mediator" if isinstance(got, tuple) else (got.failed_clause.split(": ")[1], *got.counterexample[:1])] += 1
        for key in (
            "mediator",
            ("cospan does not factor", "node"),
            ("cospan does not factor", "edge"),
            ("cospan of the square is not jointly surjective", "node"),
            ("cospan of the square is not jointly surjective", "edge"),
            ("mediating map is not a morphism", "node"),
            ("mediating map is not a morphism", "edge"),
            ("cospan endpoints do not fit the square",),
            ("cospan leg 'p' is not total", "node"),
            ("cospan leg 't' is not total", "edge"),
        ):
            assert seen[key] > 10, (key, seen)

    def test_a_non_injective_bd_with_a_disagreeing_p_raises(self):
        # both B-nodes go to D's one node, and p sends them apart; no C-item
        # meets that node, so only B's images can disagree
        empty, b, d = graph({}), graph({0: "a", 1: "a"}), graph({0: "a", 1: "a"})
        sq = Square(
            Morphism(empty, b, {}, {}), identity(empty), Morphism(b, d, {0: 0, 1: 0}, {}), Morphism(empty, d, {}, {})
        )
        p, t = identity(b), Morphism(empty, b, {}, {})
        for mediator in (pushout_mediator, reference_pushout_mediator):
            with pytest.raises(PreconditionError, match="^pushout_mediator: cospan does not factor: node 0$"):
                mediator(sq, p=p, t=t)


class TestBoundedUniversalPropertyProbe:
    def test_exactly_one_mediator_for_every_small_cospan(self):
        rng = random.Random(16)
        family = [
            graph({0: "a"}),
            graph({0: "a", 1: "b"}, {0: (0, 1, "x")}),
            graph({0: "a", 1: "a", 2: "b"}, {0: (0, 1, "x"), 1: (1, 2, "y")}),
        ]
        checked = 0
        for _ in range(6):
            sq = random_gluing_square(rng, max_interface_nodes=2, extra_nodes=2, extra_edges=1)
            for x in family:
                from_d = reference_enumerate_morphisms(sq.D, x)
                for p in reference_enumerate_morphisms(sq.B, x):
                    for t in reference_enumerate_morphisms(sq.C, x):
                        if not morphisms_agree(compose(p, sq.ab), compose(t, sq.ac)):
                            continue
                        mediators = [
                            u
                            for u in from_d
                            if morphisms_agree(compose(u, sq.bd), p)
                            and morphisms_agree(compose(u, sq.cd), t)
                        ]
                        assert len(mediators) == 1
                        checked += 1
        assert checked > 0
