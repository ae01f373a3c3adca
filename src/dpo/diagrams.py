"""Decidable checks on commuting-candidate squares.

A square bundles four morphisms: a span ``ab: A -> B``, ``ac: A -> C`` and a
cospan ``bd: B -> D``, ``cd: C -> D``. Pushout recognition is restricted to
squares whose four morphisms are injective, where commutativity, the reduced
chain-condition and joint surjectivity together characterize pushouts.
Pullback recognition decides whether the mediating map into the canonical
pullback is a bijective morphism without building that object: the pairs
of B- and C-items that agree in D (:func:`pullback_pairs`, the join the
reduced chain-condition reads) are its items, so the mediating map sends
each A-item to its image pair, is injective when no two A-items share a
pair, and is surjective when every pair is some A-item's. These general
checks read every item of all four corners, but never re-check a square's
wiring or legs: a :class:`Square` is checked once, when it is built.

:func:`certify_pushout` is the one local certifier: for a square whose
``cd`` is an identity inclusion, it decides a pass over the items of A and
B alone, so a rule-sized square in a host-sized graph costs O(|A| + |B|).
:func:`~dpo.rewriting.apply` certifies both squares of every derivation
with it; the commutation check's local pass runs its clauses too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import pullback_pairs
from .errors import PreconditionError
from .graph import PASSED, CheckReport, Graph, failure
from .morphism import Morphism, compose, inclusion, is_injective, morphisms_agree, validate_morphism


@dataclass(frozen=True)
class Square:
    """Four morphisms wired as ``A -> B -> D`` and ``A -> C -> D``, checked
    when built: a mis-wired corner, or the first leg that is not a graph
    morphism, raises :class:`PreconditionError` naming it."""

    ab: Morphism
    ac: Morphism
    bd: Morphism
    cd: Morphism

    def __post_init__(self) -> None:
        if self.ab.source != self.ac.source:
            raise PreconditionError("square: ab and ac have different sources")
        if self.ab.target != self.bd.source:
            raise PreconditionError("square: ab.target differs from bd.source")
        if self.ac.target != self.cd.source:
            raise PreconditionError("square: ac.target differs from cd.source")
        if self.bd.target != self.cd.target:
            raise PreconditionError("square: bd and cd have different targets")
        for leg in ("ab", "ac", "bd", "cd"):
            report = validate_morphism(getattr(self, leg))
            if not report:
                raise PreconditionError(f"square '{leg}': invalid morphism: {report.failed_clause}", report.counterexample)

    @property
    def A(self) -> Graph:
        return self.ab.source

    @property
    def B(self) -> Graph:
        return self.ab.target

    @property
    def C(self) -> Graph:
        return self.ac.target

    @property
    def D(self) -> Graph:
        return self.bd.target


def commutes(sq: Square) -> CheckReport:
    """Whether ``bd after ab`` agrees with ``cd after ac`` on every item of A."""
    for v in sorted(sq.A.nodes):
        if sq.bd.fv[sq.ab.fv[v]] != sq.cd.fv[sq.ac.fv[v]]:
            return failure("commutativity", ("node", v))
    for e in sorted(sq.A.edges):
        if sq.bd.fe[sq.ab.fe[e]] != sq.cd.fe[sq.ac.fe[e]]:
            return failure("commutativity", ("edge", e))
    return PASSED


def reduced_chain_condition(sq: Square) -> CheckReport:
    """Every B/C item pair agreeing in D must have a common preimage in A.

    The pairs agreeing in D are the items of the cospan's canonical
    pullback. They are taken from :func:`pullback_pairs`, in lexicographic
    order, without building that object; the first pair without a preimage
    is reported. The square must commute, which this function checks first.
    """
    if not commutes(sq):
        raise PreconditionError("reduced_chain_condition: square does not commute")
    return _chain_condition(sq, "reduced chain-condition")


def _chain_condition(sq: Square, clause: str) -> CheckReport:
    """For a square known to commute, whether every pair of
    :func:`pullback_pairs` is ``(ab(a), ac(a))`` for some A-item ``a``: the
    reduced chain-condition, which is also the surjectivity of the
    mediating map into the canonical pullback. Else ``clause`` names the
    least pair that no A-item reaches, nodes first."""
    node_pairs, edge_pairs = pullback_pairs(sq.bd, sq.cd)
    for kind, pairs, items, f, g in (
        ("node", node_pairs, sq.A.nodes, sq.ab.fv, sq.ac.fv),
        ("edge", edge_pairs, sq.A.edges, sq.ab.fe, sq.ac.fe),
    ):
        reached = {(f[a], g[a]) for a in items}
        for pair in pairs:
            if pair not in reached:
                return failure(clause, (kind, *pair))
    return PASSED


def jointly_surjective(bd: Morphism, cd: Morphism) -> CheckReport:
    """Every item of the shared target has a preimage under ``bd`` or ``cd``;
    else the least uncovered node, or if none the least uncovered edge."""
    if bd.target != cd.target:
        raise PreconditionError("jointly_surjective: targets differ")
    for kind, items, f, g, f_items, g_items in (
        ("node", bd.target.nodes, bd.fv, cd.fv, bd.source.nodes, cd.source.nodes),
        ("edge", bd.target.edges, bd.fe, cd.fe, bd.source.edges, cd.source.edges),
    ):
        uncovered = set(items)
        uncovered.difference_update(map(f.__getitem__, f_items), map(g.__getitem__, g_items))
        if uncovered:
            return failure("joint surjectivity", (kind, min(uncovered)))
    return PASSED


def is_pushout_injective(sq: Square) -> CheckReport:
    """Pushout recognition for squares of injective morphisms.

    Commutativity, the reduced chain-condition and joint surjectivity of the
    cospan are together equivalent to the pushout property in this scope;
    the report is the first failing clause's, in that order. Non-injective
    inputs are outside the characterization's scope and raise.
    """
    for name, m in (("ab", sq.ab), ("ac", sq.ac), ("bd", sq.bd), ("cd", sq.cd)):
        if not is_injective(m):
            raise PreconditionError(f"is_pushout_injective: morphism {name} not injective")
    return commutes(sq) and _chain_condition(sq, "reduced chain-condition") and jointly_surjective(sq.bd, sq.cd)


def is_pullback(sq: Square) -> CheckReport:
    """Whether the square's apex is the pullback of its cospan.

    The mediating map ``u`` sends each A-item to its pair ``(ab(a), ac(a))``
    among :func:`pullback_pairs`; the square is a pullback iff ``u`` is a
    bijective morphism into the canonical pullback object, whose items are
    those pairs, labelled from B (pullbacks are unique up to iso); it is a
    morphism, as ``ab`` and ``ac`` are. That object is not built: each
    clause is decided on the pairs, and a failed one names the first A-item,
    or the least pair, that breaks it. Surjectivity is the reduced
    chain-condition, decided by the same pass under its own clause.
    """
    if not commutes(sq):
        raise PreconditionError("is_pullback: square does not commute")
    A, ab, ac = sq.A, sq.ab, sq.ac
    for kind, items, f, g in (("node", A.nodes, ab.fv, ac.fv), ("edge", A.edges, ab.fe, ac.fe)):
        first: dict[tuple[int, int], int] = {}
        for a in sorted(items):
            pair = f[a], g[a]
            if pair in first:
                return failure("mediating map not injective", (kind, first[pair], a))
            first[pair] = a
    return _chain_condition(sq, "mediating map not surjective")


def compose_squares_vertical(top: Square, bottom: Square) -> Square:
    """Paste two squares sharing a horizontal edge into their outer rectangle.

    ``bottom``'s top edge (its ``ab``) must be the same morphism as ``top``'s
    bottom edge (its ``cd``); the result, the only square built, has
    composite left and right arrows.
    """
    shared = bottom.ab
    if shared.source != top.cd.source or shared.target != top.cd.target:
        raise PreconditionError("square paste: shared edge endpoints differ")
    report = morphisms_agree(shared, top.cd)
    if not report:
        raise PreconditionError("square paste: shared edge maps differ", report.counterexample)
    return Square(ab=top.ab, ac=compose(bottom.ac, top.ac), bd=compose(bottom.bd, top.bd), cd=bottom.cd)


def squares_agree(sq1: Square, sq2: Square) -> CheckReport:
    """Whether two squares have identical corners and pointwise-equal
    arrows; else the first arrow, of ``ab``, ``ac``, ``bd``, ``cd``, whose
    endpoints or maps differ."""
    for leg in ("ab", "ac", "bd", "cd"):
        m1, m2 = getattr(sq1, leg), getattr(sq2, leg)
        if m1.source != m2.source or m1.target != m2.target or not morphisms_agree(m1, m2):
            return failure("arrows differ", (leg,))
    return PASSED


def pushout_mediator(sq: Square, p: Morphism, t: Morphism) -> Morphism:
    """Instantiate the pushout's universal property on a concrete cospan.

    For a pushout square and a cospan ``p: B -> X``, ``t: C -> X`` with
    ``p after ab = t after ac``, returns the unique ``u: D -> X`` with
    ``u after bd = p`` and ``u after cd = t``. A leg that is not total
    fails first, named with its least unmapped item, nodes first. Then one
    pass per item kind, over B and then C, fills ``u``; nodes first, a
    failure names the least D-item whose preimages have different images,
    where the cospan does not factor (which for a genuine pushout means it
    did not commute), else the least without a preimage. Last, the
    mediating map is checked as a morphism.
    """
    if p.source != sq.B or t.source != sq.C or p.target != t.target:
        raise PreconditionError("pushout_mediator: cospan endpoints do not fit the square")
    for leg, m in (("p", p), ("t", t)):
        for kind, items, f in (("node", m.source.nodes, m.fv), ("edge", m.source.edges, m.fe)):
            unmapped = items - f.keys()
            if unmapped:
                raise PreconditionError(f"pushout_mediator: cospan leg '{leg}' is not total", (kind, min(unmapped)))
    maps = []
    for kind, d_items, legs in (
        ("node", sq.D.nodes, ((sq.B.nodes, sq.bd.fv, p.fv), (sq.C.nodes, sq.cd.fv, t.fv))),
        ("edge", sq.D.edges, ((sq.B.edges, sq.bd.fe, p.fe), (sq.C.edges, sq.cd.fe, t.fe))),
    ):
        images: dict[int, int] = {}
        clashes = [
            into_d[x] for items, into_d, into_x in legs for x in items
            if images.setdefault(into_d[x], into_x[x]) != into_x[x]
        ]
        if clashes:
            raise PreconditionError("pushout_mediator: cospan does not factor", (kind, min(clashes)))
        if len(images) != len(d_items):
            missed = (kind, min(d_items - images.keys()))
            raise PreconditionError("pushout_mediator: cospan of the square is not jointly surjective", missed)
        maps.append(images)
    u = Morphism(sq.D, p.target, *maps)
    report = validate_morphism(u)
    if not report:
        why = f"pushout_mediator: mediating map is not a morphism: {report.failed_clause}"
        raise PreconditionError(why, report.counterexample)
    return u


def certify_pushout(ab: Morphism, ac: Morphism, bd: Morphism) -> CheckReport:
    """:func:`is_pushout_injective` of the square ``ab, ac, bd, cd``,
    decided in O(|A| + |B|).

    The square is ``ab: A -> B``, ``ac: A -> C``, ``bd: B -> D`` and ``cd``,
    wired as :class:`Square` requires, where ``ab``, ``ac`` and ``bd`` must
    be graph morphisms, since no clause below reads a label or an endpoint,
    ``cd`` must be the identity inclusion of ``C`` in ``D``, where
    :func:`~dpo.graph.is_subgraph` holds of ``C`` and ``D``, and ``bd`` must
    map into ``D``. All hold for the squares of a derivation by construction.
    Then ``cd`` need not be read:

    - commutativity is ``bd(ab(a)) == ac(a)`` for every item ``a`` of A;
    - the reduced chain-condition is that every B-item whose image lies in
      C is ``ab(a)`` for some ``a`` with ``ac(a)`` equal to that image, since
      that image is the only C-item agreeing with it in D;
    - with ``bd`` injective, joint surjectivity is that the B-items whose
      image lies outside C are as many as the items of D outside C,
      counted for nodes and for edges separately.

    Only a pass is decided here: on a failure the square is built, with
    ``cd`` as :func:`~dpo.morphism.inclusion` makes it, and the general
    check runs on it, so the report, or the :class:`PreconditionError` of a
    non-injective morphism, is the same as :func:`is_pushout_injective`'s.
    """
    if _local_pushout(ab, ac, bd):
        return PASSED
    return is_pushout_injective(Square(ab, ac, bd, inclusion(ac.target, bd.target)))


def _local_pushout(ab: Morphism, ac: Morphism, bd: Morphism) -> bool:
    # the three clauses of certify_pushout, under its preconditions: bd
    # agrees with ac through A; the B-items whose image lies in C are
    # exactly ab's image, which with that is the reduced chain-condition;
    # and the other B-items are as many as D's items outside C
    A, B, C, D = ab.source, ab.target, ac.target, bd.target
    if not (is_injective(ab) and is_injective(ac) and is_injective(bd)):
        return False
    for a_items, b_items, c_items, d_items, f_ab, f_ac, f_bd in (
        (A.nodes, B.nodes, C.nodes, D.nodes, ab.fv, ac.fv, bd.fv),
        (A.edges, B.edges, C.edges, D.edges, ab.fe, ac.fe, bd.fe),
    ):
        through_a = {f_ab[a]: f_ac[a] for a in a_items}
        if any(f_bd[b] != y for b, y in through_a.items()):
            return False
        inside = {b for b in b_items if f_bd[b] in c_items}
        if inside != through_a.keys() or len(b_items) - len(inside) != len(d_items) - len(c_items):
            return False
    return True
