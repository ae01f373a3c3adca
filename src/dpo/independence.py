"""Parallel/sequential independence and constructive commutation.

Because deletion contexts embed into their host by identity inclusions and
matches are injective, an independence witness is forced: the only possible
embedding of one rule's side into the other derivation's context is the
match itself, co-restricted. Sequential independence of ``G => H => X`` is
parallel independence of ``H => G``, the first step's :func:`inverse`, and
``H => X``; there is one test. Commutation applies each rule to
the other's result at the residual match, which :func:`apply` checks like
any other match. :func:`verify_commutation_squares` re-checks the classical
proof's decomposition square by square on the concrete instance; its shared
context is ``D1 ∩ D2`` on G's identifiers. A passing instance is decided
by certifying its three derivations as :func:`apply` does, over the rules'
items, and builds no graph or morphism; only a failing one builds the
squares. The four squares of each rule applied in the other's context at
its witness are certified by :func:`apply` as it builds them, and the
general checks run on the five derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .constructions import DeletionResult, GluingResult
from .diagrams import (
    Square,
    _local_pushout,
    compose_squares_vertical,
    is_pullback,
    is_pushout_injective,
    pushout_mediator,
    squares_agree,
)
from .errors import (
    DanglingConditionError,
    DependentDerivationsError,
    InternalConsistencyError,
    PreconditionError,
    RewriteError,
)
from .graph import PASSED, CheckReport, Graph, IsoWitness, Violation, failure, is_isomorphic, is_subgraph
from .morphism import Morphism, compose, validate_morphism
from .rewriting import DirectDerivation, Match, apply


@dataclass(frozen=True)
class ParallelPair:
    """Two direct derivations out of the same host graph, checked when
    built: derivations that start from different graphs raise
    :class:`PreconditionError`, so no function that takes a pair asks again."""

    d1: DirectDerivation
    d2: DirectDerivation

    def __post_init__(self) -> None:
        if self.d1.G != self.d2.G:
            raise PreconditionError("parallel pair: derivations start from different graphs")


@dataclass(frozen=True)
class IndependenceWitness:
    """The two commuting embeddings certifying independence of a parallel
    pair: ``j1: L1 -> D2`` and ``j2: L2 -> D1``."""

    j1: Morphism
    j2: Morphism


@dataclass(frozen=True)
class CommutationResult:
    """The closed diamond: both composite derivations and the iso from
    ``e1``'s result to ``e2``'s. G' is not stored beside them: it is
    ``e1``'s result, read as :attr:`Gp`."""

    e1: DirectDerivation
    e2: DirectDerivation
    iso: IsoWitness

    @property
    def Gp(self) -> Graph:
        return self.e1.H


def inverse(d: DirectDerivation) -> DirectDerivation:
    """The derivation ``H => G`` by ``R <- K -> L`` at the comatch, with the
    same context D; its squares are ``d``'s, swapped. Builds no graph."""
    return DirectDerivation(
        d.rule.inverse, Match(d.comatch), DeletionResult(d.D, d.deletion.d, d.H), GluingResult(d.G, d.match.m, d.D)
    )


def blocking_items(pair: ParallelPair) -> CheckReport:
    """Why a pair is dependent: a violation per matched host item the other
    derivation deletes, its clause the triangle, ``"L1 into D2"`` or
    ``"L2 into D1"``, nodes before edges, in source order. For the inverse
    pair of :func:`sequential_independent`, L1 is the first rule's R."""
    return CheckReport(tuple(
        Violation(side, (kind, f[x]))
        for side, m, context in (
            ("L1 into D2", pair.d1.match.m, pair.d2.deletion.D),
            ("L2 into D1", pair.d2.match.m, pair.d1.deletion.D),
        )
        for kind, f, items, kept in (
            ("node", m.fv, m.source.nodes, context.nodes),
            ("edge", m.fe, m.source.edges, context.edges),
        )
        for x in sorted(items)
        if f[x] not in kept
    ))


def parallel_independent(pair: ParallelPair) -> Optional[IndependenceWitness]:
    """Witness that neither derivation's match touches what the other deletes.

    The context inclusions are identity maps, so the candidate embeddings
    are forced: each match co-restricted to the other derivation's context,
    a witness iff :func:`blocking_items` passes.
    """
    if not blocking_items(pair):
        return None
    m1, m2 = pair.d1.match.m, pair.d2.match.m
    return IndependenceWitness(
        j1=Morphism(m1.source, pair.d2.D, m1.fv, m1.fe),
        j2=Morphism(m2.source, pair.d1.D, m2.fv, m2.fe),
    )


def sequential_independent(
    first: DirectDerivation, second: DirectDerivation
) -> Optional[IndependenceWitness]:
    """Witness for ``G => H => H'``: the parallel one of ``H => G``, the
    inverse of ``first``, and ``second``, so ``j1: R1 -> D2`` and ``j2: L2 -> D1``."""
    return parallel_independent(ParallelPair(inverse(first), second))


def residual_match(pair: ParallelPair, witness: IndependenceWitness) -> tuple[Match, Match]:
    """Carry each match over to the other derivation's result graph.

    Returns ``(m2': L2 -> H1, m1': L1 -> H2)``. Each context embeds into its
    result by an identity inclusion, so a residual has the maps of its
    witness, ``j2: L2 -> D1`` or ``j1: L1 -> D2``, read as maps into the
    result; the host-sized inclusions are not built, and the maps are
    shared, as :func:`apply` never changes a match. Nothing is checked
    here: :func:`commute` hands each residual to :func:`apply`, which
    validates it and checks injectivity and the dangling condition once.
    """
    j1, j2 = witness.j1, witness.j2
    return Match(Morphism(j2.source, pair.d1.H, j2.fv, j2.fe)), Match(Morphism(j1.source, pair.d2.H, j1.fv, j1.fe))


def commute(pair: ParallelPair) -> CommutationResult:
    """Close the diamond of a parallel independent pair.

    Applies the second rule on the first result (and vice versa) at the
    residual matches, checks both composites are sequentially independent,
    and returns the isomorphism between the two final graphs.
    """
    witness = parallel_independent(pair)
    if witness is None:
        why = blocking_items(pair)
        raise DependentDerivationsError(f"commute: pair is not parallel independent: {why.failed_clause}", why.counterexample)
    m2p, m1p = residual_match(pair, witness)
    try:
        e1 = apply(pair.d2.rule, m2p)
        e2 = apply(pair.d1.rule, m1p)
    except (PreconditionError, DanglingConditionError) as exc:
        why = exc.report
        raise InternalConsistencyError(f"commute: residual application failed: {why.failed_clause}", why.counterexample) from exc
    iso = is_isomorphic(e1.H, e2.H)
    if iso is None:
        raise InternalConsistencyError("commute: composite derivations end in non-isomorphic graphs")
    if sequential_independent(pair.d1, e1) is None:
        raise InternalConsistencyError("commute: first composite is not sequentially independent")
    if sequential_independent(pair.d2, e2) is None:
        raise InternalConsistencyError("commute: second composite is not sequentially independent")
    return CommutationResult(e1=e1, e2=e2, iso=iso)


def verify_commutation_squares(
    pair: ParallelPair, witness: IndependenceWitness, result: CommutationResult
) -> CheckReport:
    """Re-check the classical decomposition of the commutation on this instance.

    In Ehrig and Kreowski's proof the shared context D is the pullback of
    ``D1 -> G <- D2``. Both contexts are subgraphs of G included by
    identity, so D is ``D1 ∩ D2`` and keeps G's identifiers, and squares
    (11) and (21) are the two squares of the first rule applied to D2 at
    ``j1``, which give ``pi2`` and ``delta1``; likewise (31) and (41), of
    the second rule applied to D1 at ``j2``. :func:`apply` certifies those
    four as pushouts while building them, so only the squares derived from
    them are then checked, (12) as a pullback, so D is verified, not
    assumed, and (22), (32), (42) and (5) as pushouts; so is each composite
    against the original derivations.

    A passing instance is decided by :func:`_passes_locally` in
    O(|L1| + |R1| + |L2| + |R2|) Python work plus C-level set and dict-view
    operations on the host-sized graphs, and builds no graph or morphism:
    there (11) and (31) come down to injective matches, (21) and (41) to
    the gluing pushout :func:`apply` certifies. Only a pass is decided
    there: otherwise every square is built, the derived ones are checked
    by the general checks, and the first failure is reported under the
    label of the stage it reached: a failed check with its clause and
    item, and an error raised while building or checking with its
    report's. A witness that is not a morphism into its context, a comatch
    of ``result.e1`` that is not total, or a derivation of the pair whose
    own squares cannot be built, fails, and never raises. Graphs must be
    well-formed, as the loaders and constructions make them.
    """
    d1, d2 = pair.d1, pair.d2
    j1, j2 = witness.j1, witness.j2
    for name, j, context in (("j1", j1, d2.D), ("j2", j2, d1.D)):
        clause = f"witness {name} is not a morphism into its context"
        if j.target != context:
            return failure(clause, (name,))
        report = validate_morphism(j)
        if not report:
            return failure(f"{clause}: {report.failed_clause}", report.counterexample)
    if _passes_locally(pair, witness, result):
        return PASSED

    c1, c2 = d1.deletion.c, d2.deletion.c
    cbar1, cbar2 = d1.gluing.c, d2.gluing.c
    stage = "decomposition construction failed"
    try:
        x1, x2 = apply(d1.rule, Match(j1)), apply(d2.rule, Match(j2))
        sq11, sq21 = x1.left_square, x1.right_square
        sq31, sq41 = x2.left_square, x2.right_square
        pi2, delta1 = sq11.cd, sq21.cd
        pi1, delta2 = sq31.cd, sq41.cd

        sq12 = Square(ab=pi2, ac=pi1, bd=c2, cd=c1)
        sq32 = Square(ab=pi1, ac=pi2, bd=c1, cd=c2)
        sigma1 = pushout_mediator(sq21, p=d1.comatch, t=compose(cbar1, pi1))
        sq22 = Square(ab=delta1, ac=pi1, bd=sigma1, cd=cbar1)
        sigma2 = pushout_mediator(sq41, p=d2.comatch, t=compose(cbar2, pi2))
        sq42 = Square(ab=delta2, ac=pi2, bd=sigma2, cd=cbar2)

        # square (5) is built against result.Gp, so a result that does not
        # fit the decomposition fails here, under this label
        stage = "square (5): construction failed"
        tau1 = Morphism(x1.H, result.Gp, dict(sigma1.fv), dict(sigma1.fe))
        report = validate_morphism(tau1)
        if not report:
            return failure(f"square (5): context embedding into G' invalid: {report.failed_clause}", report.counterexample)
        comatch = result.e1.comatch
        tau2 = pushout_mediator(
            sq41, p=Morphism(comatch.source, result.Gp, comatch.fv, comatch.fe), t=compose(tau1, delta1)
        )
        sq5 = Square(ab=delta2, ac=delta1, bd=tau2, cd=tau1)

        for label, check, sq in (
            ("(12)", is_pullback, sq12),
            ("(22)", is_pushout_injective, sq22),
            ("(32)", is_pushout_injective, sq32),
            ("(42)", is_pushout_injective, sq42),
            ("(5)", is_pushout_injective, sq5),
        ):
            stage = f"square {label}"
            report = check(sq)
            if not report:
                return failure(f"{stage}: {report.failed_clause}", report.counterexample)

        # pasting cannot fail, as (11)'s cd is (12)'s ab and so on; a
        # derivation square that cannot be built, say from a partial k or
        # match, fails under its composite's label
        for label, top, bottom, d, side in (
            ("(11)+(12)", sq11, sq12, d1, "left_square"),
            ("(21)+(22)", sq21, sq22, d1, "right_square"),
            ("(31)+(32)", sq31, sq32, d2, "left_square"),
            ("(41)+(42)", sq41, sq42, d2, "right_square"),
        ):
            stage = f"composite {label}"
            report = squares_agree(compose_squares_vertical(top, bottom), getattr(d, side))
            if not report:
                return failure(f"{stage} differs from the derivation square", report.counterexample)
    except RewriteError as exc:
        return failure(f"{stage}: {exc.report.failed_clause}", exc.report.counterexample)
    return PASSED


def _passes_locally(pair: ParallelPair, witness: IndependenceWitness, result: CommutationResult) -> bool:
    """Whether every check of :func:`verify_commutation_squares` passes,
    decided over the rules' items; ``False`` means "check in general", not
    "fails". The witness has been validated.

    :func:`_certified` checks, as :func:`apply` certifies them, ``d1`` and
    ``d2`` on G and ``result.e1`` (the second rule at ``j2``'s maps) on
    ``d1.H``; each match has the maps of a witness into a context included
    in its host, so is a morphism. Then each context is its host minus the
    deleted items, each result its context plus the created ones, and the
    shared context D0 is D1 ∩ D2 with G's labels and endpoints: (12) is a
    pullback and (32) a pushout. Square (11), ``b1, k1, j1`` over D0 ⊆ D2,
    is a pushout as d1's match is injective, for then the L1-items outside
    D0 are exactly the deleted ones, all in D2; likewise (31). Square (21)
    is ``gluing(r1, k1)``'s own pushout, which :func:`apply` certifies on
    every derivation; likewise (41). The mediators are the identity on D0
    and the comatches on created items, so (22), (42) and (5) are pushouts,
    the last as G' is e1's result, which is D0 plus both created sets; and
    the composites agree with the derivation squares map by map.
    """
    d1, d2, e1 = pair.d1, pair.d2, result.e1
    G = d1.deletion.G
    return (
        _certified(d1, witness.j1, G)
        and _certified(d2, witness.j2, G)
        and e1.rule == d2.rule
        and _certified(e1, witness.j2, d1.H)
    )


def _certified(d: DirectDerivation, j: Morphism, G: Graph) -> bool:
    """Whether ``d``, at a match with ``j``'s maps, is a derivation from
    ``G`` as :func:`apply` certifies one: its parts are wired to each other
    and to ``G``, its ``k`` and comatch are morphisms, its context is a
    subgraph of ``G`` and of its result, and both its squares pass the
    clauses of :func:`~dpo.diagrams.certify_pushout`. Rule-sized work plus
    C-level set and dict-view operations on ``G``, ``D`` and ``H``."""
    b, r, m, k, h = d.rule.b, d.rule.r, d.match.m, d.deletion.d, d.comatch
    D, H = d.D, d.H
    return (
        m.target == G == d.deletion.G
        and j.source == m.source == b.target
        and (j.fv, j.fe) == (m.fv, m.fe)
        and r.source == b.source == k.source
        and k.target == D == d.gluing.D
        and h.source == r.target
        and h.target == H
        and bool(validate_morphism(k))
        and bool(validate_morphism(h))
        and is_subgraph(D, G)
        and is_subgraph(D, H)
        and _local_pushout(b, k, m)
        and _local_pushout(r, k, h)
    )
