"""Rules, match enumeration, the dangling condition, and direct derivations.

A direct derivation applies a rule at an injective match by deleting the
matched non-interface part (pushout complement) and gluing in the
replacement (pushout object). Both constructed squares are checked against
the pushout characterization once, inside :func:`apply`, by the local
certifier :func:`~dpo.diagrams.certify_pushout`: each square's ``cd`` is the
identity inclusion of the context, so a pass is decided over the rule's
items only. A failure there is an engine bug, not a user error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from . import constructions
from .constructions import DeletionResult, GluingResult, deletion, gluing
from .diagrams import Square, certify_pushout
from .errors import InternalConsistencyError, PreconditionError
from .graph import PASSED, CheckReport, Graph, Violation, failure, validate_graph
from .morphism import Morphism, enumerate_morphisms, identity, is_injective, validate_morphism


@dataclass(frozen=True)
class Rule:
    """A span ``L <- K -> R`` of injective morphisms ``b``, ``r``, checked when built."""

    L: Graph
    K: Graph
    R: Graph
    b: Morphism
    r: Morphism

    def __post_init__(self) -> None:
        report = validate_rule(self.L, self.K, self.R, self.b, self.r)
        if not report:
            raise PreconditionError(f"invalid rule: {report.failed_clause}", report.counterexample)


def identity_rule(g: Graph) -> Rule:
    """The rule that matches ``g`` and changes nothing."""
    i = identity(g)
    return Rule(L=g, K=g, R=g, b=i, r=i)


@dataclass(frozen=True)
class Match:
    """An injective morphism from a rule's left-hand side into a host graph."""

    m: Morphism


@dataclass(frozen=True)
class DirectDerivation:
    """One rule application: the deletion and gluing squares plus the comatch."""

    rule: Rule
    match: Match
    deletion: DeletionResult
    gluing: GluingResult

    @property
    def comatch(self) -> Morphism:
        return self.gluing.h

    @property
    def G(self) -> Graph:
        return self.match.m.target

    @property
    def D(self) -> Graph:
        return self.deletion.D

    @property
    def H(self) -> Graph:
        return self.gluing.H

    @cached_property
    def delta(self) -> tuple[set[int], set[int], dict[int, int], dict[int, int]]:
        """The host nodes and edges the derivation deletes, then each created
        ``R``-node and ``R``-edge, ascending, mapped to its id in ``H`` by the
        comatch: O(|L| + |R|), read off the rule, match and comatch."""
        r, h = self.rule.r, self.comatch
        made_v = {x: h.fv[x] for x in sorted(r.target.nodes - set(r.fv.values()))}
        made_e = {x: h.fe[x] for x in sorted(r.target.edges - set(r.fe.values()))}
        return (*constructions.deleted_items(self.rule.b, self.match.m), made_v, made_e)

    @property
    def left_square(self) -> Square:
        return Square(ab=self.rule.b, ac=self.deletion.d, bd=self.match.m, cd=self.deletion.c)

    @property
    def right_square(self) -> Square:
        return Square(ab=self.rule.r, ac=self.deletion.d, bd=self.gluing.h, cd=self.gluing.c)


def validate_rule(L: Graph, K: Graph, R: Graph, b: Morphism, r: Morphism) -> CheckReport:
    """Check the parts of a rule: graphs, morphism endpoints, validity, injectivity."""
    bad: list[Violation] = []
    for name, g in (("L", L), ("K", K), ("R", R)):
        for v in validate_graph(g).violations:
            bad.append(Violation(f"graph {name}: {v.clause}", v.item))
    for name, m, src, tgt in (("b", b, K, L), ("r", r, K, R)):
        if m.source != src or m.target != tgt:
            bad.append(Violation(f"{name} endpoint mismatch", (name,)))
            continue
        violations = validate_morphism(m).violations
        bad.extend(Violation(f"{name}: {v.clause}", v.item) for v in violations)
        if not violations and not is_injective(m):
            bad.append(Violation(f"{name} not injective", (name,)))
    return CheckReport(tuple(bad))


def find_matches(rule: Rule, G: Graph) -> list[Match]:
    """All injective morphisms ``L -> G``, in deterministic order.

    The order is :func:`~dpo.morphism.enumerate_morphisms`'s: lexicographic
    in the images of ``L``'s nodes in ascending id order, then of its edges;
    ``dpo apply --match-index k`` picks the k-th entry. The search follows
    ``L``'s edges out from the node whose label is rarest in ``G``, so
    beyond one O(|V_G|) label scan its cost grows with the partial matches
    it extends and the degree of their images, not with |V_G|^|V_L|.

    The dangling condition is deliberately not filtered here; whether a
    match is applicable is decided at application time.
    """
    return [Match(m) for m in enumerate_morphisms(rule.L, G)]


def dangling_condition(rule: Rule, match: Match) -> CheckReport:
    """Whether deleting the matched nodes leaves no edge without an endpoint."""
    edges = constructions.dangling_edges(rule.b, match.m)
    return failure("dangling condition", tuple(edges)) if edges else PASSED


def apply(rule: Rule, match: Match) -> DirectDerivation:
    """Apply ``rule`` at ``match``: deletion then gluing.

    ``D`` keeps the host's identifiers, and each created item gets a fresh
    one past ``D``'s largest (:func:`~dpo.constructions.gluing`); any other
    choice gives an isomorphic result (uniqueness of derivations). The rule
    was checked when it was built; each check on the match runs once per
    call: its validity here; its source, its injectivity and the dangling
    condition in :func:`~dpo.constructions.deletion`, which raises
    :class:`PreconditionError` and :class:`DanglingConditionError`; and both
    constructed squares are certified here against the pushout
    characterization, raising :class:`InternalConsistencyError` on failure
    (an engine bug). A returned derivation is therefore always certified.

    The cost grows with the rule and the degree of the deleted nodes, not
    with the host: ``D`` and ``H`` hold each map the step changes, the
    incidence index included once built, as a layer over the host's, and
    copy only the edits made since that map's root, until they would pass
    a fixed fraction of it (:meth:`~dpo.graph.Graph.edited`). Two reads
    still scan the host: building its incidence index, and ``D``'s largest
    id where the host has not built it or the rule deleted the item it
    names. The first bulk read of ``D`` or ``H`` (iterating, comparing,
    writing or pickling it) pays one copy of each layered map, once. The
    certification reads the rule's items only, since each square's ``cd``
    is the identity inclusion :func:`~dpo.diagrams.certify_pushout` needs,
    and the context inclusions ``deletion.c`` and ``gluing.c`` are not built.
    """
    report = validate_morphism(match.m)
    if not report:
        raise PreconditionError(f"apply: invalid match: {report.failed_clause}", report.counterexample)

    deleted = deletion(rule.b, match.m)
    glued = gluing(rule.r, deleted.d)
    for side, ab, bd in (("left", rule.b, match.m), ("right", rule.r, glued.h)):
        report = certify_pushout(ab, deleted.d, bd)
        if not report:
            raise InternalConsistencyError(f"apply: {side} square failed {report.failed_clause}", report.counterexample)
    return DirectDerivation(rule=rule, match=match, deletion=deleted, gluing=glued)

