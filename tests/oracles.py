"""Independent brute-force oracles used to cross-check the engine.

These deliberately avoid the engine's own search code: isomorphism is
decided by enumerating node bijections and filtering by the morphism
axioms, and morphism counting enumerates raw map products. The reference
constructions rebuild deletion and gluing item by item over the whole
graph, where the engine copies maps in bulk and patches in the rule.
The reference enumerator binds every node from a label list before it reads
an edge, where the engine follows a search plan along the edges; both must
return the same list of injective morphisms in the same order. Only the
reference also lists non-injective morphisms, for the exhaustive
independence-witness search and the pushout universal-property probe.

The reference commutation check builds every square of the Church–Rosser
decomposition and runs the general checks on each, where the engine decides
a passing instance over the rules' items; both must return the same report.
The reference mediator fills each map from B, then from C, and re-reads
B, where the engine makes one pass per item kind; both raise on the same
cospans with the same message.
The reference pullback check builds the canonical pullback object and the
mediating morphism into it, where the engine decides on the agreeing pairs
alone; the reference joint-surjectivity check scans the target in order,
where the engine takes a set difference.

The JSON references are the plain forms of the readers and writer in
``dpo.io``: ``json.dump`` for the writer, and entry-by-entry loops for the
graph and morphism-map readers, which read whole columns at once. Likewise
the graph and morphism validators' item-by-item loops are kept here, where
the engine decides a pass by whole-set tests. ``replay`` rebuilds a derivation's result
document from its input document and its trace, reading documents only.

``reference_square_error`` names the leg that building a square must
reject, from the item-by-item morphism validator; ``built_square`` builds a
square and checks it against that.

The last few helpers are test utilities, not oracles: ``renumber``,
``is_inclusion``, ``is_surjective``, ``is_bijective``, ``invert`` and
``derivations_isomorphic`` are used only by tests.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterator, Mapping

from dpo.constructions import deletion, gluing, pullback_construct
from dpo.diagrams import (
    Square,
    commutes,
    compose_squares_vertical,
    is_pushout_injective,
    pushout_mediator,
    squares_agree,
)
from dpo.errors import FormatError, PreconditionError, RewriteError
from dpo.graph import PASSED, CheckReport, Graph, Violation, failure, graph, is_isomorphic
from dpo.morphism import (
    Morphism,
    compose,
    is_injective,
    morphisms_agree,
    validate_morphism,
)
from dpo.independence import CommutationResult, IndependenceWitness, ParallelPair
from dpo.rewriting import DirectDerivation


def morphism_axioms_ok(source: Graph, target: Graph, fv: dict, fe: dict) -> bool:
    """Re-check totality, range and the four preservation clauses directly."""
    for v in source.nodes:
        if v not in fv or fv[v] not in target.nodes:
            return False
        if source.nlabel[v] != target.nlabel[fv[v]]:
            return False
    for e in source.edges:
        if e not in fe or fe[e] not in target.edges:
            return False
        (s, t, label), (ts, tt, tlabel) = source.edge[e], target.edge[fe[e]]
        if fv[s] != ts or fv[t] != tt or label != tlabel:
            return False
    return True


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """Enumerate all node bijections; a bijection extends to an isomorphism
    iff labels are preserved and every ordered node pair carries the same
    edge-label multiset on both sides."""
    if len(g.nodes) != len(h.nodes) or len(g.edges) != len(h.edges):
        return False
    g_nodes = sorted(g.nodes)
    pair_labels_g = pair_label_index(g)
    pair_labels_h = pair_label_index(h)
    for image in itertools.permutations(sorted(h.nodes)):
        fv = dict(zip(g_nodes, image))
        if any(g.nlabel[v] != h.nlabel[fv[v]] for v in g_nodes):
            continue
        if all(
            pair_labels_g.get((u, v)) == pair_labels_h.get((fv[u], fv[v]))
            for u in g_nodes
            for v in g_nodes
        ):
            return True
    return False


def pair_label_index(g: Graph) -> dict[tuple[int, int], Counter]:
    """The multiset of edge labels on each ordered node pair that has an edge."""
    index: dict[tuple[int, int], Counter] = {}
    for s, t, label in g.edge.values():
        index.setdefault((s, t), Counter())[label] += 1
    return index


def brute_force_pullback(f: Morphism, g: Morphism) -> tuple[list, list, Graph]:
    """The canonical pullback of a cospan ``f: B -> D <- C :g`` by comparing
    every ``B`` item with every ``C`` item: the node pairs and edge pairs
    that agree in ``D``, in lexicographic order, and the object whose items
    are numbered in that order and labelled from ``B``."""
    B, C = f.source, g.source
    node_pairs = [
        (x, y) for x in sorted(B.nodes) for y in sorted(C.nodes) if f.fv[x] == g.fv[y]
    ]
    edge_pairs = [
        (x, y) for x in sorted(B.edges) for y in sorted(C.edges) if f.fe[x] == g.fe[y]
    ]
    node_id = {pair: i for i, pair in enumerate(node_pairs)}
    A = graph(
        {i: B.nlabel[x] for (x, _), i in node_id.items()},
        {
            i: (node_id[B.edge[x][0], C.edge[y][0]], node_id[B.edge[x][1], C.edge[y][1]], B.edge[x][2])
            for i, (x, y) in enumerate(edge_pairs)
        },
    )
    return node_pairs, edge_pairs, A


def pullback_chain_condition(sq: Square) -> CheckReport:
    """The reduced chain-condition of a commuting square, read off the
    canonical pullback object of its cospan: each of the object's items, in
    id order, must be the image pair of an A-item. Raises
    :class:`~dpo.errors.PreconditionError` where :func:`pullback_construct`
    does."""
    pb = pullback_construct(sq.bd, sq.cd)
    for kind, candidates, images in (
        ("node", pb.node_pairs, {(sq.ab.fv[a], sq.ac.fv[a]) for a in sq.A.nodes}),
        ("edge", pb.edge_pairs, {(sq.ab.fe[a], sq.ac.fe[a]) for a in sq.A.edges}),
    ):
        for pair in candidates.values():
            if pair not in images:
                return failure("reduced chain-condition", (kind, *pair))
    return PASSED


def reference_jointly_surjective(bd: Morphism, cd: Morphism) -> CheckReport:
    """Every item of the shared target has a preimage under ``bd`` or ``cd``."""
    if bd.target != cd.target:
        raise PreconditionError("jointly_surjective: targets differ")
    covered_v = {bd.fv[v] for v in bd.source.nodes} | {cd.fv[v] for v in cd.source.nodes}
    for v in sorted(bd.target.nodes):
        if v not in covered_v:
            return failure("joint surjectivity", ("node", v))
    covered_e = {bd.fe[e] for e in bd.source.edges} | {cd.fe[e] for e in cd.source.edges}
    for e in sorted(bd.target.edges):
        if e not in covered_e:
            return failure("joint surjectivity", ("edge", e))
    return PASSED


def reference_is_pullback(sq: Square) -> CheckReport:
    """Compare the square's apex against the canonical pullback object.

    Builds the canonical pullback of the cospan and the mediating morphism
    ``u`` sending each apex item to its image pair; the square is a pullback
    iff ``u`` is a bijective morphism (pullbacks are unique up to iso).
    """
    if not commutes(sq):
        raise PreconditionError("is_pullback: square does not commute")
    canonical = pullback_construct(sq.bd, sq.cd)
    node_id = {pair: i for i, pair in canonical.node_pairs.items()}
    edge_id = {pair: i for i, pair in canonical.edge_pairs.items()}
    u = Morphism(
        source=sq.A,
        target=canonical.A,
        fv={a: node_id[sq.ab.fv[a], sq.ac.fv[a]] for a in sq.A.nodes},
        fe={a: edge_id[sq.ab.fe[a], sq.ac.fe[a]] for a in sq.A.edges},
    )
    if not validate_morphism(u):
        return failure("mediating map not a morphism", ("apex",))
    if not is_injective(u):
        seen: dict[int, int] = {}
        for a in sorted(sq.A.nodes):
            i = u.fv[a]
            if i in seen:
                return failure("mediating map not injective", ("node", seen[i], a))
            seen[i] = a
        seen = {}
        for a in sorted(sq.A.edges):
            i = u.fe[a]
            if i in seen:
                return failure("mediating map not injective", ("edge", seen[i], a))
            seen[i] = a
    if not is_surjective(u):
        hit_v = set(u.fv.values())
        for i in sorted(canonical.A.nodes):
            if i not in hit_v:
                return failure("mediating map not surjective", ("node",) + canonical.node_pairs[i])
        hit_e = set(u.fe.values())
        for i in sorted(canonical.A.edges):
            if i not in hit_e:
                return failure("mediating map not surjective", ("edge",) + canonical.edge_pairs[i])
    return PASSED


def reference_dangling_edges(rule_left: Morphism, match: Morphism) -> list[int]:
    """Every host edge that survives deletion but touches a deleted node,
    found by scanning all host edges."""
    L, G = match.source, match.target
    preserved_v = {rule_left.fv[k] for k in rule_left.source.nodes}
    preserved_e = {rule_left.fe[k] for k in rule_left.source.edges}
    deleted_nodes = {match.fv[v] for v in L.nodes - preserved_v}
    deleted_edges = {match.fe[e] for e in L.edges - preserved_e}
    return sorted(
        e
        for e in G.edges - deleted_edges
        if G.edge[e][0] in deleted_nodes or G.edge[e][1] in deleted_nodes
    )


def reference_deletion(rule_left: Morphism, match: Morphism) -> tuple[Graph, Morphism]:
    """The pushout complement ``D`` of a dangling-free match, rebuilt item
    by item from the host, and ``d: K -> D``."""
    K = rule_left.source
    L, G = match.source, match.target
    preserved_v = {rule_left.fv[k] for k in K.nodes}
    preserved_e = {rule_left.fe[k] for k in K.edges}
    nodes = G.nodes - {match.fv[v] for v in L.nodes - preserved_v}
    edges = G.edges - {match.fe[e] for e in L.edges - preserved_e}
    D = Graph(
        nodes=nodes,
        edges=edges,
        nlabel={v: G.nlabel[v] for v in nodes},
        edge={e: G.edge[e] for e in edges},
    )
    d = Morphism(
        K,
        D,
        {k: match.fv[rule_left.fv[k]] for k in K.nodes},
        {k: match.fe[rule_left.fe[k]] for k in K.edges},
    )
    return D, d


def reference_gluing(b: Morphism, d: Morphism, fresh_offset: int | None = None) -> tuple[Graph, Morphism]:
    """The pushout object ``H`` of an injective span ``R <- K -> D``,
    rebuilt item by item, and ``h: R -> H``. New items of ``R`` get
    consecutive ids past ``D``'s largest id and ``fresh_offset``, in
    ascending ``R``-id order."""
    R, D = b.target, d.target
    b_inv_v = {b.fv[k]: k for k in b.source.nodes}
    b_inv_e = {b.fe[k]: k for k in b.source.edges}
    new_nodes = sorted(R.nodes - set(b_inv_v))
    new_edges = sorted(R.edges - set(b_inv_e))
    floor = fresh_offset if fresh_offset is not None else 0
    node_start = max(max(D.nodes, default=-1) + 1, floor)
    edge_start = max(max(D.edges, default=-1) + 1, floor)
    hv = {x: d.fv[b_inv_v[x]] if x in b_inv_v else node_start + new_nodes.index(x) for x in R.nodes}
    he = {x: d.fe[b_inv_e[x]] if x in b_inv_e else edge_start + new_edges.index(x) for x in R.edges}
    nodes = {v: D.nlabel[v] for v in D.nodes}
    nodes.update({hv[x]: R.nlabel[x] for x in new_nodes})
    edges = {e: D.edge[e] for e in D.edges}
    edges.update({he[x]: (hv[R.edge[x][0]], hv[R.edge[x][1]], R.edge[x][2]) for x in new_edges})
    H = graph(nodes, edges)
    return H, Morphism(R, H, hv, he)


def reference_incidence(g: Graph) -> dict[int, list[int]]:
    """The edges at each node that has any, ascending, by scanning all edges."""
    at: dict[int, set[int]] = {}
    for e in g.edges:
        for v in g.edge[e][:2]:
            at.setdefault(v, set()).add(e)
    return {v: sorted(es) for v, es in at.items()}


def sorted_incidence(index: Mapping[int, tuple[int, ...]] | None) -> dict[int, list[int]] | None:
    """An incidence index with each node's edges in ascending id, the form
    :func:`reference_incidence` gives, or ``None`` for none: the engine's
    tuples are in no fixed order, so they compare as sets, and an edge
    listed twice at a node still shows."""
    return None if index is None else {v: sorted(es) for v, es in index.items()}


def reference_max_ids(g: Graph) -> dict[str, int]:
    """The largest node and edge ids by scanning, -1 for none, keyed by the
    names of the :class:`Graph` indexes that carry them."""
    return {"max_node_id": max(g.nodes, default=-1), "max_edge_id": max(g.edges, default=-1)}


def max_ids_if_built(g: Graph) -> dict[str, int]:
    """The largest ids that ``g`` has built or been handed; never builds one."""
    return {name: vars(g)[name] for name in ("max_node_id", "max_edge_id") if name in vars(g)}


def brute_force_morphism_count(g: Graph, h: Graph) -> int:
    """Count injective morphisms by filtering the raw product of all maps."""
    g_nodes = sorted(g.nodes)
    g_edges = sorted(g.edges)
    h_nodes = sorted(h.nodes)
    h_edges = sorted(h.edges)
    if g_nodes and not h_nodes:
        return 0
    if g_edges and not h_edges:
        return 0
    count = 0
    for node_images in itertools.product(h_nodes, repeat=len(g_nodes)):
        fv = dict(zip(g_nodes, node_images))
        if len(set(node_images)) != len(node_images):
            continue
        if any(g.nlabel[v] != h.nlabel[fv[v]] for v in g_nodes):
            continue
        for edge_images in itertools.product(h_edges, repeat=len(g_edges)):
            fe = dict(zip(g_edges, edge_images))
            if len(set(edge_images)) != len(edge_images):
                continue
            if morphism_axioms_ok(g, h, fv, fe):
                count += 1
    return count


def exhaustive_parallel_witness_exists(pair: ParallelPair) -> bool:
    """Search all morphism pairs for an independence witness, by enumeration
    plus the two commuting-triangle filters."""
    found1 = any(
        morphisms_agree(compose(pair.d2.deletion.c, j1), pair.d1.match.m)
        for j1 in reference_enumerate_morphisms(pair.d1.rule.L, pair.d2.deletion.D)
    )
    if not found1:
        return False
    return any(
        morphisms_agree(compose(pair.d1.deletion.c, j2), pair.d2.match.m)
        for j2 in reference_enumerate_morphisms(pair.d2.rule.L, pair.d1.deletion.D)
    )


def reference_enumerate_morphisms(g: Graph, h: Graph, injective_only: bool = False) -> list[Morphism]:
    """All valid morphisms ``g -> h`` in the documented lexicographic order,
    by binding every source node from a per-label candidate list before any
    edge is read, recursing once per item. Exponential in ``|V_g|``, so for
    small graphs only."""
    return list(_iter_morphisms(g, h, injective_only))


def _iter_morphisms(g: Graph, h: Graph, injective_only: bool) -> Iterator[Morphism]:
    nodes = sorted(g.nodes)
    edges = sorted(g.edges)
    node_candidates = {
        v: [w for w in sorted(h.nodes) if h.nlabel[w] == g.nlabel[v]] for v in nodes
    }
    edge_index: dict[tuple[int, int, str], list[int]] = {}
    for e in sorted(h.edges):
        edge_index.setdefault(h.edge[e], []).append(e)

    fv: dict[int, int] = {}
    fe: dict[int, int] = {}
    used_nodes: set[int] = set()
    used_edges: set[int] = set()

    def assign_edges(j: int) -> Iterator[Morphism]:
        if j == len(edges):
            yield Morphism(g, h, dict(fv), dict(fe))
            return
        e = edges[j]
        # an endpoint outside g's nodes has no image, so no morphism exists
        key = (fv.get(g.edge[e][0]), fv.get(g.edge[e][1]), g.edge[e][2])
        for cand in edge_index.get(key, ()):
            if injective_only and cand in used_edges:
                continue
            fe[e] = cand
            used_edges.add(cand)
            yield from assign_edges(j + 1)
            del fe[e]
            used_edges.discard(cand)

    def assign_nodes(i: int) -> Iterator[Morphism]:
        if i == len(nodes):
            yield from assign_edges(0)
            return
        v = nodes[i]
        for cand in node_candidates[v]:
            if injective_only and cand in used_nodes:
                continue
            fv[v] = cand
            used_nodes.add(cand)
            yield from assign_nodes(i + 1)
            del fv[v]
            used_nodes.discard(cand)

    yield from assign_nodes(0)


def reference_verify_commutation_squares(
    pair: ParallelPair, witness: IndependenceWitness, result: CommutationResult
) -> CheckReport:
    """Re-check the classical decomposition of the commutation on this instance.

    Every square is built and checked by the general checks, with no local
    pass; the engine must return the same report on every instance.

    In Ehrig and Kreowski's proof the shared context D is the pullback of
    ``D1 -> G <- D2``. Both contexts are subgraphs of G included by
    identity, so D is ``D1 ∩ D2`` and keeps G's identifiers, and squares
    (11) and (31) are the pushout complements ``deletion(b1, j1)`` and
    ``deletion(b2, j2)``, which give ``k1, pi2`` and ``k2, pi1``. Every
    labelled square is then checked, (12) and (32) as pullbacks, so D is
    verified, not assumed; so is each composite against the original
    derivations. The first failure is reported with its square's label; a
    witness that is not a morphism into its context, or a derivation of
    the pair whose own squares cannot be built, fails, and never raises.
    """
    d1, d2 = pair.d1, pair.d2
    b1, r1 = d1.rule.b, d1.rule.r
    b2, r2 = d2.rule.b, d2.rule.r
    c1, c2 = d1.deletion.c, d2.deletion.c
    cbar1, cbar2 = d1.gluing.c, d2.gluing.c
    j1, j2 = witness.j1, witness.j2
    for name, j, context in (("j1", j1, d2.D), ("j2", j2, d1.D)):
        clause = f"witness {name} is not a morphism into its context"
        if j.target != context:
            return failure(clause, (name,))
        report = validate_morphism(j)
        if not report:
            return failure(f"{clause}: {report.failed_clause}", report.counterexample)

    try:
        shared1, shared2 = deletion(b1, j1), deletion(b2, j2)
        k1, pi2 = shared1.d, shared1.c
        k2, pi1 = shared2.d, shared2.c

        sq12 = Square(ab=pi2, ac=pi1, bd=c2, cd=c1)
        sq32 = Square(ab=pi1, ac=pi2, bd=c1, cd=c2)
        sq11 = Square(ab=b1, ac=k1, bd=j1, cd=pi2)
        sq31 = Square(ab=b2, ac=k2, bd=j2, cd=pi1)

        glue21 = gluing(r1, k1)
        rho1, delta1 = glue21.h, glue21.c
        sq21 = Square(ab=r1, ac=k1, bd=rho1, cd=delta1)
        sigma1 = pushout_mediator(sq21, p=d1.comatch, t=compose(cbar1, pi1))
        sq22 = Square(ab=delta1, ac=pi1, bd=sigma1, cd=cbar1)

        glue41 = gluing(r2, k2)
        rho2, delta2 = glue41.h, glue41.c
        sq41 = Square(ab=r2, ac=k2, bd=rho2, cd=delta2)
        sigma2 = pushout_mediator(sq41, p=d2.comatch, t=compose(cbar2, pi2))
        sq42 = Square(ab=delta2, ac=pi2, bd=sigma2, cd=cbar2)
    except RewriteError as exc:
        return failure(f"decomposition construction failed: {exc.report.failed_clause}", exc.report.counterexample)

    # square (5) is built against result.Gp, so a result that does not fit
    # the decomposition fails here, under this label
    try:
        tau1 = Morphism(glue21.H, result.Gp, dict(sigma1.fv), dict(sigma1.fe))
        report = validate_morphism(tau1)
        if not report:
            return failure(f"square (5): context embedding into G' invalid: {report.failed_clause}", report.counterexample)
        comatch = result.e1.comatch
        tau2 = pushout_mediator(
            sq41, p=Morphism(comatch.source, result.Gp, comatch.fv, comatch.fe), t=compose(tau1, delta1)
        )
        sq5 = Square(ab=delta2, ac=delta1, bd=tau2, cd=tau1)
    except RewriteError as exc:
        return failure(f"square (5): construction failed: {exc.report.failed_clause}", exc.report.counterexample)

    labelled = [
        ("(12)", reference_is_pullback, sq12),
        ("(11)", is_pushout_injective, sq11),
        ("(21)", is_pushout_injective, sq21),
        ("(22)", is_pushout_injective, sq22),
        ("(31)", is_pushout_injective, sq31),
        ("(32)", is_pushout_injective, sq32),
        ("(41)", is_pushout_injective, sq41),
        ("(42)", is_pushout_injective, sq42),
        ("(5)", is_pushout_injective, sq5),
    ]
    for label, check, sq in labelled:
        try:
            report = check(sq)
        except PreconditionError as exc:
            return failure(f"square {label}: {exc.report.failed_clause}", exc.report.counterexample)
        if not report:
            return failure(f"square {label}: {report.failed_clause}", report.counterexample)

    composites = [
        ("(11)+(12)", sq11, sq12, d1, "left_square"),
        ("(21)+(22)", sq21, sq22, d1, "right_square"),
        ("(31)+(32)", sq31, sq32, d2, "left_square"),
        ("(41)+(42)", sq41, sq42, d2, "right_square"),
    ]
    for label, top, bottom, d, side in composites:
        try:
            built = compose_squares_vertical(top, bottom)
            expected = getattr(d, side)
        except PreconditionError as exc:
            return failure(f"composite {label}: {exc.report.failed_clause}", exc.report.counterexample)
        report = squares_agree(built, expected)
        if not report:
            return failure(f"composite {label} differs from the derivation square", report.counterexample)
    return PASSED


def reference_pushout_mediator(sq: Square, p: Morphism, t: Morphism) -> Morphism:
    """Instantiate the pushout's universal property on a concrete cospan.

    For a pushout square and a cospan ``p: B -> X``, ``t: C -> X`` with
    ``p after ab = t after ac``, returns the unique ``u: D -> X`` with
    ``u after bd = p`` and ``u after cd = t``. First raises naming the
    least item of ``p``'s, then ``t``'s, source, nodes first, that the leg
    leaves unmapped. Then collects, for each D-item in ascending order, the
    images of all its preimages; for nodes and then edges, raises naming
    the first D-item with two images (the cospan does not factor, which for
    a genuine pushout means it did not commute), then the first with none;
    last, the mediating map's first violation.
    """
    if p.source != sq.B or t.source != sq.C or p.target != t.target:
        raise PreconditionError("pushout_mediator: cospan endpoints do not fit the square")
    for leg, m in (("p", p), ("t", t)):
        for kind, items, f in (("node", m.source.nodes, m.fv), ("edge", m.source.edges, m.fe)):
            for x in sorted(items):
                if x not in f:
                    raise PreconditionError(f"pushout_mediator: cospan leg '{leg}' is not total", (kind, x))
    found: dict[str, dict[int, set[int]]] = {}
    for kind, d_items, legs in (
        ("node", sq.D.nodes, ((sq.B.nodes, sq.bd.fv, p.fv), (sq.C.nodes, sq.cd.fv, t.fv))),
        ("edge", sq.D.edges, ((sq.B.edges, sq.bd.fe, p.fe), (sq.C.edges, sq.cd.fe, t.fe))),
    ):
        found[kind] = {d: set() for d in sorted(d_items)}
        for items, into_d, into_x in legs:
            for x in items:
                found[kind][into_d[x]].add(into_x[x])
        for d, images in found[kind].items():
            if len(images) > 1:
                raise PreconditionError("pushout_mediator: cospan does not factor", (kind, d))
        for d, images in found[kind].items():
            if not images:
                raise PreconditionError("pushout_mediator: cospan of the square is not jointly surjective", (kind, d))
    fv, fe = ({d: min(images) for d, images in found[kind].items()} for kind in ("node", "edge"))
    u = Morphism(sq.D, p.target, fv, fe)
    report = validate_morphism(u)
    if not report:
        raise PreconditionError(
            f"pushout_mediator: mediating map is not a morphism: {report.failed_clause}", report.counterexample
        )
    return u


def reference_validate_graph(g: Graph) -> CheckReport:
    """Check every graph invariant; report each failed clause with its item."""
    bad: list[Violation] = []
    for v in sorted(g.nodes):
        if v < 0:
            bad.append(Violation("node id negative", ("node", v)))
    for e in sorted(g.edges):
        if e < 0:
            bad.append(Violation("edge id negative", ("edge", e)))
        if g.edge[e][0] not in g.nodes:
            bad.append(Violation("src out of V", ("edge", e)))
        if g.edge[e][1] not in g.nodes:
            bad.append(Violation("tgt out of V", ("edge", e)))
    return CheckReport(tuple(bad))


def reference_validate_morphism(m: Morphism) -> CheckReport:
    """Check totality, range, the four preservation clauses and the domain."""
    g, h = m.source, m.target
    bad: list[Violation] = []
    for v in sorted(g.nodes):
        if v not in m.fv:
            bad.append(Violation("fv not total on source nodes", ("node", v)))
        elif m.fv[v] not in h.nodes:
            bad.append(Violation("fv out of target nodes", ("node", v)))
        elif g.nlabel[v] != h.nlabel[m.fv[v]]:
            bad.append(Violation("node label not preserved", ("node", v)))
    for e in sorted(g.edges):
        if e not in m.fe:
            bad.append(Violation("fe not total on source edges", ("edge", e)))
            continue
        if m.fe[e] not in h.edges:
            bad.append(Violation("fe out of target edges", ("edge", e)))
            continue
        if m.fv.get(g.edge[e][0]) != h.edge[m.fe[e]][0]:
            bad.append(Violation("source not preserved", ("edge", e)))
        if m.fv.get(g.edge[e][1]) != h.edge[m.fe[e]][1]:
            bad.append(Violation("target not preserved", ("edge", e)))
        if g.edge[e][2] != h.edge[m.fe[e]][2]:
            bad.append(Violation("edge label not preserved", ("edge", e)))
    for v in sorted(set(m.fv) - g.nodes):
        bad.append(Violation("fv defined outside source nodes", ("node", v)))
    for e in sorted(set(m.fe) - g.edges):
        bad.append(Violation("fe defined outside source edges", ("edge", e)))
    return CheckReport(tuple(bad))


def reference_square_error(legs: Mapping[str, Morphism]) -> str | None:
    """The message of the :class:`PreconditionError` that building a square
    from four corner-to-corner wired ``legs`` must raise: the first leg, in
    the order ``ab``, ``ac``, ``bd``, ``cd``, that is not a morphism, with
    its first violation; ``None`` if all four are morphisms."""
    for leg in ("ab", "ac", "bd", "cd"):
        report = reference_validate_morphism(legs[leg])
        if not report:
            return f"square '{leg}': invalid morphism: {report}"
    return None


def built_square(legs: Mapping[str, Morphism]) -> Square | None:
    """The square of ``legs``, or ``None`` if it raised; either way after
    checking that it raised exactly when, and what,
    :func:`reference_square_error` says."""
    expected = reference_square_error(legs)
    try:
        sq = Square(**legs)
    except PreconditionError as exc:
        assert str(exc) == expected, (str(exc), expected)
        return None
    assert expected is None, expected
    return sq


def replay(G_doc: dict, trace: dict) -> dict:
    """The result graph document of a derivation, rebuilt from the document
    of its input graph and its trace alone: ``G`` minus the deleted items,
    plus each created ``R``-item under its recorded id, with its endpoints
    taken through the comatch. Map keys are read as strings, as JSON has
    them."""
    R, comatch = trace["rule"]["R"], trace["comatch"]["fv"]
    r_nodes = {entry["id"]: entry for entry in R["nodes"]}
    r_edges = {entry["id"]: entry for entry in R["edges"]}
    gone_nodes, gone_edges = set(trace["deleted"]["nodes"]), set(trace["deleted"]["edges"])
    nodes = [entry for entry in G_doc["nodes"] if entry["id"] not in gone_nodes]
    for x, h in trace["created"]["nodes"].items():
        nodes.append({"id": h, "label": r_nodes[int(x)]["label"]})
    edges = [entry for entry in G_doc["edges"] if entry["id"] not in gone_edges]
    for x, h in trace["created"]["edges"].items():
        r_edge = r_edges[int(x)]
        edges.append({
            "id": h,
            "src": comatch[str(r_edge["src"])],
            "tgt": comatch[str(r_edge["tgt"])],
            "label": r_edge["label"],
        })
    return {"nodes": sorted(nodes, key=itemgetter("id")), "edges": sorted(edges, key=itemgetter("id"))}


def reference_save_json(doc: Any, path: str | Path) -> None:
    """What ``dpo.io.save_json`` writes, by the standard library's encoder."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def reference_graph_from_json(doc: Any) -> Graph:
    """The graph of a graph document, checked entry by entry; raises
    :class:`FormatError` for the first bad entry, in document order."""
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise FormatError("graph document must be an object with a 'nodes' array")
    nodes: dict[int, str] = {}
    for entry in _reference_array(doc["nodes"], "nodes"):
        v = _reference_ident(entry, "id", "node")
        if v in nodes:
            raise FormatError(f"duplicate node id {v}")
        nodes[v] = _reference_label(entry, "node")
    edge: dict[int, tuple[int, int, str]] = {}
    for entry in _reference_array(doc.get("edges", []), "edges"):
        e = _reference_ident(entry, "id", "edge")
        if e in edge:
            raise FormatError(f"duplicate edge id {e}")
        s = _reference_ident(entry, "src", "edge")
        t = _reference_ident(entry, "tgt", "edge")
        edge[e] = (s, t, _reference_label(entry, "edge"))
    return Graph(nodes=frozenset(nodes), edges=frozenset(edge), nlabel=nodes, edge=edge)


def _reference_array(value: Any, key: str) -> list:
    if not isinstance(value, list):
        raise FormatError(f"graph '{key}' must be an array")
    return value


def _reference_ident(entry: Any, key: str, kind: str) -> int:
    if not isinstance(entry, dict) or key not in entry:
        raise FormatError(f"{kind} entry missing '{key}'")
    value = entry[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise FormatError(f"{kind} '{key}' must be a non-negative integer, got {value!r}")
    return value


def _reference_label(entry: dict, kind: str) -> str:
    value = entry.get("label")
    if not isinstance(value, str):
        raise FormatError(f"{kind} 'label' must be a string, got {value!r}")
    return value


def reference_intmap(obj: Any, name: str) -> dict[int, int]:
    """A morphism map with its string keys read as ``int``, checked entry by
    entry; raises :class:`FormatError` for the first bad entry, or the first
    key that spells an id an earlier key spelled."""
    if not isinstance(obj, dict):
        raise FormatError(f"'{name}' must be an object")
    out: dict[int, int] = {}
    for k, v in obj.items():
        try:
            key = int(k)
        except (TypeError, ValueError):
            raise FormatError(f"'{name}' key {k!r} is not an integer") from None
        if not isinstance(v, int) or isinstance(v, bool) or v < 0 or key < 0:
            raise FormatError(f"'{name}' entry {k!r}: {v!r} is not a non-negative integer")
        if key in out:
            raise FormatError(f"'{name}' key {k!r} repeats id {key}")
        out[key] = v
    return out


def renumber(g: Graph, node_map: Mapping[int, int], edge_map: Mapping[int, int]) -> Graph:
    """Relabel identifiers through two injective maps; structure is preserved.

    The maps must be total on ``g``'s nodes and edges and injective; the
    result is isomorphic to ``g`` with witness exactly ``(node_map, edge_map)``.
    """
    _require_injection(node_map, g.nodes, "node_map")
    _require_injection(edge_map, g.edges, "edge_map")
    return Graph(
        nodes=frozenset(node_map[v] for v in g.nodes),
        edges=frozenset(edge_map[e] for e in g.edges),
        nlabel={node_map[v]: g.nlabel[v] for v in g.nodes},
        edge={edge_map[e]: (node_map[g.edge[e][0]], node_map[g.edge[e][1]], g.edge[e][2]) for e in g.edges},
    )


def _require_injection(m: Mapping[int, int], domain: frozenset[int], name: str) -> None:
    missing = domain - set(m)
    if missing:
        raise PreconditionError(f"{name} not total: missing {sorted(missing)}")
    images = [m[x] for x in domain]
    if len(set(images)) != len(images):
        raise PreconditionError(f"{name} not injective")


def is_inclusion(m: Morphism) -> bool:
    """True iff both maps are identities on the source's items."""
    return all(m.fv[v] == v for v in m.source.nodes) and all(
        m.fe[e] == e for e in m.source.edges
    )


def is_surjective(m: Morphism) -> bool:
    return (
        {m.fv[v] for v in m.source.nodes} == m.target.nodes
        and {m.fe[e] for e in m.source.edges} == m.target.edges
    )


def is_bijective(m: Morphism) -> bool:
    return is_injective(m) and is_surjective(m)


def invert(m: Morphism) -> Morphism:
    """The inverse of a bijective morphism."""
    if not is_bijective(m):
        raise PreconditionError("invert: morphism is not bijective")
    return Morphism(
        source=m.target,
        target=m.source,
        fv={m.fv[v]: v for v in m.source.nodes},
        fe={m.fe[e]: e for e in m.source.edges},
    )


def derivations_isomorphic(d1: DirectDerivation, d2: DirectDerivation) -> bool:
    """Whether two derivations have isomorphic contexts and isomorphic results."""
    return (
        is_isomorphic(d1.deletion.D, d2.deletion.D) is not None
        and is_isomorphic(d1.gluing.H, d2.gluing.H) is not None
    )
