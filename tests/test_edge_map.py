"""A graph keeps each edge's source, target and label in one map, ``edge``.

``src``, ``tgt`` and ``elabel`` stay readable as projections of it, for
readers outside the engine, and ``nodes`` and ``nlabel`` stay init fields,
so ``dataclasses.replace`` builds a graph from them. No engine path reads
a projection: with all three made to raise, a rewrite chain, the searches,
the Church–Rosser checks and the CLI verbs that read and write graphs run
as before.
"""

import dataclasses
import json
import random
from contextlib import contextmanager
from pathlib import Path

import pytest

from dpo import io
from dpo.cli import main
from dpo.graph import Graph, graph, is_isomorphic
from dpo.independence import commute, parallel_independent, verify_commutation_squares
from dpo.rewriting import apply, find_matches, identity_rule

from .generators import (
    HEXAGON,
    TWO_TRIANGLES,
    one_item_moved,
    random_graph,
    random_parallel_independent_pair,
    rewire_on_random_host,
)
from .oracles import renumber
from .test_rewriting import _random_host, _Replay, run_chain

PROJECTIONS = ("src", "tgt", "elabel")


def _refuse(g: Graph):
    raise AssertionError("a projection of Graph.edge was read")


@contextmanager
def projections_refused():
    """Every read of ``Graph.src``, ``tgt`` or ``elabel`` raises."""
    with pytest.MonkeyPatch.context() as mp:
        for name in PROJECTIONS:
            mp.setattr(Graph, name, property(_refuse))
        yield


class TestOutsideReaders:
    """What code outside the engine may still read and build."""

    def test_projections_equal_the_parts_of_edge(self):
        g = graph({0: "a", 1: "b"}, {0: (0, 1, "x"), 3: (1, 1, "y"), 1: (1, 0, "x")})
        for i, name in enumerate(PROJECTIONS):
            projected = dict(getattr(g, name))
            assert projected == {e: ends[i] for e, ends in g.edge.items()}
            assert list(projected) == list(g.edge)

    def test_projections_are_built_on_each_read(self):
        g = graph({0: "a"}, {0: (0, 0, "x")})
        assert g.src is not g.src
        written = g.elabel
        written[0] = "y"
        assert g.elabel == {0: "x"} and g.edge == {0: (0, 0, "x")}
        assert not {"src", "tgt", "elabel"} & set(vars(g))

    def test_replace_builds_a_graph_from_nodes_and_nlabel(self):
        H = graph({0: "a", 1: "b"}, {0: (0, 1, "x")})
        x = max(H.nodes) + 1
        H2 = dataclasses.replace(H, nodes=H.nodes | {x}, nlabel={**H.nlabel, x: "a"})
        assert type(H2) is Graph
        assert H2.nodes == {0, 1, x} and H2.nlabel[x] == "a"
        assert H2.edge is H.edge and H2 != H

    def test_a_graph_is_its_two_maps(self):
        assert [f.name for f in dataclasses.fields(Graph)] == ["nodes", "edges", "nlabel", "edge"]
        g = Graph.from_maps({0: "a"}, {2: (0, 0, "x")})
        assert g.nodes == {0} and g.edges == {2}
        assert g == graph({0: "a"}, {2: [0, 0, "x"]})


class TestHotPathsReadOnlyEdge:
    def test_a_chain_with_dangling_rejects(self):
        G = _random_host(300, seed=11)
        replay = _Replay(G)
        with projections_refused():
            graphs = list(run_chain(G, replay, steps=50, seed=11))
        # two graphs per applied step; PRUNE at an a-x->b edge mostly dangles
        assert 40 <= len(graphs) < 100
        assert graphs[-1] == replay.graph()

    def test_find_matches_and_is_isomorphic(self):
        rule = identity_rule(graph({0: "a", 1: "b"}, {0: (0, 1, "x")}))
        G = random_graph(random.Random(3), 200, 400, min_nodes=200)
        # the iso search backtracks without end on some sparse hosts past
        # about 100 nodes, so its host is a small one, renumbered in reverse
        small = random_graph(random.Random(3), 30, 50, min_nodes=30)
        copy = renumber(small, {v: 99 - v for v in small.nodes}, {e: 99 - e for e in small.edges})
        expected = [m.m.fv for m in find_matches(rule, G)]
        with projections_refused():
            found = [m.m.fv for m in find_matches(rule, G)]
            witness = is_isomorphic(small, copy)
            assert is_isomorphic(TWO_TRIANGLES, HEXAGON) is None
        assert found == expected and found
        assert witness is not None

    def test_commute_and_verify_on_passing_and_corrupted_instances(self):
        rng = random.Random(41)
        pairs = [random_parallel_independent_pair(rng) for _ in range(20)]
        reports = []
        with projections_refused():
            for pair in pairs:
                witness = parallel_independent(pair)
                result = commute(pair)
                assert verify_commutation_squares(pair, witness, result)
                moved = one_item_moved(rng, witness.j1, witness.j1.target)
                if moved is not None:
                    reports.append(verify_commutation_squares(pair, dataclasses.replace(witness, j1=moved), result))
        assert reports and not any(reports)


@pytest.fixture
def cli_files(tmp_path):
    """A 300-node host, the rewire rule and a match of it, a square file of
    that derivation's left square, and one whose host has an extra node."""
    rule, match = rewire_on_random_host(300)
    G = match.m.target
    d = apply(rule, match)
    files = {}

    def put(name: str, doc) -> str:
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        return files[name]

    put("host", io.graph_to_json(G))
    put("rule", io.rule_to_json(rule))
    put("match", io.morphism_to_json(d.match.m))
    put("bad_host", {**io.graph_to_json(G), "edges": [{"id": 0, "src": 0, "tgt": 999, "label": "x"}]})
    sq = d.left_square
    corners = {"A": sq.ab.source, "B": sq.ab.target, "C": sq.ac.target, "D": sq.bd.target}
    legs = {key: io.morphism_to_json(getattr(sq, key)) for key in ("ab", "ac", "bd", "cd")}
    put("square", {**{k: io.graph_to_json(g) for k, g in corners.items()}, **legs})
    wider = graph({**G.nlabel, max(G.nodes) + 1: "c"}, G.edge)
    put("wider_square", {**{k: io.graph_to_json(g) for k, g in corners.items()}, "D": io.graph_to_json(wider), **legs})
    files["out"] = str(tmp_path / "H.json")
    return files


def test_cli_verbs_read_only_edge(capsys, cli_files):
    f = cli_files
    outputs = [Path(f["out"] + suffix) for suffix in ("", ".trace.json", ".dot")]
    argvs = [
        ["validate", f["host"]],
        ["validate", f["rule"]],
        ["validate", f["bad_host"]],
        ["apply", f["rule"], f["host"], "--match", f["match"], "--out", f["out"], "--dot", f["out"] + ".dot"],
        *(["check-square", f[sq], "--mode", mode] for sq in ("square", "wider_square") for mode in ("pushout", "pullback")),
    ]

    def run_all() -> list:
        seen = []
        for p in outputs:
            p.unlink(missing_ok=True)
        for argv in argvs:
            for extra in ([], ["--json"]):
                code = main([*argv, *extra])
                written = [p.read_text(encoding="utf-8") for p in outputs if p.exists()]
                seen.append((code, capsys.readouterr(), written))
        return seen

    expected = run_all()
    with projections_refused():
        assert run_all() == expected
    assert sorted({code for code, _, _ in expected}) == [0, 3]
