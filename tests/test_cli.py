"""Contract tests for the ``dpo`` command line: exit codes and stdout reports.

Every verb is run in process through :func:`dpo.cli.main` on small JSON files
written to a temporary directory; the package entry points are run once each
in a subprocess.
"""

import argparse
import ast
import errno
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dpo
from dpo import cli, io, rewriting
from dpo.cli import main
from dpo.errors import FormatError
from dpo.graph import failure, graph
from dpo.morphism import Morphism, identity, validate_morphism
from dpo.rewriting import Rule, identity_rule

from .generators import HEXAGON, MIXED_PAIRS, PURE_PAIRS, TWO_TRIANGLES, random_graph, random_rule
from .oracles import renumber, replay
from .strategies import graphs

PASSED = {"verdict": True, "failed_clause": None, "counterexample": None}


def host():
    """Two a-nodes joined by an x-edge, and a y-edge on to a b-node."""
    return graph({0: "a", 1: "a", 2: "b"}, {0: (0, 1, "x"), 1: (1, 2, "y")})


def delete_x_edge() -> Rule:
    k = graph({0: "a", 1: "a"})
    l = graph({0: "a", 1: "a"}, {0: (0, 1, "x")})
    return Rule(L=l, K=k, R=k, b=Morphism(k, l, {0: 0, 1: 1}, {}), r=identity(k))


def keep_x_edge() -> Rule:
    l = graph({0: "a", 1: "a"}, {0: (0, 1, "x")})
    return Rule(L=l, K=l, R=l, b=identity(l), r=identity(l))


def delete_a_node() -> Rule:
    empty = graph({})
    l = graph({0: "a"})
    return Rule(L=l, K=empty, R=empty, b=Morphism(empty, l, {}, {}), r=identity(empty))


def create_c_node() -> Rule:
    empty = graph({})
    r = graph({0: "c"})
    return Rule(L=empty, K=empty, R=r, b=identity(empty), r=Morphism(empty, r, {}, {}))


def swap_b_for_c() -> Rule:
    """Delete a b-node with the y-edge into it, and create a c-node with a
    z-edge out to the preserved a-node."""
    k = graph({0: "a"})
    l = graph({0: "a", 1: "b"}, {0: (0, 1, "y")})
    r = graph({0: "a", 1: "c"}, {0: (1, 0, "z")})
    return Rule(L=l, K=k, R=r, b=Morphism(k, l, {0: 0}, {}), r=Morphism(k, r, {0: 0}, {}))


def write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, *argv: str) -> tuple[int, dict, str]:
    code = main([*argv, "--json"])
    out, err = capsys.readouterr()
    return code, json.loads(out) if out.strip() else None, err


@pytest.fixture
def files(tmp_path):
    f = {"host": write(tmp_path / "host.json", io.graph_to_json(host()))}
    for name, rule in (
        ("delete_x", delete_x_edge()),
        ("keep_x", keep_x_edge()),
        ("delete_a", delete_a_node()),
        ("create_c", create_c_node()),
        ("swap_b", swap_b_for_c()),
    ):
        f[name] = write(tmp_path / f"{name}.json", io.rule_to_json(rule))
    return f


class TestApply:
    def test_ok_writes_the_result_and_a_trace_with_both_checks_passed(self, capsys, files, tmp_path):
        out = tmp_path / "H.json"
        code, doc, _ = run(capsys, "apply", files["delete_x"], files["host"], "--out", str(out))
        trace = tmp_path / "H.trace.json"
        assert code == 0
        assert doc == {"out": str(out), "trace": str(trace), "nodes": 3, "edges": 1}
        assert json.loads(out.read_text()) == io.graph_to_json(
            graph({0: "a", 1: "a", 2: "b"}, {1: (1, 2, "y")})
        )
        recorded = json.loads(trace.read_text())
        assert recorded["left_square_check"] == PASSED
        assert recorded["right_square_check"] == PASSED

    def test_trace_records_the_delta_and_leaves_the_inclusions_unbuilt(self, capsys, files, tmp_path, monkeypatch):
        derivations, engine_apply = [], cli.apply

        def recording_apply(*args, **kwargs):
            derivations.append(engine_apply(*args, **kwargs))
            return derivations[-1]

        monkeypatch.setattr(cli, "apply", recording_apply)
        out = tmp_path / "H.json"
        code, _, _ = run(capsys, "apply", files["create_c"], files["host"], "--out", str(out))
        assert code == 0
        recorded = json.loads((tmp_path / "H.trace.json").read_text())
        assert sorted(recorded) == [
            "comatch", "created", "deleted", "left_square_check", "match",
            "right_square_check", "rule", "version",
        ]
        assert recorded["version"] == 2
        assert recorded["deleted"] == {"nodes": [], "edges": []}
        assert recorded["created"] == {"nodes": {"0": 3}, "edges": {}}
        assert recorded["comatch"] == {"fv": {"0": 3}, "fe": {}}
        (derivation,) = derivations
        assert "c" not in vars(derivation.deletion)
        assert "c" not in vars(derivation.gluing)

    def test_dangling_match_exits_2_and_names_the_edges(self, capsys, files, tmp_path):
        out = tmp_path / "H.json"
        code, doc, err = run(capsys, "apply", files["delete_a"], files["host"], "--out", str(out))
        assert code == 2
        assert doc is None
        assert err == "error: dangling edges: 0\n"
        assert not out.exists()

    def test_invalid_rule_exits_1(self, capsys, files, tmp_path):
        k = io.graph_to_json(graph({0: "a", 1: "a"}))
        l = io.graph_to_json(graph({0: "a"}))
        bad = {"L": l, "K": k, "R": k, "b": {"fv": {"0": 0, "1": 0}, "fe": {}}, "r": {"fv": {"0": 0, "1": 1}, "fe": {}}}
        rule = write(tmp_path / "bad.json", bad)
        code, doc, err = run(capsys, "apply", rule, files["host"], "--out", str(tmp_path / "H.json"))
        assert code == 1
        assert doc is None
        assert err == f"error: {rule}: invalid rule: b not injective: b\n"

    def test_invalid_match_file_exits_1(self, capsys, files, tmp_path):
        # node 2 carries label b, the rule's node 1 label a
        match = write(tmp_path / "m.json", {"fv": {"0": 0, "1": 2}, "fe": {"0": 0}})
        code, doc, err = run(
            capsys, "apply", files["delete_x"], files["host"], "--match", match,
            "--out", str(tmp_path / "H.json"),
        )
        assert code == 1
        assert doc is None
        assert "node label not preserved" in err

    @pytest.mark.parametrize(
        "fv, fe, message",
        [
            ({"0": 0}, {"0": 0}, "fv not total on source nodes: node 1"),
            ({"0": 0, "1": 9}, {"0": 0}, "fv out of target nodes: node 1"),
            ({"0": 0, "1": 1}, {"0": 0, "4": 1}, "fe defined outside source edges: edge 4"),
        ],
        ids=["partial", "out-of-range", "outside-source"],
    )
    def test_malformed_match_file_exits_1(self, capsys, files, tmp_path, fv, fe, message):
        match = write(tmp_path / "m.json", {"fv": fv, "fe": fe})
        out = tmp_path / "H.json"
        code, doc, err = run(capsys, "apply", files["delete_x"], files["host"], "--match", match, "--out", str(out))
        assert code == 1
        assert doc is None
        assert err == f"error: {match}: invalid morphism: {message}\n"
        assert not out.exists()

    def test_negative_match_index_exits_1(self, capsys, files, tmp_path):
        out = tmp_path / "H.json"
        code, doc, err = run(
            capsys, "apply", files["delete_x"], files["host"], "--match-index", "-1", "--out", str(out)
        )
        assert code == 1
        assert doc is None
        assert "match index -1 out of range" in err
        assert not out.exists()

    def test_match_file_with_a_match_index_is_a_usage_error(self, capsys, files, tmp_path):
        match = write(tmp_path / "m.json", {"fv": {"0": 0, "1": 1}, "fe": {"0": 0}})
        before = sorted(os.listdir(tmp_path))
        out = tmp_path / "H.json"
        with pytest.raises(SystemExit) as exc:
            main(["apply", files["delete_x"], files["host"], "--match", match, "--match-index", "1", "--out", str(out)])
        assert exc.value.code == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert "argument --match-index: not allowed with argument --match\n" in err
        assert sorted(os.listdir(tmp_path)) == before

    def test_a_rule_file_that_is_an_array_exits_1(self, capsys, files, tmp_path):
        rule = write(tmp_path / "rule.json", [io.rule_to_json(delete_x_edge())])
        out = tmp_path / "H.json"
        code, doc, err = run(capsys, "apply", rule, files["host"], "--out", str(out))
        assert (code, doc, err) == (1, None, f"error: {rule}: rule document must be an object\n")
        assert not out.exists()

    def test_interface_map_defined_outside_its_source_exits_1(self, capsys, files, tmp_path):
        doc = io.rule_to_json(create_c_node())
        doc["r"]["fv"] = {"5": 0}
        rule = write(tmp_path / "hostile.json", doc)
        code, out, err = run(capsys, "apply", rule, files["host"], "--out", str(tmp_path / "H.json"))
        assert code == 1
        assert out is None
        assert "fv defined outside source nodes" in err


def x_edges_host():
    """Three a-nodes: two parallel x-edges 0 -> 1, an x-edge 1 -> 2 with the
    lowest id, and a y-edge 2 -> 0 that no x-edge rule matches."""
    return graph({0: "a", 1: "a", 2: "a"}, {0: (1, 2, "x"), 1: (0, 1, "x"), 2: (0, 1, "x"), 3: (2, 0, "y")})


class TestMatch:
    """``match`` lists the matches in the documented order, by node images
    over ascending rule ids and then by edge images, and ``apply
    --match-index k`` applies the k-th entry of that list."""

    MATCHES = [
        {"fv": {"0": 0, "1": 1}, "fe": {"0": 1}},
        {"fv": {"0": 0, "1": 1}, "fe": {"0": 2}},
        {"fv": {"0": 1, "1": 2}, "fe": {"0": 0}},
    ]

    def test_count_and_matches_in_order(self, capsys, files, tmp_path):
        host = write(tmp_path / "x_edges.json", io.graph_to_json(x_edges_host()))
        code, doc, _ = run(capsys, "match", files["delete_x"], host)
        assert code == 0
        assert doc == {"count": 3, "matches": self.MATCHES}

    @pytest.mark.parametrize("k", range(3))
    def test_apply_at_match_index_deletes_that_matchs_edge(self, capsys, files, tmp_path, k):
        host = write(tmp_path / "x_edges.json", io.graph_to_json(x_edges_host()))
        out = tmp_path / "H.json"
        code, _, _ = run(capsys, "apply", files["delete_x"], host, "--match-index", str(k), "--out", str(out))
        assert code == 0
        G = x_edges_host()
        gone = self.MATCHES[k]["fe"]["0"]
        kept = {e: G.edge[e] for e in G.edges if e != gone}
        assert json.loads(out.read_text()) == io.graph_to_json(graph(G.nlabel, kept))


class TestIllFormedRule:
    """A rule whose L-edge ends at a missing node is rejected when loaded,
    before any search, naming the violation; ``validate`` still reports it."""

    @staticmethod
    def rule_file(tmp_path) -> str:
        doc = io.rule_to_json(delete_x_edge())
        doc["L"]["edges"][0]["tgt"] = 5
        return write(tmp_path / "dangling_l.json", doc)

    MESSAGE = "invalid rule: graph L: tgt out of V: edge 0"

    def test_match_exits_1(self, capsys, files, tmp_path):
        rule = self.rule_file(tmp_path)
        code, doc, err = run(capsys, "match", rule, files["host"])
        assert code == 1
        assert doc is None
        assert err == f"error: {rule}: {self.MESSAGE}\n"

    def test_apply_by_match_index_exits_1(self, capsys, files, tmp_path):
        out = tmp_path / "H.json"
        rule = self.rule_file(tmp_path)
        code, doc, err = run(capsys, "apply", rule, files["host"], "--match-index", "0", "--out", str(out))
        assert code == 1
        assert doc is None
        assert err == f"error: {rule}: {self.MESSAGE}\n"
        assert not out.exists()

    def test_validate_still_reports_the_violation(self, capsys, tmp_path):
        code, doc, _ = run(capsys, "validate", self.rule_file(tmp_path))
        assert code == 3
        assert doc["violations"][0] == {"clause": "graph L: tgt out of V", "item": "edge 0"}


class TestIllFormedHost:
    """A host whose edge ends at a missing node is rejected when loaded:
    every verb that reads it exits 1 naming the first violation, and
    ``validate`` still reports it with exit code 3."""

    @staticmethod
    def host_file(tmp_path) -> str:
        doc = io.graph_to_json(host())
        doc["edges"][1]["tgt"] = 7
        return write(tmp_path / "bad_host.json", doc)

    MESSAGE = "invalid graph: tgt out of V: edge 1"

    def test_apply_exits_1_and_writes_nothing(self, capsys, files, tmp_path):
        out = tmp_path / "H.json"
        bad = self.host_file(tmp_path)
        code, doc, err = run(capsys, "apply", files["delete_x"], bad, "--out", str(out))
        assert code == 1
        assert doc is None
        assert err == f"error: {bad}: {self.MESSAGE}\n"
        assert not out.exists()

    def test_match_exits_1(self, capsys, files, tmp_path):
        bad = self.host_file(tmp_path)
        code, doc, err = run(capsys, "match", files["delete_x"], bad)
        assert code == 1
        assert doc is None
        assert err == f"error: {bad}: {self.MESSAGE}\n"

    def test_iso_exits_1(self, capsys, files, tmp_path):
        bad = self.host_file(tmp_path)
        code, doc, err = run(capsys, "iso", bad, files["host"])
        assert code == 1
        assert doc is None
        assert err == f"error: {bad}: {self.MESSAGE}\n"

    def test_inline_square_corner_exits_1(self, capsys, tmp_path):
        doc = square_doc(extra_target_node=False)
        doc["D"]["edges"] = [{"id": 0, "src": 0, "tgt": 5, "label": "x"}]
        square = write(tmp_path / "sq.json", doc)
        code, out, err = run(capsys, "check-square", square, "--mode", "pushout")
        assert code == 1
        assert out is None
        assert err == f"error: {square} 'D': invalid graph: tgt out of V: edge 0\n"

    def test_validate_still_exits_3(self, capsys, tmp_path):
        code, doc, _ = run(capsys, "validate", self.host_file(tmp_path))
        assert code == 3
        assert doc["violations"] == [{"clause": "tgt out of V", "item": "edge 1"}]


def square_doc(extra_target_node: bool) -> dict:
    """The gluing square of an a-node and a b-node over the empty graph."""
    d = {0: "a", 1: "b", 2: "a"} if extra_target_node else {0: "a", 1: "b"}
    return {
        "A": io.graph_to_json(graph({})),
        "B": io.graph_to_json(graph({0: "a"})),
        "C": io.graph_to_json(graph({0: "b"})),
        "D": io.graph_to_json(graph(d)),
        "ab": {"fv": {}, "fe": {}},
        "ac": {"fv": {}, "fe": {}},
        "bd": {"fv": {"0": 0}, "fe": {}},
        "cd": {"fv": {"0": 1}, "fe": {}},
    }


class TestCheckSquare:
    def test_pushout_exits_0(self, capsys, tmp_path):
        square = write(tmp_path / "sq.json", square_doc(extra_target_node=False))
        code, doc, _ = run(capsys, "check-square", square, "--mode", "pushout")
        assert code == 0
        assert doc == PASSED

    def test_uncovered_target_node_exits_3(self, capsys, tmp_path):
        square = write(tmp_path / "sq.json", square_doc(extra_target_node=True))
        code, doc, _ = run(capsys, "check-square", square, "--mode", "pushout")
        assert code == 3
        assert doc == {
            "verdict": False,
            "failed_clause": "joint surjectivity",
            "counterexample": ["node", 2],
        }


def one_node_square(ab: dict) -> dict:
    """Identities on a one-node graph, with ``ab`` replaced."""
    one = io.graph_to_json(graph({0: "a"}))
    ident = {"fv": {"0": 0}, "fe": {}}
    return {"A": one, "B": one, "C": one, "D": one, "ab": ab, "ac": ident, "bd": ident, "cd": ident}


class TestSquareFileShapes:
    """A square's corners and legs may be files named by paths relative to
    the square file; a square file that is no object is a format error."""

    @pytest.mark.parametrize("mode", ["pushout", "pullback"])
    def test_every_value_a_relative_path_exits_0(self, capsys, tmp_path, monkeypatch, mode):
        # run from elsewhere: the paths are read beside the square file
        (tmp_path / "sq" / "parts").mkdir(parents=True)
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        doc = square_doc(extra_target_node=False)
        for key, value in doc.items():
            write(tmp_path / "sq" / "parts" / f"{key}.json", value)
        square = write(tmp_path / "sq" / "sq.json", {key: f"parts/{key}.json" for key in doc})
        code, report, err = run(capsys, "check-square", square, "--mode", mode)
        assert (code, report, err) == (0, PASSED, "")

    def test_a_leg_file_that_is_no_morphism_document_exits_1(self, capsys, tmp_path):
        write(tmp_path / "cd.json", {"fv": [], "fe": {}})
        square = write(tmp_path / "sq.json", {**square_doc(extra_target_node=False), "cd": "cd.json"})
        code, report, err = run(capsys, "check-square", square, "--mode", "pushout")
        assert (code, report, err) == (1, None, f"error: {square} 'cd': 'fv' must be an object\n")

    def test_a_path_with_a_lone_surrogate_exits_1_with_the_surrogate_escaped(self, capsys, tmp_path):
        # JSON's "\ud800" escape gives a path no file system can open, and a
        # message that a UTF-8 stream with strict errors takes only escaped
        square = write(tmp_path / "sq.json", {**square_doc(extra_target_node=False), "cd": "\ud800"})
        code, report, err = run(capsys, "check-square", square, "--mode", "pushout")
        assert (code, report) == (1, None)
        assert err.startswith(f"error: cannot read {tmp_path}/\\ud800: 'utf-8' codec can't encode character"), err

    def test_a_square_file_that_is_an_array_exits_1(self, capsys, tmp_path):
        square = write(tmp_path / "sq.json", [square_doc(extra_target_node=False)])
        code, report, err = run(capsys, "check-square", square, "--mode", "pushout")
        assert (code, report, err) == (1, None, f"error: {square}: square document must be an object\n")


class TestHostileSquare:
    """A square file whose map is partial on its source, defined outside it
    or leaves its target is rejected when loaded, with exit code 1 and one
    line on stderr naming the morphism and the item; no check reads it."""

    @pytest.mark.parametrize("mode", ["pushout", "pullback"])
    @pytest.mark.parametrize(
        "ab, message",
        [
            ({"fv": {}, "fe": {}}, "fv not total on source nodes: node 0"),
            ({"fv": {"0": 7}, "fe": {}}, "fv out of target nodes: node 0"),
            ({"fv": {"0": 0}, "fe": {"3": 0}}, "fe defined outside source edges: edge 3"),
        ],
        ids=["partial", "out-of-range", "outside-source"],
    )
    def test_malformed_map_exits_1(self, capsys, tmp_path, mode, ab, message):
        square = write(tmp_path / "sq.json", one_node_square(ab))
        code, doc, err = run(capsys, "check-square", square, "--mode", mode)
        assert code == 1
        assert doc is None
        assert err == f"error: {square} 'ab': invalid morphism: {message}\n"


class TestNonMorphismLeg:
    """A square leg that breaks a label or an endpoint is rejected when
    loaded as well: no check gives a verdict on a square of non-morphisms."""

    @pytest.mark.parametrize("mode", ["pushout", "pullback"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                # identities on a-nodes into a D whose node is a b-node
                {**one_node_square({"fv": {"0": 0}, "fe": {}}), "D": io.graph_to_json(graph({0: "b"}))},
                "node label not preserved: node 0",
            ),
            (
                # identities on an x-edge, but bd swaps the edge's two ends
                {
                    **{key: io.graph_to_json(graph({0: "a", 1: "a"}, {0: (0, 1, "x")})) for key in "ABCD"},
                    **{leg: {"fv": {"0": 0, "1": 1}, "fe": {"0": 0}} for leg in ("ab", "ac", "cd")},
                    "bd": {"fv": {"0": 1, "1": 0}, "fe": {"0": 0}},
                },
                "source not preserved: edge 0",
            ),
        ],
        ids=["label", "endpoint"],
    )
    def test_exits_1_naming_the_leg_and_the_item(self, capsys, tmp_path, mode, doc, message):
        square = write(tmp_path / "sq.json", doc)
        code, doc, err = run(capsys, "check-square", square, "--mode", mode)
        assert (code, doc) == (1, None)
        assert err == f"error: {square} 'bd': invalid morphism: {message}\n"

    def test_every_leg_is_read_before_any_is_checked(self, capsys, tmp_path):
        # ab breaks a label, and cd is no map at all: the square is built
        # only once all four legs are read, so cd's format error comes first
        doc = {**one_node_square({"fv": {"0": 0}, "fe": {}}), "B": io.graph_to_json(graph({0: "b"}))}
        doc["bd"] = {"fv": {"0": 0}, "fe": {}}
        doc["D"] = io.graph_to_json(graph({0: "b"}))
        doc["cd"] = {"fv": {"x": 0}, "fe": {}}
        square = write(tmp_path / "sq.json", doc)
        code, out, err = run(capsys, "check-square", square, "--mode", "pushout")
        assert (code, out) == (1, None)
        assert err == f"error: {square} 'cd': 'fv' key 'x' is not an integer\n"


class TestIndependentAndCommute:
    def test_independent_pair_exits_0_with_both_embeddings(self, capsys, files):
        code, doc, _ = run(
            capsys, "independent", files["delete_x"], files["create_c"], files["host"],
            "--match1", "0", "--match2", "0",
        )
        assert code == 0
        assert doc == {
            "independent": True,
            "j1": {"fv": {"0": 0, "1": 1}, "fe": {"0": 0}},
            "j2": {"fv": {}, "fe": {}},
        }

    def test_dependent_pair_exits_4_and_lists_the_blocking_items(self, capsys, files):
        code, doc, _ = run(
            capsys, "independent", files["delete_x"], files["keep_x"], files["host"],
            "--match1", "0", "--match2", "0",
        )
        assert code == 4
        assert doc == {
            "independent": False,
            "blocked": [{"triangle": "L2 into D1", "item": ["edge", 0]}],
        }

    def test_commute_exits_0_and_writes_the_closed_diamond(self, capsys, files, tmp_path):
        out = tmp_path / "Gp.json"
        code, doc, _ = run(
            capsys, "commute", files["delete_x"], files["create_c"], files["host"],
            "--match1", "0", "--match2", "0", "--out", str(out),
        )
        report = tmp_path / "Gp.report.json"
        assert code == 0
        assert doc == {"out": str(out), "report": str(report), "nodes": 4}
        assert json.loads(out.read_text()) == io.graph_to_json(
            graph({0: "a", 1: "a", 2: "b", 3: "c"}, {1: (1, 2, "y")})
        )
        recorded = json.loads(report.read_text())
        assert sorted(recorded) == ["iso", "residual_match_1", "residual_match_2", "squares", "version"]
        assert recorded["version"] == 2
        assert recorded["squares"] == PASSED

    def test_commute_report_iso_maps_the_out_graph_one_to_one(self, capsys, files, tmp_path):
        out = tmp_path / "Gp.json"
        code, _, _ = run(
            capsys, "commute", files["delete_x"], files["create_c"], files["host"],
            "--match1", "0", "--match2", "0", "--out", str(out),
        )
        assert code == 0
        Gp = json.loads(out.read_text())
        iso = json.loads((tmp_path / "Gp.report.json").read_text())["iso"]
        for kind, key in (("nodes", "node_map"), ("edges", "edge_map")):
            assert set(iso[key]) == {str(item["id"]) for item in Gp[kind]}
            assert len(set(iso[key].values())) == len(iso[key])

    def test_commute_with_a_partial_match_file_exits_1(self, capsys, files, tmp_path):
        match = write(tmp_path / "m.json", {"fv": {"0": 0}, "fe": {"0": 0}})
        code, doc, err = run(
            capsys, "commute", files["delete_x"], files["create_c"], files["host"],
            "--match1", match, "--match2", "0", "--out", str(tmp_path / "Gp.json"),
        )
        assert code == 1
        assert doc is None
        assert err == f"error: {match}: invalid morphism: fv not total on source nodes: node 1\n"

    def test_commute_on_a_dependent_pair_exits_4(self, capsys, files, tmp_path):
        code, doc, _ = run(
            capsys, "commute", files["delete_x"], files["keep_x"], files["host"],
            "--match1", "0", "--match2", "0", "--out", str(tmp_path / "Gp.json"),
        )
        assert code == 4
        assert doc["blocked"] == [{"triangle": "L2 into D1", "item": ["edge", 0]}]

    def test_commute_whose_squares_fail_exits_5_naming_the_clause_and_item(self, capsys, files, tmp_path, monkeypatch):
        failed = failure("square (5): joint surjectivity", ("node", 3))
        monkeypatch.setattr(cli, "verify_commutation_squares", lambda *args: failed)
        before = sorted(os.listdir(tmp_path))
        code, doc, err = run(
            capsys, "commute", files["delete_x"], files["create_c"], files["host"],
            "--match1", "0", "--match2", "0", "--out", str(tmp_path / "Gp.json"),
        )
        assert (code, doc) == (5, None)
        assert err == "error: commutation squares failed verification: square (5): joint surjectivity: node 3\n"
        assert sorted(os.listdir(tmp_path)) == before


class TestValidate:
    def test_well_formed_graph_exits_0(self, capsys, files):
        code, doc, _ = run(capsys, "validate", files["host"])
        assert code == 0
        assert doc == {"kind": "graph", "ok": True, "violations": []}

    def test_edge_to_a_missing_node_exits_3(self, capsys, tmp_path):
        path = write(tmp_path / "g.json", {
            "nodes": [{"id": 0, "label": "a"}],
            "edges": [{"id": 0, "src": 0, "tgt": 5, "label": "x"}],
        })
        code, doc, _ = run(capsys, "validate", path)
        assert code == 3
        assert doc == {
            "kind": "graph",
            "ok": False,
            "violations": [{"clause": "tgt out of V", "item": "edge 0"}],
        }

    def test_interface_map_defined_outside_its_source_exits_3(self, capsys, tmp_path):
        doc = io.rule_to_json(create_c_node())
        doc["r"]["fv"] = {"5": 0}
        code, out, _ = run(capsys, "validate", write(tmp_path / "hostile.json", doc))
        assert code == 3
        assert out == {
            "kind": "rule",
            "ok": False,
            "violations": [{"clause": "r: fv defined outside source nodes", "item": "node 5"}],
        }

    def test_a_morphism_file_and_each_graph_it_references_are_read_once(self, capsys, files, tmp_path, monkeypatch):
        reads, original = Counter(), io.load_json

        def counting(path):
            reads[str(path)] += 1
            return original(path)

        monkeypatch.setattr(io, "load_json", counting)
        source = write(tmp_path / "a_node.json", io.graph_to_json(graph({0: "a"})))
        morphism = write(tmp_path / "m.json", {"source": "a_node.json", "target": "host.json", "fv": {"0": 1}, "fe": {}})
        code, doc, _ = run(capsys, "validate", morphism)
        assert (code, doc) == (0, {"kind": "morphism", "ok": True, "violations": []})
        assert reads == {morphism: 1, source: 1, files["host"]: 1}

    def test_a_morphism_file_without_a_source_reference_exits_1(self, capsys, tmp_path):
        code = main(["validate", write(tmp_path / "m.json", {"fv": {"0": 0}, "fe": {}}), "--json"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", "error: morphism document has no 'source' reference\n")

    @pytest.mark.parametrize(
        "doc",
        [[], {}, 42, {k: v for k, v in io.rule_to_json(create_c_node()).items() if k != "R"}],
        ids=["list", "empty-object", "number", "rule-without-R"],
    )
    def test_a_document_of_no_known_kind_exits_1(self, capsys, tmp_path, doc):
        code = main(["validate", write(tmp_path / "doc.json", doc), "--json"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", "error: unrecognized document kind\n")


def pinned(capsys, argv: list[str], code: int, doc: dict, summary: str) -> None:
    """``argv`` exits ``code``; stdout is exactly ``doc`` as the CLI writes
    it, and stderr the ``summary`` line, or nothing with ``--json``."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert (main(argv), capsys.readouterr()) == (code, (text, summary + "\n"))
    assert (main([*argv, "--json"]), capsys.readouterr()) == (code, (text, ""))


ONE_A = io.graph_to_json(graph({0: "a"}))
TWO_A = io.graph_to_json(graph({0: "a", 1: "a"}))
EMPTY = io.graph_to_json(graph({}))


def square_file(tmp_path, A, B, C, D, ab, ac, bd, cd) -> str:
    """A square file of node-only maps, ``{node: image}`` for each leg."""
    legs = zip(("ab", "ac", "bd", "cd"), (ab, ac, bd, cd))
    doc = {"A": A, "B": B, "C": C, "D": D}
    doc.update((key, {"fv": {str(k): v for k, v in fv.items()}, "fe": {}}) for key, fv in legs)
    return write(tmp_path / "sq.json", doc)


class TestNegativeVerdictDocuments:
    """The exact stdout document, summary line and exit code of each
    negative verdict that names its clauses and items."""

    def test_validate_graph_with_three_violations(self, capsys, tmp_path):
        path = write(tmp_path / "g.json", {
            "nodes": [{"id": 0, "label": "a"}],
            "edges": [{"id": 0, "src": 3, "tgt": 5, "label": "x"}, {"id": 1, "src": 0, "tgt": 9, "label": "x"}],
        })
        violations = [
            {"clause": "src out of V", "item": "edge 0"},
            {"clause": "tgt out of V", "item": "edge 0"},
            {"clause": "tgt out of V", "item": "edge 1"},
        ]
        pinned(capsys, ["validate", path], 3, {"kind": "graph", "ok": False, "violations": violations},
               "graph: 3 violation(s)")

    def test_validate_rule_with_three_violations(self, capsys, tmp_path):
        # L's edge ends outside L, b merges K's two nodes, and r maps an
        # edge K does not have
        doc = {
            "L": {"nodes": [{"id": 0, "label": "a"}], "edges": [{"id": 0, "src": 0, "tgt": 5, "label": "x"}]},
            "K": TWO_A,
            "R": TWO_A,
            "b": {"fv": {"0": 0, "1": 0}, "fe": {}},
            "r": {"fv": {"0": 0, "1": 1}, "fe": {"4": 0}},
        }
        violations = [
            {"clause": "graph L: tgt out of V", "item": "edge 0"},
            {"clause": "b not injective", "item": "b"},
            {"clause": "r: fe defined outside source edges", "item": "edge 4"},
        ]
        pinned(capsys, ["validate", write(tmp_path / "rule.json", doc)], 3,
               {"kind": "rule", "ok": False, "violations": violations}, "rule: 3 violation(s)")

    def test_validate_morphism_with_four_violations(self, capsys, tmp_path):
        doc = {
            "source": io.graph_to_json(graph({0: "a", 1: "b"}, {0: (0, 1, "x")})),
            "target": io.graph_to_json(graph({0: "a", 1: "a"}, {0: (1, 0, "x")})),
            "fv": {"0": 0, "1": 1, "3": 0},
            "fe": {"0": 0},
        }
        violations = [
            {"clause": "node label not preserved", "item": "node 1"},
            {"clause": "source not preserved", "item": "edge 0"},
            {"clause": "target not preserved", "item": "edge 0"},
            {"clause": "fv defined outside source nodes", "item": "node 3"},
        ]
        pinned(capsys, ["validate", write(tmp_path / "m.json", doc)], 3,
               {"kind": "morphism", "ok": False, "violations": violations}, "morphism: 4 violation(s)")

    @pytest.mark.parametrize(
        "mode, corners, maps, clause, item",
        [
            # B and C are glued onto two different D-nodes
            ("pushout", (ONE_A, ONE_A, ONE_A, TWO_A), ({0: 0}, {0: 0}, {0: 0}, {0: 1}), "commutativity", ["node", 0]),
            # B and C agree in D with nothing in A to glue them by
            ("pushout", (EMPTY, ONE_A, ONE_A, ONE_A), ({}, {}, {0: 0}, {0: 0}), "reduced chain-condition",
             ["node", 0, 0]),
            # D's node 1 is no image
            ("pushout", (ONE_A, ONE_A, ONE_A, TWO_A), ({0: 0}, {0: 0}, {0: 0}, {0: 0}), "joint surjectivity",
             ["node", 1]),
            # A's two nodes go to the one pair (0, 0)
            ("pullback", (TWO_A, ONE_A, ONE_A, ONE_A), ({0: 0, 1: 0}, {0: 0, 1: 0}, {0: 0}, {0: 0}),
             "mediating map not injective", ["node", 0, 1]),
            # the pair (0, 0) is no A-item's
            ("pullback", (EMPTY, ONE_A, ONE_A, ONE_A), ({}, {}, {0: 0}, {0: 0}), "mediating map not surjective",
             ["node", 0, 0]),
        ],
        ids=["commutativity", "chain-condition", "surjectivity", "mediator-injective", "mediator-surjective"],
    )
    def test_check_square(self, capsys, tmp_path, mode, corners, maps, clause, item):
        square = square_file(tmp_path, *corners, *maps)
        pinned(capsys, ["check-square", square, "--mode", mode], 3,
               {"verdict": False, "failed_clause": clause, "counterexample": item}, f"{mode}: no ({clause})")

    def test_independent_with_both_triangles_blocked(self, capsys, files):
        # both derivations delete the b-node and the y-edge into it
        blocked = [
            {"triangle": side, "item": item}
            for side in ("L1 into D2", "L2 into D1")
            for item in (["node", 2], ["edge", 1])
        ]
        argv = ["independent", files["swap_b"], files["swap_b"], files["host"], "--match1", "0", "--match2", "0"]
        pinned(capsys, argv, 4, {"independent": False, "blocked": blocked}, "dependent (4 blocking item(s))")


NON_ARRAY_GRAPHS = [
    ({"nodes": 5}, "graph 'nodes' must be an array"),
    ({"nodes": None}, "graph 'nodes' must be an array"),
    ({"nodes": [], "edges": 5}, "graph 'edges' must be an array"),
]


@pytest.mark.parametrize("graph_doc, message", NON_ARRAY_GRAPHS, ids=["nodes-int", "nodes-null", "edges-int"])
class TestNonArrayItems:
    """A graph document whose ``nodes`` or ``edges`` is not an array is a
    format error (exit 1), not an internal one."""

    def test_validate_exits_1(self, capsys, tmp_path, graph_doc, message):
        code, doc, err = run(capsys, "validate", write(tmp_path / "g.json", graph_doc))
        assert (code, doc, err) == (1, None, f"error: {message}\n")

    def test_iso_exits_1(self, capsys, files, tmp_path, graph_doc, message):
        bad = write(tmp_path / "g.json", graph_doc)
        code, doc, err = run(capsys, "iso", files["host"], bad)
        assert (code, doc, err) == (1, None, f"error: {bad}: {message}\n")


@pytest.mark.parametrize(
    "content",
    [b'\xff\xfe{"nodes": []}', b"[" * 100_000, b'{"nodes": [{"id": ' + b"1" * 5000 + b', "label": "a"}]}'],
    ids=["not-utf8", "deeply-nested", "over-long-integer"],
)
class TestHostileJson:
    """A file that is not UTF-8, nests deeper than the decoder follows or
    holds an integer too long to convert is a format error (exit 1), not an
    internal one."""

    def test_validate_exits_1(self, capsys, tmp_path, content):
        path = tmp_path / "hostile.json"
        path.write_bytes(content)
        code, doc, err = run(capsys, "validate", str(path))
        assert (code, doc) == (1, None)
        assert err.startswith(f"error: {path} is not valid JSON: ")

    def test_iso_exits_1(self, capsys, files, tmp_path, content):
        path = tmp_path / "hostile.json"
        path.write_bytes(content)
        code, doc, err = run(capsys, "iso", files["host"], str(path))
        assert (code, doc) == (1, None)
        assert err.startswith(f"error: {path} is not valid JSON: ")


def endpoint_reference(draw, g: dict):
    """A morphism file's ``source`` or ``target`` entry, named by its kind:
    the graph document ``g`` inline or as a path to a file holding it
    (written as ``g.json`` beside the morphism file), an ill-formed inline
    graph, no entry, a value that is neither, the morphism file itself, a
    directory, a file that is not UTF-8, or a file that does not exist."""
    kind = draw(st.sampled_from(
        ["inline", "path", "ill-formed", "missing", "non-string", "itself", "directory", "not-utf8", "no-such-file"]
    ))
    value = {
        "inline": g,
        "path": draw(st.sampled_from(["g.json", "./g.json", "sub/../g.json"])),
        "ill-formed": {"nodes": [{"id": 0, "label": "a"}], "edges": [{"id": 0, "src": 0, "tgt": 9, "label": "x"}]},
        "missing": None,
        "non-string": draw(st.sampled_from([5, 1.5, True, None, [], {}, ["g.json"]])),
        "itself": "m.json",
        "directory": draw(st.sampled_from(["sub", ".", "", "sub/"])),
        "not-utf8": "latin1.json",
        "no-such-file": "absent.json",
    }[kind]
    return kind, value


@st.composite
def standalone_morphism_documents(draw) -> tuple[dict, dict]:
    """A graph document and a standalone morphism document whose maps are
    the identity on that graph or drawn at random, and whose ``source`` and
    ``target`` are drawn by :func:`endpoint_reference`."""
    g = io.graph_to_json(draw(graphs(max_nodes=3, max_edges=3)))
    ids = lambda key: [str(x["id"]) for x in g[key]]
    doc = {}
    for key in ("fv", "fe"):
        doc[key] = draw(st.one_of(
            st.just({i: int(i) for i in ids("nodes" if key == "fv" else "edges")}),
            st.dictionaries(st.sampled_from(["0", "1", "2", "00", "x", "-1"]), st.integers(0, 3), max_size=3),
            st.sampled_from([[], None, "0"]),
        ))
    for key in ("source", "target"):
        kind, value = endpoint_reference(draw, g)
        if kind != "missing":
            doc[key] = value
    return g, doc


class TestStandaloneMorphismFiles:
    """``dpo validate`` on a standalone morphism file whose endpoint graphs
    are inline, referenced by path, or neither, ends in exit 0, 1 or 3 with
    a message; never in an internal error."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(standalone_morphism_documents())
    def test_validate_never_exits_5(self, capsys, tmp_path_factory, documents):
        g, doc = documents
        base = tmp_path_factory.mktemp("morphism")
        (base / "sub").mkdir()
        (base / "g.json").write_text(json.dumps(g), encoding="utf-8")
        (base / "latin1.json").write_bytes(b'\xff\xfe{"nodes": []}')
        path = write(base / "m.json", doc)
        code, report, err = run(capsys, "validate", path)
        if code == 1:
            assert report is None and err.startswith("error: ") and len(err) > len("error: \n")
            assert "internal" not in err
        else:
            assert code in (0, 3), (code, err)
            assert report["kind"] == "morphism" and report["ok"] is (code == 0)
            assert report["ok"] is (not report["violations"])

    def test_a_path_with_a_null_byte_cannot_be_read(self, capsys, tmp_path):
        # open() refuses the path with ValueError: a read error, not a JSON one
        doc = {"source": "a\u0000b", "target": {"nodes": [], "edges": []}, "fv": {}, "fe": {}}
        code, report, err = run(capsys, "validate", write(tmp_path / "m.json", doc))
        assert (code, report) == (1, None)
        unreadable = tmp_path / doc["source"]
        assert err == f"error: cannot read {unreadable}: embedded null byte\n"


# values a mutation puts in a valid document, as JSON text: each use is a
# new object, so no mutation reaches a value put in earlier or this list
JUNK = ["null", "true", "-1", "0", "1", "7", "1.5", '""', '"a"', '"0"', '"x.json"', "[]", "{}", "[{}]",
        '{"0": 0}', '{"id": 0, "label": "a"}', '"\\ud800"']


def _slots(holder: list):
    """Every ``(container, key)`` in ``holder[0]``'s tree, the document
    itself as ``(holder, 0)``."""
    stack = [(holder, 0)]
    while stack:
        container, key = stack.pop()
        yield container, key
        value = container[key]
        if isinstance(value, dict):
            stack.extend((value, k) for k in value)
        elif isinstance(value, list):
            stack.extend((value, i) for i in range(len(value)))


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three values replaced by a :data:`JUNK` value,
    deleted, or given a junk sibling."""
    holder = [json.loads(json.dumps(doc))]
    junk = st.sampled_from(JUNK).map(json.loads)
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_slots(holder))))
        action = draw(st.sampled_from(["replace"] if container is holder else ["replace", "delete", "add"]))
        if action == "replace":
            container[key] = draw(junk)
        elif action == "delete":
            del container[key]
        elif isinstance(container, dict):
            container[draw(st.sampled_from(["id", "label", "src", "nodes", "fv", "L", "A", "ab", "9"]))] = draw(junk)
        else:
            container.append(draw(junk))
    return holder[0]


SQUARE_BY_PATH = {key: f"{key}.json" for key in ("A", "B", "C", "D", "ab", "ac", "bd", "cd")}

# a valid document of each kind, and the verbs that read it as ``{}``
DOCUMENTS = {
    "graph": (io.graph_to_json(host()), [
        ["iso", "host.json", "{}"], ["match", "delete_x.json", "{}"], ["validate", "{}"],
        ["apply", "delete_x.json", "{}", "--match-index", "0", "--out", "H.json", "--dot", "H.dot"],
    ]),
    "rule": (io.rule_to_json(delete_x_edge()), [
        ["match", "{}", "host.json"], ["validate", "{}"],
        ["apply", "{}", "host.json", "--out", "H.json", "--dot", "H.dot"],
        ["commute", "{}", "create_c.json", "host.json", "--match1", "0", "--match2", "0", "--out", "G.json", "--dot", "G.dot"],
    ]),
    "match": ({"fv": {"0": 0, "1": 1}, "fe": {"0": 0}}, [
        ["apply", "delete_x.json", "host.json", "--match", "{}", "--out", "H.json", "--dot", "H.dot"],
        ["independent", "delete_x.json", "create_c.json", "host.json", "--match1", "{}", "--match2", "0"],
    ]),
    "square": (square_doc(extra_target_node=False), [
        ["check-square", "{}", "--mode", "pushout"], ["check-square", "{}", "--mode", "pullback"],
    ]),
    "square by path": (SQUARE_BY_PATH, [["check-square", "{}", "--mode", "pushout"]]),
}


def load(kind: str, path: Path):
    """What the loader behind the verbs makes of the file at ``path``."""
    if kind == "graph":
        return io.load_graph(path)
    if kind == "rule":
        return io.load_rule(path)
    if kind == "match":
        return io.load_morphism(path, delete_x_edge().L, host())
    return io.load_square(path)


class TestMutatedDocuments:
    """A valid graph, rule, match or square file with a few values replaced,
    deleted or added ends every verb that reads it in exit 0-4, never in an
    internal error; and a file its loader rejects is reported in one line
    that starts with the name of the file at fault."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(DOCUMENTS)).flatmap(
        lambda kind: st.tuples(st.just(kind), mutated(DOCUMENTS[kind][0]), st.sampled_from(DOCUMENTS[kind][1]))
    ))
    def test_exits_0_to_4_and_format_errors_name_the_file(self, capsys, tmp_path, monkeypatch, case):
        kind, doc, argv = case
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "host.json", io.graph_to_json(host()))
        write(tmp_path / "delete_x.json", io.rule_to_json(delete_x_edge()))
        write(tmp_path / "create_c.json", io.rule_to_json(create_c_node()))
        for key, value in square_doc(extra_target_node=False).items():
            write(tmp_path / f"{key}.json", value)
        path = write(tmp_path / "doc.json", doc)
        code, _, err = run(capsys, *(path if arg == "{}" else arg for arg in argv))
        assert 0 <= code <= 4 and "error: internal:" not in err, err
        if argv[0] == "validate":
            return
        try:
            load(kind, Path(path))
        except FormatError as exc:
            assert err == f"error: {exc}\n"
            # the mutated file, or a file it names, such as "x.json"
            assert re.match(rf"(cannot read )?{re.escape(str(tmp_path))}", str(exc)), err


class TestUnwritableOutput:
    """An output path in a directory that does not exist, or that is a
    directory, exits 1, with a message that names the path, and leaves no
    output or temporary file behind: an ``--out`` file that existed before
    is left as it was."""

    @staticmethod
    def assert_fails_leaving_nothing(capsys, tmp_path, argv, paths, option):
        paths[option] = tmp_path / "missing" / paths[option].name
        outputs = [x for flag, path in paths.items() for x in (flag, str(path))]
        if option != "--out":
            paths["--out"].write_text("before\n")
        before = sorted(tmp_path.iterdir())
        code, doc, err = run(capsys, *argv, *outputs)
        assert (code, doc) == (1, None)
        assert err == f"error: [Errno 2] No such file or directory: '{paths[option]}'\n"
        assert sorted(tmp_path.iterdir()) == before
        if option != "--out":
            assert paths["--out"].read_text() == "before\n"

    @pytest.mark.parametrize("option", ["--out", "--trace", "--dot"])
    def test_apply(self, capsys, files, tmp_path, option):
        paths = {"--out": tmp_path / "H.json", "--trace": tmp_path / "H.trace.json", "--dot": tmp_path / "H.dot"}
        argv = ["apply", files["delete_x"], files["host"]]
        self.assert_fails_leaving_nothing(capsys, tmp_path, argv, paths, option)

    @pytest.mark.parametrize("option", ["--out", "--report", "--dot"])
    def test_commute(self, capsys, files, tmp_path, option):
        paths = {"--out": tmp_path / "Gp.json", "--report": tmp_path / "Gp.report.json", "--dot": tmp_path / "Gp.dot"}
        argv = ["commute", files["delete_x"], files["create_c"], files["host"], "--match1", "0", "--match2", "0"]
        self.assert_fails_leaving_nothing(capsys, tmp_path, argv, paths, option)

    @pytest.mark.parametrize("existed", [True, False], ids=["out-existed", "no-out-before"])
    def test_a_failed_second_move_puts_the_first_back(self, capsys, files, tmp_path, monkeypatch, existed):
        out, trace = tmp_path / "H.json", tmp_path / "H.trace.json"
        if existed:
            out.write_bytes(b"before\n")
        before = sorted(tmp_path.iterdir())
        moves, replace = [], os.replace

        def full_disk_on_second_move(src, dst):
            moves.append(dst)
            if len(moves) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", full_disk_on_second_move)
        code, doc, err = run(capsys, "apply", files["delete_x"], files["host"], "--out", str(out))
        assert (code, doc) == (1, None)
        assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{trace}'\n"
        assert moves == [str(out), str(trace)]
        assert sorted(tmp_path.iterdir()) == before
        if existed:
            assert out.read_bytes() == b"before\n"

    # an output path that names an existing directory is refused the same
    # way, before any output is written, and the directory stays empty

    @staticmethod
    def assert_refused_before_writing(capsys, tmp_path, argv, paths, option):
        paths[option] = tmp_path / "directory"
        paths[option].mkdir()
        outputs = [x for flag, path in paths.items() for x in (flag, str(path))]
        if option != "--out":
            paths["--out"].write_text("before\n")
        before = sorted(tmp_path.iterdir())
        code, doc, err = run(capsys, *argv, *outputs)
        assert (code, doc) == (1, None)
        assert err == f"error: [Errno 21] Is a directory: '{paths[option]}'\n"
        assert sorted(tmp_path.iterdir()) == before
        assert list(paths[option].iterdir()) == []
        if option != "--out":
            assert paths["--out"].read_text() == "before\n"

    @pytest.mark.parametrize("option", ["--out", "--trace", "--dot"])
    def test_apply_onto_a_directory(self, capsys, files, tmp_path, option):
        paths = {"--out": tmp_path / "H.json", "--trace": tmp_path / "H.trace.json", "--dot": tmp_path / "H.dot"}
        argv = ["apply", files["delete_x"], files["host"]]
        self.assert_refused_before_writing(capsys, tmp_path, argv, paths, option)

    @pytest.mark.parametrize("option", ["--out", "--report", "--dot"])
    def test_commute_onto_a_directory(self, capsys, files, tmp_path, option):
        paths = {"--out": tmp_path / "Gp.json", "--report": tmp_path / "Gp.report.json", "--dot": tmp_path / "Gp.dot"}
        argv = ["commute", files["delete_x"], files["create_c"], files["host"], "--match1", "0", "--match2", "0"]
        self.assert_refused_before_writing(capsys, tmp_path, argv, paths, option)

    @pytest.mark.parametrize("verb", ["apply", "commute"])
    def test_out_with_an_empty_name(self, capsys, files, tmp_path, monkeypatch, verb):
        # "." has no name to derive the trace or report path from
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        if verb == "apply":
            argv = ["apply", files["delete_x"], files["host"]]
        else:
            argv = ["commute", files["delete_x"], files["create_c"], files["host"], "--match1", "0", "--match2", "0"]
        code, doc, err = run(capsys, *argv, "--out", ".")
        assert (code, doc) == (1, None)
        assert err == "error: [Errno 21] Is a directory: '.'\n"
        assert sorted(tmp_path.iterdir()) == before


class TestOutputsNamingOneFile:
    """Two outputs that resolve to one file exit 1 before anything is
    written: neither would hold what its option promises."""

    @staticmethod
    def assert_refused(capsys, tmp_path, monkeypatch, argv, out, option, other):
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        code, doc, err = run(capsys, *argv, "--out", out, option, other)
        assert (code, doc) == (1, None)
        assert err == f"error: outputs {out} and {other} name one file\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("option, other", [("--trace", "./H.json"), ("--dot", "H.json")])
    def test_apply(self, capsys, files, tmp_path, monkeypatch, option, other):
        argv = ["apply", files["delete_x"], files["host"]]
        self.assert_refused(capsys, tmp_path, monkeypatch, argv, "H.json", option, other)

    @pytest.mark.parametrize("option, other", [("--report", "G.json"), ("--dot", "./G.json")])
    def test_commute(self, capsys, files, tmp_path, monkeypatch, option, other):
        argv = ["commute", files["delete_x"], files["create_c"], files["host"], "--match1", "0", "--match2", "0"]
        self.assert_refused(capsys, tmp_path, monkeypatch, argv, "G.json", option, other)


class TestUsageErrors:
    """A usage error exits 1, not argparse's 2, which is the dangling
    condition's code, and prints argparse's usage and message unchanged."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["apply", "x.json"],
            ["apply", "r.json", "g.json", "--out", "o.json", "--match-index", "zz"],
            ["frob"],
            [],
        ],
    )
    def test_exits_1_with_argparses_message(self, capsys, monkeypatch, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: dpo")
        # the same stderr as an unmodified argparse parser, which exits 2
        monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
        with pytest.raises(SystemExit) as stock:
            main(argv)
        assert stock.value.code == 2
        assert capsys.readouterr() == (out, err)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["apply", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dpo apply")

    def test_help_lists_the_seven_verbs(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{validate,iso,match,apply,check-square,independent,commute}" in out
        # each verb on one line with its description
        for verb, about in (
            ("validate", "validate a graph, rule or morphism file"),
            ("iso", "test two graph files for isomorphism"),
            ("match", "enumerate injective matches of a rule"),
            ("apply", "apply a rule at a match"),
            ("check-square", "check a square file as pushout or pullback"),
            ("independent", "test two derivations for parallel independence"),
            ("commute", "close the diamond of two independent derivations"),
        ):
            assert re.search(rf"^ +{verb} +{about}$", out, re.M), verb


class TestMainCalledRepeatedly:
    """``main`` may be called any number of times in one process: it builds
    its parser on the first call only, and each call's exit code, stdout,
    stderr and files are those of the call alone."""

    @staticmethod
    def outcome(capsys, argv: list[str], written: Path) -> tuple:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out, err = capsys.readouterr()
        return code, out, err, written.read_bytes() if written.exists() else None

    def test_repeats_give_the_same_codes_and_bytes(self, capsys, files, tmp_path):
        out = tmp_path / "Gp.json"
        commute = ["commute", files["create_c"], files["create_c"], files["host"],
                   "--match1", "0", "--match2", "0", "--out", str(out)]
        calls = [
            ["validate", files["host"], "--frob"],
            ["--help"],
            commute,
            ["apply", "--help"],
            ["validate", files["delete_x"], "--json"],
            ["apply", files["delete_a"], files["host"], "--out", str(tmp_path / "H.json")],
            ["frob"],
            [*commute, "--json"],
        ]
        first = []
        for argv in calls:
            out.unlink(missing_ok=True)
            first.append(self.outcome(capsys, argv, out))
        codes = [code for code, *_ in first]
        assert codes == [("SystemExit", 1), ("SystemExit", 0), 0, ("SystemExit", 0), 0, 2, ("SystemExit", 1), 0]
        assert first[2][3] == first[7][3] is not None and first[2][2] == "commuted; wrote " + str(out) + "\n"
        for _ in range(2):
            for argv, expected in zip(calls, first):
                out.unlink(missing_ok=True)
                assert self.outcome(capsys, argv, out) == expected, argv

    def test_the_parser_is_built_once(self, capsys, files):
        cli.build_parser.cache_clear()
        for _ in range(3):
            assert run(capsys, "validate", files["host"])[0] == 0
            with pytest.raises(SystemExit):
                main(["frob"])
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 5)
        assert cli.build_parser() is cli.build_parser()


class TestIso:
    def test_shuffled_copy_exits_0_with_a_witness_that_preserves_the_structure(self, capsys, tmp_path):
        rng = random.Random(5)
        g = random_graph(rng, 12, 20, min_nodes=12)
        nodes, edges = sorted(g.nodes), sorted(g.edges)
        h = renumber(g, dict(zip(nodes, rng.sample(range(100), len(nodes)))),
                     dict(zip(edges, rng.sample(range(100), len(edges)))))
        files = [write(tmp_path / name, io.graph_to_json(x)) for name, x in (("g.json", g), ("h.json", h))]
        code, doc, _ = run(capsys, "iso", *files)
        assert code == 0
        self.assert_bijective_witness(doc, g, h)

    def test_renumbered_copy_with_a_loop_and_mixed_parallel_edges_exits_0_with_a_witness(self, capsys, tmp_path):
        g_doc = {
            "nodes": [{"id": 0, "label": "a"}, {"id": 1, "label": "a"}, {"id": 2, "label": "b"}],
            "edges": [
                {"id": 0, "src": 0, "tgt": 1, "label": "x"}, {"id": 1, "src": 0, "tgt": 1, "label": "y"},
                {"id": 2, "src": 2, "tgt": 2, "label": "x"}, {"id": 3, "src": 1, "tgt": 2, "label": "y"},
            ],
        }
        # nodes 0, 1, 2 renumbered 5, 3, 7, and the entries out of id order
        h_doc = {
            "nodes": [{"id": 7, "label": "b"}, {"id": 3, "label": "a"}, {"id": 5, "label": "a"}],
            "edges": [
                {"id": 9, "src": 3, "tgt": 7, "label": "y"}, {"id": 4, "src": 5, "tgt": 3, "label": "y"},
                {"id": 6, "src": 7, "tgt": 7, "label": "x"}, {"id": 2, "src": 5, "tgt": 3, "label": "x"},
            ],
        }
        code, doc, _ = run(capsys, "iso", write(tmp_path / "g.json", g_doc), write(tmp_path / "h.json", h_doc))
        assert code == 0
        self.assert_bijective_witness(doc, io.graph_from_json(g_doc), io.graph_from_json(h_doc))

    @staticmethod
    def assert_bijective_witness(doc: dict, g, h) -> None:
        """``doc`` reports an isomorphism whose witness is a morphism from
        ``g`` onto ``h`` that is bijective on nodes and on edges."""
        assert doc["isomorphic"] is True
        witness = doc["witness"]
        m = Morphism(
            g, h,
            {int(k): v for k, v in witness["node_map"].items()},
            {int(k): v for k, v in witness["edge_map"].items()},
        )
        assert validate_morphism(m)
        assert sorted(m.fv.values()) == sorted(h.nodes) and sorted(m.fe.values()) == sorted(h.edges)

    def test_non_isomorphic_pair_exits_3_without_a_witness(self, capsys, files, tmp_path):
        # the host with its y-edge relabelled x
        other = write(tmp_path / "other.json", io.graph_to_json(
            graph({0: "a", 1: "a", 2: "b"}, {0: (0, 1, "x"), 1: (1, 2, "x")})
        ))
        code, doc, _ = run(capsys, "iso", files["host"], other)
        assert (code, doc) == (3, {"isomorphic": False, "witness": None})

    @pytest.mark.parametrize(
        "g, h", [(TWO_TRIANGLES, HEXAGON), (MIXED_PAIRS, PURE_PAIRS)], ids=["cycles", "parallel pairs"]
    )
    def test_pair_with_equal_signatures_exits_3_without_a_witness(self, capsys, tmp_path, g, h):
        # same node signatures and edge-label counts, not isomorphic
        files = [write(tmp_path / name, io.graph_to_json(x)) for name, x in (("g.json", g), ("h.json", h))]
        code, doc, _ = run(capsys, "iso", *files)
        assert (code, doc) == (3, {"isomorphic": False, "witness": None})


class TestInternalErrors:
    """An exception outside the engine's error classes exits 5 with
    ``error: internal: <class>: <message>`` and leaves no output behind."""

    def test_a_recursion_error_in_iso_exits_5(self, capsys, files, monkeypatch):
        # what is_isomorphic raises past the recursion limit, about 10^3 nodes
        def too_deep(g, h):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "is_isomorphic", too_deep)
        code, doc, err = run(capsys, "iso", files["host"], files["host"])
        assert (code, doc) == (5, None)
        assert err == "error: internal: RecursionError: maximum recursion depth exceeded\n"

    def test_a_writer_that_raises_leaves_no_output_or_temporary_file(self, capsys, files, tmp_path, monkeypatch):
        def broken(g):
            raise ValueError("cannot render")

        monkeypatch.setattr(io, "to_dot", broken)
        before = sorted(tmp_path.iterdir())
        out, dot = tmp_path / "H.json", tmp_path / "H.dot"
        code, doc, err = run(capsys, "apply", files["delete_x"], files["host"], "--out", str(out), "--dot", str(dot))
        assert (code, doc) == (5, None)
        assert err == "error: internal: ValueError: cannot render\n"
        assert sorted(tmp_path.iterdir()) == before


class TestRepeatedId:
    """A map whose keys spell one id twice is a format error, not a map on
    which the last spelling wins."""

    def test_validate_exits_1(self, capsys, tmp_path):
        one = io.graph_to_json(graph({0: "a", 1: "a"}))
        path = write(tmp_path / "m.json", {"fv": {"0": 0, "00": 1}, "fe": {}, "source": one, "target": one})
        code, doc, err = run(capsys, "validate", path)
        assert (code, doc) == (1, None)
        assert err == "error: 'fv' key '00' repeats id 0\n"

    def test_apply_with_such_a_match_file_exits_1(self, capsys, tmp_path):
        host_file = write(tmp_path / "host.json", io.graph_to_json(graph({0: "a", 1: "a"})))
        rule = write(tmp_path / "rule.json", io.rule_to_json(identity_rule(graph({0: "a"}))))
        match = write(tmp_path / "m.json", {"fv": {"0": 0, " 0": 1}, "fe": {}})
        code, doc, err = run(capsys, "apply", rule, host_file, "--match", match, "--out", str(tmp_path / "H.json"))
        assert (code, doc) == (1, None)
        assert err == f"error: {match}: 'fv' key ' 0' repeats id 0\n"
        assert not (tmp_path / "H.json").exists()


class TestRuleCheckedOncePerFile:
    """Each rule file is checked once, when its rule is built; applying the
    rule checks it no more."""

    @pytest.fixture
    def calls(self, monkeypatch, files) -> list:
        calls, original = [], rewriting.validate_rule

        def counting(*parts):
            calls.append(parts)
            return original(*parts)

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "dpo"]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
        return calls

    @pytest.fixture
    def reads(self, monkeypatch) -> Counter:
        reads, original = Counter(), io.load_json

        def counting(path):
            reads[str(path)] += 1
            return original(path)

        monkeypatch.setattr(io, "load_json", counting)
        return reads

    @staticmethod
    def argv(verb: str, rules: list[str], files, tmp_path) -> list[str]:
        if verb == "apply":
            return ["apply", *rules, files["host"], "--out", str(tmp_path / "H.json")]
        argv = [verb, *rules, files["host"], "--match1", "0", "--match2", "0"]
        return argv + ["--out", str(tmp_path / "Gp.json")] if verb == "commute" else argv

    @pytest.mark.parametrize("verb, count", [("apply", 1), ("independent", 2), ("commute", 2)])
    def test_validate_rule_runs_once_per_rule_file(self, capsys, files, tmp_path, calls, reads, verb, count):
        rules = [files["delete_x"], files["create_c"]][:count]
        code, _, _ = run(capsys, *self.argv(verb, rules, files, tmp_path))
        assert (code, len(calls)) == (0, count)
        assert [reads[rule] for rule in rules] == [1] * count

    @pytest.mark.parametrize("verb", ["independent", "commute"])
    def test_a_rule_file_given_as_both_rules_is_read_and_checked_once(self, capsys, files, tmp_path, calls, reads, verb):
        code, _, _ = run(capsys, *self.argv(verb, [files["create_c"]] * 2, files, tmp_path))
        assert (code, len(calls), reads[files["create_c"]]) == (0, 1, 1)


class TestSquareCheckedOncePerFile:
    """A square file's four legs are validated once each, when its square is
    built; neither check validates them again."""

    @pytest.mark.parametrize("mode", ["pushout", "pullback"])
    def test_check_square_validates_four_morphisms(self, capsys, tmp_path, monkeypatch, mode):
        calls, original = [], validate_morphism

        def counting(m):
            calls.append(m)
            return original(m)

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "dpo"]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
        square = write(tmp_path / "sq.json", square_doc(extra_target_node=False))
        code, _, _ = run(capsys, "check-square", square, "--mode", mode)
        assert (code, len(calls)) == (0, 4)


def write_corpus(out: Path, seed: int, graphs: int = 4, rules: int = 2) -> dict[str, bytes]:
    """The corpus the removed ``dpo gen`` verb wrote: ``graphs`` random graphs,
    then ``rules`` random rules, all drawn from one ``random.Random(seed)`` and
    each saved with :func:`io.save_json`. Returns each file's bytes by name."""
    rng = random.Random(seed)
    out.mkdir()
    docs = {f"graph_{i}.json": io.graph_to_json(random_graph(rng)) for i in range(graphs)}
    docs.update({f"rule_{i}.json": io.rule_to_json(random_rule(rng)) for i in range(rules)})
    for name, doc in docs.items():
        io.save_json(doc, out / name)
    return {name: (out / name).read_bytes() for name in docs}


class TestGen:
    # the sha256 of every file of two seeded corpora, recorded when the
    # generators were still in the package behind a ``dpo gen`` verb
    SHA256 = {
        (0, 4, 2): {
            "graph_0.json": "efcf9a26a9f532b711e6c289c02e76e1a93c8b2f5bf8cdda603f9c3ad4e9c0be",
            "graph_1.json": "a4d68cf19a380cb3f8ad1f37fb9f3604c0167716c53c1f10df899387dfa365b9",
            "graph_2.json": "3970797c9134879f19ed12525faaf714b884459ded8b2dffb4375ce3d7a7b8b8",
            "graph_3.json": "16e1922e778015c4490f6595b14e8db08f9f8281059cd5b8ea4c0c81faf10d80",
            "rule_0.json": "155da3efa8f28f18c67bfd493df3123e22a0d3129fc70f2713461bc435247f6d",
            "rule_1.json": "75c849ce320508ead13c4ede4da3b51cec8b80adfe69504e2ba5967e9b3e084a",
        },
        (7, 6, 4): {
            "graph_0.json": "205adce4e9b2090793957f3e113857d54b5bde8a712d8f4786b30fa6860f6350",
            "graph_1.json": "8657af7032f150516a7289bb7774205e2eecad747573c5404fd3c01107f18fe0",
            "graph_2.json": "e658e52f6ec507c676ec585e470708f189ae355c455a86789c7ecb4014cb68e3",
            "graph_3.json": "8657af7032f150516a7289bb7774205e2eecad747573c5404fd3c01107f18fe0",
            "graph_4.json": "3a82037ad5d6c51267fc7729d81898ba4fbb43652f60e7ffeaff3b1f622253fb",
            "graph_5.json": "ff45a2ae23f1528200d2af7cc446439b69fa59e3cb855ee8a1254739b7e9e978",
            "rule_0.json": "fda90271ea38c8364ace4b2bac14def636b913d414659757aa3320f54f05c5da",
            "rule_1.json": "e333d7b226dc4ef32e4a59f224648e92abc994998853157ebeaa7b47d3ffccdb",
            "rule_2.json": "6af56d7147c1e8894e24c04c1c83f4e446c698b01742ffc6e34f65631baa9fe6",
            "rule_3.json": "98b9fcac7911e20b6c74d9ac4cf8d2f35dfd9194fc8ef97b705b44c0c3fb6818",
        },
    }

    @pytest.mark.parametrize("corpus", list(SHA256), ids=["seed-0", "seed-7-larger"])
    def test_seeded_corpus_bytes_are_pinned(self, tmp_path, corpus):
        written = write_corpus(tmp_path / "corpus", *corpus)
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in written.items()}
        assert digests == self.SHA256[corpus]

    def test_one_seed_writes_the_same_bytes_twice_and_every_file_validates(self, capsys, tmp_path):
        runs = [write_corpus(tmp_path / name, 7) for name in ("first", "second")]
        assert runs[0] == runs[1]
        assert sorted(runs[0]) == [f"graph_{i}.json" for i in range(4)] + [f"rule_{i}.json" for i in range(2)]
        for name in runs[0]:
            code, doc, _ = run(capsys, "validate", str(tmp_path / "first" / name))
            assert (code, doc["kind"], doc["ok"]) == (0, name.split("_")[0], True)

    def test_gen_is_a_usage_error_that_writes_nothing(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--seed", "0", "--out", str(tmp_path / "corpus"), "--json"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and "dpo: error: argument verb: invalid choice: 'gen'" in err
        assert list(tmp_path.iterdir()) == []


def indented(text: str) -> str:
    """``text`` re-rendered as ``json.dump(indent=2, sort_keys=True)`` and
    a newline render the document it holds."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestOutputBytes:
    """Every file and report the CLI writes is exactly the standard
    library's ``indent=2, sort_keys=True`` rendering of its document."""

    def test_apply_result_and_trace(self, capsys, files, tmp_path):
        out = tmp_path / "H.json"
        assert main(["apply", files["delete_x"], files["host"], "--out", str(out), "--json"]) == 0
        stdout, _ = capsys.readouterr()
        for text in (stdout, out.read_text(), (tmp_path / "H.trace.json").read_text()):
            assert text == indented(text)

    def test_commute_result_and_report(self, capsys, files, tmp_path):
        out = tmp_path / "Gp.json"
        argv = ["commute", files["delete_x"], files["create_c"], files["host"], "--match1", "0", "--match2", "0"]
        assert main([*argv, "--out", str(out), "--json"]) == 0
        stdout, _ = capsys.readouterr()
        for text in (stdout, out.read_text(), (tmp_path / "Gp.report.json").read_text()):
            assert text == indented(text)

    def test_apply_bytes_are_pinned(self, capsys, files, tmp_path):
        # both delta blocks non-empty; the fresh ids reuse the deleted ones
        out = tmp_path / "H.json"
        assert main(["apply", files["swap_b"], files["host"], "--out", str(out), "--json"]) == 0
        trace = json.loads((tmp_path / "H.trace.json").read_text())
        assert (trace["deleted"], trace["created"]) == (
            {"nodes": [2], "edges": [1]},
            {"nodes": {"1": 2}, "edges": {"0": 1}},
        )
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, tmp_path / "H.trace.json")}
        assert digests == {
            "H.json": "e6957e952162f0a46a2b008fd84c3d270fabfffe5eda24c5cda1d39ea82f730d",
            "H.trace.json": "3d3117cbd8d52527cf0796ea5ff20d5c924aff37c5846d160c4cf60f98928e1a",
        }

    def test_apply_dot_bytes_escape_quotes_and_backslashes(self, capsys, files, tmp_path):
        # after the isolated a-node is deleted: two parallel edges, one loop
        host = write(tmp_path / "quoted.json", io.graph_to_json(graph(
            {0: 'a"b', 1: "c\\", 2: "a"},
            {0: (0, 1, "x"), 1: (0, 1, 'x"y'), 2: (1, 1, "\\")},
        )))
        dot = tmp_path / "H.dot"
        argv = ["apply", files["delete_a"], host, "--out", str(tmp_path / "H.json"), "--dot", str(dot), "--json"]
        assert main(argv) == 0
        assert dot.read_bytes() == (
            b"digraph G {\n"
            b'  n0 [label="0:a\\"b"];\n'
            b'  n1 [label="1:c\\\\"];\n'
            b'  n0 -> n1 [label="0:x"];\n'
            b'  n0 -> n1 [label="1:x\\"y"];\n'
            b'  n1 -> n1 [label="2:\\\\"];\n'
            b"}\n"
        )

    def test_apply_and_commute_dot_bytes_escape_lone_surrogates(self, capsys, files, tmp_path):
        # JSON's "\ud800" escape loads as a lone surrogate, which UTF-8 cannot
        # encode; the DOT text spells it as the six characters \ud800
        host = write(tmp_path / "surrogate.json", io.graph_to_json(graph(
            {0: "\ud800", 1: "a", 2: "b\u00e9"},
            {0: (0, 2, "x\udfff"), 1: (0, 0, "y")},
        )))
        assert b'"\\ud800"' in Path(host).read_bytes()
        apply_dot, commute_dot = tmp_path / "H.dot", tmp_path / "Gp.dot"
        argv = ["apply", files["delete_a"], host, "--out", str(tmp_path / "H.json"), "--dot", str(apply_dot), "--json"]
        assert main(argv) == 0
        assert apply_dot.read_bytes() == (
            b"digraph G {\n"
            b'  n0 [label="0:\\ud800"];\n'
            b'  n2 [label="2:b\xc3\xa9"];\n'
            b'  n0 -> n2 [label="0:x\\udfff"];\n'
            b'  n0 -> n0 [label="1:y"];\n'
            b"}\n"
        )
        argv = ["commute", files["delete_a"], files["create_c"], host, "--match1", "0", "--match2", "0"]
        assert main([*argv, "--out", str(tmp_path / "Gp.json"), "--dot", str(commute_dot), "--json"]) == 0
        assert commute_dot.read_bytes() == (
            b"digraph G {\n"
            b'  n0 [label="0:\\ud800"];\n'
            b'  n2 [label="2:b\xc3\xa9"];\n'
            b'  n3 [label="3:c"];\n'
            b'  n0 -> n2 [label="0:x\\udfff"];\n'
            b'  n0 -> n0 [label="1:y"];\n'
            b"}\n"
        )

    def test_commute_dot_bytes_are_pinned(self, capsys, files, tmp_path):
        # G' of deleting the x-edge and creating a c-node
        dot = tmp_path / "Gp.dot"
        argv = ["commute", files["delete_x"], files["create_c"], files["host"], "--match1", "0", "--match2", "0"]
        assert main([*argv, "--out", str(tmp_path / "Gp.json"), "--dot", str(dot), "--json"]) == 0
        assert dot.read_bytes() == (
            b"digraph G {\n"
            b'  n0 [label="0:a"];\n'
            b'  n1 [label="1:a"];\n'
            b'  n2 [label="2:b"];\n'
            b'  n3 [label="3:c"];\n'
            b'  n1 -> n2 [label="1:y"];\n'
            b"}\n"
        )

    def test_match_stdout(self, capsys, files, tmp_path):
        host = write(tmp_path / "x_edges.json", io.graph_to_json(x_edges_host()))
        assert main(["match", files["delete_x"], host, "--json"]) == 0
        stdout, _ = capsys.readouterr()
        assert json.loads(stdout)["count"] == 3
        assert stdout == indented(stdout)

    @pytest.mark.parametrize("verb", ["iso", "independent"])
    def test_iso_and_independent_stdout(self, capsys, files, verb):
        if verb == "iso":
            argv = ["iso", files["host"], files["host"]]
        else:
            argv = [verb, files["delete_x"], files["create_c"], files["host"], "--match1", "0", "--match2", "0"]
        assert main([*argv, "--json"]) == 0
        stdout, _ = capsys.readouterr()
        assert stdout == indented(stdout)


class TestSparseIdsAndEscapedLabels:
    """A host with sparse ids and labels that need escaping in JSON goes
    through ``apply --match-index`` and ``commute`` by match indices: every
    file written is the standard rendering of its own document, and the
    apply trace, which both deletes and creates, replays to the result."""

    Q, X = 'q"\\é\t', 'x"\\é\t'

    def host(self):
        return graph({3: "a", 10: "a", 25: self.Q}, {7: (3, 25, self.X), 12: (25, 25, "é")})

    def reverse_escaped_edge(self) -> Rule:
        """Delete the escaped x-edge and create one the other way, labelled é."""
        k = graph({0: "a", 1: self.Q})
        l = graph({0: "a", 1: self.Q}, {0: (0, 1, self.X)})
        r = graph({0: "a", 1: self.Q}, {0: (1, 0, "é")})
        return Rule(L=l, K=k, R=r, b=Morphism(k, l, {0: 0, 1: 1}, {}), r=Morphism(k, r, {0: 0, 1: 1}, {}))

    @staticmethod
    def add_loop() -> Rule:
        a, loop = graph({0: "a"}), graph({0: "a"}, {0: (0, 0, "y")})
        return Rule(L=a, K=a, R=loop, b=identity(a), r=Morphism(a, loop, {0: 0}, {}))

    def test_every_file_is_the_standard_rendering_and_the_trace_replays(self, capsys, tmp_path):
        host_doc = io.graph_to_json(self.host())
        host = write(tmp_path / "host.json", host_doc)
        reverse = write(tmp_path / "reverse.json", io.rule_to_json(self.reverse_escaped_edge()))
        add_loop = write(tmp_path / "add_loop.json", io.rule_to_json(self.add_loop()))
        applied, commuted = tmp_path / "applied.json", tmp_path / "commuted.json"
        stdouts = []
        for argv in (
            ["apply", reverse, host, "--match-index", "0", "--out", str(applied)],
            ["commute", add_loop, add_loop, host, "--match1", "0", "--match2", "1", "--out", str(commuted)],
        ):
            assert main([*argv, "--json"]) == 0
            stdouts.append(capsys.readouterr().out)
        written = ["applied.json", "applied.trace.json", "commuted.json", "commuted.report.json"]
        inputs = ["host.json", "reverse.json", "add_loop.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*inputs, *written])
        for text in (*stdouts, *((tmp_path / name).read_text(encoding="utf-8") for name in written)):
            assert text == indented(text)

        trace = json.loads((tmp_path / "applied.trace.json").read_text())
        assert trace["deleted"] == {"nodes": [], "edges": [7]} and trace["created"]["edges"]
        assert replay(host_doc, trace) == json.loads(applied.read_text())
        # the loops land on the a-nodes 3 and 10, and every host item is kept
        Gp = json.loads(commuted.read_text())
        assert Gp["nodes"] == host_doc["nodes"]
        assert [e for e in Gp["edges"] if e["id"] in (7, 12)] == host_doc["edges"]
        assert sorted((e["src"], e["tgt"], e["label"]) for e in Gp["edges"] if e["id"] not in (7, 12)) == [
            (3, 3, "y"), (10, 10, "y"),
        ]


def test_graph_submodule_is_not_shadowed():
    import dpo.graph

    assert isinstance(dpo.graph, types.ModuleType)


def test_package_imports_only_itself_and_the_standard_library():
    # pyproject.toml declares no runtime dependency
    foreign = []
    for path in sorted(Path(dpo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names if name.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


@pytest.mark.parametrize("module", ["dpo", "dpo.cli"])
def test_package_runs_as_a_module(module, files):
    env = dict(os.environ)
    src = str(Path(dpo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", module, "validate", files["host"], "--json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"kind": "graph", "ok": True, "violations": []}
