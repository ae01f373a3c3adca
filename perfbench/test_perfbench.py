"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import ast
import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import run
import tracing
from oracle import (
    Plain,
    count_injective_morphisms,
    iso_problems,
    isomorphic,
    morphism_problems,
    rewrite,
    same_graph,
)
from workloads import GROW, PATH_ABC, REWIRE, flipped, random_host, shuffled, unnamed_result_problems

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def smoke(capsys, workload: str, trace: int = 0, seed: int = 3) -> tuple[dict, list[str]]:
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--smoke"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_declared_metric(capsys, workload, trace):
    result, lines = smoke(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # the only failure today is the known RecursionError of is_isomorphic
    expected = {"RecursionError"} if workload == "match_search" else set()
    failed = [l for l in lines if l.startswith("failed ops by class")]
    assert {k for l in failed for k in ast.literal_eval(l.split(": ", 1)[1])} == expected


def test_traced_run_sees_only_the_layers_a_workload_calls(capsys):
    cli, _ = smoke(capsys, "cli_batch", trace=1)
    chain, _ = smoke(capsys, "rewrite_chain", trace=1)
    value = lambda r, k: r["metrics"][k]["value"]  # noqa: E731
    assert value(cli, "cli.main.calls") > 0 and value(cli, "io.save_json.calls") > 0
    assert value(cli, "io.bytes_written") > 0 and value(cli, "cli.out_bytes_per_op") > 0
    assert value(chain, "rewriting.apply.calls") > 0 and value(chain, "rewriting.apply.rejected") > 0
    for name in ("cli.main.calls", "io.load_json.calls", "morphism.enumerate_morphisms.calls"):
        assert value(chain, name) == 0
    for r in (cli, chain):
        for module, functions in tracing.TRACED.items():
            for f in functions:
                self_s, total_s = value(r, f"{module}.{f}.self_s"), value(r, f"{module}.{f}.total_s")
                assert -1e-9 <= self_s <= total_s + 1e-9


def test_tracer_restores_the_engine(capsys):
    smoke(capsys, "rewrite_chain", trace=1)
    import dpo.rewriting

    assert not hasattr(dpo.rewriting.apply, "__wrapped__")
    assert not hasattr(dpo.rewriting.deletion, "__wrapped__")


def test_same_seed_same_inputs():
    engine = run.load_engine()
    from workloads import CommuteDiamond, RewriteChain

    a = RewriteChain(engine, Random("rewrite_chain:7"), True, None)
    b = RewriteChain(engine, Random("rewrite_chain:7"), True, None)
    assert a.model == b.model
    pa = [op.kind for op in itertools.islice(CommuteDiamond(engine, Random("c:7"), True, None).round(), 3)]
    pb = [op.kind for op in itertools.islice(CommuteDiamond(engine, Random("c:7"), True, None).round(), 3)]
    assert pa == pb


def _corrupting(monkeypatch, corrupt):
    load = run.load_engine

    def patched():
        engine = load()
        corrupt(engine)
        return engine

    monkeypatch.setattr(run, "load_engine", patched)


def _mismatches(result, lines) -> int:
    assert result["correct"] is False
    return sum(l.startswith("mismatch:") for l in lines)


def test_checker_flags_a_dropped_match(capsys, monkeypatch):
    def corrupt(engine):
        find = engine.rewriting.find_matches
        engine.rewriting.find_matches = lambda rule, g: find(rule, g)[:-1]

    _corrupting(monkeypatch, corrupt)
    result, lines = smoke(capsys, "match_search")
    assert _mismatches(result, lines) and result["failed"] > 0


def test_checker_flags_a_wrong_rewrite_result(capsys, monkeypatch):
    def corrupt(engine):
        apply = engine.rewriting.apply

        def bad_apply(rule, match, *args):
            d = apply(rule, match, *args)
            H = d.gluing.H
            extra = max(H.nodes) + 1
            H2 = dataclasses.replace(H, nodes=H.nodes | {extra}, nlabel={**H.nlabel, extra: "a"})
            return dataclasses.replace(d, gluing=dataclasses.replace(d.gluing, H=H2))

        engine.rewriting.apply = bad_apply

    _corrupting(monkeypatch, corrupt)
    result, lines = smoke(capsys, "rewrite_chain")
    assert _mismatches(result, lines) and result["failed"] > 0


def test_checker_flags_a_wrong_exit_code(capsys, monkeypatch):
    def corrupt(engine):
        main = engine.cli.main
        engine.cli.main = lambda argv: 3 if argv[0] == "iso" else main(argv)

    _corrupting(monkeypatch, corrupt)
    result, lines = smoke(capsys, "cli_batch")
    assert _mismatches(result, lines)


def test_checker_flags_a_bad_iso_witness(capsys, monkeypatch):
    def corrupt(engine):
        # commute calls the name it imported into dpo.independence
        iso = engine.independence.is_isomorphic

        def bad(g, h):
            w = iso(g, h)
            if w is None:
                return None
            nodes = sorted(w.node_map)
            m = dict(w.node_map)
            m[nodes[0]], m[nodes[1]] = m[nodes[1]], m[nodes[0]]
            return dataclasses.replace(w, node_map=m)

        engine.independence.is_isomorphic = bad

    _corrupting(monkeypatch, corrupt)
    result, lines = smoke(capsys, "commute_diamond")
    assert _mismatches(result, lines)


def _brute_force_count(L: Plain, G: Plain) -> int:
    count = 0
    for image in itertools.permutations(G.nlabel, len(L.nlabel)):
        fv = dict(zip(L.nlabel, image))
        if any(G.nlabel[fv[v]] != l for v, l in L.nlabel.items()):
            continue
        for eimage in itertools.permutations(G.elabel, len(L.elabel)):
            fe = dict(zip(L.elabel, eimage))
            if not morphism_problems(L, G, fv, fe, "m", injective=True):
                count += 1
    return count


def test_networkx_count_agrees_with_brute_force_on_multigraphs():
    rng = Random(5)
    for _ in range(20):
        G = random_host(rng, 6)
        # parallel edges and loops must be counted edge by edge
        e = max(G.elabel) + 1
        G.src[e], G.tgt[e], G.elabel[e] = G.src[0], G.tgt[0], G.elabel[0]
        for L in (PATH_ABC, REWIRE.L, Plain.make({0: "a", 1: "a"}, {0: (0, 1, "x"), 1: (0, 1, "x")})):
            assert count_injective_morphisms(L, G) == _brute_force_count(L, G)


def test_isomorphism_oracle_and_witness_check():
    rng = Random(2)
    G = random_host(rng, 12)
    H = shuffled(rng, G)
    assert isomorphic(G, H)
    assert not isomorphic(G, flipped(rng, G))
    identity_v = {v: v for v in G.nlabel}
    identity_e = {e: e for e in G.elabel}
    assert iso_problems(G, G, identity_v, identity_e, "id") == []
    swapped = dict(identity_v)
    a = next(v for v in G.nlabel if G.nlabel[v] == "a")
    b = next(v for v in G.nlabel if G.nlabel[v] == "b")
    swapped[a], swapped[b] = b, a
    assert iso_problems(G, G, swapped, identity_e, "swap")


def test_rewrite_check_flags_a_dropped_edge_and_an_extra_node():
    G = Plain.make({0: "a", 1: "b", 2: "b"}, {0: (0, 1, "x"), 1: (1, 2, "y")})
    mv, me = {0: 0, 1: 1, 2: 2}, {0: 0}
    H, problems = rewrite(G, REWIRE, mv, me, {0: 0, 1: 1, 2: 2}, {0: 2})
    assert problems == [] and H.edge(2) == (0, 2, "x") and 0 not in H.elabel
    # a created edge may reuse the id of the edge the rule deleted
    _, problems = rewrite(G, REWIRE, mv, me, {0: 0, 1: 1, 2: 2}, {0: 0})
    assert problems == []
    _, problems = rewrite(G, REWIRE, mv, me, {0: 0, 1: 1, 2: 2}, {0: 1})
    assert problems  # id 1 is a kept edge
    dropped = H.copy()
    del dropped.src[1], dropped.tgt[1], dropped.elabel[1]
    assert same_graph(H, dropped, "H")
    assert unnamed_result_problems(G, [(REWIRE, mv, me)], H, "H") == []
    assert unnamed_result_problems(G, [(REWIRE, mv, me)], dropped, "H")
    extra = H.copy()
    extra.nlabel[9] = "b"
    assert unnamed_result_problems(G, [(REWIRE, mv, me)], extra, "H")
    grown = G.copy()
    grown.nlabel[3] = "b"
    grown.src[2], grown.tgt[2], grown.elabel[2] = 0, 3, "x"
    assert unnamed_result_problems(G, [(GROW, {0: 0}, {})], grown, "H") == []


def test_without_engine_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
