"""JSON text formats for graphs, morphisms, rules and squares, plus DOT export.

Graph documents look like::

    {"nodes": [{"id": 0, "label": "a"}, ...],
     "edges": [{"id": 0, "src": 0, "tgt": 1, "label": "x"}, ...]}

Morphism documents carry the two maps with string keys (JSON objects), and
may reference their endpoint graphs by relative path when stored standalone::

    {"fv": {"0": 3}, "fe": {"0": 1}, "source": "K.json", "target": "L.json"}

Rule documents embed their three graphs and two morphisms inline; square
documents list the four corner graphs and four morphisms either inline or by
relative path.

Every check returns a :class:`~dpo.graph.CheckReport`, written in three
shapes: ``dpo validate``'s ``violations``, each a ``clause`` and its
``item`` as text (``"node 3"``); the first violation's ``verdict``,
``failed_clause`` and ``counterexample`` (:func:`check_report_to_json`), for
``check-square`` and the square checks of a trace or a ``commute`` report;
and ``dpo independent``'s ``blocked``, each a ``triangle`` and an ``item``.

The loaders return only well-formed objects: every graph
:func:`load_graph` or :func:`load_square` reads passes
:func:`~dpo.graph.validate_graph`, every rule and square is checked once,
when it is built (see :class:`~dpo.rewriting.Rule`, and
:class:`~dpo.diagrams.Square`, which validates its four legs), and every
match file passes :func:`~dpo.morphism.validate_morphism`
(:func:`load_morphism`). Anything else raises :class:`FormatError` naming
the file (``<path>: ...``, or ``<path> '<key>': ...`` for a square's
inline corner or leg) and the first violation, whose clause and item its
report carries on; so does, as a clause alone, a file that cannot be
read, is not UTF-8, is not JSON or nests too deeply to decode. Only
``dpo validate`` reads documents past these checks, to report every
violation; it reads one file, so only a content error in a graph that a
morphism document references names a file.

Every document is written as ``json.dump(doc, fh, indent=2,
sort_keys=True)`` and a newline (:func:`write_json`). A result graph, the
one document as large as the host, is written with the same bytes by
:func:`save_graph`, a row template at a time over columns taken from the
graph's edge map. The readers work a column at a time in C-level calls
(``map``, ``itemgetter``, ``set``) on the shapes these formats use: records
with type-uniform fields and maps of plain integers. An edge record's
``src``, ``tgt`` and ``label`` columns are zipped into the ``(src, tgt,
label)`` values of the edge map. An input that fails a column test goes to
readers that check entry by entry and name the first bad entry, with the
same result and the same error.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

from .diagrams import Square
from .errors import FormatError, PreconditionError
from .graph import PASSED, CheckReport, Graph, IsoWitness, ends_are_nodes, validate_graph
from .morphism import Morphism, validate_morphism
from .rewriting import DirectDerivation, Rule


def graph_to_json(g: Graph) -> dict:
    return {
        "nodes": [{"id": v, "label": g.nlabel[v]} for v in sorted(g.nodes)],
        "edges": [
            {"id": e, "src": s, "tgt": t, "label": label}
            for e in sorted(g.edges)
            for s, t, label in [g.edge[e]]
        ],
    }


def graph_from_json(doc: Any) -> Graph:
    """The graph of a graph document, or :class:`FormatError` naming the
    first bad entry.

    The fast path takes each field as a column (``list(map(itemgetter(k),
    entries))``) and decides validity with C-level tests over whole columns:
    every id and endpoint a plain non-negative ``int``, every label a
    ``str``, no id twice. If any test fails, :func:`_checked_graph` walks the
    entries in order, so the error raised and its message are the same as
    with the loop alone.
    """
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise FormatError("graph document must be an object with a 'nodes' array")
    node_entries, edge_entries = doc["nodes"], doc.get("edges", [])
    if _records(node_entries) and _records(edge_entries):
        try:
            ids, labels = _columns(node_entries, "id", "label")
            eids, srcs, tgts, elabels = _columns(edge_entries, "id", "src", "tgt", "label")
        except KeyError:
            pass
        else:
            if all(map(_naturals, (ids, eids, srcs, tgts))) and _strings(labels) and _strings(elabels):
                nlabel = dict(zip(ids, labels))
                edge = dict(zip(eids, zip(srcs, tgts, elabels)))
                if len(nlabel) == len(ids) and len(edge) == len(eids):
                    return Graph.from_maps(nlabel, edge)
    return _checked_graph(doc)


def _records(entries: Any) -> bool:
    return type(entries) is list and set(map(type, entries)) <= {dict}


def _columns(entries: list, *keys: str) -> list[list]:
    """One list per key, of that key's value in every entry; ``KeyError``
    if an entry lacks one."""
    return [list(map(itemgetter(key), entries)) for key in keys]


def _naturals(column: list) -> bool:
    return set(map(type, column)) <= {int} and min(column, default=0) >= 0


def _strings(column: list) -> bool:
    return set(map(type, column)) <= {str}


def _checked_graph(doc: dict) -> Graph:
    """The entry-by-entry reader behind :func:`graph_from_json`: it raises
    :class:`FormatError` for the first bad entry, in document order."""
    nodes: dict[int, str] = {}
    for entry in _array(doc["nodes"], "nodes"):
        v = _ident(entry, "id", "node")
        if v in nodes:
            raise FormatError(f"duplicate node id {v}")
        nodes[v] = _label(entry, "node")
    edge: dict[int, tuple[int, int, str]] = {}
    for entry in _array(doc.get("edges", []), "edges"):
        e = _ident(entry, "id", "edge")
        if e in edge:
            raise FormatError(f"duplicate edge id {e}")
        edge[e] = (_ident(entry, "src", "edge"), _ident(entry, "tgt", "edge"), _label(entry, "edge"))
    return Graph.from_maps(nodes, edge)


def _array(value: Any, key: str) -> list:
    if not isinstance(value, list):
        raise FormatError(f"graph '{key}' must be an array")
    return value


def _ident(entry: Any, key: str, kind: str) -> int:
    if not isinstance(entry, dict) or key not in entry:
        raise FormatError(f"{kind} entry missing '{key}'")
    value = entry[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise FormatError(f"{kind} '{key}' must be a non-negative integer, got {value!r}")
    return value


def _label(entry: dict, kind: str) -> str:
    value = entry.get("label")
    if not isinstance(value, str):
        raise FormatError(f"{kind} 'label' must be a string, got {value!r}")
    return value


def morphism_to_json(m: Morphism) -> dict:
    return {
        "fv": {str(v): m.fv[v] for v in m.source.nodes},
        "fe": {str(e): m.fe[e] for e in m.source.edges},
    }


def morphism_from_json(doc: Any, source: Graph, target: Graph) -> Morphism:
    if not isinstance(doc, dict) or "fv" not in doc or "fe" not in doc:
        raise FormatError("morphism document must be an object with 'fv' and 'fe'")
    return Morphism(source, target, _intmap(doc["fv"], "fv"), _intmap(doc["fe"], "fe"))


def _intmap(obj: Any, name: str) -> dict[int, int]:
    """A morphism map with string keys read as ``int`` keys.

    The fast path converts all keys with one ``list(map(int, obj))`` and
    accepts the map when keys and values pass C-level column tests (plain
    non-negative ``int`` values, non-negative keys, no id spelled twice, as
    ``"0"`` and ``"00"`` would be). Otherwise the loop below checks entry by
    entry and raises :class:`FormatError` for the first bad one, with the
    same message as the loop alone.
    """
    if not isinstance(obj, dict):
        raise FormatError(f"'{name}' must be an object")
    try:
        keys = list(map(int, obj))
    except (TypeError, ValueError, OverflowError):
        pass
    else:
        values = list(obj.values())
        if _naturals(values) and min(keys, default=0) >= 0:
            out = dict(zip(keys, values))
            if len(out) == len(obj):
                return out
    out = {}
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


def rule_to_json(rule: Rule) -> dict:
    return {
        "L": graph_to_json(rule.L),
        "K": graph_to_json(rule.K),
        "R": graph_to_json(rule.R),
        "b": morphism_to_json(rule.b),
        "r": morphism_to_json(rule.r),
    }


def rule_parts_from_json(doc: Any) -> tuple[Graph, Graph, Graph, Morphism, Morphism]:
    """``L, K, R, b, r`` of a rule document, unchecked, for ``dpo validate``."""
    if not isinstance(doc, dict):
        raise FormatError("rule document must be an object")
    for key in ("L", "K", "R", "b", "r"):
        if key not in doc:
            raise FormatError(f"rule document missing '{key}'")
    L = graph_from_json(doc["L"])
    K = graph_from_json(doc["K"])
    R = graph_from_json(doc["R"])
    return L, K, R, morphism_from_json(doc["b"], K, L), morphism_from_json(doc["r"], K, R)


def check_report_to_json(report: CheckReport) -> dict:
    return {
        "verdict": bool(report),
        "failed_clause": report.failed_clause,
        "counterexample": list(report.counterexample) if report.counterexample else None,
    }


def iso_witness_to_json(witness: IsoWitness) -> dict:
    return {
        "node_map": {str(k): v for k, v in witness.node_map.items()},
        "edge_map": {str(k): v for k, v in witness.edge_map.items()},
    }


def load_json(path: str | Path) -> Any:
    try:
        fh = open(path, encoding="utf-8")
    except (OSError, ValueError) as exc:
        # ValueError: a path with an embedded null byte
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        with fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, an over-long integer, or
        # nesting deeper than the interpreter's recursion limit
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def save_json(doc: Any, path: str | Path) -> None:
    """Write ``doc`` to ``path`` as :func:`write_json` renders it."""
    with open(path, "w", encoding="utf-8") as fh:
        write_json(doc, fh)


def write_json(doc: Any, fh: TextIO) -> None:
    """Write ``json.dump(doc, fh, indent=2, sort_keys=True)`` and a newline:
    the one text form of every document, for :func:`save_json` and the
    CLI's stdout reports alike."""
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")


def save_graph(g: Graph, path: str | Path) -> None:
    """Write ``g`` to ``path`` as the bytes of ``save_json(graph_to_json(g),
    path)``: one row template per item kind, formatted over columns of the
    graph's maps in ascending id order and streamed row by row, so no
    document or string the size of ``g`` is built."""
    node_rows, edge_rows = sorted(g.nlabel.items()), sorted(g.edge.items())
    nodes, edges = list(map(itemgetter(0), node_rows)), list(map(itemgetter(0), edge_rows))
    quoted = json.encoder.encode_basestring_ascii
    ends = list(map(itemgetter(1), edge_rows))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "edges": ')
        _rows(
            fh,
            ',\n    {{\n      "id": {},\n      "label": {},\n      "src": {},\n      "tgt": {}\n    }}',
            edges,
            map(quoted, map(itemgetter(2), ends)),
            map(itemgetter(0), ends),
            map(itemgetter(1), ends),
        )
        fh.write(',\n  "nodes": ')
        _rows(fh, ',\n    {{\n      "id": {},\n      "label": {}\n    }}', nodes, map(quoted, map(itemgetter(1), node_rows)))
        fh.write("\n}\n")


def _rows(fh: TextIO, template: str, ids: list[int], *columns: Iterable) -> None:
    """The ``nodes`` or ``edges`` list: one ``template`` row per id, each
    starting with the ``,`` separator that the first row drops."""
    if not ids:
        fh.write("[]")
        return
    rows = map(template.format, ids, *columns)
    fh.write("[" + next(rows)[1:])
    fh.writelines(rows)
    fh.write("\n  ]")


def load_graph(path: str | Path) -> Graph:
    doc = load_json(path)
    with _named(path):
        return _well_formed(graph_from_json(doc))


@contextmanager
def _named(where: str | Path) -> Iterator[None]:
    """Re-raise a :class:`FormatError` or :class:`PreconditionError` about
    a document's content as a :class:`FormatError` that starts with
    ``where``; the block reads no file, so no message is named twice."""
    try:
        yield
    except (FormatError, PreconditionError) as exc:
        raise FormatError(f"{where}: {exc.report.failed_clause}", exc.report.counterexample) from exc


def _well_formed(g: Graph) -> Graph:
    """``g``, if every edge ends at nodes of ``g``; else :class:`FormatError`
    naming the first :func:`validate_graph` violation. Every graph a verb
    reads passes here. :class:`~dpo.graph.Graph` itself guarantees that its
    item sets are its maps' keys, and :func:`graph_from_json` that ids are
    non-negative, so :func:`~dpo.graph.ends_are_nodes` stands in for the
    full check."""
    if ends_are_nodes(g):
        return g
    report = validate_graph(g)
    raise FormatError(f"invalid graph: {report.failed_clause}", report.counterexample)


def _graph_at(doc: Any, key: str, path: str | Path, missing: str) -> Graph:
    """The graph ``doc[key]``, given inline or as a path relative to
    ``path``, the file ``doc`` was read from; :class:`FormatError` with the
    message ``missing`` if ``doc`` has no ``key``."""
    if not isinstance(doc, dict) or key not in doc:
        raise FormatError(missing)
    value = doc[key]
    if isinstance(value, str):
        return load_graph(Path(path).parent / value)
    with _named(f"{path} '{key}'"):
        return _well_formed(graph_from_json(value))


def load_rule(path: str | Path) -> Rule:
    """Load a rule file; parts that do not form a rule raise
    :class:`FormatError` naming the first violation :class:`Rule` found."""
    doc = load_json(path)
    with _named(path):
        return Rule(*rule_parts_from_json(doc))


def load_morphism(path: str | Path, source: Graph, target: Graph) -> Morphism:
    """Load a standalone morphism file between the given graphs, such as a
    match file; its 'source'/'target' references, if any, are not read. A
    map that is not a morphism raises :class:`FormatError` naming the first
    :func:`~dpo.morphism.validate_morphism` violation."""
    doc = load_json(path)
    with _named(path):
        m = morphism_from_json(doc, source, target)
        report = validate_morphism(m)
        if not report:
            raise FormatError(f"invalid morphism: {report.failed_clause}", report.counterexample)
        return m


def standalone_morphism(doc: Any, path: str | Path) -> Morphism:
    """The morphism a document read from ``path`` holds, between the graphs
    its 'source'/'target' path references name."""
    return morphism_from_json(doc, *(
        _graph_at(doc, key, path, f"morphism document has no '{key}' reference")
        for key in ("source", "target")
    ))


def load_square(path: str | Path) -> Square:
    """Load a square description: four corner graphs and four morphisms.

    Graph values and morphism values may be inline documents or strings,
    which are read as paths relative to the square file. All four legs are
    read first; then :class:`~dpo.diagrams.Square` checks them, and the
    first leg that is not a morphism, say a map that is partial, leaves its
    target or breaks a label or an endpoint, raises :class:`FormatError`
    naming the leg and its first violation.
    """
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: square document must be an object")
    graphs = {key: _graph_at(doc, key, path, f"{path}: square document missing graph '{key}'") for key in "ABCD"}

    def arrow(key: str) -> Morphism:
        if key not in doc:
            raise FormatError(f"{path}: square document missing morphism '{key}'")
        value = doc[key]
        if isinstance(value, str):
            value = load_json(Path(path).parent / value)
        with _named(f"{path} '{key}'"):
            return morphism_from_json(value, graphs[key[0].upper()], graphs[key[1].upper()])

    try:
        return Square(**{key: arrow(key) for key in ("ab", "ac", "bd", "cd")})
    except PreconditionError as exc:
        # "square 'bd': invalid morphism: ..." -> "<path> 'bd': invalid morphism: ..."
        raise FormatError(f"{path} {exc.report.failed_clause.removeprefix('square ')}", exc.report.counterexample) from exc


def derivation_trace_json(dd: DirectDerivation) -> dict:
    """The trace written next to a derivation's result: what it changed,
    in O(|L| + |K| + |R|). Fields: ``version`` (2); ``rule``, which holds
    ``b`` and ``r``; ``match``; ``deleted`` (host ``nodes`` and ``edges``,
    ascending) and ``created`` (maps from ``R``-ids to ``H``-ids), which are
    :attr:`~dpo.rewriting.DirectDerivation.delta`; ``comatch``; and both
    square checks, recorded as passed since :func:`~dpo.rewriting.apply`
    raises on a failing one. ``G`` minus ``deleted`` plus the created items
    is exactly ``H``.
    """
    passed = check_report_to_json(PASSED)
    deleted_nodes, deleted_edges, created_nodes, created_edges = dd.delta
    return {
        "version": 2,
        "rule": rule_to_json(dd.rule),
        "match": morphism_to_json(dd.match.m),
        "deleted": {"nodes": sorted(deleted_nodes), "edges": sorted(deleted_edges)},
        "created": {
            "nodes": {str(x): y for x, y in created_nodes.items()},
            "edges": {str(x): y for x, y in created_edges.items()},
        },
        "comatch": morphism_to_json(dd.comatch),
        "left_square_check": passed,
        "right_square_check": passed,
    }


def to_dot(g: Graph) -> str:
    """Render a graph in DOT syntax for external viewers. Labels are escaped
    as Graphviz strings: each backslash doubled and each quote escaped. The
    text is one UTF-8 can encode: a lone surrogate, which a JSON ``\\ud800``
    escape puts in a label, is written as the six characters ``\\ud800``."""
    escape = str.maketrans({"\\": "\\\\", '"': '\\"'})
    lines = ["digraph G {"]
    for v in sorted(g.nodes):
        lines.append(f'  n{v} [label="{v}:{g.nlabel[v].translate(escape)}"];')
    for e in sorted(g.edges):
        s, t, label = g.edge[e]
        lines.append(f'  n{s} -> n{t} [label="{e}:{label.translate(escape)}"];')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8", "backslashreplace").decode("utf-8")
