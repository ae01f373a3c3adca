"""The JSON boundary against its plain references in ``tests/oracles.py``.

``save_json`` must write the bytes of ``json.dump(indent=2, sort_keys=True)``
and a newline, pinned as literal bytes for two documents, and ``save_graph``
the bytes ``save_json`` writes for a graph's document, whatever its ids and
labels. The column-wise readers must return what the entry-by-entry loops
return, or raise :class:`FormatError` with the same message, on well-formed
documents and on documents with one corruption.
The rule and square loaders must return only well-formed objects, or raise
:class:`FormatError`, whatever the one corruption. A derivation's trace
must rebuild its result graph from its input graph.
"""

import copy
import io as stdio
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpo import io
from dpo.constructions import gluing, pullback_construct
from dpo.diagrams import Square
from dpo.errors import FormatError
from dpo.graph import graph, validate_graph
from dpo.morphism import validate_morphism
from dpo.rewriting import apply, validate_rule

from .generators import random_rule_with_match, rewire_on_random_host
from .oracles import reference_graph_from_json, reference_intmap, reference_save_json, replay
from .strategies import cospans, extensions, graphs, rules

# labels that need escaping, or are not ASCII, next to plain ones
TEXT = st.text(alphabet=st.characters() | st.sampled_from('"\\\n\t\x00\x7f{}:,é€😀'), max_size=6)
# two documents and the exact bytes save_json writes for them: a two-space
# indent, keys in sorted order (int keys sorted as numbers, written as
# strings), non-ASCII and control characters escaped, one trailing newline
WRITTEN = [
    (
        {"nodes": [{"label": 'é"{x}\t', "id": 0}], "edges": []},
        rb'''{
  "edges": [],
  "nodes": [
    {
      "id": 0,
      "label": "\u00e9\"{x}\t"
    }
  ]
}
''',
    ),
    (
        {10: "a\n", 9: "\\😀", -1: [1.5, None, True, {}, []]},
        rb'''{
  "-1": [
    1.5,
    null,
    true,
    {},
    []
  ],
  "9": "\\\ud83d\ude00",
  "10": "a\n"
}
''',
    ),
]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Both writers' bytes for a document."""
    directory = tmp_path_factory.mktemp("writer")

    def write(doc) -> tuple[bytes, bytes]:
        io.save_json(doc, directory / "fast.json")
        reference_save_json(doc, directory / "reference.json")
        return (directory / "fast.json").read_bytes(), (directory / "reference.json").read_bytes()

    return write


class TestSaveJson:
    def test_writes_the_bytes_of_json_dump(self, written):
        for doc, expected in WRITTEN:
            fast, reference = written(doc)
            assert fast == reference == expected

    @pytest.mark.parametrize("doc", [
        {},
        [],
        {"nodes": [], "edges": []},
        [{}, {}],
        {"a": [{"id": 0, "label": "é\"{x}"}, {"id": 1, "label": "\n"}]},
        [{"id": 0, "n": True}, {"id": 1, "n": 2}],
        [{"id": 0}, {"id": 1, "label": "a"}],
        [{"id": 0, "label": "a"}, {"id": 1}],
        {10: "a", 9: "b", -1: "c"},
        {"x": None, "y": 1.5, "z": float("inf")},
    ])
    def test_agrees_with_json_dump(self, written, doc):
        fast, reference = written(doc)
        assert fast == reference

    @pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 4096, 4097, 5000])
    def test_long_lists_around_the_chunk_size(self, saved, n):
        # save_graph on graphs of n nodes and n edges, at and around the
        # multiples of 2048 rows at which an earlier writer cut its lists
        g = graph({v: "aé"[v % 2] for v in range(n)}, {e: (e // 2, e % 7, "xy"[e % 2]) for e in range(n)})
        fast, reference = saved(g)
        assert fast == reference


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """``save_graph``'s bytes for a graph, and the reference writer's for
    its document."""
    directory = tmp_path_factory.mktemp("graphs")

    def write(g) -> tuple[bytes, bytes]:
        io.save_graph(g, directory / "fast.json")
        reference_save_json(io.graph_to_json(g), directory / "reference.json")
        return (directory / "fast.json").read_bytes(), (directory / "reference.json").read_bytes()

    return write


@st.composite
def labelled_graphs(draw):
    """A graph with sparse ids and labels that need escaping; with few
    nodes, edges are often loops or parallel."""
    nodes = draw(st.dictionaries(st.integers(0, 10**6), TEXT, max_size=5))
    edges = {}
    if nodes:
        ends = st.sampled_from(sorted(nodes))
        edges = draw(st.dictionaries(st.integers(0, 10**6), st.tuples(ends, ends, TEXT), max_size=6))
    return graph(nodes, edges)


class TestSaveGraph:
    @settings(max_examples=300, deadline=None)
    @given(labelled_graphs())
    @example(graph({}))
    @example(graph({7: "a", 3: "b"}))
    @example(graph({4: '"\\\n\x00é€😀'}, {9: (4, 4, "{x}"), 2: (4, 4, "{x}")}))
    def test_writes_the_bytes_of_save_json(self, saved, g):
        fast, reference = saved(g)
        assert fast == reference

    def test_a_result_graph_of_ten_thousand_nodes(self, saved):
        g = apply(*rewire_on_random_host(10_000)).H
        fast, reference = saved(g)
        assert fast == reference and len(g.nodes) == 10_000


def graph_documents():
    nodes = st.lists(st.sampled_from("ab"), max_size=4).map(
        lambda labels: [{"id": 3 * i, "label": x} for i, x in enumerate(labels)]
    )
    edges = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.sampled_from("xy")), max_size=4).map(
        lambda ends: [{"id": 2 * i + 1, "src": s, "tgt": t, "label": x} for i, (s, t, x) in enumerate(ends)]
    )
    return st.fixed_dictionaries({"nodes": nodes, "edges": edges})


BAD_VALUES = st.sampled_from([True, False, -1, 1.0, "0", None, [], {}])


@st.composite
def corrupted_graph_documents(draw):
    """A graph document with at most one corruption."""
    doc = draw(graph_documents())
    kind = draw(st.sampled_from(["none", "value", "duplicate", "missing", "entry", "array", "edges absent"]))
    key = draw(st.sampled_from(["nodes", "edges"]))
    entries = doc[key]
    if kind == "array":
        doc[key] = draw(st.sampled_from([5, None, "ab", {}, {"id": 0}]))
    elif kind == "edges absent":
        del doc["edges"]
    elif entries and kind != "none":
        i = draw(st.integers(0, len(entries) - 1))
        fields = sorted(entries[i])
        if kind == "value":
            entries[i][draw(st.sampled_from(fields))] = draw(BAD_VALUES)
        elif kind == "duplicate":
            entries.append(dict(entries[i]))
        elif kind == "missing":
            del entries[i][draw(st.sampled_from(fields))]
        else:
            entries[i] = draw(st.sampled_from([5, "x", [], None]))
    return doc


def outcome(read, *args):
    """What a reader returns, or the message of the ``FormatError`` it
    raises; any other exception fails the test."""
    try:
        return "ok", read(*args)
    except FormatError as exc:
        return "error", str(exc)


class TestGraphFromJson:
    @settings(max_examples=400, deadline=None)
    @given(corrupted_graph_documents())
    @example({"nodes": 5})
    @example({"nodes": None})
    @example({"nodes": [], "edges": 5})
    @example({"nodes": [{"id": 0, "label": "a"}, {"id": -1, "label": 3}], "edges": 7})
    @example({"nodes": [{"id": 0, "label": "a"}], "edges": [{"id": 0, "src": 0, "tgt": 0}]})
    @example([])
    @example({"edges": []})
    def test_agrees_with_the_reference(self, doc):
        expected = outcome(reference_graph_from_json, copy.deepcopy(doc))
        assert outcome(io.graph_from_json, doc) == expected


@st.composite
def corrupted_maps(draw):
    """A morphism map with string keys and at most one corruption."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=5))
    obj = {str(k): v for k, v in pairs}
    kind = draw(st.sampled_from(["none", "key", "value", "object"]))
    if kind == "object":
        return draw(st.sampled_from([[], None, 3, "fv"]))
    if kind == "key":
        obj[draw(st.sampled_from(["01", " 1", "1 ", "-1", "x", "1.5", "", "+2", "1_0"]))] = draw(st.integers(0, 3))
    elif kind == "value" and obj:
        obj[draw(st.sampled_from(sorted(obj)))] = draw(BAD_VALUES)
    return obj


class TestIntmap:
    @settings(max_examples=400, deadline=None)
    @given(corrupted_maps())
    @example({"1": 2, "01": 3})
    @example({"0": 1, "x": True})
    @example({"0": 0, " 0": 1, "x": 2})
    def test_agrees_with_the_reference(self, obj):
        expected = outcome(reference_intmap, copy.deepcopy(obj), "fv")
        assert outcome(io._intmap, obj, "fv") == expected

    @pytest.mark.parametrize("obj, key", [({"0": 0, "00": 1}, "00"), ({"0": 0, " 0": 1}, " 0"), ({"7": 1, "+7": 1}, "+7")])
    def test_two_spellings_of_one_id_are_refused(self, obj, key):
        # with the last spelling winning, {"0": 0, " 0": 1} would map node 0 to 1
        assert outcome(io._intmap, obj, "fv") == ("error", f"'fv' key {key!r} repeats id {int(key)}")


@st.composite
def square_documents(draw) -> dict:
    """An inline square document whose legs are morphisms: the gluing
    square of an injective span, or the canonical pullback of a cospan."""
    if draw(st.booleans()):
        k = draw(graphs(max_nodes=3, max_edges=2))
        b, d = draw(extensions(k)), draw(extensions(k))
        glued = gluing(b, d)
        sq = Square(ab=b, ac=d, bd=glued.h, cd=glued.c)
    else:
        f, g = draw(cospans())
        pb = pullback_construct(f, g)
        sq = Square(ab=pb.b, ac=pb.c, bd=f, cd=g)
    corners = {key: io.graph_to_json(getattr(sq, key)) for key in "ABCD"}
    return {**corners, **{leg: io.morphism_to_json(getattr(sq, leg)) for leg in ("ab", "ac", "bd", "cd")}}


def spots(doc):
    """Every ``(container, key)`` under ``doc``, outside in."""
    for key, value in list(doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from spots(value)


CORRUPTIONS = ("none", "deleted key", "wrong type", "out-of-range id", "changed label", "extra map entry")


@st.composite
def corrupted(draw, documents, kind=None):
    """A document with one corruption of ``kind``, drawn if not given: a key
    deleted, a value of the wrong type, an id or map value out of range, a
    label changed, or an entry added to an ``fv``/``fe`` map. Where the
    document has no place for that kind, it is left as it is."""
    doc = draw(documents)
    kind = kind or draw(st.sampled_from(CORRUPTIONS))
    places = {
        "deleted key": [(c, k) for c, k in spots(doc) if isinstance(c, dict)],
        "wrong type": list(spots(doc)),
        "out-of-range id": [(c, k) for c, k in spots(doc) if type(c[k]) is int],
        "changed label": [(c, k) for c, k in spots(doc) if k == "label"],
        "extra map entry": [(c, k) for c, k in spots(doc) if k in ("fv", "fe") and isinstance(c[k], dict)],
    }.get(kind)
    if places:
        container, key = draw(st.sampled_from(places))
        if kind == "deleted key":
            del container[key]
        elif kind == "wrong type":
            container[key] = draw(BAD_VALUES | st.sampled_from([1.5, "x", [0]]))
        elif kind == "out-of-range id":
            container[key] = 99
        elif kind == "changed label":
            container[key] = draw(st.sampled_from([x for x in "abcxy" if x != container[key]]))
        else:
            container[key][str(draw(st.integers(0, 12)))] = draw(st.integers(0, 12))
    return doc


@pytest.fixture(scope="module")
def load(tmp_path_factory):
    """A loader's result on a document written to a file, or ``None`` if it
    raised :class:`FormatError`; any other exception fails the test."""
    directory = tmp_path_factory.mktemp("loaders")

    def read(loader, doc):
        path = directory / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            return loader(path)
        except FormatError:
            return None

    return read


class TestLoadersReturnOnlyWellFormedObjects:
    @settings(max_examples=200, deadline=None)
    @given(corrupted(rules().map(io.rule_to_json)))
    def test_rule_documents(self, load, doc):
        rule = load(io.load_rule, doc)
        assert rule is None or validate_rule(rule.L, rule.K, rule.R, rule.b, rule.r)

    @settings(max_examples=200, deadline=None)
    @given(corrupted(square_documents()))
    def test_square_documents(self, load, doc):
        self.assert_well_formed(load(io.load_square, doc))

    @settings(max_examples=100, deadline=None)
    @given(corrupted(square_documents(), kind="changed label"))
    def test_square_documents_with_a_changed_label(self, load, doc):
        self.assert_well_formed(load(io.load_square, doc))

    @staticmethod
    def assert_well_formed(sq):
        if sq is not None:
            assert all(validate_graph(g) for g in (sq.A, sq.B, sq.C, sq.D))
            assert all(validate_morphism(m) for m in (sq.ab, sq.ac, sq.bd, sq.cd))


def rewire_trace(n: int) -> dict:
    """The trace of :func:`rewire` on a random host of n nodes and up to 2n edges."""
    return io.derivation_trace_json(apply(*rewire_on_random_host(n)))


def shape(trace: dict) -> dict:
    """The keys of a trace, and of its two delta blocks with their sizes."""
    return {
        "keys": sorted(trace),
        **{block: {key: len(items) for key, items in trace[block].items()} for block in ("deleted", "created")},
    }


class TestDerivationTrace:
    def test_replay_on_the_input_gives_the_result(self):
        rng = random.Random(41)
        for _ in range(150):
            rule, match = random_rule_with_match(rng)
            dd = apply(rule, match)
            trace = json.loads(json.dumps(io.derivation_trace_json(dd)))
            assert replay(io.graph_to_json(dd.G), trace) == io.graph_to_json(dd.H)

    def test_size_does_not_grow_with_the_host(self):
        small, large = rewire_trace(100), rewire_trace(10_000)
        assert shape(large) == shape(small) == {
            "keys": [
                "comatch", "created", "deleted", "left_square_check", "match",
                "right_square_check", "rule", "version",
            ],
            "deleted": {"nodes": 0, "edges": 1},
            "created": {"nodes": 0, "edges": 1},
        }
        text = stdio.StringIO()
        io.write_json(large, text)
        assert len(text.getvalue().encode()) < 8 * 1024
