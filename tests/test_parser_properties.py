"""Property tests for the three text parsers: any text yields a value or a
FormatError, and parse(serialize(x)) == x. Hypothesis is not a dependency of
the package, so the module is skipped where it is not installed."""

from __future__ import annotations

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from pocgraph import (  # noqa: E402
    Coloring,
    FormatError,
    Graph,
    Orientation,
    WeightedGraph,
    parse_coloring,
    parse_orientation,
    parse_wpoc,
    serialize_coloring,
    serialize_orientation,
    serialize_wpoc,
)

SETTINGS = hypothesis.settings(max_examples=200, deadline=None, database=None)

# Lines made of the formats' own keywords and small numbers reach far deeper
# into the parsers than uniformly random text does.
_line = st.one_of(
    st.builds(
        lambda key, numbers: " ".join([key, *map(str, numbers)]),
        st.sampled_from(["p wpoc", "v", "e", "palette", "c", "a", "#", "p"]),
        st.lists(st.integers(-1, 9), max_size=4),
    ),
    st.text(max_size=8),
)
texts = st.one_of(st.text(), st.lists(_line, max_size=10).map("\n".join))


@st.composite
def graphs(draw, max_n: int = 7) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, frozenset(p for p, k in zip(pairs, keep) if k))


@st.composite
def weighted_graphs(draw) -> WeightedGraph:
    g = draw(graphs())
    weights = draw(st.lists(st.integers(1, 40), min_size=g.n, max_size=g.n))
    return WeightedGraph(g, tuple(weights))


@st.composite
def colorings(draw) -> Coloring:
    n = draw(st.integers(0, 8))
    palette = draw(st.integers(1 if n else 0, 5))
    colors = draw(st.lists(st.integers(1, max(palette, 1)), min_size=n, max_size=n))
    return Coloring(tuple(colors), palette)


@st.composite
def orientations(draw) -> Orientation:
    g = draw(graphs())
    edges = g.sorted_edges()
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return Orientation(g, frozenset((v, u) if f else (u, v) for (u, v), f in zip(edges, flips)))


@st.composite
def edited(draw, text: str) -> str:
    """``text`` with up to three lines dropped, repeated or given another
    number in one field: input that gets past the first checks of a parser."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "repeat", "renumber")))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif len(lines[i].split()) > 1:
            fields = lines[i].split()
            fields[draw(st.integers(1, len(fields) - 1))] = str(draw(st.integers(-1, 10)))
            lines[i] = " ".join(fields)
    return "\n".join(lines)


def _value_or_format_error(parse, *args):
    try:
        parse(*args)
    except FormatError:
        pass


@SETTINGS
@hypothesis.given(st.one_of(texts, weighted_graphs().map(serialize_wpoc).flatmap(edited)))
def test_parse_wpoc_raises_only_format_error(text):
    _value_or_format_error(parse_wpoc, text)


@SETTINGS
@hypothesis.given(
    st.one_of(
        st.tuples(texts, st.integers(0, 8)),
        colorings().flatmap(
            lambda c: st.tuples(edited(serialize_coloring(c)), st.just(len(c.colors)))
        ),
    )
)
def test_parse_coloring_raises_only_format_error(case):
    _value_or_format_error(parse_coloring, *case)


@SETTINGS
@hypothesis.given(
    st.one_of(
        st.tuples(texts, graphs(max_n=5)),
        orientations().flatmap(
            lambda d: st.tuples(edited(serialize_orientation(d)), st.just(d.graph))
        ),
    )
)
def test_parse_orientation_raises_only_format_error(case):
    _value_or_format_error(parse_orientation, *case)


@SETTINGS
@hypothesis.given(weighted_graphs())
def test_wpoc_serialize_parse_is_identity(g):
    assert parse_wpoc(serialize_wpoc(g)) == g


@SETTINGS
@hypothesis.given(colorings())
def test_coloring_serialize_parse_is_identity(c):
    assert parse_coloring(serialize_coloring(c), len(c.colors)) == c


@SETTINGS
@hypothesis.given(orientations())
def test_orientation_serialize_parse_is_identity(d):
    assert parse_orientation(serialize_orientation(d), d.graph) == d
