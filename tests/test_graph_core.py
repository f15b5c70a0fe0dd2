from __future__ import annotations

import random
import tracemalloc

import pytest

from pocgraph import (
    Coloring,
    FormatError,
    Graph,
    Orientation,
    WeightedGraph,
    complement,
    complete_graph,
    complete_multipartite_graph,
    normalize_weights,
    parse_coloring,
    parse_orientation,
    parse_wpoc,
    path_graph,
    random_weighted_graph,
    serialize_coloring,
    serialize_orientation,
    serialize_wpoc,
)
from pocgraph.poc_engine import build_good_orientation, greedy_poc


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_single_vertex():
    g = parse_wpoc("p wpoc 1 0\nv 1 7\n")
    assert g.n == 1
    assert g.weights == (7,)
    assert g.graph.m == 0


def test_parse_c4w_fixture(c4w):
    assert c4w.n == 4
    assert c4w.graph.edges == frozenset({(1, 2), (1, 3), (2, 4), (3, 4)})
    assert c4w.weights == (1, 1, 2, 3)


def test_parse_accepts_comments_and_blank_lines():
    text = "# hello\n\np wpoc 2 1\n# mid\nv 1 1\nv 2 2\ne 1 2\n"
    g = parse_wpoc(text)
    assert g.n == 2 and g.graph.m == 1
    text = "  # indented\np\twpoc 3 2\n\tv 1 4\nv\t2  5\nv 3 6\t\n e\t3 1\ne 2 3\n\t# tab\n"
    g = parse_wpoc(text)
    assert g.weights == (4, 5, 6)
    assert g.graph.edges == frozenset({(1, 3), (2, 3)})


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("p wpoc 2 1\nv 1 1\nv 2 1\ne 1 1\n", "loop", 4),
        ("p wpoc 2 2\nv 1 1\nv 2 1\ne 1 2\ne 2 1\n", "duplicate edge", 5),
        ("p wpoc 2 1\nv 1 0\nv 2 1\ne 1 2\n", "weight", 2),
        ("p wpoc 2 1\nv 1 1\nv 3 1\ne 1 2\n", "out of range", 3),
        ("p wpoc 2 1\nv 1 1\nv 2 1\ne 1 5\n", "out of range", 4),
        ("p wpoc 2 1\nv 1 1\nv 1 2\ne 1 2\n", "twice", 3),
        ("p wpoc 2 1\nv 1 1\nv 2 x\ne 1 2\n", "non-integer", 3),
        ("v 1 1\n", "first non-comment", 1),
        ("p wpoc 2 1\np wpoc 2 1\n", "duplicate 'p'", 2),
        ("p wpoc 2 1\nv 1 1\nv 2 1\nq 1 2\n", "unknown line", 4),
        ("p wpoc 2 1\nv 1 1\nv 2 1\ne 1\n", "'e' line needs 2 integer fields, got 1", 4),
        ("p wpoc 2 1\nv 1 1\nv 2 1\ne 1 2 1\n", "'e' line needs 2 integer fields, got 3", 4),
        ("p wpoc 2 1\nv 1 1\nv 2 1\ne\n", "'e' line needs 2 integer fields, got 0", 4),
        ("p wpoc 2 1\nv 1 1\nv 2 1\ne 1 x\n", "non-integer field in 'e' line", 4),
        ("p wpoc 2 1\nv 1 1\nv 2 1\ne 9 x y\n", "'e' line needs 2 integer fields, got 3", 4),
        ("p wpoc 2 1\nv 1 1\nv 2 1\ne 9 x\n", "non-integer field in 'e' line", 4),
        ("p wpoc 2 1\nv 1 1\nv 2 1\ne 1.0 2\n", "non-integer field in 'e' line", 4),
        ("# c\ne 1 2\np wpoc 2 1\n", "first non-comment line must be 'p wpoc", 2),
        ("p wpoc 2 1\nv 1 1\nv 2 1\ne 5 5\n", "loop at vertex 5", 4),
        ("p wpoc 2 1\nv 1 1\nv 2 1\ne 0 1\n", "edge (0,1) out of range 1..2", 4),
        ("p wpoc 2 1\nv 1 1\nv 2 1\ne 2 1\ne 1 2\n", "duplicate edge {1,2}", 5),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(FormatError) as err:
        parse_wpoc(text)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_parse_detects_missing_declarations():
    with pytest.raises(FormatError, match="missing 'v' line for vertex 2"):
        parse_wpoc("p wpoc 2 0\nv 1 1\n")
    with pytest.raises(FormatError, match="declares 2 edges"):
        parse_wpoc("p wpoc 3 2\nv 1 1\nv 2 1\nv 3 1\ne 1 2\n")
    with pytest.raises(FormatError, match="missing 'p wpoc"):
        parse_wpoc("# nothing\n")


def test_parse_huge_declared_n_fails_without_allocating():
    # the missing vertex is found without materialising the ids 1..n
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="missing 'v' line for vertex 1$"):
            parse_wpoc("p wpoc 1000000000 0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_roundtrip_on_random_instances():
    rng = random.Random(5)
    for _ in range(100):
        g = random_weighted_graph(rng, rng.randint(1, 9), rng.random(), rng.randint(1, 9))
        assert parse_wpoc(serialize_wpoc(g)) == g


@pytest.mark.parametrize(
    "p, t, name", [(1.5, 3, "p"), (-1.0, 3, "p"), (float("nan"), 3, "p"), (0.5, 0, "t")]
)
def test_random_weighted_graph_rejects_bad_p_and_t(p, t, name):
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        random_weighted_graph(rng, 5, p, t)
    assert rng.getstate() == state  # refused before the first draw
    assert random_weighted_graph(rng, 4, 1.0, 1).graph.m == 6
    assert random_weighted_graph(rng, 4, 0.0, 1).graph.m == 0


def test_coloring_and_orientation_roundtrip():
    rng = random.Random(6)
    for _ in range(50):
        g = random_weighted_graph(rng, rng.randint(1, 8), 0.5, 3)
        c = greedy_poc(g)
        assert parse_coloring(serialize_coloring(c), g.n) == c
        d = build_good_orientation(g)
        assert parse_orientation(serialize_orientation(d), g.graph) == d


def test_coloring_parse_errors():
    with pytest.raises(FormatError, match="palette"):
        parse_coloring("c 1 1\n", 1)
    with pytest.raises(FormatError, match="missing color for vertex 2"):
        parse_coloring("palette 2\nc 1 1\n", 2)
    with pytest.raises(FormatError, match="outside palette"):
        parse_coloring("palette 1\nc 1 2\n", 1)


def test_orientation_parse_requires_exact_cover():
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    with pytest.raises(FormatError, match="no orientation"):
        parse_orientation("a 1 2\n", g)
    with pytest.raises(FormatError, match="oriented twice"):
        parse_orientation("a 1 2\na 2 1\na 2 3\n", g)
    with pytest.raises(FormatError, match="not an edge"):
        parse_orientation("a 1 3\na 1 2\na 2 3\n", g)


# ---------------------------------------------------------------------------
# graph invariants
# ---------------------------------------------------------------------------


def test_graph_rejects_loops_and_duplicates():
    with pytest.raises(ValueError, match="loop"):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 3)])


def test_constructor_messages_name_the_same_fault_among_several():
    """With more than one fault, the message names the first faulty item in
    the order the constructor reads its input."""
    out_of_range = "edge ({},{}) not normalized or out of range 1..3"
    cases = [
        (lambda: Graph(3, frozenset({(2, 2), (1, 5)})), out_of_range.format(1, 5)),
        (lambda: Graph(3, frozenset({(1, 5), (2, 2), (3, 1)})), out_of_range.format(3, 1)),
        (lambda: Graph(4, frozenset({(1, 2), (4, 4), (0, 3)})), "loop at vertex 4"),
        (lambda: WeightedGraph(path_graph(3), (1, 0, -3)), "vertex 2: weight must be >= 1, got 0"),
        (lambda: Coloring((1, 5, 0), 3), "vertex 2: color 5 outside palette 1..3"),
        (lambda: Coloring((1, 5, 0), -1), "palette must be >= 0, got -1"),
    ]
    p4 = path_graph(4)
    for arcs, message in (
        # not an edge, oriented twice, and {2,3}, {3,4} without an arc
        ({(1, 3), (1, 2), (2, 1)}, "arc (1,3) is not an edge of the underlying graph"),
        ({(1, 4), (1, 2), (2, 1)}, "edge {1,2} oriented twice"),
        ({(1, 3), (2, 3), (3, 2)}, "edge {2,3} oriented twice"),
        ({(1, 2), (2, 1), (3, 4)}, "edge {1,2} oriented twice"),
        ({(4, 1), (2, 3)}, "arc (4,1) is not an edge of the underlying graph"),
        ({(2, 1)}, "edge {2,3} has no orientation"),
    ):
        cases.append((lambda arcs=arcs: Orientation(p4, frozenset(arcs)), message))
    for build, message in cases:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_weighted_graph_validation():
    g = Graph.from_edges(2, [(1, 2)])
    with pytest.raises(ValueError, match="weight"):
        WeightedGraph(g, (1, 0))
    with pytest.raises(ValueError, match="expected 2 weights"):
        WeightedGraph(g, (1,))


# ---------------------------------------------------------------------------
# normalize / complement / induced subgraph
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "weights,expected",
    [((1, 5, 9), (1, 2, 3)), ((2, 2, 7), (1, 1, 2)), ((1, 2, 3), (1, 2, 3))],
)
def test_normalize_weights_examples(weights, expected):
    g = WeightedGraph(path_graph(3), weights)
    assert normalize_weights(g).weights == expected


def test_normalize_is_idempotent_and_order_preserving():
    rng = random.Random(7)
    for _ in range(100):
        g = random_weighted_graph(rng, rng.randint(1, 8), 0.4, rng.randint(1, 40))
        once = normalize_weights(g)
        assert normalize_weights(once) == once
        for u in range(1, g.n + 1):
            for v in range(u + 1, g.n + 1):
                before = (g.weight(u) > g.weight(v)) - (g.weight(u) < g.weight(v))
                after = (once.weight(u) > once.weight(v)) - (once.weight(u) < once.weight(v))
                assert before == after


def test_complement_examples():
    assert complement(complete_graph(3)).m == 0
    star = complete_multipartite_graph((1, 3))
    comp = complement(star)
    assert comp.edges == frozenset({(2, 3), (2, 4), (3, 4)})


def test_complement_is_involution_with_edge_count():
    rng = random.Random(8)
    for _ in range(60):
        g = random_weighted_graph(rng, rng.randint(1, 5), rng.random(), 1).graph
        assert complement(complement(g)) == g
        assert g.m + complement(g).m == g.n * (g.n - 1) // 2
