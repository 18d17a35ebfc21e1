"""graph6 codec and edge-list parsing."""

import pytest
from hypothesis import given, settings

from domlab import (
    EdgeListError,
    Graph,
    Graph6Error,
    complete,
    parse_edge_list,
    parse_graph6,
    path,
    to_graph6,
)
from domlab.corpus import load_corpus

from test_graph import small_graphs


class TestParseGraph6:
    def test_star_k14(self):
        # hand-decoded: 'D' = 5 vertices; '?'=000000, '{'=111100 cover the
        # ten cells (0,1),(0,2),(1,2),(0,3),(1,3),(2,3),(0,4),(1,4),(2,4),(3,4)
        g = parse_graph6("D?{")
        assert g.n == 5
        assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_single_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.edge_count() == 0

    def test_k2(self):
        g = parse_graph6("A_")
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_empty_graph(self):
        assert parse_graph6("?").n == 0

    def test_label_carries_source_line(self):
        assert parse_graph6("A_\n").label == "A_"

    def test_empty_line(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6("")
        assert err.value.offset == 0

    def test_bad_header_byte(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6(" _")
        assert err.value.offset == 0

    def test_non_ascii(self):
        with pytest.raises(Graph6Error):
            parse_graph6("Aé")

    def test_bad_body_byte(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6("B\x1f")
        assert err.value.offset == 1

    def test_truncated_body(self):
        with pytest.raises(Graph6Error, match="truncated"):
            parse_graph6("D")

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6("A_~")
        assert err.value.offset == 2

    @pytest.mark.parametrize("line, offset", [("~?!?", 2), ("~~??!???", 4)],
                             ids=["4-byte", "8-byte"])
    def test_bad_multibyte_header_byte(self, line, offset):
        with pytest.raises(Graph6Error, match="invalid header byte 33") as err:
            parse_graph6(line)
        assert err.value.offset == offset

    def test_truncated_multibyte_header(self):
        with pytest.raises(Graph6Error, match="header"):
            parse_graph6("~A")

    def test_eight_byte_header_for_a_one_byte_n(self):
        # "DQw" written with an 8-byte header for n = 5
        with pytest.raises(Graph6Error, match="non-canonical multi-byte header for n=5"):
            parse_graph6("~~?????DQw")

    def test_eight_byte_header_for_a_four_byte_n(self):
        # n = 258,047 is the largest n with a 4-byte header; a 4-byte header
        # cannot hold a larger n, since its second byte would be the "~" that
        # starts an 8-byte header
        with pytest.raises(Graph6Error, match="non-canonical multi-byte header for n=258047"):
            parse_graph6("~~???}~~")
        with pytest.raises(Graph6Error, match="body truncated"):
            parse_graph6("~~???~??")  # n = 258,048: the header is canonical


class TestToGraph6:
    def test_k2(self):
        assert to_graph6(complete(2)) == "A_"

    def test_k1(self):
        assert to_graph6(path(1)) == "@"

    def test_p3(self):
        # bits (0,1)=1,(0,2)=0,(1,2)=1 -> 101000 -> 'g'
        assert to_graph6(path(3)) == "Bg"

    def test_empty(self):
        assert to_graph6(Graph(0, ())) == "?"

    def test_multibyte_header_roundtrip(self):
        g = Graph.from_edges(63, [(0, 62)])
        line = to_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line) == g

    def test_roundtrip_over_corpus(self):
        for g in load_corpus("n6all"):
            assert parse_graph6(to_graph6(g)) == g


@given(small_graphs(max_n=8))
@settings(max_examples=80, deadline=None)
def test_roundtrip_random(g):
    assert parse_graph6(to_graph6(g)) == g


class TestParseEdgeList:
    def test_p3(self):
        g = parse_edge_list("0 1\n1 2")
        assert g == path(3)

    def test_declared_count(self):
        g = parse_edge_list("n 4\n0 1")
        assert g.n == 4 and g.edges() == [(0, 1)]

    def test_self_loop(self):
        with pytest.raises(EdgeListError) as err:
            parse_edge_list("0 0")
        assert err.value.line_no == 1

    def test_duplicates_ignored(self):
        g = parse_edge_list("0 1\n1 0\n0 1")
        assert g.edge_count() == 1

    def test_id_overflow(self):
        with pytest.raises(EdgeListError, match="declared"):
            parse_edge_list("n 2\n0 5")

    def test_unparsable_token(self):
        with pytest.raises(EdgeListError) as err:
            parse_edge_list("0 1\n0 x")
        assert err.value.line_no == 2

    def test_blank_lines_skipped(self):
        assert parse_edge_list("\n0 1\n\n1 2\n") == path(3)

    def test_empty_text_is_empty_graph(self):
        assert parse_edge_list("").n == 0
