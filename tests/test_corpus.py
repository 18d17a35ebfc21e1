"""Bundled corpora, corpus resolution, and the env-var override."""

import os
import threading

import pytest

from domlab import CorpusError, load_corpus, resolve_corpus, to_graph6
from domlab.corpus import BUNDLED, iter_graph6_lines

EXPECTED_SIZES = {
    "n5all": 52,
    "n6all": 208,
    "n6c": 142,
    "n7c": 995,
    "paths14": 13,
    "cycles14": 12,
    "named": 9,
}


def test_bundled_names():
    assert set(BUNDLED) == set(EXPECTED_SIZES)


@pytest.mark.parametrize("name,size", sorted(EXPECTED_SIZES.items()))
def test_corpus_sizes(name, size):
    assert len(load_corpus(name)) == size


def test_n7c_is_connected_2_to_7():
    from domlab import components

    seen = set()
    for g in load_corpus("n7c"):
        assert 2 <= g.n <= 7
        assert len(components(g)) <= 1
        seen.add((g.n, g.adj))
    assert len(seen) == 995  # no duplicates


def test_labels_carry_source_and_line():
    g = load_corpus("n6all")[0]
    assert g.label.startswith("bundled:n6all:1 ")


def test_unknown_name():
    with pytest.raises(CorpusError):
        load_corpus("n99")


def test_env_override(tmp_path, monkeypatch):
    (tmp_path / "n5all.g6").write_text("A_\n")
    monkeypatch.setenv("DOMLAB_CORPUS_DIR", str(tmp_path))
    got = load_corpus("n5all")
    assert len(got) == 1 and got[0].n == 2
    monkeypatch.setenv("DOMLAB_CORPUS_DIR", str(tmp_path / "missing"))
    with pytest.raises(CorpusError, match="DOMLAB_CORPUS_DIR"):
        load_corpus("n5all")


def test_resolve_g6_file(tmp_path):
    f = tmp_path / "two.g6"
    f.write_text("A_\nBw\n")
    graphs = resolve_corpus(f"g6:{f}")
    assert [g.n for g in graphs] == [2, 3]


def test_resolve_edges_file(tmp_path):
    f = tmp_path / "one.edges"
    f.write_text("0 1\n1 2\n")
    graphs = resolve_corpus(f"edges:{f}")
    assert len(graphs) == 1 and graphs[0].edge_count() == 2


def test_resolve_bad_specs(tmp_path):
    with pytest.raises(CorpusError):
        resolve_corpus("nocolon")
    with pytest.raises(CorpusError):
        resolve_corpus("zip:thing")
    with pytest.raises(CorpusError):
        resolve_corpus(f"g6:{tmp_path / 'absent.g6'}")


def test_resolve_reads_a_pipe(tmp_path):
    # what a shell's <(...) hands over: a path that is not a regular file
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("Bw\n",))
    writer.start()
    try:
        assert [to_graph6(g) for g in resolve_corpus(f"g6:{fifo}")] == ["Bw"]
    finally:
        # a reader that comes and goes frees a writer still waiting for one
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_resolve_directory_keeps_its_own_error(tmp_path):
    for kind in ("g6", "edges"):
        with pytest.raises(IsADirectoryError):
            resolve_corpus(f"{kind}:{tmp_path}")


def test_iter_graph6_lines_errors_carry_line_numbers():
    with pytest.raises(CorpusError, match=":2:"):
        list(iter_graph6_lines("A_\n~x\n", source="s"))


def test_iter_graph6_lines_skip_bad(capsys):
    got = list(iter_graph6_lines("A_\n~x\nBw\n", source="s", skip_bad=True))
    assert [g.n for g in got] == [2, 3]
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 1 and "s:2" in warnings[0]


def test_file_header_tolerated():
    got = list(iter_graph6_lines(">>graph6<<A_\nBw\n"))
    assert [g.n for g in got] == [2, 3]


def test_corpus_lines_reencode_identically():
    for g in load_corpus("named"):
        line = g.label.split()[-1]
        assert to_graph6(g) == line
