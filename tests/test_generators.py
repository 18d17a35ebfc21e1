"""Named graph constructions and their documented vertex numbering."""

import pytest

from domlab import (
    complete,
    complete_multipartite,
    components,
    cycle,
    path,
    star,
    three_stars_triangle,
)


def test_path_1_is_k1():
    g = path(1)
    assert g.n == 1 and g.edge_count() == 0


def test_cycle_3_is_triangle():
    assert cycle(3) == complete(3)


def test_star_center_is_zero():
    g = star(4)
    assert g.adj[0].bit_count() == 4
    assert all(g.adj[v].bit_count() == 1 for v in range(1, 5))


def test_complete_multipartite_k333():
    g = complete_multipartite([3, 3, 3])
    assert g.n == 9
    assert g.edge_count() == 27
    assert all(g.adj[v].bit_count() == 6 for v in range(9))
    assert not g.has_edge(0, 1) and g.has_edge(0, 3)


def test_three_stars_triangle_layout():
    g = three_stars_triangle(2)
    assert g.n == 9
    # triangle on the centers
    assert g.has_edge(0, 1) and g.has_edge(0, 2) and g.has_edge(1, 2)
    assert g.adj[0].bit_count() == 4  # two leaves + two centers
    assert sorted(v for v in range(9) if g.has_edge(1, v)) == [0, 2, 5, 6]
    assert len(components(g)) <= 1


def test_size_validation():
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        star(0)
    with pytest.raises(ValueError):
        complete_multipartite([2, 0])
    with pytest.raises(ValueError):
        complete_multipartite([])
    with pytest.raises(ValueError):
        three_stars_triangle(0)
