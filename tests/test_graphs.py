"""Graph builders, recognizers and the ideal constructors."""

from itertools import combinations

import pytest

from liccilab.graphs import (
    Graph,
    build,
    classify,
    complementary_edge_ideal,
    complete,
    cycle,
    edge_ideal,
    from_edges,
    path,
    star,
    suspension,
    t_path_ideal,
)
from liccilab import serialize
from liccilab.monomial import IdealError, Monomial, MonomialIdeal


def test_builders():
    assert cycle(3).edges == complete(3).edges
    assert star(1).edges == frozenset({(0, 1)})
    g = from_edges(4, [(1, 2), (1, 3), (2, 3), (1, 4)])
    assert len(g.edges) == 4
    assert build("cycle", n=5).n == 5
    assert build("star", k=2, isolated=1).n == 4
    with pytest.raises(IdealError):
        cycle(2)
    with pytest.raises(IdealError):
        build("nonsense", n=3)
    with pytest.raises(IdealError):
        Graph(("a", "b"), frozenset({(0, 0)}))


def test_edge_indices_are_validated():
    # a fractional or boolean vertex index is no vertex; a one-item edge no pair
    with pytest.raises(IdealError):
        from_edges(3, [(1, 2.5)])
    with pytest.raises(IdealError):
        from_edges(3, [(True, 2)])
    with pytest.raises(IdealError):
        Graph(("a", "b"), frozenset({(False, 1)}))
    with pytest.raises(IdealError):
        build("edge_list", n=3, edges=[[1]])
    with pytest.raises(IdealError):
        build("edge_list", n=3, edges=[(1, 2, 3)])
    # a vertex count that is no natural number, an edge list that is no list
    with pytest.raises(IdealError):
        build("edge_list", n=3, edges=5)
    with pytest.raises(IdealError):
        build("edge_list", n="3", edges=[(1, 2)])
    with pytest.raises(IdealError):
        build("edge_list", n=2.5, edges=[(1, 2)])
    with pytest.raises(IdealError):
        build("edge_list", n=True, edges=[])
    with pytest.raises(IdealError):
        from_edges(-1, [])
    # an integral float in a document is still read as an index
    doc = {"n": 3, "edges": [[1, 2.0]]}
    assert serialize.graph_from_doc(doc) == from_edges(3, [(1, 2)])


def test_classify_small_graphs():
    c4 = classify(cycle(4))
    assert not c4.is_forest and c4.is_cycle
    assert not c4.has_triangle and c4.has_two_disjoint_edges
    assert not c4.is_star_plus_isolated

    k3 = classify(complete(3))
    assert k3.has_triangle and k3.is_complete
    assert not k3.is_star_plus_isolated and not k3.has_two_disjoint_edges

    two = classify(from_edges(4, [(1, 2), (3, 4)]))
    assert two.is_forest and two.has_two_disjoint_edges
    assert not two.is_star_plus_isolated

    assert classify(star(3, 2)).is_star_plus_isolated
    assert classify(path(3)).is_star_plus_isolated  # P3 = K_{1,2}
    assert classify(Graph(("a",), frozenset())).is_star_plus_isolated


def test_star_characterization_exhaustive():
    # a graph is a star plus isolated vertices iff it has neither two
    # disjoint edges nor a triangle; exhaustive over labeled graphs, n <= 6
    for n in range(1, 7):
        all_edges = list(combinations(range(n), 2))
        for mask in range(1 << len(all_edges)):
            edges = frozenset(
                all_edges[i] for i in range(len(all_edges)) if mask >> i & 1
            )
            cls = classify(Graph(tuple(f"v{i}" for i in range(n)), edges))
            assert cls.is_star_plus_isolated == (
                not (cls.has_two_disjoint_edges or cls.has_triangle)
            )


def test_edge_ideal_is_two_path_ideal():
    for g in (cycle(5), complete(4), star(3)):
        assert edge_ideal(g) == t_path_ideal(g, 2)


def test_path_ideal_of_triangle():
    assert t_path_ideal(complete(3), 3) == MonomialIdeal(
        ["x1", "x2", "x3"], [(1, 1, 1)]
    )


def test_path_ideal_of_whiskered_triangle():
    # P3 of the whiskered triangle: the facet triangle plus six mixed paths
    g = suspension(complete(3), 2)
    I = t_path_ideal(g, 3)
    vs = g.labels
    assert vs == ("x1", "x2", "x3", "x1_1", "x2_1", "x3_1")

    def m(*names):
        e = [0] * 6
        for nm in names:
            e[vs.index(nm)] = 1
        return Monomial(e)

    expected = MonomialIdeal(
        vs,
        [
            m("x1", "x2", "x3"),
            m("x1", "x2", "x1_1"),
            m("x1", "x3", "x1_1"),
            m("x1", "x2", "x2_1"),
            m("x1", "x3", "x3_1"),
            m("x2", "x3", "x2_1"),
            m("x2", "x3", "x3_1"),
        ],
    )
    assert I == expected


def test_path_ideal_conventions():
    # exactly one generator on the t-cycle; zero ideal when no path exists
    assert len(t_path_ideal(cycle(4), 4).gens) == 1
    assert t_path_ideal(path(2), 3).is_zero
    assert t_path_ideal(Graph(("a", "b"), frozenset()), 2).is_zero
    with pytest.raises(IdealError):
        t_path_ideal(path(3), 1)


def test_path_ideal_degrees():
    for t in (2, 3, 4):
        I = t_path_ideal(cycle(6), t)
        assert all(g.degree == t for g in I.gens)


def test_complementary_edge_ideal_examples():
    g = from_edges(4, [(1, 2), (1, 3), (2, 3), (1, 4)])
    I = complementary_edge_ideal(g)
    assert I == MonomialIdeal(
        ["x1", "x2", "x3", "x4"],
        [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1)],
    )
    assert complementary_edge_ideal(complete(3)) == MonomialIdeal(
        ["x1", "x2", "x3"], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    )
    assert complementary_edge_ideal(path(3)) == MonomialIdeal(
        ["x1", "x2", "x3"], [(1, 0, 0), (0, 0, 1)]
    )
    assert all(
        g_.degree == 4 - 2 for g_ in complementary_edge_ideal(cycle(4)).gens
    )
    with pytest.raises(IdealError):
        complementary_edge_ideal(path(2))
    with pytest.raises(IdealError):
        complementary_edge_ideal(Graph(("a", "b", "c"), frozenset()))


def test_suspension_counts():
    s2 = suspension(complete(3), 2)
    assert s2.n == 6 and len(s2.edges) == 6
    s3 = suspension(complete(3), 3)
    assert s3.n == 9 and len(s3.edges) == 9
    # single vertex suspends to a path on t vertices
    single = Graph(("v",), frozenset())
    for t in (2, 3, 4):
        s = suspension(single, t)
        assert s.n == t and len(s.edges) == t - 1
        assert classify(s).is_tree
    for g in (cycle(4), star(2, 1)):
        for t in (2, 3):
            s = suspension(g, t)
            assert s.n == g.n * t
            assert len(s.edges) == len(g.edges) + g.n * (t - 1)
