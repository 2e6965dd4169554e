"""Polarization and the suspension depolarization."""

import pytest

from liccilab.betti import betti_table
from liccilab.graphs import Graph, complete, cycle, star, suspension, t_path_ideal
from liccilab.monomial import IdealError, Monomial, MonomialIdeal
from liccilab.polarization import depolarize_suspension, polarize


def test_polarize_pure_power():
    I = MonomialIdeal(["x"], [(2,)])
    P = polarize(I)
    assert P.vars == ("x", "x_1")
    assert P.gens == (Monomial((1, 1)),)


def test_polarize_squarefree_fixed_point():
    I = MonomialIdeal(["x", "y", "z"], [(1, 1, 0), (0, 1, 1)])
    assert polarize(I) is I
    # one exponent above 1 still rebuilds the ideal with a new column
    J = MonomialIdeal(["x", "y", "z"], [(2, 1, 0), (0, 1, 1)])
    P = polarize(J)
    assert P is not J
    assert P == MonomialIdeal(["x", "x_1", "y", "z"], [(1, 1, 1, 0), (0, 0, 1, 1)])


def test_polarize_respects_cap(monkeypatch):
    monkeypatch.setenv("LICCILAB_MAX_VARS", "5")
    I = MonomialIdeal(["x", "y"], [(3, 0), (0, 3)])
    with pytest.raises(IdealError):
        polarize(I)


def test_depolarize_triangle_example():
    # depol(P3(Sigma3 K3)) = (x1x2x3) + the six x_i^2 x_j + the three cubes
    I = depolarize_suspension(complete(3), 3)
    expected = MonomialIdeal(
        ["x1", "x2", "x3"],
        [
            (1, 1, 1),
            (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 0, 2), (0, 2, 1), (0, 1, 2),
            (3, 0, 0), (0, 3, 0), (0, 0, 3),
        ],
    )
    assert I == expected
    assert len(I.gens) == 10


def test_depolarize_single_vertex():
    g = Graph(("v",), frozenset())
    for t in (2, 3, 5):
        assert depolarize_suspension(g, t) == MonomialIdeal(["v"], [(t,)])


def test_polarize_of_depolarization_recovers_suspension_ideal():
    for g, t in ((complete(3), 3), (cycle(4), 2), (star(2, 1), 3)):
        dep = depolarize_suspension(g, t)
        squarefree = t_path_ideal(suspension(g, t), t)
        assert polarize(dep).reorder_to(squarefree.vars) == squarefree


def test_depolarization_is_artinian_with_maximal_radical():
    for g, t in ((complete(3), 2), (cycle(4), 3), (star(3, 2), 2)):
        dep = depolarize_suspension(g, t)
        assert dep.is_artinian()
        n = g.n
        full = MonomialIdeal(dep.vars, [Monomial.variable(n, i) for i in range(n)])
        assert dep.radical() == full
        for i in range(n):
            assert dep.membership(Monomial.variable(n, i, t))


def test_edge_power_containment():
    # (x_i, x_j)^t lands in the depolarization for every edge {i, j}
    for g, t in ((complete(3), 3), (cycle(4), 2), (star(2), 3)):
        dep = depolarize_suspension(g, t)
        for u, v in g.edges:
            pair = MonomialIdeal(
                dep.vars,
                [Monomial.variable(g.n, u), Monomial.variable(g.n, v)],
            )
            assert pair.power(t).containment(dep)


def test_polarization_preserves_betti_table_small():
    for ideal in (
        MonomialIdeal(["x", "y"], [(2, 0), (1, 1), (0, 3)]),
        MonomialIdeal(["x", "y", "z"], [(2, 1, 0), (0, 2, 1), (1, 0, 2)]),
        depolarize_suspension(complete(3), 2),
    ):
        assert betti_table(ideal).entries == betti_table(polarize(ideal)).entries
