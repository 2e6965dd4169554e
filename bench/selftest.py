"""Hand-checkable cases for the reference computations.

    python3 bench/selftest.py

Every benchmark run calls ``failures()`` first and reports an incorrect
result if any case fails, so a broken reference cannot pass liccilab's
outputs by agreeing with them.
"""

from __future__ import annotations

import sys

import reference as ref


def _koszul_3():
    """S/(x, y, z): the Koszul complex, beta_{i,i} = C(3, i)."""
    supports = [1, 2, 4]
    table = {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}
    faces = ref.stanley_reisner_faces(3, supports)
    yield faces == [0], f"faces {faces}"
    yield ref.gens_by_degree(supports) == {1: 3}, "generators by degree"
    numerator = ref.hilbert_numerator(3, faces)
    yield numerator == {0: 1, 1: -3, 2: 3, 3: -1}, f"numerator {numerator}"
    yield ref.alternating_sums(table) == numerator, "alternating sums"
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    yield ref.socle(3, gens) == [(0, 0, 0)], "socle of the maximal ideal"
    yield ref.colon_by_box(3, [1, 1, 1], gens) == 1, "CI : CI is the unit ideal"


def _graphs_without_isolated():
    """4 graphs on 3 vertices and 41 on 4 have no isolated vertex."""
    counts = [len(ref.graph_masks_without_isolated(n)) for n in (3, 4)]
    yield counts == [4, 41], f"counts {counts}"
    yield ref.graph_edges(3, 0b101) == [(0, 1), (1, 2)], "edges of a mask"


def _c5_edge_ideal():
    """S/I(C5): beta_{1,2} = 5, beta_{2,3} = 5, beta_{3,5} = 1; Gorenstein of
    height 3, so licci, with pd 3 and reg 2."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    supports = ref.path_supports(5, edges, 2)
    yield sorted(supports) == sorted(1 << u | 1 << v for u, v in edges), "edges as 2-paths"
    faces = ref.stanley_reisner_faces(5, supports)
    yield len(faces) == 11, f"{len(faces)} independent sets"
    table = {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1}
    numerator = ref.hilbert_numerator(5, faces)
    yield numerator == ref.alternating_sums(table), f"numerator {numerator}"
    yield ref.cycle_pd_reg(2, 5) == (3, 2), f"cycle formulas {ref.cycle_pd_reg(2, 5)}"
    yield ref.cycle_is_licci(2, 5), "C5 at t = 2 is licci"
    yield not ref.is_forest(5, edges) and not ref.is_complete(5, edges), "C5 graph tests"
    yield not ref.complementary_is_cm(5, edges), "complementary ideal of C5 is not CM"


def _hu_worked_example():
    """I = (x1^2, x2^2, x3^2, x1x2, x2x3), linked by CI = (x1^2, x2^2, x3^2) to
    J = (x1^2, x2, x3^2, x1x3); the socle of S/I is {x2, x1x3}."""
    gens = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1)]
    yield ref.pure_powers(3, gens) == [2, 2, 2], "pure powers"
    socle = ref.socle(3, gens)
    yield sorted(socle) == [(0, 1, 0), (1, 0, 1)], f"socle {socle}"
    yield ref.socle_degrees(3, gens) == {1: 1, 2: 1}, "socle degrees"
    colon = ref.colon_by_box(3, [2, 2, 2], gens)
    # box order 000 001 010 011 100 101 110 111; members 010 011 101 110 111
    want = 0b11101100
    yield colon == want, f"CI : I {colon:08b}"
    j = [(2, 0, 0), (0, 1, 0), (0, 0, 2), (1, 0, 1)]
    yield ref.box_members([2, 2, 2], j) == want, "J in the box"
    yield ref.colon_by_box(3, [2, 2, 2], j) == ref.box_members([2, 2, 2], gens), "CI : J = I"


def _suspension_of_an_edge():
    """The 3-path ideal of the 2-suspension of one edge depolarizes to
    (x1, x2)^3, and its path ideal has the four 3-paths."""
    n, edges = ref.suspension_edges(2, [(0, 1)], 3)
    yield n == 6 and edges == [(0, 1), (0, 2), (1, 4), (2, 3), (4, 5)], f"edges {edges}"
    supports = ref.path_supports(6, edges, 3)
    yield len(supports) == 4, f"{len(supports)} paths"
    dep = sorted(ref.depolarize(2, 3, supports))
    yield dep == [(0, 3), (1, 2), (2, 1), (3, 0)], f"depolarized {dep}"
    yield ref.is_star_plus_isolated(2, [(0, 1)]), "an edge is a star"


CASES = (_koszul_3, _graphs_without_isolated, _c5_edge_ideal, _hu_worked_example, _suspension_of_an_edge)


def failures() -> list:
    out = []
    for case in CASES:
        for ok, what in case():
            if not ok:
                out.append(f"{case.__name__.lstrip('_')}: {what}")
    return out


if __name__ == "__main__":
    bad = failures()
    for line in bad:
        print(line)
    print(f"{sum(1 for c in CASES for _ in c())} checks, {len(bad)} failed")
    sys.exit(1 if bad else 0)
