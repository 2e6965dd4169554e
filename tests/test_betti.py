"""Betti tables: both engines against closed forms and each other."""

import random
from math import comb

import pytest

from liccilab.betti import (
    betti_table,
    invariants,
    reg_artinian_socle,
    taylor_oracle,
)
from liccilab.exact import GF2, RATIONALS
from liccilab.graphs import complete, cycle, edge_ideal, t_path_ideal
from liccilab.harness import cycle_formulas, random_monomial_ideal
from liccilab.monomial import IdealError, Monomial, MonomialIdeal
from liccilab.polarization import depolarize_suspension, polarize
from liccilab.squarefree import alexander_dual


def test_koszul_table():
    for n in (1, 2, 3, 4):
        vs = [f"x{i}" for i in range(n)]
        I = MonomialIdeal(vs, [Monomial.variable(n, i) for i in range(n)])
        t = betti_table(I)
        assert t.entries == {(i, i): comb(n, i) for i in range(n + 1)}
        inv = invariants(t, I)
        assert inv.pd == n and inv.reg == 0 and inv.is_gorenstein


def test_complete_intersection_regularity():
    # Koszul resolution: reg(S/I) = sum of degrees minus the count
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 3)
        degrees = [rng.randint(1, 3) for _ in range(n)]
        vs = [f"x{i}" for i in range(n)]
        I = MonomialIdeal(vs, [Monomial.variable(n, i, d) for i, d in enumerate(degrees)])
        t = betti_table(I)
        assert t.reg == sum(degrees) - n
        assert t.pd == n
        assert invariants(t, I).is_gorenstein


def test_c5_engines_agree():
    I = edge_ideal(cycle(5))
    assert betti_table(I).entries == taylor_oracle(I).entries
    assert betti_table(I, GF2).entries == taylor_oracle(I, GF2).entries


def test_small_pd_example():
    I = MonomialIdeal(["x", "y"], [(2, 0), (1, 1)])
    t = taylor_oracle(I)
    assert t.pd == 2
    assert betti_table(I).entries == t.entries


def test_p2_c4_both_fields():
    I = t_path_ideal(cycle(4), 2)
    for f in (RATIONALS, GF2):
        assert betti_table(I, f).entries == taylor_oracle(I, f).entries


def test_first_column_matches_generators():
    rng = random.Random(47)
    for _ in range(15):
        I = random_monomial_ideal(rng)
        t = betti_table(I)
        assert t.entry(0, 0) == 1
        assert t.total(0) == 1
        degs = sorted(g.degree for g in I.gens)
        col1 = sorted(
            j for (i, j), v in t.entries.items() for _ in range(v) if i == 1
        )
        assert col1 == degs


def test_oracle_equivalence_random():
    rng = random.Random(53)
    for _ in range(25):
        I = random_monomial_ideal(rng)
        for f in (RATIONALS, GF2):
            assert betti_table(I, f).entries == taylor_oracle(I, f).entries
            # polarization invariance through the Taylor engine alone
            assert taylor_oracle(polarize(I), f).entries == taylor_oracle(I, f).entries


def test_taylor_generator_cap():
    vs = [f"x{i}" for i in range(15)]
    I = MonomialIdeal(vs, [Monomial.variable(15, i) for i in range(15)])
    with pytest.raises(IdealError):
        taylor_oracle(I)


def test_rejects_zero_and_unit():
    with pytest.raises(IdealError):
        betti_table(MonomialIdeal(["x"], ()))
    with pytest.raises(IdealError):
        betti_table(MonomialIdeal(["x"], [(0,)]))


def test_cycle_formula_spot_checks():
    # closed forms with n = (t+1) q + d, here q = 1, d = 3
    I = t_path_ideal(cycle(7), 3)
    t = betti_table(I)
    assert (t.pd, t.reg) == (3, 4)
    assert (t.pd, t.reg) == cycle_formulas(3, 7)


def test_terai_formula_small():
    rng = random.Random(59)
    for _ in range(25):
        n = rng.randint(3, 6)
        vs = [f"x{i}" for i in range(n)]
        gens = []
        for _ in range(rng.randint(2, 5)):
            e = [0] * n
            for i in rng.sample(range(n), rng.randint(1, n - 1)):
                e[i] = 1
            gens.append(tuple(e))
        I = MonomialIdeal(vs, gens)
        if I.is_zero or I.is_unit:
            continue
        dual = alexander_dual(I)
        assert betti_table(I).reg == betti_table(dual).pd - 1


def test_cm_regularity_achieved_at_the_end():
    # for CM quotients the last column of the table realizes the regularity
    examples = [
        edge_ideal(cycle(5)),
        t_path_ideal(cycle(4), 3),
        depolarize_suspension(complete(3), 2),
        MonomialIdeal(["x", "y"], [(3, 0), (2, 1), (0, 2)]),
    ]
    for I in examples:
        t = betti_table(I)
        inv = invariants(t, I)
        assert inv.is_CM
        assert inv.reg == max(j - t.pd for (i, j) in t.entries if i == t.pd)


def test_socle_regularity_examples():
    I = MonomialIdeal(["x", "y"], [(2, 0), (0, 2)])
    assert reg_artinian_socle(I) == 2
    # pure powers x_i^t: reg = n(t-1)
    for n, t in ((2, 3), (3, 2), (3, 4)):
        vs = [f"x{i}" for i in range(n)]
        I = MonomialIdeal(vs, [Monomial.variable(n, i, t) for i in range(n)])
        assert reg_artinian_socle(I) == n * (t - 1)
        assert reg_artinian_socle(I) == betti_table(I).reg
    with pytest.raises(IdealError):
        reg_artinian_socle(MonomialIdeal(["x", "y"], [(1, 1)]))


def test_socle_regularity_matches_table_on_depolarizations():
    for g, t in ((complete(3), 2), (cycle(4), 2), (complete(3), 3)):
        dep = depolarize_suspension(g, t)
        assert reg_artinian_socle(dep) == betti_table(dep).reg


def test_rp2_ideal_is_characteristic_sensitive():
    # Stanley-Reisner ideal of the 6-vertex projective plane: the table
    # genuinely depends on the field, and each engine tracks its field
    facets = [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ]
    face_masks = set()
    for f in facets:
        m = sum(1 << (v - 1) for v in f)
        sub = m
        while True:
            face_masks.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
    nonfaces = [m for m in range(1 << 6) if m not in face_masks]
    I = MonomialIdeal(
        [f"x{i}" for i in range(6)],
        [Monomial.from_mask(6, m) for m in nonfaces],
    )
    tq = betti_table(I, RATIONALS)
    t2 = betti_table(I, GF2)
    assert tq.entries != t2.entries
    assert tq.pd == 3 and t2.pd == 4
    assert invariants(tq, I).is_CM and not invariants(t2, I).is_CM


def test_render_is_stable():
    out = betti_table(edge_ideal(cycle(5))).render()
    assert out.splitlines()[0].split() == ["0", "1", "2", "3"]
    assert "5" in out
