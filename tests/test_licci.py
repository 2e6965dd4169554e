"""Licci machinery: the standard-form iteration, the obstruction, the
classifier cascade and the height bound."""

import random

import pytest

from liccilab.betti import betti_table, invariants
from liccilab.graphs import complete, cycle, from_edges, path, star, t_path_ideal
from liccilab.licci import (
    LICCI,
    NOT_LICCI,
    UNKNOWN,
    audit_rules,
    classify,
    hu_decide,
    hu_step,
    licci_bound_check,
    obstruction_not_licci,
)
from liccilab.exact import RATIONALS
from liccilab.graphs import complementary_edge_ideal
from liccilab.monomial import IdealError, Monomial, MonomialIdeal
from liccilab.polarization import depolarize_suspension

V3 = ["x1", "x2", "x3"]
WORKED = MonomialIdeal(V3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1)])


# -- hu_step ------------------------------------------------------------------


def test_hu_step_worked_example():
    step = hu_step(WORKED)
    assert step.kind == "next"
    assert step.next_ideal == MonomialIdeal(V3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_hu_step_complete_intersection_is_unit():
    step = hu_step(MonomialIdeal(["x", "y"], [(1, 0), (0, 1)]))
    assert step.kind == "unit"


def test_hu_step_principal_sharp_jumps_to_ring():
    # sharp = (xy): the gcd convention gives K = (1) and the next iterate S.
    # This is forced: (x^2, xy, y^2) is Artinian of height 2, hence CM of
    # height 2, hence licci, so the iteration must reach the ring.
    step = hu_step(MonomialIdeal(["x", "y"], [(2, 0), (1, 1), (0, 2)]))
    assert step.kind == "next"
    assert step.next_ideal.is_unit


def test_hu_step_fixpoint():
    I = depolarize_suspension(complete(3), 2)  # whiskered triangle, t = 2
    sf = I.standard_form()
    assert sf.b.is_unit
    assert hu_step(I).kind == "fixpoint"


def test_hu_step_rejects_non_artinian():
    with pytest.raises(IdealError):
        hu_step(MonomialIdeal(["x", "y"], [(1, 1)]))


# -- hu_decide ---------------------------------------------------------------


def test_hu_decide_worked_example_trace():
    v = hu_decide(WORKED)
    assert v.status == LICCI
    assert len(v.hu_trace) == 2
    assert v.hu_trace[0].ideal == MonomialIdeal(V3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert v.hu_trace[1].ideal.is_unit
    assert v.hu_trace[0].k == 1 and v.hu_trace[1].k == 2


def test_hu_decide_pure_powers_one_step():
    I = MonomialIdeal(V3, [(4, 0, 0), (0, 4, 0), (0, 0, 4)])
    v = hu_decide(I)
    assert v.status == LICCI and len(v.hu_trace) == 1
    assert v.hu_trace[0].note == "complete intersection"


def test_hu_decide_fixpoint_star():
    # stars with >= 2 edges at t > 2 stop at the first fixpoint
    for k in (2, 3):
        dep = depolarize_suspension(star(k), 3)
        v = hu_decide(dep)
        assert v.status == NOT_LICCI
        assert v.hu_trace[-1].note == "fixpoint: gcd of sharp part is 1"


def test_hu_decide_two_variable_artinian_always_licci():
    # height-2 CM consistency: every Artinian ideal in two variables is licci
    import random

    rng = random.Random(61)
    for _ in range(40):
        a = [rng.randint(1, 4), rng.randint(1, 4)]
        gens = [(a[0], 0), (0, a[1])]
        for _ in range(rng.randint(0, 3)):
            e = (rng.randint(0, a[0] - 1), rng.randint(0, a[1] - 1))
            if any(e):
                gens.append(e)
        I = MonomialIdeal(["x", "y"], gens)
        assert hu_decide(I).status == LICCI, I


def test_hu_decide_edge_t4_uses_principal_sharp_convention():
    # single edge at t = 4: the ladder passes through (x^2, xy, y^2)
    dep = depolarize_suspension(star(1), 4)
    v = hu_decide(dep)
    assert v.status == LICCI
    assert v.hu_trace[0].ideal == MonomialIdeal(["x1", "x2"], [(2, 0), (1, 1), (0, 2)])
    assert v.hu_trace[1].ideal.is_unit


# -- obstruction -------------------------------------------------------------


def test_obstruction_complementary_k4():
    I = complementary_edge_ideal(complete(4))
    inv = invariants(betti_table(I), I)
    assert inv.is_CM and inv.reg == 1 and inv.pd == 3 and inv.alpha == 2
    assert obstruction_not_licci(I, inv)


def test_obstruction_two_variables_free():
    I = MonomialIdeal(["x", "y"], [(1, 0), (0, 1)])
    inv = invariants(betti_table(I), I)
    assert not obstruction_not_licci(I, inv)


def test_obstruction_rejects_non_cm():
    I = t_path_ideal(cycle(8), 3)
    inv = invariants(betti_table(I), I)
    assert not inv.is_CM
    # the arithmetic of the inequality still holds on this instance
    assert inv.reg <= (inv.alpha - 1) * inv.pd - inv.alpha
    with pytest.raises(IdealError):
        obstruction_not_licci(I, inv)


# -- classifier --------------------------------------------------------------


def test_classify_rejects_zero_and_unit():
    for decide in (classify, audit_rules):
        with pytest.raises(IdealError):
            decide(MonomialIdeal(["x"], ()))
        with pytest.raises(IdealError):
            decide(MonomialIdeal(["x"], [(0,)]))


def test_classify_cycle_certificates():
    # n = t: principal; n = t+1: CM height 2; n = 2t+1: Gorenstein height 3
    v = classify(t_path_ideal(cycle(3), 3))
    assert v.status == LICCI and v.fired_rule == "R2"
    v = classify(t_path_ideal(cycle(4), 3))
    assert v.status == LICCI and v.fired_rule == "R3"
    v = classify(t_path_ideal(cycle(7), 3))
    assert v.status == LICCI and v.fired_rule == "R4"
    v = classify(t_path_ideal(cycle(5), 3))
    assert v.status == NOT_LICCI and v.fired_rule == "R1"


def test_classify_worked_example_via_iteration():
    v = classify(WORKED)
    assert v.status == LICCI and v.fired_rule == "R6"
    assert len(v.hu_trace) == 2


def test_classify_complementary_k4_obstructed():
    v = classify(complementary_edge_ideal(complete(4)))
    assert v.status == NOT_LICCI and v.fired_rule == "R5"


def test_classify_forest_complementary_height_two():
    g = from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    v = classify(complementary_edge_ideal(g))
    assert v.status == LICCI and v.fired_rule == "R3"


def test_classify_every_rule_carries_citation():
    ideals = [
        WORKED,
        t_path_ideal(cycle(4), 3),
        t_path_ideal(cycle(7), 3),
        t_path_ideal(cycle(5), 3),
        complementary_edge_ideal(complete(4)),
        MonomialIdeal(["x", "y"], [(1, 1)]),
    ]
    for I in ideals:
        v = classify(I)
        assert v.rules, I
        for firing in v.rules:
            assert firing.citation and firing.rule.startswith("R")


def test_classifier_invariant_under_permutation():
    import random

    rng = random.Random(67)
    for I in (WORKED, t_path_ideal(cycle(5), 2), complementary_edge_ideal(complete(4))):
        base = classify(I).status
        for _ in range(4):
            perm = list(range(I.n_vars))
            rng.shuffle(perm)
            assert classify(I.permute_vars(perm)).status == base


def test_audit_rules_never_contradict():
    ideals = [
        WORKED,
        MonomialIdeal(["x", "y"], [(2, 0), (1, 1), (0, 2)]),
        depolarize_suspension(star(2), 3),
        depolarize_suspension(complete(3), 2),
        t_path_ideal(cycle(5), 2),
        complementary_edge_ideal(complete(4)),
    ] + _drift_corpus()
    for I in ideals:
        statuses = set(audit_rules(I).values())
        assert not (LICCI in statuses and NOT_LICCI in statuses), I


def test_r5_and_iteration_agree_on_obstructed_artinian():
    # m^2 in three variables: obstructed and a fixpoint, never contradictory
    m2 = MonomialIdeal(V3, [(2, 0, 0), (0, 2, 0), (0, 0, 2),
                            (1, 1, 0), (1, 0, 1), (0, 1, 1)])
    rules = audit_rules(m2)
    assert rules.get("R5") == NOT_LICCI
    assert rules.get("R6") == NOT_LICCI


def test_bound_check():
    I = MonomialIdeal(["x", "y"], [(1, 0), (0, 1)])
    assert licci_bound_check(I, classify(I))
    c5 = t_path_ideal(cycle(5), 2)
    v = classify(c5)
    assert v.status == LICCI and v.fired_rule == "R4"
    assert c5.height() == 3 and 5 // c5.alpha() + 1 == 3
    assert licci_bound_check(c5, v)
    with pytest.raises(IdealError):
        licci_bound_check(MonomialIdeal(["x"], [(2,)]), classify(MonomialIdeal(["x"], [(2,)])))


def test_tree_paths():
    for t in (2, 3, 4):
        assert classify(t_path_ideal(path(t), t)).status == LICCI
        assert classify(t_path_ideal(path(2 * t), t)).status == LICCI
    assert classify(t_path_ideal(path(5), 3)).status == NOT_LICCI


# -- one rule table behind classify and audit_rules ---------------------------


def _drift_corpus():
    from liccilab import harness as h

    rng = random.Random(h.DEFAULT_SEED + 4)
    out = [h.random_squarefree_ideal(rng) for _ in range(100)]
    out += [h.random_artinian_ideal(rng) for _ in range(60)]
    out += [h.random_monomial_ideal(rng) for _ in range(60)]
    out += [t_path_ideal(cycle(n), t) for t, n in h.cycle_grid()]
    out += [depolarize_suspension(g, t)
            for _, g in h.curated_suspension_graphs() for t in (2, 3)]
    # the bi-CM instances of T12, which reach R7
    for k, n in ((2, 3), (3, 3), (3, 5), (4, 6)):
        out.append(MonomialIdeal([f"x{i + 1}" for i in range(n)],
                                 [Monomial.variable(n, i) for i in range(k)]))
    out += [complementary_edge_ideal(complete(n)) for n in (4, 5, 6)]
    rng = random.Random(h.DEFAULT_SEED + 12)
    out += [h.random_squarefree_ideal(rng, max_n=6) for _ in range(150)]
    return out


def test_classify_is_the_first_audited_rule():
    fired = set()
    for I in _drift_corpus():
        verdict = classify(I)
        audit = audit_rules(I)
        fired |= set(audit)
        if not audit:
            assert verdict.status == UNKNOWN and verdict.fired_rule == "", I
            continue
        first = next(iter(audit))
        assert (verdict.status, verdict.fired_rule) == (audit[first], first), I
    assert fired == {f"R{i}" for i in range(1, 8)}


def test_artinian_invariants_match_betti_table():
    from liccilab import harness as h
    from liccilab.licci import _Facts
    from liccilab.polarization import polarize

    rng = random.Random(h.DEFAULT_SEED + 17)
    ideals = [h.random_artinian_ideal(rng) for _ in range(60)]
    ideals += [dep for _, g in h.curated_suspension_graphs() for t in (2, 3)
               if polarize(dep := depolarize_suspension(g, t)).n_vars <= 12]
    for I in ideals:
        assert I.is_artinian()
        assert _Facts(I, RATIONALS).inv == invariants(betti_table(I), I), I
