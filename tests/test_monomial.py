"""Monomial ideal arithmetic against brute-force oracles."""

import random
from itertools import combinations, product

import pytest

from liccilab.monomial import IdealError, Monomial, MonomialIdeal, minimalize


def ideal(vars_, *gens):
    return MonomialIdeal(vars_, gens)


XY = ["x", "y"]
XYZ = ["x", "y", "z"]


def members_up_to(I, bound):
    """All monomials with exponents <= bound that lie in I (oracle helper)."""
    return {
        e
        for e in product(*(range(b + 1) for b in bound))
        if I.membership(Monomial(e))
    }


def brute_colon_members(I, J, bound):
    """m is in I : J iff m*g is in I for every generator g of J."""
    out = set()
    for e in product(*(range(b + 1) for b in bound)):
        m = Monomial(e)
        if all(I.membership(m.times(g)) for g in J.gens):
            out.add(e)
    return out


def brute_height(I):
    n = I.n_vars
    supports = [g.support for g in I.gens]
    for k in range(n + 1):
        for sub in combinations(range(n), k):
            if all(set(s) & set(sub) for s in supports):
                return k
    raise AssertionError("unreachable")


# -- minimalize / membership -------------------------------------------------


def test_minimalize_divisibility():
    I = ideal(XY, (2, 0), (3, 0), (1, 1))
    assert I.gens == (Monomial((2, 0)), Monomial((1, 1)))


def test_minimalize_keeps_already_minimal():
    I = ideal(XYZ, (1, 1, 1))
    assert I.gens == (Monomial((1, 1, 1)),)


def test_minimalize_unit_swallows():
    I = ideal(XY, (0, 0), (1, 0))
    assert I.is_unit


def test_membership():
    I = ideal(XY, (2, 0), (1, 1))
    assert Monomial((2, 1)) in I
    assert Monomial((1, 0)) not in I
    J = ideal(XYZ, (1, 1, 1))
    assert Monomial((1, 1, 0)) not in J


# -- colon ---------------------------------------------------------------


def test_colon_paper_two_whisker_case():
    # ((x10 x11, x20 x21) : (x10 x20)) = (x11, x21)
    v = ["x10", "x11", "x20", "x21"]
    I = ideal(v, (1, 1, 0, 0), (0, 0, 1, 1))
    J = ideal(v, (1, 0, 1, 0))
    assert I.colon(J) == ideal(v, (0, 1, 0, 0), (0, 0, 0, 1))


def test_colon_by_unit_ideal_is_identity():
    I = ideal(XY, (2, 0), (1, 1))
    assert I.colon(ideal(XY, (0, 0))) == I


def test_colon_derived_example_matches_brute_force():
    I = ideal(XY, (3, 0), (2, 1), (0, 3))
    J = ideal(XY, (1, 1))
    Q = I.colon(J)
    assert Q == ideal(XY, (1, 0), (0, 2))
    bound = (4, 4)
    assert members_up_to(Q, bound) == brute_colon_members(I, J, bound)


def test_colon_random_against_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 3)
        vs = [f"x{i}" for i in range(n)]
        gens = [
            tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))
        ]
        div = [
            tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 2))
        ]
        I = MonomialIdeal(vs, [g for g in gens if any(g)] or [(1,) * n])
        J = MonomialIdeal(vs, [g for g in div if any(g)] or [(1,) * n])
        Q = I.colon(J)
        bound = (5,) * n
        assert members_up_to(Q, bound) == brute_colon_members(I, J, bound)


def test_colon_zero_divisor_rejected():
    I = ideal(XY, (1, 0))
    with pytest.raises(IdealError):
        I.colon(MonomialIdeal(XY, ()))


def test_colon_identities():
    rng = random.Random(5)
    for _ in range(30):
        n = 3
        vs = XYZ
        I = MonomialIdeal(
            vs, [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(3)]
        )
        J = MonomialIdeal(
            vs, [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(2)]
        )
        if I.is_zero or J.is_zero:
            continue
        Q = I.colon(J)
        assert I.containment(Q)  # I <= I : J
        assert Q.product(J).containment(I)  # (I : J) J <= I


def test_colon_absorbs_members():
    # (a : (b, f)) = (a : b) for f in a
    v = XYZ
    a = ideal(v, (2, 0, 0), (0, 1, 1))
    b = ideal(v, (1, 1, 0))
    f = Monomial((2, 1, 0))  # inside a
    assert a.membership(f)
    assert a.colon(b) == a.colon(b + MonomialIdeal(v, [f]))


# -- sums, products, powers -------------------------------------------------


def test_sum_and_power():
    x = ideal(XY, (1, 0))
    y = ideal(XY, (0, 1))
    assert x + y == ideal(XY, (1, 0), (0, 1))
    sq = (x + y).power(2)
    assert sq == ideal(XY, (2, 0), (1, 1), (0, 2))


def test_containment():
    assert ideal(XY, (2, 0)).containment(ideal(XY, (1, 0)))
    assert not ideal(XY, (1, 0)).containment(ideal(XY, (2, 0)))


# -- radical / height / alpha ------------------------------------------------


def test_radical():
    assert ideal(XY, (2, 3)).radical() == ideal(XY, (1, 1))
    assert ideal(XY, (2, 0), (1, 1), (0, 3)).radical() == ideal(XY, (1, 0), (0, 1))


def test_height_examples_and_brute_force():
    full = ideal(XYZ, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert full.height() == 3
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randint(2, 5)
        vs = [f"x{i}" for i in range(n)]
        gens = []
        for _ in range(rng.randint(1, 5)):
            e = [0] * n
            for i in rng.sample(range(n), rng.randint(1, n)):
                e[i] = rng.randint(1, 2)
            gens.append(tuple(e))
        I = MonomialIdeal(vs, gens)
        if I.is_zero or I.is_unit:
            continue
        assert I.height() == brute_height(I)
        assert I.height() == I.radical().height()


def test_height_rejects_zero_and_unit():
    with pytest.raises(IdealError):
        MonomialIdeal(XY, ()).height()
    with pytest.raises(IdealError):
        ideal(XY, (0, 0)).height()


def test_alpha():
    assert ideal(XYZ, (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1)).alpha() == 2
    with pytest.raises(IdealError):
        MonomialIdeal(XY, ()).alpha()


# -- artinian structure ------------------------------------------------------


def test_is_artinian():
    assert ideal(XY, (2, 0), (1, 1), (0, 3)).is_artinian()
    assert not ideal(XY, (1, 1)).is_artinian()


def test_standard_form_worked_example():
    v = ["x1", "x2", "x3"]
    I = ideal(v, (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1))
    sf = I.standard_form()
    assert sf.a == (2, 2, 2)
    assert sf.sharp == ideal(v, (1, 1, 0), (0, 1, 1))
    assert tuple(sf.b) == (0, 1, 0)
    assert sf.k_ideal == ideal(v, (1, 0, 0), (0, 0, 1))
    assert sf.recompose() == I


def test_standard_form_complete_intersection():
    I = ideal(XY, (1, 0), (0, 1))
    sf = I.standard_form()
    assert sf.a == (1, 1)
    assert sf.sharp.is_zero and sf.k_ideal.is_zero


def test_standard_form_principal_sharp_part():
    # single-generator sharp: the gcd convention yields the unit ideal as K,
    # so the next iterate is the whole ring; anything else would contradict
    # the fact that height-2 CM (hence every 2-variable Artinian) ideals are
    # licci under the standard-form iteration
    I = ideal(XY, (3, 0), (0, 3), (2, 2))
    sf = I.standard_form()
    assert sf.a == (3, 3)
    assert tuple(sf.b) == (2, 2)
    assert sf.k_ideal.is_unit
    assert sf.recompose() == I


def test_standard_form_invariants_random():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 4)
        vs = [f"x{i}" for i in range(n)]
        a = [rng.randint(1, 3) for _ in range(n)]
        gens = [tuple(a[i] if j == i else 0 for j in range(n)) for i in range(n)]
        for _ in range(rng.randint(0, 3)):
            gens.append(tuple(rng.randint(0, 2) for _ in range(n)))
        I = MonomialIdeal(vs, [g for g in gens if any(g)])
        if not I.is_artinian() or not I.is_proper:
            continue
        sf = I.standard_form()
        assert sf.recompose() == I
        for i, bi in enumerate(sf.b):
            assert bi < sf.a[i]
        if not sf.k_ideal.is_zero and not sf.k_ideal.is_unit:
            masks = [g.support_mask for g in sf.k_ideal.gens]
            common = masks[0]
            for m in masks[1:]:
                common &= m
            assert common == 0  # no variable divides all of K


def test_standard_form_rejects_non_artinian():
    with pytest.raises(IdealError):
        ideal(XY, (1, 1)).standard_form()


def test_is_complete_intersection():
    assert ideal(XYZ, (1, 0, 0), (0, 1, 1)).is_complete_intersection()
    assert not ideal(XYZ, (1, 1, 0), (0, 1, 1)).is_complete_intersection()
    assert ideal(XYZ, (1, 0, 0), (0, 1, 0), (0, 0, 1)).is_complete_intersection()


def test_ci_height_equals_generator_count():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(2, 6)
        vs = [f"x{i}" for i in range(n)]
        pool = list(range(n))
        rng.shuffle(pool)
        gens = []
        while pool:
            size = min(len(pool), rng.randint(1, 2))
            supp, pool = pool[:size], pool[size:]
            e = [0] * n
            for i in supp:
                e[i] = rng.randint(1, 2)
            gens.append(tuple(e))
            if rng.random() < 0.3:
                break
        I = MonomialIdeal(vs, gens)
        assert I.is_complete_intersection()
        assert I.height() == len(I.gens)


# -- socle ---------------------------------------------------------------


def _divides(g, e):
    return all(x <= y for x, y in zip(g, e))


def _box(bound):
    return product(*(range(b + 1) for b in bound))


def _display_sorted(exponents) -> tuple:
    # degree first, then descending lex on the exponents
    return tuple(sorted(exponents, key=lambda e: (sum(e), tuple(-x for x in e))))


def box_socle(n, gens):
    """Socle by walking the box below the pure powers, on plain tuples: e is
    outside (gens) and e + e_i is inside for every i."""
    a = [min(g[i] for g in gens if g[i] and sum(g) == g[i]) for i in range(n)]
    inside = lambda e: any(_divides(g, e) for g in gens)
    out = []
    for e in _box([x - 1 for x in a]):
        if inside(e):
            continue
        if all(inside(e[:i] + (e[i] + 1,) + e[i + 1:]) for i in range(n)):
            out.append(e)
    return _display_sorted(out)


def test_socle_ci():
    I = ideal(XY, (2, 0), (0, 2))
    assert I.socle_monomials() == (Monomial((1, 1)),)


def test_socle_derived_example():
    I = ideal(XY, (3, 0), (2, 1), (0, 2))
    assert set(map(tuple, I.socle_monomials())) == {(2, 0), (1, 1)}
    assert tuple(map(tuple, I.socle_monomials())) == box_socle(2, I.gens)


def test_socle_rejects_non_artinian():
    with pytest.raises(IdealError):
        ideal(XY, (1, 1)).socle_monomials()


# -- socle and intersect on a seeded Artinian corpus ---------------------


def box_minimal_members(n, member, bound):
    """The minimal monomials of a monomial ideal, given by membership, among
    the exponent vectors e <= bound."""
    out = []
    for e in _box(bound):
        if member(e) and not any(
            e[i] and member(e[:i] + (e[i] - 1,) + e[i + 1:]) for i in range(n)
        ):
            out.append(e)
    return _display_sorted(out)


def artinian_corpus(seed=20260811, count=1000):
    """(n, a, generators) for seeded Artinian ideals in 1..5 variables with
    pure powers a_i in 1..6: every one-variable ideal, complete
    intersections, and mixed generators that may be redundant (a multiple
    of another, or a coordinate at a_i) or sit on the boundary a_i - 1."""
    rng = random.Random(seed)
    corpus = [(1, (a,), [(a,)]) for a in range(1, 7)]
    while len(corpus) < count:
        n = rng.randint(1, 5)
        a = tuple(rng.randint(1, 6) for _ in range(n))
        gens = [tuple(a[i] if j == i else 0 for j in range(n)) for i in range(n)]
        kind = rng.random()
        if kind < 0.15 or n == 1:
            corpus.append((n, a, gens))  # pure powers only
            continue
        mixed = []
        for _ in range(rng.randint(1, 6)):
            if mixed and rng.random() < 0.2:
                base = rng.choice(mixed)  # a multiple of another: redundant
                mixed.append(tuple(min(x + rng.randint(0, 1), a[i])
                                   for i, x in enumerate(base)))
                continue
            e = [0] * n
            for i in rng.sample(range(n), rng.randint(2, n)):
                e[i] = rng.choice((1, rng.randint(1, a[i]), max(a[i] - 1, 1), a[i]))
            mixed.append(tuple(e))
        rng.shuffle(mixed)
        corpus.append((n, a, gens + mixed))
    return corpus


def test_socle_matches_box_walk():
    corpus = artinian_corpus()
    assert len(corpus) >= 1000
    kinds = {"one variable": 0, "pure powers only": 0, "mixed": 0}
    for n, a, gens in corpus:
        I = MonomialIdeal([f"x{i}" for i in range(n)], gens)
        got = I.socle_monomials()
        assert all(type(m) is Monomial for m in got)
        assert tuple(map(tuple, got)) == box_socle(n, gens), gens
        if n == 1:
            kinds["one variable"] += 1
        elif len(I.gens) == n:
            kinds["pure powers only"] += 1
        else:
            kinds["mixed"] += 1
    assert min(kinds.values()) >= 50, kinds


def test_intersect_matches_box_membership():
    rng = random.Random(907)
    for n, a, gens in artinian_corpus(seed=907):
        other = [tuple(rng.randint(0, 3) for _ in range(n))
                 for _ in range(rng.randint(0, 4))]
        other = [g for g in other if any(g)]
        vs = [f"x{i}" for i in range(n)]
        I, J = MonomialIdeal(vs, gens), MonomialIdeal(vs, other)
        bound = [max(g[i] for g in gens + other) for i in range(n)]
        both = lambda e: (any(_divides(g, e) for g in gens)
                          and any(_divides(g, e) for g in other))
        want = box_minimal_members(n, both, bound)
        assert tuple(map(tuple, I.intersect(J).gens)) == want, (gens, other)
        assert tuple(map(tuple, J.intersect(I).gens)) == want, (gens, other)


# -- structural ---------------------------------------------------------


def test_equality_ignores_names():
    assert ideal(XY, (1, 0)) == ideal(["a", "b"], (1, 0))
    assert ideal(XY, (1, 0)) != ideal(["a", "b", "c"], (1, 0, 0))


def test_variable_cap(monkeypatch):
    monkeypatch.setenv("LICCILAB_MAX_VARS", "4")
    with pytest.raises(IdealError):
        MonomialIdeal([f"x{i}" for i in range(5)], ())
    monkeypatch.setenv("LICCILAB_MAX_VARS", "30")
    MonomialIdeal([f"x{i}" for i in range(25)], ())


def test_reorder_to():
    I = ideal(["a", "b"], (2, 1))
    J = I.reorder_to(["b", "a"])
    assert J.gens == (Monomial((1, 2)),)
