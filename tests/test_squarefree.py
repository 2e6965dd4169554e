"""Stanley-Reisner complexes, reduced homology conventions, minimal primes
and Alexander duality."""

import random
from itertools import combinations

import pytest

from liccilab.exact import GF2, RATIONALS, FieldSpec
from liccilab.graphs import cycle, edge_ideal
from liccilab.monomial import IdealError, Monomial, MonomialIdeal
from liccilab.squarefree import (
    SimplicialComplex,
    alexander_dual,
    faces_avoiding,
    minimal_primes,
    reduced_homology_dims,
    stanley_reisner,
)


def sf_ideal(vars_, *supports):
    n = len(vars_)
    gens = []
    for s in supports:
        e = [0] * n
        for i in s:
            e[i] = 1
        gens.append(tuple(e))
    return MonomialIdeal(vars_, gens)


V4 = ["x1", "x2", "x3", "x4"]
V5 = ["x1", "x2", "x3", "x4", "x5"]


# -- complexes and conventions ---------------------------------------------


def test_void_and_irrelevant_are_distinct():
    void = SimplicialComplex.void(V4)
    irr = SimplicialComplex.irrelevant(V4)
    assert void.is_void and not irr.is_void
    assert void != irr
    assert reduced_homology_dims(void) == ()
    assert reduced_homology_dims(irr) == (1,)


def test_downward_closure():
    c = SimplicialComplex(["a", "b", "c"], {0b111})
    assert len(c.faces) == 8
    assert c.dim == 2


def test_stanley_reisner_single_edge():
    I = sf_ideal(["x1", "x2"], (0, 1))
    c = stanley_reisner(I)
    assert c.faces == frozenset({0b00, 0b01, 0b10})


def test_stanley_reisner_all_variables_gives_irrelevant():
    I = sf_ideal(V4, (0,), (1,), (2,), (3,))
    assert stanley_reisner(I) == SimplicialComplex.irrelevant(V4)


def test_stanley_reisner_c5_is_independence_complex():
    I = edge_ideal(cycle(5))
    c = stanley_reisner(I)
    edges = {(u, v) for u, v in cycle(5).edges}
    for mask in range(1 << 5):
        verts = [i for i in range(5) if mask >> i & 1]
        independent = all(
            (min(u, v), max(u, v)) not in edges for u, v in combinations(verts, 2)
        )
        assert (mask in c.faces) == independent
    assert len(c.faces) == 11


def test_stanley_reisner_rejects_non_squarefree():
    with pytest.raises(IdealError):
        stanley_reisner(MonomialIdeal(["x", "y"], [(2, 0)]))


def test_face_enumeration_cap_refuses_at_once():
    vs = [f"x{i}" for i in range(23)]
    with pytest.raises(IdealError, match="face enumeration limit 22"):
        stanley_reisner(sf_ideal(vs, (0, 1)))
    with pytest.raises(IdealError, match="face enumeration limit 22"):
        faces_avoiding(23, [])


def test_stanley_reisner_round_trip():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 6)
        vs = [f"x{i}" for i in range(n)]
        supports = [
            rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 4))
        ]
        I = sf_ideal(vs, *supports)
        if I.is_unit:
            continue
        c = stanley_reisner(I)
        nonfaces = [m for m in range(1 << n) if m not in c.faces]
        rebuilt = MonomialIdeal(vs, [Monomial.from_mask(n, m) for m in nonfaces])
        assert rebuilt == I


# -- homology ---------------------------------------------------------------


def test_hollow_triangle_is_a_circle():
    c = SimplicialComplex(["a", "b", "c"], {0b011, 0b101, 0b110})
    assert reduced_homology_dims(c) == (0, 0, 1)


def test_full_simplex_contractible():
    c = SimplicialComplex(V4, {0b1111})
    assert all(d == 0 for d in reduced_homology_dims(c))


def test_boundary_of_simplex_is_a_sphere():
    faces = {m for m in range(1 << 4) if m != 0b1111}
    c = SimplicialComplex(V4, faces, closed=True)
    assert reduced_homology_dims(c) == (0, 0, 0, 1)


def test_two_points():
    c = SimplicialComplex(["a", "b"], {0b01, 0b10})
    assert reduced_homology_dims(c) == (0, 1)


def test_homology_independent_of_vertex_order():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(3, 6)
        facets = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 4))]
        c = SimplicialComplex([f"v{i}" for i in range(n)], facets)
        perm = list(range(n))
        rng.shuffle(perm)
        remapped = [
            sum(1 << perm[i] for i in range(n) if f >> i & 1) for f in c.faces
        ]
        c2 = SimplicialComplex([f"v{i}" for i in range(n)], remapped, closed=True)
        assert reduced_homology_dims(c) == reduced_homology_dims(c2)


RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def test_projective_plane_detects_characteristic():
    masks = [sum(1 << (v - 1) for v in f) for f in RP2_FACETS]
    c = SimplicialComplex([f"v{i}" for i in range(1, 7)], masks)
    assert reduced_homology_dims(c, RATIONALS) == (0, 0, 0, 0)
    assert reduced_homology_dims(c, GF2) == (0, 0, 1, 1)
    assert reduced_homology_dims(c, FieldSpec(3)) == (0, 0, 0, 0)


# -- minimal primes and duality ----------------------------------------------


def brute_minimal_primes(I):
    n = I.n_vars
    supports = [set(g.support) for g in I.gens]
    covers = [
        set(sub)
        for k in range(n + 1)
        for sub in combinations(range(n), k)
        if all(s & set(sub) for s in supports)
    ]
    minimal = [c for c in covers if not any(o < c for o in covers)]
    return sorted(tuple(sorted(c)) for c in minimal)


def test_minimal_primes_principal():
    I = sf_ideal(["x1", "x2"], (0, 1))
    assert minimal_primes(I) == ((0,), (1,))


def test_minimal_primes_complementary_example():
    # generators x3x4, x2x4, x2x3, x1x4 decompose as (x2,x4) ^ (x3,x4) ^ (x1,x2,x3)
    I = sf_ideal(V4, (2, 3), (1, 3), (1, 2), (0, 3))
    primes = minimal_primes(I)
    assert primes == ((1, 3), (2, 3), (0, 1, 2))
    parts = [
        MonomialIdeal(V4, [tuple(1 if i == j else 0 for i in range(4)) for j in p])
        for p in primes
    ]
    meet = parts[0]
    for part in parts[1:]:
        meet = meet.intersect(part)
    assert meet == I


def test_minimal_primes_maximal_ideal():
    I = sf_ideal(V4, (0,), (1,), (2,), (3,))
    assert minimal_primes(I) == ((0, 1, 2, 3),)


def test_minimal_primes_random_against_brute_force():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 6)
        vs = [f"x{i}" for i in range(n)]
        supports = [
            rng.sample(range(n), rng.randint(1, n - 1))
            for _ in range(rng.randint(1, 5))
        ]
        I = sf_ideal(vs, *supports)
        if I.is_unit or I.is_zero:
            continue
        got = sorted(minimal_primes(I))
        assert got == sorted(brute_minimal_primes(I))


def test_alexander_dual_basics():
    I = sf_ideal(["x1", "x2"], (0, 1))
    assert alexander_dual(I) == sf_ideal(["x1", "x2"], (0,), (1,))
    J = sf_ideal(["x1", "x2"], (0,), (1,))
    assert alexander_dual(J) == I


def test_alexander_dual_involution_and_invariant_duality():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 7)
        vs = [f"x{i}" for i in range(n)]
        supports = [
            rng.sample(range(n), rng.randint(1, n - 1))
            for _ in range(rng.randint(1, 5))
        ]
        I = sf_ideal(vs, *supports)
        if I.is_unit or I.is_zero:
            continue
        d = alexander_dual(I)
        assert alexander_dual(d) == I
        assert I.alpha() == d.height()
        assert d.alpha() == I.height()


def test_dual_rejects_bad_input():
    with pytest.raises(IdealError):
        alexander_dual(MonomialIdeal(V4, ()))
    with pytest.raises(IdealError):
        alexander_dual(MonomialIdeal(["x", "y"], [(2, 0)]))
