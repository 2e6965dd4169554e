"""The star-quotient homology core against an unreduced reference.

``homology_dims_of_faces`` and the Hochster loop of ``betti_table``
quotient every complex by the closed star of one vertex before they rank
anything, and ``betti_table`` reads each Delta_W off a face bitmap.  The
reference below ranks the full augmented boundary matrices instead, and
enumerates every face list by brute force, so a bug in the quotient or in
the bitmaps cannot agree with itself; only ``rank_rows`` is shared.
"""

import random

import pytest

from liccilab.betti import betti_table, taylor_oracle
from liccilab.exact import GF2, RATIONALS, FieldSpec, rank_rows
from liccilab.graphs import suspension, t_path_ideal
from liccilab.harness import curated_suspension_graphs
from liccilab.monomial import MonomialIdeal
from liccilab.squarefree import (
    SimplicialComplex,
    faces_avoiding,
    homology_dims_of_faces,
    reduced_homology_dims,
)

FIELDS = (RATIONALS, GF2, FieldSpec(3))


def unreduced_dims(faces, field):
    """Reduced homology from the boundary ranks of every face, no reduction."""
    if not faces:
        return ()
    by_size = {}
    for f in faces:
        by_size.setdefault(bin(f).count("1"), []).append(f)
    top = max(by_size)
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        below = {g: r for r, g in enumerate(by_size.get(s - 1, []))}
        rows = {}
        for c, f in enumerate(by_size.get(s, [])):
            bits = [i for i in range(f.bit_length()) if f >> i & 1]
            for k, i in enumerate(bits):
                rows.setdefault(below[f ^ (1 << i)], {})[c] = (-1) ** k
        ranks[s] = rank_rows(rows, field)
    return tuple(
        len(by_size.get(s, [])) - ranks[s] - ranks[s + 1] for s in range(top + 1)
    )


def submasks(w):
    m = w
    while True:
        yield m
        if m == 0:
            return
        m = (m - 1) & w


def induced_complexes(supports):
    """Delta_W of the squarefree ideal with these supports, for every union W
    of supports (the W that Hochster's formula visits), by brute force."""
    unions = {0}
    for s in supports:
        unions |= {u | s for u in unions}
    for w in sorted(unions):
        yield w, sorted(
            f for f in submasks(w) if not any(f & s == s for s in supports)
        )


def assert_agrees(faces, label):
    for field in FIELDS:
        got = homology_dims_of_faces(list(faces), field)
        assert got == unreduced_dims(faces, field), (label, str(field))


def random_squarefree_supports(rng):
    n = rng.randint(3, 9)
    supports = {
        sum(1 << i for i in rng.sample(range(n), rng.randint(1, min(4, n))))
        for _ in range(rng.randint(1, 9))
    }
    return n, sorted(supports)


def seeded_corpus():
    rng = random.Random(20260811)
    return [random_squarefree_supports(rng) for _ in range(100)]


def ideal_of(n, supports):
    gens = [tuple(s >> i & 1 for i in range(n)) for s in supports]
    return MonomialIdeal([f"x{i + 1}" for i in range(n)], gens)


def test_reference_on_known_spaces():
    circle = [0, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110]
    assert unreduced_dims(circle, RATIONALS) == (0, 0, 1)
    assert unreduced_dims([0, 0b01, 0b10], GF2) == (0, 1)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_suspension_path_ideals_every_induced_complex(t):
    seen = 0
    for name, g in curated_suspension_graphs():
        ideal = t_path_ideal(suspension(g, t), t)
        if ideal.n_vars > 12:
            continue
        supports = [gen.support_mask for gen in ideal.gens]
        for w, faces in induced_complexes(supports):
            assert_agrees(faces, f"{name} t={t} W={w:b}")
            seen += 1
    assert seen > 0


def test_seeded_random_squarefree_corpus():
    for n, supports in seeded_corpus():
        for w, faces in induced_complexes(supports):
            assert_agrees(faces, f"n={n} supports={supports} W={w:b}")


def hochster_reference(supports, field):
    """Betti entries of S/I by Hochster's formula over brute-force Delta_W:
    the homology at face size s, H~_{s-1}(Delta_W), goes to beta_{|W|-s,|W|}."""
    entries = {}
    for w, faces in induced_complexes(supports):
        j = bin(w).count("1")
        for s, h in enumerate(unreduced_dims(faces, field)):
            if h:
                entries[(j - s, j)] = entries.get((j - s, j), 0) + h
    return entries


def hochster_corpus():
    for t in (2, 3):
        for name, g in curated_suspension_graphs():
            ideal = t_path_ideal(suspension(g, t), t)
            if ideal.n_vars <= 12:
                yield f"{name} t={t}", ideal
    for n, supports in seeded_corpus():
        yield f"n={n} supports={supports}", ideal_of(n, supports)


def test_betti_table_matches_brute_force_hochster():
    checked = 0
    for label, ideal in hochster_corpus():
        supports = [gen.support_mask for gen in ideal.gens]
        for field in FIELDS:
            expected = hochster_reference(supports, field)
            assert betti_table(ideal, field).entries == expected, (label, str(field))
        checked += 1
    assert checked > 100


def brute_force_faces(n, supports):
    return [m for m in range(1 << n) if not any(m & s == s for s in supports)]


def test_faces_avoiding_matches_submask_filter():
    for n, supports in seeded_corpus():
        assert faces_avoiding(n, supports) == brute_force_faces(n, supports)
    for n in (0, 1, 4, 7):
        # no supports: every subset is a face
        assert faces_avoiding(n, []) == list(range(1 << n))
        # the support of all variables removes only the full set
        full = (1 << n) - 1
        assert faces_avoiding(n, [full]) == list(range(full))
    for n in (1, 4, 7):
        for v in range(n):
            # a one-variable support removes every set holding that vertex
            assert faces_avoiding(n, [1 << v]) == [
                m for m in range(1 << n) if not m >> v & 1
            ]


def test_seeded_corpus_hochster_matches_taylor():
    checked = 0
    for n, supports in seeded_corpus():
        if len(supports) > 14:
            continue
        ideal = ideal_of(n, supports)
        for field in FIELDS:
            assert betti_table(ideal, field) == taylor_oracle(ideal, field)
        checked += 1
    assert checked == 100


RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def test_edge_cases():
    assert homology_dims_of_faces([]) == () == unreduced_dims([], RATIONALS)
    assert_agrees([], "void")
    assert_agrees([0], "irrelevant")
    assert homology_dims_of_faces([0], GF2) == (1,)
    assert_agrees(list(range(1 << 5)), "full simplex")
    # x1 is a generator, so vertex 1 is no face of any Delta_W containing it
    for w, faces in induced_complexes([0b0001, 0b0110, 0b1100]):
        assert_agrees(faces, f"variable generator W={w:b}")
    masks = [sum(1 << (v - 1) for v in f) for f in RP2_FACETS]
    rp2 = SimplicialComplex([f"v{i}" for i in range(1, 7)], masks)
    assert_agrees(sorted(rp2.faces), "RP2")
    assert reduced_homology_dims(rp2, GF2) == (0, 0, 1, 1)
    assert reduced_homology_dims(rp2, RATIONALS) == (0, 0, 0, 0)
    assert reduced_homology_dims(rp2, FieldSpec(3)) == (0, 0, 0, 0)
