"""Rank computation against independent oracles: minor enumeration and a
Fraction-based Gaussian elimination that shares no code with the library."""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from liccilab.exact import GF2, FieldSpec, RATIONALS, _is_prime, prime_field, rank_rows


def dense_rows(dense):
    """{row: {col: value}} form of a dense matrix, zeros left out."""
    return {
        r: {c: v for c, v in enumerate(row) if v} for r, row in enumerate(dense)
    }


def transpose(dense):
    return [list(col) for col in zip(*dense)]


def det(rows):
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * det(minor)
    return total


def rank_by_minors(dense):
    """Largest k with a nonzero k x k minor; brute force."""
    nr = len(dense)
    nc = len(dense[0]) if nr else 0
    for k in range(min(nr, nc), 0, -1):
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                if det([[dense[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def rank_by_fractions(dense, p=0):
    """Reference rank via plain Gaussian elimination over Q or GF(p)."""
    if p == 0:
        m = [[Fraction(v) for v in row] for row in dense]
    else:
        m = [[v % p for v in row] for row in dense]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(nr):
            if i != r and m[i][c]:
                if p == 0:
                    f = m[i][c] / m[r][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                else:
                    f = m[i][c] * pow(m[r][c], -1, p) % p
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


SIMPLEX3_D1 = [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]  # edges x vertices


def test_empty_matrix_has_rank_zero():
    assert rank_rows({}, RATIONALS) == 0
    assert rank_rows(dense_rows([[0] * 3] * 5), GF2) == 0


def test_identity_rank():
    assert rank_rows(dense_rows([[1, 0], [0, 1]]), RATIONALS) == 2


def test_simplex_boundary_rank_matches_minor_enumeration():
    assert rank_by_minors(SIMPLEX3_D1) == 2
    assert rank_rows(dense_rows(SIMPLEX3_D1), RATIONALS) == 2


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(-3)
    assert prime_field(32749).p == 32749
    assert str(RATIONALS) == "QQ"


@pytest.mark.parametrize("p", [0, 2, 3, 32749])
def test_random_matrices_match_reference(p):
    rng = random.Random(1000 + p)
    field = RATIONALS if p == 0 else FieldSpec(p)
    for _ in range(60):
        nr = rng.randint(0, 7)
        nc = rng.randint(0, 7)
        dense = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        r = rank_rows(dense_rows(dense), field)
        assert r == rank_by_fractions(dense, p)
        assert r == rank_rows(dense_rows(transpose(dense)), field)


def test_rank_bounded_by_dimensions():
    rng = random.Random(7)
    for _ in range(30):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)]
        assert rank_rows(dense_rows(dense)) <= min(nr, nc)


def random_complex_boundaries(rng, n):
    """Boundary matrices (per dimension) of a random complex on n vertices."""
    facets = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 5))]
    faces = set()
    stack = list(facets)
    while stack:
        f = stack.pop()
        if f in faces:
            continue
        faces.add(f)
        for i in range(n):
            if f >> i & 1:
                stack.append(f & ~(1 << i))
    layers = {}
    for f in faces:
        layers.setdefault(bin(f).count("1"), []).append(f)
    for fl in layers.values():
        fl.sort()
    out = []
    for s in range(1, max(layers) + 1):
        below = {f: i for i, f in enumerate(layers.get(s - 1, []))}
        dense = [[0] * len(layers.get(s, [])) for _ in below]
        for j, f in enumerate(layers.get(s, [])):
            sign = 1
            for i in range(n):
                if f >> i & 1:
                    dense[below[f & ~(1 << i)]][j] = sign
                    sign = -sign
        if dense and dense[0]:
            out.append(dense)
    return out


def test_boundary_matrix_ranks_agree_across_fields():
    # simplicial boundary matrices of small random complexes eliminate with
    # unit pivots, so the rank cannot depend on the field unless there is
    # honest torsion; any disagreement must be confirmed by the reference
    rng = random.Random(2024)
    torsion_cases = 0
    for _ in range(120):
        n = rng.randint(2, 6)
        for dense in random_complex_boundaries(rng, n):
            m = dense_rows(dense)
            rq = rank_rows(m, RATIONALS)
            assert rq == rank_by_fractions(dense, 0)
            for p in (2, 3, 32749):
                rp = rank_rows(m, FieldSpec(p))
                assert rp == rank_by_fractions(dense, p)
                if rp != rq:
                    torsion_cases += 1
    assert torsion_cases == 0


def test_large_sparse_path_exercised():
    # force the sparse elimination branch (above the dense cutoff), on a
    # random matrix and on one whose last 30 rows depend on its first 60,
    # where a pivot that fails to clear its column overcounts the rank
    rng = random.Random(99)
    nr = nc = 90
    dense = [[0] * nc for _ in range(nr)]
    for _ in range(600):
        dense[rng.randrange(nr)][rng.randrange(nc)] = rng.choice([-1, 1, 2, -3])
    deficient = dense[:60]
    for _ in range(30):
        i, j = rng.randrange(60), rng.randrange(60)
        a, b = rng.choice([1, -1, 2]), rng.choice([1, 3])
        deficient.append([a * x + b * y for x, y in zip(dense[i], dense[j])])
    for rows in (dense, deficient):
        m = dense_rows(rows)
        assert rank_rows(m, RATIONALS) == rank_by_fractions(rows, 0)
        # over GF(p) with p > 2 a unit pivot is not only +-1
        for p in (2, 3, 32749):
            assert rank_rows(m, FieldSpec(p)) == rank_by_fractions(rows, p)


def sieve(limit):
    flags = [True] * limit
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(flags[i * i :: i])
    return flags


def test_primality_agrees_with_sieve_below_10000():
    flags = sieve(10_000)
    for p in range(10_000):
        assert _is_prime(p) == flags[p], p


def test_primality_rejects_pseudoprimes():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7
    for n in (561, 2047, 3215031751):
        assert not _is_prime(n)
        with pytest.raises(ValueError):
            FieldSpec(n)


def test_large_machine_word_prime_is_accepted_at_once():
    start = time.perf_counter()
    assert prime_field(2**61 - 1).p == 2**61 - 1
    with pytest.raises(ValueError):
        prime_field(2**61 + 1)
    assert time.perf_counter() - start < 1.0
