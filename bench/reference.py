"""Reference computations written apart from liccilab.

Nothing here imports the package.  Ideals are plain data: a list of
exponent tuples over ``n`` variables, or a list of support bitmasks for
squarefree ideals.  Each function is a brute-force or closed-form answer
that the benchmark compares liccilab's outputs against; the cases that
can be checked by hand are in ``selftest.py``.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb


# -- graphs ------------------------------------------------------------------


def suspension_edges(n: int, edges, t: int) -> tuple:
    """Vertex count and edges of the graph with a pendant path on t-1 new
    vertices at every vertex.  Whisker j of base vertex i is vertex
    n + i(t-1) + j - 1, the order liccilab's ``suspension`` also uses."""
    out = set(edges)
    for i in range(n):
        prev = i
        for j in range(1, t):
            w = n + i * (t - 1) + j - 1
            out.add((min(prev, w), max(prev, w)))
            prev = w
    return n * t, sorted(out)


def path_supports(n: int, edges, t: int) -> set:
    """Vertex sets (as bitmasks) of the simple paths on t vertices."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    found = set()
    stack = [(v, 1 << v, 1) for v in range(n)]
    while stack:
        last, seen, size = stack.pop()
        if size == t:
            found.add(seen)
            continue
        for w in adj[last]:
            if not seen >> w & 1:
                stack.append((w, seen | 1 << w, size + 1))
    return found


def is_forest(n: int, edges) -> bool:
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = root(u), root(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def is_complete(n: int, edges) -> bool:
    return len(set(edges)) == n * (n - 1) // 2


def graph_masks_without_isolated(n: int) -> list:
    """Every labeled graph on n vertices with no isolated vertex, as a bitmask
    over the pairs of ``itertools.combinations(range(n), 2)``."""
    pairs = list(combinations(range(n), 2))
    full = (1 << n) - 1
    out = []
    for mask in range(1, 1 << len(pairs)):
        covered = 0
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                covered |= 1 << u | 1 << v
        if covered == full:
            out.append(mask)
    return out


def graph_edges(n: int, mask: int) -> list:
    pairs = combinations(range(n), 2)
    return [p for i, p in enumerate(pairs) if mask >> i & 1]


# -- squarefree ideals -------------------------------------------------------


def minimal_supports(supports) -> list:
    """Drop every support that contains another one."""
    uniq = sorted(set(supports), key=lambda s: (s.bit_count(), s))
    kept = []
    for s in uniq:
        if not any(k & s == k for k in kept):
            kept.append(s)
    return kept


def gens_by_degree(supports) -> dict:
    """Number of minimal generators of each degree: beta_{1,j}."""
    out: dict = {}
    for s in minimal_supports(supports):
        out[s.bit_count()] = out.get(s.bit_count(), 0) + 1
    return out


def stanley_reisner_faces(n: int, supports) -> list:
    """Subsets of the n vertices that contain no generator support."""
    gens = minimal_supports(supports)
    return [f for f in range(1 << n) if not any(f & s == s for s in gens)]


def hilbert_numerator(n: int, faces) -> dict:
    """Coefficients of sum over faces F of t^|F| (1 - t)^(n - |F|).

    This is the numerator of the Hilbert series of S/I over (1 - t)^n, so
    its coefficient at t^j is the alternating sum sum_i (-1)^i beta_{i,j}.
    """
    by_size = [0] * (n + 1)
    for f in faces:
        by_size[f.bit_count()] += 1
    out: dict = {}
    for k, count in enumerate(by_size):
        if not count:
            continue
        for r in range(n - k + 1):
            c = count * comb(n - k, r) * (-1) ** r
            out[k + r] = out.get(k + r, 0) + c
    return {j: c for j, c in out.items() if c}


def alternating_sums(entries) -> dict:
    """sum_i (-1)^i beta_{i,j} for a table given as {(i, j): beta}."""
    out: dict = {}
    for (i, j), b in entries.items():
        out[j] = out.get(j, 0) + (-1) ** i * b
    return {j: c for j, c in out.items() if c}


# -- Artinian monomial ideals ------------------------------------------------


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def member(m, gens) -> bool:
    return any(divides(g, m) for g in gens)


def minimal_exponents(gens) -> list:
    """Minimal generating set of a monomial ideal given by exponent tuples."""
    uniq = sorted(set(map(tuple, gens)), key=sum)
    kept = []
    for g in uniq:
        if not any(divides(k, g) for k in kept):
            kept.append(g)
    return kept


def pure_powers(n: int, gens) -> list:
    """Exponent a_i of the smallest pure power of x_i among the generators."""
    a = [None] * n
    for g in gens:
        support = [i for i, e in enumerate(g) if e]
        if len(support) == 1:
            i = support[0]
            if a[i] is None or g[i] < a[i]:
                a[i] = g[i]
    if None in a:
        raise ValueError("not Artinian: some variable has no pure power")
    return a


def socle(n: int, gens) -> list:
    """Monomials outside the ideal that every variable pushes inside, found
    by walking the whole exponent box below the pure powers."""
    a = pure_powers(n, gens)
    out = []
    for m in _box(a):
        if member(m, gens):
            continue
        if all(member(m[:i] + (m[i] + 1,) + m[i + 1:], gens) for i in range(n)):
            out.append(m)
    return out


def socle_degrees(n: int, gens) -> dict:
    out: dict = {}
    for m in socle(n, gens):
        out[sum(m)] = out.get(sum(m), 0) + 1
    return out


def _box(powers):
    return product(*(range(c) for c in powers))


def colon_by_box(n: int, ci_powers, gens) -> int:
    """The monomials of the box below ``ci_powers`` that lie in CI : I, as a
    bitmask over the box in ``itertools.product`` order; CI is generated by
    the pure powers x_i^{ci_powers[i]} and I by ``gens``.

    m is in CI : I exactly when m g is in CI for every generator g; every
    monomial outside the box is already in CI.
    """
    mask = 0
    for k, m in enumerate(_box(ci_powers)):
        if all(any(m[i] + g[i] >= ci_powers[i] for i in range(n)) for g in gens):
            mask |= 1 << k
    return mask


def box_members(ci_powers, gens) -> int:
    """The monomials of the box below ``ci_powers`` that lie in the ideal, as
    a bitmask in the order of ``colon_by_box``."""
    mask = 0
    for k, m in enumerate(_box(ci_powers)):
        if member(m, gens):
            mask |= 1 << k
    return mask


def depolarize(n: int, t: int, supports) -> list:
    """Image of a squarefree ideal on the t-suspension under x_{ij} -> x_i."""
    def base(v):
        return v if v < n else (v - n) // (t - 1)

    out = []
    for s in supports:
        e = [0] * n
        for v in range(n * t):
            if s >> v & 1:
                e[base(v)] += 1
        out.append(tuple(e))
    return out


# -- closed formulas from the paper ------------------------------------------


def cycle_pd_reg(t: int, n: int) -> tuple:
    """pd and reg of S/P_t(C_n).  With n = (t+1)q + d, 0 <= d <= t:
    pd = 2q + 1 and reg = (t-1)q + d - 1 when d > 0, and pd = 2q,
    reg = (t-1)q when d = 0."""
    q, d = divmod(n, t + 1)
    if d:
        return 2 * q + 1, (t - 1) * q + d - 1
    return 2 * q, (t - 1) * q


def cycle_is_licci(t: int, n: int) -> bool:
    return n in (t, t + 1, 2 * t + 1)


def complementary_is_cm(n: int, edges) -> bool:
    return is_complete(n, edges) or is_forest(n, edges)


def complementary_is_licci(n: int, edges) -> bool:
    return (n == 3 and is_complete(n, edges)) or is_forest(n, edges)


def is_star_plus_isolated(n: int, edges) -> bool:
    return not edges or any(all(v in e for e in edges) for v in range(n))
