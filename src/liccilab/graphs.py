"""Finite simple graphs, small recognizers, and graph-to-ideal constructors:
edge ideals, t-path ideals, complementary edge ideals and suspensions."""

from __future__ import annotations

from dataclasses import dataclass

from .monomial import IdealError, Monomial, MonomialIdeal


@dataclass(frozen=True)
class Graph:
    """Simple graph with named vertices; edges are 0-based sorted pairs."""

    labels: tuple
    edges: frozenset

    def __post_init__(self):
        labels = tuple(str(v) for v in self.labels)
        if len(set(labels)) != len(labels):
            raise IdealError("vertex labels must be distinct")
        object.__setattr__(self, "labels", labels)
        n = len(labels)
        norm = set()
        for e in self.edges:
            u, v = _pair(e)
            for x in (u, v):
                # bool is an int subclass, but True is no vertex index
                if type(x) is not int:
                    raise IdealError(f"vertex index {x!r} is not an integer")
            if u == v:
                raise IdealError("loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise IdealError(f"edge {e!r} out of range")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def n(self) -> int:
        return len(self.labels)

    def adjacency(self) -> list:
        adj = [[] for _ in range(self.n)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
            adj[v].append(u)
        return [sorted(x) for x in adj]

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)


def _pair(e) -> tuple:
    try:
        u, v = e
    except (TypeError, ValueError) as exc:
        raise IdealError(f"edge {e!r} is not a pair of vertices") from exc
    return u, v


def _default_labels(n: int) -> tuple:
    return tuple(f"x{i + 1}" for i in range(n))


def cycle(n: int) -> Graph:
    if n < 3:
        raise IdealError("a cycle needs at least 3 vertices")
    return Graph(_default_labels(n), frozenset((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise IdealError("a complete graph needs at least 1 vertex")
    return Graph(
        _default_labels(n),
        frozenset((i, j) for i in range(n) for j in range(i + 1, n)),
    )


def path(n: int) -> Graph:
    if n < 1:
        raise IdealError("a path needs at least 1 vertex")
    return Graph(_default_labels(n), frozenset((i, i + 1) for i in range(n - 1)))


def star(k: int, isolated: int = 0) -> Graph:
    """Star with k edges (center x1) plus ``isolated`` extra vertices."""
    if k < 0 or isolated < 0:
        raise IdealError("star wants k >= 0 and isolated >= 0")
    n = 1 + k + isolated
    return Graph(_default_labels(n), frozenset((0, i) for i in range(1, k + 1)))


def from_edges(n: int, edges, labels=None) -> Graph:
    """Graph from 1-based edge pairs, matching the serialized form."""
    if type(n) is not int or n < 0:
        raise IdealError(f"vertex count {n!r} is not a natural number")
    try:
        edges = list(edges)
    except TypeError as exc:
        raise IdealError(f"edges {edges!r} are not a list of pairs") from exc
    labels = tuple(labels) if labels else _default_labels(n)
    if len(labels) != n:
        raise IdealError("label count does not match n")
    # only integers shift to 0-based; Graph rejects anything else as given
    return Graph(labels, tuple(
        tuple(x - 1 if type(x) is int else x for x in _pair(e)) for e in edges
    ))


_BUILDERS = {
    "cycle": lambda **kw: cycle(kw["n"]),
    "complete": lambda **kw: complete(kw["n"]),
    "path": lambda **kw: path(kw["n"]),
    "star": lambda **kw: star(kw["k"], kw.get("isolated", 0)),
    "edge_list": lambda **kw: from_edges(kw["n"], kw["edges"], kw.get("labels")),
}


def build(kind: str, **params) -> Graph:
    if kind not in _BUILDERS:
        raise IdealError(f"unknown graph kind {kind!r}")
    try:
        return _BUILDERS[kind](**params)
    except KeyError as exc:
        raise IdealError(f"graph kind {kind!r} needs parameter {exc.args[0]!r}") from exc


@dataclass(frozen=True)
class GraphClass:
    is_forest: bool
    is_tree: bool
    is_complete: bool
    is_cycle: bool
    is_star_plus_isolated: bool
    has_two_disjoint_edges: bool
    has_triangle: bool
    edge_count: int


def classify(g: Graph) -> GraphClass:
    n, edges = g.n, sorted(g.edges)
    m = len(edges)

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    acyclic = True
    components = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            acyclic = False
        else:
            parent[ru] = rv
            components -= 1
    connected = components == 1

    adj_mask = [0] * n
    for u, v in edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    triangle = any(adj_mask[u] & adj_mask[v] for u, v in edges)
    two_disjoint = any(
        not ({a, b} & {c, d})
        for i, (a, b) in enumerate(edges)
        for c, d in edges[i + 1 :]
    )
    star_plus = m == 0 or any(all(v in e for e in edges) for v in range(n))

    return GraphClass(
        is_forest=acyclic,
        is_tree=acyclic and connected,
        is_complete=m == n * (n - 1) // 2,
        is_cycle=n >= 3 and m == n and connected and all(g.degree(v) == 2 for v in range(n)),
        is_star_plus_isolated=star_plus,
        has_two_disjoint_edges=two_disjoint,
        has_triangle=triangle,
        edge_count=m,
    )


def edge_ideal(g: Graph) -> MonomialIdeal:
    return t_path_ideal(g, 2)


def t_path_ideal(g: Graph, t: int) -> MonomialIdeal:
    """Ideal generated by the products of vertices along t-vertex simple paths.

    Each path is found once per direction and collapsed through
    minimalization; with no such path this is the zero ideal.
    """
    if t < 2:
        raise IdealError("t_path_ideal wants t >= 2")
    adj = g.adjacency()
    found = set()

    def extend(last: int, visited: int, depth: int):
        if depth == t:
            found.add(visited)
            return
        for nb in adj[last]:
            if not visited >> nb & 1:
                extend(nb, visited | (1 << nb), depth + 1)

    for v in range(g.n):
        extend(v, 1 << v, 1)
    return MonomialIdeal(g.labels, tuple(Monomial.from_mask(g.n, m) for m in sorted(found)))


def complementary_edge_ideal(g: Graph) -> MonomialIdeal:
    """One degree n-2 generator per edge: the product of all non-endpoints."""
    if g.n < 3:
        raise IdealError("complementary edge ideal wants at least 3 vertices")
    if not g.edges:
        raise IdealError("complementary edge ideal wants at least one edge")
    full = (1 << g.n) - 1
    gens = [
        Monomial.from_mask(g.n, full & ~(1 << u) & ~(1 << v)) for u, v in sorted(g.edges)
    ]
    return MonomialIdeal(g.labels, gens)


def suspension(g: Graph, t: int) -> Graph:
    """Attach a pendant path on t-1 new vertices to every vertex.

    Whisker vertices get labels ``<base>_j`` for j = 1 .. t-1, appended
    after the original vertices in vertex-major order.
    """
    if t < 2:
        raise IdealError("suspension wants t >= 2")
    n = g.n
    labels = list(g.labels)
    for i in range(n):
        for j in range(1, t):
            labels.append(f"{g.labels[i]}_{j}")

    def whisker(i: int, j: int) -> int:
        return n + i * (t - 1) + (j - 1)

    edges = set(g.edges)
    for i in range(n):
        edges.add((i, whisker(i, 1)))
        for j in range(1, t - 1):
            edges.add((whisker(i, j), whisker(i, j + 1)))
    return Graph(tuple(labels), frozenset(edges))
