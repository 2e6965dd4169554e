"""Squarefree machinery: Stanley-Reisner complexes, reduced homology,
minimal primes and Alexander duality.

Faces are stored as bitmasks over the vertex set.  The faces of a
complex on n vertices can also be held as one 2^n-bit integer, its face
bitmap, with bit m set iff the mask m is a face; ``faces_avoiding`` and
the Hochster engine work on it.  With the vertex masks M[i] (bit m set
iff vertex i lies in m), an induced subcomplex Delta_W is the face
bitmap with the bits of every M[i], i outside W, cleared, and the number
of faces holding a vertex is one popcount.  The void complex (no faces at
all) and the irrelevant complex {emptyset} are distinct values with the
usual homology conventions: the void complex has all reduced homology
zero, while the irrelevant complex has a one-dimensional H~_{-1}.

Reduced homology is computed relative to the closed star of one vertex
(see ``homology_dims_of_faces`` for face lists and ``_star_cells`` for
face bitmaps): a cone is acyclic, so the quotient loses nothing over any
field, and it leaves far fewer cells to rank.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import or_

from .exact import FieldSpec, RATIONALS, rank_rows
from .monomial import IdealError, Monomial, MonomialIdeal

_FACE_ENUM_LIMIT = 22


class SimplicialComplex:
    __slots__ = ("vertices", "faces")

    def __init__(self, vertices, faces, *, closed=False):
        vertices = tuple(str(v) for v in vertices)
        n = len(vertices)
        faces = set(faces)
        for f in faces:
            if not isinstance(f, int) or f < 0 or f >> n:
                raise IdealError(f"face {f!r} is not a bitmask over {n} vertices")
        if faces and not closed:
            closure = set()
            stack = list(faces)
            while stack:
                f = stack.pop()
                if f in closure:
                    continue
                closure.add(f)
                for i in range(n):
                    if f >> i & 1:
                        stack.append(f & ~(1 << i))
            faces = closure
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", frozenset(faces))

    def __setattr__(self, *a):
        raise AttributeError("SimplicialComplex is immutable")

    @classmethod
    def void(cls, vertices) -> "SimplicialComplex":
        return cls(vertices, (), closed=True)

    @classmethod
    def irrelevant(cls, vertices) -> "SimplicialComplex":
        return cls(vertices, (0,), closed=True)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def is_void(self) -> bool:
        return not self.faces

    @property
    def dim(self):
        """Dimension of the complex; None for the void complex."""
        if self.is_void:
            return None
        return max(f.bit_count() for f in self.faces) - 1

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.n_vertices == other.n_vertices and self.faces == other.faces

    def __hash__(self):
        return hash((self.n_vertices, self.faces))

    def __repr__(self):
        return f"SimplicialComplex({self.n_vertices} vertices, {len(self.faces)} faces)"


def stanley_reisner(ideal: MonomialIdeal) -> SimplicialComplex:
    """Complex whose faces are the supports F with x_F not in the ideal."""
    if ideal.is_unit:
        raise IdealError("Stanley-Reisner wants a proper ideal")
    for g in ideal.gens:
        if not g.is_squarefree:
            raise IdealError(f"non-squarefree generator {g!r}")
    supports = [g.support_mask for g in ideal.gens]
    return SimplicialComplex(
        ideal.vars, faces_avoiding(ideal.n_vars, supports), closed=True
    )


def faces_avoiding(n: int, supports) -> list:
    """All subsets of an n-set containing none of the given support masks,
    in ascending order."""
    return _bits(_face_bitmap(supports, _vertex_masks(n)))


def _vertex_masks(n: int) -> list:
    """M[i] for i < n: the 2^n-bit integer with bit m set iff bit i is set
    in m, that is 2^i zeros then 2^i ones, repeated.

    Refuses n over the face enumeration limit before building anything.
    """
    if n > _FACE_ENUM_LIMIT:
        raise IdealError(
            f"{n} vertices (variables after polarization) exceed the face "
            f"enumeration limit {_FACE_ENUM_LIMIT}: the face bitmap needs {n} "
            f"vertex masks of 2^{n} bits, {n * (1 << n) // 8} bytes"
        )
    size = 1 << n
    masks = []
    for i in range(n):
        width = 1 << i
        m = ((1 << width) - 1) << width
        period = width << 1
        while period < size:
            m |= m << period
            period <<= 1
        masks.append(m)
    return masks


def _face_bitmap(supports, masks) -> int:
    """Bit m set iff the mask m < 2^n contains none of the supports, where
    n = len(masks): the full bitmap less, for each support s, the masks
    holding all of s (the AND of M[i] over i in s)."""
    full = (1 << (1 << len(masks))) - 1
    nonfaces = 0
    for s in supports:
        holding = full
        for i in range(s.bit_length()):
            if s >> i & 1:
                holding &= masks[i]
        nonfaces |= holding
    return full ^ nonfaces


_ONE = re.compile("1")


def _bits(x: int) -> list:
    """Positions of the set bits of x, lowest first."""
    return [m.start() for m in _ONE.finditer(bin(x)[:1:-1])]


def _star_cells(faces: int, w: int, masks) -> list:
    """The faces of Delta_W outside the closed star of one vertex, ascending.

    ``faces`` is the face bitmap of Delta and ``masks`` its vertex masks.
    Delta_W keeps the faces avoiding every vertex outside W.  The star
    vertex v is the vertex of W lying in the most faces of Delta_W, lowest
    index on ties, and the cells are the F with v not in F and F + v not a
    face (bit F + 2^v clear), the cells ``homology_dims_of_faces`` keeps.
    Without a vertex of W, the cells are Delta_W itself.
    """
    outside = 0
    for i, m in enumerate(masks):
        if not w >> i & 1:
            outside |= m
    sub = faces ^ (faces & outside)
    if w:
        v = max(
            (i for i in range(len(masks)) if w >> i & 1),
            key=lambda i: (sub & masks[i]).bit_count(),
        )
        sub ^= sub & (masks[v] | sub >> (1 << v))
    return _bits(sub)


def homology_dims_of_faces(faces, field: FieldSpec = RATIONALS) -> tuple:
    """Reduced homology dimensions of an explicit (downward closed) face list.

    Returns (dim H~_{-1}, dim H~_0, ..., dim H~_{top-1}) where top is the
    largest face size; the empty face must be present unless the list is
    empty (void complex), which yields ().

    No boundary matrix of the whole complex is built.  When the complex
    has a vertex, pick the vertex v lying in the most faces (lowest index
    on ties) and keep only the faces outside its closed star, the F with
    v not in F and F + v not a face.  The star is a cone, so
    H~_k(Delta) = H_k(Delta, st v) over the integers, hence over every
    field with torsion included, and the relative chain complex is the
    plain restriction of the boundary maps to the kept faces, which
    ``cell_homology_dims`` ranks.
    """
    if not faces:
        return ()
    top = max(map(int.bit_count, faces))
    cells = faces
    span = reduce(or_, faces)
    if span:
        vertices = [1 << i for i in range(span.bit_length()) if span >> i & 1]
        # sum(map(b.__and__, faces)) is b times the number of faces holding
        # b; max keeps the first, so the lowest index, among equal counts
        v = max(vertices, key=lambda b: sum(map(b.__and__, faces)) // b)
        face_set = set(faces)
        cells = [f for f in faces if not f & v and f | v not in face_set]
    dims = cell_homology_dims(cells, field)
    return tuple(dims.get(s, 0) for s in range(top + 1))


def cell_homology_dims(cells, field: FieldSpec = RATIONALS) -> dict:
    """Homology dimensions of the chain complex spanned by bitmask cells.

    A cell of size s has as boundary the signed sum of its deletions (the
    k-th set bit, counted from 0, with sign (-1)^k) that are cells too;
    deletions outside the family are dropped.  For a family that is the
    difference of two subcomplexes of a simplex, such as a complex
    relative to a vertex star or a Taylor lcm block, this is the relative
    chain complex.  Returns {s: dimension of the homology at size s} for
    every size s that occurs.
    """
    layers: dict = {}
    for f in cells:
        layers.setdefault(f.bit_count(), []).append(f)
    index = {s: {f: i for i, f in enumerate(fl)} for s, fl in layers.items()}
    ranks = {}
    for s, fl in layers.items():
        below = index.get(s - 1, {})
        rows: dict = {}
        for j, f in enumerate(fl):
            sign = 1
            for i in range(f.bit_length()):
                if f >> i & 1:
                    row = below.get(f & ~(1 << i))
                    if row is not None:
                        rows.setdefault(row, {})[j] = sign
                    sign = -sign
        ranks[s] = rank_rows(rows, field)
    return {s: len(fl) - ranks[s] - ranks.get(s + 1, 0) for s, fl in layers.items()}


def reduced_homology_dims(
    complex_: SimplicialComplex, field: FieldSpec = RATIONALS
) -> tuple:
    """Reduced homology dimensions over ``field``, indexed -1 .. dim."""
    return homology_dims_of_faces(sorted(complex_.faces), field)


def _require_squarefree_proper(ideal: MonomialIdeal, op: str):
    if ideal.is_zero or ideal.is_unit:
        raise IdealError(f"{op} wants a nonzero proper ideal")
    for g in ideal.gens:
        if not g.is_squarefree:
            raise IdealError(f"{op} wants a squarefree ideal, got {g!r}")


def minimal_primes(ideal: MonomialIdeal) -> tuple:
    """Minimal primes of a squarefree ideal, as sorted variable-index tuples.

    These are exactly the minimal transversals (vertex covers) of the
    hypergraph of generator supports, enumerated by branching on the first
    uncovered support.
    """
    _require_squarefree_proper(ideal, "minimal_primes")
    supports = sorted(
        {g.support_mask for g in ideal.gens}, key=lambda m: (m.bit_count(), m)
    )
    n = ideal.n_vars
    covers: set = set()

    def walk(chosen: int):
        for s in supports:
            if not s & chosen:
                for i in range(n):
                    if s >> i & 1:
                        walk(chosen | (1 << i))
                return
        covers.add(chosen)

    walk(0)
    minimal = [c for c in covers if not any(o != c and o & c == o for o in covers)]
    out = [tuple(i for i in range(n) if c >> i & 1) for c in minimal]
    return tuple(sorted(out, key=lambda t: (len(t), t)))


def alexander_dual(ideal: MonomialIdeal) -> MonomialIdeal:
    """Ideal generated by x_F over the minimal primes F of the input."""
    _require_squarefree_proper(ideal, "alexander_dual")
    n = ideal.n_vars
    gens = []
    for prime in minimal_primes(ideal):
        e = [0] * n
        for i in prime:
            e[i] = 1
        gens.append(Monomial(e))
    return MonomialIdeal(ideal.vars, gens)
