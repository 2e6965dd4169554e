"""Graded Betti tables of monomial ideals and derived invariants.

Two engines are provided.  They build different chain complexes and
take their homology with the same code.  ``betti_table`` polarizes the
ideal and runs Hochster's formula: for each candidate vertex subset W of
the polarized ambient, beta_{i,|W|} picks up the reduced homology of the
induced Stanley-Reisner subcomplex in degree |W| - i - 1.  Only subsets
that are unions of generator supports can contribute (any other W has a
cone vertex), which keeps the enumeration small.  The homology of each
induced complex comes from ``homology_dims_of_faces``, which first
quotients it by the closed star of one vertex: the star is a cone, so
the relative homology equals the reduced homology over every field.

``taylor_oracle`` tensors the Taylor complex on the generator subsets
with the base field and reads Tor off blockwise by multidegree: the
subsets sharing one lcm form a block, and a boundary entry survives only
when deleting the generator leaves the subset lcm unchanged.

Both engines hand their cells (the faces outside the star, or one lcm
block) to ``squarefree.cell_homology_dims``, the one signed boundary
builder, which ranks with ``exact.rank_rows``.  What still differs
between the engines is complex construction: polarization and Hochster's
formula against the lcm lattice.  The shared core is guarded by the
unreduced reference in ``tests/test_homology_differential.py`` and by the
Fraction elimination in ``tests/test_exact.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exact import FieldSpec, RATIONALS
from .monomial import IdealError, Monomial, MonomialIdeal
from .polarization import polarize
from .squarefree import cell_homology_dims, faces_avoiding, homology_dims_of_faces


class BettiTable:
    """Map (homological degree i, internal degree j) -> rank, for S/I."""

    __slots__ = ("n_vars", "field", "entries")

    def __init__(self, n_vars: int, field: FieldSpec, entries: dict):
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "field", field)
        object.__setattr__(
            self, "entries", {k: v for k, v in sorted(entries.items()) if v}
        )

    def __setattr__(self, *a):
        raise AttributeError("BettiTable is immutable")

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    @property
    def pd(self) -> int:
        return max(i for i, _ in self.entries)

    @property
    def reg(self) -> int:
        return max(j - i for i, j in self.entries)

    def to_triples(self) -> list:
        return [[i, j, v] for (i, j), v in sorted(self.entries.items())]

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return (
            self.n_vars == other.n_vars
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"BettiTable(n_vars={self.n_vars}, field={self.field}, {self.entries})"

    def render(self) -> str:
        """Macaulay-style text table: columns i, rows j - i."""
        pd = self.pd
        reg = self.reg
        width = max(
            [len(str(v)) for v in self.entries.values()] + [len(str(pd)) + 1, 2]
        )
        head = " " * (len(str(reg)) + 2) + "".join(
            str(i).rjust(width) for i in range(pd + 1)
        )
        lines = [head]
        for r in range(reg + 1):
            cells = []
            for i in range(pd + 1):
                v = self.entry(i, i + r)
                cells.append((str(v) if v else ".").rjust(width))
            lines.append(str(r).rjust(len(str(reg))) + ": " + "".join(cells))
        return "\n".join(lines)


def _support_unions(supports) -> list:
    """All unions of subfamilies of the given masks, the empty union included."""
    unions = {0}
    for s in supports:
        unions |= {u | s for u in unions}
    return sorted(unions)


def _check_table_input(ideal: MonomialIdeal, op: str):
    if ideal.is_zero or ideal.is_unit:
        raise IdealError(f"{op} wants a nonzero proper ideal")


# Tables kept by each engine's cache, least recently used dropped first.
_CACHE_SIZE = 4096


def betti_table(ideal: MonomialIdeal, field: FieldSpec = RATIONALS) -> BettiTable:
    """Graded Betti table of S/I via polarization and subset homology."""
    return _betti_table_cached(ideal, field)


@lru_cache(maxsize=_CACHE_SIZE)
def _betti_table_cached(ideal: MonomialIdeal, field: FieldSpec) -> BettiTable:
    _check_table_input(ideal, "betti_table")
    sq = polarize(ideal)
    n = sq.n_vars
    supports = [g.support_mask for g in sq.gens]
    all_faces = faces_avoiding(n, supports)
    entries: dict = {}
    for w in _support_unions(supports):
        sub = [f for f in all_faces if f & ~w == 0]
        dims = homology_dims_of_faces(sub, field)
        j = w.bit_count()
        for d, h in enumerate(dims):
            if h:
                i = j - d
                if i >= 0:
                    key = (i, j)
                    entries[key] = entries.get(key, 0) + h
    return BettiTable(ideal.n_vars, field, entries)


_TAYLOR_MAX_GENS = 14


def taylor_oracle(ideal: MonomialIdeal, field: FieldSpec = RATIONALS) -> BettiTable:
    """Betti table from the Taylor complex on the generator subset lattice."""
    return _taylor_oracle_cached(ideal, field)


@lru_cache(maxsize=_CACHE_SIZE)
def _taylor_oracle_cached(ideal: MonomialIdeal, field: FieldSpec) -> BettiTable:
    _check_table_input(ideal, "taylor_oracle")
    gens = ideal.gens
    m = len(gens)
    if m > _TAYLOR_MAX_GENS:
        raise IdealError(f"taylor_oracle caps at {_TAYLOR_MAX_GENS} generators, got {m}")
    unit = Monomial.unit(ideal.n_vars)

    # the subsets sharing one lcm form a relative complex of the simplex on
    # the generators: deleting a generator either keeps the lcm, or leaves
    # the block with a nonconstant Taylor coefficient, zero over the field
    lcms = [unit] * (1 << m)
    blocks: dict = {unit: [0]}
    for s in range(1, 1 << m):
        low = s & -s
        lcms[s] = lcms[s ^ low].lcm(gens[low.bit_length() - 1])
        blocks.setdefault(lcms[s], []).append(s)

    entries: dict = {}
    for deg_vec, block in blocks.items():
        j = deg_vec.degree
        for i, tor in cell_homology_dims(block, field).items():
            if tor:
                entries[(i, j)] = entries.get((i, j), 0) + tor
    return BettiTable(ideal.n_vars, field, entries)


@dataclass(frozen=True)
class IdealInvariants:
    pd: int
    reg: int
    depth: int
    is_CM: bool
    is_gorenstein: bool
    has_linear_resolution: bool
    alpha: int


def invariants(table: BettiTable, ideal: MonomialIdeal) -> IdealInvariants:
    """pd, reg, depth (Auslander-Buchsbaum), CM, Gorenstein and linearity."""
    return _invariants_from(table.pd, table.reg, table.total(table.pd), ideal)


def _invariants_from(pd: int, reg: int, last: int, ideal: MonomialIdeal) -> IdealInvariants:
    # last is the total Betti number in homological degree pd; the Artinian
    # path passes pd = n, the top socle degree and the socle dimension
    alpha = ideal.alpha()
    is_cm = pd == ideal.height()
    return IdealInvariants(
        pd=pd,
        reg=reg,
        depth=ideal.n_vars - pd,
        is_CM=is_cm,
        is_gorenstein=is_cm and last == 1,
        has_linear_resolution=len({g.degree for g in ideal.gens}) == 1 and reg == alpha - 1,
        alpha=alpha,
    )


def reg_artinian_socle(ideal: MonomialIdeal) -> int:
    """Regularity of an Artinian quotient as its maximum socle degree."""
    if not ideal.is_artinian():
        raise IdealError("socle regularity wants an Artinian ideal")
    return max(m.degree for m in ideal.socle_monomials())
