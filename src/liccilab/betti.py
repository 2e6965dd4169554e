"""Graded Betti tables of monomial ideals and derived invariants.

Two independent engines are provided.  ``betti_table`` polarizes the
ideal and runs Hochster's formula: for each candidate vertex subset W of
the polarized ambient, beta_{i,|W|} picks up the reduced homology of the
induced Stanley-Reisner subcomplex in degree |W| - i - 1.  Only subsets
that are unions of generator supports can contribute (any other W has a
cone vertex), which keeps the enumeration small.  The homology of each
induced complex comes from ``homology_dims_of_faces``, which first
quotients it by the closed star of one vertex: the star is a cone, so
the relative homology equals the reduced homology over every field.

``taylor_oracle`` is a deliberately separate code path for cross checks:
it tensors the Taylor complex on the generator subsets with the base
field, keeping a boundary entry only when deleting the generator leaves
the subset lcm unchanged, and reads Tor off blockwise by multidegree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exact import FieldSpec, RATIONALS, rank_rows
from .monomial import IdealError, Monomial, MonomialIdeal
from .polarization import polarize
from .squarefree import faces_avoiding, homology_dims_of_faces


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
    n = ideal.n_vars
    unit = Monomial.unit(n)

    lcms = [unit] * (1 << m)
    for s in range(1, 1 << m):
        low = s & -s
        lcms[s] = lcms[s ^ low].lcm(gens[low.bit_length() - 1])

    blocks: dict = {}
    for s in range(1 << m):
        blocks.setdefault(lcms[s], {}).setdefault(s.bit_count(), []).append(s)

    entries: dict = {}
    for deg_vec, layers in blocks.items():
        index = {}
        for i, subs in layers.items():
            subs.sort()
            index[i] = {s: pos for pos, s in enumerate(subs)}
        top = max(layers)
        ranks = {i: 0 for i in range(top + 2)}
        for i in layers:
            if i == 0:
                continue
            below = index.get(i - 1, {})
            rows: dict = {}
            for col, s in enumerate(layers[i]):
                sign = 1
                for b in range(s.bit_length()):
                    if s >> b & 1:
                        sub = s & ~(1 << b)
                        if lcms[sub] == deg_vec:
                            rows.setdefault(below[sub], {})[col] = sign
                        sign = -sign
            ranks[i] = rank_rows(rows, field)
        j = deg_vec.degree
        for i, subs in layers.items():
            tor = len(subs) - ranks[i] - ranks.get(i + 1, 0)
            if tor:
                key = (i, j)
                entries[key] = entries.get(key, 0) + tor
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
    pd = table.pd
    reg = table.reg
    alpha = ideal.alpha()
    height = ideal.height()
    is_cm = pd == height
    degrees = {g.degree for g in ideal.gens}
    return IdealInvariants(
        pd=pd,
        reg=reg,
        depth=table.n_vars - pd,
        is_CM=is_cm,
        is_gorenstein=is_cm and table.total(pd) == 1,
        has_linear_resolution=len(degrees) == 1 and reg == alpha - 1,
        alpha=alpha,
    )


def reg_artinian_socle(ideal: MonomialIdeal) -> int:
    """Regularity of an Artinian quotient as its maximum socle degree."""
    if not ideal.is_artinian():
        raise IdealError("socle regularity wants an Artinian ideal")
    return max(m.degree for m in ideal.socle_monomials())
