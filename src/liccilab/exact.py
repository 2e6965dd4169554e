"""Exact rank computation for sparse integer matrices.

One elimination routine, ``rank_rows``, serves the rationals and every
prime field GF(p); it is keyed on p, with p == 0 meaning QQ.  Small
matrices go straight to the dense kernel.  Larger ones first run a sparse
phase that pivots only on units, taking among the first 64 candidates
the one with the least Markowitz fill-in.  A unit is +-1 over QQ and any
nonzero entry over GF(p), so over QQ the phase never divides, and over
GF(p) it eliminates everything.  What survives it over QQ goes to the
dense kernel: Bareiss over QQ, so entries stay integer minors and no
rational normalization ever happens, and the same update taken mod p,
without the division, over GF(p).  The Fraction elimination in
``tests/test_exact.py`` shares no code with this module and is the
reference it is checked against.

Everything here is pure and deterministic: fixed pivoting rules, no
floating point, safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass


class MatrixFormatError(ValueError):
    """Raised for malformed sparse matrices (bad index, duplicate, zero)."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin: the first twelve prime bases decide every
    p below 3.3 * 10**24, which covers the machine-word primes accepted here."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: ``p == 0`` means the rationals, otherwise GF(p)."""

    p: int = 0

    def __post_init__(self):
        if self.p != 0:
            if self.p < 0 or self.p >= 2**63:
                raise ValueError("prime must be a positive machine-word integer")
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")

    @property
    def is_rationals(self) -> bool:
        return self.p == 0

    def __str__(self):
        return "QQ" if self.p == 0 else f"GF({self.p})"


RATIONALS = FieldSpec(0)
GF2 = FieldSpec(2)


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(p)


@dataclass(frozen=True)
class SparseMatrix:
    """Integer matrix stored as (row, col, value) triples, no stored zeros."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(tuple(e) for e in self.entries))
        seen = set()
        for r, c, v in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise MatrixFormatError(f"entry ({r},{c}) out of range")
            if v == 0:
                raise MatrixFormatError("stored zero entry")
            if (r, c) in seen:
                raise MatrixFormatError(f"duplicate position ({r},{c})")
            seen.add((r, c))

    @classmethod
    def from_dense(cls, dense) -> "SparseMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        entries = [
            (r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v
        ]
        return cls(rows, cols, tuple(entries))

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.cols, self.rows, tuple((c, r, v) for r, c, v in self.entries))

    def to_rows(self) -> dict:
        out: dict = {}
        for r, c, v in self.entries:
            out.setdefault(r, {})[c] = v
        return out


def rank(matrix: SparseMatrix, field: FieldSpec = RATIONALS) -> int:
    """Rank of ``matrix`` over ``field``.  The empty matrix has rank 0."""
    return rank_rows(matrix.to_rows(), field)


_DENSE_LIMIT = 4096


def rank_rows(rows: dict, field: FieldSpec = RATIONALS) -> int:
    """Rank of a matrix given as {row_id: {col_id: int value}}.

    Over the rationals the elimination is fraction-free on integers; over
    GF(p) entries are reduced mod p.  Row/column ids may be arbitrary
    hashables; absent rows and columns are zero and do not affect the rank.
    """
    p = field.p
    cleaned = {}
    for r, row in rows.items():
        if p:
            nz = {c: v % p for c, v in row.items() if v % p}
        else:
            nz = {c: v for c, v in row.items() if v}
        if nz:
            cleaned[r] = nz
    rows = cleaned
    if not rows:
        return 0
    ncols = len({c for row in rows.values() for c in row})
    if len(rows) * ncols <= _DENSE_LIMIT:
        return _dense_rank(rows, p)

    # sparse phase: pivot only on units, so over QQ nothing is ever divided
    col_rows: dict = {}
    units: dict = {}
    for r, row in rows.items():
        for c, v in row.items():
            col_rows.setdefault(c, set()).add(r)
            if p or v in (1, -1):
                units[(r, c)] = None

    rank_ = 0
    while units:
        best = None
        stale = []
        scanned = 0
        for key in units:
            r, c = key
            row = rows.get(r)
            if row is None or c not in row or not (p or row[c] in (1, -1)):
                stale.append(key)
                continue
            cost = (len(row) - 1) * (len(col_rows[c]) - 1)
            if best is None or cost < best[0]:
                best = (cost, r, c)
            scanned += 1
            if scanned >= 64 or cost == 0:
                break
        for key in stale:
            del units[key]
        if best is None:
            continue
        _, pr, pc = best
        units.pop((pr, pc), None)
        piv_row = rows.pop(pr)
        for c in piv_row:
            col_rows[c].discard(pr)
        rank_ += 1
        # over QQ the pivot is +-1, its own inverse
        inv = pow(piv_row[pc], -1, p) if p else piv_row[pc]
        for r2 in list(col_rows[pc]):
            row2 = rows[r2]
            f = row2[pc] * inv
            for c, v in piv_row.items():
                nv = row2.get(c, 0) - f * v
                if p:
                    nv %= p
                if nv:
                    if c not in row2:
                        col_rows[c].add(r2)
                    row2[c] = nv
                    if p or nv in (1, -1):
                        units[(r2, c)] = None
                elif c in row2:
                    del row2[c]
                    col_rows[c].discard(r2)
                    units.pop((r2, c), None)
            if not row2:
                del rows[r2]

    if rows:
        rank_ += _dense_rank(rows, p)
    return rank_


def _dense_rank(rows: dict, p: int) -> int:
    """Rank of a nonempty {row: {col: value}} matrix, eliminated densely.

    Each row below the pivot row becomes pv * row - f * pivot_row.  Over
    QQ (p == 0) this is Bareiss: entries stay minors, so dividing by the
    previous pivot is exact.  Over GF(p) the same update is taken mod p,
    with no division, and rows with f == 0 are left alone.
    """
    cols: dict = {}
    for row in rows.values():
        for c in row:
            cols.setdefault(c, len(cols))
    m = []
    for row in rows.values():
        dense = [0] * len(cols)
        for c, v in row.items():
            dense[cols[c]] = v
        m.append(dense)
    nr, nc = len(m), len(m[0])
    rank_ = 0
    prev = 1
    for c in range(nc):
        for piv in range(rank_, nr):
            if m[piv][c]:
                break
        else:
            continue
        m[rank_], m[piv] = m[piv], m[rank_]
        prow = m[rank_]
        pv = prow[c]
        for r in range(rank_ + 1, nr):
            row = m[r]
            f = row[c]
            if p:
                if f:
                    for k in range(c + 1, nc):
                        row[k] = (row[k] * pv - f * prow[k]) % p
            else:
                for k in range(c + 1, nc):
                    row[k] = (row[k] * pv - f * prow[k]) // prev
        prev = pv
        rank_ += 1
        if rank_ == nr:
            break
    return rank_
