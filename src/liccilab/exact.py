"""Exact rank computation for sparse integer matrices.

Ranks are computed over the rationals (fraction-free integer elimination,
Bareiss-style, so no rational normalization ever happens) or over a prime
field GF(p).  Everything here is pure and deterministic: fixed pivoting
rules, no floating point, safe to call concurrently.
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


def rank_rows(rows: dict, field: FieldSpec = RATIONALS) -> int:
    """Rank of a matrix given as {row_id: {col_id: int value}}.

    Over the rationals the elimination is fraction-free on integers; over
    GF(p) entries are reduced mod p.  Row/column ids may be arbitrary
    hashables; absent rows and columns are zero and do not affect the rank.
    """
    cleaned = {}
    for r, row in rows.items():
        if field.is_rationals:
            nz = {c: v for c, v in row.items() if v}
        else:
            nz = {c: v % field.p for c, v in row.items() if v % field.p}
        if nz:
            cleaned[r] = nz
    if not cleaned:
        return 0
    if field.is_rationals:
        return _rank_int(cleaned)
    return _rank_mod(cleaned, field.p)


def _densify(rows: dict):
    row_ids = sorted(rows, key=repr)
    col_ids = sorted({c for row in rows.values() for c in row}, key=repr)
    cpos = {c: i for i, c in enumerate(col_ids)}
    dense = [[0] * len(col_ids) for _ in row_ids]
    for i, r in enumerate(row_ids):
        for c, v in rows[r].items():
            dense[i][cpos[c]] = v
    return dense


def _bareiss_dense(m) -> int:
    """Fraction-free elimination; entries stay minors so divisions are exact."""
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank_ = 0
    prev = 1
    for c in range(nc):
        piv = None
        for r in range(rank_, nr):
            if m[r][c]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank_:
            m[rank_], m[piv] = m[piv], m[rank_]
        pv = m[rank_][c]
        prow = m[rank_]
        for r in range(rank_ + 1, nr):
            row = m[r]
            f = row[c]
            for k in range(c + 1, nc):
                row[k] = (row[k] * pv - f * prow[k]) // prev
            row[c] = 0
        prev = pv
        rank_ += 1
        if rank_ == nr:
            break
    return rank_


def _gauss_mod_dense(m, p) -> int:
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank_ = 0
    for c in range(nc):
        piv = None
        for r in range(rank_, nr):
            if m[r][c] % p:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank_:
            m[rank_], m[piv] = m[piv], m[rank_]
        inv = pow(m[rank_][c], -1, p)
        prow = m[rank_]
        for r in range(rank_ + 1, nr):
            f = m[r][c] * inv % p
            if f:
                row = m[r]
                for k in range(c, nc):
                    row[k] = (row[k] - f * prow[k]) % p
        rank_ += 1
        if rank_ == nr:
            break
    return rank_


_DENSE_LIMIT = 4096


def _rank_int(rows: dict) -> int:
    ncols = len({c for row in rows.values() for c in row})
    if len(rows) * ncols <= _DENSE_LIMIT:
        return _bareiss_dense(_densify(rows))

    # Sparse phase: eliminate with +-1 pivots only, which keeps every entry an
    # integer without any division.  Whatever survives goes through Bareiss.
    col_rows: dict = {}
    units: dict = {}
    for r, row in rows.items():
        for c, v in row.items():
            col_rows.setdefault(c, set()).add(r)
            if v in (1, -1):
                units[(r, c)] = None

    rank_ = 0
    while units:
        best = None
        stale = []
        scanned = 0
        for key in units:
            r, c = key
            row = rows.get(r)
            if row is None or c not in row or row[c] not in (1, -1):
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
        pv = piv_row[pc]
        for c in piv_row:
            col_rows[c].discard(pr)
        rank_ += 1
        for r2 in list(col_rows[pc]):
            row2 = rows[r2]
            f = row2[pc] * pv
            for c, v in piv_row.items():
                nv = row2.get(c, 0) - f * v
                if nv:
                    if c not in row2:
                        col_rows[c].add(r2)
                    row2[c] = nv
                    if nv in (1, -1):
                        units[(r2, c)] = None
                elif c in row2:
                    del row2[c]
                    col_rows[c].discard(r2)
                    units.pop((r2, c), None)
            if not row2:
                del rows[r2]

    if rows:
        rank_ += _bareiss_dense(_densify(rows))
    return rank_


def _rank_mod(rows: dict, p: int) -> int:
    ncols = len({c for row in rows.values() for c in row})
    if len(rows) * ncols <= _DENSE_LIMIT:
        return _gauss_mod_dense(_densify(rows), p)

    col_rows: dict = {}
    live: dict = {}
    for r, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(r)
            live[(r, c)] = None

    rank_ = 0
    while live:
        best = None
        stale = []
        scanned = 0
        for key in live:
            r, c = key
            row = rows.get(r)
            if row is None or c not in row:
                stale.append(key)
                continue
            cost = (len(row) - 1) * (len(col_rows[c]) - 1)
            if best is None or cost < best[0]:
                best = (cost, r, c)
            scanned += 1
            if scanned >= 64 or cost == 0:
                break
        for key in stale:
            del live[key]
        if best is None:
            continue
        _, pr, pc = best
        live.pop((pr, pc), None)
        piv_row = rows.pop(pr)
        inv = pow(piv_row[pc], -1, p)
        for c in piv_row:
            col_rows[c].discard(pr)
        rank_ += 1
        for r2 in list(col_rows[pc]):
            row2 = rows[r2]
            f = row2[pc] * inv % p
            for c, v in piv_row.items():
                nv = (row2.get(c, 0) - f * v) % p
                if nv:
                    if c not in row2:
                        col_rows[c].add(r2)
                        live[(r2, c)] = None
                    row2[c] = nv
                elif c in row2:
                    del row2[c]
                    col_rows[c].discard(r2)
                    live.pop((r2, c), None)
            if not row2:
                del rows[r2]
    return rank_
