"""Monomials and monomial ideals with exact arithmetic.

A :class:`Monomial` is an exponent vector over a fixed, ordered variable
set; a :class:`MonomialIdeal` stores the unique minimal generating set.
Variable names are metadata only: two ideals are equal when they live in
ambients of the same size and have the same generators as exponent
vectors.  All values are immutable and every operation is pure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from operator import le, neg

DEFAULT_MAX_VARS = 24
ENV_MAX_VARS = "LICCILAB_MAX_VARS"


def max_vars() -> int:
    """Ambient variable cap (default 24, override via LICCILAB_MAX_VARS)."""
    raw = os.environ.get(ENV_MAX_VARS)
    if raw is None:
        return DEFAULT_MAX_VARS
    try:
        value = int(raw)
    except ValueError as exc:
        raise IdealError(f"bad {ENV_MAX_VARS}={raw!r}") from exc
    if value < 1:
        raise IdealError(f"bad {ENV_MAX_VARS}={raw!r}")
    return value


class IdealError(ValueError):
    """Raised on precondition violations (wrong ambient, zero divisor, ...)."""


class Monomial(tuple):
    """Exponent vector; supports divisibility, lcm/gcd and products."""

    __slots__ = ()

    def __new__(cls, exponents):
        m = tuple.__new__(cls, exponents)
        for e in m:
            if not isinstance(e, int) or e < 0:
                raise IdealError(f"exponents must be naturals, got {e!r}")
        return m

    @classmethod
    def unit(cls, n: int) -> "Monomial":
        return cls((0,) * n)

    @classmethod
    def variable(cls, n: int, i: int, power: int = 1) -> "Monomial":
        e = [0] * n
        e[i] = power
        return cls(e)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Monomial":
        return cls(tuple(1 if mask >> i & 1 else 0 for i in range(n)))

    @property
    def degree(self) -> int:
        return sum(self)

    @property
    def is_unit(self) -> bool:
        return not any(self)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self)

    @property
    def support_mask(self) -> int:
        mask = 0
        for i, e in enumerate(self):
            if e:
                mask |= 1 << i
        return mask

    @property
    def support(self) -> tuple:
        return tuple(i for i, e in enumerate(self) if e)

    def divides(self, other: "Monomial") -> bool:
        return all(map(le, self, other))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a if a >= b else b for a, b in zip(self, other)))

    def gcd(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a if a <= b else b for a, b in zip(self, other)))

    def times(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in zip(self, other)))

    def divided_by(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise IdealError(f"{other!r} does not divide {self!r}")
        return Monomial(tuple(a - b for a, b in zip(self, other)))

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / gcd(self, other), the colon quotient by a monomial."""
        return Monomial(tuple(a - b if a > b else 0 for a, b in zip(self, other)))

    def pure_power(self):
        """(index, exponent) if this is x_i^e for a single variable, else None."""
        supp = self.support
        if len(supp) != 1:
            return None
        return supp[0], self[supp[0]]

    def radical(self) -> "Monomial":
        return Monomial(tuple(1 if e else 0 for e in self))

    def to_text(self, names) -> str:
        if self.is_unit:
            return "1"
        parts = []
        for i, e in enumerate(self):
            if e == 1:
                parts.append(names[i])
            elif e > 1:
                parts.append(f"{names[i]}^{e}")
        return "*".join(parts)

    def __repr__(self):
        return f"Monomial{tuple(self)!r}"


def minimalize(gens, n: int) -> tuple:
    """Unique minimal generating set: drop anything a smaller generator divides."""
    gens = [g if isinstance(g, Monomial) else Monomial(g) for g in gens]
    for g in gens:
        if len(g) != n:
            raise IdealError(f"generator {g!r} does not live in {n} variables")
        if g.is_unit:
            return (Monomial.unit(n),)
    kept: list = []
    for g in sorted(set(gens), key=_display_key):
        if not any(h.divides(g) for h in kept):
            kept.append(g)
    return tuple(kept)


def _display_key(m: Monomial):
    # degree first, then descending lex on exponents, so x1^2 prints before x2^2
    return (sum(m), tuple(map(neg, m)))


def _meet(a: tuple, b: tuple, n: int) -> tuple:
    """Minimal generators of (a) ∩ (b), for generator tuples a and b.

    A generator of one side that the other ideal contains lies in the
    intersection, and its lcms with the other side are multiples of it, so
    it goes in as it is; only the remaining pairs get an lcm.
    """
    out, rest_a, rest_b = [], [], []
    for g in a:
        (out if any(h.divides(g) for h in b) else rest_a).append(g)
    for h in b:
        (out if any(g.divides(h) for g in a) else rest_b).append(h)
    out += [g.lcm(h) for g in rest_a for h in rest_b]
    return minimalize(out, n)


class MonomialIdeal:
    """Monomial ideal given by its minimal generators over named variables.

    The zero ideal has no generators; the unit ideal is generated by 1.
    Construction minimalizes, so ``MonomialIdeal(v, gens).gens`` is always
    the unique minimal generating set in a canonical order.
    """

    __slots__ = ("vars", "gens")

    def __init__(self, variables, generators):
        variables = tuple(str(v) for v in variables)
        if len(set(variables)) != len(variables):
            raise IdealError("variable names must be distinct")
        if len(variables) > max_vars():
            raise IdealError(
                f"{len(variables)} variables exceeds the cap {max_vars()} "
                f"(override via {ENV_MAX_VARS})"
            )
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "gens", minimalize(generators, len(variables)))

    def __setattr__(self, *a):
        raise AttributeError("MonomialIdeal is immutable")

    # -- basic structure -------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.vars)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_unit

    @property
    def is_proper(self) -> bool:
        return not self.is_unit

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.gens)

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n_vars == other.n_vars and self.gens == other.gens

    def __hash__(self):
        return hash((self.n_vars, self.gens))

    def __repr__(self):
        if self.is_zero:
            return f"MonomialIdeal<{','.join(self.vars)}>(0)"
        body = ", ".join(g.to_text(self.vars) for g in self.gens)
        return f"MonomialIdeal<{','.join(self.vars)}>({body})"

    def _same_ambient(self, other: "MonomialIdeal"):
        if self.n_vars != other.n_vars:
            raise IdealError("ideals live in different ambients")

    def permute_vars(self, perm) -> "MonomialIdeal":
        """Image under the substitution x_i -> x_perm[i] (perm a bijection)."""
        n = self.n_vars
        gens = []
        for g in self.gens:
            e = [0] * n
            for i, ei in enumerate(g):
                e[perm[i]] = ei
            gens.append(Monomial(e))
        return MonomialIdeal(self.vars, gens)

    def reorder_to(self, names) -> "MonomialIdeal":
        """Permute the ambient so variable names appear in the given order."""
        names = tuple(str(v) for v in names)
        if sorted(names) != sorted(self.vars):
            raise IdealError("reorder_to wants the same variable names")
        target = {v: i for i, v in enumerate(names)}
        perm = [target[v] for v in self.vars]
        permuted = self.permute_vars(perm)
        return MonomialIdeal(names, permuted.gens)

    # -- membership and comparisons --------------------------------------

    def membership(self, m: Monomial) -> bool:
        if len(m) != self.n_vars:
            raise IdealError("monomial in the wrong ambient")
        return any(g.divides(m) for g in self.gens)

    def __contains__(self, m) -> bool:
        return self.membership(m if isinstance(m, Monomial) else Monomial(m))

    def containment(self, other: "MonomialIdeal") -> bool:
        """True iff self is contained in other."""
        self._same_ambient(other)
        return all(other.membership(g) for g in self.gens)

    def __le__(self, other):
        return self.containment(other)

    # -- arithmetic -------------------------------------------------------

    def sum(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ambient(other)
        return MonomialIdeal(self.vars, self.gens + other.gens)

    def __add__(self, other):
        return self.sum(other)

    def product(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ambient(other)
        return MonomialIdeal(
            self.vars, tuple(a.times(b) for a in self.gens for b in other.gens)
        )

    def power(self, k: int) -> "MonomialIdeal":
        if k < 1:
            raise IdealError("power wants k >= 1")
        out = self
        for _ in range(k - 1):
            out = out.product(self)
        return out

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ambient(other)
        return MonomialIdeal(self.vars, _meet(self.gens, other.gens, self.n_vars))

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """The ideal quotient self : other.

        self : other is the intersection over the generators g of other of
        the ideals generated by m / gcd(m, g), m running over self's
        generators.  The intersection is folded over plain generator
        tuples with :func:`_meet`, so one ideal is built at the end and
        none in between.
        """
        self._same_ambient(other)
        if other.is_zero:
            raise IdealError("colon by the zero ideal")
        if self.is_zero:
            return self
        parts = (tuple(m.quotient(g) for m in self.gens) for g in other.gens)
        return MonomialIdeal(
            self.vars, reduce(lambda a, b: _meet(a, b, self.n_vars), parts)
        )

    # -- invariants --------------------------------------------------------

    def radical(self) -> "MonomialIdeal":
        return MonomialIdeal(self.vars, tuple(g.radical() for g in self.gens))

    def alpha(self) -> int:
        """Minimum degree of a minimal generator."""
        if self.is_zero:
            raise IdealError("alpha of the zero ideal")
        return min(g.degree for g in self.gens)

    def height(self) -> int:
        """Minimum size of a variable set meeting every generator support."""
        if self.is_zero or self.is_unit:
            raise IdealError("height wants a nonzero proper ideal")
        supports = sorted(
            {g.support_mask for g in self.gens}, key=lambda m: (m.bit_count(), m)
        )
        # covering a sub-support covers the larger one too
        pruned = []
        for s in supports:
            if not any(t & s == t for t in pruned):
                pruned.append(s)
        best = self.n_vars

        def walk(chosen: int, size: int):
            nonlocal best
            if size >= best:
                return
            for s in pruned:
                if not s & chosen:
                    for i in range(self.n_vars):
                        if s >> i & 1:
                            walk(chosen | (1 << i), size + 1)
                    return
            best = size

        walk(0, 0)
        return best

    def is_artinian(self) -> bool:
        """True iff some generator is a pure power of every variable."""
        return self.n_vars > 0 and len(self.pure_powers()) == self.n_vars

    def pure_powers(self) -> dict:
        """{i: a_i} for every minimal generator that is a pure power x_i^{a_i}."""
        return dict(filter(None, (g.pure_power() for g in self.gens)))

    def is_complete_intersection(self) -> bool:
        """True iff the minimal generators have pairwise disjoint supports."""
        if self.is_unit:
            return False
        masks = [g.support_mask for g in self.gens]
        used = 0
        for m in masks:
            if m & used:
                return False
            used |= m
        return True

    def standard_form(self) -> "StandardForm":
        """Decompose an Artinian ideal as pure powers plus x^B * K.

        ``a[i]`` is the exponent of the pure power in variable i, ``sharp``
        collects the remaining minimal generators, ``b`` is their
        coordinatewise gcd and ``k_ideal = sharp / x^B``.  By construction
        no variable divides all generators of ``k_ideal``; when sharp is
        principal ``k_ideal`` degenerates to the unit ideal.
        """
        if not self.is_artinian():
            raise IdealError("standard form wants an Artinian ideal")
        if not self.is_proper:
            raise IdealError("standard form wants a proper ideal")
        pure = self.pure_powers()
        a = tuple(pure[i] for i in range(self.n_vars))
        sharp_gens = [g for g in self.gens if g.pure_power() is None]
        if not sharp_gens:
            zero = MonomialIdeal(self.vars, ())
            return StandardForm(a, zero, Monomial.unit(self.n_vars), zero)
        b = reduce(lambda x, y: x.gcd(y), sharp_gens)
        k = MonomialIdeal(self.vars, tuple(g.divided_by(b) for g in sharp_gens))
        return StandardForm(a, MonomialIdeal(self.vars, sharp_gens), b, k)

    def socle_monomials(self) -> tuple:
        """Monomials outside the ideal pushed inside by every variable.

        Read off the irreducible decomposition, not a walk over the box of
        exponents below the pure powers: an Artinian monomial ideal is the
        irredundant intersection of the irreducible ideals
        m^b = (x_1^{b_1}, ..., x_n^{b_n}), and its socle monomials are the
        x^{b - 1} (Miller & Sturmfels, *Combinatorial Commutative Algebra*,
        ch. 5).  The corners b start from the pure powers a; adding a
        generator g keeps every corner with g_i >= b_i for some i (g lies
        in m^b already) and splits every other one into the corners with
        b_i lowered to g_i, one per i in supp g.  After each generator
        only the componentwise-maximal corners are kept, so the work grows
        with corners times generators, not with the box prod a_i.
        """
        if not self.is_artinian():
            raise IdealError("socle wants an Artinian ideal")
        pure = self.pure_powers()
        corners = [tuple(pure[i] for i in range(self.n_vars))]
        for g in self.gens:
            supp = g.support
            if len(supp) == 1:
                continue
            grown = set()
            for b in corners:
                if any(gi >= bi for gi, bi in zip(g, b)):
                    grown.add(b)
                    continue
                for i in supp:
                    grown.add(b[:i] + (g[i],) + b[i + 1:])
            corners = _maximal(grown)
        socle = (Monomial(tuple(e - 1 for e in b)) for b in corners)
        return tuple(sorted(socle, key=_display_key))


def _maximal(corners) -> list:
    """The componentwise-maximal exponent tuples among ``corners``."""
    kept: list = []
    for b in sorted(corners, key=sum, reverse=True):
        # a tuple can only lie below one of at least its coordinate sum
        if not any(all(map(le, b, c)) for c in kept):
            kept.append(b)
    return kept


@dataclass(frozen=True)
class StandardForm:
    """Artinian standard form: ideal = (x_i^{a_i} : i) + x^B * k_ideal."""

    a: tuple
    sharp: MonomialIdeal
    b: Monomial
    k_ideal: MonomialIdeal

    def recompose(self) -> MonomialIdeal:
        vars_ = self.sharp.vars
        n = len(vars_)
        gens = [Monomial.variable(n, i, e) for i, e in enumerate(self.a)]
        gens.extend(g.times(self.b) for g in self.k_ideal.gens)
        return MonomialIdeal(vars_, gens)
