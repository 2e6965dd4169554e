"""Licci decision machinery.

The Huneke-Ulrich iteration decides the licci property for Artinian
monomial ideals: write the ideal in standard form (pure powers plus
x^B * K), replace it by (x_i^{a_i - b_i} : i) + K and repeat.  Reaching
the unit ideal certifies licci; reaching a sharp part whose generators
have no common variable is a fixpoint and certifies not licci.

``_RULES`` is one ordered table of the rules R1-R7: the iteration (R6)
and cheaper classical certificates (complete intersections,
Cohen-Macaulayness, low height, Gorenstein codimension 3, the
Huneke-Ulrich regularity obstruction, bi-CM duality).  Each entry holds
its citation and a test that reads the ideal's invariants, height and
dual from one lazily filled ``_Facts`` and returns a status with computed
witnesses.  ``classify`` returns the first rule that fires and
``audit_rules`` every one, so the two cannot drift apart.  Licci is
always read at the homogeneous maximal ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from .betti import IdealInvariants, _invariants_from, betti_table, invariants
from .exact import FieldSpec, RATIONALS
from .monomial import IdealError, Monomial, MonomialIdeal
from .squarefree import alexander_dual

LICCI = "Licci"
NOT_LICCI = "NotLicci"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class RuleFiring:
    rule: str
    citation: str
    witness: str


@dataclass(frozen=True)
class HUStep:
    k: int
    ideal: MonomialIdeal
    note: str


@dataclass(frozen=True)
class LicciVerdict:
    status: str
    rules: tuple
    hu_trace: Optional[tuple] = None

    @property
    def fired_rule(self) -> str:
        return self.rules[-1].rule if self.rules else ""


@dataclass(frozen=True)
class HUStepResult:
    """Outcome of one iteration step: 'unit', 'fixpoint' or 'next'."""

    kind: str
    next_ideal: Optional[MonomialIdeal]
    summary: str


def hu_step(ideal: MonomialIdeal) -> HUStepResult:
    """One standard-form step of the Huneke-Ulrich iteration."""
    if not ideal.is_artinian() or not ideal.is_proper:
        raise IdealError("hu_step wants a proper Artinian ideal")
    sf = ideal.standard_form()
    if sf.sharp.is_zero:
        return HUStepResult("unit", None, "complete intersection")
    if sf.b.is_unit:
        return HUStepResult(
            "fixpoint", None, "fixpoint: gcd of sharp part is 1"
        )
    n = ideal.n_vars
    gens = [Monomial.variable(n, i, sf.a[i] - sf.b[i]) for i in range(n)]
    gens.extend(sf.k_ideal.gens)
    nxt = MonomialIdeal(ideal.vars, gens)
    summary = (
        f"a={sf.a} b={tuple(sf.b)} sharp gens={len(sf.sharp.gens)}"
    )
    return HUStepResult("next", nxt, summary)


def hu_decide(ideal: MonomialIdeal) -> LicciVerdict:
    """Iterate hu_step to a unit ideal (licci) or a fixpoint (not licci)."""
    if not ideal.is_artinian() or not ideal.is_proper:
        raise IdealError("hu_decide wants a proper Artinian ideal")
    trace = []
    current = ideal
    k = 0
    # the sum of the a_i must fall at every step
    weight = sum(current.pure_powers().values())
    while True:
        k += 1
        step = hu_step(current)
        if step.kind == "unit":
            trace.append(HUStep(k, MonomialIdeal(current.vars, [[0] * current.n_vars]),
                                "complete intersection"))
            status = LICCI
            break
        if step.kind == "fixpoint":
            trace.append(HUStep(k, current, step.summary))
            status = NOT_LICCI
            break
        current = step.next_ideal
        if current.is_unit:
            trace.append(HUStep(k, current, "principal sharp part; reached the unit ideal"))
            status = LICCI
            break
        trace.append(HUStep(k, current, step.summary))
        new_weight = sum(current.pure_powers().values())
        if new_weight >= weight:
            raise IdealError("iteration failed to decrease, input was malformed")
        weight = new_weight
    witness = f"terminated at step {k}: {trace[-1].note}"
    return LicciVerdict(
        status, (RuleFiring("R6", _RULES["R6"].citation, witness),), tuple(trace)
    )


def obstruction_not_licci(ideal: MonomialIdeal, inv: IdealInvariants) -> bool:
    """Huneke-Ulrich regularity obstruction; only meaningful for CM ideals."""
    if not inv.is_CM:
        raise IdealError("the regularity obstruction assumes a CM ideal")
    return inv.reg <= (inv.alpha - 1) * inv.pd - inv.alpha


@dataclass
class _Facts:
    """What the rules read about one ideal, each computed at most once."""

    ideal: MonomialIdeal
    field: FieldSpec

    @cached_property
    def inv(self) -> IdealInvariants:
        ideal = self.ideal
        if ideal.is_artinian():
            # depth 0, so pd = n; the top socle degree is the regularity and
            # the socle dimension the last Betti number
            socle = ideal.socle_monomials()
            return _invariants_from(ideal.n_vars, max(m.degree for m in socle), len(socle), ideal)
        return invariants(betti_table(ideal, self.field), ideal)

    @cached_property
    def height(self) -> int:
        return self.ideal.height()

    @cached_property
    def dual_is_CM(self) -> bool:
        dual = alexander_dual(self.ideal)
        return invariants(betti_table(dual, self.field), dual).is_CM


class _Rule(NamedTuple):
    """A test that returns None, (status, witness) or R6's verdict with its
    trace, and the citation that backs it."""

    test: Callable
    citation: str


def _complete_intersection(f: _Facts):
    m = len(f.ideal.gens)
    if f.ideal.is_complete_intersection():
        return LICCI, "principal" if m == 1 else f"complete intersection on {m} disjoint supports"


def _not_cm(f: _Facts):
    if not f.inv.is_CM:
        return NOT_LICCI, f"pd={f.inv.pd} != height={f.height}"


def _cm_height_two(f: _Facts):
    if f.inv.is_CM and f.height <= 2:
        return LICCI, f"CM with height={f.height}"


def _gorenstein_height_three(f: _Facts):
    if f.inv.is_gorenstein and f.height == 3:
        return LICCI, "Gorenstein with height=3"


def _obstructed(f: _Facts):
    inv = f.inv
    if inv.is_CM and obstruction_not_licci(f.ideal, inv):
        return NOT_LICCI, (
            f"reg={inv.reg} <= (alpha-1)*pd - alpha = "
            f"{(inv.alpha - 1) * inv.pd - inv.alpha} (alpha={inv.alpha}, pd={inv.pd})"
        )


def _iteration(f: _Facts):
    if f.ideal.is_artinian():
        return hu_decide(f.ideal)


def _bi_cm(f: _Facts):
    if f.ideal.is_squarefree and f.inv.is_CM and f.dual_is_CM:
        if f.height <= 2 or all(g.degree == 1 for g in f.ideal.gens):
            return LICCI, f"bi-CM with height={f.height}"
        return NOT_LICCI, f"bi-CM with height={f.height} >= 3, alpha={f.inv.alpha} > 1"


# The rule table, in firing order (see classify for why R2 comes first).
_RULES = {
    "R2": _Rule(_complete_intersection, "principal ideals and complete intersections are licci (height-one CM ideals in a UFD are principal)"),
    "R1": _Rule(_not_cm, "licci ideals are Cohen-Macaulay (Peskine-Szpiro; graded case via Nagata localization)"),
    "R3": _Rule(_cm_height_two, "Cohen-Macaulay ideals of height at most 2 in a regular local ring are licci (Gaeta-type; Kimura-Terai-Yoshida, Lemma 2.2)"),
    "R4": _Rule(_gorenstein_height_three, "Gorenstein ideals of height 3 in a regular local ring are licci (Watanabe; Kimura-Terai-Yoshida, Lemma 2.2)"),
    "R5": _Rule(_obstructed, "regularity obstruction: reg(S/I) <= (alpha-1) pd(S/I) - alpha forbids licci for CM ideals (Huneke-Ulrich, The structure of linkage, Cor. 5.13)"),
    "R6": _Rule(_iteration, "Huneke-Ulrich standard-form iteration decides licci for Artinian monomial ideals"),
    "R7": _Rule(_bi_cm, "a bi-CM squarefree ideal is licci iff its height is at most 2 or it is generated by variables (Terai duality with the Huneke-Ulrich obstruction forces alpha = 1 in height >= 3)"),
}


def _firings(ideal: MonomialIdeal, field: FieldSpec, op: str):
    """The verdict of every rule that fires on the ideal, in table order."""
    if ideal.is_zero or ideal.is_unit:
        raise IdealError(f"{op} wants a nonzero proper ideal")
    facts = _Facts(ideal, field)
    for rule_id, (test, citation) in _RULES.items():
        out = test(facts)
        if isinstance(out, tuple):
            out = LicciVerdict(out[0], (RuleFiring(rule_id, citation, out[1]),))
        if out is not None:
            yield out


def classify(ideal: MonomialIdeal, field: FieldSpec = RATIONALS) -> LicciVerdict:
    """The verdict of the first rule of the table that fires, else ``Unknown``.

    Rules fire in order: (R2) principal or complete intersection, which
    needs no Betti table, (R1) non-CM, (R3) CM of height <= 2, (R4)
    Gorenstein of height 3, (R5) the regularity obstruction, (R6) the
    Huneke-Ulrich iteration for Artinian ideals, (R7) the bi-CM
    classification.  A complete intersection is CM, so R1 never fires where
    R2 does.  ``Unknown`` is a legitimate outcome, not an error.
    """
    return next(_firings(ideal, field, "classify"), LicciVerdict(UNKNOWN, ()))


def audit_rules(ideal: MonomialIdeal, field: FieldSpec = RATIONALS) -> dict:
    """Evaluate every rule of the table independently (for contradiction checks).

    Returns {rule id: status} for each rule whose hypotheses hold, in table
    order; a sound implementation never reports both Licci and NotLicci.
    """
    return {v.fired_rule: v.status for v in _firings(ideal, field, "audit_rules")}


def licci_bound_check(ideal: MonomialIdeal, verdict: LicciVerdict) -> bool:
    """Soundness alarm: every licci squarefree ideal satisfies
    height(I) <= floor(n / alpha(I)) + 1.  Non-licci verdicts pass vacuously."""
    if not ideal.is_squarefree:
        raise IdealError("the height bound applies to squarefree ideals")
    if verdict.status != LICCI:
        return True
    return ideal.height() <= ideal.n_vars // ideal.alpha() + 1
