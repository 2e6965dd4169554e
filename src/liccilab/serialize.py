"""Document forms shared by the library and the CLI.

Everything serializes to plain JSON objects with deterministic key order
and canonical generator order, so outputs are bit-for-bit reproducible.
Ideal generators are accepted either as exponent vectors or in the text
form ``x1^2*x2`` (with ``1`` for the unit monomial); the zero ideal is an
empty generator list, or the text ``0``.
"""

from __future__ import annotations

import json

from .betti import BettiTable
from .exact import FieldSpec, RATIONALS
from .graphs import Graph, from_edges
from .licci import LicciVerdict
from .linkage import LinkReport
from .monomial import IdealError, Monomial, MonomialIdeal


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _integer(value) -> int:
    """``int(value)`` without truncation: 1.5, inf or nan raise ValueError."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


# -- monomials ------------------------------------------------------------


def parse_monomial_text(text: str, names) -> Monomial:
    text = text.strip()
    e = [0] * len(names)
    if text in ("1", ""):
        return Monomial(e)
    pos = {v: i for i, v in enumerate(names)}
    for factor in text.split("*"):
        factor = factor.strip()
        if "^" in factor:
            var, _, exp = factor.partition("^")
            try:
                power = int(exp)
            except ValueError as exc:
                raise IdealError(f"bad exponent in {factor!r}") from exc
        else:
            var, power = factor, 1
        var = var.strip()
        if var not in pos:
            raise IdealError(f"unknown variable {var!r}")
        if power < 1:
            raise IdealError(f"bad exponent in {factor!r}")
        e[pos[var]] += power
    return Monomial(e)


# -- ideals ---------------------------------------------------------------


def ideal_to_doc(ideal: MonomialIdeal) -> dict:
    return {
        "vars": list(ideal.vars),
        "gens": [list(g) for g in ideal.gens],
    }


def ideal_to_text_doc(ideal: MonomialIdeal) -> dict:
    gens = [g.to_text(ideal.vars) for g in ideal.gens]
    return {"vars": list(ideal.vars), "gens": gens if gens else ["0"]}


def ideal_from_doc(doc: dict) -> MonomialIdeal:
    try:
        names = [str(v) for v in doc["vars"]]
        raw = doc["gens"]
    except (KeyError, TypeError) as exc:
        raise IdealError(f"ideal document needs 'vars' and 'gens': {exc}") from exc
    gens = []
    for item in raw:
        if isinstance(item, str):
            if item.strip() == "0":
                continue
            gens.append(parse_monomial_text(item, names))
        else:
            if len(item) != len(names):
                raise IdealError(f"generator {item!r} has the wrong length")
            try:
                exps = tuple(_integer(e) for e in item)
            except (TypeError, ValueError) as exc:
                raise IdealError(f"generator {item!r} has a non-integer exponent") from exc
            gens.append(Monomial(exps))
    return MonomialIdeal(names, gens)


# -- graphs ---------------------------------------------------------------


def graph_from_doc(doc: dict) -> Graph:
    try:
        n = _integer(doc["n"])
        edges = [(_integer(u), _integer(v)) for u, v in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise IdealError(f"graph document needs 'n' and 'edges': {exc}") from exc
    return from_edges(n, edges, doc.get("labels"))


# -- fields ---------------------------------------------------------------


def field_to_doc(field: FieldSpec) -> str:
    return "q" if field.is_rationals else f"fp:{field.p}"


def field_from_doc(text: str) -> FieldSpec:
    text = text.strip().lower()
    if text in ("q", "qq", "rationals"):
        return RATIONALS
    if text.startswith("fp:"):
        try:
            return FieldSpec(int(text[3:]))
        except ValueError as exc:
            raise IdealError(f"bad field {text!r}: {exc}") from exc
    raise IdealError(f"unknown field {text!r} (use 'q' or 'fp:<p>')")


# -- Betti tables ---------------------------------------------------------


def table_to_doc(table: BettiTable) -> dict:
    return {
        "n_vars": table.n_vars,
        "field": field_to_doc(table.field),
        "entries": table.to_triples(),
    }


# -- verdicts and reports ---------------------------------------------------


def verdict_to_doc(verdict: LicciVerdict) -> dict:
    doc = {
        "status": verdict.status,
        "rules": [
            {"rule": r.rule, "citation": r.citation, "witness": r.witness}
            for r in verdict.rules
        ],
    }
    if verdict.hu_trace is not None:
        doc["trace"] = [
            {"k": s.k, "ideal": ideal_to_doc(s.ideal), "note": s.note}
            for s in verdict.hu_trace
        ]
    return doc


def report_to_doc(report: LinkReport) -> dict:
    return {
        "title": report.title,
        "passed": report.passed,
        "checks": [
            {"check": c.name, "passed": c.passed, "witness": c.details}
            for c in report.checks
        ],
    }
