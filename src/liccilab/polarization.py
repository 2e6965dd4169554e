"""Polarization of monomial ideals and depolarization of suspension path
ideals (whisker variables folded back onto their base vertex)."""

from __future__ import annotations

from .graphs import Graph, suspension, t_path_ideal
from .monomial import IdealError, Monomial, MonomialIdeal, max_vars


def polarize(ideal: MonomialIdeal) -> MonomialIdeal:
    """Standard polarization x_i^e -> x_{i,0} x_{i,1} ... x_{i,e-1}.

    Every original variable keeps at least one column, so a squarefree
    ideal polarizes to itself, and is returned as it is.  Column j = 0
    reuses the original variable name; higher columns are named
    ``<base>_j``.
    """
    widths = [1] * ideal.n_vars
    for g in ideal.gens:
        for i, e in enumerate(g):
            if e > widths[i]:
                widths[i] = e
    total = sum(widths)
    if total > max_vars():
        raise IdealError(
            f"polarization needs {total} variables, exceeding the cap {max_vars()}"
        )
    if total == ideal.n_vars:
        return ideal
    names = []
    offset = []
    for i, w in enumerate(widths):
        offset.append(len(names))
        names.append(ideal.vars[i])
        names.extend(f"{ideal.vars[i]}_{j}" for j in range(1, w))
    gens = []
    for g in ideal.gens:
        e = [0] * total
        for i, ei in enumerate(g):
            for j in range(ei):
                e[offset[i] + j] = 1
        gens.append(Monomial(e))
    return MonomialIdeal(names, gens)


def depolarize_suspension(g: Graph, t: int) -> MonomialIdeal:
    """Image of the t-path ideal of the t-suspension under x_{ij} -> x_i."""
    if t < 2:
        raise IdealError("depolarize_suspension wants t >= 2")
    susp = suspension(g, t)
    paths = t_path_ideal(susp, t)
    n = g.n

    def base(v: int) -> int:
        return v if v < n else (v - n) // (t - 1)

    gens = []
    for gen in paths.gens:
        e = [0] * n
        for v, ev in enumerate(gen):
            e[base(v)] += ev
        gens.append(Monomial(e))
    return MonomialIdeal(g.labels, gens)
