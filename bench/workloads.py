"""The three benchmark workloads.

Each workload has these parts:

* ``plan(seed)``: plain data saying which ideals to build, drawn from the
  seed with ``random.Random``; liccilab receives only the ideals built
  from it.
* ``references(plan)``: the expected answers, from ``reference.py``.
* ``build(lib, plan)``: the ideals, made through liccilab's constructors;
  this is the timed set-up.  ``check_inputs`` compares them with the plan.
* ``run(lib, inputs, rec)``: one round of the timed operations, through a
  ``Round`` that times each operation and each named phase of it, and
  counts an operation that raises as failed.
* ``check(plan, refs, outputs)``: a round's outputs against the references.
* ``report(best, ops, scale)``: the workload's own figures, at the speed
  scale of ``run.probe``; ``betti_phases()``: the phases of ``betti_s``.

Nothing but ``run`` is timed.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from time import perf_counter

import reference as ref

LICCI = "Licci"
NOT_LICCI = "NotLicci"


class Round:
    """Times the operations of one round and collects their outputs.

    ``times[key]`` holds the seconds of the operation under ``"op"`` and of
    each named phase it spent time in."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: dict = {}
        self.outputs: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self._current: dict = {}

    def op(self, key, phase, fn, *args):
        """Run one operation; its output is kept under ``key``.  With a
        ``phase`` its whole time goes to that phase; with None, the
        operation times its parts through ``step``."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
            self.tracer.phase = phase or ""
        self._current = times = self.times[key] = {}
        start = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
            return None
        finally:
            times["op"] = perf_counter() - start
            if phase:
                times[phase] = times["op"]
        self.outputs[key] = out
        return out

    def step(self, phase, fn, *args):
        """Time a call that is part of the current operation."""
        if self.tracer is not None:
            self.tracer.phase = phase
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._current[phase] = self._current.get(phase, 0.0) + perf_counter() - start

    def phase(self, name) -> float:
        return sum(t.get(name, 0.0) for t in self.times.values())


class Fastest:
    """For every operation, the fastest time any round gave it, in total
    (``"op"``) and by phase.

    The rounds of a run repeat the same operations.  On a shared machine
    the speed of Python code drifts by tens of percent over seconds, and
    the fastest repetition of each operation is much steadier than any one
    round's time."""

    def __init__(self):
        self.times: dict = {}

    def add(self, rec: Round):
        for key, times in rec.times.items():
            best = self.times.setdefault(key, {})
            for name, seconds in times.items():
                if seconds < best.get(name, float("inf")):
                    best[name] = seconds

    def total(self, name="op") -> float:
        """Seconds of one round with every operation at its fastest."""
        return sum(t.get(name, 0.0) for t in self.times.values())


# -- the curated graphs of the suspension results ------------------------------


def curated_graphs() -> list:
    """(name, vertex count, 0-based edges) for K3, P3, C4, 2K2 and the stars
    K1,k plus iso isolated vertices, k <= 3 and iso <= 2."""
    out = [
        ("K3", 3, [(0, 1), (0, 2), (1, 2)]),
        ("P3", 3, [(0, 1), (1, 2)]),
        ("C4", 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        ("2K2", 4, [(0, 1), (2, 3)]),
    ]
    for k in (1, 2, 3):
        for iso in (0, 1, 2):
            name = f"K1,{k}" + (f"+{iso}" if iso else "")
            out.append((name, 1 + k + iso, [(0, i) for i in range(1, k + 1)]))
    return out


def _graph(lib, n, edges, labels=None):
    return lib.from_edges(n, [(u + 1, v + 1) for u, v in edges], labels)


# -- hochster-ladder -----------------------------------------------------------


class HochsterLadder:
    """Hochster Betti tables over QQ and over GF(2) of the t-path ideals of
    the (t-1)-suspensions of the curated graphs at t in {2, 3}, on every
    instance with at most MAX_VARS variables.  The work is fixed; the seed
    sets the variable names and the order of the operations, neither of
    which changes it.

    The instances with 15 and 18 variables are left out: each takes longer
    than all the others together, so a run could not repeat it often enough
    to give a steady time."""

    name = "hochster-ladder"
    MAX_VARS = 12

    def plan(self, seed):
        rng = random.Random(seed)
        items = []
        for name, n, edges in curated_graphs():
            for t in (2, 3):
                if n * t > self.MAX_VARS:
                    continue
                labels = [f"v{x}" for x in rng.sample(range(100, 1000), n)]
                items.append({"name": f"{name} t={t}", "n": n, "edges": edges,
                              "t": t, "labels": labels})
        rng.shuffle(items)
        ops = [(i, field) for field in ("qq", "gf2") for i in range(len(items))]
        rng.shuffle(ops)
        for it in items:
            N, sedges = ref.suspension_edges(it["n"], it["edges"], it["t"])
            it["supports"] = sorted(ref.path_supports(N, sedges, it["t"]))
        return {"items": items, "ops": ops}

    def references(self, plan):
        out = []
        for it in plan["items"]:
            n, t, supports = it["n"], it["t"], it["supports"]
            N = n * t
            faces = ref.stanley_reisner_faces(N, supports)
            top = ref.socle_degrees(n, ref.depolarize(n, t, supports))
            out.append({
                "gens_by_degree": ref.gens_by_degree(supports),
                "numerator": ref.hilbert_numerator(N, faces),
                "pd": n,
                "top_row": {d + n: c for d, c in top.items()},
            })
        return out

    def build(self, lib, plan):
        ideals = []
        for it in plan["items"]:
            g = _graph(lib, it["n"], it["edges"], it["labels"])
            ideals.append(lib.t_path_ideal(lib.suspension(g, it["t"]), it["t"]))
        return {"ideals": ideals, "ops": plan["ops"],
                "fields": {"qq": lib.RATIONALS, "gf2": lib.GF2}}

    def check_inputs(self, plan, inputs):
        errors = []
        for it, ideal in zip(plan["items"], inputs["ideals"]):
            if sorted(g.support_mask for g in ideal.gens) != it["supports"]:
                errors.append(f"{it['name']}: generators differ from the t-paths")
        return errors

    def run(self, lib, inputs, rec):
        phase = {"qq": "hochster_qq", "gf2": "hochster_gf2"}
        for i, field in inputs["ops"]:
            rec.op((i, field), phase[field], lib.betti_table,
                   inputs["ideals"][i], inputs["fields"][field])

    def check(self, plan, refs, outputs):
        errors = []
        for (i, field), table in outputs.items():
            it, want = plan["items"][i], refs[i]
            e = table.entries
            tag = f"{it['name']} {field}"
            if e.get((0, 0)) != 1:
                errors.append(f"{tag}: beta_00 = {e.get((0, 0))}")
            row1 = {j: b for (k, j), b in e.items() if k == 1}
            if row1 != want["gens_by_degree"]:
                errors.append(f"{tag}: beta_1 {row1} != generators {want['gens_by_degree']}")
            if ref.alternating_sums(e) != want["numerator"]:
                errors.append(f"{tag}: alternating sums differ from the Hilbert numerator")
            if table.pd != want["pd"]:
                errors.append(f"{tag}: pd {table.pd} != {want['pd']}")
            top = {j: b for (k, j), b in e.items() if k == want["pd"]}
            if top != want["top_row"]:
                errors.append(f"{tag}: beta_n {top} != socle {want['top_row']}")
        return errors

    def report(self, best, ops, scale):
        return {"hochster_qq_s": ("s", best.total("hochster_qq") * scale),
                "hochster_gf2_s": ("s", best.total("hochster_gf2") * scale)}

    def betti_phases(self):
        return ("hochster_qq", "hochster_gf2")


# -- licci-sweep ---------------------------------------------------------------


class LicciSweep:
    """invariants(betti_table(I), I) and then classify_licci(I), the order of
    the harness sweep, on: every complementary edge ideal of a labeled graph
    on 3..5 vertices without isolated vertices, a seeded sample of
    N6_SAMPLE of the 6-vertex ones, the t-path ideals of the cycles C_n
    (t in {2, 3, 4}, n <= 10) and the tree path ideals of the paper's tree
    corollary, in a seeded order."""

    name = "licci-sweep"
    N6_SAMPLE = 800

    def plan(self, seed):
        rng = random.Random(seed)
        items = []
        for n in (3, 4, 5):
            items += [("comp", n, ref.graph_edges(n, m))
                      for m in ref.graph_masks_without_isolated(n)]
        six = rng.sample(ref.graph_masks_without_isolated(6), self.N6_SAMPLE)
        items += [("comp", 6, ref.graph_edges(6, m)) for m in six]
        items += [("cycle", n, t) for t in (2, 3, 4) for n in range(max(t, 3), 11)]
        items += [("tree", m, t) for t in (2, 3, 4) for m in (t, 2 * t)]
        items.append(("tree", 5, 3))
        rng.shuffle(items)
        return {"items": items}

    def references(self, plan):
        out = []
        for kind, n, x in plan["items"]:
            if kind == "comp":
                out.append({"cm": ref.complementary_is_cm(n, x),
                            "licci": ref.complementary_is_licci(n, x)})
            elif kind == "cycle":
                out.append({"pd_reg": ref.cycle_pd_reg(x, n),
                            "licci": ref.cycle_is_licci(x, n)})
            else:  # P_t(path_t) and P_t(path_2t) are licci, P_3(path_5) is not
                out.append({"licci": not (n == 5 and x == 3)})
        return out

    def build(self, lib, plan):
        ideals = []
        for kind, n, x in plan["items"]:
            if kind == "comp":
                ideals.append(lib.complementary_edge_ideal(_graph(lib, n, x)))
            elif kind == "cycle":
                ideals.append(lib.t_path_ideal(lib.cycle(n), x))
            else:
                ideals.append(lib.t_path_ideal(lib.path(n), x))
        return {"ideals": ideals}

    def check_inputs(self, plan, inputs):
        errors = []
        for (kind, n, x), ideal in zip(plan["items"], inputs["ideals"]):
            if kind == "comp":
                full = (1 << n) - 1
                want = ref.minimal_supports([full & ~(1 << u | 1 << v) for u, v in x])
            else:
                edges = ([(i, (i + 1) % n) for i in range(n)] if kind == "cycle"
                         else [(i, i + 1) for i in range(n - 1)])
                want = ref.minimal_supports(ref.path_supports(n, edges, x))
            if sorted(g.support_mask for g in ideal.gens) != sorted(want):
                errors.append(f"{kind} n={n} {x}: generators differ")
        return errors

    def run(self, lib, inputs, rec):
        def one(ideal):
            table = rec.step("hochster", lib.betti_table, ideal)
            inv = rec.step("classify", lib.invariants, table, ideal)
            return inv, rec.step("classify", lib.classify_licci, ideal).status

        for i, ideal in enumerate(inputs["ideals"]):
            rec.op(i, None, one, ideal)

    def check(self, plan, refs, outputs):
        errors = []
        for i, (inv, status) in outputs.items():
            (kind, n, x), want = plan["items"][i], refs[i]
            tag = f"{kind} n={n} {x}"
            if status != (LICCI if want["licci"] else NOT_LICCI):
                errors.append(f"{tag}: verdict {status}, licci expected {want['licci']}")
            if kind == "comp" and inv.is_CM != want["cm"]:
                errors.append(f"{tag}: CM {inv.is_CM}, expected {want['cm']}")
            if kind == "cycle" and (inv.pd, inv.reg) != want["pd_reg"]:
                errors.append(f"{tag}: (pd, reg) {(inv.pd, inv.reg)} != {want['pd_reg']}")
        return errors

    def report(self, best, ops, scale):
        return {"classify_per_s": ("ideals/s", ops / (best.total() * scale))}

    def betti_phases(self):
        return ("hochster",)


# -- artinian-linkage ----------------------------------------------------------


class ArtinianLinkage:
    """Linkage and the Huneke-Ulrich iteration on Artinian ideals, with no
    Hochster call.  For each seeded ideal I in 3..5 variables (pure powers
    x_i^{a_i} with 2 <= a_i <= 6, plus 1..4 mixed generators strictly inside
    the box): hu_decide(I); J = CI : I with CI the pure powers;
    verify_direct_link(I, J, CI); hu_decide(J); reg_artinian_socle(I); and
    taylor_oracle(I), which takes up to 14 generators (these have at most
    9).  Then hu_decide on
    the depolarized suspensions of the curated graphs at t in {2, 3, 4}, and
    verify_suspension_chain on every (n, t) below, all with n t <= 24."""

    name = "artinian-linkage"
    # (variables, pure power exponents): every multiset of exponents is used
    # once, so the exponent boxes, which set the cost of the socle, are the
    # same for every seed; the seed permutes each exponent vector and draws
    # the mixed generators
    EXPONENTS = ((3, (2, 3, 4, 5, 6)), (4, (2, 3, 4, 5, 6)), (5, (2, 3, 4, 5)))
    CHAINS = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4),  # the paper's instances
              (2, 6), (2, 8), (2, 10), (2, 12), (3, 6), (3, 8),
              (4, 4), (4, 5), (4, 6), (5, 4), (6, 4), (8, 3))

    def __init__(self):
        self._colons_checked = set()

    def plan(self, seed):
        rng = random.Random(seed)
        ideals = []
        exponents = [list(a) for n, values in self.EXPONENTS
                     for a in combinations_with_replacement(values, n)]
        for k, a in enumerate(exponents):
            n = len(a)
            rng.shuffle(a)
            mixed = []
            for _ in range(1 + k % 4):
                e = [0] * n
                for i in rng.sample(range(n), rng.randint(2, n)):
                    e[i] = rng.randint(1, a[i] - 1)
                mixed.append(tuple(e))
            pure = [tuple(a[i] if j == i else 0 for j in range(n)) for i in range(n)]
            ideals.append({"n": n, "a": a, "gens": pure + mixed})
        rng.shuffle(ideals)
        susp = []
        for name, n, edges in curated_graphs():
            for t in (2, 3, 4):
                N, sedges = ref.suspension_edges(n, edges, t)
                gens = ref.depolarize(n, t, ref.path_supports(N, sedges, t))
                susp.append({"name": f"{name} t={t}", "n": n, "edges": edges, "t": t,
                             "gens": gens})
        return {"ideals": ideals, "susp": susp, "chains": list(self.CHAINS)}

    def references(self, plan):
        ideals = []
        for it in plan["ideals"]:
            socle = ref.socle_degrees(it["n"], it["gens"])
            ideals.append({"colon": ref.colon_by_box(it["n"], it["a"], it["gens"]),
                           "reg": max(socle)})
        susp = []
        for it in plan["susp"]:
            star = ref.is_star_plus_isolated(it["n"], it["edges"])
            t = it["t"]
            if not star:
                want = NOT_LICCI
            elif t == 2 or len(it["edges"]) <= 1:
                want = LICCI
            elif t == 4:
                want = NOT_LICCI
            else:
                want = None  # stars with >= 2 edges at t = 3: open, not asserted
            susp.append(want)
        return {"ideals": ideals, "susp": susp}

    def build(self, lib, plan):
        ideals, cis = [], []
        for it in plan["ideals"]:
            names = [f"x{i + 1}" for i in range(it["n"])]
            ideals.append(lib.MonomialIdeal(names, it["gens"]))
            cis.append(lib.MonomialIdeal(names, it["gens"][:it["n"]]))
        susp = []
        for it in plan["susp"]:
            g = _graph(lib, it["n"], it["edges"])
            susp.append(lib.depolarize_suspension(g, it["t"]))
        return {"ideals": ideals, "cis": cis, "susp": susp, "chains": plan["chains"]}

    def check_inputs(self, plan, inputs):
        errors = []
        for it, ideal in zip(plan["susp"], inputs["susp"]):
            if set(ideal.gens) != set(ref.minimal_exponents(it["gens"])):
                errors.append(f"{it['name']}: depolarized generators differ")
        return errors

    def run(self, lib, inputs, rec):
        def one(ideal, ci):
            v1 = rec.step("hu", lib.hu_decide, ideal).status
            j = rec.step("linkage", ci.colon, ideal)
            link = rec.step("linkage", lib.verify_direct_link, ideal, j, ci.gens).passed
            v2 = rec.step("hu", lib.hu_decide, j).status
            reg = rec.step("socle", lib.reg_artinian_socle, ideal)
            table = rec.step("taylor", lib.taylor_oracle, ideal)
            return v1, tuple(j.gens), link, v2, reg, (table.pd, table.reg)

        for i, (ideal, ci) in enumerate(zip(inputs["ideals"], inputs["cis"])):
            rec.op(("ideal", i), None, one, ideal, ci)
        for i, dep in enumerate(inputs["susp"]):
            rec.op(("susp", i), "hu", lambda d: lib.hu_decide(d).status, dep)
        for n, t in inputs["chains"]:
            rec.op(("chain", n, t), "linkage", lib.verify_suspension_chain, n, t)

    def check(self, plan, refs, outputs):
        errors = []
        for key, out in outputs.items():
            if key[0] == "ideal":
                it, want = plan["ideals"][key[1]], refs["ideals"][key[1]]
                v1, jgens, link, v2, reg, taylor = out
                tag = f"ideal {key[1]} {it['gens']}"
                # later rounds give the same J; the box walk need not be repeated
                if (key[1], jgens) not in self._colons_checked:
                    if ref.box_members(it["a"], jgens) != want["colon"]:
                        errors.append(f"{tag}: CI : I differs from the box check")
                    else:
                        self._colons_checked.add((key[1], jgens))
                if not link:
                    errors.append(f"{tag}: direct link failed")
                if v1 != v2:
                    errors.append(f"{tag}: HU verdicts {v1} and {v2} of linked ideals differ")
                if reg != want["reg"]:
                    errors.append(f"{tag}: socle reg {reg} != {want['reg']}")
                if taylor != (it["n"], want["reg"]):
                    errors.append(f"{tag}: Taylor (pd, reg) {taylor}")
            elif key[0] == "susp":
                want = refs["susp"][key[1]]
                if want is not None and out != want:
                    errors.append(f"{plan['susp'][key[1]]['name']}: {out}, expected {want}")
            elif not out.passed:
                errors.append(f"chain {key[1:]}: {[c.name for c in out.failures()]}")
        return errors

    def report(self, best, ops, scale):
        return {"taylor_s": ("s", best.total("taylor") * scale),
                "linkage_s": ("s", best.total("linkage") * scale)}

    def betti_phases(self):
        return ("taylor",)


WORKLOADS = {w.name: w for w in (HochsterLadder(), LicciSweep(), ArtinianLinkage())}
