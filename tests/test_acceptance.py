"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Each criterion runs the harness tasks that check its claim (see
``liccilab.harness``), so the grids, seeds and exact assertions live in
one place.  The only tolerances are the stated wall-clock budgets.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

from liccilab.harness import DEFAULT_SEED, verify_paper
from liccilab.licci import classify
from liccilab.monomial import MonomialIdeal


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def run_tasks(*ids):
    """Run the harness tasks ``ids`` at the default seed.

    Returns (passed, detail, seconds): the detail joins the first failed
    checks, or the task notes when every check passed.
    """
    t0 = time.time()
    summary = verify_paper(list(ids), seed=DEFAULT_SEED)
    elapsed = time.time() - t0
    details = [d for r in summary.results for d in r.details]
    failures = [d for d in details if d.startswith("FAILED")]
    return summary.passed, "; ".join(failures[:5] or details), elapsed


def test_criterion_1_hu_worked_example():
    # the trace is checked by T1; the < 1 ms classify time only here
    I = MonomialIdeal(
        ["x1", "x2", "x3"], [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1)]
    )
    classify(I)  # warm any lazy imports
    best = min(
        (lambda t0: (classify(I), time.perf_counter() - t0))(time.perf_counter())[1]
        for _ in range(50)
    )
    passed, detail, _ = run_tasks("T1")
    report(
        "criterion 1: worked iteration, exact trace",
        passed and best < 0.001,
        f"min classify time {best * 1000:.3f} ms; {detail}",
    )


def test_criterion_2_cycle_invariants():
    passed, detail, elapsed = run_tasks("T2")
    report(
        "criterion 2: cycle pd/reg formulas on the full grid",
        passed and elapsed < 120,
        f"{detail} in {elapsed:.1f}s",
    )


def test_criterion_3_cycle_licci():
    # T4 holds the total beta_3 = 1 check at n = 2t+1
    passed, detail, _ = run_tasks("T3", "T4")
    report("criterion 3: cycle licci classification", passed, detail)


def test_criterion_4_complementary_sweep():
    passed, detail, elapsed = run_tasks("T5", "T6", "T7")
    report(
        "criterion 4: complementary edge ideals over all labeled graphs",
        passed and elapsed < 300,
        f"{detail}; {elapsed:.1f}s",
    )


def test_criterion_5_suspension_reg_dichotomy():
    passed, detail, _ = run_tasks("T8")
    report("criterion 5: suspension regularity dichotomy", passed, detail)


def test_criterion_6_suspension_licci():
    # the t = 3 probe lines are T9's notes: reported, not asserted
    passed, detail, _ = run_tasks("T9")
    report("criterion 6: suspension licci via the iteration", passed, detail)


def test_criterion_7_linkage_chain():
    passed, detail, _ = run_tasks("T10")
    report(
        "criterion 7: linkage ladder with the three-line colon identity",
        passed,
        detail,
    )


def test_criterion_8_property_suites():
    passed, detail, elapsed = run_tasks("T11", "T15", "T17")
    report(
        "criterion 8: duality, Terai, oracle equivalence, polarization, socle",
        passed and elapsed < 600,
        f"{detail}; {elapsed:.1f}s",
    )


def test_criterion_9_tree_corollary():
    passed, detail, _ = run_tasks("T14")
    report("criterion 9: tree path ideal spot checks", passed, detail)


def test_bound_companion_every_licci_verdict():
    # licci verdicts on the cycle grid, the complementary sweep and a
    # seeded squarefree corpus respect height <= floor(n/alpha) + 1
    passed, detail, _ = run_tasks("T13")
    report("bound companion: licci height bound", passed, detail)


def test_full_harness_gate():
    t0 = time.time()
    summary = verify_paper(seed=DEFAULT_SEED)
    elapsed = time.time() - t0
    for r in summary.results:
        print(r.line())
    report(
        "verification harness: all tasks",
        summary.passed,
        f"{len(summary.results)} tasks in {elapsed:.1f}s",
    )
