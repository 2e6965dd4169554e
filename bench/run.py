"""Benchmark for liccilab: one workload per run, or all of them in turn.

    python3 bench/run.py --workload hochster-ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, default seed

A run is one process with one caller in a closed loop, no threads and no
worker processes.  It imports liccilab from ``src/`` of the checkout it
sits in and repeats whole rounds of its workload until ``--seconds`` of
timed work are spent.  Every round starts with a fresh import of the
package (so its Betti caches are empty) and builds the workload's ideals
again; that import and build is the set-up.  Each round's outputs are
checked against ``reference.py``.  Reported times are scaled to a
reference machine speed (see ``probe``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``spans.py`` with ``--trace 1``.
Lines before it print the same figures by name and unit.  A result file
(and with ``--trace 1`` the spans) goes to ``.bench_out/`` of the
checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "liccilab"
DEFAULT_SEED = 20260811
DEFAULT_SECONDS = 30
# set-ups made before the first round and between rounds, besides the one
# that starts each round, so that setup_s is a median of samples spread over
# the run even when few rounds fit in it
SETUPS_FIRST = 4
SETUPS_BETWEEN = 2
# the fastest time of probe() measured on a 2-core Xeon VM with Python 3.11;
# every reported time is scaled to that speed
PROBE_REF_S = 0.0112

E2E = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("betti_s", "s"),
    ("peak_rss_mb", "MB"),
)


def fresh_import():
    """Import the package anew, dropping every module of an earlier import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lib = importlib.import_module(PACKAGE)
    if Path(lib.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {lib.__file__}, not from {SRC}")
    return lib


def probe() -> float:
    """Fastest of five runs of a fixed computation of the benchmark's own.

    A shared machine's speed can drift by tens of percent over minutes,
    which no statistic within one run removes; liccilab's times move with
    this probe's, so the reported times are scaled by PROBE_REF_S / (the
    fastest probe of the run), as if the run had gone at the reference
    speed."""
    import reference as ref

    best = float("inf")
    for _ in range(5):
        start = perf_counter()
        ref.stanley_reisner_faces(14, [3 << i for i in range(13)])
        ref.socle(4, [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3), (1, 1, 1, 0)])
        best = min(best, perf_counter() - start)
    return best


def run_one(workload, seed: int, seconds: float, tracer) -> int:
    import selftest
    from workloads import Fastest, Round

    errors = [f"selftest: {e}" for e in selftest.failures()]
    plan = workload.plan(seed)
    refs = workload.references(plan)

    setups = []

    def setup():
        gc.collect()
        start = perf_counter()
        lib = fresh_import()
        if tracer is not None:
            tracer.install(lib)
        inputs = workload.build(lib, plan)
        setups.append(perf_counter() - start)
        return lib, inputs

    probes = [probe() for _ in range(3)]
    for _ in range(SETUPS_FIRST):
        setup()

    best = Fastest()
    walls, layer_rounds, accounts = [], [], []
    attempted = failed = ops_per_round = 0
    op_errors = []
    while True:
        if tracer is not None:
            tracer.reset_totals()
        lib, inputs = setup()
        if not walls:
            errors += workload.check_inputs(plan, inputs)
        rec = Round(tracer)
        start = perf_counter()
        workload.run(lib, inputs, rec)
        walls.append(perf_counter() - start)
        errors += workload.check(plan, refs, rec.outputs)
        best.add(rec)
        attempted += rec.attempted
        failed += rec.failed
        op_errors += rec.errors
        ops_per_round = rec.attempted - rec.failed
        if tracer is not None:
            layer_rounds.append(tracer.layer_metrics())
            accounts.append(_accounts(rec, tracer))
        del lib, inputs, rec
        probes.append(probe())
        if sum(walls) + statistics.median(walls) > seconds:
            break
        for _ in range(SETUPS_BETWEEN):
            setup()

    med = statistics.median
    scale = PROBE_REF_S / min(probes)
    measured = {
        "setup_s": med(setups),
        "run_s": best.total(),
        "betti_s": sum(best.total(p) for p in workload.betti_phases()),
    }
    e2e = {name: value * scale for name, value in measured.items()}
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra = workload.report(best, ops_per_round, scale)

    print(f"workload {workload.name} seed {seed} trace {int(tracer is not None)}: "
          f"{len(walls)} rounds, {attempted} operations attempted, {failed} failed")
    print(f"  speed scale {scale:.4f} (fastest probe {min(probes):.5f} s); "
          "times below are scaled, measured ones in brackets")
    for name, unit in E2E:
        raw = f" [{measured[name]:.6g}]" if name in measured else ""
        print(f"  {name} = {e2e[name]:.6g} {unit}{raw}")
    for name, (unit, value) in extra.items():
        print(f"  {name} = {value:.6g} {unit}")
    for message in (errors + op_errors)[:20]:
        print(f"  error: {message}", file=sys.stderr)

    summary = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": tracer is not None, "rounds": len(walls),
        "attempted": attempted, "failed": failed, "errors": errors + op_errors,
        "setup_s_samples": setups, "round_wall_s": walls, "probe_s": probes,
        "speed_scale": scale, "measured": measured, "end_to_end": e2e, "workload_metrics": {k: v[1] for k, v in extra.items()},
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }
    OUT.mkdir(exist_ok=True)
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E}
        (OUT / f"result-{workload.name}.json").write_text(json.dumps(summary, indent=1) + "\n")
    else:
        from spans import LAYER_METRICS

        metrics = {name: {"value": med(r[name] for r in layer_rounds), "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
        summary["phase_accounts"] = accounts
        for phase, (wall, layers) in sorted(accounts[0].items()):
            print(f"  traced {phase} (first round): wall {wall:.4f} s, span self time "
                  f"{sum(layers.values()):.4f} s: "
                  + " ".join(f"{k}={v:.4f}" for k, v in sorted(layers.items())))
        for name, unit, _ in LAYER_METRICS:
            print(f"  {name} = {metrics[name]['value']:.6g} {unit}")
        summary["per_layer"] = {k: v["value"] for k, v in metrics.items()}
        tracer.write(OUT / f"trace-{workload.name}.jsonl", summary)

    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _accounts(rec, tracer) -> dict:
    """Per phase of a traced round: its wall time, and the self time of the
    spans of each layer within it."""
    out = {}
    for phase in {p for t in rec.times.values() for p in t if p != "op"}:
        layers = {layer: s for (ph, layer), s in tracer.phase_self.items() if ph == phase}
        out[phase] = (rec.phase(phase), layers)
    return out


def run_all(names, args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    return run_one(WORKLOADS[args.workload], args.seed, args.seconds, tracer)


if __name__ == "__main__":
    sys.exit(main())
