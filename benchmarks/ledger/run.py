"""Host-time ledger: the repo's benchmark.

    python benchmarks/ledger/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--traced] [--quick] [--selfcheck]

Runs each workload in its own fresh interpreter, one at a time, single
threaded, and prints every metric by name with its unit. An untraced
run gives the end-to-end metrics; a separate traced run gives the
per-layer table. A full-size run of all seven workloads also rewrites
their rows in ``ledger.json``. The last stdout line of a
single-workload run is the JSON object the benchmark contract
(``BENCHMARK.json``) asks for; the contract's driver spells the traced
run ``--trace 1``. See README.md beside this file for the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import fold  # noqa: E402  (sibling module; HERE must be on sys.path)

DEFAULT_SEED = 20180710
#: BENCHMARK.json ``run_seconds``: ten ~0.5 s iterations
RUN_SECONDS = 6
ITERATIONS = 10
LEDGER_PATH = os.path.join(HERE, "ledger.json")

#: name -> one-line why (the full text is in suite.py / README.md)
WORKLOADS = {
    "nuwrf_build": "world synthesis + scinc encode + CSV conversion: "
                   "formats write path, ~0 DES work",
    "imgplot_5way": "the Fig. 5 five-solution pipeline: every layer "
                    "carries load; set-up is the world pool",
    "mr_records": "terasort + grep on HDFS and the connector: mapreduce "
                  "record path, bypass for DES optimisations",
    "dfsio_rw": "TestDFSIO write then read at replication 3: sim engine "
                "and bandwidth sharing, writes beside reads",
    "sql_scan": "seeded mix of 150 SQL queries over zone-mapped scinc "
                "tables: rlang planner and chunk pruning",
    "spark_iter": "cached iterative aggregation + SciDP plot pass on "
                  "the sparklike engine: DAG scheduling and cache",
    "trace_record": "observed scidp run + trace save/validate/report/"
                    "critical path: obs with live tracer hooks",
}

#: end-to-end metrics: name -> (unit, better, regression bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.10),
    "iter_s": ("s", "lower", 0.10),
    "work_per_s": ("1/s", "higher", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.10),
}
#: simulated seconds are exact for a seed: any move is a model change
SIM_S_TOLERANCE = 1e-9

COUNTS = {
    # name: (unit, better)
    "sim.events": ("count", "lower"),
    "sim.host_us_per_event": ("us", "lower"),
    "sim.resources.transfers": ("count", "lower"),
    "formats.bytes_encoded": ("B", "lower"),
    "formats.bytes_decoded": ("B", "lower"),
    "formats.compress_ratio": ("ratio", "higher"),
    "ext.zlib.compress_calls": ("count", "lower"),
    "ext.zlib.decompress_calls": ("count", "lower"),
    "workloads.text_bytes": ("B", "lower"),
    "io.bytes_read": ("B", "lower"),
    "io.bytes_written": ("B", "lower"),
    "core.bytes_fetched": ("B", "lower"),
    "core.bytes_delivered": ("B", "lower"),
    "mapreduce.tasks": ("count", "lower"),
    "mapreduce.records_mapped": ("count", "lower"),
    "mapreduce.shuffle_bytes": ("B", "lower"),
    "rlang.queries": ("count", "higher"),
    "rlang.chunks_read": ("count", "lower"),
    "rlang.chunks_pruned": ("count", "higher"),
    "rlang.pruned_share": ("ratio", "higher"),
    "rlang.bytes_read": ("B", "lower"),
    "rlang.bytes_skipped": ("B", "higher"),
    "rlang.frames_plotted": ("count", "higher"),
    "sparklike.tasks": ("count", "lower"),
    "sparklike.cache_hit_share": ("ratio", "higher"),
    "obs.spans": ("count", "higher"),
    "obs.trace_bytes": ("B", "lower"),
}

#: driver spans reported as ``driver.<call>.s``
DRIVER_CALLS = (
    "build_world",
    "run_solution.scidp", "run_solution.scihadoop",
    "run_solution.porthadoop", "run_solution.vanilla",
    "run_solution.naive",
    "store_input", "run_terasort", "run_grep",
    "run_dfsio_write", "run_dfsio_read",
    "query", "sqldf",
    "count", "reduce_by_key", "map_partitions",
    "observe_world", "save", "validate_trace", "report_data",
    "critical_path",
)


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    spec: dict[str, tuple[str, str]] = {}
    for layer in fold.LAYERS:
        spec[f"{layer}.self_s"] = ("s", "lower")
        spec[f"{layer}.calls_in"] = ("count", "lower")
    spec.update(COUNTS)
    for call in DRIVER_CALLS:
        spec[f"driver.{call}.s"] = ("s", "lower")
    spec["trace.overhead_ratio"] = ("ratio", "lower")
    # simulated, not host, seconds: its own unit keeps the two apart
    spec["sim_s"] = ("sim_s", "lower")
    return spec


def contract() -> dict:
    """The content of ``BENCHMARK.json`` (test_ledger.py keeps the
    committed file equal to this)."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in per_layer_spec().items()],
    }


# --------------------------------------------------------------------------
# Children
# --------------------------------------------------------------------------

def _child(*flags: str) -> dict:
    """Run ``child.py`` to completion; returns its JSON result."""
    env = dict(os.environ)
    # pinned before numpy is imported; hash seed fixed so call counts
    # repeat run to run
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"),
         "--spawned", repr(time.perf_counter()), *flags],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"ledger child failed ({' '.join(flags)})")
    return json.loads(proc.stdout.splitlines()[-1])


def iterations_for(seconds: float) -> int:
    """Fixed work, not fixed time: the iteration count follows
    ``--seconds`` (10 at the contract's run_seconds) so counts and
    simulated seconds are exact for a seed."""
    return max(2, round(ITERATIONS * seconds / RUN_SECONDS))


def measure(name: str, seed: int, iterations: int, traced: bool,
            quick: bool) -> dict:
    """One workload run -> its metric values and bookkeeping."""
    raw = _child(
        "--workload", name, "--seed", str(seed),
        "--iterations", str(iterations),
        "--traced", str(int(traced)), "--quick", str(int(quick)))
    samples = raw["samples"]
    n_plain = raw.get("n_plain", len(samples))
    plain = samples[:n_plain]
    iter_s = statistics.median(plain)
    work = statistics.median(raw["work"])
    run = {
        "workload": name, "seed": seed, "unit": raw["unit"],
        "sizes": raw["sizes"], "work_per_iter": work,
        "samples": len(plain), "iter_min_s": min(plain),
        "iter_max_s": max(plain),
        "attempted": raw["attempted"], "failed": raw["failed"],
        "problems": raw["problems"],
        "end_to_end": {
            "setup_s": raw["setup_s"],
            "iter_s": iter_s,
            "work_per_s": work / iter_s,
            "peak_rss_mb": raw["peak_rss_mb"],
            "sim_s": raw["sim_s"],
        },
    }
    if traced:
        profiled = samples[n_plain:]
        layers = raw["layers"]
        values = {}
        for layer, entry in layers.items():
            values[f"{layer}.self_s"] = entry["self_s"]
            values[f"{layer}.calls_in"] = entry["calls_in"]
        values.update(dict.fromkeys(COUNTS, 0))
        values.update(raw["counts"])
        events = values["sim.events"]
        values["sim.host_us_per_event"] = (
            1e6 * layers["sim.engine"]["self_s"] / events if events else 0)
        for call in DRIVER_CALLS:
            values[f"driver.{call}.s"] = raw["driver"].get(call, 0.0)
        values["trace.overhead_ratio"] = statistics.median(profiled) / iter_s
        values["sim_s"] = raw["sim_s"]
        run["per_layer"] = values
        run["profiled_samples"] = len(profiled)
    return run


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------

def print_run(run: dict) -> None:
    e2e = run["end_to_end"]
    print(f"\n== {run['workload']}  seed {run['seed']}  "
          f"{run['work_per_iter']:g} {run['unit']}/iteration  "
          f"sizes {run['sizes']}")
    print(f"   why: {WORKLOADS[run['workload']]}")
    print(f"  setup_s      {e2e['setup_s']:12.4f} s      "
          f"spawn to end of warm-up")
    print(f"  iter_s       {e2e['iter_s']:12.4f} s      "
          f"median of {run['samples']} "
          f"(min {run['iter_min_s']:.4f}, max {run['iter_max_s']:.4f})")
    print(f"  work_per_s   {e2e['work_per_s']:12.2f} {run['unit']}/s")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:12.1f} MB")
    print(f"  sim_s        {e2e['sim_s']:12.6f} s      "
          f"simulated, exact for the seed")
    print(f"  operations   {run['attempted']} attempted, "
          f"{run['failed']} failed")
    for problem in run["problems"]:
        print(f"  PROBLEM: {problem}")
    if "per_layer" in run:
        print_layers(run)


def print_layers(run: dict) -> None:
    values = run["per_layer"]
    spec = per_layer_spec()
    total = sum(values[f"{layer}.self_s"] for layer in fold.LAYERS)
    print(f"  -- per iteration, {run['profiled_samples']} iterations "
          f"under cProfile (times inflated by "
          f"trace.overhead_ratio = {values['trace.overhead_ratio']:.3f})")
    print(f"  {'layer':<16}{'self_s':>10}{'share':>8}{'calls_in':>12}")
    for layer in fold.LAYERS:
        self_s = values[f"{layer}.self_s"]
        print(f"  {layer:<16}{self_s:>10.4f}"
              f"{self_s / total if total else 0:>8.1%}"
              f"{values[f'{layer}.calls_in']:>12.1f}")
    for name in COUNTS:
        if values[name]:
            print(f"  {name:<28}{values[name]:>16.6g} {spec[name][0]}")
    for call in DRIVER_CALLS:
        name = f"driver.{call}.s"
        if values[name]:
            print(f"  {name:<34}{values[name]:>10.4f} s")


def contract_line(run: dict, traced: bool) -> str:
    if traced:
        spec = per_layer_spec()
        metrics = {name: {"value": run["per_layer"][name], "unit": unit}
                   for name, (unit, _better) in spec.items()}
    else:
        metrics = {name: {"value": run["end_to_end"][name], "unit": unit}
                   for name, (unit, _better, _bound) in END_TO_END.items()}
    return json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    })


def record(runs: list[dict], host: dict) -> None:
    """Merge these runs into the committed ledger (``ledger.json``)."""
    try:
        with open(LEDGER_PATH) as fh:
            ledger = json.load(fh)
    except FileNotFoundError:
        ledger = {"workloads": {}}
    ledger["host"] = host
    ledger["bounds"] = {name: bound for name, (_u, _b, bound)
                        in END_TO_END.items()}
    ledger["bounds"]["sim_s"] = SIM_S_TOLERANCE
    for run in runs:
        row = ledger["workloads"].setdefault(run["workload"], {})
        row.update({
            "why": WORKLOADS[run["workload"]], "seed": run["seed"],
            "sizes": run["sizes"], "work_unit": run["unit"],
            "work_per_iteration": run["work_per_iter"],
        })
        if "per_layer" in run:
            row["per_layer"] = run["per_layer"]
            row["profiled_samples"] = run["profiled_samples"]
        else:
            row["end_to_end"] = run["end_to_end"]
            row["samples"] = run["samples"]
            row["operations"] = {"attempted": run["attempted"],
                                 "failed": run["failed"]}
    with open(LEDGER_PATH, "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nrecorded {len(runs)} run(s) in {LEDGER_PATH}")


# --------------------------------------------------------------------------
# Self-check
# --------------------------------------------------------------------------

def selfcheck(names, seed, iterations, quick) -> int:
    """Run everything twice on the same code; non-zero exit when two
    runs disagree by more than the benchmark's own bounds."""
    bad = 0
    print(f"{'workload':<14}{'metric':<14}{'first':>14}{'second':>14}"
          f"{'gap':>9}{'bound':>8}")
    for name in names:
        first, second = [
            (measure(name, seed, iterations, False, quick),
             measure(name, seed, iterations, True, quick))
            for _ in range(2)]
        for metric, (_unit, _better, bound) in END_TO_END.items():
            a = first[0]["end_to_end"][metric]
            b = second[0]["end_to_end"][metric]
            gap = fold.gap(a, b)
            ok = gap <= bound
            bad += not ok
            print(f"{name:<14}{metric:<14}{a:>14.5f}{b:>14.5f}"
                  f"{gap:>9.2%}{bound:>8.0%}{'' if ok else '  FAIL'}")
        sims = [run["end_to_end"]["sim_s"]
                for pair in (first, second) for run in pair]
        ok = max(sims) - min(sims) <= SIM_S_TOLERANCE * max(sims)
        bad += not ok
        print(f"{name:<14}{'sim_s':<14}{sims[0]:>14.5f}{sims[2]:>14.5f}"
              f"{'exact' if ok else 'MOVED':>9}{'':>8}"
              f"{'' if ok else '  FAIL'}")
        moved = [metric for metric in per_layer_spec()
                 if (metric.endswith(".calls_in") or metric in COUNTS)
                 and metric != "sim.host_us_per_event"
                 and first[1]["per_layer"][metric]
                 != second[1]["per_layer"][metric]]
        bad += bool(moved)
        print(f"{name:<14}{'counts':<14}"
              f"{'identical' if not moved else 'DIFFER: ' + ', '.join(moved)}")
        failed = sum(run["failed"] + bool(run["problems"])
                     for pair in (first, second) for run in pair)
        bad += bool(failed)
        if failed:
            print(f"{name:<14}operations failed in {failed} run(s)  FAIL")
    print("selfcheck", "FAILED" if bad else "passed")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=list(WORKLOADS), metavar="NAME",
                        help="workload(s) to run (default: all seven)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="nominal measuring time; sets the iteration "
                             "count (10 at the default)")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, default=0,
                        help="traced run: the per-layer table")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="the contract driver's spelling: "
                             "1 = --traced")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes, 2 iterations, all oracles")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run twice and compare within the bounds")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("ledger: no src/repro beside the benchmark — nothing to "
              "measure", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    iterations = 2 if args.quick else iterations_for(args.seconds)
    if args.selfcheck:
        return selfcheck(names, args.seed, iterations, args.quick)

    runs = []
    for name in names:
        run = measure(name, args.seed, iterations, bool(args.trace),
                      args.quick)
        print_run(run)
        runs.append(run)
    if set(names) == set(WORKLOADS):
        host = _child("--calibrate")
        print(f"\nhost: python {host['python']}, numpy {host['numpy']}, "
              f"{host['nproc']} cpus, calib_s {host['calib_s']:.4f}")
        if not args.quick and iterations == ITERATIONS:
            record(runs, host)
    print()
    for run in runs:
        print(contract_line(run, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
