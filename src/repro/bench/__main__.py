"""Command-line experiment runner.

    python -m repro.bench                 # list experiments
    python -m repro.bench fig5 fig7       # run selected experiments
    python -m repro.bench all             # run everything (several min)

Each experiment prints its paper-vs-measured table; pass ``--quick`` to
run miniature sizes (sanity, not publication shape). ``--json`` emits
one machine-readable JSON document instead of ASCII tables (the CI
perf-smoke job consumes it).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench import harness
from repro.bench.reporting import print_table
from repro.obs import TraceSession


def _simscale_rows(**kwargs):
    # lazy: the engine bench drives bare events, no figure harness
    from repro.bench.simscale import simscale_rows
    return simscale_rows(**kwargs)


def _sparklike_rows(**kwargs):
    # lazy: the engine bench builds its own worlds, no figure harness
    from repro.bench.sparkbench import sparklike_rows
    return sparklike_rows(**kwargs)


def _sql_rows(**kwargs):
    # lazy: the SQL bench builds its own worlds, no figure harness
    from repro.bench.sqlbench import sql_rows
    return sql_rows(**kwargs)

EXPERIMENTS = {
    "fig2": (harness.fig2_rows, {},
             {"n_records": 2000, "n_lines": 2000, "dfsio_files": 2,
              "dfsio_bytes": 256 * 1024}),
    "table1": (harness.table1_rows, {}, {}),
    "fig5": (harness.fig5_table3_rows, {}, {"sizes": (3, 6)}),
    "fig6": (harness.fig6_rows, {}, {"readers": (1, 2, 4)}),
    "fig7": (harness.fig7_rows, {}, {"n_timesteps": 4}),
    "fig8": (harness.fig8_rows, {}, {"node_counts": (4, 8),
                                     "n_timesteps": 8}),
    "fig9": (harness.fig9_rows, {}, {"sizes": (3,)}),
    "shuffle": (harness.shuffle_overlap_rows, {}, {"n_timesteps": 4}),
    "write": (harness.write_path_rows, {},
              {"n_files": 2, "blocks_per_file": 2}),
    "simscale": (_simscale_rows, {},
                 {"n_tasks": 1000, "n_jobs": 4, "repeats": 1}),
    "sparklike": (_sparklike_rows, {},
                  {"n_lines": 400, "iterations": 3}),
    "sql": (_sql_rows, {}, {"shape": (8, 32, 32), "timesteps": 1}),
    "abl-align": (harness.abl_chunk_alignment_rows, {},
                  {"n_timesteps": 3}),
    "abl-gran": (harness.abl_read_granularity_rows, {},
                 {"n_timesteps": 3}),
    "abl-subset": (harness.abl_subsetting_rows, {}, {"n_timesteps": 2}),
    "datapath": (harness.datapath_rows, {},
                 {"n_timesteps": 8, "slots_per_node": 2}),
    "ext-scaleup": (harness.ext_scaleup_rows, {},
                    {"slot_counts": (4, 8), "n_timesteps": 8}),
    "ext-spark": (harness.ext_spark_rows, {}, {"n_timesteps": 3}),
}

#: experiments whose runner accepts ``trace=`` (figure benches)
TRACEABLE = {"fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "shuffle",
             "write"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run SciDP reproduction experiments.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment names, or 'all'")
    parser.add_argument("--quick", action="store_true",
                        help="miniature sizes (fast sanity run)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="export a Chrome trace (.json) or JSONL "
                             "(.jsonl) of the simulated runs")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print one JSON document with every "
                             "experiment's columns/rows instead of "
                             "ASCII tables")
    args = parser.parse_args(argv)

    if not args.experiments:
        print("Available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print("  all")
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] \
        else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    session = TraceSession(args.trace) if args.trace else None
    documents = []
    for name in names:
        runner, full_kwargs, quick_kwargs = EXPERIMENTS[name]
        kwargs = dict(quick_kwargs if args.quick else full_kwargs)
        if session is not None and name in TRACEABLE:
            kwargs["trace"] = session
        started = time.time()
        columns, rows, note = runner(**kwargs)
        if args.as_json:
            documents.append({
                "name": name,
                "columns": list(columns),
                "rows": [list(row) for row in rows],
                "note": note,
                "wall_seconds": round(time.time() - started, 3),
            })
        else:
            print_table(name, columns, rows, note)
            print(f"[{name}: {time.time() - started:.1f}s wall]")
    if args.as_json:
        print(json.dumps({"quick": args.quick,
                          "experiments": documents}, indent=2))
    if session is not None:
        if session.runs:
            session.save()
            if not args.as_json:
                print(f"[trace: wrote {args.trace}]")
        elif not args.as_json:
            print(f"[trace: no traceable experiment ran; "
                  f"nothing written to {args.trace}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
