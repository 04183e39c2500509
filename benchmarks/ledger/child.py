"""One workload, one fresh interpreter: set-up, warm-up, timed loop.

Started by ``run.py`` with thread pins and a fixed hash seed already in
the environment. Prints one JSON object on its last stdout line.
``--spawned`` is the parent's ``time.perf_counter()`` at spawn
(CLOCK_MONOTONIC is system-wide), so ``setup_s`` covers interpreter
start, imports, input generation and the warm-up; run by hand without
it, ``setup_s`` starts at argument parsing instead.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import json
import os
import resource
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

_NO_SPAN = contextlib.nullcontext()


class SpanLog:
    """Driver spans kept in memory: [name, start, end, parent, iteration,
    profiled]. ``parent`` indexes this list (None at the root)."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.iteration = None
        self.profiled = False

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._open[-1] if self._open else None,
                  self.iteration, self.profiled]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def unprofiled_seconds(self) -> dict[str, float]:
        """Total seconds per span name over the timed iterations that
        ran without the profiler."""
        out: dict[str, float] = {}
        for name, start, end, _parent, iteration, profiled in self.spans:
            if iteration and not profiled and name != "iteration":
                out[name] = out.get(name, 0.0) + (end - start)
        return out


class InflateMeter:
    """Bytes ``zlib.decompress`` hands back. Every layer that inflates
    a chunk (formats, core, rlang, the scihadoop reader) calls it as a
    module attribute, so a traced run swaps this in before ``repro`` is
    imported and reads ``formats.bytes_decoded`` off it."""

    def __init__(self):
        self.bytes_out = 0
        self._inflate = zlib.decompress

    def decompress(self, *args, **kwargs):
        raw = self._inflate(*args, **kwargs)
        self.bytes_out += len(raw)
        return raw


def calibrate() -> dict:
    """Host fingerprint: a fixed pure-Python + numpy loop, so ledger
    rows from different runners can be normalised."""
    import numpy as np

    def loop():
        t0 = time.perf_counter()
        acc = 0
        for k in range(400_000):
            acc += (k * k) % 7
        rng = np.random.default_rng(1)
        a = rng.random((400, 400))
        for _ in range(10):
            a = np.sqrt(a @ a.T + 1.0)
        np.char.mod("%.8e", a.ravel()[:20_000])
        return time.perf_counter() - t0

    return {
        "calib_s": min(loop() for _ in range(3)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def run(args) -> dict:
    meter = InflateMeter()
    if args.traced:
        zlib.decompress = meter.decompress
    import fold
    import suite

    log = SpanLog() if args.traced else None
    span = log.span if log else (lambda _name: _NO_SPAN)
    workload = suite.WORKLOADS[args.workload](
        args.seed, args.iterations, bool(args.quick), span)
    workload.setup()
    warm = workload.iteration(0)
    setup_s = time.perf_counter() - args.spawned
    problems = workload.check(0, warm).problems
    del warm

    # a traced run times its first half with spans only and its second
    # half under cProfile too: the ratio is the tracing overhead
    profile = cProfile.Profile() if args.traced else None
    first_profiled = args.iterations // 2 + 1 if args.traced else None
    samples, outcomes = [], []
    for i in range(1, args.iterations + 1):
        profiled = bool(args.traced) and i >= first_profiled
        if log:
            log.iteration, log.profiled = i, profiled
        gc.collect()
        inflated = meter.bytes_out
        if profiled:
            profile.enable()
        t0 = time.perf_counter()
        with span("iteration"):
            out = workload.iteration(i)
        elapsed = time.perf_counter() - t0
        if profiled:
            profile.disable()
        samples.append(elapsed)
        inflated = meter.bytes_out - inflated
        outcome = workload.check(i, out)
        outcome.counts["formats.bytes_decoded"] = inflated
        del out
        outcomes.append(outcome)

    failed = sum(1 for outcome in outcomes if outcome.problems)
    for outcome in outcomes:
        problems += outcome.problems
    result = {
        "workload": workload.name,
        "unit": workload.unit,
        "seed": args.seed,
        "sizes": workload.size,
        "setup_s": setup_s,
        "samples": samples,
        "work": [outcome.work for outcome in outcomes],
        "sim_s": sum(outcome.sim_s for outcome in outcomes),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(outcomes),
        "failed": failed,
        "problems": problems[:20],
    }
    if args.traced:
        n_plain = first_profiled - 1
        traced = outcomes[n_plain:]
        rows = fold.rows_from_profile(profile)
        layers = fold.fold_layers(rows, SRC, HERE)
        for entry in layers.values():
            entry["self_s"] /= len(traced)
            entry["calls_in"] /= len(traced)
        counts: dict[str, float] = {}
        for outcome in traced:
            for name, value in outcome.counts.items():
                counts[name] = counts.get(name, 0) + value / len(traced)
        calls = {
            "sim.events": fold.count_calls(
                rows, "repro/sim/engine.py",
                ("timeout", "event", "process")),
            "sim.resources.transfers": fold.count_calls(
                rows, "repro/sim/resources.py", ("transfer",)),
            "ext.zlib.compress_calls": fold.count_calls(
                rows, None, ("zlib.compress",)),
            "ext.zlib.decompress_calls": fold.count_calls(
                rows, None, ("zlib.decompress",)),
        }
        counts.update((name, value / len(traced))
                      for name, value in calls.items())
        result.update({
            "n_plain": n_plain,
            "layers": layers,
            "counts": counts,
            "driver": {name: seconds / n_plain for name, seconds
                       in log.unprofiled_seconds().items()},
        })
        os.makedirs(suite.OUT_DIR, exist_ok=True)
        with open(os.path.join(
                suite.OUT_DIR, f"{workload.name}.spans.json"), "w") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "fields": ["name", "start", "end", "parent",
                                  "iteration", "profiled"],
                       "spans": log.spans}, fh)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--spawned", type=float, default=None)
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args()
    if args.spawned is None:
        args.spawned = time.perf_counter()
    sys.path.insert(0, SRC)
    result = calibrate() if args.calibrate else run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
