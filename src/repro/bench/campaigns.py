"""Spawn-safe campaign point functions for the benchmark matrices.

Every function here is a *campaign worker*: a top-level function taking
one state-point dict of plain JSON parameters and returning a JSON
result. Workers are addressed by ``"repro.bench.campaigns:<name>"``
references and re-imported by fresh ``spawn`` processes, so this module
keeps its import cost minimal — the simulation stack is imported lazily
inside each function, only by the processes that actually run points.

Spawn-safety rules (enforced by :mod:`repro.campaign.runner`):

- workers are importable module attributes — no lambdas, closures or
  bound methods;
- state points carry only JSON primitives — never an ``Environment``,
  node or client; each worker builds its own simulated world;
- results are JSON data, written to the point's ``result.json``.
"""

from __future__ import annotations

__all__ = ["simscale_point", "smoke_point", "sparklike_point",
           "sql_point"]


def simscale_point(statepoint: dict) -> dict:
    """The engine's cluster-scale throughput measurement.

    State point: ``n_nodes``, ``n_tasks``, ``n_jobs``, ``seed``,
    ``repeats``.
    """
    from repro.bench.simscale import run_live

    return run_live(
        n_nodes=statepoint["n_nodes"],
        n_tasks=statepoint["n_tasks"], n_jobs=statepoint["n_jobs"],
        seed=statepoint["seed"], repeats=statepoint["repeats"])


def sparklike_point(statepoint: dict) -> dict:
    """One sparklike engine configuration's iterative-wordcount run.

    State point: ``config`` (a :data:`repro.bench.sparkbench.CONFIGS`
    name), ``n_lines``, ``iterations``.
    """
    from repro.bench.sparkbench import run_config

    return run_config(statepoint["config"],
                      n_lines=statepoint["n_lines"],
                      iterations=statepoint["iterations"])


def sql_point(statepoint: dict) -> dict:
    """One SQL engine configuration's Fig. 9-style pushdown run.

    State point: ``config`` (a :data:`repro.bench.sqlbench.SQL_CONFIGS`
    name), ``shape``, ``timesteps``. The selective threshold is
    recomputed deterministically inside the worker, so it never needs
    to cross the process boundary.
    """
    from repro.bench.sqlbench import run_config

    return run_config(statepoint["config"],
                      shape=tuple(statepoint["shape"]),
                      timesteps=statepoint["timesteps"])


def smoke_point(statepoint: dict) -> dict:
    """One point of the CI smoke sweep: a miniature DES run plus a
    fixed stall.

    State point: ``n_nodes``, ``n_tasks``, ``n_jobs``, ``seed``,
    ``stall_s``. The DES run is real (deterministic events, clock and
    completion-order signature, so serial-vs-parallel equivalence is
    checked on real simulator output); ``stall_s`` then parks the
    worker in ``time.sleep`` to model the external-latency component
    (queue submit, result upload) of a real campaign point. The stall
    dominates the point's wall-clock, which makes the CI overlap gate
    measure what it claims to — that the pool overlaps points — rather
    than the core count of whatever runner CI landed on.
    """
    import time

    from repro.bench.simscale import run_world

    measurements = run_world(
        n_nodes=statepoint["n_nodes"],
        n_tasks=statepoint["n_tasks"], n_jobs=statepoint["n_jobs"],
        seed=statepoint["seed"])
    stall = float(statepoint.get("stall_s", 0.0))
    if stall > 0.0:
        time.sleep(stall)
    # wall_seconds/events_per_sec are intentionally dropped: results
    # must be identical between serial and parallel sweeps, and only
    # the deterministic simulator outputs are.
    return {
        "seed": statepoint["seed"],
        "events": measurements["events"],
        "sim_seconds": measurements["sim_seconds"],
        "tasks_completed": measurements["tasks_completed"],
        "signature": measurements["signature"],
    }
