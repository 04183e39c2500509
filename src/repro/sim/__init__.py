"""Deterministic discrete-event simulation kernel.

A small, simpy-like engine: an :class:`Environment` owns a virtual clock and
an event queue; *processes* are Python generators that ``yield`` events
(timeouts, resource requests, other processes) and are resumed when those
events fire. Everything is deterministic — ties are broken by insertion
order, never by wall-clock or hashing.

The performance layer of the SciDP reproduction (disks, network links, CPU
slots) is built entirely on this kernel.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.cache import CacheStats, ReadAheadCache
from repro.sim.pipeline import FanoutWindow, bounded_fanout
from repro.sim.resources import Container, Resource, SharedBandwidth, Store
from repro.sim.stats import Monitor

__all__ = [
    "AllOf",
    "AnyOf",
    "CacheStats",
    "Container",
    "Environment",
    "Event",
    "Interrupt",
    "Monitor",
    "Process",
    "ReadAheadCache",
    "Resource",
    "SharedBandwidth",
    "SimulationError",
    "Store",
    "Timeout",
    "FanoutWindow",
    "bounded_fanout",
]
