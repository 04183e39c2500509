"""Node and Disk devices."""

from __future__ import annotations

from typing import Optional

from repro.cluster.spec import DiskSpec, NodeSpec
from repro.sim import Container, Environment, Event, Resource, SharedBandwidth

__all__ = ["Disk", "Node"]


class Disk:
    """One spinning disk: a shared-bandwidth pipe plus per-request seek.

    Reads and writes share the same head/platter bandwidth, so a single
    pipe serves both directions — exactly the behaviour that penalises
    mixed read/write workloads on the paper's single-disk Hadoop nodes.
    """

    def __init__(self, env: Environment, spec: DiskSpec, name: str = "disk"):
        self.env = env
        self.spec = spec
        self.name = name
        self._pipe = SharedBandwidth(env, spec.bandwidth, name=name)

    def read(self, nbytes: float) -> Event:
        """Start a read of ``nbytes``; returns the completion event."""
        return self._pipe.transfer(nbytes, latency=self.spec.seek_latency)

    def write(self, nbytes: float) -> Event:
        """Start a write of ``nbytes``; returns the completion event."""
        return self._pipe.transfer(nbytes, latency=self.spec.seek_latency)

    @property
    def pipe(self) -> SharedBandwidth:
        """The underlying bandwidth pipe — exposed for metrics watchers."""
        return self._pipe


class Node:
    """A machine: CPU slots, memory container, disks, NIC pipes.

    The NIC is full duplex — independent ``tx`` and ``rx`` pipes at the
    link rate. The :class:`repro.cluster.network.Network` charges transfers
    against both endpoints' pipes.
    """

    def __init__(self, env: Environment, name: str, spec: Optional[NodeSpec] = None):
        self.env = env
        self.name = name
        self.spec = spec or NodeSpec()
        self.cpu = Resource(env, capacity=self.spec.cpus, name=f"{name}.cpu")
        self.memory = Container(
            env, capacity=self.spec.memory, init=0, name=f"{name}.mem")
        self.disks = [
            Disk(env, dspec, name=f"{name}.disk{i}")
            for i, dspec in enumerate(self.spec.disks)
        ]
        self.tx = SharedBandwidth(env, self.spec.nic.bandwidth, f"{name}.tx")
        self.rx = SharedBandwidth(env, self.spec.nic.bandwidth, f"{name}.rx")
        #: flattened copy of ``spec.nic.latency`` — the network charges it
        #: on every fabric transfer, so skip the two-level property chase
        self.nic_latency = self.spec.nic.latency

    @property
    def disk(self) -> Disk:
        """The first (often only) disk — convenience for compute nodes."""
        return self.disks[0]

    def compute(self, seconds: float) -> Event:
        """Pure CPU time. The caller is assumed to already hold a CPU slot
        (the MapReduce scheduler hands slots out); this just advances time.
        """
        if seconds < 0:
            raise ValueError("compute time must be >= 0")
        return self.env.timeout(seconds)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name} cpus={self.spec.cpus}>"
