"""SciDPInputFormat: the engine integration point (§IV-E.1).

The paper modifies Hadoop's ``FileInputFormat.addInputPath`` to intercept
paths carrying a PFS prefix (``gpfs://``, ``lustre://``) and ``MapTask``
to fetch through the PFS Reader. Our engine's extension point is the
input format, so this class does both jobs:

- ``get_splits``: PFS-prefixed paths run File Explorer + Data Mapper and
  yield one split per dummy block (no locations — the scheduler spreads
  them freely). Other paths fall through to a delegate input format, so
  "SciDP will behave as the original Hadoop and read data from HDFS".
- ``read_records``: dummy-block splits are served by a per-task
  :class:`PFSReader`; everything else delegates.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.reader import PFSReader
from repro.io.registry import split_url
from repro.mapreduce.config import MapReduceError
from repro.mapreduce.input_format import InputSplit, TextInputFormat

__all__ = ["SciDPInputFormat"]


class SciDPInputFormat:
    def __init__(self, scidp, variables: Optional[list[str]] = None,
                 granularity: Optional[int] = None,
                 delegate=None, max_inflight: Optional[int] = None):
        """``scidp``: the :class:`repro.core.runtime.SciDP` runtime.
        ``variables``: variable-level subset for scientific inputs.
        ``granularity``: per-request read size (None = whole block, the
        SciDP default; 64 KiB = stock-Hadoop streaming for the ablation).
        ``delegate``: input format for non-PFS paths (TextInputFormat
        by default).
        ``max_inflight``: the readers' bounded request window (None =
        costs.PFS_MAX_INFLIGHT; 1 = strictly serial)."""
        self.scidp = scidp
        self.variables = variables
        self.granularity = granularity
        self.delegate = delegate or TextInputFormat()
        self.max_inflight = max_inflight

    # -- splits ------------------------------------------------------------
    def get_splits(self, job, storage, client):
        """DES process returning list[InputSplit]."""
        splits: list[InputSplit] = []
        hdfs_paths = []
        for path in job.input_paths:
            scheme, pfs_path = split_url(path)
            if scheme and scheme == self.scidp.pfs_scheme:
                mapped = yield client.env.process(self.scidp.map_input(
                    pfs_path, variables=self.variables))
                for virtual_path, blocks in mapped:
                    for i, block in enumerate(blocks):
                        splits.append(InputSplit(
                            path=virtual_path,
                            index=i,
                            length=block.length,
                            locations=[],  # dummy blocks carry none
                            block=block,
                            meta={"virtual": block.virtual},
                        ))
            else:
                hdfs_paths.append(path)
        if hdfs_paths:
            sub_job = dataclasses.replace(job, input_paths=hdfs_paths)
            splits.extend((yield client.env.process(
                self.delegate.get_splits(sub_job, storage, client))))
        if not splits:
            raise MapReduceError(f"no input found under {job.input_paths}")
        return splits

    # -- records ------------------------------------------------------------
    def read_records(self, split: InputSplit, client, ctx):
        """DES process returning records.

        Scientific dummy blocks produce a single record
        ``((source_path, variable, start), ndarray)``; flat dummy blocks
        produce ``((source_path, offset), bytes)``.
        """
        virtual = split.meta.get("virtual")
        if virtual is None:
            records = yield client.env.process(
                self.delegate.read_records(split, client, ctx))
            return records
        reader = PFSReader(
            self.scidp.pfs_client(ctx.node),
            granularity=self.granularity,
            track=getattr(ctx, "track", None),
            max_inflight=self.max_inflight,
            cache=getattr(ctx, "cache", None))
        data = yield client.env.process(reader.read_block(virtual))
        ctx.counters.increment("scidp", "blocks_read", 1)
        ctx.counters.increment("scidp", "bytes_fetched",
                               int(reader.bytes_fetched))
        ctx.counters.increment("scidp", "bytes_delivered",
                               int(reader.bytes_delivered))
        if virtual.hyperslab is None:
            key = (virtual.source_path, virtual.offset)
        else:
            key = (virtual.source_path, virtual.hyperslab["variable"],
                   tuple(virtual.hyperslab["start"]))
        return [(key, data)]

    # -- prefetch ------------------------------------------------------------
    def prefetch_split(self, split: InputSplit, client, cache, node):
        """Advisory background fetch of one split's stored bytes into
        ``node``'s read-ahead cache (the map runtime's double-buffering
        hook). DES process; non-PFS splits are a no-op."""
        virtual = split.meta.get("virtual") if split.meta else None
        if virtual is None or cache is None:
            return
        reader = PFSReader(
            self.scidp.pfs_client(node),
            granularity=self.granularity,
            track=f"{node.name}.prefetch",
            max_inflight=self.max_inflight,
            cache=cache)
        yield from reader.prefetch_block(virtual)
