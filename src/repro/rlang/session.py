"""SQL over SciDP-resident scinc files: the pushdown scan path.

:class:`SQLSession` runs `sqldf` queries whose tables live as scinc
containers on the parallel file system. The planner's pushdown slots
(:class:`~repro.rlang.plan.Scan` ``columns`` / ``predicate``) become
storage-level pruning *before any PFS bytes move*:

- **Projection pushdown**: only the referenced variables' chunks are
  fetched; unreferenced variables never produce a read.
- **Zone-map pruning**: each pushed conjunct's per-column intervals
  (:func:`~repro.rlang.optimizer.scan_constraints`) are tested against
  the per-chunk ``[min, max, count]`` statistics recorded at scinc write
  time; chunks the zone map proves empty of matches are skipped, and —
  because excluded chunks exclude their *rows* — the matching region
  also prunes chunks of unconstrained variables. Dimension columns
  prune exactly from the chunk grid coordinates.

Every skipped chunk is accounted (``io.read.pfs.skipped_*`` via
``ReadPlanner.account_skipped``, plus the session's ``sql.*`` counters)
so the Fig. 9-style bytes-scanned reduction is measurable, and each
query emits ``sql.parse/plan/prune/scan/exec`` spans.

``pushdown=False`` is the baseline the pruning is measured against:
every chunk of every selected variable of each referenced table is
read, once, in scan order. Its simulated seconds are pinned at 1e-9 by
a recorded golden (``tests/golden/rlang.json``).

Layering: storage is reached only through :mod:`repro.io` (the registry
hands back a client; its planner does the accounting) and the format
layer parses headers — no ``repro.pfs``/``repro.hdfs`` imports here.
"""

from __future__ import annotations

import io
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import costs
from repro.formats.container import (
    MAGIC_LEN,
    ChunkRecord,
    ContainerHeader,
    VariableIndex,
    read_header,
)
from repro.io.plan import ScanPlan
from repro.io.registry import StorageRegistry
from repro.obs.metrics import metrics_of
from repro.obs.trace import tracer_of
from repro.rlang.exec import execute, frame_scan, plan_query
from repro.rlang.frame import DataFrame
from repro.rlang.optimizer import chunk_matches, scan_constraints
from repro.rlang.plan import PlanNode, Scan, lower, plan_scans
from repro.rlang.sqldf import SQLError, parse

__all__ = ["ScincTable", "SQLSession"]

#: first header read size (mirrors the File Explorer's probe)
_HEADER_PROBE = 4096


@dataclass
class ScincTable:
    """One scinc file exposed as a SQL table.

    Columns are the dimension names of the selected variables followed
    by the variable leaf names, in file order; every selected variable
    must share one shape and dimension tuple (the NU-WRF layout).
    """

    name: str
    url: str
    variables: Optional[list[str]] = None
    # resolved at header-load time
    dims: list[str] = field(default_factory=list)
    shape: tuple = ()
    var_paths: list[str] = field(default_factory=list)

    def bind(self, header: ContainerHeader) -> None:
        paths = []
        for path in header.variable_paths():
            var = header.variable(path)
            if self.variables is None or var.name in self.variables \
                    or var.path in self.variables:
                paths.append(path)
        if not paths:
            raise SQLError(
                f"table {self.name!r}: no variables selected from "
                f"{self.url} (asked for {self.variables})")
        first = header.variable(paths[0])
        for path in paths[1:]:
            var = header.variable(path)
            if var.shape != first.shape or var.dims != first.dims:
                raise SQLError(
                    f"table {self.name!r}: variable {var.name!r} shape "
                    f"{var.shape} does not match {first.name!r} "
                    f"{first.shape}; register them as separate tables")
        self.dims = list(first.dims)
        self.shape = first.shape
        self.var_paths = paths

    @property
    def schema(self) -> list[str]:
        return self.dims + [p.rsplit("/", 1)[-1] for p in self.var_paths]


@dataclass
class ScanInfo:
    """Per-scan prune/read accounting exposed on ``last_scan_info``."""

    table: str
    columns: list[str]
    chunks_read: int = 0
    chunks_pruned: int = 0
    bytes_read: int = 0
    bytes_skipped: int = 0
    variables_pruned: int = 0
    plans: list[ScanPlan] = field(default_factory=list)


class SQLSession:
    """Queries over registered frames and scinc-backed tables.

    ``pushdown`` toggles the optimizer rewrites (the perf knob, on by
    default); off, every referenced table is read in full.
    """

    def __init__(self, env, registry: StorageRegistry, node,
                 pushdown: bool = True, track: str = "sql"):
        self.env = env
        self.registry = registry
        self.node = node
        self.pushdown = pushdown
        self.track = track
        self.frames: dict[str, DataFrame] = {}
        self.tables: dict[str, ScincTable] = {}
        self._clients: dict[int, tuple] = {}
        #: url -> (ContainerHeader, file size); headers are read once
        #: per file per session, with one timed charge
        self._headers: dict[str, tuple[ContainerHeader, int]] = {}
        self.last_scan_info: list[ScanInfo] = []

    # -- registration ------------------------------------------------------
    def register_frame(self, name: str, frame: DataFrame) -> None:
        self.frames[name] = frame

    def register_scinc(self, name: str, url: str,
                       variables: Optional[list[str]] = None) -> None:
        self.tables[name] = ScincTable(name, url, variables=variables)

    # -- storage plumbing --------------------------------------------------
    def _open(self, url: str):
        backend, path = self.registry.resolve(url)
        key = id(backend)
        if key not in self._clients:
            self._clients[key] = (backend.client(self.node), None)
        return self._clients[key][0], path

    def _count(self, name: str, value: int) -> None:
        registry = metrics_of(self.env)
        if registry is not None and value:
            registry.counter(name).inc(value)

    def _load_header(self, table: ScincTable):
        """DES process: read + parse one file's header (cached)."""
        if table.url in self._headers:
            if not table.var_paths:
                table.bind(self._headers[table.url][0])
            return
        client, path = self._open(table.url)
        inode = yield self.env.process(client.stat(path))
        probe = min(_HEADER_PROBE, inode.size)
        head = yield self.env.process(client.read(path, 0, probe))
        header_len = int.from_bytes(
            head[MAGIC_LEN:MAGIC_LEN + 8], "little")
        data_start = MAGIC_LEN + 8 + header_len
        if data_start > len(head):
            head += yield self.env.process(
                client.read(path, len(head), data_start - len(head)))
        header = read_header(io.BytesIO(head))
        self._headers[table.url] = (header, inode.size)
        table.bind(header)

    # -- pruning -----------------------------------------------------------
    def _region_mask(self, table: ScincTable, header: ContainerHeader,
                     constraints) -> Optional[np.ndarray]:
        """Elementwise keep-region implied by the pushed constraints.

        None = nothing provably excluded. Sound by construction: a cell
        goes False only when some pushed conjunct is False over it — via
        an exact dimension-coordinate test or a zone map proving its
        chunk holds no satisfying value.
        """
        region: Optional[np.ndarray] = None
        leaf = {p.rsplit("/", 1)[-1]: p for p in table.var_paths}
        for col, intervals in constraints.items():
            if col in table.dims:
                axis = table.dims.index(col)
                coords = np.arange(table.shape[axis])
                keep1d = np.zeros(table.shape[axis], dtype=bool)
                for iv in intervals:
                    keep1d |= np.array(
                        [iv.overlaps_range(c, c) for c in coords])
                mask = np.broadcast_to(
                    keep1d.reshape(
                        [-1 if i == axis else 1
                         for i in range(len(table.shape))]),
                    table.shape)
            elif col in leaf:
                var = header.variable(leaf[col])
                if not any(rec.stats is not None for rec in var.chunks):
                    continue  # no zone maps recorded: nothing to prove
                mask = np.zeros(table.shape, dtype=bool)
                for rec in var.chunks:
                    if chunk_matches(intervals, rec.stats):
                        mask[var.chunk_slices(rec.index)] = True
            else:
                continue
            region = mask.copy() if region is None else region & mask
        return region

    @staticmethod
    def _kept_chunks(var: VariableIndex, region: Optional[np.ndarray]
                     ) -> tuple[list[ChunkRecord], list[ChunkRecord]]:
        if region is None:
            return list(var.chunks), []
        kept, skipped = [], []
        for rec in var.chunks:
            if region[var.chunk_slices(rec.index)].any():
                kept.append(rec)
            else:
                skipped.append(rec)
        return kept, skipped

    # -- materialization ---------------------------------------------------
    def _materialize(self, scan: Scan, info: ScanInfo):
        """DES process: one scinc scan -> DataFrame, pruned up front."""
        table = self.tables[scan.table]
        header, _size = self._headers[table.url]
        client, path = self._open(table.url)
        data_start = header.data_start
        tracer = tracer_of(self.env)

        schema = table.schema
        columns = list(scan.columns) if scan.columns is not None \
            else list(schema)
        constraints = scan_constraints(scan.predicate) \
            if scan.predicate is not None else {}

        with tracer.span("sql.prune", cat="sql", track=self.track,
                         table=scan.table):
            region = self._region_mask(table, header, constraints)
            leaf = {p.rsplit("/", 1)[-1]: p for p in table.var_paths}
            needed_vars = [leaf[c] for c in columns if c in leaf]
            plan_per_var: dict[str, tuple] = {}
            for var_path in needed_vars:
                var = header.variable(var_path)
                kept, skipped = self._kept_chunks(var, region)
                plan_per_var[var_path] = (var, kept, skipped)
            # whole variables the projection dropped
            info.variables_pruned = len(table.var_paths) - len(needed_vars)
            for var_path in table.var_paths:
                if var_path not in plan_per_var:
                    var = header.variable(var_path)
                    dropped = sum(rec.nbytes for rec in var.chunks)
                    info.bytes_skipped += dropped
                    planner = getattr(client, "planner", None)
                    if planner is not None and dropped:
                        planner.account_skipped(
                            dropped, chunks=len(var.chunks))

        with tracer.span("sql.scan", cat="sql", track=self.track,
                         table=scan.table):
            arrays: dict[str, np.ndarray] = {}
            for var_path in needed_vars:
                var, kept, skipped = plan_per_var[var_path]
                plan = ScanPlan(
                    pieces=tuple((data_start + rec.offset, rec.nbytes)
                                 for rec in kept),
                    skipped=tuple((data_start + rec.offset, rec.nbytes)
                                  for rec in skipped))
                info.plans.append(plan)
                info.chunks_read += len(kept)
                info.chunks_pruned += len(skipped)
                info.bytes_read += plan.total_bytes
                info.bytes_skipped += plan.skipped_bytes
                if skipped:
                    planner = getattr(client, "planner", None)
                    if planner is not None:
                        planner.account_skipped(
                            plan.skipped_bytes, chunks=len(skipped))
                arr = np.zeros(var.shape, dtype=var.dtype)
                if kept:
                    blob = yield self.env.process(client.read_extents(
                        path, list(plan.pieces)))
                    pos = 0
                    raw_total = 0
                    for rec in kept:
                        stored = blob[pos:pos + rec.nbytes]
                        pos += rec.nbytes
                        raw = zlib.decompress(stored) if var.compressed \
                            else stored
                        raw_total += len(raw)
                        slices = var.chunk_slices(rec.index)
                        shape = tuple(s.stop - s.start for s in slices)
                        arr[slices] = np.frombuffer(
                            raw, dtype=var.dtype).reshape(shape)
                    if var.compressed and raw_total:
                        yield self.env.timeout(
                            raw_total / costs.DECOMPRESS_BYTES_PER_SEC)
                arrays[var.path] = arr

        rows = np.flatnonzero(region.ravel()) if region is not None \
            else None
        frame = DataFrame()
        coords = None
        for col in columns:
            if col in table.dims:
                if coords is None:
                    n = int(np.prod(table.shape))
                    idx = rows if rows is not None else np.arange(n)
                    coords = np.unravel_index(idx, table.shape)
                frame[col] = np.asarray(
                    coords[table.dims.index(col)], dtype=np.int64)
            else:
                flat = arrays[leaf[col]].ravel()
                frame[col] = flat[rows] if rows is not None else flat
        return frame

    # -- the query entry point ---------------------------------------------
    def query(self, sql: str):
        """DES process: run ``sql`` and return the result DataFrame."""
        tracer = tracer_of(self.env)
        self.last_scan_info = []
        with tracer.span("sql.query", cat="sql", track=self.track):
            with tracer.span("sql.parse", cat="sql", track=self.track):
                query = parse(sql)
            raw_scans = plan_scans(lower(query))
            for scan in raw_scans:
                if scan.table in self.tables:
                    yield from self._load_header(self.tables[scan.table])
                elif scan.table not in self.frames:
                    known = sorted(set(self.frames) | set(self.tables))
                    raise SQLError(
                        f"unknown table {scan.table!r}; have {known}")

            with tracer.span("sql.plan", cat="sql", track=self.track):
                schemas = {}
                for scan in raw_scans:
                    if scan.table in self.tables:
                        schemas[scan.table] = self.tables[scan.table].schema
                    else:
                        schemas[scan.table] = list(
                            self.frames[scan.table].names)
                node = plan_query(query, schemas, optimize=self.pushdown)

            result, rows = yield from self._run_plan(node)

            with tracer.span("sql.exec", cat="sql", track=self.track):
                yield self.env.timeout(
                    costs.SQL_QUERY_OVERHEAD
                    + rows / costs.SQL_ROWS_PER_SEC)
            self._count("sql.queries", 1)
            for entry in self.last_scan_info:
                self._count("sql.chunks_pruned", entry.chunks_pruned)
                self._count("sql.bytes_skipped", entry.bytes_skipped)
                self._count("sql.bytes_scanned", entry.bytes_read)
                self._count("sql.variables_pruned",
                            entry.variables_pruned)
            return result

    def _run_plan(self, node: PlanNode):
        materialized: dict[int, DataFrame] = {}
        shared: dict[tuple, DataFrame] = {}
        rows = 0
        for scan in plan_scans(node):
            if scan.table in self.frames:
                frame = self.frames[scan.table]
            else:
                # identical unpushed scans of one table read once
                key = (scan.table,
                       tuple(scan.columns) if scan.columns is not None
                       else None)
                if scan.predicate is None and key in shared:
                    frame = shared[key]
                    materialized[id(scan)] = frame
                    rows += frame.nrow
                    continue
                info = ScanInfo(
                    table=scan.table,
                    columns=list(scan.columns)
                    if scan.columns is not None
                    else list(self.tables[scan.table].schema))
                self.last_scan_info.append(info)
                frame = yield from self._materialize(scan, info)
                if scan.predicate is None:
                    shared[key] = frame
            rows += frame.nrow
            materialized[id(scan)] = frame

        def resolve(scan: Scan) -> DataFrame:
            if id(scan) in materialized:
                frame = materialized[id(scan)]
                # pruning is conservative: the pushed predicate still
                # runs over the surviving rows
                return frame_scan(frame, None, scan.predicate) \
                    if scan.table in self.tables \
                    else frame_scan(frame, scan.columns, scan.predicate)
            return frame_scan(self.frames[scan.table], scan.columns,
                              scan.predicate)

        result = execute(node, resolve)
        return result, rows
