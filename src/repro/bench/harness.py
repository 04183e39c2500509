"""Experiment runners — one per paper table/figure, plus ablations.

Every function returns ``(columns, rows, note)`` ready for
:func:`repro.bench.reporting.print_table`. Paper reference values are
embedded in the notes; EXPERIMENTS.md records the comparison.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro import costs
from repro.cluster import Cluster, DiskSpec, LinkSpec, NodeSpec
from repro.core import SciDP
from repro.core.reader import PFSReader
from repro.formats import scinc
from repro.hdfs import HDFS, PFSConnector
from repro.mapreduce import JobConf, JobRunner
from repro.obs import TraceSession
from repro.pfs import PFS, PFSClient, StripeLayout
from repro.pfs.mpiio import MPIFile
from repro.sim import AllOf, Environment
from repro.workloads.dfsio import run_dfsio_read, run_dfsio_write
from repro.workloads.grep import generate_text, run_grep
from repro.workloads.solutions import (
    SOLUTIONS,
    build_world,
    run_solution,
)
from repro.workloads.terasort import run_terasort, teragen

__all__ = [
    "abl_chunk_alignment_rows",
    "abl_read_granularity_rows",
    "abl_subsetting_rows",
    "datapath_rows",
    "fig2_rows",
    "fig5_table3_rows",
    "fig6_rows",
    "fig7_rows",
    "fig8_rows",
    "fig9_rows",
    "shuffle_overlap_rows",
    "table1_rows",
    "write_path_rows",
]

MB = 1024.0 * 1024.0

#: Paper sizes (timestamps) and the 1:8 scaled counts we run (same number
#: of levels per paper timestamp ratio; see DESIGN.md §6).
PAPER_SIZES = (96, 192, 384, 768)
SCALED_SIZES = (12, 24, 48, 96)


# --------------------------------------------------------------------------
# Fig. 2 — native HDFS vs the Lustre HDFS connector
# --------------------------------------------------------------------------

#: Fig. 2 data scale: real bytes are 1/FIG2_SCALE of the modelled bytes,
#: with devices slowed to match — so these workloads behave as the
#: multi-hundred-MB runs the paper drives while staying laptop-sized.
FIG2_SCALE = 64


def _fig2_world(scale: float = FIG2_SCALE, replication: int = 1,
                packet_bytes: Optional[int] = None,
                write_parallel_blocks: int = 1,
                connector_write_max_inflight: Optional[int] = None,
                connector_write_chunk: Optional[int] = None):
    """8 Hadoop nodes + Lustre with 8 OSTs, replication 1 (§II-B).

    Stripe size is set to the HDFS block size, replication to one, as the
    paper configures to favour the connector. The write-path bench
    reuses this world with ``replication=3`` (where the replication
    pipeline shape matters) and the write knobs threaded through to the
    HDFS facade / connector.
    """
    costs.set_scale(scale)
    block_size = int(64 * MB / scale)
    env = Environment()
    cluster = Cluster(env)
    node_spec = NodeSpec(
        cpus=8, memory=4 * 1024**3,
        disks=(DiskSpec(bandwidth=120 * MB / scale, seek_latency=0.008),),
        nic=LinkSpec(bandwidth=1.125e9 / scale, latency=0.0001))
    nodes = [cluster.add_node(f"n{i}", node_spec, role="compute")
             for i in range(8)]
    oss_spec = NodeSpec(
        cpus=8, memory=4 * 1024**3,
        disks=tuple(DiskSpec(bandwidth=160 * MB / scale,
                             seek_latency=0.008)
                    for _ in range(4)),
        nic=LinkSpec(bandwidth=1.125e9 / scale, latency=0.0001))
    oss_nodes = [cluster.add_node(f"oss{i}", oss_spec, role="storage")
                 for i in range(2)]
    pfs = PFS(env, cluster.network, oss_nodes[0], oss_nodes,
              default_layout=StripeLayout(
                  stripe_size=block_size,  # §II-B: stripe = block size
                  stripe_count=8))
    hdfs = HDFS(env, cluster.network,
                block_size=block_size, replication=replication,
                packet_bytes=packet_bytes,
                write_parallel_blocks=write_parallel_blocks)
    for node in nodes:
        hdfs.add_datanode(node)
    # The connector gateway streams through HDFS-API-sized buffers well
    # below Lustre's native 1 MB RPCs — the "access pattern preference"
    # mismatch §II-B blames. 512 KB-equivalent requests (each paying a
    # lock round trip and an OST seek) land the measured average at the
    # paper's ~221%.
    connector = PFSConnector(
        pfs, block_size=block_size,
        rpc_size=max(256, int(512 * 1024 / scale)),
        write_max_inflight=connector_write_max_inflight,
        write_chunk=connector_write_chunk)
    return env, cluster, nodes, hdfs, connector


def _run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def fig2_rows(n_records: int = 180_000, n_lines: int = 300_000,
              dfsio_files: int = 8,
              dfsio_bytes: int = int(64 * MB / FIG2_SCALE),
              trace: Optional[TraceSession] = None):
    """Terasort / Grep / TestDFSIO on native HDFS vs the PFS connector.

    Defaults model ~8 GB-class runs at 1/64 scale (~8 MB real input per
    workload, 64 MB-equivalent blocks).
    """
    env, cluster, nodes, hdfs, connector = _fig2_world()
    if trace is not None:
        trace.observe(env, "fig2", nodes=nodes, hdfs=hdfs,
                      network=cluster.network)
    rows = []

    def both(name, runner):
        t_hdfs = runner(hdfs, f"{name}-hdfs", False)
        # The connector deployment is diskless (Seagate's "Diskless
        # Hadoop on Lustre"): map spills also cross to the PFS.
        t_conn = runner(connector, f"{name}-conn", True)
        rows.append((name, t_hdfs, t_conn, t_conn / t_hdfs))

    def terasort_runner(storage, tag, diskless):
        teragen(storage, f"/{tag}/in/part-0", n_records)
        _result, elapsed = _run(env, run_terasort(
            env, nodes, storage, cluster.network, f"/{tag}/in",
            output_path=f"/{tag}/out", diskless_spill=diskless))
        return elapsed

    def grep_runner(storage, tag, diskless):
        generate_text(storage, f"/{tag}/in/a.txt", n_lines)
        (_r, _m), elapsed = _run(env, run_grep(
            env, nodes, storage, cluster.network, f"/{tag}/in",
            output_path=f"/{tag}/out", diskless_spill=diskless))
        return elapsed

    def dfsio_w_runner(storage, tag, _diskless):
        _r, elapsed, _bw = _run(env, run_dfsio_write(
            env, nodes, storage, cluster.network, dfsio_files,
            dfsio_bytes, control_path=f"/{tag}/control"))
        return elapsed

    def dfsio_r_runner(storage, tag, _diskless):
        # read back what the matching write phase produced
        _r, elapsed, _bw = _run(env, run_dfsio_read(
            env, nodes, storage, cluster.network, dfsio_files,
            dfsio_bytes, control_path=f"/{tag}/control-r"))
        return elapsed

    both("terasort", terasort_runner)
    both("grep", grep_runner)
    both("dfsio-write", dfsio_w_runner)
    both("dfsio-read", dfsio_r_runner)

    mean_ratio = math.prod(r[3] for r in rows) ** (1 / len(rows))
    rows.append(("geo-mean", "", "", mean_ratio))
    costs.reset_scale()
    columns = ["workload", "hdfs (s)", "lustre-connector (s)",
               "connector/hdfs"]
    note = ("paper Fig. 2: native HDFS outperforms the Lustre connector "
            "by 221% on average (ratio ~2-3x)")
    return columns, rows, note


# --------------------------------------------------------------------------
# Table I — data path matrix
# --------------------------------------------------------------------------

def table1_rows():
    """Static property of the drivers, verified against a live run by
    tests/workloads/test_solutions.py::test_table1_data_paths."""
    columns = ["solution", "conversion", "data copy", "processing"]
    rows = [
        ("naive", "yes", "sequential", "sequential"),
        ("vanilla-hadoop", "yes", "parallel", "parallel"),
        ("porthadoop", "yes", "no", "parallel"),
        ("scihadoop", "no", "parallel", "parallel"),
        ("scidp", "no", "no", "parallel"),
    ]
    note = "matches paper Table I row for row"
    return columns, rows, note


# --------------------------------------------------------------------------
# Fig. 5 + Table III — total execution time and speedups
# --------------------------------------------------------------------------

def fig5_table3_rows(sizes: Sequence[int] = SCALED_SIZES,
                     solutions: Optional[Sequence[str]] = None,
                     trace: Optional[TraceSession] = None):
    """Total time of every solution at every dataset size, plus SciDP's
    speedup over each (Table III)."""
    solutions = list(solutions or SOLUTIONS)
    totals: dict[tuple[str, int], float] = {}
    for size in sizes:
        world = build_world(n_timesteps=size)
        if trace is not None:
            trace.observe_world(world, f"fig5@{size}")
        for solution in solutions:
            result = run_solution(world, solution)
            totals[(solution, size)] = result.total_time
    costs.reset_scale()

    columns = ["solution"] + [
        f"{size}f (~{size * 8} lvls)" for size in sizes]
    rows = []
    for solution in solutions:
        rows.append([solution] + [totals[(solution, s)] for s in sizes])
    speedups = []
    for solution in solutions:
        if solution == "scidp":
            continue
        speedups.append(
            [f"scidp vs {solution}"]
            + [totals[(solution, s)] / totals[("scidp", s)]
               for s in sizes])
    rows.append(["--- Table III ---"] + [""] * len(sizes))
    rows.extend(speedups)
    note = ("paper Fig. 5/Table III: SciDP beats the baselines by "
            "6.58x (SciHadoop-class) up to 284.63x (naive); sizes are "
            "paper timestamps / 8 at 1:678 per-level scale")
    return columns, rows, note


# --------------------------------------------------------------------------
# Fig. 6 — I/O bandwidth vs number of readers
# --------------------------------------------------------------------------

def _fig6_world(n_nodes: int):
    return build_world(n_timesteps=1, shape=(16, 48, 48),
                       n_nodes=n_nodes, with_text=False)


def fig6_rows(readers: Sequence[int] = (1, 2, 4, 8, 16),
              trace: Optional[TraceSession] = None):
    """NC Ind / NC Coll / MPI Coll / SciDP / SciDP Equal bandwidths.

    Bandwidths are reported at paper-equivalent scale (bytes x S / time).
    """
    rows = []
    for n in readers:
        world = _fig6_world(max(readers))
        if trace is not None:
            trace.observe_world(world, f"fig6:r{n}")
        env = world.env
        scale = costs.get_scale()
        path = world.manifest["files"][0]
        reader0 = scinc.Reader(world.pfs.open_sync(path))
        # Use T (temperature): its ~2.8x deflate ratio matches the file
        # average the paper reports (~3.27x). QR's synthetic sparsity
        # compresses ~4.7x, which would let the raw-credited SciDP Equal
        # line exceed the flat-file ceiling at high reader counts — an
        # artifact of crediting, not of the I/O path.
        var = reader0.variable("/T")
        data_start = reader0.header.data_start
        chunks = var.chunks
        raw_bytes = var.nbytes
        stored_bytes = var.stored_nbytes
        file_bytes = world.pfs.mds.lookup(path).size
        clients = [PFSClient(world.pfs, node)
                   for node in world.nodes[:n]]
        # Contiguous chunk groups per rank (how array codes decompose
        # a variable domain).
        share_n = -(-len(chunks) // n)
        groups = [chunks[r * share_n:(r + 1) * share_n] for r in range(n)]

        # NC independent: each rank reads its chunks one request each.
        def nc_ind(rank, my_chunks, client):
            total_raw = 0
            for rec in my_chunks:
                yield env.process(client.read(
                    path, data_start + rec.offset, rec.nbytes))
                total_raw += rec.raw_nbytes
            yield env.timeout(
                total_raw / costs.DECOMPRESS_BYTES_PER_SEC)

        t0 = env.now
        procs = [
            env.process(nc_ind(r, groups[r], clients[r]))
            for r in range(n)
        ]
        _run(env, _wait_all(env, procs))
        t_ind = env.now - t0

        # NC collective: two-phase collective over each rank's chunk span.
        mpifile = MPIFile.open(clients, path)
        spans = []
        for group in groups:
            if not group:
                spans.append(None)
                continue
            lo = min(data_start + c.offset for c in group)
            hi = max(data_start + c.offset + c.nbytes for c in group)
            spans.append((lo, hi - lo))

        def nc_coll():
            yield env.process(mpifile.read_at_all(spans))
            yield env.timeout(raw_bytes / n / costs.DECOMPRESS_BYTES_PER_SEC)

        t0 = env.now
        _run(env, nc_coll())
        t_coll = env.now - t0

        # MPI collective over the flat file (upper bound).
        share = -(-file_bytes // n)
        flat_spans = [
            (r * share, min(share, file_bytes - r * share))
            for r in range(n)
        ]
        flat_spans = [s if s[1] > 0 else None for s in flat_spans]

        def mpi_coll():
            yield env.process(mpifile.read_at_all(flat_spans))

        t0 = env.now
        _run(env, mpi_coll())
        t_mpi = env.now - t0

        # SciDP: per-task whole-chunk reads through dummy blocks.
        entries = _run(env, world.scidp.map_input(
            world.nc_dir, variables=["T"]))
        blocks = [b for vp, bs in entries
                  if vp.endswith("/T") and path.split("/")[-1] in vp
                  for b in bs]

        def scidp_reader(rank):
            reader = PFSReader(world.scidp.pfs_client(world.nodes[rank]))
            for block in blocks[rank::n]:
                yield env.process(reader.read_block(block.virtual))

        t0 = env.now
        procs = [env.process(scidp_reader(r)) for r in range(n)]
        _run(env, _wait_all(env, procs))
        t_scidp = env.now - t0

        def bw(nbytes, seconds):
            return nbytes * scale / seconds / MB if seconds > 0 else 0.0

        # All PFS-bandwidth series are credited with the bytes moved off
        # the PFS (stored/file bytes); only SciDP Equal uses the raw
        # (post-decompression) payload — "calculated by dividing the
        # compressed data size and raw data size over I/O time" (§V-C).
        rows.append((
            n,
            bw(stored_bytes, t_ind),
            bw(stored_bytes, t_coll),
            bw(file_bytes, t_mpi),
            bw(stored_bytes, t_scidp),
            bw(raw_bytes, t_scidp),
        ))
        costs.reset_scale()

    columns = ["readers", "NC Ind (MB/s)", "NC Coll (MB/s)",
               "MPI Coll (MB/s)", "SciDP (MB/s)", "SciDP Equal (MB/s)"]
    note = ("paper Fig. 6: MPI Coll is the upper bound; SciDP Equal "
            "approaches it as readers increase; NC Ind lowest")
    return columns, rows, note


def _wait_all(env, procs):
    yield AllOf(env, procs)


# --------------------------------------------------------------------------
# Fig. 7 — task time decomposition
# --------------------------------------------------------------------------

def fig7_rows(n_timesteps: int = 48,
              trace: Optional[TraceSession] = None):
    """Per-level Read/Convert/Plot decomposition at 384 paper timestamps
    (48 scaled files).

    Phase durations come from the per-task spans recorded by
    ``TaskContext.phase`` (``JobResult.phase_means`` aggregates them);
    the naive driver has no tasks and reports its loop timings directly.
    """
    rows = []
    for solution in ("naive", "vanilla", "porthadoop", "scidp"):
        world = build_world(n_timesteps=n_timesteps)
        if trace is not None:
            trace.observe_world(world, f"fig7:{solution}")
        result = run_solution(world, solution)
        phases = result.phase_means
        reduce_phases = result.reduce_phase_means
        rows.append((
            solution,
            phases.get("read", 0.0),
            phases.get("convert", 0.0),
            phases.get("plot", 0.0),
            # barrier mode records the copy wait as "shuffle"; the
            # overlapped path as "copy" (naive has no reduce side at all)
            reduce_phases.get("shuffle", reduce_phases.get("copy", 0.0)),
        ))
    costs.reset_scale()
    columns = ["solution", "read (s/level)", "convert (s/level)",
               "plot (s/level)", "shuffle (s/reduce)"]
    note = ("paper Fig. 7: Convert dominates the read.table path; SciDP "
            "reads 0.035 s/level and converts in 'a very short time'; "
            "Plot equal across parallel solutions, naive slightly lower")
    return columns, rows, note


# --------------------------------------------------------------------------
# Fig. 8 — scale-out
# --------------------------------------------------------------------------

def fig8_rows(node_counts: Sequence[int] = (4, 8, 16),
              n_timesteps: int = 24,
              trace: Optional[TraceSession] = None):
    """SciDP Img-only time vs Hadoop cluster size (8 slots per node)."""
    rows = []
    base = None
    for n_nodes in node_counts:
        world = build_world(n_timesteps=n_timesteps, n_nodes=n_nodes)
        if trace is not None:
            trace.observe_world(world, f"fig8:n{n_nodes}")
        result = run_solution(world, "scidp")
        if base is None:
            base = result.map_phase_time
        rows.append((
            n_nodes,
            n_nodes * 8,
            result.map_phase_time,
            base / result.map_phase_time,
        ))
    costs.reset_scale()
    columns = ["nodes", "parallel tasks", "img-plot time (s)",
               "speedup vs smallest"]
    note = ("paper Fig. 8: plotting time halves as nodes double "
            "(near-optimal; tasks are independent)")
    return columns, rows, note


# --------------------------------------------------------------------------
# Fig. 9 — parallel data analysis using SQL
# --------------------------------------------------------------------------

def fig9_rows(sizes: Sequence[int] = (12, 24, 48),
              analyses: Sequence[str] = ("none", "highlight", "top1pct"),
              trace: Optional[TraceSession] = None):
    rows = []
    for size in sizes:
        world = build_world(n_timesteps=size)
        if trace is not None:
            trace.observe_world(world, f"fig9@{size}")
        times = []
        shuffle_mb = 0.0
        for analysis in analyses:
            result = run_solution(world, "scidp", analysis=analysis)
            times.append(result.total_time)
            # the last analysis's shuffle volume shows why top-1% costs
            # more: its result rows ride the shuffle to the reducers
            shuffle_mb = result.counters.get("shuffle", {}) \
                .get("bytes", 0.0) / MB
        rows.append((size,) + tuple(times) + (shuffle_mb,))
    costs.reset_scale()
    columns = ["timesteps (scaled)"] + [
        {"none": "no analysis (s)", "highlight": "highlight (s)",
         "top1pct": "top 1% (s)"}[a] for a in analyses] + \
        [f"{analyses[-1]} shuffle (MB)"]
    note = ("paper Fig. 9: highlight ~= no analysis; top 1% costs more "
            "(result rows shuffled + written to HDFS)")
    return columns, rows, note


# --------------------------------------------------------------------------
# Shuffle — overlapped copy phase, map-side combiner, bounded merge
# --------------------------------------------------------------------------

def _sqlagg_mapper(cell: int = 8):
    """Fig. 9-style SQL aggregation: AVG(value) GROUP BY coarse grid
    cell. Emits (cell, (count, sum)) pairs — an associative fold, so the
    map-side combiner collapses each sorted run to one record per cell.
    """
    from repro.workloads.pipeline import sql_seconds

    def mapper(ctx, key, value):
        ctx.charge(value.nbytes / costs.BINARY_CONVERT_BYTES_PER_SEC,
                   "convert")
        levels = value if value.ndim == 3 else value[None, ...]
        for z in range(levels.shape[0]):
            level = levels[z]
            ctx.charge(sql_seconds(level.size), "analysis")
            # one partial aggregate per grid-row segment: ``cell`` rows
            # land on the same key, so a run carries cell x duplicates
            # for the combiner to fold
            for y in range(level.shape[0]):
                for cx in range(0, level.shape[1], cell):
                    seg = level[y, cx:cx + cell]
                    ctx.emit((y // cell, cx // cell),
                             (int(seg.size), float(seg.sum())))

    return mapper


def _sqlagg_fold(ctx, key, values):
    """Combiner: fold (count, sum) pairs — associative and commutative."""
    n = s = 0
    for count, total in values:
        n += count
        s += total
    ctx.emit(key, (n, s))


def _sqlagg_mean(ctx, key, values):
    n = s = 0
    for count, total in values:
        n += count
        s += total
    ctx.emit(key, s / n)


SHUFFLE_CONFIGS = [
    ("legacy barrier", {}),
    ("overlapped copy",
     dict(shuffle_overlap=True, shuffle_parallel_copies=4)),
    ("overlap + combiner",
     dict(shuffle_overlap=True, shuffle_parallel_copies=4,
          combiner=_sqlagg_fold)),
    ("overlap + combiner + merge x4",
     dict(shuffle_overlap=True, shuffle_parallel_copies=4,
          combiner=_sqlagg_fold, shuffle_merge_factor=4)),
]


def shuffle_overlap_rows(n_timesteps: int = 12,
                         slots_per_node: int = 2,
                         trace: Optional[TraceSession] = None):
    """Overlapped shuffle ablation on the Fig. 9 SQL-aggregation job.

    ``slots_per_node`` is deliberately small so the map wave runs in
    several staggered waves — the regime where launching reducers at the
    first committed map output (instead of at the map barrier) pays off.
    """
    rows = []
    base_time = None
    for label, knobs in SHUFFLE_CONFIGS:
        world = build_world(n_timesteps=n_timesteps, with_text=False)
        if trace is not None:
            trace.observe_world(world, f"shuffle:{label}")
        env = world.env
        job = JobConf(
            name=f"sqlagg-{len(rows)}",
            mapper=_sqlagg_mapper(),
            reducer=_sqlagg_mean,
            input_format=world.scidp.input_format(
                variables=[world.variable]),
            n_reducers=4,
            input_paths=[f"pfs://{world.nc_dir}"],
            output_path=f"/results/sqlagg-{len(rows)}",
            map_slots_per_node=slots_per_node,
            **knobs)
        runner = JobRunner(env, world.nodes, world.hdfs,
                           world.cluster.network, job)
        t0 = env.now
        result = _run(env, runner.run())
        elapsed = env.now - t0
        if base_time is None:
            base_time = elapsed
        counters = result.counters
        combine_in = counters.value("shuffle", "combine_input_records")
        combine_out = counters.value("shuffle", "combine_output_records")
        rows.append((
            label,
            elapsed,
            base_time / elapsed,
            counters.value("shuffle", "bytes") / MB,
            f"{combine_in}/{combine_out}" if combine_in else "-",
            counters.value("shuffle", "merge_passes"),
        ))
        costs.reset_scale()
    columns = ["configuration", "total (s)", "speedup vs legacy",
               "shuffle (MB)", "combine in/out", "merge passes"]
    note = ("overlapped copy starts reducers at the first committed map "
            "output; the combiner folds (count, sum) pairs map-side so "
            "shuffle volume drops; the merge factor bounds in-memory "
            "runs at the cost of spill passes")
    return columns, rows, note


# --------------------------------------------------------------------------
# Write path — packet-pipelined replication, parallel blocks, write-behind
# --------------------------------------------------------------------------

#: (label, storage, hdfs write knobs, JobConf knobs) per configuration.
#: The pfs:// window knob is a pacing bound (≈ legacy time by design);
#: write-behind is where the pfs side gains.
WRITE_CONFIGS = [
    ("legacy store-and-forward", "hdfs", {}, {}),
    ("packet pipeline", "hdfs",
     dict(packet=True), {}),
    ("packet + parallel blocks", "hdfs",
     dict(packet=True, parallel=True), {}),
    ("packet + parallel + write-behind", "hdfs",
     dict(packet=True, parallel=True), dict(write_behind=True)),
    ("legacy stripe pushes", "pfs", {}, {}),
    ("windowed stripe pushes", "pfs",
     dict(windowed=True), {}),
    ("windowed + write-behind", "pfs",
     dict(windowed=True), dict(write_behind=True)),
]


def write_path_rows(n_files: int = 4, blocks_per_file: int = 4,
                    trace: Optional[TraceSession] = None):
    """DFSIO-write through the staged write-path optimisations.

    HDFS runs at replication 3 — the regime where the whole-block
    store-and-forward chain serialises 3x (network + disk) per block and
    the packet pipeline overlaps the hops; ``parallel blocks`` then
    overlaps a file's block pipelines; write-behind overlaps the flush
    with task wind-down. The pfs:// rows drive the same job through the
    Lustre connector: the stripe-push window is a fan-out *bound* (same
    bytes, same unbounded-equal timing at these sizes), so only
    write-behind moves its total.
    """
    block_size = int(64 * MB / FIG2_SCALE)
    bytes_per_file = blocks_per_file * block_size
    # Model 64 packets per block (real HDFS: 64 MB / 64 KB = 1024) —
    # enough to fill the pipeline while keeping DES event counts sane.
    packet_bytes = max(1, block_size // 64)
    rows = []
    base: dict[str, float] = {}
    for label, storage_kind, wknobs, job_knobs in WRITE_CONFIGS:
        env, cluster, nodes, hdfs, connector = _fig2_world(
            replication=3,
            packet_bytes=packet_bytes if wknobs.get("packet") else None,
            write_parallel_blocks=0 if wknobs.get("parallel") else 1,
            connector_write_max_inflight=(
                4 if wknobs.get("windowed") else None))
        storage = hdfs if storage_kind == "hdfs" else connector
        if trace is not None:
            trace.observe(env, f"write:{storage_kind}:{label}",
                          nodes=nodes, hdfs=hdfs, network=cluster.network)
        _result, elapsed, _bw = _run(env, run_dfsio_write(
            env, nodes, storage, cluster.network, n_files, bytes_per_file,
            control_path="/write-bench/control", **job_knobs))
        costs.reset_scale()
        baseline = base.setdefault(storage_kind, elapsed)
        rows.append((label, f"{storage_kind}://", elapsed,
                     baseline / elapsed))
    columns = ["configuration", "storage", "write (s)",
               "speedup vs legacy"]
    note = ("DFSIO-write, replication 3, "
            f"{n_files} files x {blocks_per_file} blocks: the packet "
            "pipeline overlaps replication hops, parallel blocks "
            "overlaps a file's block pipelines, write-behind overlaps "
            "the flush with task wind-down (drain barrier at commit)")
    return columns, rows, note


# --------------------------------------------------------------------------
# Ablations (design choices from §III)
# --------------------------------------------------------------------------

def ext_scaleup_rows(slot_counts: Sequence[int] = (4, 8, 16),
                     n_timesteps: int = 48, n_nodes: int = 8):
    """Scale-up: more task slots per node at a fixed node count.

    §V-E: "Scale-up evaluation shows similar performance as scale-out
    results. Due to the page limit, we do not include them here." —
    this bench supplies the omitted experiment.
    """
    rows = []
    base = None
    for slots in slot_counts:
        world = build_world(n_timesteps=n_timesteps, n_nodes=n_nodes)
        result = run_solution(world, "scidp", slots_per_node=slots)
        if base is None:
            base = result.map_phase_time
        rows.append((
            slots,
            n_nodes * slots,
            result.map_phase_time,
            base / result.map_phase_time,
        ))
    costs.reset_scale()
    columns = ["slots/node", "parallel tasks", "img-plot time (s)",
               "speedup vs smallest"]
    note = ("§V-E (omitted in the paper): scale-up behaves like "
            "scale-out while per-node devices are not saturated")
    return columns, rows, note


def ext_spark_rows(n_timesteps: int = 12):
    """SciDP under a second framework (§VII future work).

    Runs the Img-only plotting workload over the Spark-like engine's
    SciDP source and over the MapReduce engine, same world, same data.
    """
    from repro.sparklike import Context
    from repro.workloads.pipeline import plot_seconds

    world = build_world(n_timesteps=n_timesteps, with_text=False)
    env = world.env

    mr = run_solution(world, "scidp")

    ctx = Context(env, world.nodes, world.hdfs, world.cluster.network,
                  scidp=world.scidp, executor_cores=8,
                  task_startup=0.05)

    def plot_partition(task, records):
        from repro.rlang.plot import image2d
        out = []
        for key, value in records:
            levels = value if value.ndim == 3 else value[None, ...]
            for z in range(levels.shape[0]):
                png = image2d(levels[z], resolution=(48, 48))
                task.charge(plot_seconds(levels[z].size), "plot")
                out.append(((key, z), len(png)))
        return out

    t0 = env.now
    frames = (ctx.scidp_variable(world.nc_dir, variables=["QR"])
              .map_partitions(plot_partition)
              .count())
    spark_time = env.now - t0
    costs.reset_scale()

    # Compare like for like: the MapReduce number is its map (read +
    # plot) phase — the Spark job has no shuffle/reduce/HDFS-write tail.
    columns = ["engine", "frames plotted", "read+plot time (s)"]
    rows = [
        ("mapreduce + SciDP", mr.frames, mr.map_phase_time),
        ("spark-like + SciDP", frames, spark_time),
    ]
    note = ("§VII: the SciDP design is framework-agnostic — the same "
            "dummy-block source drives both engines at comparable cost")
    return columns, rows, note


def abl_chunk_alignment_rows(n_timesteps: int = 12,
                             split_factor: int = 4):
    """Chunk-aligned dummy blocks vs splitting each chunk into
    ``split_factor`` blocks (§III-B's unaligned-access overhead)."""
    world = build_world(n_timesteps=n_timesteps)
    aligned = run_solution(world, "scidp")
    aligned_bytes = aligned.counters["scidp"]["bytes_fetched"]

    world = build_world(n_timesteps=n_timesteps)
    chunk_raw = (world.config.shape[1] * world.config.shape[2]
                 * world.config.chunk_levels * 4)
    unaligned_scidp = SciDP(
        world.env, world.nodes, world.pfs, world.hdfs,
        world.cluster.network, mirror_root="/scidp-unaligned",
        block_bytes=chunk_raw // split_factor)
    world.scidp = unaligned_scidp
    unaligned = run_solution(world, "scidp")
    unaligned_bytes = unaligned.counters["scidp"]["bytes_fetched"]
    costs.reset_scale()

    columns = ["mapping", "total (s)", "stored bytes fetched",
               "fetch amplification"]
    rows = [
        ("chunk-aligned", aligned.total_time, aligned_bytes, 1.0),
        (f"split x{split_factor}", unaligned.total_time,
         unaligned_bytes, unaligned_bytes / aligned_bytes),
    ]
    note = ("§III-B: unaligned blocks re-read whole compressed chunks — "
            "expect ~split_factor x fetch amplification")
    return columns, rows, note


def abl_read_granularity_rows(n_timesteps: int = 12):
    """Whole-block single request vs Hadoop's 64 KB streaming reads.

    The streaming rows pin ``max_inflight=1``: stock Hadoop's
    DFSInputStream issues its 64 KB reads strictly serially, so the
    ablation must not quietly benefit from the pipelined request
    window. A third row re-enables the window over the same chopped
    requests to show how much of the gap it recovers.
    """
    world = build_world(n_timesteps=n_timesteps)
    whole = run_solution(world, "scidp", max_inflight=1)

    granularity = max(1, int(costs.HADOOP_STREAM_READ_BYTES
                             / costs.get_scale()))
    world = build_world(n_timesteps=n_timesteps)
    chopped = run_solution(world, "scidp", granularity=granularity,
                           max_inflight=1)

    world = build_world(n_timesteps=n_timesteps)
    windowed = run_solution(world, "scidp", granularity=granularity,
                            max_inflight=costs.PFS_MAX_INFLIGHT)
    costs.reset_scale()

    columns = ["read strategy", "total (s)", "read (s/level)"]
    rows = [
        ("whole-block single request", whole.total_time,
         whole.phase_means.get("read", 0.0)),
        ("64 KB streaming (Hadoop default)", chopped.total_time,
         chopped.phase_means.get("read", 0.0)),
        (f"64 KB streaming, window x{costs.PFS_MAX_INFLIGHT}",
         windowed.total_time, windowed.phase_means.get("read", 0.0)),
    ]
    note = "§III-A.3: single whole-block I/O maximizes bandwidth"
    return columns, rows, note


def datapath_rows(n_timesteps: int = 24, slots_per_node: int = 2):
    """Data-path pipelining ablation on the Fig. 5 workload.

    ``slots_per_node`` is deliberately small so splits outnumber map
    slots: the double-buffering prefetcher only stages ahead in that
    saturated regime (staging with idle slots around would starve
    them). Four configurations isolate the two overlap mechanisms:
    the bounded in-flight request window (visible on granularity-
    chopped reads, where per-request overheads used to serialise) and
    the map-side block prefetch + read-ahead cache (visible on the
    whole-block path, where the next split's fetch overlaps the
    current task's compute).
    """
    configs = [
        ("whole-block, serial", {"max_inflight": 1}),
        ("whole-block + prefetch + cache",
         {"max_inflight": costs.PFS_MAX_INFLIGHT, "prefetch": True}),
        ("64 KB chopped, serial", {"max_inflight": 1, "chopped": True}),
        (f"64 KB chopped, window x{costs.PFS_MAX_INFLIGHT}",
         {"max_inflight": costs.PFS_MAX_INFLIGHT, "chopped": True}),
    ]
    rows = []
    for label, spec in configs:
        spec = dict(spec)
        world = build_world(n_timesteps=n_timesteps,
                            slots_per_node=slots_per_node)
        if spec.pop("chopped", False):
            granularity = max(1, int(costs.HADOOP_STREAM_READ_BYTES
                                     / costs.get_scale()))
            spec["granularity"] = granularity
        result = run_solution(world, "scidp",
                              slots_per_node=slots_per_node, **spec)
        datapath = result.counters.get("datapath", {})
        rows.append((
            label,
            result.total_time,
            result.map_phase_time,
            result.phase_means.get("read", 0.0),
            datapath.get("cache_hits", "-"),
            datapath.get("prefetch_fills", "-"),
        ))
    costs.reset_scale()

    columns = ["configuration", "total (s)", "map phase (s)",
               "read (s/level)", "cache hits", "prefetch fills"]
    note = ("pipelined data path: the request window overlaps "
            "per-request overheads; prefetch overlaps the next split's "
            "fetch with the current task's compute via the node cache")
    return columns, rows, note


def abl_subsetting_rows(n_timesteps: int = 6):
    """Variable subsetting (QR only) vs mapping and reading all 23."""
    world = build_world(n_timesteps=n_timesteps)
    env = world.env

    def timed_map(variables, root):
        scidp = SciDP(env, world.nodes, world.pfs, world.hdfs,
                      world.cluster.network, mirror_root=root)
        t0 = env.now
        entries = _run(env, scidp.map_input(world.nc_dir,
                                            variables=variables))
        map_time = env.now - t0
        stored = sum(b.length for _vp, bs in entries for b in bs)
        return map_time, stored, len(entries)

    t_subset, bytes_subset, files_subset = timed_map(["QR"], "/s1")
    t_all, bytes_all, files_all = timed_map(None, "/s2")
    costs.reset_scale()

    columns = ["selection", "mapping time (s)", "virtual files",
               "stored bytes mapped"]
    rows = [
        ("QR only", t_subset, files_subset, bytes_subset),
        ("all 23 variables", t_all, files_all, bytes_all),
    ]
    note = ("§IV-B: SciDP reads only selected variables; mapping tables "
            "and I/O shrink ~23x with single-variable subsetting")
    return columns, rows, note
