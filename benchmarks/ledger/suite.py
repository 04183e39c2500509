"""The ledger's seven workloads.

Each workload is a closed loop with one client. ``setup()`` builds every
input from the seed (pools of worlds where a layer's state cannot be
reused); ``iteration(i)`` is the timed work and calls only public
functions of the ``repro`` packages, each wrapped in a driver span;
``check(i, out)`` runs untimed and holds the output oracle — it compares
the iteration's results with an independent computation (numpy brute
force, ``collections.Counter``, a second storage backend, a re-read of
what was written) and returns the iteration's work count, simulated
seconds and the counts the per-layer table reports. Every count is read
off a public result of the iteration (job counters, manifests,
``last_scan_info``, context metrics, file sizes) — none is computed from
the input sizes.

Iteration 0 is the untimed warm-up; pools hold ``iterations + 1``
entries. Each class docstring says why the workload is in the set.
"""

from __future__ import annotations

import collections
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.formats import scinc
from repro.formats.text import parse_csv_fast
from repro.obs import (
    TraceSession,
    critical_path,
    load_trace,
    spans_from_trace,
)
from repro.obs.report import report_data, validate_trace
from repro.rlang import SQLSession, data_frame, image2d, sqldf
from repro.sparklike import Context
from repro.workloads.dfsio import run_dfsio_read, run_dfsio_write
from repro.workloads.grep import generate_text, run_grep
from repro.workloads.nuwrf import (
    NUWRFConfig,
    generate_nuwrf,
    synthesize_timestep,
)
from repro.workloads.pipeline import plot_seconds
from repro.workloads.solutions import build_world, run_solution
from repro.workloads.terasort import run_terasort, teragen

from worlds import HADOOP_SCALE, MB, hadoop_world, run_des

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: the paper's Fig. 5 ordering, fastest first
SOLUTION_ORDER = ("scidp", "scihadoop", "porthadoop", "vanilla", "naive")


@dataclass
class Outcome:
    """What one checked iteration reports."""

    work: float
    sim_s: float
    counts: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


class Workload:
    """Base: sizes, seed plumbing and the span hook."""

    name = ""
    unit = ""
    #: full-size and ``--quick`` sizes, merged into ``self.size``
    sizes: dict = {}
    quick_sizes: dict = {}

    def __init__(self, seed: int, iterations: int, quick: bool, span):
        self.seed = seed
        #: timed iterations; pools hold one more for the warm-up
        self.iterations = iterations
        self.size = dict(self.sizes)
        if quick:
            self.size.update(self.quick_sizes)
        self.span = span

    def setup(self) -> None:
        """Generate inputs (everything before the warm-up)."""

    def iteration(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> Outcome:
        raise NotImplementedError


def _job_counts(counter_dicts) -> dict[str, float]:
    """Fold mapreduce job counter dicts (``Counters.as_dict()`` shape)
    into the ledger's count names."""
    names = {
        "mapreduce.tasks": ("job", "splits"),
        "mapreduce.records_mapped": ("map", "records_mapped"),
        "mapreduce.shuffle_bytes": ("shuffle", "bytes"),
        "io.bytes_read": ("io", "bytes_read"),
        "io.bytes_written": ("io", "bytes_written"),
        "core.bytes_fetched": ("scidp", "bytes_fetched"),
        "core.bytes_delivered": ("scidp", "bytes_delivered"),
    }
    out = dict.fromkeys(names, 0)
    for counters in counter_dicts:
        for name, (group, key) in names.items():
            out[name] += counters.get(group, {}).get(key, 0)
    return out


def _text_bytes(world) -> int:
    return sum(world.pfs.mds.lookup(path).size
               for path in world.text_files)


# --------------------------------------------------------------------------
# nuwrf_build
# --------------------------------------------------------------------------

class NuwrfBuild(Workload):
    """World synthesis is over half of the Fig. 5 wait; the only
    encode/write use of formats, ~0 DES work, so a sim change must
    not move it.
    """

    name = "nuwrf_build"
    unit = "files"
    sizes = {"timesteps": 6}
    quick_sizes = {"timesteps": 2}

    def iteration(self, i):
        with self.span("build_world"):
            return build_world(n_timesteps=self.size["timesteps"],
                               with_text=True, seed=self.seed + i)

    def check(self, i, world):
        problems = []
        config = world.config
        for step, path in enumerate(world.manifest["files"]):
            expected = synthesize_timestep(config, step)
            reader = scinc.Reader(world.pfs.open_sync(path))
            for var_path, var in expected.all_variables():
                got = reader.get_vara(var_path)
                if got.dtype != var.data.dtype or \
                        got.tobytes() != var.data.tobytes():
                    problems.append(f"{path}{var_path}: re-read differs "
                                    f"from synthesize_timestep")
            qr = dict(expected.all_variables())["/" + world.variable].data
            base = path.rsplit("/", 1)[-1]
            for z in range(qr.shape[0]):
                text = world.pfs.read_file_sync(
                    f"{world.text_dir}/{base}/{world.variable}_L{z:02d}.csv")
                level = parse_csv_fast(text)[world.variable]
                if not np.array_equal(level, qr[z]):
                    problems.append(f"{base} level {z}: CSV does not "
                                    f"parse back to the source level")
        if world.env.now != 0.0:
            problems.append(f"build advanced the clock to {world.env.now}")
        n_files = len(world.manifest["files"])
        return Outcome(
            work=n_files, sim_s=world.env.now, problems=problems,
            counts={
                "formats.bytes_encoded": world.manifest["stored_bytes"],
                "formats.compress_ratio":
                    world.manifest["compression_ratio"],
                "workloads.text_bytes": _text_bytes(world),
            })


# --------------------------------------------------------------------------
# imgplot_5way
# --------------------------------------------------------------------------

class Imgplot5Way(Workload):
    """The paper's headline pipeline: the only workload where sim,
    pfs, mapreduce, formats decode, text parsing and plotting all
    carry load; its set-up is the world pool.
    """

    name = "imgplot_5way"
    unit = "levels"
    sizes = {"timesteps": 6}
    # below 4 timesteps scihadoop and porthadoop are within a percent
    quick_sizes = {"timesteps": 4}

    def setup(self):
        # copy-based solutions write fixed HDFS paths: one fresh world
        # per iteration
        self.pool = [
            build_world(n_timesteps=self.size["timesteps"],
                        with_text=True, seed=self.seed + i)
            for i in range(self.iterations + 1)]

    def iteration(self, i):
        world = self.pool[i]
        results = {}
        for solution in SOLUTION_ORDER:
            with self.span(f"run_solution.{solution}"):
                results[solution] = run_solution(world, solution)
        return world, results

    def check(self, i, out):
        world, results = out
        self.pool[i] = None
        problems = []
        config = world.config
        levels = config.timesteps * config.shape[0]
        for solution, result in results.items():
            if result.frames != levels:
                problems.append(f"{solution}: {result.frames} frames, "
                                f"expected {levels}")
        totals = [results[s].total_time for s in SOLUTION_ORDER]
        if totals != sorted(totals) or len(set(totals)) != len(totals):
            problems.append(f"paper ordering broken: {totals}")
        raw_qr = config.timesteps * config.raw_bytes_per_variable
        delivered = results["scidp"].counters["scidp"]["bytes_delivered"]
        if delivered != raw_qr:
            problems.append(f"scidp delivered {delivered} B, raw QR is "
                            f"{raw_qr} B")
        frames = sum(r.frames for r in results.values())
        counts = _job_counts(r.counters for r in results.values())
        counts.update({
            "rlang.frames_plotted": frames,
            "workloads.text_bytes": _text_bytes(world),
        })
        return Outcome(work=frames, sim_s=world.env.now, counts=counts,
                       problems=problems)


# --------------------------------------------------------------------------
# mr_records
# --------------------------------------------------------------------------

class MrRecords(Workload):
    """Per-record mapreduce map/sort/shuffle/reduce dominates and
    sim is ~7 %: the bypass for DES optimisations, the exercise for
    record-path ones.
    """

    name = "mr_records"
    unit = "records"
    sizes = {"records": 30_000, "lines": 40_000}
    quick_sizes = {"records": 3_000, "lines": 4_000}
    pattern = b"storm"

    def setup(self):
        self.world = hadoop_world(replication=1)
        hdfs = self.world.hdfs
        self.tera = teragen(hdfs, "/seed/tera/part-0",
                            self.size["records"], seed=self.seed)
        self.text = generate_text(hdfs, "/seed/text/a.txt",
                                  self.size["lines"], seed=self.seed)
        self.sorted_records = sorted(
            tuple(line.split(b"\t", 1))
            for line in self.tera.splitlines())
        self.matches = self.text.count(self.pattern)

    def iteration(self, i):
        world = self.world
        env, nodes, network = world.env, world.nodes, world.network
        t0 = env.now
        out = {}
        for tag, storage, diskless in world.storages:
            base = f"/it{i:03d}-{tag}"
            with self.span("store_input"):
                storage.store_file_sync(f"{base}/tera-in/part-0", self.tera)
                storage.store_file_sync(f"{base}/grep-in/a.txt", self.text)
            with self.span("run_terasort"):
                sort_result, _elapsed = run_des(env, run_terasort(
                    env, nodes, storage, network, f"{base}/tera-in",
                    output_path=f"{base}/tera-out",
                    diskless_spill=diskless))
            with self.span("run_grep"):
                (grep_result, matches), _elapsed = run_des(env, run_grep(
                    env, nodes, storage, network, f"{base}/grep-in",
                    pattern=self.pattern, output_path=f"{base}/grep-out",
                    diskless_spill=diskless))
            out[tag] = (sort_result, grep_result, matches)
        return out, env.now - t0

    def check(self, i, out):
        results, sim_s = out
        problems = []
        counters = []
        for tag, (sort_result, grep_result, matches) in results.items():
            records = []
            for partition in sorted(sort_result.outputs):
                part = sort_result.outputs[partition]
                keys = [k for k, _v in part]
                if keys != sorted(keys):
                    problems.append(f"{tag}: terasort partition "
                                    f"{partition} is not key-sorted")
                records.extend(part)
            if sorted(records) != self.sorted_records:
                problems.append(f"{tag}: terasort output is not a "
                                f"permutation of its input")
            if matches != self.matches:
                problems.append(f"{tag}: grep counted {matches}, brute "
                                f"force {self.matches}")
            counters += [sort_result.counters.as_dict(),
                         grep_result.counters.as_dict()]
        work = len(results) * (self.size["records"] + self.size["lines"])
        return Outcome(work=work, sim_s=sim_s,
                       counts=_job_counts(counters), problems=problems)


# --------------------------------------------------------------------------
# dfsio_rw
# --------------------------------------------------------------------------

class DfsioRw(Workload):
    """No format or user compute: sim.engine + sim.resources carry
    most of it, hdfs/pfs/io the rest, and writes run beside reads so
    a gain on one side that costs the other shows.
    """

    name = "dfsio_rw"
    unit = "MB"
    sizes = {"files": 24, "file_bytes": MB}
    quick_sizes = {"files": 4, "file_bytes": MB // 4}

    def setup(self):
        # TestDFSIO writes fixed /dfsio/part-NNNN paths: a fresh (cheap,
        # empty) world per iteration
        self.pool = [hadoop_world(replication=3)
                     for _ in range(self.iterations + 1)]
        # sub-percent size jitter from the seed: inputs differ between
        # seeds, work stays comparable
        rng = np.random.default_rng(self.seed)
        self.file_bytes = self.size["file_bytes"] + int(
            rng.integers(0, 4096))

    def iteration(self, i):
        world = self.pool[i]
        env, nodes, network = world.env, world.nodes, world.network
        n_files, nbytes = self.size["files"], self.file_bytes
        results = []
        for tag, storage, _diskless in world.storages:
            with self.span("run_dfsio_write"):
                written, _elapsed, _bw = run_des(env, run_dfsio_write(
                    env, nodes, storage, network, n_files, nbytes,
                    control_path=f"/{tag}/control-write"))
            with self.span("run_dfsio_read"):
                read, _elapsed, _bw = run_des(env, run_dfsio_read(
                    env, nodes, storage, network, n_files, nbytes,
                    control_path=f"/{tag}/control-read"))
            results += [written, read]
        return world, results

    def check(self, i, out):
        world, results = out
        self.pool[i] = None
        problems = []
        n_files, nbytes = self.size["files"], self.file_bytes
        for result in results:
            moved = sum(size for _key, size in result.map_records)
            if moved != n_files * nbytes:
                problems.append(f"{result.name}: tasks moved {moved} B, "
                                f"expected {n_files * nbytes}")
        checksums = set()
        for index in range(n_files):
            path = f"/dfsio/part-{index:04d}"
            on_hdfs = world.hdfs.read_file_sync(path)
            on_pfs = world.connector.read_file_sync(path)
            if len(on_hdfs) != nbytes or \
                    zlib.crc32(on_hdfs) != zlib.crc32(on_pfs):
                problems.append(f"{path}: HDFS and connector copies "
                                f"differ or are mis-sized")
            checksums.add(zlib.crc32(on_hdfs))
            if any(len(block.locations) != 3
                   for block in world.hdfs.get_blocks(path)):
                problems.append(f"{path}: a block lacks 3 replicas")
        if len(checksums) != n_files:
            problems.append("payloads are not distinct per file")
        moved_mb = len(results) * n_files * nbytes * HADOOP_SCALE / MB
        counts = _job_counts(r.counters.as_dict() for r in results)
        return Outcome(work=moved_mb, sim_s=world.env.now,
                       counts=counts, problems=problems)


# --------------------------------------------------------------------------
# sql_scan
# --------------------------------------------------------------------------

class SqlScan(Workload):
    """The only workload where rlang parse/plan/optimise/exec and
    chunk-index pruning are the work (~64 %); world build is in
    set-up.
    """

    name = "sql_scan"
    unit = "queries"
    sizes = {"tables": 12, "scan": 60, "group": 40, "count": 30,
             "join": 10, "frame": 10, "frame_rows": 10_000}
    quick_sizes = {"tables": 2, "scan": 6, "group": 4, "count": 3,
                   "join": 2, "frame": 2, "frame_rows": 2_000}

    def setup(self):
        size = self.size
        # the Fig. 5 cluster with no data, then zone-mapped files
        self.world = build_world(n_timesteps=0, with_text=False)
        self.config = NUWRFConfig(timesteps=size["tables"],
                                  chunk_stats=True, seed=self.seed)
        manifest = generate_nuwrf(self.world.pfs, self.config,
                                  directory="/sql")
        self.urls = [f"pfs://{path.lstrip('/')}"
                     for path in manifest["files"]]
        self.arrays = []
        for step in range(size["tables"]):
            ds = synthesize_timestep(self.config, step)
            self.arrays.append({path.lstrip("/"): var.data
                                for path, var in ds.all_variables()})
        rng = np.random.default_rng(self.seed)
        self.frame_cols = {
            "a": rng.integers(0, 7, size=size["frame_rows"]),
            "b": rng.random(size["frame_rows"]),
        }
        self.queries = self._queries(rng)
        #: table name -> bytes_read + bytes_skipped, must never change
        self.table_bytes: dict[str, int] = {}

    # -- the seeded query mix ----------------------------------------------
    def _queries(self, rng):
        """[(kind, sql, expected columns)] in seeded order. Thresholds
        are 3-decimal literals strictly between data values (the data
        keeps 4 mantissa bits), so float32/float64 comparison agrees."""
        size = self.size
        n_tables = size["tables"]
        dense = ["T", "P", "U", "V", "W", "PH"]

        def table():
            return int(rng.integers(0, n_tables))

        def threshold(values, lo, hi):
            level = float(np.quantile(values, rng.uniform(lo, hi)))
            return round(level, 3) + 0.0005

        queries = []
        for _ in range(size["scan"]):
            t = table()
            qr = self.arrays[t]["QR"]
            thr = threshold(qr, 0.97, 0.9995)
            z, y, x = np.nonzero(qr > thr)
            queries.append((
                "scan",
                "SELECT altitude, longitude, latitude, QR "
                f"FROM t{t} WHERE QR > {thr:.4f}",
                {"altitude": z, "longitude": y, "latitude": x,
                 "QR": qr[z, y, x]}))
        for _ in range(size["group"]):
            t = table()
            name = dense[int(rng.integers(0, len(dense)))]
            data = self.arrays[t][name]
            queries.append((
                "group",
                f"SELECT altitude, MAX({name}) AS hi, MIN({name}) AS lo, "
                f"AVG({name}) AS mean FROM t{t} "
                "GROUP BY altitude ORDER BY altitude",
                {"altitude": np.arange(data.shape[0]),
                 "hi": data.max(axis=(1, 2)),
                 "lo": data.min(axis=(1, 2)),
                 "mean": data.astype(np.float64).mean(axis=(1, 2))}))
        for _ in range(size["count"]):
            t = table()
            first, second = (dense[int(k)] for k in
                             rng.choice(len(dense), size=2, replace=False))
            a = threshold(self.arrays[t][first], 0.5, 0.95)
            b = threshold(self.arrays[t][second], 0.05, 0.5)
            n = int(((self.arrays[t][first] > a)
                     & (self.arrays[t][second] < b)).sum())
            queries.append((
                "count",
                f"SELECT COUNT(*) AS n FROM t{t} "
                f"WHERE {first} > {a:.4f} AND {second} < {b:.4f}",
                {"n": np.array([n])}))
        for _ in range(size["join"]):
            left, right = table(), table()
            qr, qc = self.arrays[left]["QR"], self.arrays[right]["QC"]
            a = threshold(qr, 0.8, 0.95)
            b = threshold(qc, 0.8, 0.95)
            per_level = ((qr > a) & (qc > b)).sum(axis=(1, 2))
            hit = np.nonzero(per_level)[0]
            queries.append((
                "join",
                f"SELECT altitude, COUNT(*) AS n FROM qr{left} "
                f"JOIN qc{right} USING (altitude, longitude, latitude) "
                f"WHERE QR > {a:.4f} AND QC > {b:.4f} "
                "GROUP BY altitude ORDER BY altitude",
                {"altitude": hit, "n": per_level[hit]}))
        for _ in range(size["frame"]):
            cut = round(float(rng.uniform(0.1, 0.9)), 3) + 0.0005
            a, b = self.frame_cols["a"], self.frame_cols["b"]
            keep = b > cut
            groups = np.unique(a[keep])
            queries.append((
                "frame",
                "SELECT a, COUNT(*) AS n, MAX(b) AS hi FROM f "
                f"WHERE b > {cut:.4f} GROUP BY a ORDER BY a",
                {"a": groups,
                 "n": np.array([(keep & (a == g)).sum() for g in groups]),
                 "hi": np.array([b[keep & (a == g)].max()
                                 for g in groups])}))
        order = rng.permutation(len(queries))
        return [queries[int(k)] for k in order]

    def iteration(self, i):
        world = self.world
        env = world.env
        t0 = env.now
        session = SQLSession(env, world.scidp.storage, world.nodes[0])
        for t, url in enumerate(self.urls):
            session.register_scinc(f"t{t}", url)
            session.register_scinc(f"qr{t}", url, variables=["QR"])
            session.register_scinc(f"qc{t}", url, variables=["QC"])
        frames = {"f": data_frame(**self.frame_cols)}
        results = []
        for kind, sql, _expected in self.queries:
            if kind == "frame":
                with self.span("sqldf"):
                    results.append((sqldf(sql, frames), []))
            else:
                with self.span("query"):
                    frame = run_des(env, session.query(sql))
                results.append((frame, session.last_scan_info))
        return results, env.now - t0

    def check(self, i, out):
        results, sim_s = out
        problems = []
        totals = collections.Counter()
        for (kind, sql, expected), (frame, scans) in zip(self.queries,
                                                         results):
            if list(frame.names) != list(expected):
                problems.append(f"{sql!r}: columns {frame.names}")
                continue
            for column, want in expected.items():
                got = np.asarray(frame[column])
                # AVG accumulates in the column's float32; the fields
                # are O(1), so an absolute tolerance is the right one
                same = (got.shape == want.shape and np.allclose(
                    got, want, rtol=0.0, atol=1e-6)
                    if column == "mean"
                    else np.array_equal(got, want))
                if not same:
                    problems.append(f"{sql!r}: column {column} differs "
                                    f"from the numpy brute force")
            for info in scans:
                total = info.bytes_read + info.bytes_skipped
                if self.table_bytes.setdefault(info.table, total) != total:
                    problems.append(
                        f"{info.table}: bytes_read + bytes_skipped = "
                        f"{total}, was {self.table_bytes[info.table]}")
                totals["rlang.chunks_read"] += info.chunks_read
                totals["rlang.chunks_pruned"] += info.chunks_pruned
                totals["rlang.bytes_read"] += info.bytes_read
                totals["rlang.bytes_skipped"] += info.bytes_skipped
        chunks = totals["rlang.chunks_read"] + totals["rlang.chunks_pruned"]
        counts = dict(totals)
        counts.update({
            "rlang.queries": len(results),
            "rlang.pruned_share":
                totals["rlang.chunks_pruned"] / chunks if chunks else 0.0,
            "io.bytes_read": totals["rlang.bytes_read"],
        })
        return Outcome(work=len(results), sim_s=sim_s, counts=counts,
                       problems=problems)


# --------------------------------------------------------------------------
# spark_iter
# --------------------------------------------------------------------------

_WORDS = (b"cloud", b"storm", b"rain", b"model", b"wind", b"data",
          b"node", b"flux", b"cell", b"front", b"ridge", b"trough")


def _plot_partition(task, records):
    out = []
    for key, value in records:
        levels = value if value.ndim == 3 else value[None, ...]
        for z in range(levels.shape[0]):
            png = image2d(levels[z], resolution=(48, 48))
            task.charge(plot_seconds(levels[z].size), "plot")
            out.append(((key, z), len(png)))
    return out


class SparkIter(Workload):
    """Owner number for the second engine (DAG scheduling, cache,
    shuffle reuse). Many cached rounds over many small partitions, so
    tasks — sparklike scheduling and the DES under it — are the work,
    not the per-record ``mapreduce.shuffle.estimate_size`` the cache
    and shuffle call once per record.
    """

    name = "spark_iter"
    unit = "records"
    sizes = {"lines": 1_600, "files": 32, "rounds": 220, "timesteps": 12}
    quick_sizes = {"lines": 400, "files": 4, "rounds": 4, "timesteps": 1}
    words_per_line = 6

    def setup(self):
        size = self.size
        self.world = build_world(n_timesteps=size["timesteps"],
                                 with_text=False, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        picks = rng.integers(0, len(_WORDS),
                             size=(size["lines"], self.words_per_line))
        lines = [b" ".join(_WORDS[k] for k in row) + b"\n"
                 for row in picks.tolist()]
        # one part file per partition: tasks, not records, are the work
        for part in range(size["files"]):
            self.world.hdfs.store_file_sync(
                f"/corpus/part{part:02d}.txt",
                b"".join(lines[part::size["files"]]))
        self.expected = collections.Counter(
            _WORDS[k].decode() for k in picks.ravel().tolist())

    def iteration(self, i):
        world = self.world
        env = world.env
        t0 = env.now
        ctx = Context(env, world.nodes, world.hdfs, world.cluster.network,
                      scidp=world.scidp, executor_cores=8,
                      record_cost=1e-4, task_startup=0.05)
        parsed = (ctx.text_file("/corpus")
                  .map(lambda line: line.decode())
                  .flat_map(lambda line: line.split())
                  .map(lambda word: (word, 1))
                  .cache())
        counted = 0
        for _round in range(self.size["rounds"]):
            with self.span("count"):
                counted += parsed.count()
        with self.span("reduce_by_key"):
            counts = dict(
                parsed.reduce_by_key(lambda a, b: a + b).collect())
        with self.span("map_partitions"):
            frames = (ctx.scidp_variable(world.nc_dir,
                                         variables=[world.variable])
                      .map_partitions(_plot_partition)
                      .count())
        return ctx, counted, counts, frames, env.now - t0

    def check(self, i, out):
        ctx, counted, counts, frames, sim_s = out
        problems = []
        words = sum(self.expected.values())
        rounds = self.size["rounds"]
        if counted != rounds * words:
            problems.append(f"counted {counted}, expected {rounds * words}")
        if counts != dict(self.expected):
            problems.append("reduce_by_key differs from Counter")
        config = self.world.config
        levels = config.timesteps * config.shape[0]
        if frames != levels:
            problems.append(f"{frames} frames, expected {levels}")
        cache = ctx.block_store.stats
        return Outcome(
            work=counted + words + frames, sim_s=sim_s, problems=problems,
            counts={
                "sparklike.tasks": ctx.metrics["tasks"],
                "sparklike.cache_hit_share":
                    cache.hits / (cache.hits + cache.misses),
                "rlang.frames_plotted": frames,
            })


# --------------------------------------------------------------------------
# trace_record
# --------------------------------------------------------------------------

class TraceRecord(Workload):
    """The imgplot scidp path with live tracer hooks instead of
    NULL_TRACER, plus export and analysis: where observability work
    will spend; imgplot_5way is its bypass.
    """

    name = "trace_record"
    unit = "spans"
    # a 16x16 horizontal grid: spans follow timesteps x levels, world
    # build follows bytes, so 48-timestep worlds fit the set-up budget
    sizes = {"timesteps": 48, "grid": 16}
    quick_sizes = {"timesteps": 2}

    def _world(self, i):
        grid = self.size["grid"]
        return build_world(n_timesteps=self.size["timesteps"],
                           shape=(8, grid, grid), with_text=False,
                           seed=self.seed + i)

    def setup(self):
        # an observed world keeps its tracer: one world per iteration
        self.pool = [self._world(i) for i in range(self.iterations + 1)]
        os.makedirs(OUT_DIR, exist_ok=True)
        self.path = os.path.join(OUT_DIR, "trace_record.trace.json")
        # oracle: the same seed run unobserved must take the same
        # simulated time (checked on the first timed iteration)
        twin = self._world(1)
        run_solution(twin, "scidp")
        self.twin_sim_s = twin.env.now

    def iteration(self, i):
        world = self.pool[i]
        session = TraceSession(self.path)
        with self.span("observe_world"):
            session.observe_world(world, self.name)
        with self.span("run_solution.scidp"):
            result = run_solution(world, "scidp")
        with self.span("save"):
            session.save()
        with self.span("validate_trace"):
            errors = validate_trace(self.path)
        with self.span("report_data"):
            report = report_data(self.path)
        with self.span("critical_path"):
            path = critical_path(spans_from_trace(load_trace(self.path)))
        return world, result, errors, report, path

    def check(self, i, out):
        world, result, errors, report, path = out
        self.pool[i] = None
        problems = [f"validate_trace: {error}" for error in errors]
        if i == 1 and world.env.now != self.twin_sim_s:
            problems.append(f"observed run took {world.env.now} s, "
                            f"unobserved {self.twin_sim_s} s")
        config = world.config
        levels = config.timesteps * config.shape[0]
        if result.frames != levels:
            problems.append(f"{result.frames} frames, expected {levels}")
        # the exported trace rounds timestamps to the nanosecond
        if not 0.0 < path.total <= world.env.now + 1e-6:
            problems.append(f"critical path {path.total} s outside "
                            f"(0, {world.env.now}]")
        spans = sum(run["spans"] for run in report["runs"])
        counts = _job_counts([result.counters])
        counts.update({
            "obs.spans": spans,
            "obs.trace_bytes": os.path.getsize(self.path),
            "rlang.frames_plotted": result.frames,
        })
        return Outcome(work=spans, sim_s=world.env.now, counts=counts,
                       problems=problems)


WORKLOADS = {cls.name: cls for cls in (
    NuwrfBuild, Imgplot5Way, MrRecords, DfsioRw, SqlScan, SparkIter,
    TraceRecord)}
