"""The five data paths of Table I, runnable on one experiment world.

| Solution       | Conversion | Data copy   | Processing |
|----------------|-----------:|------------:|-----------:|
| Naive          | yes        | sequential  | sequential |
| Vanilla Hadoop | yes        | parallel    | parallel   |
| PortHadoop     | yes        | no          | parallel   |
| SciHadoop      | no         | parallel    | parallel   |
| SciDP          | no         | no          | parallel   |

Conversion time is *excluded* from totals ("we do not count the
conversion time into the total time in any tests of this paper", §V-A)
but is still modelled and reported. Copy time is measured separately and
added on top of processing, exactly as the paper presents Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import costs
from repro.cluster import Cluster
from repro.cluster.spec import (
    chameleon_compute_spec,
    chameleon_storage_spec,
    scale_spec,
)
from repro.core import SciDP
from repro.formats import scinc
from repro.formats.text import encode_csv_block
from repro.hdfs import HDFS
from repro.mapreduce import BytesInputFormat, JobConf, JobRunner
from repro.pfs import PFS, PFSClient, StripeLayout
from repro.sim import AllOf, Environment
from repro.workloads.nuwrf import NUWRFConfig, generate_nuwrf
from repro.workloads.pipeline import (
    binary_level_mapper,
    collect_reducer,
    text_level_mapper,
)
from repro.workloads.scihadoop import SciHadoopInputFormat

__all__ = [
    "SOLUTIONS",
    "ExperimentWorld",
    "SolutionResult",
    "build_world",
    "run_solution",
]

#: Paper low-res level grid (longitude x latitude).
PAPER_LEVEL_ELEMENTS = 1250 * 1250


@dataclass
class ExperimentWorld:
    """Everything one experiment run needs."""

    env: Environment
    cluster: Cluster
    nodes: list                      # Hadoop compute nodes
    pfs: PFS
    hdfs: HDFS
    scidp: SciDP
    config: NUWRFConfig
    manifest: dict
    nc_dir: str
    text_dir: str
    variable: str = "QR"
    text_files: list[str] = field(default_factory=list)
    #: modelled (uncounted) conversion time, seconds
    conversion_time: float = 0.0
    #: monotonically increasing id so repeated runs on one world get
    #: distinct job names and output paths
    job_seq: int = 0


@dataclass
class SolutionResult:
    """One solution's run, decomposed the way Fig. 5 reports it."""

    solution: str
    workload: str
    n_timesteps: int
    copy_time: float
    process_time: float
    conversion_time_not_counted: float
    phase_means: dict[str, float] = field(default_factory=dict)
    #: mean per-reduce-task phase durations (shuffle/copy, merge, reduce)
    reduce_phase_means: dict[str, float] = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    frames: int = 0
    #: makespan of the map (image plotting) phase alone — what Fig. 8's
    #: scale-out curve tracks
    map_phase_time: float = 0.0

    @property
    def total_time(self) -> float:
        return self.copy_time + self.process_time


def build_world(n_timesteps: int = 12,
                shape: tuple[int, int, int] = (8, 48, 48),
                n_nodes: int = 8,
                slots_per_node: int = 8,
                n_osts: int = 24,
                variable: str = "QR",
                with_text: bool = True,
                seed: int = 20180710) -> ExperimentWorld:
    """Build the scaled Chameleon-like testbed with NU-WRF data loaded.

    The scale factor S = paper level elements / simulated level elements
    is applied to device bandwidths and software rates, making simulated
    seconds directly comparable to the paper's (see DESIGN.md §5-6).
    """
    scale = PAPER_LEVEL_ELEMENTS / (shape[1] * shape[2])
    costs.set_scale(scale)

    env = Environment()
    cluster = Cluster(env)
    compute = scale_spec(chameleon_compute_spec(), scale)
    nodes = [cluster.add_node(f"hadoop{i}", compute, role="compute")
             for i in range(n_nodes)]
    mds_node = cluster.add_node(
        "mds", scale_spec(chameleon_storage_spec(1), scale), role="storage")
    per_oss = n_osts // 2
    oss_nodes = [
        cluster.add_node(f"oss{i}",
                         scale_spec(chameleon_storage_spec(per_oss), scale),
                         role="storage")
        for i in range(2)
    ]
    # Lustre: 1 MB stripes, wide striping over all 24 OSTs (§V-A). The
    # stripe scales with the data so a variable's chunks spread across
    # OSTs exactly as the paper's 91 MB variables spread over 1 MB
    # stripes.
    stripe = max(1024, int(1024 * 1024 / scale))
    pfs = PFS(env, cluster.network, mds_node, oss_nodes,
              default_layout=StripeLayout(stripe_size=stripe,
                                          stripe_count=n_osts))
    block_size = max(64 * 1024, int(128 * 1024 * 1024 / scale))
    hdfs = HDFS(env, cluster.network, block_size=block_size, replication=1)
    for node in nodes:
        hdfs.add_datanode(node)
    scidp = SciDP(env, nodes, pfs, hdfs, cluster.network,
                  flat_block_size=block_size)

    config = NUWRFConfig(shape=shape, timesteps=n_timesteps, seed=seed)
    manifest = generate_nuwrf(pfs, config, directory="/nuwrf")

    world = ExperimentWorld(
        env=env, cluster=cluster, nodes=nodes, pfs=pfs, hdfs=hdfs,
        scidp=scidp, config=config, manifest=manifest,
        nc_dir="/nuwrf", text_dir="/nuwrf_text", variable=variable)

    if with_text:
        _convert_to_text(world)
    return world


def _convert_to_text(world: ExperimentWorld) -> None:
    """Offline conversion the text baselines need: one CSV file per level
    per timestamp (the manual partitioning PortHadoop requires,
    §III-A.2), stored back on the PFS with zero simulated time. The
    modelled duration is recorded but never counted (§V-A)."""
    header = f"#vars:{world.variable}\n".encode()
    source_bytes = 0
    for path in world.manifest["files"]:
        reader = scinc.Reader(world.pfs.open_sync(path))
        data = reader.get_vara("/" + world.variable)
        base = path.rsplit("/", 1)[-1]
        for z in range(data.shape[0]):
            text_path = (f"{world.text_dir}/{base}/"
                         f"{world.variable}_L{z:02d}.csv")
            world.pfs.store_file(text_path,
                                 header + encode_csv_block(data[z]))
            world.text_files.append(text_path)
        source_bytes += world.pfs.mds.lookup(path).size
    world.conversion_time = (
        source_bytes / costs.FORMAT_CONVERT_BYTES_PER_SEC)


# --------------------------------------------------------------------------
# Copy phases
# --------------------------------------------------------------------------

def _copy_files(world: ExperimentWorld, files: list[str],
                parallel: bool, to_hdfs: bool = True):
    """Copy PFS files to HDFS (distcp-like) or to node0's local disk
    (the naive path). DES process returning elapsed seconds."""
    env = world.env
    start = env.now
    queue = list(files)

    def copier(node):
        client = PFSClient(world.pfs, node)
        hdfs_client = world.hdfs.client(node)
        while queue:
            path = queue.pop(0)
            data = yield env.process(client.read(path))
            if to_hdfs:
                yield env.process(hdfs_client.write(path, data))
            else:
                yield node.disk.write(len(data))

    if parallel:
        workers = [env.process(copier(node)) for node in world.nodes]
        yield AllOf(env, workers)
    else:
        yield env.process(copier(world.nodes[0]))
    return env.now - start


# --------------------------------------------------------------------------
# Solutions
# --------------------------------------------------------------------------

def _job(world: ExperimentWorld, name: str, mapper, input_format,
         input_paths: list[str], analysis: str,
         slots_per_node: int = 8) -> JobConf:
    world.job_seq += 1
    unique = f"{name}-{world.job_seq:03d}"
    return JobConf(
        name=unique,
        mapper=mapper,
        reducer=collect_reducer(animate=analysis != "none"),
        input_format=input_format,
        n_reducers=max(1, len(world.nodes) // 2),
        input_paths=input_paths,
        output_path=f"/results/{unique}",
        map_slots_per_node=slots_per_node,
    )


def _run_job(world: ExperimentWorld, job: JobConf):
    runner = JobRunner(world.env, world.nodes, world.hdfs,
                       world.cluster.network, job)
    result = yield world.env.process(runner.run())
    return result


def _summarize(world, solution, workload, copy_time, job_result,
               process_time) -> SolutionResult:
    map_phase = 0.0
    if job_result is not None:
        maps = job_result.stats_for("map")
        if maps:
            map_phase = max(s.end for s in maps) - min(s.start for s in maps)
    return SolutionResult(
        map_phase_time=map_phase,
        solution=solution,
        workload=workload,
        n_timesteps=world.config.timesteps,
        copy_time=copy_time,
        process_time=process_time,
        conversion_time_not_counted=(
            world.conversion_time if solution in
            ("naive", "vanilla", "porthadoop") else 0.0),
        phase_means=(job_result.phase_means("map")
                     if job_result is not None else {}),
        reduce_phase_means=(job_result.phase_means("reduce")
                            if job_result is not None else {}),
        counters=(job_result.counters.as_dict()
                  if job_result is not None else {}),
        frames=(job_result.counters.value("pipeline", "levels_plotted")
                if job_result is not None else 0),
    )


def run_naive(world: ExperimentWorld, analysis: str = "none"):
    """Sequential copy + sequential single-node processing. DES process.

    No Hadoop: one R process on one node reads each converted level from
    its local disk, parses, and plots — contention-free but serial
    (§V-B: "it processes data in a sequential fashion").
    """
    env = world.env
    copy_time = yield env.process(_copy_files(
        world, world.text_files, parallel=False, to_hdfs=False))

    from repro.mapreduce.task import TaskContext
    from repro.workloads.pipeline import ANALYSES, plot_seconds
    from repro.formats.text import parse_csv_fast
    from repro.rlang.plot import image2d
    from repro.workloads import pipeline

    node = world.nodes[0]
    ctx = TaskContext(env, node, _job(world, "naive", lambda *a: None,
                                      BytesInputFormat(), ["/x"], analysis),
                      "naive-serial")
    start = env.now
    phases = {"read": 0.0, "convert": 0.0, "plot": 0.0, "analysis": 0.0}
    frames = 0
    for path in world.text_files:
        size = world.pfs.mds.lookup(path).size
        t0 = env.now
        yield node.disk.read(size)  # local sequential read
        phases["read"] += env.now - t0
        text = world.pfs.read_file_sync(path)
        t0 = env.now
        yield env.timeout(len(text) / costs.TEXT_PARSE_BYTES_PER_SEC)
        phases["convert"] += env.now - t0
        level = parse_csv_fast(text)[world.variable]
        highlight, _extra = ANALYSES[analysis](ctx, path, level)
        for charge_phase, seconds in ctx.take_charges().items():
            t0 = env.now
            yield env.timeout(seconds)
            phases[charge_phase] = phases.get(charge_phase, 0.0) \
                + (env.now - t0)
        t0 = env.now
        # Naive plots slightly faster per level: no memory/disk
        # contention from co-running tasks (§V-D).
        yield env.timeout(0.85 * plot_seconds(level.size))
        phases["plot"] += env.now - t0
        image2d(level, resolution=pipeline.FUNCTIONAL_RESOLUTION,
                highlight=highlight)
        frames += 1
    process_time = env.now - start
    result = _summarize(world, "naive", _workload_name(analysis),
                        copy_time, None, process_time)
    result.phase_means = {p: t / max(1, frames)
                          for p, t in phases.items() if t > 0}
    result.frames = frames
    return result


def run_vanilla(world: ExperimentWorld, analysis: str = "none"):
    """Parallel text copy to HDFS + parallel text processing. DES process."""
    env = world.env
    copy_time = yield env.process(_copy_files(
        world, world.text_files, parallel=True, to_hdfs=True))
    job = _job(world, "vanilla", text_level_mapper(world.variable, analysis),
               BytesInputFormat(), [world.text_dir], analysis)
    job.input_paths = sorted(
        {p.rsplit("/", 1)[0] for p in world.text_files})
    t0 = env.now
    job_result = yield env.process(_run_job(world, job))
    return _summarize(world, "vanilla", _workload_name(analysis),
                      copy_time, job_result, env.now - t0)


def run_porthadoop(world: ExperimentWorld, analysis: str = "none"):
    """No copy: text processed straight off the PFS via virtual flat
    blocks (PortHadoop's design — SciDP's flat path IS PortHadoop's
    reader, §III). Conversion still required. DES process."""
    env = world.env
    input_format = world.scidp.input_format()
    dirs = sorted({p.rsplit("/", 1)[0] for p in world.text_files})
    job = _job(world, "porthadoop",
               text_level_mapper(world.variable, analysis),
               input_format,
               [f"pfs://{d}" for d in dirs], analysis)
    t0 = env.now
    job_result = yield env.process(_run_job(world, job))
    return _summarize(world, "porthadoop", _workload_name(analysis),
                      0.0, job_result, env.now - t0)


def run_scihadoop(world: ExperimentWorld, analysis: str = "none"):
    """Parallel copy of WHOLE netCDF files to HDFS (all 23 variables —
    the redundant I/O of §V-B), then chunk-level binary processing on
    HDFS. DES process."""
    env = world.env
    copy_time = yield env.process(_copy_files(
        world, list(world.manifest["files"]), parallel=True, to_hdfs=True))
    job = _job(world, "scihadoop",
               binary_level_mapper(world.variable, analysis),
               SciHadoopInputFormat(variables=[world.variable]),
               [world.nc_dir], analysis)
    t0 = env.now
    job_result = yield env.process(_run_job(world, job))
    return _summarize(world, "scihadoop", _workload_name(analysis),
                      copy_time, job_result, env.now - t0)


def run_scidp(world: ExperimentWorld, analysis: str = "none",
              granularity=None, slots_per_node: int = 8,
              max_inflight=None, prefetch: bool = False,
              readahead_cache_bytes: int = 0):
    """Direct processing of PFS netCDF data: no conversion, no copy,
    variable-subset reads, whole-block requests. DES process.

    ``max_inflight`` bounds the readers' request window (1 = serial);
    ``prefetch``/``readahead_cache_bytes`` enable the map runtime's
    double-buffered block prefetch and node read-ahead cache.
    """
    env = world.env
    input_format = world.scidp.input_format(
        variables=[world.variable], granularity=granularity,
        max_inflight=max_inflight)
    job = _job(world, "scidp",
               binary_level_mapper(world.variable, analysis),
               input_format, [f"pfs://{world.nc_dir}"], analysis,
               slots_per_node=slots_per_node)
    job.prefetch = prefetch
    job.readahead_cache_bytes = readahead_cache_bytes
    t0 = env.now
    job_result = yield env.process(_run_job(world, job))
    return _summarize(world, "scidp", _workload_name(analysis),
                      0.0, job_result, env.now - t0)


def _workload_name(analysis: str) -> str:
    return "img-only" if analysis == "none" else f"anlys:{analysis}"


SOLUTIONS = {
    "naive": run_naive,
    "vanilla": run_vanilla,
    "porthadoop": run_porthadoop,
    "scihadoop": run_scihadoop,
    "scidp": run_scidp,
}


def run_solution(world: ExperimentWorld, solution: str,
                 analysis: str = "none", **kwargs) -> SolutionResult:
    """Convenience wrapper: run one solution to completion.

    Extra keyword arguments go to the solution driver (e.g. SciDP's
    ``granularity`` for the read-granularity ablation).
    """
    if solution not in SOLUTIONS:
        raise ValueError(
            f"unknown solution {solution!r}; have {sorted(SOLUTIONS)}")
    proc = world.env.process(SOLUTIONS[solution](world, analysis, **kwargs))
    world.env.run()
    return proc.value
