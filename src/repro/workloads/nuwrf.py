"""Synthetic NU-WRF output generator.

§IV-A/§V-A data model: each timestamp is one netCDF file with 23
single-precision variables of shape altitude × longitude × latitude
(paper low-res: 50×1250×1250 ⇒ 298 MB raw, ~91 MB chunked+compressed:
ratio ≈ 3.27). "The synthetic data sets follow the same dimensions,
chunking and compression ratio as the real data set." We reproduce the
structure at a configurable grid: smooth physical-looking fields,
mantissa-quantised so zlib lands near the paper's ~3.3× ratio, chunked
one z-level per chunk (the "data grid" granularity §III-B mentions).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.formats import Dataset, scinc

__all__ = ["NUWRF_VARIABLES", "NUWRFConfig", "generate_nuwrf",
           "synthesize_timestep"]

#: The 23 NU-WRF single-precision variables (§IV-A). QR (rain mixing
#: ratio / rainfall) is the paper's demonstration variable.
NUWRF_VARIABLES = [
    "QR", "QC", "QV", "QI", "QS", "QG",           # hydrometeors
    "T", "P", "PB", "U", "V", "W", "PH", "PHB",   # dynamics
    "RAINC", "RAINNC", "TSLB", "SMOIS", "SST",    # surface
    "HGT", "T2", "Q2", "PSFC",                    # diagnostics
]
assert len(NUWRF_VARIABLES) == 23


@dataclass
class NUWRFConfig:
    """Generation parameters.

    ``shape`` is (altitude, longitude, latitude); the paper's low-res run
    is (50, 1250, 1250). ``mantissa_bits`` controls compressibility —
    4 kept bits plus partially sparse hydrometeor fields land zlib level
    4 at the paper's ~3.27× per-file ratio (298 MB → ~91 MB/variable).
    """

    shape: tuple[int, int, int] = (8, 48, 48)
    variables: list[str] = field(
        default_factory=lambda: list(NUWRF_VARIABLES))
    timesteps: int = 4
    seed: int = 20180710  # CLUSTER 2018 vintage
    mantissa_bits: int = 4
    compression_level: int = 4
    #: chunking: one z-level per chunk, like the NCCS configuration
    chunk_levels: int = 1
    #: record per-chunk min/max/count zone maps in the headers (grows the
    #: header, shifting data_start — keep off for the golden-pinned
    #: figure worlds; the SQL pushdown bench turns it on)
    chunk_stats: bool = False

    @property
    def raw_bytes_per_variable(self) -> int:
        z, y, x = self.shape
        return z * y * x * 4

    @property
    def raw_bytes_per_file(self) -> int:
        return self.raw_bytes_per_variable * len(self.variables)

    def file_name(self, step: int) -> str:
        """Paper-style name: one output file per simulated timestamp."""
        hour = 18 + step  # the paper's example starts at plot_18_00_00
        return f"plot_{hour:02d}_{(step * 7) % 60:02d}_00.nc"


def _quantize(field_data: np.ndarray, keep_bits: int) -> np.ndarray:
    """Zero low mantissa bits of float32 values (lossy, compression aid —
    exactly what netCDF users do before deflate)."""
    if keep_bits >= 23:
        return field_data.astype(np.float32)
    mask = np.uint32(0xFFFFFFFF) << np.uint32(23 - keep_bits)
    bits = field_data.astype(np.float32).view(np.uint32)
    return (bits & mask).view(np.float32)


@lru_cache(maxsize=4)
def _axis_grids(shape: tuple[int, int, int]):
    """Broadcastable altitude / longitude / latitude coordinate grids —
    the same for every variable and timestep of one shape, so built once
    and shared read-only."""
    z, y, x = shape
    zz = np.linspace(0, 1, z, dtype=np.float32)[:, None, None]
    yy = np.linspace(0, 2 * np.pi, y, dtype=np.float32)[None, :, None]
    xx = np.linspace(0, 2 * np.pi, x, dtype=np.float32)[None, None, :]
    for grid in (zz, yy, xx):
        grid.setflags(write=False)
    return zz, yy, xx


def _smooth_field(rng: np.random.Generator,
                  shape: tuple[int, int, int],
                  step: int) -> np.ndarray:
    """A spatially smooth, temporally drifting field: a few random Fourier
    modes plus a vertical profile — looks like weather, compresses like
    weather."""
    zz, yy, xx = _axis_grids(tuple(shape))
    out = np.zeros(shape, dtype=np.float32)
    for _mode in range(4):
        ky, kx = rng.integers(1, 4, size=2)
        phase = rng.random() * 2 * np.pi + 0.1 * step
        amp = rng.random()
        out += amp * np.sin(ky * yy + phase) * np.cos(kx * xx - phase) \
            * (1.0 - 0.5 * zz)
    out += rng.normal(0, 0.02, size=shape).astype(np.float32)
    return out


def synthesize_timestep(config: NUWRFConfig, step: int) -> Dataset:
    """Build one timestamp's Dataset with all configured variables."""
    z, _y, _x = config.shape
    ds = Dataset(attrs={
        "model": "NU-WRF (synthetic)",
        "timestep": step,
        "resolution": "x".join(str(s) for s in config.shape),
    })
    for v, name in enumerate(config.variables):
        rng = np.random.default_rng(
            config.seed + 7919 * v + 104729 * step)
        data = _smooth_field(rng, config.shape, step)
        if name.startswith("Q") or name.startswith("RAIN"):
            # Hydrometeors are partially sparse: rain covers part of the
            # domain (zero elsewhere). Together with the mantissa
            # quantisation this puts the per-file deflate ratio at the
            # paper's ~3.27x while keeping every individual variable in
            # a realistic 2.7-5x band (the paper reports the per-file
            # average: 298 MB -> ~91 MB per variable "on average").
            data = np.maximum(data, 0)
        data = _quantize(data, config.mantissa_bits)
        ds.create_variable(
            name, ("altitude", "longitude", "latitude"), data,
            chunk_shape=(config.chunk_levels,) + config.shape[1:],
            attrs={"units": "kg m-2" if name.startswith("Q") else "si"})
    return ds


def generate_nuwrf(pfs, config: NUWRFConfig,
                   directory: str = "/nuwrf") -> dict:
    """Write the synthetic run onto the PFS (zero simulated time — this
    data is the precondition produced by the MPI simulation phase).

    Returns a manifest: file paths, raw/stored sizes, compression ratio.
    """
    manifest = {
        "directory": directory,
        "files": [],
        "raw_bytes": 0,
        "stored_bytes": 0,
    }
    for step in range(config.timesteps):
        ds = synthesize_timestep(config, step)
        buf = io.BytesIO()
        scinc.write(buf, ds, compression_level=config.compression_level,
                    stats=config.chunk_stats)
        payload = buf.getvalue()
        path = f"{directory}/{config.file_name(step)}"
        pfs.store_file(path, payload)
        manifest["files"].append(path)
        manifest["raw_bytes"] += config.raw_bytes_per_file
        manifest["stored_bytes"] += len(payload)
    manifest["compression_ratio"] = (
        manifest["raw_bytes"] / manifest["stored_bytes"]
        if manifest["stored_bytes"] else 0.0)
    return manifest
