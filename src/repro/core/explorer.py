"""File Explorer: Path Reader + Sci-format Head Reader (§III-A.1).

The Path Reader scans the PFS input path; the Sci-format Head Reader
attempts to open each file with every registered scientific format probe
(the paper calls ``nc_open`` / ``H5Fis_hdf5``). Recognised files carry
their parsed container header onward to the Data Mapper; everything else
is marked *flat*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.formats.container import ContainerHeader, read_header
from repro.formats.detect import FORMAT_FLAT, detect_format
from repro.pfs.client import PFSClient

__all__ = ["ExploredFile", "FileExplorer"]

#: Bytes of each file the Head Reader fetches to probe magic + header
#: length; headers larger than this cost a second fetch.
_PROBE_BYTES = 4096


@dataclass
class ExploredFile:
    """One classified input file."""

    path: str
    size: int
    format: str                      # "scinc" | "sdf5" | "flat"
    header: Optional[ContainerHeader] = None  # parsed, for scientific files

    @property
    def is_scientific(self) -> bool:
        return self.format != FORMAT_FLAT


class FileExplorer:
    """Scans and classifies a PFS input path."""

    def __init__(self, client: PFSClient):
        self.client = client
        self.env = client.env

    def explore(self, input_path: str, charge_io: bool = True):
        """DES process returning a list of :class:`ExploredFile`.

        ``charge_io``: when True the header probes pay their PFS I/O time
        (a metadata RPC plus the probe reads). The functional parse uses
        the zero-time sync view — same bytes either way.
        """
        paths = yield self.env.process(self.client.listdir(input_path))
        if not paths:
            # A single file rather than a directory?
            if self.client.pfs.mds.exists(input_path):
                paths = [self.client.pfs.mds.normalize(input_path)]
            else:
                return []
        explored: list[ExploredFile] = []
        for path in sorted(paths):
            inode = self.client.pfs.mds.lookup(path)
            if charge_io:
                probe = min(_PROBE_BYTES, inode.size)
                if probe:
                    yield self.env.process(
                        self.client.read(path, 0, probe))
            view = self.client.pfs.open_sync(path)
            fmt = detect_format(view)
            header = None
            if fmt != FORMAT_FLAT:
                view.seek(0)
                header = read_header(view)
                if charge_io:
                    remaining = header.data_start - min(
                        _PROBE_BYTES, inode.size)
                    if remaining > 0:
                        yield self.env.process(self.client.read(
                            path, _PROBE_BYTES, remaining))
            explored.append(ExploredFile(
                path=path, size=inode.size, format=fmt, header=header))
        return explored
