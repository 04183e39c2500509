"""`rhdfs`-style storage access.

"The images and the analysis results will be combined and stored into
HDFS using the rhdfs package in Reduce task" (§IV-E.3). Thin R-flavoured
wrappers (``hdfs_put``, ``hdfs_get``, ``hdfs_ls``) over a storage client,
usable from inside map/reduce functions (timed) or outside (sync).
"""

from __future__ import annotations

__all__ = ["RHDFS"]


class RHDFS:
    """R-facing storage handle bound to one node's client.

    ``flusher`` (a :class:`repro.io.write.WriteBehindFlusher`) makes
    :meth:`hdfs_put` hand its payload off asynchronously — the reduce
    task's plot store overlaps the next group's rendering — with the
    job's drain barrier guaranteeing everything lands before commit.
    """

    def __init__(self, storage, node, flusher=None):
        self.storage = storage
        self.node = node
        self.client = storage.client(node)
        self.env = self.client.env
        self.flusher = flusher

    def hdfs_put(self, path: str, data: bytes):
        """Write ``data`` to ``path`` (timed). DES process.

        With a write-behind flusher attached the put returns
        immediately (the flush overlaps later compute); synchronously
        otherwise.
        """
        if self.flusher is not None:
            self.flusher.submit(self.client, path, data)
            return
        yield self.env.process(self.client.write(path, data))

    def hdfs_get(self, path: str):
        """Read ``path`` (timed). DES process returning bytes."""
        data = yield self.env.process(self.client.read(path))
        return data

    def hdfs_ls(self, path: str):
        """List a directory (timed). DES process returning paths."""
        listing = yield self.env.process(self.client.listdir(path))
        return listing

    def hdfs_exists(self, path: str):
        """Existence check (timed). DES process returning bool."""
        present = yield self.env.process(self.client.exists(path))
        return present
