"""Spark-like engine with a SciDP data source (the paper's future work).

§VII: "SciDP can be extended to support other BD frameworks, such as
Spark" — and the related-work systems SciSpark and H5Spark teach Spark
to read scientific data *on HDFS*. This package builds a miniature
Spark: lazy RDD lineage, narrow transformations fused inside tasks,
stages cut at shuffle dependencies by a DAG scheduler that tracks
partition states, a byte-accounted ``cache()``/``persist()`` tier with
spill to shared storage, lineage-based recovery from executor loss —
and, through :meth:`Context.scidp_variable`, an RDD whose partitions
are SciDP dummy blocks read straight off the PFS, completing the
paper's integration story for a second framework.

    ctx = Context(env, nodes, hdfs, network, scidp=scidp)
    rdd = ctx.scidp_variable("/nuwrf", variables=["QR"])
    peaks = (rdd.map(lambda kv: (kv[0][1], float(kv[1].max())))
                .reduce_by_key(max)
                .collect())
"""

from repro.sparklike.cache import MEMORY_AND_DISK, MEMORY_ONLY
from repro.sparklike.rdd import RDD, SparkLikeError
from repro.sparklike.context import Context

__all__ = ["Context", "MEMORY_AND_DISK", "MEMORY_ONLY", "RDD",
           "SparkLikeError"]
