"""The two corpus workloads: ``scan_pip`` (read -> spans -> broadcast PIP join
-> count) and ``partition_write`` (the same join restricted to grid-zones ->
Hilbert range partitions -> resumable checkpointed parquet write).

Inputs: a seeded interleaved-document corpus built with
``sources.corpus.build_spans_batch`` and written as parquet files, plus a
one-column ``documents.parquet`` holding the same doc ids for the DuckDB
oracle. The seed picks the doc-id base; the engine sees only the files.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from geotrellis_server_ray.pipelines import geo
from geotrellis_server_ray.state.checkpoint import hilbert_partition

NUM_PARTITIONS = 8
WRITE_LAYER = "grid-zones"
# layers checked against the DuckDB twins; the rest are brute-forced
SQL_LAYERS = {"hot-zones": "pip_join_hot", "grid-zones": "pip_join_grid"}


def shape_for_write(b: pa.Table) -> pa.Table:
    """Join rows -> the written columns + Hilbert range partition id (the
    shape the registry's ``checkpointed_write`` query uses)."""
    t = pa.table({"doc_id": b.column("doc_id"), "span_idx": b.column("span_idx"),
                  "feature_id": b.column("feature_id"), "hilbert": b.column("hilbert")})
    return hilbert_partition(t, "hilbert", bits=geo.FLAGSHIP_ZOOM,
                             num_partitions=NUM_PARTITIONS)


# ------------------------------------------------------------------ inputs

class CorpusInputs:
    """Seeded corpus files under ``work_dir``."""

    def __init__(self, seed: int, n_docs: int, n_files: int, work_dir: str):
        from geotrellis_server_ray.sources.corpus import build_spans_batch

        rng = np.random.default_rng(seed)
        # 8-digit ids keep the corpus's doc-%08d naming; distinct per seed
        self.base = int(rng.integers(100, 9_000)) * 10_000
        self.n_docs = n_docs
        self.dir = work_dir
        self.corpus_dir = os.path.join(work_dir, "corpus")
        self.docs_path = os.path.join(work_dir, "documents.parquet")
        os.makedirs(self.corpus_dir, exist_ok=True)
        ids = np.arange(self.base, self.base + n_docs, dtype=np.int64)
        pq.write_table(pa.table({"doc_id": ids}), self.docs_path)
        self.files = []
        for i, chunk in enumerate(np.array_split(ids, n_files)):
            path = os.path.join(self.corpus_dir, f"part-{i:03d}.parquet")
            pq.write_table(build_spans_batch(pa.table({"doc_id": chunk})), path)
            self.files.append(path)
        self.bytes = sum(os.path.getsize(f) for f in self.files)

    def anchors(self) -> tuple[np.ndarray, np.ndarray]:
        """Every media span's (lon, lat), derived from the generator's own
        arithmetic — independent of the engine's explode/parse path."""
        from geotrellis_server_ray.sources.corpus import nspans_of, span_fields

        doc = np.arange(self.base, self.base + self.n_docs, dtype=np.int64)
        ns = nspans_of(doc)
        flat_doc = np.repeat(doc, ns)
        starts = np.repeat(np.cumsum(ns) - ns, ns)
        flat_j = np.arange(len(flat_doc), dtype=np.int64) - starts
        f = span_fields(flat_doc, flat_j)
        media = (f["kind_code"] % 2).astype(bool)
        return f["lon_i"][media] / 10000.0, f["lat_i"][media] / 10000.0


def oracle_counts(inputs: CorpusInputs) -> dict[str, int]:
    """Expected join rows per layer: hot-zones and grid-zones from the DuckDB
    twins over ``documents.parquet``; every other layer from a brute-force
    ``Polygon.covers_points`` over all anchors, without the index."""
    import duckdb

    from geotrellis_server_ray.pipelines.registry import oracle_sql
    from geotrellis_server_ray.sources import layers as L

    sql = oracle_sql()
    con = duckdb.connect()
    try:
        con.execute("SET threads = 1")
        con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{inputs.docs_path}')")
        out = {layer: con.execute(f"SELECT count(*) FROM ({sql[q]})").fetchone()[0]
               for layer, q in SQL_LAYERS.items()}
    finally:
        con.close()
    lon, lat = inputs.anchors()
    for f in L.all_features():
        if f.layer_name not in SQL_LAYERS:
            out[f.layer_name] = out.get(f.layer_name, 0) + int(f.polygon.covers_points(lon, lat).sum())
    # layers without a join row are absent from the engine's output
    return {k: v for k, v in out.items() if v}


# ------------------------------------------------------------------ jobs

def scan_job(inputs: CorpusInputs, keep_stats: bool = False):
    """The headline job: all 66 features, ending in ``count()``.
    ``count()`` runs on an internal copy of the plan, so ``keep_stats``
    counts the streamed blocks' rows instead, which leaves Ray Data's
    per-operator stats on the returned Dataset."""
    ds = geo.pip_joined(inputs.dir, corpus_path=inputs.corpus_dir)
    if keep_stats:
        return ds, sum(b.num_rows() for b in ds.iter_internal_ref_bundles())
    return ds, ds.count()


def layer_counts(inputs: CorpusInputs, layers: list[str] | None = None) -> dict[str, int]:
    """Join rows per layer, streamed to the driver (the warm-up's check)."""
    ds = geo.pip_joined(inputs.dir, layers=layers, corpus_path=inputs.corpus_dir)
    out: dict[str, int] = {}
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        for row in pc.value_counts(b.column("layer_name")).to_pylist():
            out[row["values"]] = out.get(row["values"], 0) + row["counts"]
    return out


def write_job(inputs: CorpusInputs, out_dir: str):
    from geotrellis_server_ray.state.checkpoint import checkpointed_write

    joined = geo.pip_joined(inputs.dir, layers=[WRITE_LAYER], with_hilbert=True,
                            corpus_path=inputs.corpus_dir)
    ds = joined.map_batches(shape_for_write, batch_format="pyarrow")
    manifest = checkpointed_write(ds, out_dir, input_desc=WRITE_LAYER)
    return manifest, manifest.take_all()


def check_written(out_dir: str, manifests: list[dict], expected_rows: int) -> list[str]:
    """Manifest rows sum to the oracle count and every manifest checksum
    equals ``_checksum`` of its file read back."""
    from geotrellis_server_ray.state.checkpoint import _checksum

    errors = []
    total = sum(int(m["rows"]) for m in manifests)
    if total != expected_rows:
        errors.append(f"manifest rows {total} != oracle {expected_rows}")
    for m in manifests:
        t = pq.read_table(f"{out_dir}/part-{int(m['partition_id']):05d}.parquet")
        if len(t) != m["rows"] or _checksum(t) != m["checksum"]:
            errors.append(f"partition {m['partition_id']}: read-back rows/checksum differ")
    return errors


def check_resume(out_dir: str, manifests: list[dict]) -> list[str]:
    """Writing the same rows again into the finished directory must skip
    every partition."""
    import ray.data as rd

    from geotrellis_server_ray.state.checkpoint import checkpointed_write

    parts = []
    for m in manifests:
        pid = int(m["partition_id"])
        t = pq.read_table(f"{out_dir}/part-{pid:05d}.parquet")
        parts.append(t.append_column("partition_id", pa.array(np.full(len(t), pid, np.int64))))
    again = checkpointed_write(rd.from_arrow(parts), out_dir, input_desc=WRITE_LAYER).take_all()
    return [f"resume rewrote {len(again)} partitions"] if again else []


# ------------------------------------------------------------------ replay

class _TimedIndex:
    """Stands in for ``PIPJoin.index``: records a ``state.broadcast.probe``
    span around each ``GridIndex.probe`` and keeps the probed points so the
    candidate tests can be counted after the replay, outside every span."""

    def __init__(self, index, tracer):
        self.index = index
        self.tracer = tracer
        self.points: list[tuple[np.ndarray, np.ndarray]] = []

    def probe(self, lon, lat):
        with self.tracer.span("state.broadcast.probe") as c:
            pt, ft = self.index.probe(lon, lat)
            c["pairs"] = len(pt)
        self.points.append((lon, lat))
        return pt, ft

    def candidate_tests(self) -> int:
        """(point, feature) covers tests the probe runs: for each point, the
        size of its cell's bucket in ``GridIndex.buckets``."""
        from geotrellis_server_ray.functions import cells

        sizes = {k: len(v) for k, v in self.index.buckets.items()}
        n = 0
        for lon, lat in self.points:
            cid, cnt = np.unique(cells.cell_id(np.asarray(lon), np.asarray(lat), self.index.level),
                                 return_counts=True)
            n += sum(sizes.get(int(c), 0) * int(k) for c, k in zip(cid, cnt))
        return n


def block_sizes(inputs: CorpusInputs) -> list[int]:
    """Row counts of the blocks the pipeline's read produces."""
    from geotrellis_server_ray.sources.corpus import read_corpus

    return [len(b) for b in read_corpus(inputs.corpus_dir).iter_batches(
        batch_size=None, batch_format="pyarrow")]


def replay(inputs: CorpusInputs, tracer, sizes: list[int], layers: list[str] | None,
           out_dir: str | None = None):
    """Run the pipeline's stage functions serially in this process over
    blocks of the same count and size as the read's, one span per layer
    call. With ``out_dir`` it continues as ``partition_write``: Hilbert
    partitioning, then one ``write_partition_group`` per partition. The
    exchange between the two is Ray Data's groupby, which has no engine
    kernel to replay; its time comes from the real job's stats instead, so
    the grouping here is not timed. Returns (the timed index wrapper, join
    rows, manifests)."""
    from geotrellis_server_ray.sources import layers as L
    from geotrellis_server_ray.stages import spans as S
    from geotrellis_server_ray.stages.pip import PIPJoin, probe_batch
    from geotrellis_server_ray.state.broadcast import GridIndex
    from geotrellis_server_ray.state.checkpoint import write_partition_group

    with_hilbert = out_dir is not None
    manifests = []
    rows = 0
    with tracer.span("replay"):
        with tracer.span("sources.read", bytes=inputs.bytes):
            table = pa.concat_tables([pq.read_table(f) for f in inputs.files])
        with tracer.span("state.broadcast.index_build"):
            index = GridIndex(L.all_features())
        state = PIPJoin(index, layers)
        timed = _TimedIndex(index, tracer)
        state.index = timed
        outs = []
        off = 0
        for n in sizes:
            block = table.slice(off, n)
            off += n
            with tracer.span("block"):
                with tracer.span("stages.spans.explode") as c:
                    x = S.explode_spans(block)
                    c["rows"] = len(x)
                with tracer.span("stages.spans.parse_geo"):
                    x = S.parse_geo(x).select(["doc_id", "span_idx", "lon", "lat"])
                with tracer.span("stages.spans.assign_tiles") as c:
                    x = S.assign_tiles(x, zoom=geo.FLAGSHIP_ZOOM, cell_level=12,
                                       with_hilbert=with_hilbert)
                    c["rows"] = len(x)
                with tracer.span("stages.pip.probe_batch") as c:
                    j = probe_batch(state, x)
                    c["rows"] = len(j)
                rows += len(j)
                if with_hilbert:
                    with tracer.span("state.checkpoint.hilbert_partition"):
                        outs.append(shape_for_write(j))
        if with_hilbert:
            allrows = pa.concat_tables(outs)
            pids = allrows.column("partition_id")
            groups = [allrows.filter(pc.equal(pids, pid))
                      for pid in sorted(pc.unique(pids).to_pylist())]
            for g in groups:
                with tracer.span("state.checkpoint.write"):
                    m = write_partition_group(g, out_dir, input_desc=WRITE_LAYER)
                manifests.append(m.to_pylist()[0])
    return timed, rows, manifests


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
