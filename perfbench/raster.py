"""The ``raster_getmap`` workload: GetMap requests over a real tiled GeoTIFF.

Setup writes a seeded 2-band (red, nir) uint16 deflate GeoTIFF with 256²
internal tiles. A ``map_batches`` task serves unaligned 256² window requests
from a per-worker server object (the engine's worker-global cache idiom, as
in ``stages.pip.make_pip_probe``), so the header cache and parsed TIFF
metadata outlive one job: ``HeaderByteCache``-wrapped range reads ->
``sources.tiff.read_window`` -> ``functions.maml.evaluate`` (NDVI) ->
``functions.render.color_ramp_render`` -> ``render.encode_image``. Half the
requests re-read a small hot set of windows; one in 32 asks for JPEG.
"""

from __future__ import annotations

import bisect
import os
import time

import numpy as np
import pyarrow as pa

WIN = 256
HOT_WINDOWS = 4
JPEG_EVERY = 32
RAMP = (0x000080FF, 0x00C800FF, 0xFF0000FF)  # blue -> green -> red, opaque


class RasterInputs:
    """Seeded source array, its GeoTIFF file and a request generator."""

    def __init__(self, seed: int, size: int, work_dir: str):
        from geotrellis_server_ray.sources.tiff import write_tiff

        self.size = size
        rng = np.random.default_rng(seed)
        gy, gx = np.mgrid[0:size, 0:size]
        a, b = rng.integers(1, 9, 2)
        # values >= 1, so red + nir > 0 and every NDVI cell is valid
        red = ((gx * a + gy * 5) % 1000 + 1 + rng.integers(0, 64, (size, size))).astype(np.uint16)
        nir = ((gx * 3 + gy * b) % 1200 + 1 + rng.integers(0, 64, (size, size))).astype(np.uint16)
        self.array = np.stack([red, nir], axis=-1)
        self.path = os.path.join(work_dir, "source.tif")
        raw = write_tiff(self.array, compression="deflate", tile=(WIN, WIN),
                         pixel_scale=(1.0, 1.0), tiepoint=(0.0, 0.0, 0.0, float(size)),
                         epsg=3857)
        with open(self.path, "wb") as f:
            f.write(raw)
        self.hot = rng.integers(0, size - WIN, (HOT_WINDOWS, 2))
        self._rng = rng
        self._next = 0

    def requests(self, n: int) -> pa.Table:
        """The next ``n`` requests: even ones hit the hot set, odd ones a
        fresh random window; every 32nd is a JPEG."""
        ids = np.arange(self._next, self._next + n, dtype=np.int64)
        self._next += n
        rand = self._rng.integers(0, self.size - WIN, (n, 2))
        hot = self.hot[self._rng.integers(0, HOT_WINDOWS, n)]
        pos = np.where((ids % 2 == 0)[:, None], hot, rand)
        fmt = np.where(ids % JPEG_EVERY == JPEG_EVERY - 1, "jpg", "png")
        return pa.table({"request_id": ids, "col0": pos[:, 0].astype(np.int64),
                         "row0": pos[:, 1].astype(np.int64), "fmt": pa.array(fmt.tolist())})

    def expected_ndvi_sum(self, col0: int, row0: int) -> float:
        w = self.array[row0:row0 + WIN, col0:col0 + WIN].astype(np.float64)
        return float(((w[:, :, 0] - w[:, :, 1]) / (w[:, :, 0] + w[:, :, 1])).sum())


class GetMapServer:
    """Serving state for one TIFF. Counts range reads, bytes and fetched
    tiles in its own reader; with ``trace`` a call returns each request's
    per-call timings and counts as columns."""

    def __init__(self, path: str):
        from geotrellis_server_ray.sources.tiff import parse_ifds
        from geotrellis_server_ray.state.caches import HeaderByteCache

        self.path = path
        self.calls = 0  # range reads asked of the header cache
        self.reads = 0  # range reads that reached the file
        self.bytes = 0
        self.io_s = 0.0
        self.blocks = 0  # tile byte ranges fetched through the header cache
        # counters at the end of the previous request, traced or not: the
        # first request's counts include the IFD parse done here
        self._seen = (0, 0, 0.0, 0, 0, 0)
        self._tile_starts: list[int] | None = None
        self._tile_ends: list[int] | None = None
        self.cache = HeaderByteCache(self._read_range)
        self.info = parse_ifds(self._read)[0]
        tiles = sorted(zip(self.info.offsets, self.info.counts))
        self._tile_starts = [o for o, _ in tiles]
        self._tile_ends = [o + n for o, n in tiles]
        self.ramp = np.array(RAMP, dtype=np.uint32)

    def _read_range(self, uri: str, offset: int, length: int) -> bytes:
        t0 = time.perf_counter()
        with open(uri, "rb") as f:
            f.seek(offset)
            data = f.read(length)
        self.io_s += time.perf_counter() - t0
        self.reads += 1
        self.bytes += len(data)
        return data

    def _read(self, offset: int, length: int) -> bytes:
        self.calls += 1
        self.blocks += self._tiles_in(offset, offset + length)
        return self.cache.read(self.path, offset, length)

    def _tiles_in(self, start: int, end: int) -> int:
        """Tiles whose whole byte range lies in [start, end): the blocks a
        fetch hands to ``read_window``, which decodes each one it fetched.
        Header reads during the IFD parse cover no tile."""
        if self._tile_ends is None:
            return 0
        i = bisect.bisect_left(self._tile_starts, start)
        return bisect.bisect_right(self._tile_ends, end, lo=i) - i

    def __call__(self, batch: pa.Table, trace: bool) -> pa.Table:
        from geotrellis_server_ray.functions import maml, render
        from geotrellis_server_ray.sources.tiff import read_window

        expr = maml.ndvi_expr()
        cols = {k: [] for k in ("ndvi_sum", "n_valid", "image")}
        tcols = {k: [] for k in ("t0", "t_read", "t_eval", "t_ramp", "t_enc", "io_s",
                                 "range_reads", "bytes_fetched", "header_hits",
                                 "read_calls", "blocks")}
        for col0, row0, fmt in zip(batch.column("col0").to_pylist(),
                                   batch.column("row0").to_pylist(),
                                   batch.column("fmt").to_pylist()):
            t0 = time.perf_counter()
            win = read_window(self._read, self.info, col0, row0, WIN, WIN)
            t1 = time.perf_counter()
            tile = maml.evaluate(expr, {"red": maml.Tile.of(win[:, :, 0]),
                                        "nir": maml.Tile.of(win[:, :, 1])})
            t2 = time.perf_counter()
            colors = render.color_ramp_render(tile.values.ravel(), -1.0, 1.0, self.ramp,
                                              nodata_mask=tile.mask.ravel())
            t3 = time.perf_counter()
            img = render.encode_image(colors, WIN, WIN, fmt)
            t4 = time.perf_counter()
            valid = ~tile.mask
            cols["ndvi_sum"].append(float(tile.values[valid].sum()))
            cols["n_valid"].append(int(valid.sum()))
            cols["image"].append(img)
            now = (self.reads, self.bytes, self.io_s, self.cache.cache.hits, self.calls,
                   self.blocks)
            deltas = [a - b for a, b in zip(now, self._seen)]
            self._seen = now
            if trace:
                for k, v in zip(tcols, [t0, t1, t2, t3, t4, deltas[2], deltas[0], deltas[1],
                                        deltas[3], deltas[4], deltas[5]]):
                    tcols[k].append(v)
        out = {"request_id": batch.column("request_id"), "fmt": batch.column("fmt"),
               "col0": batch.column("col0"), "row0": batch.column("row0"),
               "ndvi_sum": pa.array(cols["ndvi_sum"], pa.float64()),
               "n_valid": pa.array(cols["n_valid"], pa.int64()),
               "image": pa.array(cols["image"], pa.binary())}
        if trace:
            out.update({k: pa.array(v) for k, v in tcols.items()})
        return pa.table(out)


# One server per TIFF path per worker process. A per-job actor pool would
# start a new worker process for every job; on one CPU that start-up stalls
# 10-20 s in about one job in five while the previous actor exits.
_SERVERS: dict[str, GetMapServer] = {}


def serve_batch(batch: pa.Table, path: str, trace: bool) -> pa.Table:
    server = _SERVERS.get(path)
    if server is None:
        server = _SERVERS[path] = GetMapServer(path)
    return server(batch, trace)


def serve(inputs: RasterInputs, requests: pa.Table, trace: bool = False):
    """One job: serve a batch of requests."""
    from functools import partial

    import ray.data as rd

    ds = rd.from_arrow(requests).map_batches(
        partial(serve_batch, path=inputs.path, trace=trace),
        batch_size=32, batch_format="pyarrow")
    return ds, pa.concat_tables(list(ds.iter_batches(batch_size=None, batch_format="pyarrow")))


def _image_ok(img: bytes, fmt: str) -> bool:
    if fmt == "png":
        return img[:8] == b"\x89PNG\r\n\x1a\n" and img[-8:-4] == b"IEND"
    return img[:2] == b"\xff\xd8" and img[-2:] == b"\xff\xd9"


def check(inputs: RasterInputs, requests: pa.Table, out: pa.Table) -> int:
    """Failed requests: missing, NDVI sum off numpy over the source array,
    or an image without a valid PNG/JPEG container."""
    got = {r["request_id"]: r for r in out.to_pylist()}
    failed = 0
    for r in requests.to_pylist():
        o = got.get(r["request_id"])
        ok = (o is not None and o["n_valid"] == WIN * WIN
              and np.isclose(o["ndvi_sum"], inputs.expected_ndvi_sum(r["col0"], r["row0"]),
                             rtol=1e-9, atol=1e-6)
              and _image_ok(o["image"], r["fmt"]))
        failed += not ok
    return failed
