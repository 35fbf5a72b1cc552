"""The engine's benchmark: three seeded workloads through the public API on a
local Ray session with ``num_cpus`` = ``nproc``, driven from this one
process.

    python3 perfbench/run.py --workload partition_write --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

Workloads (see perfbench/README.md; BENCHMARK.json lists the last two):
  scan_pip         corpus -> spans -> broadcast PIP join (66 features) -> count
  partition_write  same join on grid-zones -> Hilbert partitions -> checkpointed write
  raster_getmap    GeoTIFF window reads -> MAML NDVI -> color ramp -> PNG/JPEG

``--trace 0`` runs set-up, then jobs back to back (a closed loop, one client)
for ``--seconds`` and reports the end-to-end metrics. ``--trace 1`` runs
set-up, then the traced run and reports the per-layer metrics; its spans go
to ``.perfbench_work/traces/``. Every output is checked; a failed check
counts in ``failed`` and makes the exit code 1. The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SIZES = {
    # corpus docs, corpus files, TIFF side, requests per raster job
    "full": {"docs": 40_000, "files": 8, "tiff": 2048, "requests": 128},
    "tiny": {"docs": 2_000, "files": 2, "tiff": 512, "requests": 32},
}

END_TO_END_UNITS = {"setup_s": "s", "cpu_s": "s", "items_per_cpu_s": "1/s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "sources.read_s": "s", "sources.read_bytes": "bytes",
    "stages.spans.explode_s": "s", "stages.spans.parse_geo_s": "s",
    "stages.spans.assign_tiles_s": "s", "stages.spans.spans_out": "count",
    "stages.spans.anchored_frac": "ratio",
    "state.broadcast.index_build_s": "s", "state.broadcast.probe_s": "s",
    "state.broadcast.candidate_tests": "count", "state.broadcast.hit_ratio": "ratio",
    "stages.pip.probe_batch_s": "s", "stages.pip.join_rows": "count",
    "pipelines.blocks": "count", "pipelines.udf_s": "s", "pipelines.overhead_s": "s",
    "pipelines.overhead_frac": "ratio",
    "state.checkpoint.hilbert_partition_s": "s", "state.checkpoint.shuffle_s": "s",
    "state.checkpoint.write_s": "s", "state.checkpoint.bytes_written": "bytes",
    "state.checkpoint.bytes_per_row": "bytes", "state.checkpoint.partitions_written": "count",
    "state.checkpoint.partition_skew": "ratio",
    "sources.tiff.read_window_s": "s", "sources.tiff.blocks_decoded": "count",
    "sources.tiff.range_reads": "count", "sources.tiff.bytes_fetched": "bytes",
    "state.caches.header_hit_ratio": "ratio",
    "functions.maml.evaluate_s": "s",
    "functions.render.ramp_s": "s", "functions.render.encode_png_s": "s",
    "functions.render.encode_jpg_s": "s", "functions.render.bytes_out": "bytes",
    "raster.tile_p50_ms": "ms", "raster.tile_p99_ms": "ms",
    "trace.overhead_s": "s",
}

# spans that group layer calls but are not a layer themselves
GROUP_SPANS = {"replay", "block", "job", "request"}


class Workload:
    """Set-up, one job and the traced run of one workload. A job is split
    into ``prepare_job`` (untimed), ``run_job`` (timed) and ``check_job``
    (untimed). ``attempted``/``failed`` count operations: jobs, or requests
    for the raster workload; ``errors`` says which checks failed."""

    name = ""
    item = ""

    def __init__(self, seed: int, size: dict, work: str):
        self.seed = seed
        self.size = size
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str, n: int = 1, failed: int | None = None):
        self.attempted += n
        bad = (0 if ok else n) if failed is None else failed
        self.failed += bad
        if bad:
            self.errors.append(what)

    def ops_per_job(self) -> int:
        return 1

    def prepare_job(self):
        pass

    def after(self):
        pass

    def job(self, trace: bool = False):
        """prepare, run (timed), check; returns (dataset, output, start, end).
        The CPU seconds of the run go to ``self.cpu_s``."""
        from perfbench.harness import tree_cpu_s

        self.prepare_job()
        c0 = tree_cpu_s()
        t0 = time.perf_counter()
        try:
            ds, out = self.run_job(trace)
        except Exception as e:  # noqa: BLE001 - a raising job counts as failed
            self.record(False, f"job raised {e!r}", n=self.ops_per_job())
            raise
        t1 = time.perf_counter()
        self.cpu_s = tree_cpu_s() - c0
        self.check_job(out)
        return ds, out, t0, t1


# ------------------------------------------------------------------ corpus

class _CorpusWorkload(Workload):
    item = "docs"
    layers: list[str] | None = None

    def make_inputs(self):
        from perfbench.corpus import CorpusInputs

        self.inputs = CorpusInputs(self.seed, self.size["docs"], self.size["files"],
                                   os.path.join(self.work, "inputs"))

    def oracle(self):
        from perfbench.corpus import oracle_counts

        self.expected = oracle_counts(self.inputs)

    def items(self) -> int:
        return self.size["docs"]

    def expected_rows(self) -> int:
        if self.layers is None:
            return sum(self.expected.values())
        return sum(self.expected.get(k, 0) for k in self.layers)

    def trace(self, run_id: str) -> dict:
        from perfbench import corpus as C
        from perfbench.harness import Tracer, exchange_interval, operator_stats, pipeline_counts

        sizes = C.block_sizes(self.inputs)
        ds, out, job_t0, job_t1 = self.job(trace=True)
        wall = job_t1 - job_t0
        ops = operator_stats(ds)
        write = self.layers is not None
        out_dirs = [C.fresh_dir(os.path.join(self.work, f"replay-{k}")) if write else None
                    for k in (0, 1)]
        off = Tracer(run_id, enabled=False)
        t0 = time.perf_counter()
        C.replay(self.inputs, off, sizes, self.layers, out_dirs[0])
        off_wall = time.perf_counter() - t0
        tracer = Tracer(run_id)
        job = tracer.add("job", job_t0, job_t1)  # the real Ray job, for the spans file
        exchange = exchange_interval(ops)
        if exchange:
            # the groupby exchange has no engine kernel to replay: its wall
            # time is taken from the real job's per-operator stats
            tracer.add("state.checkpoint.shuffle", *exchange, job)
        t0 = time.perf_counter()
        timed, rows, manifests = C.replay(self.inputs, tracer, sizes, self.layers, out_dirs[1])
        on_wall = time.perf_counter() - t0
        self.record(rows == self.expected_rows(),
                    f"replay join rows {rows} != oracle {self.expected_rows()}")
        if write:
            errs = C.check_written(out_dirs[1], manifests, self.expected_rows())
            self.record(not errs, "replay: " + "; ".join(errs))
        self.tracer = tracer

        m = {f"{k}_s": v for k, v in tracer.self_times().items() if k not in GROUP_SPANS}
        layer_total = sum(m.values())
        explode_rows = tracer.total("stages.spans.explode", "rows")
        tests = timed.candidate_tests()
        m.update({
            "sources.read_bytes": self.inputs.bytes,
            "stages.spans.spans_out": explode_rows,
            "stages.spans.anchored_frac": tracer.total("stages.spans.assign_tiles", "rows") / explode_rows,
            "state.broadcast.candidate_tests": tests,
            "state.broadcast.hit_ratio": tracer.total("state.broadcast.probe", "pairs") / tests,
            "stages.pip.join_rows": tracer.total("stages.pip.probe_batch", "rows"),
            **pipeline_counts(ops),
            "pipelines.overhead_s": wall - layer_total,
            "pipelines.overhead_frac": (wall - layer_total) / wall,
            "trace.overhead_s": on_wall - off_wall,
        })
        if write:
            rows_per = [int(r["rows"]) for r in out]
            nbytes = sum(int(r["bytes"]) for r in out)
            m.update({
                "state.checkpoint.bytes_written": nbytes,
                "state.checkpoint.bytes_per_row": nbytes / sum(rows_per),
                "state.checkpoint.partitions_written": len(out),
                "state.checkpoint.partition_skew": max(rows_per) * len(out) / sum(rows_per),
            })
        self.wall_traced = wall
        return m


class ScanPip(_CorpusWorkload):
    name = "scan_pip"

    def warm_up(self):
        from perfbench.corpus import layer_counts

        got = layer_counts(self.inputs)
        self.record(got == self.expected, f"per-layer join rows {got} != oracle {self.expected}")

    def run_job(self, trace: bool = False):
        from perfbench.corpus import scan_job

        return scan_job(self.inputs, keep_stats=trace)

    def check_job(self, n: int):
        self.record(n == self.expected_rows(), f"count {n} != oracle {self.expected_rows()}")


class PartitionWrite(_CorpusWorkload):
    name = "partition_write"
    layers = ["grid-zones"]
    jobs = 0
    # the output directory and manifests of the last job that passed its check
    written: tuple[str, list[dict]] | None = None

    def warm_up(self):
        # a whole checked job: the groupby's extra Ray workers start here,
        # not in the first timed job
        self.job()

    def prepare_job(self):
        from perfbench.corpus import fresh_dir

        # a fresh output directory per job, made before the timer starts
        self.jobs += 1
        self.out_dir = fresh_dir(os.path.join(self.work, f"out-{self.jobs}"))

    def run_job(self, trace: bool = False):
        from perfbench.corpus import write_job

        return write_job(self.inputs, self.out_dir)

    def check_job(self, manifests: list[dict]):
        from perfbench.corpus import check_written

        errs = check_written(self.out_dir, manifests, self.expected_rows())
        self.record(not errs, "; ".join(errs))
        if not errs:
            self.written = (self.out_dir, manifests)

    def after(self):
        from perfbench.corpus import check_resume

        if self.written is None:
            self.record(False, "resume check skipped: no job wrote a checked output")
            return
        errs = check_resume(*self.written)
        self.record(not errs, "; ".join(errs))


# ------------------------------------------------------------------ raster

class RasterGetmap(Workload):
    name = "raster_getmap"
    item = "tiles"

    def make_inputs(self):
        from perfbench.raster import RasterInputs

        os.makedirs(self.work, exist_ok=True)
        self.inputs = RasterInputs(self.seed, self.size["tiff"], self.work)

    def oracle(self):
        pass  # expected sums are computed per request from the source array

    def items(self) -> int:
        return self.size["requests"]

    def ops_per_job(self) -> int:
        return self.size["requests"]

    def prepare_job(self):
        self.requests = self.inputs.requests(self.size["requests"])

    def run_job(self, trace: bool = False):
        from perfbench.raster import serve

        return serve(self.inputs, self.requests, trace)

    def check_job(self, out):
        from perfbench.raster import check

        bad = check(self.inputs, self.requests, out)
        self.record(True, f"{bad} raster requests failed their check",
                    n=len(self.requests), failed=bad)

    def warm_up(self):
        self.job()

    def trace(self, run_id: str) -> dict:
        from statistics import median

        from perfbench.harness import Tracer, operator_stats, percentile, pipeline_counts

        tracer = Tracer(run_id)
        off_walls, on_walls, lat = [], [], []
        counts = dict.fromkeys(("range_reads", "bytes_fetched", "header_hits",
                                "read_calls", "blocks"), 0)
        bytes_out = 0
        udf_s = 0.0
        for _ in range(2):
            _, _, t0, t1 = self.job()
            off_walls.append(t1 - t0)
            ds, out, t0, t1 = self.job(trace=True)
            on_walls.append(t1 - t0)
            stats = pipeline_counts(operator_stats(ds))
            udf_s += stats["pipelines.udf_s"]
            job = tracer.add("job", t0, t1)
            for r in out.to_pylist():
                req = tracer.add("request", r["t0"], r["t_enc"], job)
                rw = tracer.add("sources.tiff.read_window", r["t0"], r["t_read"], req)
                tracer.add("sources.read", r["t0"], r["t0"] + r["io_s"], rw)
                tracer.add("functions.maml.evaluate", r["t_read"], r["t_eval"], req)
                tracer.add("functions.render.ramp", r["t_eval"], r["t_ramp"], req)
                tracer.add(f"functions.render.encode_{r['fmt']}", r["t_ramp"], r["t_enc"], req)
                lat.append((r["t_enc"] - r["t0"]) * 1000.0)
                bytes_out += len(r["image"])
                for k in counts:
                    counts[k] += r[k]
        self.tracer = tracer
        m = {f"{k}_s": v for k, v in tracer.self_times().items() if k not in GROUP_SPANS}
        layer_total = sum(m.values())
        wall = sum(on_walls)
        m.update({
            "sources.read_bytes": counts["bytes_fetched"],
            "sources.tiff.blocks_decoded": counts["blocks"],
            "sources.tiff.range_reads": counts["range_reads"],
            "sources.tiff.bytes_fetched": counts["bytes_fetched"],
            # share of range reads served from the cached header prefix
            "state.caches.header_hit_ratio": counts["header_hits"] / counts["read_calls"],
            "functions.render.bytes_out": bytes_out,
            "raster.tile_p50_ms": percentile(lat, 50),
            "raster.tile_p99_ms": percentile(lat, 99),
            "pipelines.blocks": stats["pipelines.blocks"],
            "pipelines.udf_s": udf_s,
            "pipelines.overhead_s": wall - layer_total,
            "pipelines.overhead_frac": (wall - layer_total) / wall,
            "trace.overhead_s": median(on_walls) - median(off_walls),
        })
        self.wall_traced = wall
        return m


WORKLOADS = {w.name: w for w in (ScanPip, PartitionWrite, RasterGetmap)}


# ------------------------------------------------------------------ run

def run(args) -> int:
    from statistics import median

    from perfbench.harness import WORK, RaySession, RssSampler

    size = SIZES[args.size]
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    wl: Workload = WORKLOADS[args.workload](args.seed, size, work)
    session = RaySession()
    metrics: dict = {}
    try:
        t0 = time.perf_counter()
        wl.make_inputs()
        gen_s = time.perf_counter() - t0
        wl.oracle()  # the checker's work: not part of set-up
        t0 = time.perf_counter()
        session.start()
        t1 = time.perf_counter()
        wl.warm_up()
        t2 = time.perf_counter()
        setup_s = gen_s + t2 - t0
        parts = {"inputs": gen_s, "ray start": t1 - t0, "warm-up": t2 - t1}

        if args.trace:
            metrics = dict.fromkeys(LAYER_UNITS, 0.0)
            metrics.update(wl.trace(f"{args.workload}-seed{args.seed}-{os.getpid()}"))
            wl.tracer.write(os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.spans.jsonl"))
            units = LAYER_UNITS
        else:
            walls, cpus = [], []
            deadline = time.perf_counter() + args.seconds
            with RssSampler() as rss:
                while True:
                    try:
                        _, _, t0, t1 = wl.job()
                        walls.append(t1 - t0)
                        cpus.append(wl.cpu_s)
                    except Exception:  # noqa: BLE001 - counted in job(); keep measuring
                        pass
                    if time.perf_counter() >= deadline:
                        break
            wl.after()
            cpu = median(cpus) if cpus else float("nan")
            metrics = {"setup_s": setup_s, "cpu_s": cpu, "items_per_cpu_s": wl.items() / cpu,
                       "peak_rss_mb": rss.peak / 2**20}
            units = END_TO_END_UNITS
            wl.walls, wl.cpus = walls, cpus
    finally:
        session.stop()
        shutil.rmtree(work, ignore_errors=True)

    report(wl, args, metrics, units, parts)
    result = {"correct": wl.failed == 0, "attempted": wl.attempted, "failed": wl.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if wl.failed == 0 else 1


def report(wl: Workload, args, metrics: dict, units: dict, setup: dict) -> None:
    """Human-readable block (stdout, before the result line); the failure
    details go to stderr. ``setup`` holds the seconds of each set-up step."""
    from statistics import median

    from perfbench.harness import nproc

    print(f"# workload {wl.name}  seed {args.seed}  trace {args.trace}  num_cpus {nproc()}  "
          f"{wl.item}/job {wl.items()}")
    print("#   set-up s: " + ", ".join(f"{k} {v:.3f}" for k, v in setup.items()))
    if not args.trace:
        print(f"#   {len(wl.walls)} jobs timed over >= {args.seconds} s; wall s: "
              + " ".join(f"{w:.3f}" for w in wl.walls))
        print("#   cpu s: " + " ".join(f"{c:.3f}" for c in wl.cpus))
    for k, v in metrics.items():
        name = f"{wl.item}_per_cpu_s" if k == "items_per_cpu_s" else k
        print(f"#   {name:<40} {v:>16.6g} {units[k]}")
    if not args.trace and wl.walls:
        # wall time follows the host's steal; shown, not a JSON metric
        wall = median(wl.walls)
        print(f"#   {'wall_s':<40} {wall:>16.6g} s")
        print(f"#   {wl.item + '_per_s':<40} {wl.items() / wall:>16.6g} 1/s")
    frac = wl.failed / wl.attempted if wl.attempted else 0.0
    print(f"#   {'fail_frac':<40} {frac:>16.6g} ({wl.failed}/{wl.attempted})")
    if args.trace:
        # the layer self times plus pipelines.overhead_s make up the wall
        wall = wl.wall_traced
        print(f"#   traced wall {wall:.4f} s, share per layer:")
        for k, v in metrics.items():
            if units[k] == "s" and v and k not in ("pipelines.udf_s", "trace.overhead_s"):
                print(f"#     {k:<38} {v / wall:8.1%}")
    for e, n in Counter(wl.errors).items():
        print(f"check failed: {e}" + (f" (x{n})" if n > 1 else ""), file=sys.stderr)


# ------------------------------------------------------------------ self-check

def selfcheck() -> int:
    """Run every workload (``scan_pip`` too) at the tiny size, untraced and
    traced, and assert that each metric named in BENCHMARK.json is printed
    with its unit and that every output check passed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            before = len(problems)
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            tag = f"{name} trace={trace}"
            lines = p.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{tag}: no result line (exit {p.returncode}): {p.stderr[-2000:]}")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{tag}: metrics/units {got} != {want[trace]}")
            if not res["correct"] or res["failed"] or p.returncode:
                problems.append(f"{tag}: output checks failed: {p.stderr[-2000:]}")
            print(f"selfcheck {tag}: {'ok' if len(problems) == before else 'see below'} "
                  f"({res['attempted']} attempted)")
    for pr in problems:
        print(pr, file=sys.stderr)
    print(json.dumps({"selfcheck": "ok" if not problems else "failed", "problems": len(problems)}))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if args.selfcheck:
        return selfcheck()
    if not args.workload:
        ap.error("--workload is required")
    if not os.path.isdir(os.path.join(ROOT, "geotrellis_server_ray")):
        print(f"engine package geotrellis_server_ray/ not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
