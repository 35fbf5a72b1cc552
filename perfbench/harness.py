"""Benchmark plumbing shared by the workloads: an in-memory span tracer, the
Ray session (start, quiet logging, stop and wait for every process), a
peak-RSS sampler and a CPU-time reader over ``/proc`` and a reader for Ray
Data's per-operator stats. Nothing here touches the engine's code; every span is recorded around
a call made from the benchmark's own files.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")

# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets under
# <temp_dir>/session_<timestamp>_<pid>/sockets/, which adds about 62 bytes
_MAX_RAY_TEMP_DIR = 40


# ------------------------------------------------------------------ tracing

class Tracer:
    """Spans kept in memory: name, start, end, parent span id, run id and
    optional counts. ``enabled=False`` makes ``span`` a no-op, which is how
    the untraced replay measures the tracer's own cost."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield counts
            return
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                               "parent": parent, "run": self.run_id, **counts})

    def add(self, name: str, start: float, end: float, parent: int | None = None,
            **counts) -> int:
        """Record a span timed elsewhere (inside a Ray worker, or by Ray
        Data's stats; both use this host's monotonic clock, as
        ``perf_counter`` does)."""
        sid = self._next
        self._next += 1
        self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                           "parent": parent, "run": self.run_id, **counts})
        return sid

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans
        cover."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def total(self, name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in self.spans if s["name"] == name)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                f.write(json.dumps(s, sort_keys=True) + "\n")


# ------------------------------------------------------------------ /proc

def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may contain spaces: the ppid follows its ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().split(b"\0", 1)[0].decode(errors="replace")
    except OSError:
        return ""


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


def tree_cpu_s() -> float:
    """CPU seconds used so far by this process and every process below it
    (Ray's GCS, raylet and workers), all threads, user + system. Reaped
    children count through their parent's cutime/cstime, so a worker that
    exits between two readings is not lost. Time the hypervisor steals from
    the VM is not charged to a process, so this does not grow with host
    steal the way wall time does."""
    total = 0
    for pid in [os.getpid()] + descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # utime, stime, cutime, cstime: fields 14-17 of stat(5)
        total += sum(int(x) for x in fields[11:15])
    return total / os.sysconf("SC_CLK_TCK")


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


class RssSampler:
    """Peak of the summed RSS of this process and its Ray worker processes
    (``ray::`` command names), sampled from /proc on a background thread.
    The worker list is refreshed once a second; RSS every 100 ms."""

    INTERVAL_S = 0.1

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _workers(self) -> list[int]:
        return [p for p in descendants(os.getpid()) if _cmdline(p).startswith("ray::")]

    def _run(self):
        me = os.getpid()
        pids, refreshed = self._workers(), time.monotonic()
        while not self._stop.is_set():
            if time.monotonic() - refreshed > 1.0:
                pids, refreshed = self._workers(), time.monotonic()
            self.peak = max(self.peak, _rss_bytes(me) + sum(_rss_bytes(p) for p in pids))
            self._stop.wait(self.INTERVAL_S)

    def __enter__(self):
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


# ------------------------------------------------------------------ Ray

def nproc() -> int:
    """CPUs as ``nproc`` reports them: the affinity mask, capped by
    ``OMP_NUM_THREADS`` when that is set."""
    return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)


class RaySession:
    """One local Ray session with ``num_cpus`` = ``nproc``, logging and
    progress bars off so the result line stays the last line on stdout. Its
    temp dir lives in the checkout when the socket paths fit, else in a
    fresh system temp dir; both are removed on stop."""

    # small and fixed, so runs do not depend on the host's memory size
    OBJECT_STORE_MB = 512

    def __init__(self):
        self.temp_dir: str | None = None

    def start(self) -> "RaySession":
        local = os.path.join(WORK, f"ray-{os.getpid()}")
        if len(local) <= _MAX_RAY_TEMP_DIR:
            os.makedirs(local, exist_ok=True)
            self.temp_dir = local
        else:
            self.temp_dir = tempfile.mkdtemp(prefix="pb-ray-")
        # workers import the engine and the benchmark from the checkout root
        path = os.environ.get("PYTHONPATH", "")
        os.environ["PYTHONPATH"] = ROOT + (os.pathsep + path if path else "")
        import ray
        import ray.data as rd

        ray.init(num_cpus=nproc(), include_dashboard=False,
                 log_to_driver=False, logging_level=logging.ERROR,
                 object_store_memory=self.OBJECT_STORE_MB * 1024 * 1024,
                 _temp_dir=self.temp_dir)
        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.enable_operator_progress_bars = False
        ctx.print_on_execution_start = False
        for name in ("ray", "ray.data"):
            logging.getLogger(name).setLevel(logging.ERROR)
        return self

    def stop(self) -> None:
        """Shut Ray down and wait until every process it started has ended;
        any still alive after 30 s is killed."""
        import ray

        procs = descendants(os.getpid())
        ray.shutdown()
        deadline = time.monotonic() + 30.0
        while any(_alive(p) for p in procs) and time.monotonic() < deadline:
            time.sleep(0.05)
        for p in procs:
            if _alive(p):
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        while any(_alive(p) for p in procs):
            time.sleep(0.05)
        if self.temp_dir:
            shutil.rmtree(self.temp_dir, ignore_errors=True)


# ------------------------------------------------------------------ stats

def operator_stats(ds) -> list:
    """Flattened per-operator stats of the Dataset's last execution
    (``Dataset.stats()`` in structured form), parents first."""
    out: list = []

    def walk(summary):
        for p in summary.parents:
            walk(p)
        out.extend(summary.operators_stats)

    walk(ds._get_stats_summary())
    return out


def pipeline_counts(ops) -> dict:
    """Blocks the read produced and UDF seconds summed over all operators."""
    import re

    udf = sum(op.udf_time.get("sum", 0.0) for op in ops if op.udf_time)
    produced = [int(m.group(1)) for op in ops
                for m in [re.search(r"(\d+) blocks produced", op.block_execution_summary_str)] if m]
    return {"pipelines.blocks": produced[0] if produced else 0, "pipelines.udf_s": udf}


def exchange_interval(ops) -> tuple[float, float] | None:
    """(start, end) of the all-to-all exchange in a job, on the host's
    monotonic clock: from the end of the operator that feeds it to the end
    of its last sub-operator (``SortMap``/``SortReduce`` of a groupby).
    None when the job has no exchange."""
    subs = [i for i, op in enumerate(ops) if op.is_sub_operator]
    if not subs:
        return None
    feeder = [op for op in ops[:subs[0]] if not op.is_sub_operator][-1]
    end = max(ops[i].latest_end_time for i in subs)
    return feeder.latest_end_time, end


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    s = sorted(xs)
    k = max(0, min(len(s) - 1, int(-(-q * len(s) // 100)) - 1))
    return s[k]
