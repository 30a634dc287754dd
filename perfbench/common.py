"""Helpers shared by the benchmark workloads: percentiles, failure
accounting, bound checks, memory sampling, leak checks and span tracing.

Nothing here imports the program under test, so the helpers can be unit
tested (``python3 -m pytest perfbench``) without building anything.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: Percentiles tried for a "tail" figure, highest first.  A percentile is
#: reported only when at least ``MIN_BEYOND`` samples lie beyond it.
TAIL_LADDER = (99.0, 90.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """The highest percentile in :data:`TAIL_LADDER` with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or ``None``."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) >= MIN_BEYOND * 100.0:
            return p
    return None


def percentile(samples, p: float) -> float:
    """Linear-interpolated percentile of ``samples`` (numpy's default)."""
    return float(np.percentile(np.asarray(samples, dtype=np.float64), p))


def chunks(samples, size: int) -> list[list]:
    """Consecutive chunks of ``size`` samples; the last one takes the
    remainder (so every chunk has at least ``size`` samples).  Fewer than
    ``size`` samples make one chunk."""
    samples = list(samples)
    n = max(1, len(samples) // size)
    cuts = [i * size for i in range(n)] + [len(samples)]
    return [samples[a:b] for a, b in zip(cuts, cuts[1:])]


def tail(samples) -> tuple[float, float]:
    """``(p, value)``: the tail percentile the sample count supports.

    The samples, in the order they were taken, are cut into chunks just
    big enough to keep ten samples beyond ``p`` (1,000 for p99, 100 for
    p90, 20 for p50), and the median of the chunks' percentiles is
    returned, so one slow stretch of a noisy host moves one chunk, not the
    figure.  When even the median has fewer than ten samples beyond it the
    median of all samples is returned; the caller prints the label.
    """
    p = tail_percentile(len(samples))
    p = 50.0 if p is None else p
    size = int(round(MIN_BEYOND * 100.0 / (100.0 - p)))
    return p, median(percentile(c, p) for c in chunks(samples, size))


def chunk_rate(durations, units_per_op: float, size: int) -> float:
    """Median over consecutive chunks of ``size`` ops of units per second."""
    return median(units_per_op * len(c) / sum(c) for c in chunks(durations, size))


def tail_aliases(labels: dict, metrics: dict, names: dict) -> list:
    """Earlier ``<op>_p<N>_ms`` names of ``<role>_tail_ms`` metrics;
    none when the tail fell back to the median (``<op>_p50_ms`` covers it)."""
    out = []
    for role, op in names.items():
        p = labels[f"{role}_tail_ms"]
        if p != 50.0:
            out.append((f"{op}_p{p:g}_ms", metrics[f"{role}_tail_ms"], "ms"))
    return out


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# correctness accounting


def within_bound(expected: np.ndarray, got, eb: float) -> bool:
    """``|x - x̂| <= eb`` element-wise, with matching element counts."""
    got = np.asarray(got, dtype=np.float64).reshape(-1)
    expected = np.asarray(expected, dtype=np.float64).reshape(-1)
    if got.size != expected.size:
        return False
    if got.size == 0:
        return True
    return bool(np.max(np.abs(got - expected)) <= eb)


@dataclass
class Tally:
    """Operations attempted and failed.

    A failure is an exception (including a refused BUSY/DEADLINE reply) or
    a returned value outside the error bound.  Thread-safe.
    """

    attempted: int = 0
    failed: int = 0
    errors: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def ok(self, n: int = 1) -> None:
        with self._lock:
            self.attempted += n

    def fail(self, why: str, n: int = 1) -> None:
        with self._lock:
            self.attempted += n
            self.failed += n
            self.errors[why] = self.errors.get(why, 0) + n

    def check(self, expected, got, eb: float, what: str) -> bool:
        """Count one operation; it fails when ``got`` misses the bound."""
        good = within_bound(expected, got, eb)
        if good:
            self.ok()
        else:
            self.fail(f"{what}: value outside the error bound")
        return good

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ---------------------------------------------------------------------------
# processes and memory


def _proc_status(pid: int) -> dict:
    out = {}
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as fh:
            for line in fh:
                key, _, val = line.partition(":")
                out[key] = val.strip()
    except OSError:
        pass
    return out


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    state = _proc_status(pid).get("State", "")
    return bool(state) and not state.startswith(("Z", "X"))


def descendants(root: int | None = None) -> list[int]:
    """Live (non-zombie) descendant pids of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    parent: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # comm may contain spaces/parens: fields resume after the last ')'
        fields = stat[stat.rfind(")") + 2:].split()
        if fields and fields[0] not in ("Z", "X"):
            parent[int(name)] = int(fields[1])
    out, frontier = [], {root}
    while frontier:
        kids = {p for p, pp in parent.items() if pp in frontier}
        out.extend(sorted(kids))
        frontier = kids
    return out


def pss_mb(pid: int) -> float:
    """Proportional set size of ``pid`` in MB (0.0 once it has exited).

    PSS splits each shared page among the processes mapping it, so the sum
    over a parent and its forked workers counts copy-on-write pages once.
    """
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


class MemorySampler:
    """Peak memory of this process plus every process it started.

    A background thread sums the PSS of this process, its descendants and
    any extra pids registered with :meth:`watch` (detached processes the
    benchmark started, which leave the process tree) every ``interval_s``;
    :meth:`peak_mb` is the largest sum seen.
    """

    def __init__(self, interval_s: float = 0.25) -> None:
        self.interval_s = interval_s
        self._extra: set[int] = set()
        self._peak = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def watch(self, pid: int) -> None:
        self._extra.add(pid)

    def sample(self) -> float:
        pids = {os.getpid(), *descendants(), *self._extra}
        total = sum(pss_mb(p) for p in pids)
        self._peak = max(self._peak, total)
        return total

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "MemorySampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(5.0)

    def peak_mb(self) -> float:
        return self._peak


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _stop_resource_tracker() -> None:
    rt = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(rt, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


class LeakGuard:
    """Records what exists before a run and reports what the run left behind.

    After the run there must be no live child processes, no live pid from
    :meth:`watch`, no new ``/dev/shm`` segment and nothing left inside a
    dir registered with :meth:`own_dir`.  The runner points ``TMPDIR`` at
    such a dir and the workloads remove their own files from it, so
    anything still there is a temp file or dir that the program leaked.
    The caller removes the dir after :meth:`leaks`.
    """

    def __init__(self) -> None:
        self._shm_before = shm_segments()
        self._pids: set[int] = set()
        self._dirs: list[str] = []

    def watch(self, pid: int) -> None:
        self._pids.add(pid)

    def own_dir(self, path: str) -> None:
        self._dirs.append(path)

    def leaks(self, settle_s: float = 10.0) -> list[str]:
        """Leak descriptions; waits up to ``settle_s`` for exits to land.

        Shared memory is checked first; then the standard library's
        multiprocessing resource tracker, a helper child that otherwise
        lives until the interpreter exits, is stopped so that it does not
        count as a left-over child.
        """
        deadline = time.monotonic() + settle_s
        while True:
            new_shm = sorted(shm_segments() - self._shm_before)
            if not new_shm or time.monotonic() > deadline:
                break
            time.sleep(0.1)
        _stop_resource_tracker()
        while True:
            kids = descendants()
            stray = sorted(p for p in self._pids if alive(p))
            if not (kids or stray) or time.monotonic() > deadline:
                break
            time.sleep(0.1)
        out = [f"child process {p} still running" for p in kids]
        out += [f"started process {p} still running" for p in stray]
        out += [f"/dev/shm segment {s} left behind" for s in new_shm]
        for d in self._dirs:
            left = sorted(os.listdir(d)) if os.path.isdir(d) else []
            out += [f"temp entry {os.path.join(d, n)} left behind" for n in left]
        return out


# ---------------------------------------------------------------------------
# tracing


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run_id: str
    thread: int


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    Each span has a name, the layer it belongs to, start and end times,
    its parent span (the enclosing span on the same thread) and the run
    id.  Spans stay in memory until :meth:`write` dumps them as JSON lines.
    A layer's self time is its spans' durations minus the time covered by
    their child spans.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append(
                Span(name, layer, time.perf_counter(), 0.0, parent,
                     self.run_id, threading.get_ident())
            )
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            self.spans[idx].end = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.layer] = out.get(s.layer, 0.0) + max(0.0, s.end - s.start - c)
        return out

    def shares(self, layers) -> dict[str, float]:
        """Each layer's share of all self time (0.0 for absent layers)."""
        st = self.self_times()
        total = sum(st.values()) or 1.0
        return {layer: st.get(layer, 0.0) / total for layer in layers}

    def wrap_codec(self, codec):
        """``codec`` with a ``core`` span around every compress/decompress."""
        return TracedCodec(codec, self)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer,
                    "start": s.start, "end": s.end, "parent": s.parent,
                    "run_id": s.run_id, "thread": s.thread,
                }) + "\n")


class NullTracer:
    """The untraced stand-in: spans cost one no-op context manager, and
    codecs are used as they are."""

    _null = contextlib.nullcontext()

    def span(self, name: str, layer: str):
        return self._null

    def wrap_codec(self, codec):
        return codec


class TracedCodec:
    """A codec that records a ``core`` span around each ``compress`` and
    ``decompress`` call it passes on; every other attribute is the wrapped
    codec's.  The store takes its codec as an argument, so this splits the
    codec's time out of the ``pipeline`` calls without touching the program.
    """

    def __init__(self, codec, tracer: Tracer) -> None:
        self._codec = codec
        self._tracer = tracer

    def compress(self, *args, **kwargs):
        with self._tracer.span("codec.compress", "core"):
            return self._codec.compress(*args, **kwargs)

    def decompress(self, *args, **kwargs):
        with self._tracer.span("codec.decompress", "core"):
            return self._codec.decompress(*args, **kwargs)

    def reshaped(self, dims) -> "TracedCodec":
        return TracedCodec(self._codec.reshaped(dims), self._tracer)

    def __getattr__(self, name):
        return getattr(self._codec, name)


@dataclass
class Outcome:
    """What a workload measured.

    ``metrics`` holds the end-to-end figures (``peak_rss_mb`` is added by
    the runner), ``per_layer`` the traced-run figures, ``aliases`` the
    earlier names of workload-specific figures as ``(name, value,
    unit)``, ``info`` the run inputs, and ``labels`` the percentile behind
    each ``*_tail_ms`` metric.
    """

    metrics: dict
    per_layer: dict
    aliases: list
    info: dict
    labels: dict
