"""Compressed ERI store: compute once, decompress per use — now spillable.

The paper's closing observation (§III-A, Fig. 11): with PaSTRI's ratios,
compressed ERIs for moderate systems *fit in memory*, so every SCF
iteration after the first replaces an O(N⁴) recomputation with a ~GB/s
decompression.  :class:`CompressedERIStore` is that infrastructure piece: a
keyed store of compressed shell blocks with exact-bound reconstruction.

Storage is pluggable.  :class:`MemoryBackend` (default) keeps every blob in
a dict — the original behavior.  :class:`ContainerBackend` keeps a bounded
hot set in memory and spills colder blobs to a PSTF-v2 container on disk
(:mod:`repro.streamio`), so stores larger than RAM keep working; its spill
file finalizes into a valid container on close.

The read path is built for SCF/MP2 traffic, which re-reads far more blocks
than fit in memory and interleaves the reuse with one-off full scans:

* Both the blob tier and the decompressed array tier are
  :class:`repro.pipeline.cache.SegmentedCache` instances — scan-resistant
  windowed SLRUs with frequency-gated admission, budgeted in **bytes**
  with independent budgets (``memory_budget_bytes`` for blobs,
  ``hot_cache_bytes`` for arrays).
* Spilled blobs keep their on-disk frame record when promoted back into
  memory, so evicting a clean blob is free — the pre-overhaul store
  deleted the record on promote and re-spilled (with a flush and a
  journal write) on every eviction, which is what held amortized store
  throughput to ~29 MB/s.  Dirty blobs spill in batches: one data flush
  and one journal write per batch, not per frame.
* Spilled-frame reads are served zero-copy from an mmap of the container
  (:class:`repro.streamio.FrameMap`) — CRC-checked views of the page
  cache instead of seek+read copies.
* On an array-tier miss the store can read ahead: likely-next keys (from
  a per-key access-sequence profile, falling back to class-adjacent
  neighbors) are decoded speculatively into the admission window.
* Overwritten keys orphan their old frames; :meth:`ContainerBackend.compact`
  rewrites the container with only live frames using the same atomic
  create-then-rename commit as :meth:`CompressedERIStore.save`, and
  :meth:`maybe_compact` makes that an idle-time call.

All traffic is accounted in :class:`StoreStats` (per-tier hits/misses/
evictions, readahead accuracy, and compaction work included), and any
store can be persisted with :meth:`CompressedERIStore.save` and revived —
codec and error bound included — with :meth:`CompressedERIStore.load`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import threading
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.api import Codec
from repro.errors import ChecksumError, FormatError, ParameterError, ReproError
from repro.pipeline.cache import SegmentedCache
from repro.streamio import (
    ContainerWriter,
    FrameInfo,
    FrameMap,
    open_container,
    walk_frames,
)
from repro.streamio import _read_header_info as _container_header_info
from repro.telemetry import REGISTRY as _METRICS
from repro.telemetry import state as _tstate

__all__ = [
    "StoreStats",
    "MemoryBackend",
    "ContainerBackend",
    "CompressedERIStore",
]

#: telemetry names for counters whose dotted path differs from the field name
_METRIC_NAMES = {
    "readahead_issued": "store.readahead.issued",
    "readahead_useful": "store.readahead.useful",
    "readahead_wasted": "store.readahead.wasted",
    "compactions": "store.compaction.runs",
    "compaction_reclaimed_bytes": "store.compaction.reclaimed_bytes",
    "blob_hits": "store.tier.blob.hits",
    "blob_misses": "store.tier.blob.misses",
    "blob_evictions": "store.tier.blob.evictions",
    "array_evictions": "store.tier.array.evictions",
}

#: per-key cap on tracked successors in the access-sequence profile
_PROFILE_FANOUT = 8
#: hard cap on profiled keys; beyond it the profile restarts from empty
_PROFILE_MAX_KEYS = 65536


@dataclass
class StoreStats:
    """Aggregate accounting for a :class:`CompressedERIStore`.

    The public fields are per-store, as they always were.  Mutations made
    through :meth:`bump` are *also* mirrored into the global telemetry
    registry (``store.<field>``, or the dotted name in ``_METRIC_NAMES``
    for the tiered counters, e.g. ``store.readahead.issued``) when
    telemetry is enabled, so a process-wide snapshot aggregates traffic
    across every live store while this object keeps serving per-store
    numbers.  Direct assignment (e.g. the ``load`` path's
    ``stats.puts = 0`` or the ``hot_bytes`` gauge) only touches the
    per-store value — the global registry is an append-only ledger.
    """

    n_entries: int = 0
    original_bytes: int = 0
    compressed_bytes: int = 0
    puts: int = 0
    gets: int = 0
    #: hot decompressed-block cache traffic (only moves when the cache is on)
    cache_hits: int = 0
    cache_misses: int = 0
    #: blobs written to the spill container (ContainerBackend only)
    spills: int = 0
    #: blob reads served from the spill container rather than memory
    disk_reads: int = 0
    #: entries salvaged from a pre-existing spill container on open
    recovered: int = 0
    #: decompressed bytes currently held by the hot array tier (a gauge,
    #: assigned directly — not a counter)
    hot_bytes: int = 0
    #: in-memory blob tier traffic (ContainerBackend only)
    blob_hits: int = 0
    blob_misses: int = 0
    blob_evictions: int = 0
    #: decompressed-tier capacity departures
    array_evictions: int = 0
    #: speculative decodes issued / later hit / evicted unused
    readahead_issued: int = 0
    readahead_useful: int = 0
    readahead_wasted: int = 0
    #: spill-container compaction runs and bytes given back to the filesystem
    compactions: int = 0
    compaction_reclaimed_bytes: int = 0
    #: per-key access-sequence profile driving readahead: key -> {next: count}
    seq_profile: dict = field(default_factory=dict, repr=False, compare=False)

    def bump(self, field_name: str, delta: int = 1) -> None:
        """Add ``delta`` to a counter field, mirroring it into telemetry."""
        setattr(self, field_name, getattr(self, field_name) + delta)
        if _tstate.enabled:
            metric = _METRIC_NAMES.get(field_name, "store." + field_name)
            _METRICS.counter(metric).add(delta)

    @property
    def ratio(self) -> float:
        """Compression ratio, or 0.0 for a store that holds no bytes yet."""
        if self.compressed_bytes == 0:
            return 0.0
        return self.original_bytes / self.compressed_bytes

    @property
    def hit_rate(self) -> float:
        """Hot-cache hit fraction, or 0.0 before any cached traffic."""
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    @property
    def readahead_accuracy(self) -> float:
        """Fraction of issued prefetches that were later hit (0.0 if none)."""
        if self.readahead_issued == 0:
            return 0.0
        return self.readahead_useful / self.readahead_issued


@dataclass(frozen=True)
class _Entry:
    """One stored blob plus the metadata save/load must preserve."""

    blob: bytes
    nbytes: int
    dims: tuple[int, ...] | None


class MemoryBackend:
    """Blob backend holding everything in a dict (the original store)."""

    def __init__(self) -> None:
        self._entries: dict = {}
        self.stats: StoreStats | None = None  # bound by the store

    def put(self, key, entry: _Entry) -> tuple[int, int] | None:
        """Insert/overwrite; returns the replaced entry's
        ``(compressed_len, nbytes)`` for accounting, or ``None``."""
        prev = self._entries.get(key)
        self._entries[key] = entry
        if prev is None:
            return None
        return (len(prev.blob), prev.nbytes)

    def get(self, key) -> _Entry:
        return self._entries[key]

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self):
        return self._entries.keys()

    def close(self) -> None:
        """Nothing to release."""


class ContainerBackend:
    """Blob backend with a bounded hot set that spills to a PSTF container.

    Blobs live in an in-memory scan-resistant cache (a
    :class:`SegmentedCache`) up to ``memory_budget_bytes``; entries the
    cache lets go are appended to the spill container at ``path``
    (``stats.spills``) in batches — one data flush and one journal write
    per batch.  Reads of spilled keys are CRC-verified zero-copy views of
    an mmap over the container (``stats.disk_reads``) and re-promote the
    blob to the hot set **without forgetting the on-disk frame**: a clean
    blob's later eviction is a free drop, not a re-spill.

    Overwriting a key orphans its old frame (append-only spill); the dead
    bytes are tracked and :meth:`compact` / :meth:`maybe_compact` rewrite
    the container with only live frames via the same atomic
    create-then-rename commit used by store snapshots.  :meth:`close`
    flushes every dirty blob and finalizes the footer index, so the spill
    file is itself a valid container readable by
    :func:`repro.streamio.open_container`.

    **Crash safety.**  Every spilled frame is also logged to an append-only
    sidecar journal (``path + ".journal"``, one JSON line per frame: key,
    offset, length, CRC, dims) that is flushed with its batch and deleted
    on a clean close.  With ``recover=True`` (default) a backend pointed at
    an existing spill file *recovers* it instead of truncating it: a valid
    (footered) container is reloaded from its index; a footerless one —
    the writer was killed mid-run — is salvaged frame-by-frame and re-keyed
    from the journal.  Recovered entries land in the on-disk set, append
    continues after the last intact frame, and ``stats.recovered`` counts
    them, so a restarted ``pastri serve`` comes back with its data.
    Compaction is kill-safe at every step: the replacement container is
    footered *before* it atomically replaces the old one, and the journal
    is rewritten *before* the footer is truncated for resumed appends, so
    any crash point leaves either a self-describing container or a
    salvageable journal+frames pair.
    """

    def __init__(
        self,
        path: str,
        memory_budget_bytes: int = 64 << 20,
        *,
        recover: bool = True,
        fsync: bool = False,
    ) -> None:
        if memory_budget_bytes < 0:
            raise ParameterError("memory_budget_bytes must be >= 0")
        self.path = str(path)
        self.journal_path = self.path + ".journal"
        self.memory_budget_bytes = int(memory_budget_bytes)
        self.stats: StoreStats | None = None  # bound by the store
        self._recover = bool(recover)
        self._fsync = bool(fsync)
        self._hot = SegmentedCache(
            self.memory_budget_bytes,
            sizeof=lambda e: len(e.blob),
            on_discard=self._on_blob_discard,
        )
        #: key -> (frame offset, length, crc, dims, nbytes): every key with a
        #: clean copy on disk (possibly *also* resident in the hot cache)
        self._ondisk: dict = {}
        #: dirty entries the cache discarded, awaiting one batched spill
        self._pending: list = []
        self._dead_bytes = 0  # orphaned frame payload awaiting compaction
        self._writer: ContainerWriter | None = None
        self._write_fh = None
        self._map: FrameMap | None = None
        self._journal_fh = None
        self._codec: Codec | None = None
        self._error_bound: float | None = None
        self._closed = False
        #: test hook: called with a stage name at each compaction kill point
        self._compact_hook = None

    def bind(self, codec: Codec, error_bound: float, stats: StoreStats) -> None:
        """Called once by the owning store; spill headers need the codec spec.

        Recovery of a pre-existing spill file happens here (not in
        ``__init__``) because registering salvaged entries needs the bound
        stats object.
        """
        self._codec = codec
        self._error_bound = error_bound
        self.stats = stats
        if self._recover:
            self._recover_existing()

    # -- spill machinery -----------------------------------------------------

    def _ensure_writer(self) -> ContainerWriter:
        if self._writer is None:
            if self._codec is None:
                raise ParameterError("ContainerBackend used outside a store")
            if self._ondisk:
                # live frames but no writer (e.g. an aborted compaction):
                # reattach to the existing file instead of truncating it
                self._resume_writer_from_ondisk()
                return self._writer
            # fresh container: a journal left by an earlier life of this
            # path describes bytes that are about to be truncated away
            with contextlib.suppress(OSError):
                os.remove(self.journal_path)
            self._write_fh = open(self.path, "wb")
            self._writer = ContainerWriter(
                self._write_fh,
                self._codec,
                self._error_bound,
                meta={"error_bound": self._error_bound, "role": "eri-store-spill"},
                fsync=self._fsync,
            )
        return self._writer

    def _frame_infos_from_ondisk(self) -> dict:
        """Rebuild ``key -> FrameInfo`` from the live on-disk records."""
        return {
            key: FrameInfo(
                offset, length, nbytes // 8, crc, json.dumps(key), dims
            )
            for key, (offset, length, crc, dims, nbytes) in self._ondisk.items()
        }

    def _resume_writer_from_ondisk(self) -> None:
        """Reattach a writer to the spill file from the in-memory records."""
        live = self._frame_infos_from_ondisk()
        fh = open(self.path, "r+b")
        _container_header_info(fh)
        end = fh.tell()
        for f in live.values():
            end = max(end, f.offset + f.length)
        fh.truncate(end)  # drop any footer so appends continue cleanly
        fh.seek(end)
        self._write_fh = fh
        self._writer = ContainerWriter.resume(
            fh,
            self._codec,
            self._error_bound,
            frames=live.values(),
            pos=end,
            fsync=self._fsync,
        )

    def _on_blob_discard(self, key, entry: _Entry) -> None:
        """Cache departure: free drop for clean blobs, spill queue for dirty."""
        if self.stats is not None:
            self.stats.bump("blob_evictions")
        if key not in self._ondisk:
            self._pending.append((key, entry))

    def _flush_pending(self) -> None:
        """Write every queued dirty blob: frames, one flush, one journal write.

        The data flush lands before the journal records (a journaled frame
        must be readable), and the in-memory records are updated only after
        both — a crash mid-batch loses at most the in-flight dirty blobs,
        exactly as a crash just before the batch would have.
        """
        if not self._pending:
            return
        w = self._ensure_writer()
        spilled: list = []
        for key, entry in self._pending:
            info = w.append_blob(
                entry.blob, entry.nbytes // 8, key=json.dumps(key), dims=entry.dims
            )
            spilled.append((key, info, entry))
        self._pending.clear()
        self._write_fh.flush()
        self._journal_write_batch(
            (key, info, entry.nbytes) for key, info, entry in spilled
        )
        for key, info, entry in spilled:
            self._ondisk[key] = (
                info.offset, info.length, info.crc32, entry.dims, entry.nbytes
            )
            if self.stats is not None:
                self.stats.bump("spills")

    def _journal_write_batch(self, records) -> None:
        """Append a batch of spill records with a single write + flush."""
        lines = []
        for key, info, nbytes in records:
            lines.append(json.dumps({
                "key": key,
                "offset": info.offset,
                "length": info.length,
                "crc": info.crc32,
                "dims": None if info.dims is None else list(info.dims),
                "nbytes": int(nbytes),
            }, separators=(",", ":")) + "\n")
        if not lines:
            return
        if self._journal_fh is None:
            self._journal_fh = open(self.journal_path, "a", encoding="utf-8")
        self._journal_fh.write("".join(lines))
        self._journal_fh.flush()

    def _read_spilled(self, key) -> _Entry:
        """Zero-copy CRC-checked view of one spilled frame's payload."""
        offset, length, crc, dims, nbytes = self._ondisk[key]
        if self._map is None:
            self._map = FrameMap(self.path)
        try:
            blob = self._map.check(offset, length, crc)
        except ChecksumError:
            raise ChecksumError(
                f"spill container CRC mismatch for key {key!r}"
            ) from None
        except FormatError:
            raise FormatError(
                f"spill container truncated at frame for key {key!r}"
            ) from None
        if self.stats is not None:
            self.stats.bump("disk_reads")
        return _Entry(blob, nbytes, dims)

    # -- compaction -----------------------------------------------------------

    def _kill_point(self, stage: str) -> None:
        if self._compact_hook is not None:
            self._compact_hook(stage)

    def compact(self) -> int:
        """Rewrite the spill container with only live frames; returns bytes
        given back to the filesystem.

        Kill-safe sequence (each step leaves a recoverable state):

        1. The replacement container is written to ``path + ".tmp"`` and
           **footered** before ``os.replace`` makes it visible — a crash
           before the rename leaves the old container + journal untouched;
           after it, the new container recovers from its own index and the
           (stale) journal is ignored.
        2. The journal is rewritten for the new layout *before* the footer
           is truncated for resumed appends — a footerless crash after
           that salvages via the fresh journal.
        """
        self._flush_pending()
        if not self._ondisk:
            return 0
        self._kill_point("begin")
        try:
            old_size = os.path.getsize(self.path)
        except OSError:
            return 0
        live_items = list(self._ondisk.items())
        new_infos: dict = {}
        with open(self.path, "rb") as src:
            with ContainerWriter.create(
                self.path,
                self._codec,
                self._error_bound,
                meta={
                    "error_bound": self._error_bound,
                    "role": "eri-store-spill",
                },
            ) as w:
                for i, (key, (offset, length, crc, dims, nbytes)) in enumerate(
                    live_items
                ):
                    src.seek(offset)
                    blob = src.read(length)
                    if len(blob) != length or zlib.crc32(blob) & 0xFFFFFFFF != crc:
                        raise ChecksumError(
                            f"spill frame for key {key!r} corrupt during compaction"
                        )
                    info = w.append_blob(
                        blob, nbytes // 8, key=json.dumps(key), dims=dims
                    )
                    new_infos[key] = (info, nbytes)
                    if i == 0:
                        self._kill_point("mid_copy")
        # the old inode is gone; drop every handle that pointed at it
        self._kill_point("after_replace")
        if self._write_fh is not None:
            self._write_fh.close()
            self._write_fh = None
        self._writer = None
        if self._map is not None:
            self._map.invalidate()
        self._ondisk = {
            key: (info.offset, info.length, info.crc32, info.dims, nbytes)
            for key, (info, nbytes) in new_infos.items()
        }
        self._dead_bytes = 0
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None
        self._rewrite_journal({key: info for key, (info, nbytes) in new_infos.items()})
        self._kill_point("after_journal")
        self._resume_writer_from_ondisk()
        self._kill_point("after_resume")
        try:
            reclaimed = max(0, old_size - os.path.getsize(self.path))
        except OSError:  # pragma: no cover - file must exist post-rename
            reclaimed = 0
        if self.stats is not None:
            self.stats.bump("compactions")
            self.stats.bump("compaction_reclaimed_bytes", reclaimed)
        return reclaimed

    def maybe_compact(
        self,
        *,
        min_dead_bytes: int = 1 << 16,
        min_dead_fraction: float = 0.5,
    ) -> int:
        """Compact only when enough of the container is orphaned frames.

        Meant for idle moments (the service calls it between batches).
        Returns the bytes reclaimed, or 0 when the thresholds say the
        rewrite is not worth the I/O yet.
        """
        if self._dead_bytes < min_dead_bytes:
            return 0
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return 0
        if size <= 0 or self._dead_bytes < min_dead_fraction * size:
            return 0
        return self.compact()

    # -- crash recovery -------------------------------------------------------

    def _recover_existing(self) -> None:
        """Revive spilled entries from a pre-existing spill file, if any.

        Valid container → reload from the footer index.  Footerless
        (crashed writer) → structural salvage + journal join.  A file whose
        very header is torn holds nothing locatable; it is left for
        :func:`_ensure_writer` to truncate.  Either way the survivors'
        frames seed a resumed writer so the eventual clean close writes a
        footer covering them.
        """
        try:
            if os.path.getsize(self.path) == 0:
                return
        except OSError:
            return  # no spill file: a genuinely fresh backend
        live: dict = {}  # key -> FrameInfo (last write wins)
        try:
            with open_container(self.path) as r:
                end_of_frames = r.data_start
                for f in r.frames:
                    end_of_frames = max(end_of_frames, f.offset + f.length)
                    if f.key is not None:
                        live[_revive_key(json.loads(f.key))] = f
        except ReproError:
            live, end_of_frames = self._salvage_unfooted()
            if end_of_frames is None:
                return
        fh = open(self.path, "r+b")
        fh.truncate(end_of_frames)  # drop the stale footer / torn tail
        fh.seek(end_of_frames)
        self._write_fh = fh
        self._writer = ContainerWriter.resume(
            fh,
            self._codec,
            self._error_bound,
            frames=live.values(),
            pos=end_of_frames,
            fsync=self._fsync,
        )
        for key, f in live.items():
            self._ondisk[key] = (
                f.offset, f.length, f.crc32, f.dims, f.n_elements * 8
            )
            if self.stats is not None:
                self.stats.bump("n_entries")
                self.stats.bump("original_bytes", f.n_elements * 8)
                self.stats.bump("compressed_bytes", f.length)
                self.stats.bump("recovered")
        self._rewrite_journal(live)

    def _rewrite_journal(self, live: dict) -> None:
        """Replace the journal with exactly the surviving entries.

        Appending after a crash (or a compaction) must start from a clean
        file: the old journal may end in a torn line (which would corrupt
        the next record) or reference frames that no longer exist.  Written
        via temp-file + rename so a crash here cannot lose the old journal
        before the new one is complete.
        """
        if not live:
            with contextlib.suppress(OSError):
                os.remove(self.journal_path)
            return
        tmp = self.journal_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for key, f in live.items():
                fh.write(json.dumps({
                    "key": key,
                    "offset": f.offset,
                    "length": f.length,
                    "crc": f.crc32,
                    "dims": None if f.dims is None else list(f.dims),
                    "nbytes": f.n_elements * 8,
                }, separators=(",", ":")) + "\n")
            fh.flush()
        os.replace(tmp, self.journal_path)

    def _salvage_unfooted(self) -> tuple[dict, int | None]:
        """Salvage a footerless spill: walk intact frames, re-key via journal."""
        with open(self.path, "rb") as fh:
            try:
                _container_header_info(fh)
            except ReproError:
                return {}, None  # torn header: nothing locatable
            data_start = fh.tell()
            file_size = fh.seek(0, io.SEEK_END)
            walk = walk_frames(fh, data_start, file_size)
            complete = set(walk.frames)
            live: dict = {}
            for rec in self._read_journal():
                try:
                    offset, length = int(rec["offset"]), int(rec["length"])
                    crc, nbytes = int(rec["crc"]), int(rec["nbytes"])
                    key = _revive_key(rec["key"])
                    dims = rec.get("dims")
                except (KeyError, TypeError, ValueError):
                    continue  # malformed record; skip it
                if (offset, length) not in complete:
                    continue  # frame fell in the torn tail
                fh.seek(offset)
                blob = fh.read(length)
                if len(blob) != length or zlib.crc32(blob) & 0xFFFFFFFF != crc:
                    continue  # payload no longer matches what was logged
                live[key] = FrameInfo(
                    offset, length, nbytes // 8, crc,
                    json.dumps(key),
                    None if dims is None else tuple(int(d) for d in dims),
                )
            return live, walk.end_of_frames

    def _read_journal(self) -> list[dict]:
        """Parse the sidecar journal, tolerating a torn final line."""
        try:
            fh = open(self.journal_path, encoding="utf-8")
        except OSError:
            return []
        out: list[dict] = []
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    break  # torn tail write; everything before it is good
                if isinstance(rec, dict):
                    out.append(rec)
        return out

    # -- backend interface ----------------------------------------------------

    def put(self, key, entry: _Entry) -> tuple[int, int] | None:
        """Insert/overwrite; returns the replaced entry's
        ``(compressed_len, nbytes)`` without touching the disk."""
        prev = None
        dropped = self._hot.pop(key)
        if dropped is not None:
            prev = (len(dropped.blob), dropped.nbytes)
        rec = self._ondisk.pop(key, None)
        if rec is not None:
            self._dead_bytes += rec[1]  # old frame is orphaned
            if prev is None:
                prev = (rec[1], rec[4])
        self._hot.put(key, entry, sticky=True)  # dirty: must reach disk
        self._flush_pending()
        return prev

    def get(self, key) -> _Entry:
        entry = self._hot.get(key)
        if entry is not None:
            if self.stats is not None:
                self.stats.bump("blob_hits")
            return entry
        if self.stats is not None and (key in self._ondisk):
            self.stats.bump("blob_misses")
        entry = self._read_spilled(key)  # KeyError for unknown keys
        self._hot.put(key, entry)  # clean: on-disk record retained
        self._flush_pending()
        return entry

    def __contains__(self, key) -> bool:
        return key in self._hot or key in self._ondisk

    def __len__(self) -> int:
        extra = sum(1 for k in self._hot.keys() if k not in self._ondisk)
        return len(self._ondisk) + extra

    def keys(self):
        seen = dict.fromkeys(self._hot.keys())
        seen.update(dict.fromkeys(self._ondisk))
        return list(seen)

    def close(self) -> None:
        """Flush all dirty blobs and finalize the spill container's footer.

        Clean blobs (already on disk) are simply dropped.  A footer that
        reached the disk supersedes the journal, which is removed — after a
        clean close the spill file alone is the durable, self-describing
        record (readable by ``open_container`` and recoverable from its own
        index on the next open).
        """
        if self._closed:
            return
        self._closed = True
        for key in list(self._hot.keys()):
            entry = self._hot.pop(key)
            if key not in self._ondisk:
                self._pending.append((key, entry))
        footered = False
        if self._pending or self._writer is not None:
            self._flush_pending()
            self._writer.close()
            footered = True
        if self._write_fh is not None:
            self._write_fh.close()
        if self._map is not None:
            self._map.close()
            self._map = None
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None
        if footered:
            with contextlib.suppress(OSError):
                os.remove(self.journal_path)

    def abort(self) -> None:
        """Crash simulation: release descriptors, persist *nothing* new.

        No pending spill flush, no container footer, no journal removal —
        the disk keeps exactly what earlier batched flushes wrote, i.e.
        the footerless-container + journal state a killed process leaves.
        Dirty hot-tier entries die with the process; a successor backend
        over the same path recovers the spilled subset via the salvage
        path (``recover=True``), which is the point of the exercise.
        """
        if self._closed:
            return
        self._closed = True
        self._pending.clear()
        self._writer = None
        for fh in (self._write_fh, self._journal_fh):
            if fh is not None:
                with contextlib.suppress(OSError, ValueError):
                    fh.close()
        self._write_fh = self._journal_fh = None
        if self._map is not None:
            with contextlib.suppress(OSError, ValueError):
                self._map.close()
            self._map = None


@dataclass
class CompressedERIStore:
    """Keyed store of compressed ERI blocks.

    Keys are arbitrary hashables (canonically shell-quartet tuples); for
    :meth:`save`/:meth:`load` round-trips they must be JSON-serializable
    (tuples are preserved).

    Examples
    --------
    >>> store = CompressedERIStore(codec, error_bound=1e-10)
    >>> store.put((0, 1, 2, 3), block)
    >>> again = store.get((0, 1, 2, 3))   # |again - block| <= 1e-10

    Spillable variant (bounded memory, disk-backed, with a byte-budgeted
    decompressed tier and sequence-profile readahead):

    >>> backend = ContainerBackend("eris.pstf", memory_budget_bytes=256 << 20)
    >>> store = CompressedERIStore(
    ...     codec, 1e-10, backend=backend,
    ...     hot_cache_bytes=64 << 20, readahead_depth=2,
    ... )

    ``hot_cache_bytes`` budgets the decompressed tier in bytes (the right
    unit — d-quartet blocks are orders of magnitude bigger than s-quartet
    blocks); the legacy ``hot_cache_blocks`` entry-count cap still works
    when no byte budget is given.  Either way the tier is scan-resistant
    (:class:`SegmentedCache`), so one full sweep — a ``save``, an fsck, a
    cold MP2 transform — cannot flush the SCF working set.

    The store is **thread-safe**: one reentrant lock serializes backend
    mutations, cache updates, and stats bumps.  Decompression of a missed
    block runs *outside* the lock under a single-flight guard — concurrent
    readers of the same key wait on the one in-flight decode instead of
    repeating it, and readers of different keys decode in parallel.
    """

    codec: Codec
    error_bound: float
    backend: MemoryBackend | ContainerBackend | None = None
    #: max decompressed blocks kept hot (legacy entry-count budget;
    #: ignored when ``hot_cache_bytes`` is set; 0 disables the array cache)
    hot_cache_blocks: int = 0
    #: decompressed-tier budget in bytes (preferred; 0 defers to blocks)
    hot_cache_bytes: int = 0
    #: keys to speculatively decode after an array-tier miss (0 = off)
    readahead_depth: int = 0
    _shaped: dict = field(default_factory=dict, repr=False)
    stats: StoreStats = field(default_factory=StoreStats)
    _hot_arrays: SegmentedCache | None = field(default=None, repr=False)
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)

    def __post_init__(self) -> None:
        if self.backend is None:
            self.backend = MemoryBackend()
        if self.hot_cache_bytes > 0:
            self._hot_arrays = SegmentedCache(
                self.hot_cache_bytes,
                sizeof=lambda a: a.nbytes,
                on_discard=self._on_array_discard,
            )
        elif self.hot_cache_blocks > 0:
            self._hot_arrays = SegmentedCache(
                self.hot_cache_blocks,
                sizeof=lambda a: 1,
                on_discard=self._on_array_discard,
            )
        else:
            self._hot_arrays = None
        self._cond = threading.Condition(self._lock)
        self._decoding: set = set()  # keys with a decode in flight
        self._decode_stale: set = set()  # overwritten while decoding
        self._computing: set = set()  # keys with a get_or_compute in flight
        self._hot_array_bytes = 0
        self._prefetched: set = set()  # readahead keys not yet hit
        self._last_key = None  # previous accessed key (sequence profile)
        bind = getattr(self.backend, "bind", None)
        if bind is not None:
            bind(self.codec, self.error_bound, self.stats)
        else:
            self.backend.stats = self.stats

    def codec_for(self, dims) -> Codec:
        """Per-geometry codec dispatch.

        ERI stores hold quartets of *different* shell classes; shape-aware
        codecs (PaSTRI, lowrank — anything with a ``reshaped`` method) are
        block-geometry specific, so when ``dims`` is given a per-shape
        instance is used (decompression is unaffected — their streams are
        self-describing).  Shape-independent codecs are shared as-is.  The
        compression service reuses this dispatch for its ``compress`` op.
        """
        reshaped = getattr(self.codec, "reshaped", None)
        if dims is None or reshaped is None:
            return self.codec
        dims = tuple(int(d) for d in dims)
        with self._lock:
            codec = self._shaped.get(dims)
            if codec is None:
                codec = reshaped(dims)
                self._shaped[dims] = codec
        return codec

    def put(self, key, block: np.ndarray, dims=None) -> None:
        """Compress and store one block (overwrites an existing key).

        ``dims`` optionally gives the block's 4-D shell geometry so PaSTRI
        uses the right sub-block split (see :meth:`codec_for`).
        """
        blob = self.codec_for(dims).compress(block, self.error_bound)
        dims_t = None if dims is None else tuple(int(d) for d in dims)
        self._put_blob(key, blob, block.nbytes, dims_t)

    def put_blob(self, key, blob: bytes, nbytes: int, dims=None) -> None:
        """Insert an already-compressed blob verbatim (replica transfer).

        ``nbytes`` is the original (decompressed) byte size the blob
        decodes to.  The cluster's hinted-handoff drain moves blocks
        between shards with this + :meth:`get_blob` so a drained replica
        is **byte-identical** to its source — no lossy decode/re-encode
        cycle in the middle.
        """
        dims_t = None if dims is None else tuple(int(d) for d in dims)
        self._put_blob(key, bytes(blob), int(nbytes), dims_t)

    def get_blob(self, key) -> tuple[bytes, int, tuple[int, ...] | None]:
        """The raw compressed entry ``(blob, original_nbytes, dims)``.

        Raises ``KeyError`` for unknown keys; no decompression happens.
        """
        with self._lock:
            entry = self.backend.get(key)
        return entry.blob, entry.nbytes, entry.dims

    def _put_blob(self, key, blob: bytes, nbytes: int, dims) -> None:
        """Insert a ready-made blob (the load/restore path skips compression)."""
        with self._lock:
            prev = self.backend.put(key, _Entry(blob, nbytes, dims))
            if prev is not None:
                prev_len, prev_nbytes = prev
                self.stats.bump("compressed_bytes", -prev_len)
                self.stats.bump("original_bytes", -prev_nbytes)
                self.stats.bump("n_entries", -1)
            if self._hot_arrays is not None:
                dropped = self._hot_arrays.pop(key)
                if dropped is not None:
                    self._hot_array_bytes -= dropped.nbytes
                    self.stats.hot_bytes = self._hot_array_bytes
                self._prefetched.discard(key)
            if key in self._decoding:
                self._decode_stale.add(key)  # in-flight decode is now stale
            self.stats.bump("n_entries")
            self.stats.bump("puts")
            self.stats.bump("original_bytes", nbytes)
            self.stats.bump("compressed_bytes", len(blob))

    # -- array tier ------------------------------------------------------------

    def _on_array_discard(self, key, arr) -> None:
        self._hot_array_bytes -= arr.nbytes
        self.stats.hot_bytes = self._hot_array_bytes
        self.stats.bump("array_evictions")
        if key in self._prefetched:
            self._prefetched.discard(key)
            self.stats.bump("readahead_wasted")

    def _array_insert(self, key, arr) -> None:
        arr.setflags(write=False)  # cached arrays are shared; keep them frozen
        self._hot_array_bytes += arr.nbytes
        self._hot_arrays.put(key, arr)
        self.stats.hot_bytes = self._hot_array_bytes

    def _note_access(self, key) -> None:
        """Feed the per-key access-sequence profile that drives readahead."""
        prev = self._last_key
        self._last_key = key
        if prev is None or prev == key:
            return
        profile = self.stats.seq_profile
        if len(profile) > _PROFILE_MAX_KEYS:
            profile.clear()  # runaway key space; restart the profile
        succ = profile.setdefault(prev, {})
        if key in succ:
            succ[key] += 1
        elif len(succ) < _PROFILE_FANOUT:
            succ[key] = 1
        else:
            coldest = min(succ, key=succ.get)
            if succ[coldest] <= 1:
                del succ[coldest]
                succ[key] = 1

    def _class_adjacent(self, key):
        """Neighbor keys in the same shell class (canonical quartet layout).

        Quartet tuples share their class prefix and step in the final
        index; integer keys (flat block numbering) step directly.
        """
        for step in range(1, self.readahead_depth + 1):
            if isinstance(key, tuple) and key and isinstance(key[-1], int):
                yield key[:-1] + (key[-1] + step,)
            elif isinstance(key, int) and not isinstance(key, bool):
                yield key + step

    def _readahead_from(self, key) -> None:
        """Speculatively decode likely-next keys into the admission window.

        Candidates come from the access-sequence profile first (what
        actually followed this key before), then class-adjacent neighbors.
        Runs under the store lock on the miss path; each prefetched array
        lands in the cache's admission window, where it survives exactly
        long enough for the near-term access that justified it.
        """
        succ = self.stats.seq_profile.get(key, {})
        candidates = sorted(succ, key=succ.get, reverse=True)
        candidates.extend(self._class_adjacent(key))
        issued = 0
        seen = {key}
        for cand in candidates:
            if issued >= self.readahead_depth:
                break
            if cand in seen:
                continue
            seen.add(cand)
            if cand in self._decoding or cand in self._hot_arrays:
                continue
            if cand not in self.backend:
                continue
            entry = self.backend.get(cand)
            arr = self.codec.decompress(entry.blob)
            self._array_insert(cand, arr)
            self._prefetched.add(cand)
            self.stats.bump("readahead_issued")
            issued += 1

    def get(self, key) -> np.ndarray:
        """Decompress one block; raises KeyError for unknown keys.

        With the array tier enabled, a miss claims a single-flight decode
        slot and decompresses *outside* the lock: concurrent readers of the
        same key wait for the in-flight decode and then hit the cache,
        readers of other keys proceed in parallel.
        """
        with self._cond:
            self.stats.bump("gets")
            self._note_access(key)
            if self._hot_arrays is None:
                entry = self.backend.get(key)
                return self.codec.decompress(entry.blob)
            while True:
                hit = self._hot_arrays.get(key)
                if hit is not None:
                    self.stats.bump("cache_hits")
                    if key in self._prefetched:
                        self._prefetched.discard(key)
                        self.stats.bump("readahead_useful")
                    return hit
                if key not in self._decoding:
                    break
                self._cond.wait()
            self.stats.bump("cache_misses")
            entry = self.backend.get(key)  # KeyError for unknown keys
            self._decoding.add(key)
        out = None
        try:
            out = self.codec.decompress(entry.blob)
        finally:
            # one critical section: a reader woken here must find the array
            # already cached, never an unclaimed slot it would decode again
            with self._cond:
                self._cond.notify_all()
                self._decoding.discard(key)
                stale = key in self._decode_stale
                self._decode_stale.discard(key)
                if out is not None and not stale:  # stale: an overwrite raced
                    self._array_insert(key, out)
                    if self.readahead_depth > 0:
                        self._readahead_from(key)
        return out

    def get_or_compute(self, key, compute, dims=None) -> np.ndarray:
        """Fetch from the store, or compute, insert, and return.

        The returned array is always the *decompressed* value — including
        on the first, freshly-computed use — so a key yields bit-identical
        data on every access (the lossy roundtrip is never silently
        bypassed).  Computation is single-flight: under concurrent calls
        for the same missing key exactly one thread computes and inserts;
        the rest wait and then read the stored value.
        """
        claimed = False
        with self._cond:
            while True:
                if key in self.backend:
                    break
                if key not in self._computing:
                    self._computing.add(key)
                    claimed = True
                    break
                self._cond.wait()
        if not claimed:
            return self.get(key)
        try:
            block = np.asarray(compute(), dtype=np.float64)
            if block.ndim != 1:
                block = block.ravel()
            if block.size == 0:
                raise ParameterError("computed block is empty")
            self.put(key, block, dims=dims)
        finally:
            with self._cond:
                self._computing.discard(key)
                self._cond.notify_all()
        return self.get(key)

    # -- maintenance -----------------------------------------------------------

    def maybe_compact(self, **thresholds) -> int:
        """Idle-time spill-container compaction (no-op for MemoryBackend)."""
        fn = getattr(self.backend, "maybe_compact", None)
        if fn is None:
            return 0
        with self._lock:
            return fn(**thresholds)

    def compact(self) -> int:
        """Force spill-container compaction (no-op for MemoryBackend)."""
        fn = getattr(self.backend, "compact", None)
        if fn is None:
            return 0
        with self._lock:
            return fn()

    def format_cache_report(self) -> str:
        """Human-readable per-tier cache report (the ``pastri stats`` view)."""
        st = self.stats
        lines = ["cache report"]
        if self._hot_arrays is not None:
            c = self._hot_arrays
            unit = "B" if self.hot_cache_bytes > 0 else "blocks"
            lines.append(
                f"  array tier [2q]: {c.bytes}/{c.budget} {unit} "
                f"({len(c)} blocks, {st.hot_bytes} B decompressed)"
            )
            lines.append(
                f"    hits {st.cache_hits}  misses {st.cache_misses}  "
                f"hit-rate {st.hit_rate:.3f}  evictions {st.array_evictions}  "
                f"rejections {c.stats.rejections}"
            )
        else:
            lines.append("  array tier: disabled")
        hot = getattr(self.backend, "_hot", None)
        if isinstance(hot, SegmentedCache):
            lines.append(
                f"  blob tier [2q]: {hot.bytes}/{hot.budget} B "
                f"({len(hot)} blobs hot, "
                f"{len(getattr(self.backend, '_ondisk', {}))} frames on disk)"
            )
            lines.append(
                f"    hits {st.blob_hits}  disk reads {st.disk_reads}  "
                f"spills {st.spills}  evictions {st.blob_evictions}  "
                f"rejections {hot.stats.rejections}"
            )
            dead = getattr(self.backend, "_dead_bytes", 0)
            lines.append(
                f"    compactions {st.compactions}  "
                f"reclaimed {st.compaction_reclaimed_bytes} B  "
                f"dead {dead} B"
            )
        else:
            lines.append("  blob tier: in-memory (unbounded)")
        lines.append(
            f"  readahead: depth {self.readahead_depth}  "
            f"issued {st.readahead_issued}  useful {st.readahead_useful}  "
            f"wasted {st.readahead_wasted}  "
            f"accuracy {st.readahead_accuracy:.3f}"
        )
        return "\n".join(lines)

    # -- persistence -----------------------------------------------------------

    def save(self, path: str):
        """Write a compact v2 container snapshot of every entry.

        Frames are keyed with the JSON encoding of each store key and carry
        the entry's ``dims``; the header records the codec spec and error
        bound, so :meth:`load` needs nothing but the path.  Returns the
        :class:`repro.streamio.StreamSummary` of the written container.

        The snapshot is crash-safe: it is written to ``path + ".tmp"``,
        fsynced, and renamed into place on success — a failure (or kill)
        mid-save can never shadow or corrupt an existing snapshot at
        ``path``.  (The scan this performs cannot flush the working set:
        the blob tier's admission filter treats it as the one-time sweep
        it is.)
        """
        with self._lock:
            with ContainerWriter.create(
                str(path),
                self.codec,
                self.error_bound,
                meta={"error_bound": self.error_bound, "role": "eri-store"},
            ) as w:
                for key in self.backend.keys():
                    entry = self.backend.get(key)
                    w.append_blob(
                        entry.blob,
                        entry.nbytes // 8,
                        key=json.dumps(key),
                        dims=entry.dims,
                    )
        return w.summary

    @classmethod
    def load(
        cls,
        path: str,
        backend: MemoryBackend | ContainerBackend | None = None,
        hot_cache_blocks: int = 0,
        *,
        hot_cache_bytes: int = 0,
        readahead_depth: int = 0,
    ) -> "CompressedERIStore":
        """Revive a store from a :meth:`save` snapshot (or spill container).

        The codec is rebuilt from the container's codec spec and the error
        bound from its metadata — no caller knowledge needed.  List-valued
        JSON keys are restored as tuples (the canonical quartet keys).
        """
        with open_container(path) as r:
            eb = r.meta.get("error_bound")
            if eb is None:
                raise ParameterError(
                    f"{path!r} has no stored error bound; not a store snapshot?"
                )
            store = cls(
                r.codec,
                float(eb),
                backend=backend,
                hot_cache_blocks=hot_cache_blocks,
                hot_cache_bytes=hot_cache_bytes,
                readahead_depth=readahead_depth,
            )
            for i, f in enumerate(r.frames):
                if f.key is None:
                    raise ParameterError(f"frame {i} in {path!r} has no key")
                key = _revive_key(json.loads(f.key))
                store._put_blob(key, r.read_blob(i), f.n_elements * 8, f.dims)
        # a freshly loaded store has served no traffic yet
        store.stats.puts = 0
        return store

    def close(self) -> None:
        """Release backend resources (finalizes a spill container's footer)."""
        with self._lock:
            self.backend.close()

    def abort(self) -> None:
        """Crash simulation: drop everything unflushed, close descriptors.

        Delegates to :meth:`ContainerBackend.abort` when the backend has
        one; a memory backend simply closes (nothing is durable anyway).
        """
        with self._lock:
            aborter = getattr(self.backend, "abort", None)
            if aborter is not None:
                aborter()
            else:
                self.backend.close()

    def __enter__(self) -> "CompressedERIStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self.backend

    def __len__(self) -> int:
        with self._lock:
            return len(self.backend)

    def keys(self):
        with self._lock:
            return list(self.backend.keys())


def _revive_key(key):
    """JSON round-trips tuples as lists; restore hashability recursively."""
    if isinstance(key, list):
        return tuple(_revive_key(k) for k in key)
    return key
