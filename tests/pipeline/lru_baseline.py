"""The pre-overhaul spill backend, kept as the oracle the store is measured by.

Before the 2Q/mmap read path, :class:`repro.pipeline.ContainerBackend`
held its hot blobs in a plain LRU over the byte budget, forgot a spilled
frame as soon as it was read back (so every later eviction re-spilled it,
with one data flush and one journal line each), and served spilled reads
with CRC-checked seek+read.  :class:`LRUSpillBackend` reproduces exactly
that, duck-typed to the backend interface :class:`repro.pipeline.
CompressedERIStore` drives.  ``make store-bench-smoke`` and
``benchmarks/record.py`` run it as the A/B baseline; a cyclic sweep wider
than its budget reads every block from disk, which is the pathology the
gate's speedup and disk-read thresholds are measured against.
"""

from __future__ import annotations

import json
import os
import zlib
from collections import OrderedDict

from repro.errors import ChecksumError
from repro.pipeline.store import _Entry
from repro.streamio import ContainerWriter


class LRUSpillBackend:
    """Plain-LRU hot set over ``memory_budget_bytes``; spills to ``path``."""

    def __init__(self, path: str, memory_budget_bytes: int) -> None:
        self.path = str(path)
        self.budget = int(memory_budget_bytes)
        self._hot: OrderedDict = OrderedDict()  # key -> _Entry, oldest first
        self._hot_bytes = 0
        self._ondisk: dict = {}  # key -> (offset, length, crc, nbytes, dims)
        self._read_fh = None

    def bind(self, codec, error_bound, stats) -> None:
        self.stats = stats
        self._fh = open(self.path, "wb")
        self._writer = ContainerWriter(
            self._fh, codec, error_bound,
            meta={"error_bound": error_bound, "role": "eri-store-spill"},
        )
        self._journal = open(self.path + ".journal", "w", encoding="utf-8")

    def _admit(self, key, entry: _Entry) -> None:
        self._hot[key] = entry
        self._hot_bytes += len(entry.blob)
        while self._hot_bytes > self.budget and self._hot:
            old_key, old = self._hot.popitem(last=False)
            self._hot_bytes -= len(old.blob)
            self.stats.bump("blob_evictions")
            self._spill(old_key, old)

    def _spill(self, key, entry: _Entry) -> None:
        info = self._writer.append_blob(
            entry.blob, entry.nbytes // 8, key=json.dumps(key), dims=entry.dims
        )
        self._fh.flush()
        self._journal.write(json.dumps({
            "key": key, "offset": info.offset, "length": info.length,
            "crc": info.crc32,
            "dims": None if entry.dims is None else list(entry.dims),
            "nbytes": entry.nbytes,
        }, separators=(",", ":")) + "\n")
        self._journal.flush()
        self._ondisk[key] = (
            info.offset, info.length, info.crc32, entry.nbytes, entry.dims
        )
        self.stats.bump("spills")

    def put(self, key, entry: _Entry):
        prev = None
        old = self._hot.pop(key, None)
        if old is not None:
            self._hot_bytes -= len(old.blob)
            prev = (len(old.blob), old.nbytes)
        rec = self._ondisk.pop(key, None)
        if rec is not None and prev is None:
            prev = (rec[1], rec[3])
        self._admit(key, entry)
        return prev

    def get(self, key) -> _Entry:
        entry = self._hot.get(key)
        if entry is not None:
            self._hot.move_to_end(key)
            self.stats.bump("blob_hits")
            return entry
        offset, length, crc, nbytes, dims = self._ondisk.pop(key)  # forget
        self.stats.bump("blob_misses")
        if self._read_fh is None:
            self._read_fh = open(self.path, "rb")
        self._read_fh.seek(offset)
        blob = self._read_fh.read(length)
        if zlib.crc32(blob) & 0xFFFFFFFF != crc:
            raise ChecksumError(f"spill container CRC mismatch for key {key!r}")
        self.stats.bump("disk_reads")
        entry = _Entry(blob, nbytes, dims)
        self._admit(key, entry)  # dirty again: its next eviction re-spills
        return entry

    def __contains__(self, key) -> bool:
        return key in self._hot or key in self._ondisk

    def __len__(self) -> int:
        return len(self._hot) + len(self._ondisk)

    def keys(self):
        return list(self._hot) + list(self._ondisk)

    def close(self) -> None:
        while self._hot:
            self._spill(*self._hot.popitem(last=False))
        self._hot_bytes = 0
        self._writer.close()
        for fh in (self._fh, self._read_fh, self._journal):
            if fh is not None:
                fh.close()
        os.remove(self.path + ".journal")
