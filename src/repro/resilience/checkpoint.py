"""Checkpoint persistence: atomic write-rename JSON state files.

The exhaustive enumeration and the ``2^w``-pin cyclic sweep periodically
persist which half-open work ranges they have finished plus their running
``best`` arrays.  The contract that makes resume *bit-identical* to an
uninterrupted run is:

* state is saved at work-range boundaries only (never mid-range), and the
  saved arrays are the pre-postprocessing running state (e.g. the
  enumeration saves its profile *before* the complement-symmetry fold);
* each file carries a ``key`` fingerprinting the computation (network
  name, sizes, counted set, batch grid); :meth:`CheckpointStore.load`
  returns nothing on a mismatch, so a stale file can never poison a
  different run;
* writes go to a sibling temp file followed by :func:`os.replace`, so a
  crash mid-write leaves either the old state or the new one, never a
  torn file.

:class:`RangeLedger` is the completed-range bookkeeping both sweeps share:
a sorted list of disjoint half-open ``[lo, hi)`` intervals with merge on
insert.  A resume may replay ranges from a different grid, so merge must
be correct under *any* insertion order — touching, overlapping, nested,
duplicated.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from ..obs import incr

__all__ = ["CheckpointStore", "RangeLedger"]

_FORMAT_VERSION = 1


class RangeLedger:
    """Sorted disjoint half-open integer ranges with merge-on-add.

    Tracks which ``[lo, hi)`` work ranges a sweep has completed; adjacent
    and overlapping ranges are coalesced so the JSON form stays tiny even
    for thousands of batches.
    """

    def __init__(self, ranges: list[tuple[int, int]] | None = None) -> None:
        self._ranges: list[tuple[int, int]] = []
        for lo, hi in ranges or []:
            self.add(int(lo), int(hi))

    def add(self, lo: int, hi: int) -> None:
        """Mark ``[lo, hi)`` completed (merging with existing ranges)."""
        # Coerce up front: NumPy integers arriving from range arithmetic
        # would otherwise survive into to_list() and break json.dumps.
        lo, hi = int(lo), int(hi)
        if hi <= lo:
            raise ValueError(f"empty or inverted range [{lo}, {hi})")
        merged: list[tuple[int, int]] = []
        for a, b in self._ranges:
            if b < lo or hi < a:  # disjoint and non-adjacent
                merged.append((a, b))
            else:  # overlap or touch: absorb
                lo, hi = min(lo, a), max(hi, b)
        merged.append((lo, hi))
        merged.sort()
        self._ranges = merged

    def covers(self, lo: int, hi: int) -> bool:
        """Whether ``[lo, hi)`` lies inside one completed range."""
        return any(a <= lo and hi <= b for a, b in self._ranges)

    @property
    def total(self) -> int:
        """Total number of integers covered."""
        return sum(b - a for a, b in self._ranges)

    def to_list(self) -> list[list[int]]:
        """JSON-ready form."""
        return [[a, b] for a, b in self._ranges]

    @classmethod
    def from_list(cls, data: Any) -> "RangeLedger":
        """Rebuild from the JSON form (invalid data → empty ledger)."""
        try:
            return cls([(int(a), int(b)) for a, b in data])
        except (TypeError, ValueError):
            return cls()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RangeLedger {self._ranges}>"


class CheckpointStore:
    """One checkpoint file with atomic save and fingerprint-checked load."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def load(self, key: str) -> dict[str, Any] | None:
        """Return the saved payload, or ``None`` when absent/stale/corrupt.

        A checkpoint written by a different computation (mismatched
        ``key``), an unreadable file, or malformed JSON all read as "no
        checkpoint": resume logic then simply starts fresh.
        """
        try:
            raw = self.path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            data = json.loads(raw)
        except ValueError:
            return None
        if not isinstance(data, dict) or data.get("version") != _FORMAT_VERSION:
            return None
        if data.get("key") != key:
            return None
        payload = data.get("payload")
        if isinstance(payload, dict):
            incr("checkpoint.resumes")
            return payload
        return None

    def save(self, key: str, payload: dict[str, Any]) -> None:
        """Atomically persist ``payload`` under fingerprint ``key``."""
        data = {"version": _FORMAT_VERSION, "key": key, "payload": payload}
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(data), encoding="utf-8")
        os.replace(tmp, self.path)
        incr("checkpoint.writes")

    def delete(self) -> None:
        """Remove the checkpoint file (missing file is fine)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CheckpointStore {self.path}>"


def as_store(checkpoint: str | Path | CheckpointStore | None) -> CheckpointStore | None:
    """Coerce a path-or-store argument (solver convenience)."""
    if checkpoint is None or isinstance(checkpoint, CheckpointStore):
        return checkpoint
    return CheckpointStore(checkpoint)
