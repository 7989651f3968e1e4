"""Checks shared by several test modules."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from streamcvi.cvi import INDEX_FAMILIES
from streamcvi.stream_io import EventRecord, TraceRecord

MEMBERSHIP_SUM_TOL = 1e-12


def validate_membership(u: np.ndarray, crisp: bool = False) -> str | None:
    """Return None when the (k,) memberships are valid, one-hot if ``crisp``,
    else a violation message."""
    if u.shape[0] == 0:
        raise ValueError("membership vector is empty")
    if np.any(u < 0.0) or np.any(u > 1.0):
        return "entry outside [0, 1]"
    if crisp:
        ones = np.sum(u == 1.0)
        zeros = np.sum(u == 0.0)
        if ones != 1 or zeros != u.shape[0] - 1:
            return "crisp vector is not one-hot"
        return None
    if abs(float(np.sum(u)) - 1.0) > MEMBERSHIP_SUM_TOL:
        return "sum != 1"
    return None


def read_trace(path) -> list[TraceRecord]:
    """Parse a trace CSV back into TraceRecords (round-trip of write_trace)."""
    records = []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        for row in reader:
            values = {
                fam: (float(cell) if cell else None)
                for fam, cell in zip(INDEX_FAMILIES, row[2:6])
            }
            records.append(TraceRecord(n=int(row[0]), k=int(row[1]), values=values))
    return records


def read_events(path) -> list[EventRecord]:
    """Parse an event log back into EventRecords (round-trip of write_events)."""
    records = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            n, kind, detail = line.split("\t", 2)
            records.append(EventRecord(n=int(n), kind=kind, detail=detail))
    return records
