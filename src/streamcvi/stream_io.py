"""Stream ingestion and trace/event emission.

``read_stream`` parses a stream CSV into one read-only (n, p) array, checked
finite once, and returns its rows as ``StreamPoint`` views. Any malformed
row, non-finite feature cell or field too large for the CSV reader raises an
``IngestionError`` naming the row.

Traces are RFC-4180-style CSV (UTF-8, LF) with the fixed header
``n,k,xb,xb_lambda,db,db_lambda`` and no other column. Undefined or disabled
index values serialize as empty cells. Floats use Python's shortest
round-trip repr so written values parse back exactly.
Events are line-delimited tab-separated records: n, kind, detail.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import StreamPoint, all_finite, is_integer
from .cvi import INDEX_FAMILIES

TRACE_COLUMNS = ("n", "k") + INDEX_FAMILIES


class TraceRecord(NamedTuple):
    n: int
    k: int
    values: dict  # family -> float or None


class EventRecord(NamedTuple):
    n: int
    kind: str
    detail: str = ""


class IngestionError(ValueError):
    """A stream file could not be parsed; the message names the row."""


@dataclass(frozen=True)
class StreamSchema:
    """Column layout of a stream CSV: feature columns and an optional label."""

    feature_columns: tuple[int, ...] = (0, 1)
    label_column: int | None = None

    def __post_init__(self):
        """Rejects a layout that would read a column other than the one named,
        or one column for two roles: no feature columns, a column index that
        is negative (it counts from the row's end) or not an integer, a
        repeated feature column, or a label column among the features."""
        features = tuple(self.feature_columns)
        if not features:
            raise ValueError("a stream schema needs at least one feature column")
        label = () if self.label_column is None else (self.label_column,)
        for c in features + label:
            if not is_integer(c) or c < 0:
                raise ValueError(f"column indices must be nonnegative integers, got {c!r}")
        if len(set(features)) != len(features):
            raise ValueError(f"feature columns repeat: {features}")
        if self.label_column in features:
            raise ValueError(f"label column {self.label_column} is also a feature column")


def read_stream(path, schema: StreamSchema = StreamSchema()):
    """Read points (and labels, if the schema names a label column).

    Returns (points, labels): the points are ``StreamPoint`` rows of one
    read-only (n, p) array, and labels is None without a label column.
    """
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"stream file not found: {path}")
    columns = schema.feature_columns
    flat: list[float] = []  # every feature cell, row after row
    blank_rows: list[int] = []
    labels: list[int] | None = [] if schema.label_column is not None else None
    needed = max(
        max(columns),
        -1 if schema.label_column is None else schema.label_column,
    )
    row_no = 0
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            for row_no, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    blank_rows.append(row_no)
                    continue
                if len(row) <= needed:
                    raise IngestionError(f"row {row_no}: expected at least {needed + 1} columns")
                try:
                    flat.extend([float(row[c]) for c in columns])
                except ValueError as exc:
                    raise IngestionError(f"row {row_no}: bad feature value ({exc})") from None
                if labels is not None:
                    cell = row[schema.label_column]
                    try:
                        label = float(cell)
                    except ValueError:
                        raise IngestionError(f"row {row_no}: non-numeric label cell") from None
                    if not label.is_integer():  # also False for inf and nan
                        raise IngestionError(
                            f"row {row_no}: label {cell!r} is not a finite integer")
                    labels.append(int(label))
    except UnicodeDecodeError:
        raise IngestionError(f"stream file {path} is not UTF-8 text") from None
    except csv.Error as exc:  # the reader fails on the row after the last it gave
        raise IngestionError(f"row {row_no + 1}: {exc}") from None
    X = np.array(flat, dtype=float).reshape(-1, len(columns))
    del flat
    if not all_finite(X):
        bad = int(np.logical_and.reduce(np.isfinite(X), axis=1).argmin())
        row_no = bad + 1
        for blank in blank_rows:  # in file order: each one at or before shifts the row
            if blank <= row_no:
                row_no += 1
        raise IngestionError(f"row {row_no}: non-finite feature value")
    X.flags.writeable = False
    return [StreamPoint(x) for x in X], labels


def _cell(v) -> str:
    """A trace cell: the shortest round-trip repr, empty for None and nan."""
    return "" if v is None or math.isnan(v) else repr(float(v))


def write_trace(records, path) -> None:
    """Write trace records in the order the iterable yields them."""
    with Path(path).open("w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for r in records:
            get = r.values.get
            fh.write(f"{r.n},{r.k},{','.join([_cell(get(fam)) for fam in INDEX_FAMILIES])}\n")


def read_trace(path):
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


def write_events(records, path) -> None:
    with Path(path).open("w", newline="\n", encoding="utf-8") as fh:
        for r in records:
            detail = r.detail.replace("\t", " ").replace("\n", " ")
            fh.write(f"{r.n}\t{r.kind}\t{detail}\n")


def read_events(path):
    records = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            n, kind, detail = line.split("\t", 2)
            records.append(EventRecord(n=int(n), kind=kind, detail=detail))
    return records
