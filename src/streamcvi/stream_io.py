"""Stream ingestion and trace/event emission.

Traces are RFC-4180-style CSV (UTF-8, LF) with the fixed header
``n,k,xb,xb_lambda,db,db_lambda`` and no other column. Undefined or disabled
index values serialize as empty cells. Floats use Python's shortest
round-trip repr so written values parse back exactly.
Events are line-delimited tab-separated records: n, kind, detail.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from .core import StreamPoint, is_integer
from .cvi import INDEX_FAMILIES

TRACE_COLUMNS = ("n", "k") + INDEX_FAMILIES


@dataclass(frozen=True)
class TraceRecord:
    n: int
    k: int
    values: dict = field(default_factory=dict)  # family -> float or None


@dataclass(frozen=True)
class EventRecord:
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

    Returns (points, labels); labels is None without a label column.
    """
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"stream file not found: {path}")
    points: list[StreamPoint] = []
    labels: list[int] | None = [] if schema.label_column is not None else None
    needed = max(
        max(schema.feature_columns),
        -1 if schema.label_column is None else schema.label_column,
    )
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) <= needed:
                raise IngestionError(f"row {row_no}: expected at least {needed + 1} columns")
            try:  # float() rejects a non-numeric cell, StreamPoint a non-finite one
                points.append(StreamPoint([float(row[c]) for c in schema.feature_columns]))
            except ValueError as exc:
                raise IngestionError(f"row {row_no}: bad feature value ({exc})") from None
            if labels is not None:
                cell = row[schema.label_column]
                try:
                    label = float(cell)
                except ValueError:
                    raise IngestionError(f"row {row_no}: non-numeric label cell") from None
                if not label.is_integer():  # also False for inf and nan
                    raise IngestionError(f"row {row_no}: label {cell!r} is not a finite integer")
                labels.append(int(label))
    return points, labels


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float) and math.isnan(v):
        return ""
    return repr(float(v))


def write_trace(records, path) -> None:
    """Write trace records in the order the iterable yields them."""
    with Path(path).open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for r in records:
            writer.writerow([str(r.n), str(r.k)]
                            + [_fmt(r.values.get(fam)) for fam in INDEX_FAMILIES])


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
