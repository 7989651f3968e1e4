import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamcvi.stream_io import (
    EventRecord,
    IngestionError,
    StreamSchema,
    TraceRecord,
    read_stream,
    write_events,
    write_trace,
)

from helpers import read_events, read_trace


class TestReadStream:
    def test_headerless_two_columns(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("".join(f"{i}.5,{i}.25\n" for i in range(5)))
        points, labels = read_stream(f)
        assert len(points) == 5
        assert labels is None
        assert np.array_equal(points[2].x, [2.5, 2.25])

    def test_malformed_cell_names_row(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1.0,2.0\n1.0,abc\n")
        with pytest.raises(IngestionError, match="row 2"):
            read_stream(f)

    def test_ragged_row_names_row(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1.0,2.0\n1.0\n")
        with pytest.raises(IngestionError, match="row 2"):
            read_stream(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match="not found"):
            read_stream(tmp_path / "nope.csv")

    def test_non_utf8_file_names_the_file(self, tmp_path):
        f = tmp_path / "latin.csv"
        f.write_bytes(b"1.0,2.0\n\xff\xfe,3.0\n")
        with pytest.raises(IngestionError, match=r"latin\.csv is not UTF-8"):
            read_stream(f)

    def test_oversized_field_names_row(self, tmp_path):
        # the csv module refuses a field over its 131072-character limit
        f = tmp_path / "s.csv"
        f.write_text('1.0,2.0\n"' + "1" * 140_000 + '",2\n')
        with pytest.raises(IngestionError, match="row 2"):
            read_stream(f)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_feature_names_row(self, tmp_path, cell):
        f = tmp_path / "s.csv"
        f.write_text(f"1.0,2.0\n1.0,{cell}\n")
        with pytest.raises(IngestionError, match="row 2"):
            read_stream(f)

    def test_non_finite_feature_row_counts_blank_rows(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("\n1.0,2.0\n\n\n1.0,nan\n\n3.0,4.0\n")
        with pytest.raises(IngestionError, match="row 5:"):
            read_stream(f)

    def test_points_are_read_only_rows(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1.0,2.0\n\n3.0,4.0\n")
        points, _ = read_stream(f)
        assert [pt.x.tolist() for pt in points] == [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(ValueError, match="read-only"):
            points[0].x[0] = 5.0


def reference_points(data: bytes, columns) -> np.ndarray | None:
    """float() of each feature cell, row by row, with blank rows skipped, as
    an (n, p) array; None where read_stream must raise IngestionError."""
    try:
        rows = [row for row in csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
                if row]
        X = np.array([[float(row[c]) for c in columns] for row in rows],
                     dtype=float).reshape(-1, len(columns))
    except (UnicodeDecodeError, csv.Error, IndexError, ValueError):
        return None
    return X if np.isfinite(X).all() else None


# Arbitrary bytes, pieces of CSV text, and rows of float cells: the last two
# make the drawn files often hold parseable rows.
CSV_PIECES = st.sampled_from([
    b"0", b"1", b"-2.5", b"1e3", b"1e400", b".", b"e", b"-", b"_", b" ", b"inf", b"nan",
    b",", b"\n", b"\r", b"\r\n", b'"', b"\x00", b"\xff", b"\xc3\xa9",
])
CELL = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                 st.sampled_from(["", " 7", "-0", "1_0", '"3"', "nan", "1e400"]))
STREAM_BYTES = st.one_of(
    st.binary(max_size=2048),
    st.lists(CSV_PIECES, max_size=400).map(b"".join),
    st.tuples(st.lists(st.lists(CELL, max_size=4).map(",".join), max_size=30),
              st.sampled_from(["\n", "\r\n", "\r"]))
    .map(lambda rows_end: rows_end[1].join(rows_end[0]).encode()),
)


class TestReadStreamProperty:
    @settings(max_examples=150, deadline=None)
    @given(data=STREAM_BYTES,
           columns=st.sampled_from([(0,), (0, 1), (1, 0), (2, 0)]))
    @example(data=b"1,2\n\n3,4\r\n", columns=(0, 1))
    @example(data=b'"1\n2",3\n', columns=(0, 1))
    @example(data=b"1,2,abc\n3,4,nan,,x\n", columns=(0, 1))  # other columns are ignored
    def test_points_or_ingestion_error(self, tmp_path_factory, data, columns):
        f = tmp_path_factory.mktemp("stream") / "s.csv"
        f.write_bytes(data)
        expected = reference_points(data, columns)
        if expected is None:
            with pytest.raises(IngestionError, match=r"^(row \d+|stream file )"):
                read_stream(f, StreamSchema(feature_columns=columns))
            return
        points, labels = read_stream(f, StreamSchema(feature_columns=columns))
        got = np.array([pt.x for pt in points], dtype=float).reshape(-1, len(columns))
        assert labels is None
        assert got.tobytes() == expected.tobytes()


class TestStreamSchema:
    def test_default_and_range_layouts_valid(self):
        assert StreamSchema().feature_columns == (0, 1)
        StreamSchema(feature_columns=tuple(range(8)))
        StreamSchema(feature_columns=(np.int64(2), 0))

    # The ids are the names these cases had while the schema also held a
    # label column (the None), so that the suite's test names stay stable.
    @pytest.mark.parametrize("columns, match", [
        ((), "at least one feature column"),
        ((0, -1), "nonnegative integers"),
        ((0, True), "nonnegative integers"),
        ((0, 1.0), "nonnegative integers"),
        ((0, "1"), "nonnegative integers"),
        ((0, 0), "repeat"),
    ], ids=[
        "columns0-None-at least one feature column",
        "columns1-None-nonnegative integers",
        "columns3-None-nonnegative integers",
        "columns4-None-nonnegative integers",
        "columns5-None-nonnegative integers",
        "columns6-None-repeat",
    ])
    def test_unreadable_layout_rejected(self, columns, match):
        with pytest.raises(ValueError, match=match):
            StreamSchema(feature_columns=columns)


class TestWriteTrace:
    def test_empty_gives_header_only(self, tmp_path):
        f = tmp_path / "t.csv"
        write_trace([], f)
        assert f.read_text() == "n,k,xb,xb_lambda,db,db_lambda\n"

    def test_undefined_serialized_as_empty_cells(self, tmp_path):
        f = tmp_path / "t.csv"
        rec = TraceRecord(n=5, k=1, values={"xb": None, "xb_lambda": 0.42,
                                            "db": math.nan, "db_lambda": 0.9})
        write_trace([rec], f)
        assert f.read_text().splitlines()[1] == "5,1,,0.42,,0.9"

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        records = [
            TraceRecord(
                n=i + 1,
                k=3,
                values={
                    "xb": float(rng.uniform(0, 1e-3)),
                    "xb_lambda": float(rng.uniform()),
                    "db": None,
                    "db_lambda": float(rng.normal() ** 2),
                },
            )
            for i in range(50)
        ]
        f = tmp_path / "t.csv"
        write_trace(records, f)
        back = read_trace(f)
        for a, b in zip(records, back):
            assert a.n == b.n and a.k == b.k
            for fam in a.values:
                if a.values[fam] is None:
                    assert b.values[fam] is None
                else:
                    assert b.values[fam] == a.values[fam]  # bit-exact round trip

    def test_lf_line_endings(self, tmp_path):
        f = tmp_path / "t.csv"
        write_trace([TraceRecord(n=1, k=2, values={})], f)
        raw = f.read_bytes()
        assert b"\r" not in raw


class TestEvents:
    def test_round_trip(self, tmp_path):
        records = [
            EventRecord(n=3, kind="cluster_created", detail="k=2"),
            EventRecord(n=10, kind="index_undefined", detail="xb"),
            EventRecord(n=10, kind="ground_truth_change", detail=""),
        ]
        f = tmp_path / "e.log"
        write_events(records, f)
        assert read_events(f) == records

    def test_detail_whitespace_sanitized(self, tmp_path):
        f = tmp_path / "e.log"
        write_events([EventRecord(n=1, kind="x", detail="a\tb\nc")], f)
        assert read_events(f)[0].detail == "a b c"
