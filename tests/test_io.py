import math

import numpy as np
import pytest

from streamcvi.stream_io import (
    EventRecord,
    IngestionError,
    StreamSchema,
    TraceRecord,
    read_events,
    read_stream,
    read_trace,
    write_events,
    write_trace,
)


class TestReadStream:
    def test_headerless_two_columns(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("".join(f"{i}.5,{i}.25\n" for i in range(5)))
        points, labels = read_stream(f)
        assert len(points) == 5
        assert labels is None
        assert np.array_equal(points[2].x, [2.5, 2.25])

    def test_label_column(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        points, labels = read_stream(f, StreamSchema(label_column=2))
        assert labels == [0, 1]

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

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "2.5", "1e-3"])
    def test_non_integral_label_names_row(self, tmp_path, cell):
        f = tmp_path / "s.csv"
        f.write_text(f"1.0,2.0,0\n1.0,2.0,{cell}\n")
        with pytest.raises(IngestionError, match="row 2: label"):
            read_stream(f, StreamSchema(label_column=2))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match="not found"):
            read_stream(tmp_path / "nope.csv")


class TestStreamSchema:
    def test_default_and_range_layouts_valid(self):
        assert StreamSchema().feature_columns == (0, 1)
        StreamSchema(feature_columns=tuple(range(8)), label_column=8)
        StreamSchema(feature_columns=(np.int64(2), 0), label_column=1)

    @pytest.mark.parametrize("columns, label, match", [
        ((), None, "at least one feature column"),
        ((0, -1), None, "nonnegative integers"),
        ((0, 1), -1, "nonnegative integers"),
        ((0, True), None, "nonnegative integers"),
        ((0, 1.0), None, "nonnegative integers"),
        ((0, "1"), None, "nonnegative integers"),
        ((0, 0), None, "repeat"),
        ((0, 1), 1, "also a feature column"),
    ])
    def test_unreadable_layout_rejected(self, columns, label, match):
        with pytest.raises(ValueError, match=match):
            StreamSchema(feature_columns=columns, label_column=label)


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
