"""Unit tests for deterministic report serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from divlab.errors import ValidationError
from divlab.reporting import (
    format_real,
    read_data_csv,
    render_json,
    write_csv,
    write_json,
)

# =============================================================================
# Tests: scalar formatting
# =============================================================================


class TestFormatReal:
    """17-significant-digit decimal formatting."""

    def test_plain_values(self):
        """Small literals print without exponent noise."""
        assert format_real(0.5) == "0.5"
        assert format_real(-2.0) == "-2"
        assert format_real(0.0) == "0"

    def test_non_finite_tokens(self):
        """Infinities and NaN use fixed lowercase tokens."""
        assert format_real(float("inf")) == "inf"
        assert format_real(float("-inf")) == "-inf"
        assert format_real(float("nan")) == "nan"

    def test_numpy_scalars_accepted(self):
        """Numpy floats coerce before formatting."""
        assert format_real(np.float64(0.25)) == "0.25"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trips_every_double(self, x):
        """Parsing the printed form recovers the exact double."""
        assert float(format_real(x)) == x


# =============================================================================
# Tests: JSON rendering
# =============================================================================


class TestRenderJson:
    """Layout and typing rules of the JSON renderer."""

    def test_insertion_order_preserved(self):
        """Keys appear in insertion order, not sorted."""
        text = render_json({"zebra": 1, "apple": 2})
        assert text.index("zebra") < text.index("apple")

    def test_parses_as_json(self):
        """Rendered output is valid JSON with the same content."""
        obj = {"a": 1, "b": [0.5, True, None], "c": {"d": "x"}}
        assert json.loads(render_json(obj)) == obj

    def test_reals_use_full_precision(self):
        """Floats render through the 17-digit formatter."""
        x = 1.0 / 3.0
        assert format_real(x) in render_json({"v": x})

    def test_non_finite_quoted_as_strings(self):
        """Non-finite reals become quoted tokens so the JSON stays legal."""
        text = render_json({"a": float("inf"), "b": float("-inf"), "c": float("nan")})
        assert json.loads(text) == {"a": "inf", "b": "-inf", "c": "nan"}

    def test_sequences_and_arrays(self):
        """Tuples and numpy arrays render as JSON lists."""
        assert json.loads(render_json({"t": (1, 2)})) == {"t": [1, 2]}
        assert json.loads(render_json({"a": np.arange(3)})) == {"a": [0, 1, 2]}

    def test_empty_containers(self):
        """Empty mappings and sequences stay compact."""
        assert render_json({}) == "{}\n"
        assert json.loads(render_json({"e": [], "m": {}})) == {"e": [], "m": {}}

    def test_bool_and_null(self):
        """Booleans and None map to JSON literals."""
        text = render_json({"ok": np.bool_(True), "missing": None})
        assert json.loads(text) == {"ok": True, "missing": None}

    def test_trailing_newline(self):
        """Every rendered document ends in exactly one newline."""
        text = render_json({"a": 1})
        assert text.endswith("}\n") and not text.endswith("\n\n")

    def test_unsupported_type_rejected(self):
        """Objects without a serialization rule raise a validation error."""
        with pytest.raises(ValidationError):
            render_json({"bad": object()})

    def test_deterministic(self):
        """Rendering the same object twice gives identical text."""
        obj = {"m": {"x": 0.1, "y": (1, 2, 3)}, "flag": False}
        assert render_json(obj) == render_json(obj)


# =============================================================================
# Tests: file writers
# =============================================================================


class TestWriteJson:
    """Atomic JSON file output."""

    def test_writes_rendered_text(self, tmp_path):
        """File bytes equal the rendered document."""
        obj = {"value": 0.25, "label": "run"}
        path = write_json(tmp_path / "report.json", obj)
        assert path.read_text(encoding="utf-8") == render_json(obj)

    def test_no_temp_file_left(self, tmp_path):
        """The staging file is renamed away."""
        write_json(tmp_path / "report.json", {"a": 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_creates_parent_directories(self, tmp_path):
        """Missing directories are created on demand."""
        path = write_json(tmp_path / "deep" / "nested" / "r.json", {"a": 1})
        assert path.exists()

    def test_overwrites_previous_content(self, tmp_path):
        """A second write fully replaces the first."""
        target = tmp_path / "r.json"
        write_json(target, {"a": 1})
        write_json(target, {"b": 2})
        assert json.loads(target.read_text()) == {"b": 2}


class TestWriteCsv:
    """CSV table output."""

    def test_header_and_rows(self, tmp_path):
        """Sequence rows land under the given header in order."""
        path = write_csv(tmp_path / "t.csv", ["x", "y"], [(1, 0.5), (2, 0.25)])
        assert path.read_text() == "x,y\n1,0.5\n2,0.25\n"

    def test_mapping_rows_reordered(self, tmp_path):
        """Mapping rows are emitted in column order regardless of key order."""
        path = write_csv(tmp_path / "t.csv", ["x", "y"], [{"y": 2.0, "x": 1}])
        assert path.read_text() == "x,y\n1,2\n"

    def test_empty_rows_keep_header(self, tmp_path):
        """An empty table is just the header line."""
        path = write_csv(tmp_path / "t.csv", ["a", "b"], [])
        assert path.read_text() == "a,b\n"

    def test_non_finite_cells(self, tmp_path):
        """Cells use the fixed non-finite tokens."""
        path = write_csv(tmp_path / "t.csv", ["v"], [(float("inf"),), (float("nan"),)])
        assert path.read_text() == "v\ninf\nnan\n"

    def test_bool_cells(self, tmp_path):
        """Boolean cells print as lowercase words."""
        path = write_csv(tmp_path / "t.csv", ["ok"], [(True,), (np.bool_(False),)])
        assert path.read_text() == "ok\ntrue\nfalse\n"

    def test_ragged_row_rejected(self, tmp_path):
        """A sequence row of the wrong width raises a validation error."""
        with pytest.raises(ValidationError):
            write_csv(tmp_path / "t.csv", ["x", "y"], [(1,)])

    def test_full_precision_round_trip(self, tmp_path):
        """Written reals parse back to the exact doubles."""
        values = [1.0 / 3.0, math.pi, 2.0 ** -40]
        path = write_csv(tmp_path / "t.csv", ["v"], [(v,) for v in values])
        lines = path.read_text().splitlines()[1:]
        assert [float(s) for s in lines] == values


# =============================================================================
# Tests: data ingestion
# =============================================================================


class TestReadDataCsv:
    """Observation files with an optional weight column."""

    def test_single_column(self, tmp_path):
        """One numeric column yields points and no weights."""
        f = tmp_path / "d.csv"
        f.write_text("1.5\n2.5\n-0.25\n")
        points, weights = read_data_csv(f)
        assert points.tolist() == [1.5, 2.5, -0.25]
        assert weights is None

    def test_two_columns(self, tmp_path):
        """A second column is returned as weights."""
        f = tmp_path / "d.csv"
        f.write_text("1.0,0.5\n2.0,1.5\n")
        points, weights = read_data_csv(f)
        assert points.tolist() == [1.0, 2.0]
        assert weights.tolist() == [0.5, 1.5]

    def test_header_skipped(self, tmp_path):
        """A non-numeric first line is treated as a header."""
        f = tmp_path / "d.csv"
        f.write_text("value,weight\n1.0,2.0\n")
        points, weights = read_data_csv(f)
        assert points.tolist() == [1.0]
        assert weights.tolist() == [2.0]

    def test_blank_lines_ignored(self, tmp_path):
        """Empty lines anywhere in the file are skipped."""
        f = tmp_path / "d.csv"
        f.write_text("\n1.0\n\n2.0\n\n")
        points, _ = read_data_csv(f)
        assert points.tolist() == [1.0, 2.0]

    def test_non_numeric_body_rejected(self, tmp_path):
        """Bad cells after the header raise with the row number."""
        f = tmp_path / "d.csv"
        f.write_text("1.0\nbroken\n")
        with pytest.raises(ValidationError, match="row 2"):
            read_data_csv(f)

    @pytest.mark.parametrize("text", ["1.0\nnan\n", "1.0\n-inf\n", "1.0,1.0\n2.0,inf\n", "1.0\n1e999\n"])
    def test_non_finite_rejected(self, tmp_path, text):
        """NaN and infinite points or weights raise with the row number."""
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(ValidationError, match="non-finite value in row 2"):
            read_data_csv(f)

    def test_too_many_columns_rejected(self, tmp_path):
        """Three columns are out of contract."""
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0,3.0\n")
        with pytest.raises(ValidationError):
            read_data_csv(f)

    def test_incomplete_weight_column_rejected(self, tmp_path):
        """Mixing one- and two-column rows is an error."""
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValidationError):
            read_data_csv(f)

    def test_empty_file_rejected(self, tmp_path):
        """A file with no observations raises."""
        f = tmp_path / "d.csv"
        f.write_text("\n")
        with pytest.raises(ValidationError):
            read_data_csv(f)

    def test_missing_file_rejected(self, tmp_path):
        """A nonexistent path raises a validation error, not OSError."""
        with pytest.raises(ValidationError):
            read_data_csv(tmp_path / "absent.csv")
