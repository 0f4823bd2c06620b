"""Harness I/O: the block libsvm and CSV parsers against the line-by-line
and cell-by-cell references in oracles.py, the parsers' memory use, the
dataset hash pinned to literal digests, output files written as new files,
and compare's one resolve per dataset source."""

import codecs
import csv
import hashlib
import json
import os
import stat
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stochopt.harness as harness
from oracles import load_csv_reference, load_libsvm_reference
from stochopt.harness import (
    compare,
    load_config,
    load_csv,
    load_libsvm,
    run_experiment,
    save_csv,
    save_libsvm,
)
from stochopt.problems import DENSE_DIM_LIMIT, Dataset
from test_harness import BASE_SGD, strip_wall, write_config


def assert_same_dataset(got: Dataset, want: Dataset) -> None:
    """Labels, dense/CSR choice and every stored array, bit for bit."""
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tobytes() == want.labels.tobytes()
    assert sp.issparse(got.features) == sp.issparse(want.features)
    assert got.features.shape == want.features.shape
    if sp.issparse(want.features):
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got.features, name), getattr(want.features, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
    else:
        assert got.features.dtype == want.features.dtype
        assert got.features.tobytes() == want.features.tobytes()


def outcome(load, path, n_features):
    """(dataset, None), or (None, the ValueError's text)."""
    try:
        return load(path, n_features=n_features), None
    except ValueError as exc:
        return None, str(exc)


def assert_matches_reference(path, n_features=None) -> None:
    want, want_err = outcome(load_libsvm_reference, path, n_features)
    got, got_err = outcome(load_libsvm, path, n_features)
    assert got_err == want_err
    if want is not None:
        assert_same_dataset(got, want)


# -- fuzz against the reference -------------------------------------------------

SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t ", "\x0b", "\xa0"])
# spellings of -1 and +1; a label float() reads as another number is bad
GOOD_LABELS = st.sampled_from(["1", "-1", "+1", "1.0", "-1e0", "0.1e1", "-1.000"])
BAD_LABELS = st.sampled_from(["abc", "nan", "inf", "-inf", "1:2", "1e999", "",
                              "1_0", "0", "2", "-0", "0.5"])
GOOD_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.sampled_from(["0", "-0.0", "1e-3", "2_5", "7"]),
)
BAD_TOKENS = st.sampled_from([
    "5", "1:2:3", ":4", "3:", "a:1", "1:b", "0:1", "-2:1", "-0:1", "1:nan",
    "2:inf", "3:-inf", "4:1e999", "1.0:2", "::", "x",
    "99999999999999999999:1", "-99999999999999999999:1",
])
# spellings of index c that int() reads as c
INDEX_SPELLINGS = st.sampled_from(["{}", "{}", "{}", "+{}", "0{}", "00{}"])
# widths on both sides of the dense/CSR switch
WIDTHS = st.sampled_from([1, 3, 20, DENSE_DIM_LIMIT, DENSE_DIM_LIMIT + 1, 700])


@st.composite
def libsvm_line(draw, width, dirty):
    """One line: blank, or a label and tokens; if dirty, sometimes with bad
    pieces (including two on one line) or a repeated index."""
    sep = draw(SEPARATORS)
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", " ", "\t", sep]))
    cols = draw(st.lists(st.integers(1, width), max_size=min(width, 6), unique=True))
    if not draw(st.booleans()):
        cols = sorted(cols)
    tokens = [f"{draw(INDEX_SPELLINGS).format(c)}:{draw(GOOD_VALUES)}" for c in cols]
    label = draw(GOOD_LABELS)
    fault = draw(st.sampled_from(["none", "none", "none", "token", "tokens", "dup", "label"]))
    if not dirty or fault == "none":
        pass
    elif fault == "label":
        label = draw(BAD_LABELS)
    elif fault == "dup" and tokens:
        tokens.insert(draw(st.integers(0, len(tokens))), f"{cols[0]}:{draw(GOOD_VALUES)}")
    else:  # one bad token, or two on one line
        for _ in range(1 if fault == "token" else 2):
            tokens.insert(draw(st.integers(0, len(tokens))), draw(BAD_TOKENS))
    head = sep if draw(st.integers(0, 4)) == 0 else ""
    return head + sep.join([label] + tokens) + draw(st.sampled_from(["", " ", "\t"]))


@st.composite
def libsvm_file(draw):
    width = draw(WIDTHS)
    lines = draw(st.lists(libsvm_line(width, draw(st.booleans())), min_size=1, max_size=12))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = "".join(line + end for line in lines)
    if lines and draw(st.booleans()):
        text = text[: -len(end)]  # no final line break
    n_features = draw(st.sampled_from([None, None, width, width + 5, 2]))
    return text, n_features


class TestLoadLibsvmMatchesReference:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=libsvm_file(), block=st.sampled_from([1, 2, 3, 5, 4096]))
    def test_fuzz(self, tmp_path_factory, case, block):
        text, n_features = case
        path = tmp_path_factory.getbasetemp() / "fuzz.libsvm"
        path.unlink(missing_ok=True)  # a truncating rewrite can stall on ext4
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(harness, "_LIBSVM_BLOCK_LINES", block):
            assert_matches_reference(path, n_features)

    @pytest.mark.parametrize(
        "lines, message",
        [
            # two errors on one line: the first in token order wins
            (["1 1:2", "1 0:1 a"], "line 2: index 0 not 1-based positive"),
            (["1 1:2", "1 a 0:1"], "line 2: expected index:value, got 'a'"),
            (["x 0:1"], "line 1: bad label 'x'"),
            (["1 2:1 2:3 1:nan"], "line 1: duplicate feature index 2"),
            (["1 1:nan 2:1 2:3"], "line 1: non-finite value in '1:nan'"),
            (["1 2:1 2:nan"], "line 1: non-finite value in '2:nan'"),
            (["1 2:1 0:nan"], "line 1: index 0 not 1-based positive"),
            (["1 -99999999999999999999:1"],
             "line 1: index -99999999999999999999 not 1-based positive"),
            # an error or a duplicate on the first line of a later block
            (["1 1:2", "-1 2:3", "1 3:1", "1 1:1 1:2"], "line 4: duplicate feature index 1"),
            (["1 1:2", "-1 2:3", "", "1 1:2:3 4"], "line 4: bad index:value pair '1:2:3'"),
            (["1 1:2", "-1 2:3", "1 3:1", "inf 1:1"], "line 4: non-finite label 'inf'"),
            # the earlier of two bad lines, in different blocks
            (["1 1:2", "1 3:1 3:1", "1 1:1", "1 x"], "line 2: duplicate feature index 3"),
            # a repeated index out of column order, and a later, different error
            (["1 2:1 1:1 2:5", "1 q"], "line 1: duplicate feature index 2"),
        ],
    )
    @pytest.mark.parametrize("block", [3, 4096])
    def test_error_names_first_bad_line(self, tmp_path, monkeypatch, lines, message, block):
        monkeypatch.setattr(harness, "_LIBSVM_BLOCK_LINES", block)
        path = tmp_path / "bad.libsvm"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            load_libsvm(path)
        assert str(exc.value) == f"{path}: {message}"
        assert_matches_reference(path)

    def test_index_beyond_int64_names_its_line(self, tmp_path):
        path = tmp_path / "huge.libsvm"
        path.write_text("1 1:2\n1 99999999999999999999:1\n")
        with pytest.raises(ValueError) as exc:
            load_libsvm(path)
        assert str(exc.value) == (
            f"{path}: line 2: feature index 99999999999999999999 does not fit in int64")
        assert_matches_reference(path)

    @pytest.mark.parametrize("block", [1, 4096])
    @pytest.mark.parametrize(
        "lines, message",
        [
            # a colon-less token and a two-colon token: the colon count
            # matches the token count, within a line and across lines
            (["1 5 1:2:3"], "line 1: expected index:value, got '5'"),
            (["1 5", "1 2:3:4"], "line 1: expected index:value, got '5'"),
            # a NUL inside a token, where it looks like the separator of
            # two good tokens, and beside a colon-less token
            (["1 1:2\x003:4"], "line 1: bad index:value pair '1:2\\x003:4'"),
            (["1 1:2\x003:4 5"], "line 1: bad index:value pair '1:2\\x003:4'"),
            (["1 2\x00:1"], "line 1: bad index:value pair '2\\x00:1'"),
            # spellings int() reads as the same index
            (["1 3:1 +3:2"], "line 1: duplicate feature index 3"),
            (["1 7:1 007:2"], "line 1: duplicate feature index 7"),
            (["1 4:1 \u0664:2"], "line 1: duplicate feature index 4"),
        ],
    )
    def test_colon_counts_and_spellings_errors(self, tmp_path, monkeypatch, block,
                                               lines, message):
        monkeypatch.setattr(harness, "_LIBSVM_BLOCK_LINES", block)
        path = tmp_path / "bad.libsvm"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_libsvm(path)
        assert str(exc.value) == f"{path}: {message}"
        assert_matches_reference(path)

    @pytest.mark.parametrize("block", [1, 4096])
    @pytest.mark.parametrize(
        "text, columns",
        [
            ("1 +3:1.5 007:2 1_0:3\n-1 \u0663:4 01:5\n", [[2, 6, 9], [0, 2]]),
            ("1 999999999999999999:1 2:-1\n", [[1, 999999999999999998]]),
            ("1 0999999999999999999:1\n", [[999999999999999998]]),
        ],
    )
    def test_valid_index_spellings(self, tmp_path, monkeypatch, block, text, columns):
        monkeypatch.setattr(harness, "_LIBSVM_BLOCK_LINES", block)
        path = tmp_path / "spell.libsvm"
        path.write_text(text, encoding="utf-8")
        assert_matches_reference(path)
        feats = sp.csr_matrix(load_libsvm(path).features)
        assert [feats.indices[a:b].tolist()
                for a, b in zip(feats.indptr[:-1], feats.indptr[1:])] == columns

    @pytest.mark.parametrize("block", [1, 4096])
    @pytest.mark.parametrize(
        "text, n_features, message",
        [
            # a bad label before a malformed token, and the reverse
            ("1 1:2\n2 1:1\n1 x\n", None, "line 2: label '2' is not -1 or +1"),
            ("1 1:2\n1 x\n2 1:1\n", None, "line 2: expected index:value, got 'x'"),
            # an index past int64 before a malformed line
            ("1 1:2\n1 99999999999999999999:1\n1 x\n", None,
             "line 2: feature index 99999999999999999999 does not fit in int64"),
            # an index past the declared width before a bad label; past both
            # the width and int64, the width is named
            ("1 1:2\n1 6:1\n0 1:1\n", 5, "line 2: feature index 6 exceeds declared width 5"),
            ("1 99999999999999999999:1\n0 1:1\n", 5,
             "line 1: feature index 99999999999999999999 exceeds declared width 5"),
            # the first of two faults on one line, in token order
            ("1 99999999999999999999:3 1:2 99999999999999999999:4\n", None,
             "line 1: feature index 99999999999999999999 does not fit in int64"),
        ],
    )
    def test_first_fault_in_file_order(self, tmp_path, monkeypatch, block,
                                       text, n_features, message):
        monkeypatch.setattr(harness, "_LIBSVM_BLOCK_LINES", block)
        path = tmp_path / "bad.libsvm"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_libsvm(path, n_features=n_features)
        assert str(exc.value) == f"{path}: {message}"
        assert_matches_reference(path, n_features)

    @pytest.mark.parametrize("block", [1, 3, 4096])
    @pytest.mark.parametrize("width", [5, DENSE_DIM_LIMIT, DENSE_DIM_LIMIT + 1])
    def test_unsorted_rows_and_blank_lines(self, tmp_path, monkeypatch, block, width):
        monkeypatch.setattr(harness, "_LIBSVM_BLOCK_LINES", block)
        path = tmp_path / "d.libsvm"
        path.write_text(
            f"\n1 {width}:0.5 1:-2.0 3:0\n\n \t\n-1\n-1 2:1e-300\t1:-0.0\n1 3:7 2:1\n"
        )
        assert_matches_reference(path)
        assert_matches_reference(path, n_features=width + 2)
        ds = load_libsvm(path)
        assert ds.N == 4 and ds.n == width

    @pytest.mark.parametrize("block", [1, 4096])
    @pytest.mark.parametrize(
        "text, n_features",
        [
            # an index past INT32_MAX after int32-only lines: in 1-line
            # blocks the column array turns int64 once entries are written
            ("1 2:1\n-1 3000000000:1\n", None),
            ("1 2:1\n-1 3000000000:1 4:2\n1 5:3\n", None),
            # label-only and blank lines: no ':' to count, no entry to write
            ("1\n\n-1\n \t\n", None),
            ("1\n\n-1\n \t\n", 3),
            ("1\n\n-1\n \t\n", DENSE_DIM_LIMIT + 1),
        ],
    )
    def test_int64_columns_and_entryless_files(self, tmp_path, monkeypatch, block,
                                               text, n_features):
        monkeypatch.setattr(harness, "_LIBSVM_BLOCK_LINES", block)
        path = tmp_path / "edge.libsvm"
        path.write_text(text)
        assert_matches_reference(path, n_features)

    @pytest.mark.parametrize("block", [1, 4096])
    def test_fifo_is_refused_unopened(self, tmp_path, monkeypatch, block):
        # an open would block with no writer; the path is refused first
        monkeypatch.setattr(harness, "_LIBSVM_BLOCK_LINES", block)
        path = tmp_path / "pipe.libsvm"
        os.mkfifo(path)
        with pytest.raises(ValueError) as exc:
            load_libsvm(path)
        assert str(exc.value) == f"{path}: not a regular file"
        assert_matches_reference(path)

    @pytest.mark.parametrize("buffer_bytes", [1, 7, 1 << 20])
    def test_colon_count_spans_reads(self, tmp_path, monkeypatch, buffer_bytes):
        monkeypatch.setattr(harness, "_COUNT_BUFFER_BYTES", buffer_bytes)
        path = tmp_path / "d.libsvm"
        text = "1 1:2 3:4\n\n-1 2:1e-3 700:5\n1\n1 9:0\n"
        path.write_text(text)
        assert harness._count_colons(path) == text.count(":")
        assert_matches_reference(path)

    @pytest.mark.parametrize("miscount", [-1, 1])
    def test_file_changed_between_count_and_parse(self, tmp_path, monkeypatch, miscount):
        # the ':' count and the parse read the file one after the other; a
        # parse that finds another number of entries read a changed file
        count = harness._count_colons
        monkeypatch.setattr(harness, "_count_colons", lambda path: count(path) + miscount)
        path = tmp_path / "d.libsvm"
        path.write_text("1 1:2 3:4\n-1 2:1\n")
        with pytest.raises(ValueError) as exc:
            load_libsvm(path)
        assert str(exc.value) == f"{path}: file changed while it was read"

    @pytest.mark.parametrize("block", [1, 4096])
    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(harness, "_LIBSVM_BLOCK_LINES", block)
        body = b"1 2:0.5 1:-1\n\n-1 3:2e-3\n"
        plain, marked = tmp_path / "plain.libsvm", tmp_path / "marked.libsvm"
        plain.write_bytes(body)
        marked.write_bytes(codecs.BOM_UTF8 + body)
        assert_same_dataset(load_libsvm(marked), load_libsvm(plain))
        assert_matches_reference(marked)
        marked.write_bytes(codecs.BOM_UTF8 + b"x 1:2\n")
        with pytest.raises(ValueError) as exc:
            load_libsvm(marked)
        assert str(exc.value) == f"{marked}: line 1: bad label 'x'"
        marked.write_bytes(codecs.BOM_UTF8 + b"2 1:2\n")
        with pytest.raises(ValueError) as exc:
            harness._load_dataset_file(str(marked), 0, False)
        assert str(exc.value) == f"{marked}: line 1: label '2' is not -1 or +1"

    def test_nonfinite_label_or_value_is_a_runtime_error(self, tmp_path, capsys):
        (tmp_path / "bad.libsvm").write_text("1 1:2.0\n-1 2:nan\n")
        text = """\
            [problem]
            kind = logistic
            dataset = bad.libsvm

            [run]
            algorithm = sgd
            """
        cfg = write_config(tmp_path, text)
        assert harness.main(["run", "--config", cfg]) == 2
        assert "line 2: non-finite value in '2:nan'" in capsys.readouterr().err


# -- load_csv against the cell-by-cell reference ---------------------------------

CSV_GOOD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.sampled_from(["0", "-0.0", "+1", " 2.5", "3 ", " -4e-3\t", "1_0", "1e308",
                     '"7.5"', '" 8"']),
)
CSV_BAD = st.sampled_from([
    "nan", "NaN", "-nan", "+nan", "inf", "-inf", "Infinity", "-infinity", "+INF",
    "1e999", "-1e999", "abc", "", " ", "1__0", "_1", "0x10", "1,5", "1.5.2",
    '"1,5"', '"2\n3"', '"x""y"',
])


# spellings of -1 and +1 for the label cell
CSV_LABELS = st.sampled_from(["1", "-1", "+1", "1.0", " -1", "1e0 ", '"-1"', '" +1.0"'])


def csv_cell(draw, dirty, label=False):
    """A feature cell, or a label cell: a spelling of -1 or +1, or, if
    dirty, sometimes a bad cell or another number."""
    if label and not (dirty and draw(st.integers(0, 5)) == 0):
        return draw(CSV_LABELS)
    cell = draw(CSV_BAD if dirty and draw(st.integers(0, 5)) == 0 else CSV_GOOD)
    if "," in cell and not cell.startswith('"'):
        cell = f'"{cell}"'  # one cell, so a width fault is only drawn on purpose
    return cell


@st.composite
def csv_file(draw):
    """(text, label_column, header): rows of one width with -1/+1 labels,
    and, if dirty, bad cells and labels, short or long rows, and blank or
    whitespace-only lines."""
    width = draw(st.integers(1, 5))
    label_column = draw(st.integers(-width - 1, width))
    lc = label_column % width if -width <= label_column < width else None
    dirty = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        fault = draw(st.sampled_from(["none"] * 6 + ["blank", "short", "long", "space"]))
        if fault == "blank" or (dirty and fault == "space"):
            lines.append("" if fault == "blank" else " ")
            continue
        w = width
        if dirty and fault in ("short", "long"):
            w = max(1, width + (1 if fault == "long" else -1))
        lines.append(",".join(csv_cell(draw, dirty, label=j == lc) for j in range(w)))
    header = draw(st.booleans())
    if header:
        lines.insert(0, ",".join(draw(st.sampled_from(["label", "f", "nan", ""]))
                                 for _ in range(width)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = "".join(line + end for line in lines)
    if lines and draw(st.booleans()):
        text = text[: -len(end)]  # no final line break
    return text, label_column, header


def csv_outcome(load, path, label_column, header):
    try:
        return load(path, label_column=label_column, header=header), None
    except ValueError as exc:
        return None, str(exc)


def assert_csv_matches_reference(path, label_column=0, header=False) -> None:
    want, want_err = csv_outcome(load_csv_reference, path, label_column, header)
    got, got_err = csv_outcome(load_csv, path, label_column, header)
    assert got_err == want_err
    if want is not None:
        assert_same_dataset(got, want)


class TestLoadCsvMatchesReference:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=csv_file(), block=st.sampled_from([1, 2, 3, 5, 4096]))
    def test_fuzz(self, tmp_path_factory, case, block):
        text, label_column, header = case
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.unlink(missing_ok=True)  # a truncating rewrite can stall on ext4
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(harness, "_CSV_BLOCK_ROWS", block):
            assert_csv_matches_reference(path, label_column, header)

    @pytest.mark.parametrize(
        "lines, message",
        [
            # the first row of a later block
            (["1,2", "-1,3", "1,4", "1,x"], "row 4, column 2: non-numeric 'x'"),
            (["1,2", "-1,3", "1,4", "1,nan"], "row 4, column 2: non-finite 'nan'"),
            (["1,2", "-1,3", "1,4", "1,2,3"], "row 4: expected 2 columns, got 3"),
            # blank rows count, and the earlier of two bad rows in different blocks
            (["1,2", "", "1,inf", "-1,3", "x,1"], "row 3, column 2: non-finite 'inf'"),
            # a width fault before a bad cell later on the same row
            (["1,2", "1,4", "x,2,3"], "row 3: expected 2 columns, got 3"),
            # the first bad cell in column order
            (["1,2,3", "1,Infinity,y"], "row 2, column 2: non-finite 'Infinity'"),
            # a quoted cell holding a line break is one record
            (["1,2", '-1,"3\n4"', "1,q"], "row 2, column 2: non-numeric '3\\n4'"),
        ],
    )
    @pytest.mark.parametrize("block", [3, 4096])
    def test_error_names_first_bad_row(self, tmp_path, monkeypatch, lines, message, block):
        monkeypatch.setattr(harness, "_CSV_BLOCK_ROWS", block)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: {message}"
        assert_csv_matches_reference(path)

    @pytest.mark.parametrize("block", [1, 4096])
    @pytest.mark.parametrize(
        "lines, label_column, message",
        [
            # a bad label before a malformed cell, and the reverse
            (["1,2", "2,3", "1,x"], 0, "row 2, column 1: label '2' is not -1 or +1"),
            (["1,2", "1,x", "2,3"], 0, "row 2, column 2: non-numeric 'x'"),
            # on one row, the first in column order
            (["1,2", "0,x"], 0, "row 2, column 1: label '0' is not -1 or +1"),
            (["1,2,1", "-1,x,0"], -1, "row 2, column 2: non-numeric 'x'"),
            # a bad label before a later row of the wrong width
            (["1,2", "-1,1", "1.5,3", "1,2,3"], 0,
             "row 3, column 1: label '1.5' is not -1 or +1"),
        ],
    )
    def test_first_fault_in_file_order(self, tmp_path, monkeypatch, block, lines,
                                       label_column, message):
        monkeypatch.setattr(harness, "_CSV_BLOCK_ROWS", block)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            load_csv(path, label_column=label_column)
        assert str(exc.value) == f"{path}: {message}"
        assert_csv_matches_reference(path, label_column)

    @pytest.mark.parametrize("block", [1, 4096])
    def test_csv_error_waits_for_earlier_rows(self, tmp_path, monkeypatch, block):
        # a field over the csv module's size limit raises csv.Error, but
        # only once the rows before it are checked
        monkeypatch.setattr(harness, "_CSV_BLOCK_ROWS", block)
        path = tmp_path / "big.csv"
        huge = "1" * (csv.field_size_limit() + 1)
        path.write_text(f"1,2\n1,x\n1,{huge}\n")
        with pytest.raises(ValueError, match=r"row 2, column 2: non-numeric 'x'"):
            load_csv(path)
        path.write_text(f"1,2\n1,3\n1,{huge}\n")
        for load in (load_csv, load_csv_reference):
            with pytest.raises(csv.Error):
                load(path)

    @pytest.mark.parametrize("block", [1, 2, 4096])
    @pytest.mark.parametrize("label_column", [0, 1, -1, -3])
    def test_label_column_and_header(self, tmp_path, monkeypatch, block, label_column):
        monkeypatch.setattr(harness, "_CSV_BLOCK_ROWS", block)
        # the label column holds -1 and +1, the other two columns other numbers
        rows = [[" 2.5 ", "-1"], ["1_0", '"3"'], ["-0.0", "1e-300"]]
        for row, label in zip(rows, ["1", " -1", '"+1.0"']):
            row.insert(label_column % 3, label)
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n\n{}\n{}\n\n{}\n".format(*map(",".join, rows)))
        assert_csv_matches_reference(path, label_column, header=True)
        ds = load_csv(path, label_column=label_column, header=True)
        assert ds.N == 3 and ds.n == 2

    @pytest.mark.parametrize("header", [False, True])
    def test_byte_order_mark_is_skipped(self, tmp_path, header):
        # as Excel's "CSV UTF-8" export writes it
        body = (b"y,a,b\r\n" if header else b"") + b"1,2.5,-3\r\n-1,0,4e-3\r\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(body)
        marked.write_bytes(codecs.BOM_UTF8 + body)
        assert_same_dataset(load_csv(marked, header=header), load_csv(plain, header=header))
        assert_csv_matches_reference(marked, header=header)
        marked.write_bytes(codecs.BOM_UTF8 + b"x,1\n")
        with pytest.raises(ValueError) as exc:
            load_csv(marked)
        assert str(exc.value) == f"{marked}: row 1, column 1: non-numeric 'x'"
        marked.write_bytes(codecs.BOM_UTF8 + b"2,1\n")
        with pytest.raises(ValueError) as exc:
            harness._load_dataset_file(str(marked), 0, False)
        assert str(exc.value) == f"{marked}: row 1, column 1: label '2' is not -1 or +1"


def write_text_csr(path, rows=10000, width=3000, nnz=30, seed=0):
    """Sorted-column libsvm text with ~nnz entries per row (6-digit values)."""
    gen = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(rows):
            cols = np.unique(gen.integers(1, width + 1, size=nnz))
            vals = np.round(gen.standard_normal(cols.size), 6)
            pairs = " ".join(f"{c}:{v!r}" for c, v in zip(cols.tolist(), vals.tolist()))
            fh.write(f"{1 if i % 2 else -1} {pairs}\n")


class TestLoadLibsvmMemory:
    # the line-by-line reference peaks at ~46 MiB on this file (a tuple per
    # entry), the block parser at ~5.8 MiB in 256-line blocks (the 3.5 MiB
    # result and one block's token strings)
    PEAK_CAP_BYTES = 20 * 2**20

    def test_peak_python_memory(self, tmp_path, traced_peak):
        path = tmp_path / "wide.libsvm"
        write_text_csr(path)
        ds, peak = traced_peak(load_libsvm, path)
        assert sp.issparse(ds.features) and ds.N == 10000
        assert ds.features.nnz > 10000 * 29
        assert peak < self.PEAK_CAP_BYTES, f"peak {peak / 2**20:.1f} MB"


# -- dataset hash -----------------------------------------------------------------


def csr_dataset(indptr, index_dtype=np.int32):
    feats = sp.csr_matrix(
        (np.array([0.5, -1.5, 2.0, 4.25]), np.array([0, 3, 1, 2]), np.array(indptr)),
        shape=(3, 600),
    )
    # the constructor picks int32 for small indices; set the type asked for
    feats.indices = feats.indices.astype(index_dtype)
    feats.indptr = feats.indptr.astype(index_dtype)
    return Dataset(features=feats, labels=np.array([1.0, -1.0, -1.0]))


class TestDatasetHashPinned:
    """Digests computed by the whole-array hash (tobytes of each array), so
    that the manifests' dataset_sha256 cannot change under a rewrite; CSR
    index arrays hash as int64 whatever their stored type, whatever the
    size of the block they are converted through."""

    CSR = "32236f075f0501d17f36848c1f8c75ab5155d19c173954172b3cc55a0c19027c"

    @pytest.mark.parametrize("block_entries", [1, 3, 8192])
    @pytest.mark.parametrize(
        "make, digest",
        [
            (lambda: Dataset(features=np.array([[1.25, -2.0], [0.5, 3.75], [0.0, -1.125]]),
                             labels=np.array([1.0, -1.0, 1.0])),
             "e025e1a3de1d2b0a7b9742b9e9feb67add9b276e00eb205477b1601b61bab910"),
            (lambda: csr_dataset([0, 2, 3, 4], np.int32), CSR),
            (lambda: csr_dataset([0, 2, 3, 4], np.int64), CSR),
            (lambda: csr_dataset([0, 2, 2, 4]),  # an empty middle row
             "40ec6bfc0f1d39086ce0f5d358f5cfa46ec0925f5631d641e93c0d54e65bf8d8"),
        ],
    )
    def test_literal_digest(self, monkeypatch, make, digest, block_entries):
        monkeypatch.setattr(harness, "_HASH_INDEX_BLOCK", block_entries)
        assert harness._dataset_hash(make()) == digest

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_blocks_hash_as_the_whole_conversion(self, index_dtype):
        """Index arrays several blocks long, ending mid-block, give the
        digest of their whole int64 conversion hashed at once."""
        N, per_row = 3001, 7
        gen = np.random.default_rng(5)
        feats = sp.random(N, 500, density=per_row / 500, format="csr", random_state=gen)
        feats.indices = feats.indices.astype(index_dtype)
        feats.indptr = feats.indptr.astype(index_dtype)
        assert feats.nnz % harness._HASH_INDEX_BLOCK and feats.nnz > 2 * harness._HASH_INDEX_BLOCK
        labels = np.where(gen.random(N) < 0.5, 1.0, -1.0)
        whole = hashlib.sha256()
        for part in (b"csr", np.array(feats.shape, dtype=np.int64), feats.data,
                     feats.indices.astype(np.int64), feats.indptr.astype(np.int64), labels):
            whole.update(part)
        got = harness._dataset_hash(Dataset(features=feats, labels=labels))
        assert got == whole.hexdigest()


# -- output files ---------------------------------------------------------------


class TestOutputsAreNewFiles:
    def run(self, tmp_path):
        out = run_experiment(load_config(write_config(tmp_path, BASE_SGD)))
        return Path(out), Path(out + ".manifest.json")

    def test_rerun_over_longer_outputs_leaves_no_stale_bytes(self, tmp_path):
        csv_path, manifest = self.run(tmp_path)
        first_csv, first_manifest = strip_wall(csv_path), manifest.read_bytes()
        csv_path.write_text("9" * 50000)
        manifest.write_text("{" + " " * 50000)
        self.run(tmp_path)
        assert strip_wall(csv_path) == first_csv
        assert manifest.read_bytes() == first_manifest

    def test_symlinked_output_keeps_its_link(self, tmp_path):
        target = tmp_path / "elsewhere" / "metrics.csv"
        target.parent.mkdir()
        target.write_text("stale\n" * 1000)
        (tmp_path / "run.csv").symlink_to(target)
        csv_path, _ = self.run(tmp_path)
        assert csv_path.is_symlink() and csv_path.resolve() == target.resolve()
        assert target.read_text().startswith("epoch,iteration,")
        assert "stale" not in target.read_text()

    def test_old_file_is_replaced_not_truncated(self, tmp_path):
        # a hard link to last run's output keeps that output's bytes
        csv_path, _ = self.run(tmp_path)
        old = csv_path.read_text()
        keep = tmp_path / "kept.csv"
        os.link(csv_path, keep)
        self.run(tmp_path)
        assert keep.read_text() == old
        assert csv_path.stat().st_ino != keep.stat().st_ino

    def test_save_over_existing_file_round_trips(self, tmp_path):
        feats = np.array([[1.5, 0.0, -2.25], [0.0, 0.0, 0.125]])
        ds = Dataset(features=feats, labels=np.array([1.0, -1.0]))
        lib, csv_file = tmp_path / "d.libsvm", tmp_path / "d.csv"
        lib.write_text("1 1:3.0\n" * 500)
        csv_file.write_text("1.0,2.0,3.0,4.0\n" * 500)
        save_libsvm(lib, ds)
        save_csv(csv_file, ds)
        for back in (load_libsvm(lib), load_csv(csv_file)):
            np.testing.assert_array_equal(back.features, feats)
            np.testing.assert_array_equal(back.labels, ds.labels)

    DS = Dataset(features=np.array([[1.5, -2.25]]), labels=np.array([1.0]))

    def test_fifo_is_written_not_replaced(self, tmp_path):
        want = tmp_path / "want.csv"
        save_csv(want, self.DS)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        # a nonblocking reader lets the writer's open return at once
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            save_csv(fifo, self.DS)
            got = os.read(fd, 1 << 16)
        finally:
            os.close(fd)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert got == want.read_bytes()

    def test_device_is_never_unlinked(self, tmp_path, monkeypatch):
        unlinked = []
        monkeypatch.setattr(os, "unlink", unlinked.append)
        link = tmp_path / "null.csv"
        link.symlink_to(os.devnull)
        for path in (os.devnull, link):
            save_csv(path, self.DS)
        assert unlinked == []
        assert link.is_symlink() and stat.S_ISCHR(os.stat(link).st_mode)

    def test_file_that_cannot_be_unlinked_is_truncated(self, tmp_path, monkeypatch):
        # as in a directory without write permission
        def refuse(path):
            raise PermissionError(13, "Permission denied", str(path))

        want = tmp_path / "want.csv"
        save_csv(want, self.DS)
        out = tmp_path / "out.csv"
        out.write_text("9" * 50000)
        monkeypatch.setattr(os, "unlink", refuse)
        save_csv(out, self.DS)
        assert out.read_bytes() == want.read_bytes()


# -- compare --------------------------------------------------------------------


class TestCompareResolvesOnce:
    def configs(self, tmp_path, algos=("sgd", "svrg", "sgd-momentum")):
        paths = []
        for algo in algos:
            text = (BASE_SGD.replace("algorithm = sgd", f"algorithm = {algo}")
                    .replace("out = run.csv", f"out = {algo}.csv")
                    .replace("[sgd]", f"[{algo}]"))
            paths.append(write_config(tmp_path, text, name=f"{algo}.ini"))
        return paths

    def test_one_resolve_per_source(self, tmp_path, monkeypatch):
        calls = []
        real = harness._resolve_datasets
        monkeypatch.setattr(harness, "_resolve_datasets",
                            lambda cfg: calls.append(cfg.algorithm) or real(cfg))
        summaries = compare(self.configs(tmp_path))
        assert len(calls) == 1
        assert len({s["problem"] for s in summaries}) == 1

    def test_outputs_match_separate_runs(self, tmp_path):
        shared = tmp_path / "shared"
        alone = tmp_path / "alone"
        shared.mkdir()
        alone.mkdir()
        summaries = compare(self.configs(shared))
        for s, cfg in zip(summaries, self.configs(alone)):
            out = run_experiment(load_config(cfg))
            assert strip_wall(s["csv"]) == strip_wall(out)
            m1 = json.loads(Path(s["csv"] + ".manifest.json").read_text())
            m2 = json.loads(Path(out + ".manifest.json").read_text())
            m1["config"]["run"].pop("out")
            m2["config"]["run"].pop("out")
            assert m1 == m2
