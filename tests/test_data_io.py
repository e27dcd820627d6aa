import csv
import io
import os
import re
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmetric import data_io
from confmetric.data_io import config_from_dict
from confmetric import (
    Dataset,
    DatasetSchema,
    SynthConfig,
    ValidationError,
    auroc,
    load_csv,
    positive_scores,
    save_csv,
    split,
    synth_generate,
)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            DatasetSchema(["a", "a"], "label")
        with pytest.raises(ValidationError):
            DatasetSchema(["a"], "a")

    def test_empty_features_rejected(self):
        with pytest.raises(ValidationError):
            DatasetSchema([], "label")

    @pytest.mark.parametrize("names", [
        ([0], "label"), (["a"], 1), (["a"], "label", True), (["a"], "label", None, 2),
    ])
    def test_non_string_names_rejected(self, names):
        with pytest.raises(ValidationError, match="names must be strings"):
            DatasetSchema(*names)


class TestLoadCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text)
        return p

    def test_basic_load(self, tmp_path):
        p = self.write(tmp_path, "f0,f1,label,confidence\n1.0,2.0,1,0.9\n-1.0,0.5,0,0.7\n")
        schema = DatasetSchema(["f0", "f1"], "label", "confidence")
        data, ids = load_csv(p, schema)
        assert ids is None
        assert data.X.tolist() == [[1.0, 2.0], [-1.0, 0.5]]
        assert data.y.tolist() == [1, 0]
        assert data.c.tolist() == [0.9, 0.7]

    def test_id_column_returned_in_order(self, tmp_path):
        p = self.write(tmp_path, "id,f0,label\nrow-b,1.0,1\nrow-a,2.0,0\n")
        schema = DatasetSchema(["f0"], "label", id_column="id")
        _, ids = load_csv(p, schema)
        assert ids == ["row-b", "row-a"]

    def test_missing_header_column(self, tmp_path):
        p = self.write(tmp_path, "f0,label\n1.0,1\n")
        with pytest.raises(ValidationError, match="f1"):
            load_csv(p, DatasetSchema(["f0", "f1"], "label"))

    def test_bad_feature_names_row_and_column(self, tmp_path):
        p = self.write(tmp_path, "f0,label\n1.0,1\nxyz,0\n")
        with pytest.raises(ValidationError, match=r"row 3.*'f0'.*'xyz'"):
            load_csv(p, DatasetSchema(["f0"], "label"))

    def test_non_finite_feature_rejected(self, tmp_path):
        p = self.write(tmp_path, "f0,label\nnan,1\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_csv(p, DatasetSchema(["f0"], "label"))

    @pytest.mark.parametrize("column, text", [
        ("f0", "1_000"), ("f0", "1e5_0"), ("f0", "\u0663"), ("f0", "\uff11"),
        ("confidence", "0.2_5"), ("confidence", "\u0660.5"), ("confidence", "\uff10.5"),
    ])
    def test_cells_float_reads_but_numpy_does_not(self, tmp_path, column, text):
        cells = {"f0": "1.0", "label": "1", "confidence": "0.5", column: text}
        p = self.write(tmp_path, "f0,label,confidence\n" + ",".join(cells.values()) + "\n")
        with pytest.raises(ValidationError, match=re.escape(
                f"row 2, column {column!r}: {text!r} is not a finite number")):
            load_csv(p, DatasetSchema(["f0"], "label", "confidence"))

    def test_bad_label(self, tmp_path):
        p = self.write(tmp_path, "f0,label\n1.0,2\n")
        with pytest.raises(ValidationError, match="label must be 0 or 1"):
            load_csv(p, DatasetSchema(["f0"], "label"))

    def test_confidence_out_of_range(self, tmp_path):
        p = self.write(tmp_path, "f0,label,confidence\n1.0,1,1.5\n")
        with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
            load_csv(p, DatasetSchema(["f0"], "label", "confidence"))

    def test_all_empty_confidences_means_absent(self, tmp_path):
        p = self.write(tmp_path, "f0,label,confidence\n1.0,1,\n2.0,0,\n")
        data, _ = load_csv(p, DatasetSchema(["f0"], "label", "confidence"))
        assert data.c is None

    def test_partial_confidences_rejected(self, tmp_path):
        p = self.write(tmp_path, "f0,label,confidence\n1.0,1,0.8\n2.0,0,\n")
        with pytest.raises(ValidationError, match="partially populated"):
            load_csv(p, DatasetSchema(["f0"], "label", "confidence"))

    def test_empty_file_rejected(self, tmp_path):
        p = self.write(tmp_path, "f0,label\n")
        with pytest.raises(ValidationError, match="no data rows"):
            load_csv(p, DatasetSchema(["f0"], "label"))

    @pytest.mark.parametrize("text", ["", "f0,label\n", "f0,label\n\n\n"],
                             ids=["empty", "header-only", "blank-lines"])
    def test_no_rows_leaks_no_warning(self, tmp_path, text):
        p = self.write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                load_csv(p, DatasetSchema(["f0"], "label"))

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_bytes(b"f0,label\n1.0,1\n\xff\xfe,0\n")
        with pytest.raises(ValidationError, match=r"data\.csv is not UTF-8 text"):
            load_csv(p, DatasetSchema(["f0"], "label"))


class TestReadJson:
    def read(self, tmp_path, content: bytes):
        p = tmp_path / "input.json"
        p.write_bytes(content)
        return data_io.read_json(p, "invalid test config")

    def test_syntax_error(self, tmp_path):
        with pytest.raises(ValidationError, match="^invalid test config: Expecting"):
            self.read(tmp_path, b"{not json")

    def test_nesting_past_the_recursion_limit(self, tmp_path):
        with pytest.raises(ValidationError, match="^invalid test config: .*recursion"):
            self.read(tmp_path, b"[" * 200_000)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no integer digit limit")
    def test_integer_past_the_digit_limit(self, tmp_path):
        with pytest.raises(ValidationError, match="^invalid test config: .*digits"):
            self.read(tmp_path, b"[" + b"9" * 5000 + b"]")

    def test_undecodable_bytes_keep_their_own_message(self, tmp_path):
        with pytest.raises(ValidationError, match=r"^\S*input\.json is not UTF-8 text"):
            self.read(tmp_path, b'{"a": "\xff\xfe"}')


def read_both(path, *args):
    """read_columns as it runs, and with the row parser alone: each a tuple
    of arrays and lists, or the (type, text) of what it raised."""
    outcomes = []
    for fast in (data_io._read_fast, lambda *a: None):
        with mock.patch.object(data_io, "_read_fast", fast):
            try:
                outcomes.append(data_io.read_columns(path, *args))
            except Exception as exc:  # the parity is in what is raised, too
                outcomes.append((type(exc), str(exc)))
    return outcomes


def read_chunked(path, rows, *args):
    """read_chunks as it runs, and with the row parser alone: each the list
    of chunks it yielded and the (type, text) of what it raised, or None."""
    outcomes = []
    for fast in (data_io._read_fast, lambda *a: None):
        with mock.patch.object(data_io, "_read_fast", fast):
            chunks, end = [], None
            try:
                chunks.extend(data_io.read_chunks(path, *args, rows=rows))
            except Exception as exc:
                end = (type(exc), str(exc))
            outcomes.append((chunks, end))
    return outcomes


def joined(chunks):
    """One (X, y, c, ids) of the rows of chunks in order."""
    def join(part):
        return None if chunks[0][part] is None else np.concatenate(
            [chunk[part] for chunk in chunks])
    ids = None if chunks[0][3] is None else [i for chunk in chunks for i in chunk[3]]
    return join(0), join(1), join(2), ids


def assert_same(fast, slow):
    if isinstance(slow[0], type):
        assert fast == slow
        return
    assert not isinstance(fast[0], type), fast
    for a, b in zip(fast[:3], slow[:3]):
        if b is None:
            assert a is None
        else:  # bit for bit: -0.0 and 0.0 differ
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert fast[3] == slow[3]


def quoted(text):
    return '"' + text.replace('"', '""') + '"'


def must_quote(text):
    return any(ch in text for ch in ',"\r\n') or text.startswith(" ")


NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**6, 10**6).map(str))
ODD_NUMBERS = [
    "1_000", "\u0661\u0662", "nan", "-nan", "inf", "Infinity", "-inf", "1e500", "-0.0",
    "", " ", "#1", "1#", " 1.5 ", "\t2\t", "\u00a03", "4\u2028", "0x10", "1e", ".5", "+7",
    "1\x1c", "\x1f2", "3\x00", "a", '1"5',
]
ODD_LABELS = ["1.0", " 1", "1 ", "2", "", "01", "1\x00", "\u0661"]
ODD_CONFIDENCES = ["", "1.5", "-0.0", "nan", " 0.25", "1e-400"]
IDS = st.text(st.sampled_from('ab,"\n\r \x00\u00e9'), max_size=4)


@st.composite
def csv_files(draw):
    """CSV text with the columns f0, f1, label, confidence and id in any
    order, perhaps with a repeated and an extra column. The rows are well
    formed but for up to two odd cells and perhaps one line that is blank,
    whitespace alone, short or long."""
    names = draw(st.permutations(["f0", "f1", "label", "confidence", "id", "x"]))
    if draw(st.booleans()):
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
    kinds = ["f" if name.startswith("f") else name for name in names]
    good = {"f": NUMBERS, "label": st.sampled_from(["0", "1"]),
            "confidence": st.floats(0.0, 1.0).map(repr), "id": IDS, "x": IDS}
    odd = {"f": st.sampled_from(ODD_NUMBERS), "label": st.sampled_from(ODD_LABELS),
           "confidence": st.sampled_from(ODD_CONFIDENCES), "id": IDS, "x": IDS}
    rows = [[draw(good[k]) for k in kinds] for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        r = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(kinds) - 1))
        rows[r][j] = draw(odd[kinds[j]])
    edit = draw(st.sampled_from(["none"] * 4 + ["blank", "space", "short", "long"]))
    if rows and edit != "none":
        r = draw(st.integers(0, len(rows) - 1))
        if edit == "short":
            rows[r] = rows[r][:draw(st.integers(1, len(kinds) - 1))]
        elif edit == "long":
            rows[r] = rows[r] + ["9"]
        else:  # a line as it stands: empty, or whitespace alone
            line = "" if edit == "blank" else draw(st.sampled_from([" ", "\t", '""']))
            rows.insert(r, line)

    def cell(text):
        return quoted(text) if must_quote(text) or draw(st.integers(0, 9)) == 0 else text

    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(quoted(n) if draw(st.booleans()) else n for n in names)]
    lines += [row if isinstance(row, str) else ",".join(map(cell, row)) for row in rows]
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


class TestReadColumns:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_files(), label=st.sampled_from([None, "label"]),
           confidence=st.sampled_from([None, "confidence"]),
           id_column=st.sampled_from([None, "id"]),
           features=st.sampled_from([[], ["f0"], ["f1", "f0"], ["f0", "f1"]]))
    def test_fast_path_equals_row_parser(self, tmp_path_factory, text, label,
                                         confidence, id_column, features):
        path = tmp_path_factory.getbasetemp() / "parity.csv"
        path.write_bytes(text.encode("utf-8"))
        fast, slow = read_both(path, features, label, confidence, id_column)
        assert_same(fast, slow)

    @settings(max_examples=300, deadline=None)
    @given(text=csv_files(), label=st.sampled_from([None, "label"]),
           confidence=st.sampled_from([None, "confidence"]),
           id_column=st.sampled_from([None, "id"]),
           features=st.sampled_from([[], ["f0"], ["f1", "f0"], ["f0", "f1"]]),
           rows=st.integers(1, 3))
    def test_chunked_fast_path_equals_row_parser(self, tmp_path_factory, text, label,
                                                 confidence, id_column, features, rows):
        # every chunk boundary: the fast path's chunks, and the row parser's
        # after a fallback, are the row parser's alone; together they are
        # the one-chunk read, and they end in the error it raises
        path = tmp_path_factory.getbasetemp() / "chunked.csv"
        path.write_bytes(text.encode("utf-8"))
        args = (features, label, confidence, id_column)
        (fast, fast_end), (slow, slow_end) = read_chunked(path, rows, *args)
        assert fast_end == slow_end and len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert_same(a, b)
        assert all(len(chunk[0]) == rows for chunk in slow[:-1])
        assert 0 < len(slow[-1][0]) <= rows if slow else slow_end is not None
        # confidences all present or all empty, also in chunks before an error
        assert len({chunk[2] is None for chunk in slow}) <= 1
        assert all(np.isfinite(chunk[2]).all() for chunk in slow if chunk[2] is not None)
        whole = read_both(path, *args)[1]
        if slow_end is None:
            assert_same(joined(slow), whole)
        else:
            assert whole == slow_end

    @pytest.mark.parametrize("column, text", [
        *(("f1", t) for t in ODD_NUMBERS),
        *(("label", t) for t in ODD_LABELS),
        *(("confidence", t) for t in ODD_CONFIDENCES),
    ])
    def test_each_odd_cell_alone(self, tmp_path, column, text):
        names = ["f0", "f1", "label", "confidence", "id"]
        rows = [["0.5", "-1", "1", "0.75", "a"], ["2", "3e-2", "0", "0.5", "b"]]
        rows[1][names.index(column)] = quoted(text) if must_quote(text) else text
        p = tmp_path / "data.csv"
        p.write_text("\n".join(",".join(r) for r in [names, *rows]) + "\n")
        fast, slow = read_both(p, ["f0", "f1"], "label", "confidence", "id")
        assert_same(fast, slow)

    def test_fast_path_serves_well_formed_files(self, tmp_path):
        # quoting, CRLF, blank lines, spaces around numbers and a repeated
        # header name (its last column counts) need no row parser
        p = tmp_path / "data.csv"
        p.write_text('f0,"f1",label,f0,confidence,id\r\n'
                     '9,1.5,1,-2.5, 0.25,"a,b"\r\n'
                     '\r\n'
                     '9," 2e-3 ",0,10,0.5,"say ""hi"""\r\n', newline="")
        with mock.patch.object(data_io, "_read_slow", side_effect=AssertionError):
            X, y, c, ids = data_io.read_columns(p, ["f0", "f1"], "label",
                                                "confidence", "id")
        assert X.tolist() == [[-2.5, 1.5], [10.0, 0.002]]
        assert not X.flags.owndata  # a view into the parsed records, not a copy
        assert (y.tolist(), c.tolist()) == ([1, 0], [0.25, 0.5])
        assert ids == ["a,b", 'say "hi"']

    def test_label_only_read_parses_once(self, tmp_path):
        # evaluate reads only the labels: the text cells alone give the rows
        p = tmp_path / "data.csv"
        p.write_text("f0,label\n1.5,1\n\n2,0\n")
        with mock.patch.object(data_io.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            X, y, c, ids = data_io.read_columns(p, [], "label")
        assert loadtxt.call_count == 1
        assert X.shape == (2, 0) and y.tolist() == [1, 0]
        assert c is None and ids is None

    @pytest.mark.parametrize("label, confidence, id_column", [
        ("label", "confidence", "id"), (None, None, "id"), (None, None, None),
    ], ids=["train-with-ids", "predict-with-ids", "features-only"])
    def test_every_column_set_parses_once(self, tmp_path, label, confidence, id_column):
        # numeric and text cells come from one pass over the file: no reread
        p = tmp_path / "data.csv"
        p.write_text('id,f0,label,f1,confidence\n"a,1",1.5,1,-2,0.25\n\nb,2,0,3e-2,1\n')
        with mock.patch.object(data_io.np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
                mock.patch.object(data_io, "_read_slow", side_effect=AssertionError):
            X, y, c, ids = data_io.read_columns(p, ["f0", "f1"], label, confidence,
                                                id_column)
        assert loadtxt.call_count == 1
        assert X.tolist() == [[1.5, -2.0], [2.0, 0.03]] and not X.flags.owndata
        assert (y is None) == (label is None) and (c is None) == (confidence is None)
        if label is not None:
            assert (y.tolist(), c.tolist()) == ([1, 0], [0.25, 1.0])
        assert ids == (["a,1", "b"] if id_column is not None else None)

    @staticmethod
    def past_the_scan_chunk(tmp_path, last_row: bytes):
        """A file of more than one scan chunk whose last row, which starts
        past the first chunk, is last_row; a wide unused column keeps the
        row count low."""
        head = b"f0,f1,label,pad\n"
        row = b"0.5,-1,1," + b"x" * 100 + b"\n"
        count = data_io._SCAN_CHUNK // len(row) + 1
        p = tmp_path / "big.csv"
        p.write_bytes(head + row * count + last_row)
        assert len(head) + len(row) * count > data_io._SCAN_CHUNK
        return p, count + 2  # the header is row 1

    def test_numpy_only_space_past_the_first_scan_chunk(self, tmp_path):
        p, last = self.past_the_scan_chunk(tmp_path, b"2,3\x1c,0,y\n")
        fast, slow = read_both(p, ["f0", "f1"], "label")
        assert_same(fast, slow)
        assert fast == (ValidationError,
                        f"row {last}, column 'f1': '3\\x1c' is not a finite number")

    def test_undecodable_bytes_past_the_first_scan_chunk(self, tmp_path):
        p, _ = self.past_the_scan_chunk(tmp_path, b"2,3,0,\xff\xfe\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(p))} is not UTF-8 text"):
            data_io.read_columns(p, ["f0", "f1"], "label")

    def test_scan_holds_one_piece(self, tmp_path):
        # the search reads every piece into one buffer: no two pieces at once
        p = tmp_path / "long.csv"
        p.write_bytes(b"0.5,-1,1\n" * (20 * data_io._SCAN_CHUNK // 9))
        tracemalloc.start()
        try:
            found = data_io._has_numpy_only_space(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not found
        assert peak < 1.5 * data_io._SCAN_CHUNK

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")
    def test_a_pipe_is_refused(self):
        # the file is searched, then parsed: a pipe would reach the parser
        # with its rows already read
        r, w = os.pipe()
        os.write(w, b"f0\n1.5\n")
        os.close(w)
        try:
            with pytest.raises(OSError, match=f"^/dev/fd/{r}: .* not a pipe"):
                data_io.read_columns(f"/dev/fd/{r}", ["f0"])
        finally:
            os.close(r)

    def test_memory_does_not_grow_with_the_file(self, tmp_path):
        # the same rows and requested column, with 2 and with 16 unused
        # columns: only a fixed-size buffer may hold the file's text
        def traced(unused):
            p = tmp_path / f"unused{unused}.csv"
            cells = ["0.25", *["0.123456789"] * unused]
            p.write_text(",".join(f"c{j}" for j in range(len(cells))) + "\n"
                         + (",".join(cells) + "\n") * 40_000)
            tracemalloc.start()
            try:
                X = data_io.read_columns(p, ["c0"])[0]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert X.shape == (40_000, 1)
            return peak, p.stat().st_size

        (small_peak, small), (big_peak, big) = traced(2), traced(16)
        assert small > data_io._SCAN_CHUNK
        assert big_peak - small_peak < 0.1 * (big - small)


    def test_features_with_ids_are_not_copied(self, tmp_path):
        # predict --id-column: the ids interleave with the numbers in each
        # parsed record, and X is a strided view of them, not a second block
        rng = np.random.default_rng(0)
        Q = rng.normal(size=(20_000, 20))
        p = tmp_path / "query.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["pid", *(f"f{j}" for j in range(20))],
                                      *([f"p{i}", *q] for i, q in enumerate(Q.tolist()))])
        tracemalloc.start()
        try:
            X, _, _, ids = data_io.read_columns(p, [f"f{j}" for j in range(20)],
                                                id_column="pid")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(X, Q) and ids[-1] == "p19999"
        assert not X.flags.c_contiguous
        assert peak < 2 * X.nbytes  # the records and ids, not X twice
        # BLAS reads the row stride: scoring the view is bit for bit scoring a copy
        L = rng.normal(size=(4, 20))
        train = Dataset(rng.normal(size=(50, 20)), np.arange(50) % 2)
        assert np.array_equal(positive_scores(L, train, X),
                              positive_scores(L, train, np.ascontiguousarray(X)))


FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-5, 1e16, 0.1, 1.0 - 2**-53, 1.0 + 2**-52]),
    st.floats(allow_nan=False, allow_infinity=False),
)
CONFIDENCES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-5, 0.1, 1.0 - 2**-53, 1.0]),
    st.floats(0.0, 1.0),
)


@st.composite
def datasets(draw):
    """A small Dataset of extreme and ordinary finite floats, with or
    without confidences."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    X = draw(st.lists(FLOATS, min_size=n * m, max_size=n * m))
    y = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    c = draw(st.none() | st.lists(CONFIDENCES, min_size=n, max_size=n))
    return Dataset(np.reshape(X, (n, m)), y, c)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(data=datasets(), block=st.integers(1, 3))
    def test_save_writes_what_csv_writer_writes(self, tmp_path_factory, data, block):
        # save_csv joins its rows itself, in blocks of 1 to 3 rows here; the
        # bytes must be the csv module's
        p = tmp_path_factory.getbasetemp() / "saved.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_io, "_WRITE_ROWS", block)
            schema = save_csv(p, data)
        header = [*schema.feature_columns, schema.label_column,
                  *([schema.confidence_column] if data.c is not None else [])]
        rows = [x.tolist() + [int(data.y[i])]
                + ([float(data.c[i])] if data.c is not None else [])
                for i, x in enumerate(data.X)]
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows([header, *rows])
        assert p.read_bytes() == buf.getvalue().encode("utf-8")

    def test_save_then_load_is_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(20, 4)), rng.integers(0, 2, 20), rng.uniform(size=20))
        p = tmp_path / "rt.csv"
        schema = save_csv(p, data)
        back, _ = load_csv(p, schema)
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.y, data.y)
        assert np.array_equal(back.c, data.c)

    def test_save_holds_one_block(self, tmp_path):
        # 20,000 rows as Python objects would take 14 MiB
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(20_000, 20)), np.arange(20_000) % 2,
                       rng.uniform(size=20_000))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            save_csv(tmp_path / "big.csv", data)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2**20

    def test_save_without_confidences(self, tmp_path):
        data = Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), [0, 1, 0, 1])
        p = tmp_path / "nc.csv"
        schema = save_csv(p, data)
        assert schema.confidence_column is None
        back, _ = load_csv(p, schema)
        assert back.c is None


class TestSynthGenerate:
    def test_shapes_and_balance(self):
        cfg = SynthConfig(n=101, m=6, m_informative=2, class_balance=0.4, seed=0)
        data, post = synth_generate(cfg)
        assert data.X.shape == (101, 6)
        assert post.shape == (101,)
        assert data.class_counts() == (61, 40)

    def test_deterministic(self):
        cfg = SynthConfig(n=50, m=4, m_informative=2, seed=9)
        a, pa = synth_generate(cfg)
        b, pb = synth_generate(cfg)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.c, b.c)
        assert np.array_equal(pa, pb)

    def test_zero_separation_posterior_is_prior(self):
        cfg = SynthConfig(n=30, m=3, m_informative=1, cluster_separation=0.0, seed=1)
        _, post = synth_generate(cfg)
        assert np.all(post == 0.5)

    def test_noise_free_confidence_is_own_label_posterior(self):
        cfg = SynthConfig(n=40, m=4, m_informative=2, confidence_noise=0.0, seed=2)
        data, post = synth_generate(cfg)
        expected = np.where(data.y == 1, post, 1.0 - post)
        assert np.array_equal(data.c, expected)

    def test_confidences_clipped_to_unit_interval(self):
        cfg = SynthConfig(n=200, m=2, m_informative=1, confidence_noise=0.5, seed=3)
        data, _ = synth_generate(cfg)
        assert data.c.min() >= 0.0 and data.c.max() <= 1.0

    def test_posterior_separates_classes_when_far_apart(self):
        cfg = SynthConfig(n=400, m=8, m_informative=3, cluster_separation=6.0, seed=4)
        data, post = synth_generate(cfg)
        assert auroc(post, data.y) >= 0.99

    def test_posterior_is_calibrated(self):
        # among points with posterior near p, about fraction p are positive
        cfg = SynthConfig(n=10_000, m=3, m_informative=1, cluster_separation=2.0, seed=5)
        data, post = synth_generate(cfg)
        for lo in (0.2, 0.4, 0.6):
            mask = (post >= lo) & (post < lo + 0.2)
            if mask.sum() < 200:
                continue
            frac = data.y[mask].mean()
            assert abs(frac - post[mask].mean()) < 0.05

    def test_uninformative_columns_have_matching_class_means(self):
        cfg = SynthConfig(n=5000, m=5, m_informative=2, cluster_separation=5.0, seed=6)
        data, _ = synth_generate(cfg)
        gap = data.X[data.y == 1].mean(axis=0) - data.X[data.y == 0].mean(axis=0)
        assert np.all(np.abs(gap[:2]) > 1.0)
        assert np.all(np.abs(gap[2:]) < 0.2)

    def test_bad_configs(self):
        with pytest.raises(ValidationError):
            SynthConfig(n=10, m=2, m_informative=3)
        with pytest.raises(ValidationError):
            SynthConfig(n=10, m=2, m_informative=1, class_balance=1.0)

    @pytest.mark.parametrize("n, class_balance", [(4, 0.1), (4, 0.9), (10, 0.05), (40, 0.97)])
    def test_class_size_checked_when_constructed(self, n, class_balance):
        # rejected by the config itself, before any data is generated
        with pytest.raises(ValidationError, match="fewer than 2 instances in a class"):
            SynthConfig(n=n, m=2, m_informative=1, class_balance=class_balance)

    def test_smallest_classes_allowed(self):
        data, _ = synth_generate(SynthConfig(n=4, m=2, m_informative=1, class_balance=0.5))
        assert data.class_counts() == (2, 2)

    def test_from_dict(self):
        raw = {"n": 20, "m": 3, "m_informative": 1, "seed": 2}
        assert config_from_dict(SynthConfig, raw, "synth config") == SynthConfig(
            n=20, m=3, m_informative=1, seed=2)

    @pytest.mark.parametrize("raw, match", [
        ([20, 3, 1], "must be a JSON object"),
        ({"n": 20, "m": 3}, r"missing keys \['m_informative'\]"),
        ({"n": 20, "m": 3, "m_informative": 1, "noise": 0.1}, r"unknown keys \['noise'\]"),
        ({"n": "20", "m": 3, "m_informative": 1}, "must be integers"),
        ({"n": 20.5, "m": 3, "m_informative": 1}, "must be integers"),
        ({"n": 20, "m": 3, "m_informative": 1, "class_balance": "x"}, "invalid synth"),
        ({"n": 20, "m": 3, "m_informative": 1, "seed": -1}, "must be nonnegative"),
        ({"n": 20, "m": 3, "m_informative": 1, "cluster_separation": True},
         "finite numbers"),
        ({"n": 20, "m": 3, "m_informative": 1, "cluster_separation": float("nan")},
         "finite numbers"),
        ({"n": 20, "m": 3, "m_informative": 1, "confidence_noise": float("inf")},
         "finite numbers"),
        ({"n": 20, "m": 3, "m_informative": 1, "class_balance": None}, "finite numbers"),
        ({"n": 20, "m": 3, "m_informative": 1, "cluster_separation": 10**400},
         "finite numbers"),
    ])
    def test_from_dict_rejects(self, raw, match):
        with pytest.raises(ValidationError, match=match):
            config_from_dict(SynthConfig, raw, "synth config")


class TestSplit:
    def make(self, n=10):
        y = np.arange(n) % 2
        return Dataset(np.arange(n, dtype=float).reshape(-1, 1), y)

    def test_sizes_even_remainder(self):
        tr, va, te = split(self.make(10), 4, seed=0)
        assert (tr.n, va.n, te.n) == (4, 3, 3)

    def test_sizes_odd_remainder(self):
        tr, va, te = split(self.make(11), 4, seed=0)
        assert (tr.n, va.n, te.n) == (4, 4, 3)

    def test_partition_is_disjoint_and_exhaustive(self):
        for seed in range(100):
            data = self.make(20)
            tr, va, te = split(data, 8, seed=seed)
            seen = np.concatenate([tr.X[:, 0], va.X[:, 0], te.X[:, 0]])
            assert sorted(seen.tolist()) == data.X[:, 0].tolist()

    def test_deterministic(self):
        data = self.make(16)
        a = split(data, 6, seed=3)
        b = split(data, 6, seed=3)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.X, pb.X)

    def test_train_prefix_nesting(self):
        # the first k train rows are the same regardless of train_n
        data = self.make(30)
        tr_small, _, _ = split(data, 5, seed=7)
        tr_big, _, _ = split(data, 12, seed=7)
        assert np.array_equal(tr_big.X[:5], tr_small.X)

    def test_invalid_train_n(self):
        with pytest.raises(ValidationError):
            split(self.make(10), 9, seed=0)
        with pytest.raises(ValidationError):
            split(self.make(10), 0, seed=0)

    def test_confidences_travel_with_rows(self):
        rng = np.random.default_rng(8)
        data = Dataset(rng.normal(size=(12, 2)), [0, 1] * 6, rng.uniform(size=12))
        tr, va, te = split(data, 5, seed=1)
        lookup = {tuple(x): c for x, c in zip(data.X, data.c)}
        for part in (tr, va, te):
            for x, c in zip(part.X, part.c):
                assert lookup[tuple(x)] == c
