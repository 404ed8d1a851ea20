import numpy as np
import pytest
from hypothesis import given, strategies as st

from stackga import dataset as dataset_module
from stackga.dataset import (
    Dataset,
    PIMA_SCHEMA,
    Schema,
    clip_outliers,
    impute_median,
    load_csv,
    make_folds,
    select_features,
    shuffle_split,
    write_csv,
)
from stackga.errors import DataError

TWO_COL = Schema(("x", "label"), 1)


def simple_ds(values, labels, zero_missing=(0,)):
    schema = Schema(("x", "label"), 1, frozenset(zero_missing))
    return Dataset(np.array(values, float).reshape(-1, 1), np.array(labels), schema)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            Schema(("a", "a", "label"), 2)

    def test_label_cannot_be_zero_missing(self):
        with pytest.raises(DataError):
            Schema(("a", "label"), 1, frozenset({1}))

    def test_feature_index_skips_label(self):
        assert PIMA_SCHEMA.feature_index(0) == 0
        assert PIMA_SCHEMA.feature_index(7) == 7
        assert PIMA_SCHEMA.zero_missing_feature_indices == (1, 2, 3, 4, 5)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            Schema(("a", "b"), 5)


class TestLoadCsv:
    def test_pima_shaped_file(self, pima_csv, pima_like):
        ds = load_csv(pima_csv, PIMA_SCHEMA, has_header=True)
        assert ds.n_samples == 768
        assert ds.n_features == 8
        assert set(np.unique(ds.labels)) <= {0, 1}
        np.testing.assert_array_equal(ds.labels, pima_like.labels)

    def test_single_row(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("1,0\n")
        ds = load_csv(p, TWO_COL)
        assert ds.n_samples == 1 and ds.n_features == 1
        assert ds.features[0, 0] == 1.0 and ds.labels[0] == 0

    def test_short_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,0\n" + ",".join(["1"] * 8) + "\n")
        schema = Schema(("a", "b", "label"), 2)
        with pytest.raises(DataError, match="line 2"):
            load_csv(p, schema)

    def test_non_binary_label(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n")
        with pytest.raises(DataError, match="label"):
            load_csv(p, TWO_COL)

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("oops,0\n")
        with pytest.raises(DataError, match=r"line 1.*column 1.*x"):
            load_csv(p, TWO_COL)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError):
            load_csv(p, TWO_COL)

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("wrong,label\n1,0\n")
        with pytest.raises(DataError, match="header"):
            load_csv(p, TWO_COL, has_header=True)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        p = tmp_path / "bad.csv"
        p.write_text(f"a,b,label\n1,2,0\n\n3,{cell},1\n")
        schema = Schema(("a", "b", "label"), 2)
        with pytest.raises(DataError, match=r"line 4: column 2 \(b\): non-finite"):
            load_csv(p, schema, has_header=True)

    def test_non_finite_cell_after_label_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0,1,2\n1,4,nan\n")
        schema = Schema(("label", "a", "b"), 0)
        with pytest.raises(DataError, match=r"line 2: column 3 \(b\)"):
            load_csv(p, schema)

    def test_row_order_preserved(self, tmp_path):
        p = tmp_path / "rows.csv"
        p.write_text("3,1\n1,0\n2,1\n")
        ds = load_csv(p, TWO_COL)
        np.testing.assert_array_equal(ds.features[:, 0], [3, 1, 2])


THREE_COL = Schema(("a", "b", "label"), 2)


def _load_line_by_line(path, schema, has_header=False):
    """`load_csv` with the block parse turned off: every line through the
    line-by-line parser."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset_module, "_parse_blocks", lambda lines, schema: None)
        return load_csv(path, schema, has_header)


def _assert_same_dataset(a, b):
    for name in ("features", "labels", "row_ids"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), name
    assert a.schema == b.schema


class TestCsvBlockParse:
    """The block parser reads clean files exactly as the line-by-line parser
    does, and leaves every located error to it."""

    CLEAN = {
        "plain": "1,2,0\n3.5,-4e-3,1\n0,0,0\n",
        "blank_lines": "\n1,2,0\n\n3,4,1\n\n\n5,6,0\n\n",
        "whitespace_lines": "1,2,0\n   \n3,4,1\n\t\n5,6,1\n",
        "padded_cells": " 1 ,\t2, 0\n3,  4.25  ,1 \n",
        "negative_zero_label": "1,2,-0\n3,4,1.0\n",
        "no_trailing_newline": "1,2,0\n3,4,1",
        "crlf": "1,2,0\r\n3,4,1\r\n",
    }

    @pytest.mark.parametrize("block_lines", [1, 2, 3, 4096])
    @pytest.mark.parametrize("case", sorted(CLEAN))
    def test_clean_files_match_the_line_parser(self, tmp_path, monkeypatch, case, block_lines):
        p = tmp_path / "clean.csv"
        p.write_text("a,b,label\n" + self.CLEAN[case], newline="")
        monkeypatch.setattr(dataset_module, "_BLOCK_LINES", block_lines)
        lines = p.read_text().splitlines()[1:]
        assert dataset_module._parse_blocks(lines, THREE_COL) is not None  # no fallback
        _assert_same_dataset(load_csv(p, THREE_COL, has_header=True),
                             _load_line_by_line(p, THREE_COL, has_header=True))

    def test_a_large_file_across_block_boundaries(self, tmp_path, monkeypatch, pima_like):
        p = tmp_path / "pima.csv"
        write_csv(pima_like, p)
        text = p.read_text().splitlines()
        text[10:10] = ["", "  "]  # blank lines inside the first block
        p.write_text("\n".join(text) + "\n")
        monkeypatch.setattr(dataset_module, "_BLOCK_LINES", 100)
        _assert_same_dataset(load_csv(p, PIMA_SCHEMA, has_header=True),
                             _load_line_by_line(p, PIMA_SCHEMA, has_header=True))

    # each message as the line-by-line parser words it, line and column included
    MALFORMED = [
        ("1,2,0\n3,4\n", False, "line 2: expected 3 fields, found 2"),
        ("1,2,0\n3,4,1,5\n", False, "line 2: expected 3 fields, found 4"),
        # the field counts add up to two rows, but no line holds one
        ("1,2,0,5\n3,4\n", False, "line 1: expected 3 fields, found 4"),
        ("1,2,0\n3,4,1\n5,x,1\n", False,
         "line 3: column 2 (b): cannot parse 'x' as a number"),
        ("1,,0\n", False, "line 1: column 2 (b): cannot parse '' as a number"),
        ("1,2,0\n3,4,2\n", False, "line 2: label must be 0 or 1, found 2.0"),
        ("1,2,nan\n", False, "line 1: label must be 0 or 1, found nan"),
        ("1,2,0\n3,nan,1\n", False, "line 2: column 2 (b): non-finite value nan"),
        ("1,2,0\n-inf,4,1\n", False, "line 2: column 1 (a): non-finite value -inf"),
        ("1,2,0\n\n\n3,Infinity,1\n", True,
         "line 5: column 2 (b): non-finite value inf"),
        ("\n  \n1,2,0\n\n3,4\n", False, "line 5: expected 3 fields, found 2"),
        ("1,2,0\n\n3,oops,1\n", True, "line 4: column 2 (b): cannot parse 'oops' as a number"),
        # a parse error anywhere comes before a non-finite cell earlier in the file
        ("1,inf,0\n3,4,1\n5,6,7\n", False, "line 3: label must be 0 or 1, found 7.0"),
        ("\n \n", False, "{path}: no data rows"),
    ]

    @pytest.mark.parametrize("block_lines", [1, 2, 4096])
    @pytest.mark.parametrize("text,header,message", MALFORMED)
    def test_malformed_files_raise_the_located_error(self, tmp_path, monkeypatch, block_lines,
                                                     text, header, message):
        p = tmp_path / "bad.csv"
        p.write_text(("a,b,label\n" if header else "") + text)
        monkeypatch.setattr(dataset_module, "_BLOCK_LINES", block_lines)
        with pytest.raises(DataError) as err:
            load_csv(p, THREE_COL, has_header=header)
        assert str(err.value) == message.format(path=p)

    def test_header_mismatch_message(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a, c ,label\n1,2,0\n")
        with pytest.raises(DataError) as err:
            load_csv(p, THREE_COL, has_header=True)
        assert str(err.value) == (f"{p}: header ('a', 'c', 'label') does not match "
                                  f"schema columns ('a', 'b', 'label')")


class TestWriteCsv:
    def test_round_trip_is_byte_stable(self, tmp_path, pima_like):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_csv(pima_like, p1)
        again = load_csv(p1, PIMA_SCHEMA, has_header=True)
        write_csv(again, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestImpute:
    def test_median_of_nonzero(self):
        ds = impute_median(simple_ds([0, 2, 4, 6], [0, 1, 0, 1]))
        np.testing.assert_array_equal(ds.features[:, 0], [4, 2, 4, 6])

    def test_column_without_zeros_unchanged(self):
        ds = impute_median(simple_ds([1, 2, 3], [0, 1, 0]))
        np.testing.assert_array_equal(ds.features[:, 0], [1, 2, 3])

    def test_all_zero_column_errors(self):
        with pytest.raises(DataError, match="all zeros"):
            impute_median(simple_ds([0, 0, 0], [0, 1, 0]))

    def test_undeclared_column_untouched(self):
        ds = impute_median(simple_ds([0, 2, 4], [0, 1, 0], zero_missing=()))
        np.testing.assert_array_equal(ds.features[:, 0], [0, 2, 4])

    def test_labels_untouched(self):
        ds = impute_median(simple_ds([0, 2, 4, 6], [0, 1, 0, 1]))
        np.testing.assert_array_equal(ds.labels, [0, 1, 0, 1])

    @given(st.lists(st.integers(0, 50), min_size=3, max_size=40))
    def test_idempotent(self, values):
        if all(v == 0 for v in values):
            return
        ds = simple_ds(values, [i % 2 for i in range(len(values))])
        once = impute_median(ds)
        twice = impute_median(once)
        np.testing.assert_array_equal(once.features, twice.features)


class TestClip:
    def test_outlier_replaced_by_median(self):
        ds, counts = clip_outliers(simple_ds([1, 2, 2, 3, 100], [0, 1, 0, 1, 0]), 1.5)
        np.testing.assert_array_equal(ds.features[:, 0], [1, 2, 2, 3, 2])
        assert counts[0] == 1

    def test_constant_column_unchanged(self):
        ds, counts = clip_outliers(simple_ds([5, 5, 5, 5], [0, 1, 0, 1]), 1.5)
        np.testing.assert_array_equal(ds.features[:, 0], [5, 5, 5, 5])
        assert counts[0] == 0

    def test_huge_multiplier_keeps_everything(self):
        values = [1, 2, 3, 4, 1000]
        ds, counts = clip_outliers(simple_ds(values, [0, 1, 0, 1, 0]), 1e9)
        np.testing.assert_array_equal(ds.features[:, 0], values)
        assert counts[0] == 0

    def test_nonpositive_multiplier_rejected(self):
        with pytest.raises(ValueError):
            clip_outliers(simple_ds([1, 2, 3], [0, 1, 0]), 0.0)


class TestShuffleSplit:
    def test_pima_seventy_thirty(self, pima_like):
        tr, te = shuffle_split(pima_like, 0.7, seed=0)
        assert tr.n_samples == 538 and te.n_samples == 230

    def test_exact_fractions(self):
        ds = simple_ds(range(1, 11), [i % 2 for i in range(10)])
        tr, te = shuffle_split(ds, 0.7, seed=1)
        assert tr.n_samples == 7 and te.n_samples == 3

    def test_same_seed_same_partition(self, pima_like):
        a = shuffle_split(pima_like, 0.7, seed=3)
        b = shuffle_split(pima_like, 0.7, seed=3)
        np.testing.assert_array_equal(a[0].row_ids, b[0].row_ids)
        np.testing.assert_array_equal(a[1].row_ids, b[1].row_ids)

    def test_empty_partition_rejected(self):
        ds = simple_ds([1, 2], [0, 1])
        with pytest.raises(DataError):
            shuffle_split(ds, 0.1, seed=0)

    @given(st.integers(0, 1000), st.floats(0.2, 0.8))
    def test_partition_property(self, seed, fraction):
        ds = simple_ds(range(37), [i % 2 for i in range(37)])
        tr, te = shuffle_split(ds, fraction, seed)
        combined = sorted(np.concatenate([tr.row_ids, te.row_ids]).tolist())
        assert combined == list(range(37))


class TestMakeFolds:
    def test_pima_ten_folds(self, pima_like):
        plan = make_folds(pima_like, 10, stratified=True, seed=0)
        sizes = np.bincount(plan.assignments, minlength=10)
        assert set(sizes.tolist()) <= {76, 77}

    def test_one_sample_per_fold(self):
        ds = simple_ds([1, 2, 3, 4], [0, 1, 0, 1])
        plan = make_folds(ds, 4, stratified=False, seed=0)
        assert np.bincount(plan.assignments, minlength=4).tolist() == [1, 1, 1, 1]

    def test_k_of_one_rejected(self, pima_like):
        with pytest.raises(DataError):
            make_folds(pima_like, 1)

    def test_k_above_n_rejected(self):
        ds = simple_ds([1, 2, 3], [0, 1, 0])
        with pytest.raises(DataError):
            make_folds(ds, 4)

    @given(st.integers(0, 500), st.integers(2, 10), st.booleans())
    def test_cover_and_balance(self, seed, k, stratified):
        n = 53
        ds = simple_ds(range(n), [(i * 7) % 3 == 0 for i in range(n)])
        plan = make_folds(ds, k, stratified=stratified, seed=seed)
        sizes = np.bincount(plan.assignments, minlength=k)
        assert sizes.sum() == n
        assert sizes.max() - sizes.min() <= 1
        if stratified:
            pos = np.bincount(plan.assignments[ds.labels == 1], minlength=k)
            assert pos.max() - pos.min() <= 1

    def test_deterministic(self, pima_like):
        a = make_folds(pima_like, 5, True, seed=9)
        b = make_folds(pima_like, 5, True, seed=9)
        np.testing.assert_array_equal(a.assignments, b.assignments)


class TestDatasetType:
    def test_labels_validated(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), np.array([0, 2]), TWO_COL)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 1)), np.array([0, 1]), TWO_COL)

    def test_immutable_arrays(self, pima_like):
        with pytest.raises(ValueError):
            pima_like.features[0, 0] = 99.0

    def test_select_features_remaps_zero_missing(self, pima_like):
        sub = select_features(pima_like, [1, 4, 7])  # glucose, insulin, age
        assert sub.schema.predictor_names == ("glucose", "insulin", "age")
        assert sub.schema.zero_missing_feature_indices == (0, 1)
        np.testing.assert_array_equal(sub.features[:, 0], pima_like.features[:, 1])

    def test_select_features_none_keeps_all(self, pima_like):
        assert select_features(pima_like, None) is pima_like

    def test_select_features_needs_one(self, pima_like):
        with pytest.raises(ValueError):
            select_features(pima_like, [])
