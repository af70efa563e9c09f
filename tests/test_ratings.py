"""Parsing, domain validation, splitting, and round-trip serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certrec import ratings
from certrec.ratings import ParseError

from conftest import random_tiny_matrix


def _write(tmp_path, text, name="r.dat"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadRatings:
    def test_movielens_tab(self, tmp_path):
        path = _write(tmp_path, "196\t242\t3\t881250949\n186\t302\t3\t891717742\n"
                                "196\t302\t4\t881250949\n")
        m = ratings.load_ratings(path, "movielens-100k-tab")
        assert m.n_users == 2 and m.n_items == 2
        assert m.n_ratings == 3
        # external ids kept sorted; internal indices are their positions
        assert list(m.user_ids) == [186, 196]
        assert list(m.item_ids) == [242, 302]
        u196 = m.to_internal_user(196)
        assert m.scores_of(u196).tolist() == [3.0, 4.0]

    def test_double_colon(self, tmp_path):
        path = _write(tmp_path, "1::1193::5::978300760\n1::661::3::978302109\n")
        m = ratings.load_ratings(path, "movielens-dat-double-colon")
        assert m.n_users == 1 and m.n_items == 2

    def test_generic_csv_no_timestamp(self, tmp_path):
        path = _write(tmp_path, "1,2,3.5\n2,2,4\n")
        m = ratings.load_ratings(path, "generic-csv")
        assert m.n_users == 2
        assert m.csr[0, m.to_internal_user(1)] or True  # parses floats
        assert float(m.csr.max()) == 4.0

    def test_unknown_format(self, tmp_path):
        path = _write(tmp_path, "1\t2\t3\t4\n")
        with pytest.raises(ValueError, match="unknown format"):
            ratings.load_ratings(path, "nope")

    def test_bad_line_reports_number(self, tmp_path):
        path = _write(tmp_path, "1\t2\t3\t100\nbroken line\n")
        with pytest.raises(ParseError, match="line 2"):
            ratings.load_ratings(path, "movielens-100k-tab")

    def test_out_of_domain_rating(self, tmp_path):
        path = _write(tmp_path, "1\t2\t9\t100\n")
        with pytest.raises(ParseError, match="line 1"):
            ratings.load_ratings(path, "movielens-100k-tab")

    def test_non_integral_movielens_rating(self, tmp_path):
        path = _write(tmp_path, "1\t2\t3.5\t100\n")
        with pytest.raises(ParseError):
            ratings.load_ratings(path, "movielens-100k-tab")

    def test_duplicate_pair_rejected(self, tmp_path):
        path = _write(tmp_path, "1\t2\t3\t100\n1\t2\t4\t100\n")
        with pytest.raises(ParseError, match="duplicate"):
            ratings.load_ratings(path, "movielens-100k-tab")

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(ParseError, match="empty"):
            ratings.load_ratings(path, "movielens-100k-tab")

    def test_bad_timestamp(self, tmp_path):
        path = _write(tmp_path, "1\t2\t3\tnot-a-time\n")
        with pytest.raises(ParseError):
            ratings.load_ratings(path, "movielens-100k-tab")


class TestSplit:
    def test_sizes_and_disjointness(self):
        m = random_tiny_matrix(12, 10, seed=3)
        train, tests = ratings.split_train_test(m, 0.75, seed=0)
        assert train.n_users == m.n_users and train.n_items == m.n_items
        for u in range(m.n_users):
            rated = set(m.rated_items(u).tolist())
            kept = set(train.rated_items(u).tolist())
            held = set(tests[u].tolist())
            assert kept | held == rated
            assert kept & held == set()
            k = int(np.floor(0.75 * len(rated)))
            assert len(kept) == max(k, 1)

    def test_single_rating_user_keeps_it(self):
        dom = ratings.RatingDomain(1.0, 5.0, True)
        m = ratings._build_matrix([0, 1, 1, 1, 1], [0, 0, 1, 2, 3],
                                  [5.0, 1.0, 2.0, 3.0, 4.0], dom)
        train, tests = ratings.split_train_test(m, 0.5, seed=1)
        # floor(0.5*1) = 0 would empty user 0's training row; bumped to 1
        assert train.rating_count(0) == 1
        assert tests.size(0) == 0

    def test_deterministic_per_seed(self):
        m = random_tiny_matrix(10, 8, seed=5)
        a = ratings.split_train_test(m, 0.75, seed=9)
        b = ratings.split_train_test(m, 0.75, seed=9)
        c = ratings.split_train_test(m, 0.75, seed=10)
        assert (a[0].csr != b[0].csr).nnz == 0
        assert all(a[1][u].tolist() == b[1][u].tolist() for u in range(10))
        assert any(a[1][u].tolist() != c[1][u].tolist() for u in range(10))

    def test_fraction_bounds(self):
        m = random_tiny_matrix(4, 6, seed=0)
        with pytest.raises(ValueError):
            ratings.split_train_test(m, 0.0, seed=0)
        with pytest.raises(ValueError):
            ratings.split_train_test(m, 1.5, seed=0)


class TestSplitRoundTrip:
    def test_save_load_identical(self, tmp_path):
        m = random_tiny_matrix(9, 7, seed=11)
        train, tests = ratings.split_train_test(m, 0.7, seed=4)
        path = str(tmp_path / "split.txt")
        ratings.save_split(path, train, tests, seed=4, fraction=0.7)
        train2, tests2, meta = ratings.load_split(path)
        assert meta["seed"] == 4 and meta["fraction"] == 0.7
        assert (train.csr != train2.csr).nnz == 0
        for u in range(9):
            assert tests[u].tolist() == tests2[u].tolist()

    def test_save_is_byte_stable(self, tmp_path):
        m = random_tiny_matrix(6, 6, seed=2)
        train, tests = ratings.split_train_test(m, 0.75, seed=0)
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        ratings.save_split(p1, train, tests, 0, 0.75)
        ratings.save_split(p2, train, tests, 0, 0.75)
        assert open(p1).read() == open(p2).read()

    @pytest.mark.parametrize("row, match", [
        pytest.param(row, "line 4: test cell", id=row)
        for row in ("test,-1,0", "test,2,0", "test,0,2")] + [
        pytest.param("train,0,1,nan", "line 4: train score", id="nan"),
        pytest.param("train,0,1,inf", "line 4: train score", id="inf"),
        pytest.param("train,0,1,0.0", "line 4: train score", id="zero"),
        pytest.param("test,0,1\ntest,0,1", r"line 5: repeated test cell \(0, 1\)",
                     id="repeated"),
        pytest.param("test,1,1", r"test cell \(1, 1\) is also a train rating",
                     id="train-and-test")])
    def test_test_cell_outside_matrix_rejected(self, tmp_path, row, match):
        p = tmp_path / "split.txt"
        p.write_text("#split v1 n=2 m=2 seed=0 fraction=0.75\n"
                     f"train,0,0,5.0\ntrain,1,1,3.0\n{row}\n")
        with pytest.raises(ParseError, match=match) as err:
            ratings.load_split(str(p))
        assert str(p) in str(err.value)

    @pytest.mark.parametrize("row, match", [
        ("test,7", "line 4: expected 3 fields for a test row, got 2"),
        ("train,0,3", "line 4: expected 4 fields for a train row, got 3"),
        ("train,0,1,5.0,2", "line 4: expected 4 fields for a train row, got 5"),
        ("tset,0,1", "line 4: unrecognized row kind 'tset'")],
        ids=["test-2-fields", "train-3-fields", "train-5-fields",
             "unknown-kind"])
    def test_truncated_row_names_its_field_count(self, tmp_path, row, match):
        p = tmp_path / "split.txt"
        p.write_text("#split v1 n=2 m=2 seed=0 fraction=0.75\n"
                     f"train,0,0,5.0\ntrain,1,1,3.0\n{row}\n")
        with pytest.raises(ParseError, match=match):
            ratings.load_split(str(p))

    def test_header_mismatch_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("#votes v1 n=2 m=2 T=1 s=1 nprime=1 algo=ir seed=0\n")
        with pytest.raises(ParseError):
            ratings.load_split(str(p))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(2, 10), st.integers(0, 99))
def test_split_never_empties_a_user(n, m, seed):
    mat = random_tiny_matrix(n, m, seed=seed, density=0.5)
    train, _ = ratings.split_train_test(mat, 0.75, seed=seed)
    for u in range(n):
        assert train.rating_count(u) >= 1
