"""Parsing, domain validation, splitting, and round-trip serialization."""

import dataclasses
import hashlib
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certrec import ensemble, ratings
from certrec.ratings import ParseError

from conftest import (bench_gen, item_sets, reference_load_split,
                      reference_save_split, reference_save_votes,
                      reference_split_file)


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
        u196 = int(np.searchsorted(m.user_ids, 196))
        assert m.csr[u196].data.tolist() == [3.0, 4.0]

    def test_double_colon(self, tmp_path):
        path = _write(tmp_path, "1::1193::5::978300760\n1::661::3::978302109\n")
        m = ratings.load_ratings(path, "movielens-dat-double-colon")
        assert m.n_users == 1 and m.n_items == 2

    def test_generic_csv_no_timestamp(self, tmp_path):
        path = _write(tmp_path, "1,2,3.5\n2,2,4\n")
        m = ratings.load_ratings(path, "generic-csv")
        assert m.n_users == 2
        assert m.csr[0, np.searchsorted(m.user_ids, 1)] or True  # parses floats
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

    @pytest.mark.parametrize("users,items", [([0, 1, 1], [2, 0, 0]),
                                             ([1, 0, 1], [0, 2, 0])])
    def test_duplicate_cell_refused_in_any_order(self, tmp_path, users, items):
        # cell (1, 0) twice, its rows adjacent or not; the error names the
        # later line, the earlier one and the file's ids (user 11, item 100)
        rows = [f"{u + 10},{i + 100},{score}"
                for u, i, score in zip(users, items, (1, 2, 3))]
        path = _write(tmp_path, "\n".join(rows) + "\n")
        first = list(zip(users, items)).index((1, 0)) + 1
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: line 3: duplicate rating of user 11, item 100 "
                f"(first on line {first})")):
            ratings.load_ratings(path, "generic-csv")

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
        m = ratings.random_matrix(12, 10, seed=3)
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

    def test_cell_order_does_not_change_the_csr(self):
        # ascending cells skip the sort; any other order is sorted first
        m = ratings.random_matrix(9, 7, seed=6)
        csr = m.csr
        users = np.repeat(np.arange(9), np.diff(csr.indptr))
        order = np.random.default_rng(0).permutation(csr.nnz)
        for pick in (np.arange(csr.nnz), order):
            got = ratings._build_matrix(users[pick], csr.indices[pick],
                                        csr.data[pick], m.domain,
                                        user_ids=m.user_ids,
                                        item_ids=m.item_ids).csr
            for part in ("data", "indices", "indptr"):
                a, b = getattr(got, part), getattr(csr, part)
                assert a.dtype == b.dtype and np.array_equal(a, b), part

    def test_deterministic_per_seed(self):
        m = ratings.random_matrix(10, 8, seed=5)
        a = ratings.split_train_test(m, 0.75, seed=9)
        b = ratings.split_train_test(m, 0.75, seed=9)
        c = ratings.split_train_test(m, 0.75, seed=10)
        assert (a[0].csr != b[0].csr).nnz == 0
        assert all(a[1][u].tolist() == b[1][u].tolist() for u in range(10))
        assert any(a[1][u].tolist() != c[1][u].tolist() for u in range(10))

    def test_fraction_bounds(self):
        m = ratings.random_matrix(4, 6, seed=0)
        with pytest.raises(ValueError):
            ratings.split_train_test(m, 0.0, seed=0)
        with pytest.raises(ValueError):
            ratings.split_train_test(m, 1.5, seed=0)


class TestSplitRoundTrip:
    def test_save_load_identical(self, tmp_path):
        m = ratings.random_matrix(9, 7, seed=11)
        train, tests = ratings.split_train_test(m, 0.7, seed=4)
        path = str(tmp_path / "split.txt")
        ratings.save_split(path, train, tests, seed=4, fraction=0.7)
        train2, tests2, meta = ratings.load_split(path)
        assert meta["seed"] == 4 and meta["fraction"] == 0.7
        assert (train.csr != train2.csr).nnz == 0
        for u in range(9):
            assert tests[u].tolist() == tests2[u].tolist()

    def test_save_is_byte_stable(self, tmp_path):
        m = ratings.random_matrix(6, 6, seed=2)
        train, tests = ratings.split_train_test(m, 0.75, seed=0)
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        ratings.save_split(p1, train, tests, 0, 0.75)
        ratings.save_split(p2, train, tests, 0, 0.75)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_v2_bytes_pinned(self, tmp_path):
        # a change to the v2 layout (header keys, dtypes, byte or row order)
        # changes these bytes
        train, tests = ratings.split_train_test(ratings.random_matrix(6, 5, seed=3),
                                                0.6, seed=1)
        path = tmp_path / "split.bin"
        ratings.save_split(str(path), train, tests, 1, 0.6)
        data = path.read_bytes()
        assert data.startswith(b"#split v2 n=6 m=5 seed=1 fraction=0.6 train=")
        assert hashlib.blake2b(data, digest_size=8).hexdigest() == "6a826ebcb78066e1"

    @pytest.mark.parametrize("version", [1, 2])
    def test_digest_is_of_the_v2_body(self, tmp_path, version):
        # whichever the file's version and row order, the digest is that of
        # the body save_split writes: v2 rows in CSR order, tests by user
        train, tests = ratings.split_train_test(ratings.random_matrix(6, 5, seed=3),
                                                0.6, seed=1)
        v2 = str(tmp_path / "split-v2")
        reference_save_split(v2, train, tests, 1, 0.6, 2)
        body = open(v2, "rb").read().partition(b"\n")[2]
        want = hashlib.blake2b(body, digest_size=8).hexdigest()
        path = str(tmp_path / "split")
        reference_save_split(path, train, tests, 1, 0.6, version)
        assert ratings.split_digest(*ratings.load_split(path)[:2]) == want
        # the same rows, test rows first and train rows backwards
        rows = [(u, int(i), float(sc)) for u in range(train.n_users)
                for i, sc in zip(train.rated_items(u), train.csr[u].data)]
        held = [(u, int(i)) for u in range(len(tests)) for i in tests[u]]
        moved = str(tmp_path / "moved")
        reference_split_file(moved, 6, 5, rows[::-1], held[::-1], version, 1, 0.6)
        assert open(moved, "rb").read() != open(path, "rb").read()
        assert ratings.split_digest(*ratings.load_split(moved)[:2]) == want
        assert ratings.split_digest(train, tests) == want

    def test_failed_write_leaves_previous_split(self, tmp_path, monkeypatch):
        matrix = ratings.random_matrix(8, 6, seed=4)
        path = str(tmp_path / "split.bin")
        ratings.save_split(path, *ratings.split_train_test(matrix, 0.75, seed=0),
                           0, 0.75)
        before = open(path, "rb").read()

        def fail(fd):
            raise OSError("device lost")
        monkeypatch.setattr(os, "fsync", fail)  # the new bytes are written
        with pytest.raises(OSError, match="device lost"):
            ratings.save_split(path, *ratings.split_train_test(matrix, 0.5, seed=1),
                               1, 0.5)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["split.bin"]

    def test_wide_shape_refused(self, tmp_path):
        train, tests = ratings.split_train_test(ratings.random_matrix(4, 4, seed=0),
                                                0.75, seed=0)
        # the writer refuses before it reads the matrix
        wide = ratings.RatingMatrix(2**31, 4, train.csr, train.domain,
                                    train.user_ids, train.item_ids)
        with pytest.raises(ValueError, match="n=2147483648 does not fit in int32"):
            ratings.save_split(str(tmp_path / "s"), wide, tests, 0, 0.75)
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("row, match", [
        pytest.param(row, "line 4: test cell", id=row)
        for row in ("test,-1,0", "test,2,0", "test,0,2")] + [
        pytest.param("train,0,1,nan", "line 4: train score", id="nan"),
        pytest.param("train,0,1,inf", "line 4: train score", id="inf"),
        pytest.param("train,0,1,0.0", "line 4: train score", id="zero"),
        pytest.param("test,0,1\ntest,0,1", r"line 5: repeated test cell \(0, 1\)",
                     id="repeated"),
        pytest.param("test,1,1", r"test cell \(1, 1\) is also a train rating",
                     id="train-and-test")] + [
        pytest.param(row, rf"line 4: train cell \({cell}\) outside the 2 x 2 matrix",
                     id=f"train-{cell}")
        for row, cell in (("train,5,1,2.0", "5, 1"), ("train,-1,0,2.0", "-1, 0"),
                          ("train,0,2,1.0", "0, 2"))] + [
        pytest.param("train,1,1,4.0", r"line 4: repeated train cell \(1, 1\)",
                     id="train-repeated")])
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

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_v1_line_ends(self, tmp_path, end):
        # universal newlines: the header and every row end at LF, CRLF or CR
        p = tmp_path / "split.txt"
        p.write_bytes(end.join(["#split v1 n=2 m=2 seed=0 fraction=0.75",
                                "train,0,0,5.0", "test,0,1", "train,1,1,3.0",
                                ""]).encode())
        train, tests, header = ratings.load_split(str(p))
        assert train.csr.toarray().tolist() == [[5.0, 0.0], [0.0, 3.0]]
        assert (tests.indptr.tolist(), tests.items.tolist()) == ([0, 1, 1], [1])
        assert header == {"n": 2, "m": 2, "seed": 0, "fraction": 0.75}

    def test_v1_body_not_utf8_refused(self, tmp_path):
        p = tmp_path / "split.txt"
        p.write_bytes(b"#split v1 n=2 m=2 seed=0 fraction=0.75\n"
                      b"train,0,0,5.0\ntest,1,\xff\n")
        with pytest.raises(ParseError, match="codec can't decode") as err:
            ratings.load_split(str(p))
        assert str(err.value).startswith(f"{p}: ")

    def test_save_matches_row_by_row_writer(self, tmp_path):
        # the v2 bytes are the row-by-row v2 writer's, and they load to the
        # split that the same split's v1 text loads to
        for matrix in (ratings.random_matrix(9, 7, seed=5), ratings._build_matrix(
                *bench_gen.ml100k_shaped(0), ratings._ML_DOMAIN)):
            train, tests = ratings.split_train_test(matrix, 0.75, seed=2)
            p1, p2, p3 = (str(tmp_path / name) for name in "abc")
            ratings.save_split(p1, train, tests, 2, 0.75)
            reference_save_split(p2, train, tests, 2, 0.75, version=2)
            assert open(p1, "rb").read() == open(p2, "rb").read()
            reference_save_split(p3, train, tests, 2, 0.75, version=1)
            assert _outcome(ratings.load_split, p1) == _outcome(ratings.load_split, p3)

    @pytest.mark.parametrize("train_rows, test_rows, match", [
        pytest.param([], [row], "test cell", id=f"test-{row}")
        for row in ((-1, 0), (2, 0), (0, 2))] + [
        pytest.param([(0, 1, score)], [], f"train row 3: train score must be "
                     f"nonzero and finite, got {score!r}", id=str(score))
        for score in (float("nan"), float("inf"), 0.0)] + [
        pytest.param([], [(0, 1), (0, 1)], r"duplicate test cell \(0, 1\)",
                     id="repeated"),
        pytest.param([], [(1, 1)], r"test cell \(1, 1\) is also a train rating",
                     id="train-and-test")] + [
        pytest.param([row], [], rf"train cell \({row[0]}, {row[1]}\) outside "
                     "the 2 x 2 matrix", id=f"train-{row[:2]}")
        for row in ((5, 1, 2.0), (-1, 0, 2.0), (0, 2, 1.0))] + [
        pytest.param([(1, 1, 4.0)], [], r"duplicate train cell \(1, 1\)",
                     id="train-repeated")])
    def test_v2_refuses_what_v1_refuses(self, tmp_path, train_rows, test_rows,
                                        match):
        # the rows of test_test_cell_outside_matrix_rejected, as v2 rows
        rows = [(0, 0, 5.0), (1, 1, 3.0)] + train_rows
        for version in (1, 2):
            p = tmp_path / f"split-v{version}"
            reference_split_file(str(p), 2, 2, rows, test_rows, version)
            with pytest.raises(ParseError) as err:
                ratings.load_split(str(p))
            assert str(err.value).startswith(f"{p}: ")
        assert re.search(match, str(err.value))

    @pytest.mark.parametrize("size", [32, 16, 37, 39, 48], ids=[
        "cut-test-row", "cut-train-row", "cut-mid-row", "cut-one-byte",
        "extra-row"])
    def test_v2_body_of_wrong_length_refused(self, tmp_path, size):
        # two train rows of 16 bytes, then one test row of 8
        path = tmp_path / "split.bin"
        reference_split_file(str(path), 2, 2, [(0, 0, 5.0), (1, 1, 3.0)],
                             [(1, 0)], 2)
        header, _, body = path.read_bytes().partition(b"\n")
        path.write_bytes(header + b"\n" + (body + body)[:size])
        with pytest.raises(ParseError, match=f"body holds {size} bytes, but "
                           "the header's row counts call for 40") as err:
            ratings.load_split(str(path))
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("fields, refused", [
        ("train=-1 test=0", "train=-1 is below 0"),
        ("train=0 test=-2", "test=-2 is below 0")], ids=["train", "test"])
    def test_v2_negative_row_count_refused(self, tmp_path, fields, refused):
        path = tmp_path / "split.bin"
        path.write_bytes(f"#split v2 n=2 m=2 seed=0 fraction=0.75 {fields}\n"
                         .encode())
        with pytest.raises(ParseError, match=f"header field {refused}") as err:
            ratings.load_split(str(path))
        assert str(path) in str(err.value)

    def test_v2_without_row_counts_refused(self, tmp_path):
        path = tmp_path / "split.bin"
        path.write_bytes(b"#split v2 n=2 m=2 seed=0 fraction=0.75 train=0\n")
        with pytest.raises(ParseError, match="malformed split header: 'test'"):
            ratings.load_split(str(path))

    def test_other_kind_or_version_refused(self, tmp_path):
        # a binary split read as votes is refused by its header, not its body
        split = tmp_path / "split.bin"
        ratings.save_split(str(split), *ratings.split_train_test(
            ratings.random_matrix(5, 5, seed=0), 0.6, seed=0), 0, 0.6)
        v3 = tmp_path / "v3.bin"
        v3.write_bytes(b"#split v3 n=1 m=1 seed=0 fraction=0.5\n")
        for load, path, kind in ((ensemble.load_votes, split, "votes"),
                                 (ratings.load_split, v3, "split")):
            with pytest.raises(ParseError, match=f"bad header, expected '#{kind} "
                               f"v1 ' or '#{kind} v2 '") as err:
                load(str(path))
            assert str(err.value).startswith(f"{path}: ")

    def test_header_mismatch_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("#votes v1 n=2 m=2 T=1 s=1 nprime=1 algo=ir seed=0\n")
        with pytest.raises(ParseError):
            ratings.load_split(str(p))

    @pytest.mark.parametrize("n, m, refused", [
        (-1, 2, "n=-1 is below 0"),   # loaded as a split of no users
        (2, -1, "m=-1 is below 0"),
        (-3, -3, "n=-3 is below 0")], ids=["n", "m", "n-m"])
    def test_negative_shape_refused(self, tmp_path, n, m, refused):
        p = tmp_path / "split.txt"
        p.write_text(f"#split v1 n={n} m={m} seed=0 fraction=0.75\n")
        with pytest.raises(ParseError, match=f"header field {refused}") as err:
            ratings.load_split(str(p))
        assert str(p) in str(err.value)
        p.write_bytes(f"#split v2 n={n} m={m} seed=0 fraction=0.75 train=0 "
                      f"test=0\n".encode())
        with pytest.raises(ParseError, match=f"header field {refused}") as err:
            ratings.load_split(str(p))
        assert str(p) in str(err.value)


def test_item_sets_rows():
    # rows in build order, empty rows anywhere; nonempty() keeps the items
    sets = ratings.ItemSets.from_pairs(np.array([1, 1, 1, 3]),
                                       np.array([7, 2, 5, 0]), 5)
    assert (len(sets), sets.indptr.tolist()) == (5, [0, 0, 3, 3, 4, 4])
    assert [sets[u].tolist() for u in range(5)] == [[], [7, 2, 5], [], [0], []]
    assert [sets.size(u) for u in range(5)] == sets.sizes.tolist() == [0, 3, 0, 1, 0]
    users, rows = sets.nonempty()
    assert users.tolist() == [1, 3]
    assert (rows.indptr.tolist(), rows.items.tolist()) == ([0, 3, 4], [7, 2, 5, 0])
    none = ratings.ItemSets.from_pairs(np.zeros(0, np.int64), [], 2)
    users, rows = none.nonempty()
    assert (users.tolist(), rows.indptr.tolist(), len(rows)) == ([], [0], 0)


def test_v1_and_v2_load_identically(tmp_path):
    # pipeline-ml100k seed 0's split and paper-scale votes on its unrated cells
    matrix = ratings._build_matrix(*bench_gen.ml100k_shaped(0), ratings._ML_DOMAIN)
    train, tests = ratings.split_train_test(matrix, 0.75, seed=0)
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 40, size=(train.n_users, train.n_items))
    counts[train.csr.toarray() != 0] = 0
    counts[rng.random(counts.shape) < 0.9] = 0
    vc = ensemble.VoteCounts(T=10000, n_prime=1, s=200, master_seed=0, algo="ir",
                             counts=counts.astype(np.int32), params="4ddb2261daf499ee")
    loaded = {}
    for version in (1, 2):
        split, votes = str(tmp_path / f"split-v{version}"), str(tmp_path / f"votes-v{version}")
        if version == 1:  # the v1 split's text, the row-by-row v2 votes
            reference_save_split(split, train, tests, 0, 0.75)
            reference_save_votes(votes, vc)
        else:
            ratings.save_split(split, train, tests, 0, 0.75)
            ensemble.save_votes(votes, vc)
        back = ensemble.load_votes(votes)
        loaded[version] = (_outcome(ratings.load_split, split),
                           dataclasses.replace(back, counts=None),
                           back.counts.dtype, back.counts.tobytes())
    assert loaded[1] == loaded[2]
    # both load to the held-out sets' own row pointers and items
    assert loaded[2][0][-1] == _sets_outcome(tests)
    assert loaded[2][0][-2] == {"n": 943, "m": 1682, "seed": 0, "fraction": 0.75}
    assert loaded[2][1] == dataclasses.replace(vc, counts=None)
    assert loaded[2][3] == vc.counts.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(2, 10), st.integers(0, 99))
def test_split_never_empties_a_user(n, m, seed):
    mat = ratings.random_matrix(n, m, seed=seed, density=0.5)
    train, _ = ratings.split_train_test(mat, 0.75, seed=seed)
    for u in range(n):
        assert train.rating_count(u) >= 1


# --- parity with the line-by-line reference loader on random splits


_SCORES = st.one_of(
    st.integers(-6, 6).filter(bool).map(float),
    st.sampled_from([5e-324, -5e-324, 1e308, -1e308, 0.5, -2.75, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False).filter(bool))

# rows the loaders refuse, or that only the line loop parses
_ODD_ROWS = ["train,{n},0,1.0", "train,0,{m},2.0", "train,-1,0,1.0",
             "test,{n},0", "test,0,-1", "train,0,0,0.0", "train,0,0,nan",
             "train,0,0,-inf", "train,0,0,1e999", "train,0,0", "test,0",
             "test,0,0,0", "tset,0,0", "train,", "test,", "train,0,0,1_5",
             "train,+0,0,2e0", "train,0,0,1.5,", "train,0x1,0,1.0",
             "test,0,0 0", "train,0,0,1.5e", "train,9223372036854775808,0,1.0"]


@st.composite
def _split_files(draw):
    """A random split (integer and float scores, users without train or
    test rows, possibly no test row at all), the layout its file is moved
    into, and sometimes one odd row to add."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1),
                                    st.one_of(st.none(), _SCORES)),
                          unique_by=lambda c: c[:2], max_size=n * m))
    train_cells = sorted(c for c in cells if c[2] is not None)
    train = ratings._build_matrix(
        [c[0] for c in train_cells], [c[1] for c in train_cells],
        [c[2] for c in train_cells], ratings.RatingDomain(-1.0, 1.0, False),
        user_ids=np.arange(n), item_ids=np.arange(m))
    tests = item_sets(sorted(i for v, i, sc in cells if v == u and sc is None)
                      for u in range(n))
    layout = draw(st.sampled_from(["written", "test-first", "interleaved",
                                   "crlf", "blank-lines", "spaces"]))
    # "copy": a copy of one of the file's rows
    odd = draw(st.one_of(st.none(), st.just("copy"), st.sampled_from(_ODD_ROWS)))
    return n, m, train, tests, layout, odd, draw(st.randoms(use_true_random=False))


def _layout(text: str, layout: str, rng) -> str:
    header, *rows = text.split("\n")[:-1]
    train = [r for r in rows if r.startswith("train")]
    test = [r for r in rows if r.startswith("test")]
    if layout == "test-first":
        rows = test + train
    elif layout == "interleaved":
        rng.shuffle(rows)
    elif layout == "blank-lines":
        rows = [x for r in rows for x in ((r, "", "  \t") if rng.random() < 0.5 else (r,))]
    elif layout == "spaces":
        rows = [" " + r.replace(",", " , ").replace("train , ", "train,")
                .replace("test , ", "test,") + "  " for r in rows]
    out = "\n".join([header] + rows) + "\n"
    return out.replace("\n", "\r\n") if layout == "crlf" else out


def _outcome(load, path):
    try:
        train, tests, header = load(path)
    except ParseError as exc:
        return "refused", str(exc)
    csr = train.csr
    return ("loaded", csr.data.tobytes(), csr.indices.tobytes(), csr.indptr.tobytes(),
            csr.data.dtype, csr.indices.dtype, csr.indptr.dtype, csr.shape,
            train.domain, header, _sets_outcome(tests))


def _sets_outcome(sets):
    return (sets.indptr.dtype, sets.indptr.tolist(), sets.items.dtype,
            sets.items.tolist())


@settings(max_examples=300, deadline=None)
@given(_split_files())
def test_load_split_matches_line_loop(tmp_path_factory, case):
    n, m, train, tests, layout, odd, rng = case
    root = tmp_path_factory.mktemp("parity")
    path = root / "split.txt"
    reference_save_split(str(path), train, tests, 3, 0.75)
    text = _layout(path.read_text(), layout, rng)
    if odd is not None:
        lines = text.split("\n")
        row = (rng.choice(lines[1:-1] or ["test,0,0"]) if odd == "copy"
               else odd.format(n=n, m=m))
        lines.insert(rng.randint(1, len(lines) - 1), row)
        text = "\n".join(lines)
    path.write_bytes(text.encode())
    got = _outcome(ratings.load_split, str(path))
    assert got == _outcome(reference_load_split, str(path))
    if odd is None:
        assert got[0] == "loaded"
        assert got[-1] == _sets_outcome(tests)
        assert got[-1][::2] == (np.dtype(np.int64),) * 2
        assert (got[1], got[2], got[3]) == (train.csr.data.tobytes(),
                                            train.csr.indices.tobytes(),
                                            train.csr.indptr.tobytes())
        # v2 bytes of the same split load to the same outcome
        ratings.save_split(str(root / "split.bin"), train, tests, 3, 0.75)
        assert _outcome(ratings.load_split, str(root / "split.bin")) == got


# rows a v2 body can hold that the loaders refuse: (kind, row)
_ODD_V2_ROWS = [("train", ("n", 0, 1.0)), ("train", (0, "m", 2.0)),
                ("train", (-1, 0, 1.0)), ("test", ("n", 0)), ("test", (0, -1)),
                ("train", (0, 0, 0.0)), ("train", (0, 0, float("nan"))),
                ("train", (0, 0, -float("inf"))), ("train", (0, 0, -0.0))]


@settings(max_examples=200, deadline=None)
@given(_split_files())
def test_v2_load_matches_line_loop(tmp_path_factory, case):
    # the same rows, as v2 and as v1 text, load to the same split or are
    # both refused, the v2 error naming the file
    n, m, train, tests, _, odd, rng = case
    rows = {"train": [(u, int(i), float(sc)) for u in range(n) for i, sc in
                      zip(train.rated_items(u), train.csr[u].data)],
            "test": [(u, int(i)) for u in range(n) for i in tests[u]]}
    if odd is not None:
        kinds = [kind for kind in rows if rows[kind]]
        if odd == "copy" and kinds:
            kind = rng.choice(kinds)
            row = rng.choice(rows[kind])
        else:
            kind, row = rng.choice(_ODD_V2_ROWS)
            row = tuple({"n": n, "m": m}.get(x, x) for x in row)
        rows[kind].insert(rng.randint(0, len(rows[kind])), row)
    root = tmp_path_factory.mktemp("v2parity")
    got = []
    for version in (1, 2):
        path = str(root / f"split-v{version}")
        reference_split_file(path, n, m, rows["train"], rows["test"], version, 3)
        got.append(_outcome(ratings.load_split, path))
    assert got[0][0] == got[1][0]
    if got[1][0] == "loaded":
        assert got[0] == got[1]
    else:
        assert got[1][1].startswith(f"{root / 'split-v2'}: ")
