"""Parsing, domain validation, splitting, and round-trip serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certrec import ratings
from certrec.ratings import ParseError

from conftest import (ml100k_shaped_matrix, random_tiny_matrix,
                      reference_load_split, reference_save_split)


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

    def test_save_matches_row_by_row_writer(self, tmp_path):
        for matrix in (random_tiny_matrix(9, 7, seed=5), ml100k_shaped_matrix(0)):
            train, tests = ratings.split_train_test(matrix, 0.75, seed=2)
            p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
            ratings.save_split(p1, train, tests, 2, 0.75)
            reference_save_split(p2, train, tests, 2, 0.75)
            assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_array_parse_takes_the_written_layout(self, tmp_path, monkeypatch):
        train, tests = ratings.split_train_test(random_tiny_matrix(9, 7, seed=1),
                                                0.7, seed=0)
        path = str(tmp_path / "split.txt")
        ratings.save_split(path, train, tests, 0, 0.7)
        lines = open(path).read().splitlines()
        moved = str(tmp_path / "moved.txt")
        with open(moved, "w") as fh:  # one test row before the train rows
            fh.write("\n".join([lines[0], lines[-1]] + lines[1:-1]) + "\n")
        rescans = []
        real = ratings._line_rows
        monkeypatch.setattr(ratings, "_line_rows",
                            lambda *a: rescans.append(a) or real(*a))
        ratings.load_split(path)
        assert rescans == []
        ratings.load_split(moved)
        assert len(rescans) == 1

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


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(2, 10), st.integers(0, 99))
def test_split_never_empties_a_user(n, m, seed):
    mat = random_tiny_matrix(n, m, seed=seed, density=0.5)
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
    tests = ratings.TestSets(sets=tuple(
        np.array(sorted(i for v, i, sc in cells if v == u and sc is None),
                 dtype=np.int64) for u in range(n)))
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
            train.domain, header, [(t.dtype, t.tolist()) for t in tests.sets])


@settings(max_examples=300, deadline=None)
@given(_split_files())
def test_load_split_matches_line_loop(tmp_path_factory, case):
    n, m, train, tests, layout, odd, rng = case
    path = tmp_path_factory.mktemp("parity") / "split.txt"
    ratings.save_split(str(path), train, tests, 3, 0.75)
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
        assert got[-1] == [(np.dtype(np.int64), t.tolist()) for t in tests.sets]
        assert (got[1], got[2], got[3]) == (train.csr.data.tobytes(),
                                            train.csr.indices.tobytes(),
                                            train.csr.indptr.tobytes())
