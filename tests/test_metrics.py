"""Certified and standard metric arithmetic plus serialization."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certrec import metrics

from conftest import item_sets, neumaier_sum


class TestCertified:
    def test_formulas(self):
        p, r, f1 = metrics.certified_metrics(3, N=10, test_size=15)
        assert p == pytest.approx(0.3)
        assert r == pytest.approx(0.2)
        assert f1 == pytest.approx(6 / 25)

    def test_zero_r(self):
        assert metrics.certified_metrics(0, 10, 5) == (0.0, 0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            metrics.certified_metrics(-1, 10, 5)
        with pytest.raises(ValueError):
            metrics.certified_metrics(3, 0, 5)
        with pytest.raises(ValueError):
            metrics.certified_metrics(3, 10, 0)
        with pytest.raises(ValueError):
            metrics.certified_metrics(11, 10, 5)  # r cannot exceed N

    def test_arrays_match_scalars(self):
        # users x e certificates against one size per user: the same doubles
        # as the per-user calls, and the same refusals
        r = np.array([[3, 2, 0], [5, 5, 1], [0, 0, 0]])
        sizes = np.array([[4], [7], [1]])
        floors = metrics.certified_metrics(r, 5, sizes)
        for u in range(3):
            for j in range(3):
                assert tuple(f[u, j] for f in floors) == \
                    metrics.certified_metrics(int(r[u, j]), 5, int(sizes[u, 0]))
        with pytest.raises(ValueError, match="got r=3"):
            metrics.certified_metrics(r, 5, np.array([[2], [7], [1]]))
        with pytest.raises(ValueError, match="test_size must be positive"):
            metrics.certified_metrics(r, 5, np.array([[4], [0], [1]]))

    @given(st.integers(0, 10), st.integers(1, 30))
    @settings(max_examples=50, deadline=None)
    def test_certified_under_standard_harmonic(self, r, test_size):
        # f1 floor is the harmonic mean of the floors
        r = min(r, 10, test_size)
        p, rec, f1 = metrics.certified_metrics(r, 10, test_size)
        if p + rec > 0:
            assert f1 == pytest.approx(2 * p * rec / (p + rec))
        else:
            assert f1 == 0.0


class TestStandard:
    def test_hits(self):
        p, r, f1 = metrics.standard_metrics(item_sets([[1, 2, 3, 4]]),
                                            item_sets([[2, 4, 9]]), N=4).T
        assert p.tolist() == [2 / 4] and r.tolist() == [2 / 3]
        assert f1 == pytest.approx(2 * (2 / 4) * (2 / 3) / ((2 / 4) + (2 / 3)))

    def test_empty_test_set(self):
        # a user with no held-out item is left out of all three arrays
        got = metrics.standard_metrics(item_sets([[1, 2], [3, 4]]),
                                       item_sets([[], [4, 9]]), N=2)
        assert got.tolist() == [[1 / 2, 1 / 2, 2 / 4]]
        with pytest.raises(ValueError, match="one list of at most N=2"):
            metrics.standard_metrics(item_sets([[1], [2]]), item_sets([[1]]), N=2)

    def test_no_hits(self):
        got = metrics.standard_metrics(item_sets([[5, 6]]), item_sets([[1]]), N=2)
        assert got.tolist() == [[0.0] * 3]

    def test_short_list_divides_by_N(self):
        # fewer than N unrated items: the shorter list still counts against N
        p, r, f1 = metrics.standard_metrics(item_sets([[2, 4]]),
                                            item_sets([[2, 4, 9]]), N=3).T
        assert (p.tolist(), r.tolist()) == ([2 / 3], [2 / 3])
        assert f1.tolist() == [2 * 2 / (3 + 3)]
        with pytest.raises(ValueError, match="at most N=2"):
            metrics.standard_metrics(item_sets([[1, 2, 3]]), item_sets([[2]]), N=2)

    def test_equals_per_user_sets(self):
        # hits counted on the flat arrays against Python sets, user by user:
        # ranked lists in any order, ids shared across users, short lists,
        # users without held-out items; the same doubles come out
        rng = np.random.default_rng(5)
        n, m, N = 60, 12, 4
        recs = [rng.permutation(m)[:rng.integers(0, N + 1)].tolist()
                for _ in range(n)]
        tests = [sorted(rng.choice(m, size=rng.integers(0, 5), replace=False).tolist())
                 for _ in range(n)]
        want = [(hit / N, hit / len(t), 2.0 * hit / (len(t) + N))
                for rec, t in zip(recs, tests) if t
                for hit in [len(set(rec) & set(t))]]
        got = metrics.standard_metrics(item_sets(recs), item_sets(tests), N)
        assert got.tolist() == [list(x) for x in want]


class TestAggregation:
    def test_average(self):
        means = metrics.mean_over_users([(0.2, 0.4, 0.25), (0.4, 0.2, 0.25)])
        assert means.tolist() == pytest.approx([0.3, 0.3, 0.25])
        assert metrics.mean_metrics([(0.2, 0.4, 0.25), (0.4, 0.2, 0.25)]) == \
            dict(zip(("precision", "recall", "f1"), means.tolist()))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no eligible users"):
            metrics.mean_over_users([])
        with pytest.raises(ValueError, match="no eligible users"):
            metrics.mean_metrics([])

    def test_adds_left_to_right(self):
        # Python 3.12's sum compensates and gives 0.1 here, where adding in
        # user order gives 0.09999999999999999
        assert metrics.mean_over_users([0.1] * 10) == 0.09999999999999999
        assert neumaier_sum([0.1] * 10) / 10 == 0.1

    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_equals_python_loop(self, xs):
        # each column on its own, in user order; == also equates -0.0 and
        # 0.0, the one place where the loop's 0 start can differ
        acc = 0.0
        for x in xs:
            acc += x
        cols = metrics.mean_over_users(np.array([xs, xs[::-1]]).T)
        assert cols[0] == acc / len(xs)
        assert cols[1] == metrics.mean_over_users(xs[::-1])


class TestSerialization:
    def _rows(self):
        return [{"e": e, "cert_precision": e / 10, "cert_recall": e / 20,
                 "cert_f1": e / 15, "n_users": 1} for e in (0, 1)]

    def test_csv_columns(self, tmp_path):
        path = str(tmp_path / "agg.csv")
        metrics.write_csv(path, self._rows())
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["e", "cert_precision", "cert_recall", "cert_f1",
                           "n_users"]
        assert len(rows) == 3
        assert rows[1][0] == "0" and rows[2][0] == "1"

    def test_csv_extra_columns(self, tmp_path):
        # the bag_* columns follow n_users, as the certify rows merge them
        path = str(tmp_path / "agg.csv")
        rows = [{**row, "bag_precision": 0.05, "bag_recall": 0.1,
                 "bag_f1": 0.06} for row in self._rows()]
        metrics.write_csv(path, rows)
        with open(path) as fh:
            out = list(csv.reader(fh))
        assert out[0][4:] == ["n_users", "bag_precision", "bag_recall",
                              "bag_f1"]
        assert out[1][-3:] == ["0.05", "0.1", "0.06"]

    def test_json_mirror(self, tmp_path):
        path = str(tmp_path / "agg.json")
        metrics.write_json(path, self._rows())
        data = json.load(open(path))
        assert [d["e"] for d in data] == [0, 1]
        assert data[1]["cert_precision"] == pytest.approx(0.1)

    def test_dict_rows_header_and_crlf(self, tmp_path):
        # the header is the first row's keys in order, each row's values
        # follow in that order whatever its own key order, and lines end
        # in CRLF
        path = str(tmp_path / "t.csv")
        metrics.write_csv(path, [{"system": "ensemble", "f1": 0.5},
                                 {"f1": 0.25, "system": "single_model"}])
        assert open(path, "rb").read() == (
            b"system,f1\r\nensemble,0.5\r\nsingle_model,0.25\r\n")
