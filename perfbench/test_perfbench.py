"""Tests of the benchmark's own code: generators, checks, span arithmetic.

    python3 -m pytest perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks as ck  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans as sp  # noqa: E402
from certrec import ensemble, ratings  # noqa: E402


def _small_train(seed):
    users, items, stars = gen.ml100k_shaped(seed, n=60, m=90, n_ratings=2400)
    dom = ratings.RatingDomain(lo=1.0, hi=5.0, integral=True)
    return ratings._build_matrix(users, items, stars.astype(float), dom,
                                 user_ids=np.arange(60), item_ids=np.arange(90))


class TestGenerators:
    def test_ml100k_shaped_is_deterministic_per_seed(self):
        a, b, c = (gen.ml100k_shaped(s) for s in (3, 3, 4))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[1], c[1])

    def test_ml100k_shape(self):
        users, items, stars = gen.ml100k_shaped(0)
        assert users.max() + 1 == gen.ML_USERS and items.max() + 1 == gen.ML_ITEMS
        assert len(np.unique(items)) == gen.ML_ITEMS  # every item rated
        assert np.bincount(users).min() >= gen.ML_MIN_PER_USER
        assert set(np.unique(stars)) == {1, 2, 3, 4, 5}
        assert len(np.unique(users * gen.ML_ITEMS + items)) == len(users)

    def test_rating_file_is_deterministic_and_parses(self, tmp_path):
        paths = [tmp_path / f"u{k}.data" for k in range(2)]
        for p in paths:
            gen.write_ml100k_tab(str(p), *gen.ml100k_shaped(1, n=50, m=80,
                                                            n_ratings=2000), 1)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        mat = ratings.load_ratings(str(paths[0]), "movielens-100k-tab")
        assert (mat.n_users, mat.n_items) == (50, 80)

    def test_votes_are_deterministic_and_round_trip(self, tmp_path):
        train = _small_train(0)
        a = gen.paper_scale_votes(5, train, T=500, s=20)
        b = gen.paper_scale_votes(5, train, T=500, s=20)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gen.paper_scale_votes(6, train, T=500, s=20))
        for u in range(train.n_users):  # votes never land on rated items
            assert not a[u, train.rated_items(u)].any()
        path = str(tmp_path / "votes.csv")
        ensemble.save_votes(path, ensemble.VoteCounts(
            T=500, n_prime=1, s=20, counts=a, master_seed=5, algo="ir"))
        back = ensemble.load_votes(path)
        assert back.T == 500 and np.array_equal(back.counts, a)

    def test_tiny_oracle_matrix(self):
        a = gen.tiny_oracle_matrix(7)
        assert all(np.array_equal(x, y) for x, y in zip(a, gen.tiny_oracle_matrix(7)))
        users, items, _ = a
        assert set(users) == set(range(gen.ORACLE_N))
        assert set(items) == set(range(gen.ORACLE_M))
        assert np.bincount(users).max() < gen.ORACLE_M  # something left to recommend

    def test_vote_shape(self):
        counts = np.array([[0, 6, 2, 2], [0, 0, 0, 0], [1, 0, 0, 3]])
        shape = gen.vote_shape(counts)
        assert shape["vote_cells"] == 5
        assert shape["median_distinct_counts"] == 2.0
        assert shape["top1_share"] == round((0.6 + 0.75) / 2, 4)


class TestChecks:
    PER_USER = {0: {0: 2, 1: 1}, 1: {0: 1, 1: 1}, 2: {0: 0, 1: 0}}
    AGG = [{"e": 0, "cert_f1": 0.3, "bag_f1": 0.2},
           {"e": 1, "cert_f1": 0.1, "bag_f1": 0.1}]
    LIMIT = {0: 2, 1: 3}

    def _run(self, per_user, aggregate, limit):
        checks = ck.Checks()
        ck.check_certificates(checks, per_user, aggregate, limit, "t")
        return checks

    def test_clean_output_passes(self):
        checks = self._run(self.PER_USER, self.AGG, self.LIMIT)
        assert (checks.attempted, checks.failed) == (3, 0)

    def test_flipped_vote_count_breaks_digest(self):
        counts = np.arange(12, dtype=np.int32).reshape(3, 4)
        pinned = ck.votes_digest(counts, 200)
        flipped = counts.copy()
        flipped[1, 2] += 1
        checks = ck.Checks()
        checks.check(ck.votes_digest(counts, 200) == pinned, "same")
        checks.check(ck.votes_digest(flipped, 200) == pinned, "flipped")
        checks.check(ck.votes_digest(counts, 201) == pinned, "other T")
        assert checks.failures == ["flipped", "other T"]

    def test_bad_vote_cells(self):
        counts = np.array([[0, 3, 0], [2, 0, 1]])
        rated = np.array([[True, False, False], [False, True, False]])
        assert ck.bad_vote_cells(counts, 3, rated) == 0
        counts[0, 0] = 1    # a vote for an item the user rated
        counts[1, 2] = 4    # more votes than models
        counts[1, 1] = -1   # negative, on a rated item too
        assert ck.bad_vote_cells(counts, 3, rated) == 3

    def test_r_rising_with_e_is_caught(self):
        bad = {0: {0: 1, 1: 1}, 1: {0: 2, 1: 1}}
        assert ck.r_rising_in_e(bad) == [(0, 1)]
        assert self._run(bad, self.AGG, self.LIMIT).failed == 1

    def test_r_out_of_range_is_caught(self):
        bad = {0: {0: 3, 1: -1}}
        assert ck.r_out_of_range(bad, self.LIMIT) == [(0, 0, 3), (0, 1, -1)]
        assert self._run(bad, self.AGG, self.LIMIT).failed == 1

    def test_baseline_above_joint_is_caught(self):
        agg = self.AGG + [{"e": 2, "cert_f1": 0.0, "bag_f1": 0.05}]
        assert ck.bagging_above_joint(agg) == [2]
        assert self._run(self.PER_USER, agg, self.LIMIT).failed == 1

    def test_r_positive_share(self):
        assert ck.r_positive_share(self.PER_USER) == pytest.approx(4 / 6)
        assert ck.r_positive_share(self.PER_USER, 0) == 1.0
        assert ck.r_positive_share(self.PER_USER, 2) == 0.0

    def test_per_user_csv_reader(self, tmp_path):
        path = tmp_path / "per_user.csv"
        path.write_text("user,e,r,mode,alpha\n0,0,2,approx,1e-06\n0,1,1,approx,1e-06\n")
        assert ck.read_per_user(str(path)) == {0: {0: 2}, 1: {0: 1}}


def _span(name, start, end, parent):
    return sp.Span(name=name, start=start, end=end, parent=parent, run=0)


class TestSpanArithmetic:
    def test_self_time_on_hand_built_tree(self):
        tree = [
            _span("root", 0, 100, -1),   # children cover 10..40 and 50..90
            _span("a", 10, 40, 0),       # child b covers 20..30
            _span("b", 20, 30, 1),
            _span("c", 50, 90, 0),       # children overlap: 55..70 and 60..80
            _span("d", 55, 70, 3),
            _span("e", 60, 80, 3),
            _span("f", 95, 120, 0),      # runs past its parent's end
        ]
        assert sp.self_times(tree) == [100 - 30 - 40 - 5, 30 - 10, 10,
                                       40 - 25, 15, 20, 25]

    def test_summary_and_percentiles(self):
        tree = [_span("x", 0, 4_000_000, -1), _span("y", 0, 1_000_000, 0),
                _span("y", 1_000_000, 3_000_000, 0)]
        summary = sp.summarize(tree)
        assert summary["y"]["calls"] == 2
        assert summary["y"]["ms"] == pytest.approx(3.0)
        assert summary["x"]["self_ms"] == pytest.approx(1.0)
        assert sp.percentile([5, 1, 3, 2, 4], 50) == 3.0
        assert sp.percentile(list(range(1, 101)), 95) == 95.0
        assert sp.percentile([], 50) == 0.0

    def test_span_cost_is_positive(self):
        assert 0 < sp.span_cost_ns(calls=2000, rounds=3) < 1e6

    def test_tracer_sees_calls_through_imported_names(self, tmp_path):
        from certrec import base_rec, cli, ensemble as ens
        modules = [base_rec, ens, cli]
        original = ens.train_base
        tracer = sp.Tracer()
        train = _small_train(1)
        with tracer.installed(modules):
            assert ens.train_base is not original
            ens.accumulate_votes(train, "ir", None, 10, 1, 0, 0, 2)
            ens.derive_seed(0, 1)
        assert ens.train_base is original and base_rec.train_base is original
        names = [s.name for s in tracer.spans()]
        assert names.count("ensemble.accumulate_votes") == 1
        assert names.count("base_rec.train_base") == 2
        spans_ = tracer.spans()
        root = names.index("ensemble.accumulate_votes")
        assert all(s.parent == root for s in spans_
                   if s.name == "base_rec.train_base")
        assert [s.run for s in spans_[:-1]] == [0] * (len(spans_) - 1)
        assert (spans_[-1].name, spans_[-1].run) == ("ensemble.derive_seed", 1)
        out = tmp_path / "spans.tsv.gz"
        tracer.write(str(out))
        assert out.stat().st_size > 0


class TestMetricNames:
    def _benchmark(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def test_per_layer_names_match_benchmark_json(self):
        emitted = layers.layer_metrics(sp.Tracer(), {}, 10, 1.1, 500.0)
        declared = {m["name"]: m["unit"] for m in self._benchmark()["per_layer"]}
        assert declared == {k: v["unit"] for k, v in emitted.items()}

    def test_end_to_end_names_match_benchmark_json(self):
        declared = {m["name"]: m["unit"] for m in self._benchmark()["end_to_end"]}
        assert declared == dict(run.END_TO_END)

    def test_workload_names_match_benchmark_json(self):
        import workloads
        declared = [w["name"] for w in self._benchmark()["workloads"]]
        assert declared == list(workloads.WORKLOADS)


class TestOracleCheck:
    TEXT = ("enumerated 70 subsets (n=8, m=8, s=4)\n"
            "certified r per user: {0: 1, 1: 0, 2: 2, 3: 1, 4: 1, 5: 0, 6: 3, 7: 1}\n"
            "attack trials: 256, violations: ")

    def _check(self, text):
        import workloads
        res = workloads.PassResult(wall_s=2.0, stages={},
                                   info={"text": text, "n": 8, "m": 8})
        checks = ck.Checks()
        rate = workloads.oracle_check(res, 0, checks, {})
        return checks, rate

    def test_clean_report_passes(self):
        checks, rate = self._check(self.TEXT + "0\n")
        assert checks.failed == 0
        assert rate == (70 + 256 * 126) / 2.0

    def test_violation_is_caught(self):
        checks, _ = self._check(self.TEXT + "1\n"
                                + "  VIOLATION trial=3 user=2 |intersection|=1 < r=2\n")
        assert checks.failures == ["oracle reported 1 violations"]

    def test_unreadable_report_is_caught(self):
        checks, _ = self._check("error: something else\n")
        assert checks.failed == 1
