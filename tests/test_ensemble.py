"""Vote aggregation: seeding, determinism, chunking, parallelism, persistence."""

import math

import numpy as np
import pytest

from certrec import base_rec, ensemble
from certrec.ratings import ParseError

from conftest import random_tiny_matrix


class TestSeeding:
    # anchors freeze the seed derivation; changing it silently would break
    # reproducibility of every persisted vote file
    ANCHORS = [
        ((5, 0), 7874920467612287770),
        ((5, 1), 9220990823635741239),
        ((7, 0), 15971330445000585728),
        ((7, 123), 4215818468251785692),
        ((5, 0, "sgd"), 12345332284679638738),
    ]

    @pytest.mark.parametrize("parts,want", ANCHORS)
    def test_frozen_anchors(self, parts, want):
        assert ensemble.derive_seed(*parts) == want

    def test_order_sensitivity(self):
        assert ensemble.derive_seed(1, 2) != ensemble.derive_seed(2, 1)

    def test_submatrix_deterministic_sorted(self):
        a = ensemble.sample_submatrix(50, 12, seed=ensemble.derive_seed(3, 0))
        b = ensemble.sample_submatrix(50, 12, seed=ensemble.derive_seed(3, 0))
        assert a.users == b.users
        assert list(a.users) == sorted(a.users)
        assert len(set(a.users)) == 12

    def test_submatrices_differ_across_t(self):
        subs = {ensemble.sample_submatrix(50, 12, ensemble.derive_seed(9, t)).users
                for t in range(20)}
        assert len(subs) > 15


class TestAccumulation:
    def _votes(self, **kw):
        m = random_tiny_matrix(14, 10, seed=4)
        defaults = dict(train=m, algo="ir", params=base_rec.IRParams(),
                        T=60, s=5, n_prime=1, master_seed=11)
        defaults.update(kw)
        return defaults["train"], ensemble.build_vote_counts(**defaults)

    def test_shape_and_totals(self):
        train, vc = self._votes()
        assert vc.counts.shape == (14, 10)
        assert vc.T == 60 and vc.s == 5 and vc.n_prime == 1
        # IR recommends for every user when candidates exist; each (model,
        # user) contributes at most n_prime votes
        assert vc.counts.max() <= 60
        per_user = vc.counts.sum(axis=1)
        assert per_user.max() <= 60 * vc.n_prime

    def test_serial_equals_chunked(self):
        train, vc = self._votes()
        params = base_rec.IRParams()
        pieces = []
        for a, b in ((0, 17), (17, 40), (40, 60)):
            pieces.append(ensemble.accumulate_votes(train, "ir", params, 5, 1,
                                                    11, a, b))
        assert np.array_equal(vc.counts, sum(pieces))

    def test_serial_equals_parallel(self):
        train, vc = self._votes()
        par = ensemble.accumulate_votes_parallel(train, "ir",
                                                 base_rec.IRParams(), 5, 1,
                                                 11, 0, 60, threads=3)
        assert np.array_equal(vc.counts, par)

    def test_t_prefix_nesting(self):
        # the first T models of a longer run are exactly a shorter run
        train = random_tiny_matrix(12, 8, seed=9)
        params = base_rec.IRParams()
        short = ensemble.build_vote_counts(train, "ir", params, T=30, s=4,
                                           n_prime=1, master_seed=2)
        long = ensemble.build_vote_counts(train, "ir", params, T=50, s=4,
                                          n_prime=1, master_seed=2)
        tail = ensemble.accumulate_votes(train, "ir", params, 4, 1, 2, 30, 50)
        assert np.array_equal(long.counts, short.counts + tail)

    def test_nprime_votes(self):
        train, vc1 = self._votes(n_prime=1)
        _, vc3 = self._votes(n_prime=3)
        assert vc3.counts.sum() > vc1.counts.sum()
        assert np.all(vc3.counts >= vc1.counts - 60)  # sanity, not containment

    def test_bpr_member_seeds_differ(self):
        p0 = ensemble._member_params("bpr", base_rec.BPRParams(), 5, 0)
        p1 = ensemble._member_params("bpr", base_rec.BPRParams(), 5, 1)
        assert p0.seed != p1.seed
        assert p0.seed == ensemble.derive_seed(5, 0, "sgd")
        # ir params pass through untouched
        ir = base_rec.IRParams()
        assert ensemble._member_params("ir", ir, 5, 0) is ir

    def test_exhaustive_enumerates_all_subsets(self):
        train = random_tiny_matrix(6, 6, seed=1)
        vc = ensemble.build_vote_counts(train, "ir", base_rec.IRParams(),
                                        T=0, s=3, n_prime=1, master_seed=0,
                                        exhaustive=True)
        assert vc.T == math.comb(6, 3) == 20


class TestEnsembleRecommend:
    def test_exactly_n_items_filled(self):
        train = random_tiny_matrix(8, 12, seed=6, density=0.3)
        vc = ensemble.build_vote_counts(train, "ir", base_rec.IRParams(),
                                        T=20, s=3, n_prime=1, master_seed=0)
        for u in range(8):
            recs = ensemble.ensemble_recommend(vc, train, u, 5)
            assert len(recs) == 5
            assert len(set(recs)) == 5
            assert not set(recs) & set(train.rated_items(u).tolist())

    def test_vote_order_and_tie_break(self):
        train = random_tiny_matrix(4, 6, seed=0, density=0.3)
        counts = np.zeros((4, 6), dtype=np.int32)
        rated = set(train.rated_items(0).tolist())
        free = [i for i in range(6) if i not in rated]
        # give the last free item the most votes, tie the first two
        counts[0, free[-1]] = 9
        counts[0, free[0]] = 4
        counts[0, free[1]] = 4
        vc = ensemble.VoteCounts(T=10, n_prime=1, s=2, counts=counts,
                                 master_seed=0, algo="ir")
        recs = ensemble.ensemble_recommend(vc, train, 0, 3)
        assert recs[0] == free[-1]
        assert recs[1] == free[0] and recs[2] == free[1]

    def test_small_catalog_returns_all_unrated(self):
        train = random_tiny_matrix(3, 4, seed=2, density=0.9)
        vc = ensemble.build_vote_counts(train, "ir", base_rec.IRParams(),
                                        T=5, s=2, n_prime=1, master_seed=0)
        for u in range(3):
            unrated = 4 - train.rating_count(u)
            assert len(ensemble.ensemble_recommend(vc, train, u, 10)) == unrated


class TestPersistence:
    def test_round_trip(self, tmp_path):
        train = random_tiny_matrix(7, 9, seed=3)
        vc = ensemble.build_vote_counts(train, "ir", base_rec.IRParams(),
                                        T=25, s=4, n_prime=2, master_seed=8)
        path = str(tmp_path / "votes.txt")
        ensemble.save_votes(path, vc)
        back = ensemble.load_votes(path)
        assert back.T == 25 and back.s == 4 and back.n_prime == 2
        assert back.master_seed == 8 and back.algo == "ir"
        assert np.array_equal(back.counts, vc.counts)

    def test_zero_rows_omitted(self, tmp_path):
        counts = np.zeros((3, 3), dtype=np.int32)
        counts[1, 2] = 7
        vc = ensemble.VoteCounts(T=10, n_prime=1, s=1, counts=counts,
                                 master_seed=0, algo="ir")
        path = str(tmp_path / "v.txt")
        ensemble.save_votes(path, vc)
        lines = open(path).read().strip().split("\n")
        assert len(lines) == 2  # header + single nonzero entry
        assert lines[1] == "1,2,7"

    def test_byte_stable(self, tmp_path):
        train = random_tiny_matrix(6, 6, seed=5)
        vc = ensemble.build_vote_counts(train, "ir", base_rec.IRParams(),
                                        T=15, s=3, n_prime=1, master_seed=1)
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        ensemble.save_votes(p1, vc)
        ensemble.save_votes(p2, vc)
        assert open(p1).read() == open(p2).read()

    @pytest.mark.parametrize("row, problem", [
        ("-1,0,3", "outside the 3 x 4 matrix"),   # numpy would wrap to row 2
        ("0,-1,3", "outside the 3 x 4 matrix"),
        ("3,0,3", "outside the 3 x 4 matrix"),
        ("0,4,3", "outside the 3 x 4 matrix"),
        ("0,1,11", r"outside \[0, T=10\]"),
        ("0,1,-2", r"outside \[0, T=10\]"),
        ("1,2,4\n1,2,5", r"duplicate vote cell \(1, 2\)"),
        ("1,2", "columns"),
    ])
    def test_corrupt_cells_rejected(self, tmp_path, row, problem):
        path = tmp_path / "v.txt"
        path.write_text("#votes v1 n=3 m=4 T=10 s=1 nprime=1 algo=ir seed=0\n"
                        f"0,0,1\n{row}\n")
        with pytest.raises(ParseError, match=problem):
            ensemble.load_votes(str(path))
