"""Vote aggregation: seeding, determinism, chunking, parallelism, persistence."""

import hashlib
import os
import struct

import numpy as np
import pytest

from certrec import base_rec, ensemble, ratings
from certrec.ratings import ParseError

from conftest import (bench_gen, reference_ir, reference_model_votes,
                      reference_ranked, reference_save_votes, reference_votes,
                      reference_votes_file, signed_float_matrix)


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
        assert a == b
        assert list(a) == sorted(a)
        assert len(set(a)) == 12

    def test_submatrices_differ_across_t(self):
        subs = {ensemble.sample_submatrix(50, 12, ensemble.derive_seed(9, t))
                for t in range(20)}
        assert len(subs) > 15


class TestAccumulation:
    def _votes(self, **kw):
        m = ratings.random_matrix(14, 10, seed=4)
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
        par = ensemble.accumulate_votes(train, "ir", base_rec.IRParams(), 5,
                                        1, 11, 0, 60, threads=3)
        assert np.array_equal(vc.counts, par)

    def test_t_prefix_nesting(self):
        # the first T models of a longer run are exactly a shorter run
        train = ratings.random_matrix(12, 8, seed=9)
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


class TestKernelGoldenVotes:
    """Batch voting equals the per-item loop scored user by user."""

    @staticmethod
    def _same(train, algo, params, s, n_prime, T, seed=3):
        got = ensemble.accumulate_votes(train, algo, params, s, n_prime, seed,
                                        0, T)
        want = reference_votes(train, algo, params, s, n_prime, seed, 0, T)
        assert np.array_equal(got, want)
        return got

    @pytest.mark.parametrize("n_prime", [1, 3])
    def test_structured_instance(self, structured, n_prime):
        matrix, _ = structured
        for k in (3, 50):
            self._same(matrix, "ir", base_rec.IRParams(k=k), 20, n_prime, 12)

    @pytest.mark.parametrize("n_prime", [1, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_tiny(self, seed, n_prime):
        train = ratings.random_matrix(16, 24, seed=seed,
                                      density=(0.15, 0.4, 0.7, 0.9)[seed])
        self._same(train, "ir", base_rec.IRParams(k=(2, 4, 8, 50)[seed]), 6,
                   n_prime, 25, seed)

    @pytest.mark.parametrize("n_prime", [1, 3])
    def test_float_ratings(self, tmp_path, n_prime):
        train = signed_float_matrix(tmp_path)
        for k in (3, 50):
            self._same(train, "ir", base_rec.IRParams(k=k), 6, n_prime, 20)

    @pytest.mark.parametrize("n_prime", [1, 3])
    def test_user_without_candidates(self, n_prime):
        base = ratings.random_matrix(8, 10, seed=2, density=0.3)
        full = base.csr.toarray()
        full[0] = 4.0  # user 0 rated every item: never a candidate left
        train = ratings._build_matrix(*np.nonzero(full), full[np.nonzero(full)],
                                      base.domain, user_ids=np.arange(8),
                                      item_ids=np.arange(10))
        got = self._same(train, "ir", base_rec.IRParams(k=3), 4, n_prime, 20)
        assert got[0].sum() == 0 and got.sum() > 0

    @pytest.mark.parametrize("n_prime", [1, 3])
    def test_bpr(self, n_prime):
        train = ratings.random_matrix(10, 12, seed=5, density=0.4)
        self._same(train, "bpr", base_rec.BPRParams(d=4, epochs=3), 5,
                   n_prime, 8)

    def test_ml100k_shaped_instance(self):
        # the train half of pipeline-ml100k seed 0's split, and the first 20
        # of the members that workload trains: s=200, default k
        matrix = ratings._build_matrix(*bench_gen.ml100k_shaped(0),
                                       ratings._ML_DOMAIN)
        train, _ = ratings.split_train_test(matrix, 0.75, 0)
        got = {1: np.zeros((943, 1682), np.int32), 3: np.zeros((943, 1682), np.int32)}
        want = {1: np.zeros_like(got[1]), 3: np.zeros_like(got[3])}
        for t in range(20):
            members = ensemble.sample_submatrix(943, 200,
                                                ensemble.derive_seed(0, t))
            model = base_rec.train_ir(train, np.asarray(members))
            users, sub, seen, table = reference_ir(train, members, 50)
            for part in ("indices", "indptr", "data"):
                assert np.array_equal(getattr(model.sim, part),
                                      getattr(table, part)), (t, part)
            scores = [table @ row for row in sub.toarray()]
            for n_prime in got:
                got[n_prime][base_rec.recommend_all(model, n_prime)] += 1
                reference_model_votes(want[n_prime], users, sub, seen, scores,
                                      n_prime)
        for n_prime in got:
            assert np.array_equal(got[n_prime], want[n_prime]), n_prime

    def test_serial_chunked_and_two_workers_agree(self):
        train = ratings.random_matrix(30, 20, seed=7, density=0.5)
        params = base_rec.IRParams(k=5)
        want = reference_votes(train, "ir", params, 8, 2, 4, 0, 40)
        serial = ensemble.accumulate_votes(train, "ir", params, 8, 2, 4, 0, 40)
        chunked = sum(ensemble.accumulate_votes(train, "ir", params, 8, 2, 4,
                                                lo, min(lo + 15, 40))
                      for lo in range(0, 40, 15))
        pool = ensemble.accumulate_votes(train, "ir", params, 8, 2, 4, 0, 40,
                                         threads=2)
        for got in (serial, chunked, pool):
            assert np.array_equal(got, want)


class TestEnsembleRecommend:
    def test_exactly_n_items_filled(self):
        train = ratings.random_matrix(8, 12, seed=6, density=0.3)
        vc = ensemble.build_vote_counts(train, "ir", base_rec.IRParams(),
                                        T=20, s=3, n_prime=1, master_seed=0)
        for u, recs in enumerate(ensemble.ensemble_recommend_all(vc, train, 5)):
            assert len(recs) == 5
            assert len(set(recs)) == 5
            assert not set(recs) & set(train.rated_items(u).tolist())

    def test_vote_order_and_tie_break(self):
        train = ratings.random_matrix(4, 6, seed=0, density=0.3)
        counts = np.zeros((4, 6), dtype=np.int32)
        rated = set(train.rated_items(0).tolist())
        free = [i for i in range(6) if i not in rated]
        # give the last free item the most votes, tie the first two
        counts[0, free[-1]] = 9
        counts[0, free[0]] = 4
        counts[0, free[1]] = 4
        vc = ensemble.VoteCounts(T=10, n_prime=1, s=2, counts=counts,
                                 master_seed=0, algo="ir")
        recs = ensemble.ensemble_recommend_all(vc, train, 3)[0]
        assert recs[0] == free[-1]
        assert recs[1] == free[0] and recs[2] == free[1]

    def test_small_catalog_returns_all_unrated(self):
        train = ratings.random_matrix(3, 4, seed=2, density=0.9)
        vc = ensemble.build_vote_counts(train, "ir", base_rec.IRParams(),
                                        T=5, s=2, n_prime=1, master_seed=0)
        for u, recs in enumerate(ensemble.ensemble_recommend_all(vc, train, 10)):
            assert len(recs) == 4 - train.rating_count(u)

    def test_all_users_match_one_at_a_time(self):
        # each user's list against a stable argsort of that user's row;
        # 150 users span three row blocks, high density leaves some users
        # fewer than N unrated items, and tied counts test the tie rule
        train = ratings.random_matrix(150, 12, seed=9, density=0.7)
        rng = np.random.default_rng(9)
        vc = ensemble.VoteCounts(T=20, n_prime=1, s=4, master_seed=0,
                                 algo="ir", counts=rng.integers(
                                     0, 4, size=(150, 12)).astype(np.int32))
        candidates = np.ones((150, 12), dtype=bool)
        for u in range(150):
            candidates[u, train.rated_items(u)] = False
        for N in (1, 5):
            rows, cols = reference_ranked(vc.counts, candidates, N)
            got = ensemble.ensemble_recommend_all(vc, train, N)
            assert [got[u].tolist() for u in range(len(got))] == [
                cols[rows == u].tolist() for u in range(150)]
        with pytest.raises(ValueError):
            ensemble.ensemble_recommend_all(vc, train, 0)

    def test_rank_order_equals_ranked(self):
        # one ItemSets, rows in rank order: its flat items are the picks of
        # a single _ranked call over every user at once, and its row
        # pointers count them; 200 users span four row blocks, some rate
        # every item, and counts of 0-2 tie often
        rng = np.random.default_rng(4)
        rated = rng.random((200, 9)) < 0.6
        rated[190:] = True
        users, items = np.nonzero(rated)
        train = ratings._build_matrix(
            users, items, np.ones(len(users)), ratings.RatingDomain(1.0, 5.0, True),
            user_ids=np.arange(200), item_ids=np.arange(9))
        vc = ensemble.VoteCounts(T=5, n_prime=1, s=3, master_seed=0, algo="ir",
                                 counts=rng.integers(0, 3, size=(200, 9))
                                 .astype(np.int32))
        for N in (1, 4, 9):
            rows, cols = base_rec._ranked(vc.counts, ~rated, N)
            got = ensemble.ensemble_recommend_all(vc, train, N)
            assert got.items.tolist() == cols.tolist()
            assert got.indptr.tolist() == [0, *np.cumsum(
                np.bincount(rows, minlength=200)).tolist()]
            assert (got.sizes[190:] == 0).all()


class TestPersistence:
    def test_round_trip(self, tmp_path):
        train = ratings.random_matrix(7, 9, seed=3)
        vc = ensemble.build_vote_counts(train, "ir", base_rec.IRParams(),
                                        T=25, s=4, n_prime=2, master_seed=8)
        path = str(tmp_path / "votes.txt")
        ensemble.save_votes(path, vc)
        back = ensemble.load_votes(path)
        assert back.T == 25 and back.s == 4 and back.n_prime == 2
        assert back.master_seed == 8 and back.algo == "ir"
        assert back.params == vc.params == ensemble.params_digest(
            "ir", base_rec.IRParams())
        assert np.array_equal(back.counts, vc.counts)

    def test_params_digest(self):
        ir = ensemble.params_digest("ir", base_rec.IRParams())
        assert ir == ensemble.params_digest("ir", None)
        assert ir != ensemble.params_digest("ir", base_rec.IRParams(k=3))
        assert ir != ensemble.params_digest("bpr", None)
        assert ir.isalnum()  # one header token

    def test_file_without_params_key_loads(self, tmp_path):
        path = tmp_path / "old.bin"
        reference_votes_file(str(path), "n=2 m=2 T=3 s=1 nprime=1 algo=ir seed=0",
                             [(0, 1, 2)])
        vc = ensemble.load_votes(str(path))
        assert vc.params == "" and vc.counts[0, 1] == 2
        ensemble.save_votes(str(path), vc)
        assert b"params" not in path.read_bytes()

    def test_split_digest_round_trip(self, tmp_path):
        counts = np.arange(6, dtype=np.int32).reshape(2, 3) % 4
        vc = ensemble.VoteCounts(T=9, n_prime=1, s=1, counts=counts,
                                 master_seed=4, algo="ir",
                                 params="0123456789abcdef",
                                 split="fedcba9876543210")
        path = str(tmp_path / "votes.bin")
        ensemble.save_votes(path, vc)
        assert open(path, "rb").readline().endswith(
            b" params=0123456789abcdef split=fedcba9876543210 rows=4\n")
        back = ensemble.load_votes(path)
        assert (back.params, back.split) == (vc.params, vc.split)
        assert np.array_equal(back.counts, counts)

    def test_zero_rows_omitted(self, tmp_path):
        counts = np.zeros((3, 3), dtype=np.int32)
        counts[1, 2] = 7
        vc = ensemble.VoteCounts(T=10, n_prime=1, s=1, counts=counts,
                                 master_seed=0, algo="ir")
        path = str(tmp_path / "v.txt")
        ensemble.save_votes(path, vc)
        header, _, body = open(path, "rb").read().partition(b"\n")
        assert header.endswith(b" rows=1")  # a single nonzero entry
        assert body == struct.pack("<iii", 1, 2, 7)
        assert np.array_equal(ensemble.load_votes(path).counts, counts)

    def test_byte_stable(self, tmp_path):
        train = ratings.random_matrix(6, 6, seed=5)
        vc = ensemble.build_vote_counts(train, "ir", base_rec.IRParams(),
                                        T=15, s=3, n_prime=1, master_seed=1)
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        ensemble.save_votes(p1, vc)
        ensemble.save_votes(p2, vc)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        # and they are the row-by-row v2 writer's bytes
        reference_save_votes(p2, vc)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_v2_bytes_pinned(self, tmp_path):
        # a change to the v2 layout (header keys, dtypes, byte or row order)
        # changes these bytes
        counts = np.arange(12, dtype=np.int32).reshape(3, 4) % 5
        vc = ensemble.VoteCounts(T=9, n_prime=2, s=2, counts=counts,
                                 master_seed=4, algo="ir", params="0123456789abcdef")
        path = tmp_path / "votes.bin"
        ensemble.save_votes(str(path), vc)
        data = path.read_bytes()
        assert data.startswith(b"#votes v2 n=3 m=4 T=9 s=2 nprime=2 algo=ir "
                               b"seed=4 params=0123456789abcdef rows=9\n")
        assert hashlib.blake2b(data, digest_size=8).hexdigest() == "8e7bc03d0f258492"

    @pytest.mark.parametrize("field, shape", [("T", (2, 2)), ("m", (1, 2**31))])
    def test_wide_header_refused(self, tmp_path, field, shape):
        # a zero-stride view: the writer refuses before it reads the counts
        vc = ensemble.VoteCounts(T=2**31 if field == "T" else 5, n_prime=1, s=1,
                                 counts=np.broadcast_to(np.int32(0), shape),
                                 master_seed=0, algo="ir")
        with pytest.raises(ValueError, match=f"{field}=2147483648 does not fit"):
            ensemble.save_votes(str(tmp_path / "v"), vc)
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("size", [12, 24, 30, 35, 48], ids=[
        "cut-two-rows", "cut-one-row", "cut-mid-row", "cut-one-byte",
        "extra-row"])
    def test_v2_body_of_wrong_length_refused(self, tmp_path, size):
        path = tmp_path / "v.bin"
        reference_votes_file(str(path), "n=3 m=4 T=10 s=1 nprime=1 algo=ir seed=0",
                             [(0, 0, 1), (1, 2, 4), (2, 3, 9)])
        header, _, body = path.read_bytes().partition(b"\n")
        path.write_bytes(header + b"\n" + (body + body)[:size])
        with pytest.raises(ParseError, match=f"body holds {size} bytes, but "
                           "the header's row counts call for 36") as err:
            ensemble.load_votes(str(path))
        assert str(path) in str(err.value)

    def test_s_above_n_refused(self, tmp_path):
        path = tmp_path / "v.bin"
        reference_votes_file(str(path), "n=3 m=4 T=10 s=4 nprime=1 algo=ir seed=0",
                             [(0, 0, 1)])
        with pytest.raises(ParseError, match="header field s=4 is above n=3") as err:
            ensemble.load_votes(str(path))
        assert str(err.value).startswith(f"{path}: ")
        reference_votes_file(str(path), "n=3 m=4 T=10 s=3 nprime=1 algo=ir seed=0",
                             [(0, 0, 1)])
        assert ensemble.load_votes(str(path)).s == 3

    @pytest.mark.parametrize("body", [b"0,1,2\n", b"", b"0,1,\xff\n"],
                             ids=["rows", "empty", "not-utf8"])
    def test_v1_refused(self, tmp_path, body):
        # v1 text is not read, nor decoded: its votes must be retrained,
        # which writes v2
        path = tmp_path / "v.txt"
        path.write_bytes(b"#votes v1 n=2 m=2 T=3 s=1 nprime=1 algo=ir seed=0\n"
                         + body)
        with pytest.raises(ParseError, match="retrain with certrec train") as err:
            ensemble.load_votes(str(path))
        assert str(err.value).startswith(f"{path}: ")

    def test_user_with_more_than_T_nprime_votes_rejected(self, tmp_path):
        # T=3 models of N'=2 cast at most 6 votes per user
        path = tmp_path / "v.bin"
        header = "n=2 m=4 T=3 s=1 nprime=2 algo=ir seed=0"
        rows = [(0, 0, 3), (0, 1, 3), (1, 0, 3), (1, 2, 3), (1, 3, 1)]
        reference_votes_file(str(path), header, rows)
        with pytest.raises(ParseError,
                           match=r"user 1 has 7 votes, more than T \* nprime = 6"):
            ensemble.load_votes(str(path))
        reference_votes_file(str(path), header, rows[:-1])
        assert ensemble.load_votes(str(path)).counts.sum() == 12

    @pytest.mark.parametrize("row, problem", [
        ("-1,0,3", "outside the 3 x 4 matrix"),   # numpy would wrap to row 2
        ("0,-1,3", "outside the 3 x 4 matrix"),
        ("3,0,3", "outside the 3 x 4 matrix"),
        ("0,4,3", "outside the 3 x 4 matrix"),
        ("0,1,11", r"outside \[0, T=10\]"),
        ("0,1,-2", r"outside \[0, T=10\]"),
        ("1,2,4\n1,2,5", r"duplicate vote cell \(1, 2\)"),
    ])
    def test_corrupt_cells_rejected(self, tmp_path, row, problem):
        cells = [(0, 0, 1)] + [tuple(map(int, r.split(","))) for r in row.split("\n")]
        path = tmp_path / "v.bin"
        reference_votes_file(str(path), "n=3 m=4 T=10 s=1 nprime=1 algo=ir seed=0",
                             cells)
        with pytest.raises(ParseError, match=problem) as err:
            ensemble.load_votes(str(path))
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("fields, refused", [
        ("n=-2", "n=-2 is below 0"),       # numpy refused the shape, no path
        ("m=-1", "m=-1 is below 0"),
        ("T=-4 s=0 nprime=0", "T=-4 is below 0"),
        ("s=0", "s=0 is below 1"),
        ("nprime=0", "nprime=0 is below 1"),
        ("s=-3", "s=-3 is below 1")],
        ids=["n", "m", "T-s-nprime", "s", "nprime", "s-negative"])
    def test_impossible_header_refused(self, tmp_path, fields, refused):
        path = tmp_path / "v.txt"
        header = dict(tok.split("=") for tok in
                      "n=3 m=4 T=10 s=1 nprime=1 algo=ir seed=0".split())
        header.update(tok.split("=") for tok in fields.split())
        reference_votes_file(str(path), " ".join(f"{k}={v}" for k, v in
                                                 header.items()), [])
        with pytest.raises(ParseError, match=f"header field {refused}") as err:
            ensemble.load_votes(str(path))
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("rows, refused", [
        ("rows=-1", "header field rows=-1 is below 0"), ("", "'rows'"),
        ("rows=x", "invalid literal")], ids=["negative", "missing", "not-int"])
    def test_v2_row_count_refused(self, tmp_path, rows, refused):
        path = tmp_path / "v.bin"
        path.write_bytes(f"#votes v2 n=3 m=4 T=10 s=1 nprime=1 algo=ir seed=0 "
                         f"{rows}\n".encode())
        with pytest.raises(ParseError, match=refused) as err:
            ensemble.load_votes(str(path))
        assert str(err.value).startswith(f"{path}: ")
