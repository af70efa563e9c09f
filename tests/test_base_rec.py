"""Base recommenders: item-item cosine retrieval and pairwise-ranking SGD."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from certrec import base_rec, ensemble, ratings

from conftest import (bench_gen, reference_ir, reference_model_votes,
                      reference_ranked, signed_float_matrix)


def _recs(model, user, n):
    """recommend_all's items for one user, best first."""
    users, items = base_rec.recommend_all(model, n)
    return items[users == user].tolist()


def _scores(model, user):
    """predicted_scores' row for one submatrix user."""
    return base_rec.predicted_scores(model)[np.searchsorted(model.users, user)]


def _matrix_from_dense(dense):
    dense = np.asarray(dense, dtype=np.float64)
    users, items, scores = [], [], []
    n, m = dense.shape
    for u in range(n):
        for i in range(m):
            if dense[u, i]:
                users.append(u)
                items.append(i)
                scores.append(float(dense[u, i]))
    dom = ratings.RatingDomain(1.0, 5.0, True)
    return ratings._build_matrix(users, items, scores, dom,
                                 user_ids=np.arange(n), item_ids=np.arange(m))


class TestRanked:
    """The argmax rounds against a stable argsort of the same rows."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_stable_argsort(self, seed):
        rng = np.random.default_rng(seed)
        rows, m = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        for values in (3, 1000):  # heavy ties, then few
            scores = rng.integers(-values, values, size=(rows, m)).astype(float)
            scores[rng.random((rows, m)) < 0.1] = 0.0
            scores[rng.random((rows, m)) < 0.1] *= -0.0
            # some rows with fewer candidates than n, some with none
            candidates = rng.random((rows, m)) < rng.random((rows, 1))
            for n in sorted({1, 2, max(m - 1, 1), m, m + 3}):
                got = base_rec._ranked(scores, candidates, n)
                want = reference_ranked(scores, candidates, n)
                assert [x.tolist() for x in got] == [x.tolist() for x in want]

    @pytest.mark.parametrize("seed", range(4))
    def test_int32_counts_equal_float64(self, seed):
        # integer scores are masked with the dtype's least value, not
        # widened to float64 and -inf: the same picks on tie-heavy counts,
        # with the int32 extremes above the mask among them
        rng = np.random.default_rng(seed)
        rows, m = int(rng.integers(1, 70)), int(rng.integers(1, 15))
        counts = rng.integers(0, 3, size=(rows, m)).astype(np.int32)
        extreme = rng.random((rows, m)) < 0.05
        counts[extreme] = rng.choice([np.iinfo(np.int32).max,
                                      np.iinfo(np.int32).min + 1], extreme.sum())
        candidates = rng.random((rows, m)) < rng.random((rows, 1))
        for n in sorted({1, 2, max(m - 1, 1), m, m + 3}):
            got = base_rec._ranked(counts, candidates, n)
            want = base_rec._ranked(counts.astype(np.float64), candidates, n)
            assert [x.tolist() for x in got] == [x.tolist() for x in want]
            assert [x.tolist() for x in got] == [
                x.tolist() for x in reference_ranked(counts, candidates, n)]

    def test_integer_votes(self):
        votes = np.array([[5, 0, 5, 2, 5], [0, 0, 0, 0, 0], [1, 2, 3, 4, 5]],
                         dtype=np.int32)
        candidates = np.array([[1, 1, 0, 1, 1], [1, 0, 1, 0, 0], [0, 0, 0, 0, 0]],
                              dtype=bool)
        rows, cols = base_rec._ranked(votes, candidates, 3)
        assert rows.tolist() == [0, 0, 0, 1, 1]
        assert cols.tolist() == [0, 4, 3, 0, 2]


class TestItemRetrieval:
    # cosine similarities for this table were worked out by hand:
    # sim(0,1)=0.78072006, sim(0,2)=0.15430335, sim(1,2)=0.31622777
    DENSE = [[5, 3, 0],
             [4, 0, 0],
             [1, 1, 5]]

    def test_hand_computed_similarities(self):
        m = _matrix_from_dense(self.DENSE)
        model = base_rec.train_ir(m, np.arange(3))
        sim = model.sim.toarray()
        assert sim[0, 1] == pytest.approx(0.78072006, abs=1e-8)
        assert sim[0, 2] == pytest.approx(0.15430335, abs=1e-8)
        assert sim[1, 2] == pytest.approx(0.31622777, abs=1e-8)
        assert sim[1, 0] == sim[0, 1]
        # self-similarity excluded
        assert np.all(sim.diagonal() == 0.0)

    def test_hand_computed_recommendation(self):
        m = _matrix_from_dense(self.DENSE)
        model = base_rec.train_ir(m, np.arange(3))
        # user 1 rated only item 0: score(1) = 4*0.78072 = 3.1229 beats
        # score(2) = 4*0.15430 = 0.6172
        scores = _scores(model, 1)
        assert scores[1] == pytest.approx(3.1228802334353056, abs=1e-10)
        assert scores[2] == pytest.approx(0.6172133998483676, abs=1e-10)
        assert _recs(model, 1, 1) == [1]
        assert _recs(model, 1, 5) == [1, 2]

    def test_submatrix_governs_similarity_not_candidacy(self):
        # model trained on users {0,1} never saw item 2 rated, so item 2
        # cannot be recommended even to user 2
        m = _matrix_from_dense(self.DENSE)
        model = base_rec.train_ir(m, np.array([0, 1]))
        assert 2 not in model.seen_items
        recs = _recs(model, 2, 3)
        assert 2 not in recs

    def test_rated_items_never_recommended(self):
        m = ratings.random_matrix(10, 8, seed=0)
        model = base_rec.train_ir(m, np.arange(10))
        for u in range(10):
            rated = set(m.rated_items(u).tolist())
            assert not rated & set(_recs(model, u, 8))

    def test_tie_break_ascending_id(self):
        # two identical columns tie exactly; lower item id must win
        dense = [[3, 3, 3, 0],
                 [2, 2, 2, 0],
                 [0, 5, 5, 4]]
        m = _matrix_from_dense(dense)
        model = base_rec.train_ir(m, np.arange(3))
        recs = _recs(model, 0, 1)
        assert recs == [3]  # only unrated seen item for user 0
        # user 2 unrated: item 0; columns 1 and 2 are identical raters
        scores = _scores(model, 2)
        assert scores[0] > 0

    def test_top_k_pruning(self):
        m = ratings.random_matrix(12, 30, seed=3, density=0.8)
        model = base_rec.train_ir(m, np.arange(12), base_rec.IRParams(k=4))
        per_row = np.diff(model.sim.indptr)
        assert per_row.max() <= 4

    @pytest.mark.parametrize("instance, pinned", [
        ("integer", "23ce63683649a57a"), ("signed-float", "8a4d97cdf7df68f0")])
    def test_vote_digest_pinned(self, tmp_path, instance, pinned):
        # pinned from the kernel whose Gram blocks were 256-row sparse
        # products: any later Gram, block size or pruning must cast exactly
        # the same votes; k=4 prunes nearly every row
        if instance == "integer":
            train = ratings.random_matrix(30, 300, seed=13, density=0.3)
        else:
            train = signed_float_matrix(tmp_path, n=30, m=300, seed=14)
            assert not train.domain.integral and train.domain.lo < 0
        assert train.n_items > 2 * base_rec._BLOCK  # several row blocks
        counts = ensemble.accumulate_votes(
            train, "ir", base_rec.IRParams(k=4), 10, 2, 5, 0, 30)
        digest = hashlib.sha256(
            np.ascontiguousarray(counts, dtype="<i4").tobytes()).hexdigest()
        assert counts.sum() == 30 * 10 * 2
        assert digest[:16] == pinned


class TestSubmatrixIds:
    """Both algorithms refuse user ids outside [0, n) and repeated ids,
    naming the first one given, and float ids."""

    @pytest.mark.parametrize("algo", ["ir", "bpr"])
    @pytest.mark.parametrize("users, message", [
        ([-2, 3], "user id -2 is not in \\[0, 12\\)"),
        ([3, 12], "user id 12 is not in \\[0, 12\\)"),
        ([5, -1, 20], "user id -1 is not in"),
        ([1, 1, 2, 3], "user id 1 is repeated"),
        ([4, 2, 4, -3], "user id 4 is repeated"),
    ], ids=["negative", "n", "first-of-two", "repeated", "repeated-first"])
    def test_refused(self, algo, users, message):
        matrix = ratings.random_matrix(12, 9, seed=3)
        params = base_rec.BPRParams(epochs=1) if algo == "bpr" else None
        with pytest.raises(ValueError, match=message):
            base_rec.train_base(algo, matrix, np.array(users), params)

    @pytest.mark.parametrize("algo", ["ir", "bpr"])
    @pytest.mark.parametrize("users", [[1.5, 2.9], [3.0, 4.0]],
                             ids=["fraction", "integral"])
    def test_float_ids_refused(self, algo, users):
        # int() would truncate them to another user's id
        matrix = ratings.random_matrix(12, 9, seed=3)
        params = base_rec.BPRParams(epochs=1) if algo == "bpr" else None
        with pytest.raises(TypeError):
            base_rec.train_base(algo, matrix, np.array(users), params)


class TestBPR:
    def test_loss_positive_and_decreasing_in_diff(self):
        pu = np.array([0.3, -0.2])
        qi = np.array([0.5, 0.1])
        qj = np.array([-0.4, 0.2])
        base = base_rec.bpr_pair_loss(pu, qi, qj, reg=0.0)
        better = base_rec.bpr_pair_loss(pu, qi * 2, qj, reg=0.0)
        assert base > 0
        assert better < base

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(40):
            d = 6
            pu, qi, qj = rng.normal(0, 0.5, (3, d))
            reg = 0.01
            gp, gi, gj = base_rec.bpr_pair_grads(pu, qi, qj, reg)
            h = 1e-6
            for vec, grad in ((pu, gp), (qi, gi), (qj, gj)):
                for k in range(d):
                    old = vec[k]
                    vec[k] = old + h
                    up = base_rec.bpr_pair_loss(pu, qi, qj, reg)
                    vec[k] = old - h
                    dn = base_rec.bpr_pair_loss(pu, qi, qj, reg)
                    vec[k] = old
                    num = (up - dn) / (2 * h)
                    denom = max(abs(num), abs(grad[k]), 1e-8)
                    worst = max(worst, abs(num - grad[k]) / denom)
        assert worst < 1e-5

    def test_training_reduces_ranking_loss(self):
        m = ratings.random_matrix(12, 10, seed=8, density=0.5)
        users = np.arange(12)
        params = base_rec.BPRParams(d=8, epochs=40, seed=3)
        model = base_rec.train_bpr(m, users, params)
        # trained factors should rank rated items above unrated ones more
        # often than chance
        wins = trials = 0
        for u in range(12):
            scores = _scores(model, u)
            rated = m.rated_items(u)
            unrated = np.setdiff1d(np.arange(10), rated)
            for i in rated:
                for j in unrated:
                    trials += 1
                    wins += scores[i] > scores[j]
        assert trials > 0
        assert wins / trials > 0.8

    def test_deterministic_per_seed(self):
        m = ratings.random_matrix(8, 8, seed=1)
        p = base_rec.BPRParams(d=4, epochs=5, seed=7)
        a = base_rec.train_bpr(m, np.arange(8), p)
        b = base_rec.train_bpr(m, np.arange(8), p)
        assert np.array_equal(a.user_factors, b.user_factors)
        assert np.array_equal(a.item_factors, b.item_factors)

    def test_vote_digest_pinned(self):
        # pinned from the trainer before it stepped with bpr_pair_grads: the
        # gradient form of the update must cast exactly the same votes
        train = ratings.random_matrix(20, 16, seed=9, density=0.4)
        counts = ensemble.accumulate_votes(
            train, "bpr", base_rec.BPRParams(d=6, epochs=4), 8, 2, 11, 0, 30)
        digest = hashlib.sha256(
            np.ascontiguousarray(counts, dtype="<i4").tobytes()).hexdigest()
        assert counts.sum() == 30 * 8 * 2
        assert digest[:16] == "90eb88b02032db67"

    def test_unknown_user_gets_no_recommendations(self):
        m = ratings.random_matrix(6, 6, seed=2)
        model = base_rec.train_bpr(m, np.array([0, 1, 2]),
                                   base_rec.BPRParams(d=4, epochs=2, seed=0))
        users, _ = base_rec.recommend_all(model, 3)
        assert 5 not in users

    def test_dispatch(self):
        m = ratings.random_matrix(6, 6, seed=2)
        ir = base_rec.train_base("ir", m, np.arange(6), base_rec.IRParams())
        bpr = base_rec.train_base("bpr", m, np.arange(6),
                                  base_rec.BPRParams(d=4, epochs=2, seed=0))
        assert ir.algo == "ir" and bpr.algo == "bpr"
        with pytest.raises(ValueError):
            base_rec.train_base("mf", m, np.arange(6), base_rec.IRParams())


def _assert_same_table(matrix, users, k):
    model = base_rec.train_ir(matrix, users, base_rec.IRParams(k=k))
    *_, want = reference_ir(matrix, users, k)
    for part in ("indices", "indptr", "data"):
        assert np.array_equal(getattr(model.sim, part), getattr(want, part)), part
    return want


def _cosine_rows(matrix, users):
    """Each item's cosines with its neighbours, unpruned, descending."""
    *_, full = reference_ir(matrix, users, 10 ** 6)
    return [np.sort(full.data[full.indptr[i]:full.indptr[i + 1]])[::-1]
            for i in range(matrix.n_items)]


class TestKernelGolden:
    """train_ir's row-blocked table equals the per-item loop entry for entry."""

    def test_structured_instance(self, structured):
        matrix, _ = structured
        for k in (3, 50):
            _assert_same_table(matrix, np.arange(0, matrix.n_users, 2), k)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_tiny(self, seed):
        rng = np.random.default_rng(seed)
        matrix = ratings.random_matrix(15, 40, seed=seed,
                                       density=(0.2, 0.5, 0.9)[seed % 3])
        users = rng.choice(15, size=8, replace=False)
        for k in (1, 2, 5, 50):
            _assert_same_table(matrix, users, k)

    def test_rows_spanning_blocks(self, monkeypatch):
        # several row blocks, the last one partial
        monkeypatch.setattr(base_rec, "_BLOCK", 7)
        matrix = ratings.random_matrix(20, 45, seed=9, density=0.5)
        _assert_same_table(matrix, np.arange(0, 20, 2), 4)

    @pytest.mark.parametrize("cells", [0, 3 * 5 * 37, 3 * 5 * 37 + 5 * 37 - 1])
    @pytest.mark.parametrize("kind", ["stars", "signed floats"])
    def test_slabs_split_the_items(self, tmp_path, monkeypatch, cells, kind):
        # blocks of 5 rows over 37 items: one block per slab (a slab below one
        # block), and slabs of 3 blocks, so slabs start mid-table at 15 and
        # 30 and the last one is short (7 rows: a full block and 2 rows)
        monkeypatch.setattr(base_rec, "_BLOCK", 5)
        monkeypatch.setattr(base_rec, "_SLAB", cells)
        matrix = (ratings.random_matrix(16, 37, seed=36, density=0.5)
                  if kind == "stars" else
                  signed_float_matrix(tmp_path, n=12, m=37, seed=36))
        users = np.arange(0, matrix.n_users, 2)
        assert base_rec.exact_gram(matrix.csr[users].data, users.size,
                                   np.int16) == (kind == "stars")
        for k in (1, 4):
            _assert_same_table(matrix, users, k)

    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 3)])
    def test_signed_floats_at_the_real_block_size(self, tmp_path, blocks, extra):
        # _BLOCK as shipped: the last block one row short of full, full, one
        # row long, and a third block of three rows; ratings 0.7 and 1.3 are
        # not dyadic, so Gram sums round and their order matters
        m = blocks * base_rec._BLOCK + extra
        matrix = signed_float_matrix(tmp_path, n=12, m=m, seed=m)
        assert matrix.n_items == m and matrix.domain.lo < 0
        _assert_same_table(matrix, np.arange(matrix.n_users), 5)

    def test_float_ratings_with_cancelling_sums(self, tmp_path):
        matrix = signed_float_matrix(tmp_path)
        assert not matrix.domain.integral and matrix.domain.lo < 0
        users = np.arange(matrix.n_users)
        table = _assert_same_table(matrix, users, 3)
        sub = matrix.csr[users]
        assert ((sub != 0).T @ (sub != 0))[0, 1] and (sub.T @ sub)[0, 1] == 0
        assert 1 not in table.indices[table.indptr[0]:table.indptr[1]]
        assert (table.data < 0).any()
        _assert_same_table(matrix, users, 50)

    def test_items_with_at_most_k_neighbours(self):
        matrix = ratings.random_matrix(10, 30, seed=4, density=0.15)
        users = np.arange(10)
        *_, full = reference_ir(matrix, users, 10 ** 6)
        per_row = np.diff(full.indptr)
        k = 4
        assert (per_row <= k).any() and (per_row > k).any()
        _assert_same_table(matrix, users, k)

    def test_k_below_one_refused(self):
        with pytest.raises(ValueError, match="ir.k"):
            base_rec.IRParams(k=0)

    # the pruning cases, in row blocks of 5 so a block holds rows of each
    # kind and the last block is partial

    def test_binary_ratings_tie_across_the_kth(self, monkeypatch):
        monkeypatch.setattr(base_rec, "_BLOCK", 5)
        matrix = _integer_matrix(6, 42, seed=32, values=[1])
        users = np.arange(6)
        rows = _cosine_rows(matrix, users)
        for k in (3, 6):
            straddle = [r.size > k and r[k - 1] == r[k] for r in rows]
            assert sum(straddle) > len(rows) / 2
            _assert_same_table(matrix, users, k)

    def test_rows_with_fewer_than_k_positive_cosines(self, monkeypatch):
        monkeypatch.setattr(base_rec, "_BLOCK", 5)
        matrix = _integer_matrix(8, 23, seed=31, values=[-3, -1, 1, 2, 3])
        users = np.arange(4)
        k = 8
        rows = _cosine_rows(matrix, users)
        positive = np.array([np.count_nonzero(r > 0) for r in rows])
        sizes = np.array([r.size for r in rows])
        # settled with more than k neighbours, and with at most k
        assert ((positive < k) & (sizes > k)).any()
        assert ((positive < k) & (sizes <= k)).any()
        assert (positive >= k).any()
        _assert_same_table(matrix, users, k)

    def test_item_no_submatrix_user_rated(self, monkeypatch):
        monkeypatch.setattr(base_rec, "_BLOCK", 5)
        matrix = ratings.random_matrix(14, 17, seed=33, density=0.4)
        item = 11
        users = np.setdiff1d(np.arange(14), matrix.csr[:, item].nonzero()[0])
        sub = matrix.csr[users]
        assert users.size >= 4 and (sub.T @ sub)[item].nnz == 0
        for k in (1, 3, 50):
            table = _assert_same_table(matrix, users, k)
            assert table.indptr[item] == table.indptr[item + 1]

    def test_signed_floats_with_kth_cosine_at_most_zero(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(base_rec, "_BLOCK", 5)
        matrix = signed_float_matrix(tmp_path, n=14, m=13, seed=34)
        users = np.arange(matrix.n_users)
        k = 5
        rows = _cosine_rows(matrix, users)
        assert any(r.size > k and r[k - 1] <= 0 for r in rows)
        assert any(r.size > k and r[k - 1] > 0 for r in rows)
        _assert_same_table(matrix, users, k)

    @pytest.mark.parametrize("extra_k", [-1, 0, 5])
    def test_k_at_least_m_minus_one(self, monkeypatch, extra_k):
        monkeypatch.setattr(base_rec, "_BLOCK", 5)
        matrix = ratings.random_matrix(10, 12, seed=35, density=0.7)
        users = np.arange(0, 10, 2)
        table = _assert_same_table(matrix, users, matrix.n_items + extra_k)
        *_, full = reference_ir(matrix, users, 10 ** 6)
        assert np.array_equal(table.indptr, full.indptr)


def _pruning_block(seed: int, rows: int = 80, m: int = 40):
    """(neg, gram) as _top_k_similarities hands them to _top_k_keep, with
    integer-valued negated cosines so that ties are heavy: rows sparse to
    dense, of positive, signed or negative Gram values, 0 and +inf at one
    own item."""
    rng = np.random.default_rng(seed)
    density = rng.choice([0.02, 0.1, 0.3, 0.7, 1.0], size=(rows, 1))
    kinds = np.array([(1, 4), (-3, 4), (-3, 0)])  # positive, signed, negative
    low, high = kinds[rng.integers(3, size=rows)].T
    values = rng.integers(low[:, None], high[:, None], size=(rows, m))
    gram = np.where(rng.random((rows, m)) < density, values, 0)
    own = np.arange(rows), rng.integers(0, m, size=rows)
    gram[own] = 0
    neg = -gram.astype(np.float64)
    neg[own] = np.inf
    return neg, gram


def _reference_keep(neg, gram, k: int):
    """Row by row: the neighbours (gram != 0) by ascending negated cosine,
    then ascending column, the first k of them kept."""
    keep = np.zeros(neg.shape, dtype=bool)
    for r in range(len(neg)):
        near = np.flatnonzero(gram[r] != 0)
        keep[r, near[np.lexsort((near, neg[r, near]))][:k]] = True
    return keep


class TestTopKKeep:
    """_top_k_keep against a per-row sort, on every case of the one rule."""

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_a_per_row_sort(self, seed, k):
        neg, gram = _pruning_block(seed)
        kth = np.sort(neg, axis=1)[:, k - 1]
        near = np.count_nonzero(gram, axis=1)
        # the cases: ties straddling a negative k-th value, rows with at
        # most k neighbours, and signed rows with more than k and a k-th
        # value >= 0, each settled by the same sort
        assert ((kth < 0) & (np.count_nonzero(neg <= kth[:, None], axis=1)
                             > k)).any()
        assert ((kth >= 0) & (near <= k)).any()
        assert ((kth >= 0) & (near > k)).any()
        assert np.array_equal(base_rec._top_k_keep(neg, gram, k),
                              _reference_keep(neg, gram, k))

    @pytest.mark.parametrize("extra", [-1, 0, 2])
    def test_k_at_least_m_minus_one(self, extra):
        neg, gram = _pruning_block(5)
        k = neg.shape[1] + extra
        keep = base_rec._top_k_keep(neg, gram, k)
        assert np.array_equal(keep, gram != 0)
        assert np.array_equal(keep, _reference_keep(neg, gram, k))


class TestExactGram:
    """exact_gram decides, for both ir kernels, whether a narrower Gram is
    exact; train_ir runs its Gram in int16 where it holds, and in float64
    otherwise."""

    @pytest.mark.parametrize("data, s, dtype, exact", [
        # s * max^2 at 2^24 - 1 = 9 * 1864135 and at 2^24 = 16 * 2^20
        ([1, 3, 2], 1864135, np.float32, True),
        ([1, 4, 2], 2 ** 20, np.float32, False),
        ([1], 2 ** 24 - 1, np.float32, True),
        ([1], 2 ** 24, np.float32, False),
        # the same pair at 2^53 = 4 * 2^51
        ([1], 2 ** 53 - 1, np.float64, True),
        ([1], 2 ** 53, np.float64, False),
        ([2, 1], 2 ** 51 - 1, np.float64, True),
        ([2, 1], 2 ** 51, np.float64, False),
        # bounded by |r|: -4 is past the bound where max(r) = 3 is not
        ([-3, 2], 1864135, np.float32, True),
        ([-4, 3], 2 ** 20, np.float32, False),
        # one non-integer among integers
        ([1, 2.5, 4], 1, np.float32, False),
        ([1, 2.5, 4], 1, np.float64, False),
        # no ratings: the Gram is all zeros
        ([], 200, np.float32, True),
        # s * max^2 at 2^15 - 1 and at 2^15 = 4 * 2^13 for int16
        ([1], 2 ** 15 - 1, np.int16, True),
        ([1], 2 ** 15, np.int16, False),
        ([1, 2], 2 ** 13 - 1, np.int16, True),
        ([1, 2], 2 ** 13, np.int16, False),
        # 1-5 stars: int16 for any s <= 1310 (25 * 1310 = 32750)
        ([1, 5, 3], 1310, np.int16, True),
        ([1, 5, 3], 1311, np.int16, False),
        # bounded by |r|: -6 is past the bound where max(r) = 5 is not
        ([-5, 4], 1310, np.int16, True),
        ([-6, 5], 911, np.int16, False),
        ([1, 2.5, 4], 1, np.int16, False),
        ([], 200, np.int16, True),
    ])
    def test_edges(self, data, s, dtype, exact):
        assert base_rec.exact_gram(np.array(data, dtype=float), s, dtype) is exact

    def test_fast_path_on_the_bench_instance(self, monkeypatch):
        # the train half of pipeline-ml100k seed 0's split, and the first
        # member that workload trains, at s = 200
        matrix = ratings._build_matrix(*bench_gen.ml100k_shaped(0),
                                       ratings._ML_DOMAIN)
        train, _ = ratings.split_train_test(matrix, 0.75, 0)
        members = ensemble.sample_submatrix(943, 200, ensemble.derive_seed(0, 0))
        _, sub = base_rec._submatrix(train, members)
        assert base_rec.exact_gram(sub.data, 200, np.int16)
        calls = _spy_exact_gram(monkeypatch)
        base_rec.train_ir(train, np.asarray(members))
        assert calls == [(np.int16, True)]

    def test_scipy_keeps_the_int16_product_in_int16(self):
        # the int16 Gram is the CSR x dense loop run in int16, not a product
        # widened by scipy
        x = np.array([[1, 0, 5], [3, 2, 0]], dtype=np.int16)
        gram = csr_matrix(x).T.tocsr()[0:2] @ x
        assert gram.dtype == np.int16
        assert np.array_equal(gram, (x.T @ x)[0:2])

    def test_float64_fallback_past_the_float32_bound(self, monkeypatch):
        # integer ratings declared non-integral, with s * max^2 = 6 * 4095^2
        # past 2^24: Gram sums such as 4095^2 + 4095^2 are odd multiples of 2
        # above 2^25, where float32 steps by 4
        matrix = _integer_matrix(6, 30, seed=36,
                                 values=[-4095, -3000, 3000, 4095])
        users = np.arange(6)
        _, sub = base_rec._submatrix(matrix, users)
        assert not base_rec.exact_gram(sub.data, 6, np.float32)
        assert not base_rec.exact_gram(sub.data, 6, np.int16)
        assert base_rec.exact_gram(sub.data, 6, np.float64)
        calls = _spy_exact_gram(monkeypatch)
        _assert_same_table(matrix, users, 5)
        assert calls == [(np.int16, False)]
        # the instance is one where an int16 Gram is wrong
        monkeypatch.setattr(base_rec, "exact_gram", lambda *args: True)
        with pytest.raises(AssertionError):
            _assert_same_table(matrix, users, 5)


def _spy_exact_gram(monkeypatch):
    """Record each base_rec.exact_gram call as (dtype, answer)."""
    calls, real = [], base_rec.exact_gram

    def spy(data, s, dtype):
        calls.append((dtype, real(data, s, dtype)))
        return calls[-1][1]
    monkeypatch.setattr(base_rec, "exact_gram", spy)
    return calls


def _integer_matrix(n: int, m: int, seed: int, values) -> ratings.RatingMatrix:
    """Random pattern at density 0.5 with ratings drawn from values; every
    user rates at least one item. Declared non-integral, as generic-csv
    files are: the batched kernel reads the stored values, not the domain."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, m)) < 0.5
    mask[np.arange(n), rng.integers(0, m, size=n)] = True
    users, items = np.nonzero(mask)
    scores = rng.choice(values, size=users.size).astype(float)
    dom = ratings.RatingDomain(lo=float(min(values)), hi=float(max(values)),
                               integral=False)
    return ratings._build_matrix(users.tolist(), items.tolist(), scores.tolist(),
                                 dom, user_ids=np.arange(n),
                                 item_ids=np.arange(m))


def _reference_subset_votes(matrix, subsets, k, n_prime):
    """conftest's per-item loop and per-user ranking, one subset at a time."""
    counts = np.zeros((matrix.n_users, matrix.n_items), dtype=np.int32)
    for subset in subsets:
        users, sub, seen, table = reference_ir(matrix, subset, k)
        scores = [table @ row for row in sub.toarray()]
        reference_model_votes(counts, users, sub, seen, scores, n_prime)
    return counts


def _batched_subset_votes(matrix, subsets, k, n_prime):
    counts = np.zeros((matrix.n_users, matrix.n_items), dtype=np.int32)
    subsets = np.array(subsets)
    users, items = base_rec.ir_votes_batched(matrix.csr.toarray()[subsets],
                                             subsets, k, n_prime)
    np.add.at(counts, (users, items), 1)
    return counts


_KERNEL_INSTANCES = {
    # ratings 1-5; some subsets leave an item unrated (zero norm)
    "random": lambda: ratings.random_matrix(8, 7, seed=21, density=0.4),
    # every rating equal: cosines depend on co-rating counts only, so many
    # rows tie at their k-th value
    "all-equal": lambda: _integer_matrix(8, 7, seed=22, values=[4]),
    # signed integers: Gram sums cancel to 0 and cosines go negative
    "signed": lambda: _integer_matrix(8, 7, seed=23, values=[-3, -1, 1, 2, 3]),
}


class TestBatchedKernel:
    """ir_votes_batched casts the votes of the per-item reference loop."""

    @pytest.mark.parametrize("n_prime", [1, 3])
    @pytest.mark.parametrize("k", [1, 2, "m-2", 50])
    @pytest.mark.parametrize("instance", sorted(_KERNEL_INSTANCES))
    def test_matches_reference(self, instance, k, n_prime):
        matrix = _KERNEL_INSTANCES[instance]()
        k = matrix.n_items - 2 if k == "m-2" else k
        subsets = list(itertools.combinations(range(matrix.n_users), 3))
        assert np.array_equal(_batched_subset_votes(matrix, subsets, k, n_prime),
                              _reference_subset_votes(matrix, subsets, k,
                                                      n_prime))

    def test_instances_cover_the_edge_cases(self):
        subsets = [list(c) for c in itertools.combinations(range(8), 3)]
        random = _KERNEL_INSTANCES["random"]()
        # an item nobody in the subset rated: zero norm, never a candidate
        assert any((random.csr[c].getnnz(axis=0) == 0).any() for c in subsets)
        # a row with more than k neighbours cut inside a run of equal cosines
        equal = _KERNEL_INSTANCES["all-equal"]()
        assert set(equal.csr.data) == {4.0}
        cut = 0
        for c in subsets:
            *_, full = reference_ir(equal, c, 10 ** 6)
            for i in range(equal.n_items):
                row = np.sort(full.data[full.indptr[i]:full.indptr[i + 1]])[::-1]
                cut += any(row.size > k and row[k - 1] == row[k] for k in (1, 2))
        assert cut
        signed = _KERNEL_INSTANCES["signed"]()
        gram = [(signed.csr[c].T @ signed.csr[c]).toarray() for c in subsets]
        shared = [((signed.csr[c] != 0).T @ (signed.csr[c] != 0)).toarray()
                  for c in subsets]
        assert any(((g == 0) & (p > 0)).any() for g, p in zip(gram, shared))

    def test_unsorted_subsets_and_one_user(self):
        matrix = ratings.random_matrix(6, 5, seed=2)
        subsets = [(4, 1, 2), (0, 5, 3)]
        assert np.array_equal(_batched_subset_votes(matrix, subsets, 2, 2),
                              _reference_subset_votes(matrix, subsets, 2, 2))
        single = [(u,) for u in range(6)]
        assert np.array_equal(_batched_subset_votes(matrix, single, 2, 1),
                              _reference_subset_votes(matrix, single, 2, 1))

    def test_n_prime_below_one_refused(self):
        matrix = ratings.random_matrix(4, 4, seed=0)
        with pytest.raises(ValueError, match="n_prime"):
            base_rec.ir_votes_batched(matrix.csr.toarray()[[[0, 1]]],
                                      np.array([[0, 1]]), 2, 0)
