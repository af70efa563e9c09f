"""Exhaustive enumeration oracle and attack machinery."""

import inspect
import math
import textwrap
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix, vstack

from certrec import base_rec, bounds, ensemble, oracle, ratings

from conftest import (item_sets, prob_row, reference_attack_report,
                      reference_exhaustive_votes, reference_r,
                      reference_random_rows, reference_two_level_rows,
                      signed_float_matrix)


class TestExactProbs:
    def test_probabilities_sum_per_user(self):
        m = ratings.random_matrix(6, 5, seed=3)
        probs = oracle.exact_item_probs(m, "ir", base_rec.IRParams(), s=3,
                                        n_prime=1)
        assert probs.T == math.comb(6, 3)
        for u in range(6):
            row = prob_row(probs, u)
            total = sum(row)
            # with n_prime=1 every submatrix recommends at most one item
            assert total <= 1
            assert all(0 <= v <= 1 for v in row)
            assert all(isinstance(v, Fraction) for v in row)

    def test_refuses_huge_enumeration(self):
        m = ratings.random_matrix(40, 5, seed=0)
        with pytest.raises(ValueError, match="enumeration guard"):
            oracle.exact_item_probs(m, "ir", base_rec.IRParams(), s=20,
                                    n_prime=1)

    @pytest.mark.parametrize("s", [0, 7])
    def test_refuses_subset_size_outside_users(self, s):
        m = ratings.random_matrix(6, 5, seed=3)
        with pytest.raises(ValueError, match=f"need 1 <= s <= n, got s={s}, n=6"):
            oracle.exact_item_probs(m, "ir", base_rec.IRParams(), s=s,
                                    n_prime=1)

    def test_top_n_uses_clean_ratings_for_exclusion(self):
        m = ratings.random_matrix(6, 6, seed=8)
        probs = oracle.exact_item_probs(m, "ir", base_rec.IRParams(), s=3,
                                        n_prime=1)
        for u, top in enumerate(ensemble.ensemble_recommend_all(probs, m, 3)):
            assert len(top) <= 3
            assert not set(top) & set(m.rated_items(u).tolist())


class TestExactCertificates:
    def test_equal_reference_scan(self):
        # each user's certificate against the linear scan of the definition
        # on the exact probabilities; an appended row rates every item, so
        # that user has no target set and is certified r = 0
        rng = np.random.default_rng(16)
        seen = dict.fromkeys(("n_prime_2", "empty", "short", "r0", "r_pos"), 0)
        for _ in range(12):
            n, m = int(rng.integers(4, 8)), int(rng.integers(3, 7))
            matrix = oracle.append_fake_users(
                ratings.random_matrix(n, m, seed=int(rng.integers(10 ** 6))),
                np.full((1, m), 3.0))
            s, n_prime = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            N, e = int(rng.integers(1, m + 1)), int(rng.integers(0, 4))
            probs = oracle.exact_item_probs(matrix, "ir", base_rec.IRParams(),
                                            s, n_prime)
            targets, cert_r = oracle.exact_certificates(matrix, probs, N, e)
            ctx = bounds.make_context(n + 1, e, s)
            assert isinstance(targets, ratings.ItemSets)
            assert len(targets) == n + 1
            assert cert_r.dtype == np.int64 and cert_r.shape == (n + 1,)
            for u in range(n + 1):
                items = targets[u].tolist()
                if not items:
                    assert cert_r[u] == 0, u
                    seen["empty"] += 1
                    continue
                p = prob_row(probs, u)
                want = reference_r([p[i] for i in sorted(items)],
                                   [p[j] for j in range(m) if j not in items],
                                   ctx, N, n_prime)
                assert cert_r[u] == want, u
                seen["short"] += len(items) < N
                seen["r0"] += want == 0
                seen["r_pos"] += want > 0
            seen["n_prime_2"] += n_prime == 2
        assert all(seen.values()), seen


class TestFakeUsers:
    def test_append_shapes_and_ids(self):
        m = ratings.random_matrix(5, 4, seed=1)
        fake = np.array([[5.0, 0.0, 5.0, 0.0], [0.0, 5.0, 0.0, 0.0]])
        out = oracle.append_fake_users(m, fake)
        assert out.n_users == 7
        assert out.n_items == 4
        assert list(out.user_ids[-2:]) == [-1, -1]
        assert out.csr[5].data.tolist() == [5.0, 5.0]
        # original rows untouched
        assert (out.csr[:5] != m.csr).nnz == 0

    @pytest.mark.parametrize("fake", [
        [[0.0, 2.5, 0.0, -0.0, 1.0, 0.0, 0.0],   # a signed zero is not stored
         [0.0] * 7,                               # the empty row
         [3.0, 0.0, 0.0, 0.0, 4.0, 5.0, 1.0]],
        [5.0, 0.0, 5.0, 0.0, 0.0, 0.0, 5.0]])     # one row given flat
    def test_append_equals_vstack(self, fake):
        m = ratings.random_matrix(9, 7, seed=4)
        out = oracle.append_fake_users(m, np.array(fake)).csr
        want = vstack([m.csr, csr_matrix(np.atleast_2d(fake))]).tocsr()
        want.sort_indices()
        assert out.shape == want.shape
        for part in ("data", "indices", "indptr"):
            got, ref = getattr(out, part), getattr(want, part)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), part

    def test_append_refuses_wrong_width(self):
        m = ratings.random_matrix(5, 4, seed=1)
        with pytest.raises(ValueError, match="m existing items"):
            oracle.append_fake_users(m, np.ones((1, 5)))

    def test_attack_generators_respect_domain(self):
        m = ratings.random_matrix(6, 5, seed=2)
        rng = np.random.default_rng(0)
        for attack in oracle.ATTACKS:
            rows = oracle.make_fake_rows(m, e=3, attack=attack, rng=rng)
            assert rows.shape == (3, 5)
            vals = rows[rows != 0]
            assert vals.size > 0
            for v in vals:
                assert m.domain.accepts(float(v))

    def test_copy_popular_is_deterministic(self):
        m = ratings.random_matrix(6, 5, seed=2)
        a = oracle.make_fake_rows(m, 2, "copy-popular", np.random.default_rng(1))
        b = oracle.make_fake_rows(m, 2, "copy-popular", np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestSoundness:
    def _instance(self, n=6, m=5, seed=3, s=3, N=3, e=1):
        matrix = ratings.random_matrix(n, m, seed=seed)
        probs = oracle.exact_item_probs(matrix, "ir", base_rec.IRParams(), s, 1)
        targets, cert_r = oracle.exact_certificates(matrix, probs, N, e)
        return matrix, probs, targets, cert_r

    def test_random_attacks_never_violate(self):
        matrix, probs, targets, cert_r = self._instance()
        report = oracle.attack_soundness_check(
            matrix, probs, base_rec.IRParams(), N=3, e=1,
            attack="random-ratings", trials=15, seed=0,
            cert_r=cert_r, targets=targets)
        assert report.trials == 15
        assert report.ok
        assert not report.violations

    def test_e_zero_checks_clean_matrix_once(self):
        matrix, probs, targets, cert_r0 = self._instance(e=0)
        report = oracle.attack_soundness_check(
            matrix, probs, base_rec.IRParams(), N=3, e=0,
            attack="random-ratings", trials=50, seed=0,
            cert_r=cert_r0, targets=targets)
        assert report.trials == 1
        assert report.ok

    def test_intersection_bookkeeping(self):
        matrix, probs, targets, cert_r = self._instance()
        report = oracle.attack_soundness_check(
            matrix, probs, base_rec.IRParams(), N=3, e=1,
            attack="all-max-on-random-items", trials=8, seed=4,
            cert_r=cert_r, targets=targets)
        for u, r in enumerate(cert_r.tolist()):
            if r > 0:
                assert report.min_intersection[u] >= r

    def test_violation_detected_when_r_inflated(self):
        # sanity for the checker itself: claim a certificate on an item that
        # can never be recommended (the user already rated it), so every
        # trial must count a violation
        matrix, probs, _, _ = self._instance()
        targets = item_sets(matrix.rated_items(u)[:1]
                            for u in range(matrix.n_users))
        bogus = np.ones(matrix.n_users, dtype=np.int64)
        report = oracle.attack_soundness_check(
            matrix, probs, base_rec.IRParams(), N=3, e=1,
            attack="random-ratings", trials=5, seed=1,
            cert_r=bogus, targets=targets)
        assert not report.ok
        assert len(report.violations) > 0

    def test_exhaustive_two_level(self):
        matrix = ratings.random_matrix(5, 4, seed=6)
        probs = oracle.exact_item_probs(matrix, "ir", base_rec.IRParams(), 2, 1)
        targets, cert_r = oracle.exact_certificates(matrix, probs, 2, e=1)
        report = oracle.exhaustive_two_level_check(
            matrix, probs, base_rec.IRParams(), N=2, e=1, cert_r=cert_r,
            targets=targets)
        assert report.trials == 2 ** 4
        assert report.ok

    @pytest.mark.parametrize("e", [0, 2])
    def test_exhaustive_two_level_refuses_other_e(self, e, monkeypatch):
        # one fake row is an attack of the wrong size for e = 2 certificates,
        # and of no use against e = 0 ones: refused before any enumeration
        matrix = ratings.random_matrix(5, 4, seed=6)
        probs = oracle.exact_item_probs(matrix, "ir", base_rec.IRParams(), 2, 1)
        targets, cert_r = oracle.exact_certificates(matrix, probs, 2, e=e)
        monkeypatch.setattr(oracle, "append_fake_users", None)
        with pytest.raises(ValueError, match=f"checks e = 1 only, got e = {e}$"):
            oracle.exhaustive_two_level_check(
                matrix, probs, base_rec.IRParams(), N=2, e=e, cert_r=cert_r,
                targets=targets)

    def test_enumeration_guard(self):
        matrix = ratings.random_matrix(5, 22, seed=0, density=0.4)
        clean = oracle.exact_item_probs(matrix, "ir", base_rec.IRParams(), 2, 1)
        with pytest.raises(ValueError, match="desk-scale"):
            oracle.exhaustive_two_level_check(
                matrix, clean, base_rec.IRParams(), N=2, e=1,
                cert_r=np.zeros(5, dtype=np.int64), targets=item_sets([[]] * 5))

    def test_poisoned_enumeration_guard(self, monkeypatch):
        # the clean C(6, 3) subsets fit the guard, the poisoned C(7, 3) do not
        matrix, probs, targets, cert_r = self._instance()
        monkeypatch.setattr(oracle, "MAX_ENUM", math.comb(6, 3))
        with pytest.raises(ValueError, match="enumeration guard"):
            oracle.exhaustive_two_level_check(
                matrix, probs, base_rec.IRParams(), N=3, e=1, cert_r=cert_r,
                targets=targets)
        with pytest.raises(ValueError, match="enumeration guard"):
            oracle.attack_soundness_check(
                matrix, probs, base_rec.IRParams(), N=3, e=1,
                attack="random-ratings", trials=1, seed=0, cert_r=cert_r,
                targets=targets)

    def test_claims_of_another_matrix_refused(self):
        # one r and one I_u per user, or the comparison would broadcast
        matrix, probs, targets, cert_r = self._instance()
        with pytest.raises(ValueError, match="one entry per user"):
            oracle.exhaustive_two_level_check(
                matrix, probs, base_rec.IRParams(), N=3, e=1,
                cert_r=cert_r[:1], targets=targets)
        with pytest.raises(ValueError, match="one entry per user"):
            oracle.attack_soundness_check(
                matrix, probs, base_rec.IRParams(), N=3, e=1,
                attack="random-ratings", trials=1, seed=0, cert_r=cert_r,
                targets=item_sets([[0]]))

    def test_clean_counts_of_another_matrix_refused(self):
        matrix, probs, targets, cert_r = self._instance()
        other = ratings.random_matrix(5, 5, seed=3)
        with pytest.raises(ValueError, match="clean counts"):
            oracle.exhaustive_two_level_check(
                other, probs, base_rec.IRParams(), N=3, e=1, cert_r=cert_r,
                targets=targets)
        with pytest.raises(ValueError, match="clean counts"):
            oracle.attack_soundness_check(
                other, probs, base_rec.IRParams(), N=3, e=1,
                attack="random-ratings", trials=1, seed=0,
                cert_r=cert_r, targets=targets)


def _assert_same_counts(got, want):
    assert (got.T, got.n_prime, got.s, got.algo) == \
        (want.T, want.n_prime, want.s, want.algo)
    assert np.array_equal(got.counts, want.counts)


def _inflated_claims(matrix, clean, N):
    """Targets, and a claim of each whole target set (none for an empty
    one): some trials violate it, so a comparison covers nonempty violation
    lists."""
    targets = ensemble.ensemble_recommend_all(clean, matrix, N)
    return targets, targets.sizes


def _assert_matches_reference(matrix, clean, params, N, cert_r, targets,
                              check):
    """Run check ("two-level", or (attack, e, trials, seed)) and require
    its report to equal the per-poisoning reference's; returns the report."""
    if check == "two-level":
        report = oracle.exhaustive_two_level_check(
            matrix, clean, params, N=N, e=1, cert_r=cert_r, targets=targets)
        rows = reference_two_level_rows(matrix)
    else:
        attack, e, trials, seed = check
        report = oracle.attack_soundness_check(
            matrix, clean, params, N=N, e=e, attack=attack, trials=trials,
            seed=seed, cert_r=cert_r, targets=targets)
        rows = reference_random_rows(matrix, e, attack, trials, seed)
    trials, violations, low = reference_attack_report(
        matrix, clean, params, N, rows, cert_r, targets)
    assert (report.trials, report.violations) == (trials, violations)
    assert report.min_intersection.tolist() == low
    return report


class TestIncrementalPoisoning:
    """The attack checks reuse the clean counts, train only the subsets
    that hold a fake user and batch the poisonings; the per-poisoning
    reference (append, re-enumerate, rank, intersect sets) must agree on
    every report."""

    @pytest.mark.parametrize("algo,params", [
        ("ir", base_rec.IRParams(k=2)),
        ("bpr", base_rec.BPRParams(d=4, epochs=3))])
    @pytest.mark.parametrize("n_prime", [1, 2])
    @pytest.mark.parametrize("e", [0, 1, 2, 3])
    def test_random_poisonings(self, algo, params, n_prime, e):
        # s=2: at e >= 2 some subsets hold fake users only
        matrix = ratings.random_matrix(5, 6, seed=10 + e)
        clean = oracle.exact_item_probs(matrix, algo, params, 2, n_prime)
        targets, claimed = _inflated_claims(matrix, clean, 3)
        for attack in oracle.ATTACKS:
            _assert_matches_reference(matrix, clean, params, 3, claimed,
                                      targets, (attack, e, 2, e))

    def test_every_two_level_pattern(self):
        # k=2 prunes the 4-item tables, k=50 keeps every neighbour
        matrix = ratings.random_matrix(5, 4, seed=5)
        for k in (2, 50):
            params = base_rec.IRParams(k=k)
            clean = oracle.exact_item_probs(matrix, "ir", params, 2, 1)
            targets, claimed = _inflated_claims(matrix, clean, 2)
            report = _assert_matches_reference(matrix, clean, params, 2,
                                               claimed, targets, "two-level")
            assert report.trials == 2 ** 4 and report.violations

    def test_models_trained(self, monkeypatch):
        # C(5,2) clean models once in a batch (and once more one by one, the
        # cross-check), then C(6,2) - C(5,2) per fake row, batched; no
        # poisoned model at all when e=0
        matrix = ratings.random_matrix(5, 4, seed=6)
        trained, batched = [], []
        real, real_batched = oracle.train_base, oracle.ir_votes_batched

        def counted(*args):
            trained.append(1)
            return real(*args)

        def counted_batch(x, users, *args):
            batched.append(len(users))
            return real_batched(x, users, *args)

        monkeypatch.setattr(oracle, "train_base", counted)
        monkeypatch.setattr(oracle, "ir_votes_batched", counted_batch)
        clean = oracle.exact_item_probs(matrix, "ir", base_rec.IRParams(), 2, 1)
        assert (len(trained), sum(batched)) == (10, 10)
        no_claims = {"cert_r": np.zeros(5, dtype=np.int64),
                     "targets": item_sets([[]] * 5)}
        oracle.exhaustive_two_level_check(
            matrix, clean, base_rec.IRParams(), N=2, e=1, **no_claims)
        assert (len(trained), sum(batched)) == (10, 10 + 2 ** 4 * 5)
        trained.clear()
        batched.clear()
        oracle.attack_soundness_check(
            matrix, clean, base_rec.IRParams(), N=2, e=0,
            attack="random-ratings", trials=3, seed=0, **no_claims)
        assert not trained and not batched

    @pytest.mark.parametrize("check", ["two-level", "random-ratings-e0",
                                       "random-ratings-e2",
                                       "copy-popular-e3"])
    def test_reports_match_full_enumeration(self, check):
        matrix = ratings.random_matrix(5, 4, seed=5)
        params = base_rec.IRParams()
        probs = oracle.exact_item_probs(matrix, "ir", params, 2, 1)
        targets, claimed = _inflated_claims(matrix, probs, 2)
        if check != "two-level":
            attack, _, e = check.rpartition("-e")
            check = (attack, int(e), 6, 3)
        report = _assert_matches_reference(matrix, probs, params, 2, claimed,
                                           targets, check)
        if check != ("random-ratings", 0, 6, 3):
            assert report.violations

    @pytest.mark.parametrize("cells", [24, 72, 360])
    @pytest.mark.parametrize("seed,check", [
        (9, "two-level"), (6, ("all-max-on-random-items", 2, 7, 1))],
        ids=["two-level", "all-max-e2"])
    def test_chunks_do_not_change_reports(self, monkeypatch, cells, seed,
                                          check):
        # m * (m + s) = 24 cells: one model per kernel call; 72: three, so
        # a poisoning's 5 (e = 1) or 11 (e = 2) models end in a partial
        # call; 360: fifteen, so three one-row poisonings per chunk and a
        # partial last chunk. On both instances some user's smallest
        # intersection is not in the last trial, so the minimum must carry
        # across chunks
        matrix = ratings.random_matrix(5, 4, seed=seed)
        params = base_rec.IRParams(k=2)
        probs = oracle.exact_item_probs(matrix, "ir", params, 2, 2)
        targets, claimed = _inflated_claims(matrix, probs, 2)
        monkeypatch.setattr(oracle, "_BATCH_CELLS", cells)
        report = _assert_matches_reference(matrix, probs, params, 2, claimed,
                                           targets, check)
        assert report.violations


# mutations of base_rec.ir_votes_batched: (source line, its replacement)
_KERNEL_MUTATIONS = {
    "keep-self": ("    neg[:, diag, diag], gram[:, diag, diag] = np.inf, 0  "
                  "# self excluded\n", ""),
    "no-seen-mask": ("candidates = rated.any(axis=1, keepdims=True) & ~rated",
                     "candidates = ~rated"),
}


def _mutated_kernel(old: str, new: str):
    source = textwrap.dedent(inspect.getsource(base_rec.ir_votes_batched))
    assert old in source, "the mutation no longer applies to the kernel"
    namespace = dict(vars(base_rec))
    exec(source.replace(old, new), namespace)
    return namespace["ir_votes_batched"]


def _refuse_batched(*args):
    raise AssertionError("the batched kernel must not run here")


class TestBatchedOracle:
    """The oracle counts ir votes on integer ratings in batches; every run
    checks the clean models against train_ir + recommend_all."""

    @pytest.mark.parametrize("mutation", sorted(_KERNEL_MUTATIONS))
    def test_cross_check_refuses_mutated_kernel(self, monkeypatch, mutation):
        matrix = ratings.random_matrix(7, 6, seed=4, density=0.4)
        params = base_rec.IRParams(k=2)
        oracle.exact_item_probs(matrix, "ir", params, 3, 3)  # the real kernel
        monkeypatch.setattr(oracle, "ir_votes_batched",
                            _mutated_kernel(*_KERNEL_MUTATIONS[mutation]))
        with pytest.raises(RuntimeError, match="disagrees with train_ir"):
            oracle.exact_item_probs(matrix, "ir", params, 3, 3)

    @pytest.mark.parametrize("cells", [54, 200])
    def test_chunks_do_not_change_counts(self, monkeypatch, cells):
        # one model per batch (m * (m + s) = 54 cells), and batches of 3
        # models with a partial last one
        matrix = ratings.random_matrix(7, 6, seed=9)
        params = base_rec.IRParams(k=3)
        whole = oracle.exact_item_probs(matrix, "ir", params, 3, 2)
        monkeypatch.setattr(oracle, "_BATCH_CELLS", cells)
        _assert_same_counts(oracle.exact_item_probs(matrix, "ir", params, 3, 2),
                            whole)

    def test_integer_ratings_take_the_batched_path(self):
        matrix = ratings.random_matrix(7, 6, seed=5)
        params = base_rec.IRParams()
        assert oracle._batched_ir(matrix, "ir", 3)
        probs = oracle.exact_item_probs(matrix, "ir", params, 3, 2)
        assert probs.T == math.comb(7, 3)
        assert np.array_equal(probs.counts,
                              reference_exhaustive_votes(matrix, "ir", params, 3, 2))

    def test_float_ratings_take_the_model_path(self, monkeypatch, tmp_path):
        matrix = signed_float_matrix(tmp_path)
        params = base_rec.IRParams(k=3)
        assert not oracle._batched_ir(matrix, "ir", 2)
        monkeypatch.setattr(oracle, "ir_votes_batched", _refuse_batched)
        probs = oracle.exact_item_probs(matrix, "ir", params, 2, 2)
        assert np.array_equal(probs.counts,
                              reference_exhaustive_votes(matrix, "ir", params, 2, 2))
        targets, claimed = _inflated_claims(matrix, probs, 3)
        _assert_matches_reference(matrix, probs, params, 3, claimed, targets,
                                  ("random-ratings", 1, 2, 0))

    def test_float_fake_rows_take_the_model_path(self, monkeypatch):
        # integer ratings in a domain declared non-integral: the clean
        # models are batched, but random-ratings draws float scores, so the
        # poisonings train model by model
        matrix = ratings.random_matrix(6, 5, seed=7)
        matrix = replace(matrix, domain=replace(matrix.domain, integral=False))
        params = base_rec.IRParams(k=2)
        probs = oracle.exact_item_probs(matrix, "ir", params, 2, 1)
        rows = reference_random_rows(matrix, 2, "random-ratings", 3, 5)
        assert oracle._batched_ir(matrix, "ir", 2)
        assert not oracle._batched_ir(matrix, "ir", 2, np.stack(rows))
        monkeypatch.setattr(oracle, "ir_votes_batched", _refuse_batched)
        targets, claimed = _inflated_claims(matrix, probs, 2)
        _assert_matches_reference(matrix, probs, params, 2, claimed, targets,
                                  ("random-ratings", 2, 3, 5))

    def test_bpr_takes_the_model_path(self, monkeypatch):
        matrix = ratings.random_matrix(5, 5, seed=2)
        params = base_rec.BPRParams(d=4, epochs=3)
        monkeypatch.setattr(oracle, "ir_votes_batched", _refuse_batched)
        probs = oracle.exact_item_probs(matrix, "bpr", params, 2, 2)
        assert np.array_equal(probs.counts,
                              reference_exhaustive_votes(matrix, "bpr", params, 2, 2))
        targets, claimed = _inflated_claims(matrix, probs, 2)
        report = _assert_matches_reference(matrix, probs, params, 2, claimed,
                                           targets, "two-level")
        assert report.trials == 2 ** 5

    def test_exactness_condition(self, tmp_path):
        assert oracle._batched_ir(ratings.random_matrix(5, 4, seed=0), "ir", 3)
        assert not oracle._batched_ir(ratings.random_matrix(5, 4, seed=0), "bpr", 3)
        assert not oracle._batched_ir(signed_float_matrix(tmp_path), "ir", 3)
        # integer ratings whose Gram could pass 2^53: s * r^2 = 2^53
        big = ratings.random_matrix(5, 4, seed=0)
        big.csr.data[:] = 2.0 ** 26
        assert oracle._batched_ir(big, "ir", 1)
        assert not oracle._batched_ir(big, "ir", 2)
        # one model's dense arrays would outgrow a batch: train_ir's blocks
        wide = ratings.random_matrix(3, 400, seed=0, density=0.1)
        assert not oracle._batched_ir(wide, "ir", 2)
