"""Certification: the constraint kernel, the radius search, sweeps and the
bagging baseline, each against references read off the definitions."""

import math
import os
from fractions import Fraction

import numpy as np
import pytest

from certrec import base_rec, bounds, certify, ensemble, ratings

from conftest import (bench_gen, item_sets, one_row_table, prob_row,
                      reference_bagging_r, reference_bounds, reference_holds,
                      reference_r)
from test_bounds import _binom_tail


def _certify_row(lower, upper, contexts, N: int, n_prime: int,
                 rule: str = "joint") -> list:
    """certify_table's r for one row of bounds at each of contexts."""
    (res,) = certify.certify_table(one_row_table(lower, upper, N), contexts,
                                   N, n_prime, (rule,))
    return res.r[0].tolist()


def _holds_once(r_prime, lower, upper, ctx, N: int, n_prime: int) -> tuple:
    """(whether the joint comparison holds at r_prime, exact fallbacks) from
    certify._holds on one row of bounds."""
    ok, fell = certify._holds("joint", one_row_table(lower, upper, N), [0],
                              [r_prime], [ctx], [0], N, n_prime)
    return bool(ok[0]), fell


def _contexts(n: int, s: int, e_values) -> list:
    return [bounds.make_context(n, e, s) for e in e_values]


# n=5, s=2 instance with exact probabilities worked out by hand: inside
# I_u = (0, 1), p = 4/10, 3/10; outside 2/10, 1/10, 0, 0. T = C(5, 2) = 10
# vote counts give exactly these probabilities.
_HAND_COUNTS = ensemble.VoteCounts(T=10, n_prime=1, s=2, master_seed=0,
                                   algo="ir", counts=np.array(
                                       [[4, 3, 2, 1, 0, 0]], dtype=np.int32))


def _hand_table():
    return bounds.exact_table(_HAND_COUNTS, [0], item_sets([(0, 1)]), 3)


def _hand_certify(e_values, rules=("joint",)) -> list:
    return [res.r[0].tolist() for res in certify.certify_table(
        _hand_table(), _contexts(5, 2, e_values), 3, 1, rules)]


class TestHandWorkedInstance:
    # worked through the constraint by hand for every e; the certificate
    # holds r=2 until sigma reaches 3/10, r=1 until sigma reaches 9/10
    EXPECTED = {0: 2, 1: 2, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1,
                9: 0, 10: 0}

    @pytest.mark.parametrize("e,want", sorted(EXPECTED.items()))
    def test_exact_r_sequence(self, e, want):
        assert _hand_certify([e]) == [[want]]

    def test_one_call_certifies_every_e(self):
        (row,) = _hand_certify(range(11))
        assert row == [self.EXPECTED[e] for e in range(11)]

    def test_approx_matches_exact_here(self):
        # float bounds certify what their rational copies certify; the double
        # nearest 3/10 lies just below that grid point, so floor* drops it a
        # whole step and r falls below the hand value at e = 1 and e = 2
        lower, upper = [0.4, 0.3], [0.2, 0.1, 0.0, 0.0]
        contexts = _contexts(5, 2, range(11))
        got = _certify_row(lower, upper, contexts, 3, 1)
        assert got == _certify_row([Fraction(x) for x in lower],
                                   [Fraction(x) for x in upper], contexts, 3, 1)
        assert got == [2, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0]

    def test_constraint_details_at_e1(self):
        table = _hand_table()

        def holds(r_prime, e):
            ok, _ = certify._holds("joint", table, [0], [r_prime],
                                   _contexts(5, 2, [e]), [0], 3, 1)
            return bool(ok[0])

        assert holds(1, 1) and holds(2, 1)
        assert holds(1, 3) and not holds(2, 3)


class TestConstraintEdges:
    def test_overflowed_sigma_refuses(self):
        ctx = bounds.make_context(3000, 2500, 1500)  # sigma overflows to inf
        lower, upper = [Fraction(1, 10)], [Fraction(1, 10)] * 3
        assert _holds_once(1, lower, upper, ctx, 2, 1) == (False, 0)
        assert _certify_row(lower, upper, [ctx], 2, 1) == [0]

    def test_no_outside_items_always_certifies(self):
        lower = [Fraction(1, 2), Fraction(1, 2)]
        assert _certify_row(lower, [], _contexts(5, 2, [3]), 4, 1) == [2]

    def test_negative_cap_clamps_with_warning(self, caplog):
        # deliberately inconsistent bounds: lowers sum past N'
        with caplog.at_level("WARNING"):
            _certify_row([0.9, 0.8], [0.05, 0.0], _contexts(20, 5, [0]), 3, 1)
        assert any("cap" in rec.message for rec in caplog.records)

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            bounds.exact_table(_HAND_COUNTS, [0], item_sets([()]), 3)

    def test_contexts_must_be_one_instance_ascending(self):
        for contexts in (_contexts(5, 2, [2, 1]), _contexts(5, 2, [1, 1]), [],
                         _contexts(5, 2, [0]) + _contexts(6, 2, [1])):
            with pytest.raises(ValueError, match="contexts"):
                certify.certify_table(_hand_table(), contexts, 3, 1)


def _near_tie(x: float, rng) -> float:
    """x, or a double one or two ULPs to either side of it."""
    for _ in range(int(rng.integers(0, 3))):
        x = math.nextafter(x, math.inf if rng.integers(0, 2) else -math.inf)
    return x


class TestExactPredicate:
    def test_one_ulp_near_tie_fails(self):
        # e = 0 on C(943,200): mu is one ULP above the float cap 1 - sum of
        # the lower bounds, whose float sum rounds up, so float arithmetic
        # says "holds"; exactly, 2*mu + b + c <= 1, so mu <= cap and it fails
        mu, b, c = 0.34331416662130426, 0.10508917219869217, 0.2082824945586993
        cap = 1.0 - ((mu + b) + c)
        assert mu == math.nextafter(cap, math.inf)
        assert 2 * Fraction(mu) + Fraction(b) + Fraction(c) <= 1
        ctx = bounds.make_context(943, 0, 200)
        assert not reference_holds(1, [mu, b, c], [0.5], ctx, 1, 1)
        assert _holds_once(1, [mu, b, c], [0.5], ctx, 1, 1) == (False, 1)
        assert _certify_row([mu, b, c], [0.5], [ctx], 1, 1) == [0]

    @pytest.mark.parametrize("n,s", [(943, 200), (40, 6), (9, 3)])
    def test_random_bounds_and_near_ties_match_exact(self, n, s):
        # random float bounds as drawn, then with the r'-th lower bound (and
        # a baseline winner) moved within two ULPs of the float right side
        rng = np.random.default_rng(n)
        decided = dict.fromkeys(("float", "exact"), 0)

        def check(r_prime, lower, upper, ctx, N, n_prime):
            ok, fell = _holds_once(r_prime, lower, upper, ctx, N, n_prime)
            assert ok == reference_holds(r_prime, lower, upper, ctx, N, n_prime)
            decided["exact" if fell else "float"] += 1

        for _ in range(300):
            m = int(rng.integers(2, 10))
            n_in = int(rng.integers(1, m))
            N = int(rng.integers(1, m + 1))
            lower = rng.uniform(0, 1.5 / n_in, n_in)
            upper = rng.uniform(0, 1, m - n_in)
            ctx = bounds.make_context(n, int(rng.integers(0, 4)), s)
            n_prime = int(rng.integers(1, 4))
            r_prime = int(rng.integers(1, min(n_in, N) + 1))
            check(r_prime, lower, upper, ctx, N, n_prime)
            for _ in range(3):  # settle mu against the cap it feeds
                comp = sorted(upper, reverse=True)[:N - r_prime + 1][::-1]
                cap = max(n_prime - sum(lower.tolist()), 0.0)
                rhs = min([comp[0] + ctx.sigma_hi] + [
                    n_prime * (min(sum(comp[:c]), cap) / n_prime
                               + ctx.sigma_hi) / c
                    for c in range(1, len(comp) + 1)])
                lower[np.argsort(-lower, kind="stable")[r_prime - 1]] = \
                    _near_tie(rhs, rng)
            if lower.max() <= 1:
                check(r_prime, lower, upper, ctx, N, n_prime)
            if n_prime == 1:
                lower[0] = _near_tie(max(upper) + ctx.sigma_hi, rng)
                if lower[0] <= 1:
                    assert _certify_row(lower, upper, [ctx], N, 1, "bagging") == \
                        [reference_bagging_r(lower, upper, ctx, N)]
        # both paths ran on a few hundred comparisons
        assert min(decided.values()) > 20 and sum(decided.values()) > 400, decided


def _random_bounds(rng) -> tuple:
    """(lower, upper, contexts, N, n_prime): random bounds, as Fractions on
    the C(n, s) grid or as floats, and contexts at e = 0..4 and 10 n + 1."""
    n = int(rng.integers(5, 11))
    s = int(rng.integers(1, min(4, n) + 1))
    m = int(rng.integers(4, 13))
    n_in = int(rng.integers(1, min(6, m)))
    N = int(rng.integers(1, m + 1))
    denom = math.comb(n, s)
    if rng.integers(0, 2):
        lower, upper = ([Fraction(int(x), denom) for x in
                         rng.integers(0, denom + 1, size=k)] for k in (n_in, m - n_in))
    else:
        lower, upper = (rng.uniform(0, 1, size=k).tolist() for k in (n_in, m - n_in))
    return (lower, upper, _contexts(n, s, [0, 1, 2, 3, 4, 10 * n + 1]), N,
            int(rng.integers(1, 4)))


class TestSearchEquivalence:
    def test_radius_search_equals_linear_scan(self):
        # both rules, the baseline on the same bounds drawn as N' = 1 votes
        rng = np.random.default_rng(42)
        for _ in range(250):
            lower, upper, contexts, N, n_prime = _random_bounds(rng)
            assert _certify_row(lower, upper, contexts, N, n_prime) == [
                reference_r(lower, upper, ctx, N, n_prime) for ctx in contexts]
            assert _certify_row(lower, upper, contexts, N, 1, "bagging") == [
                reference_bagging_r(lower, upper, ctx, N) for ctx in contexts]

    def test_feasibility_downward_closed(self):
        # if the constraint holds at (r', e), it holds at every smaller r'
        # and e: the radius search relies on both
        rng = np.random.default_rng(7)
        for _ in range(100):
            lower, upper, contexts, N, n_prime = _random_bounds(rng)
            k = min(len(lower), N)
            rp, which = (g.ravel() for g in np.meshgrid(
                np.arange(1, k + 1), np.arange(len(contexts)), indexing="ij"))
            ok, _ = certify._holds("joint", one_row_table(lower, upper, N),
                                   np.zeros_like(rp), rp, contexts, which, N,
                                   n_prime)
            grid = ok.reshape(k, len(contexts))
            assert (grid[1:] <= grid[:-1]).all() and \
                (grid[:, 1:] <= grid[:, :-1]).all()


class TestSweep:
    def _setup(self):
        train = ratings.random_matrix(14, 10, seed=4)
        vc = ensemble.build_vote_counts(train, "ir", base_rec.IRParams(),
                                        T=300, s=5, n_prime=1, master_seed=11)
        targets = ensemble.ensemble_recommend_all(vc, train, 3)
        return train, vc, targets

    def test_monotone_in_e_and_complete(self):
        train, vc, targets = self._setup()
        e_list = [0, 1, 2, 4, 8]
        sweep = certify.sweep(train, vc, targets, alpha=0.2,
                              e_list=e_list, N=3)[0]
        assert not sweep.skipped
        assert sweep.users.tolist() == list(range(14))
        assert sweep.r.shape == (14, len(e_list))
        for u, rs in enumerate(sweep.r.tolist()):
            assert all(a >= b for a, b in zip(rs, rs[1:])), (u, rs)
        assert (sweep.r[:, 0] > 0).any()

    def test_alpha_budget_division(self):
        train, vc, targets = self._setup()
        sweep = certify.sweep(train, vc, targets, alpha=0.28,
                              e_list=[0], N=3)[0]
        assert sweep.alpha_u == pytest.approx(0.28 / 14)

    def test_empty_target_users_skipped(self):
        train, vc, _ = self._setup()
        targets = [[] for _ in range(14)]
        targets[3] = ensemble.ensemble_recommend_all(vc, train, 3)[3]
        sweep = certify.sweep(train, vc, item_sets(targets), alpha=0.2,
                              e_list=[0], N=3)[0]
        assert len(sweep.users) == 1
        assert set(sweep.skipped) == set(range(14)) - {3}

    @pytest.mark.parametrize("N", [0, -1])
    def test_nonpositive_N_refused(self, N):
        # N = 0 would divide the metric floors by zero, N = -1 certify r = -1
        train, vc, targets = self._setup()
        with pytest.raises(ValueError, match="N must be >= 1"):
            certify.sweep(train, vc, targets, alpha=0.2, e_list=[0], N=N,
                          rules=("joint", "bagging"))


def _random_sweep_instance(rng):
    """Random vote counts, targets and e list; some users skipped, some with
    |I_u| < N, some with no outside items."""
    n = int(rng.integers(5, 13))
    m = int(rng.integers(3, 9))
    s = int(rng.integers(1, 4))
    n_prime = int(rng.choice([1, 1, 2]))
    T = int(rng.integers(50, 2000))
    counts = np.zeros((n, m), dtype=np.int32)
    for u in range(n):
        p = rng.dirichlet(np.full(m, 0.3))
        if n_prime == 1:
            counts[u] = rng.multinomial(T, p)
        else:
            counts[u] = rng.binomial(T, np.minimum(n_prime * p, 1.0))
    vc = ensemble.VoteCounts(T=T, n_prime=n_prime, s=s, counts=counts,
                             master_seed=0, algo="ir")
    targets = []
    for u in range(n):
        size = int(rng.choice([0, 1, 2, 3, m]))
        targets.append(sorted(int(i) for i in
                              rng.choice(m, size=min(size, m), replace=False)))
    e_list = [int(e) for e in rng.choice(13, size=int(rng.integers(1, 6)))]
    N = int(rng.integers(1, m + 2))
    return ratings.random_matrix(n, m, seed=int(rng.integers(1000))), vc, \
        targets, e_list, N


class TestRadiusSweep:
    """The radius sweep against a per-(user, e) search."""

    @pytest.mark.parametrize("exact", [False, True], ids=["approx", "exact"])
    def test_equals_per_e_search(self, exact):
        # approx: sweep on the estimated bounds; exact: certify_table on the
        # exact_table of the same counts, Fraction(count, T). Each (user, e)
        # must equal the linear scan of the definition on the same values
        rng = np.random.default_rng(2024 if exact else 2023)
        seen = dict.fromkeys(("r0_at_min_e", "short_target", "no_outside",
                              "r_drops_in_e", "skipped"), 0)
        for _ in range(60):
            train, vc, targets, e_list, N = _random_sweep_instance(rng)
            rules = ("joint", "bagging") if vc.n_prime == 1 else ("joint",)
            alpha, n = 0.3, train.n_users
            e_sorted = sorted(set(e_list))
            users = [u for u in range(n) if targets[u]]
            if exact:
                results = certify.certify_table(
                    bounds.exact_table(vc, users,
                                       item_sets(targets[u] for u in users), N),
                    _contexts(n, vc.s, e_sorted), N, vc.n_prime, rules)
            else:
                results = certify.sweep(train, vc, item_sets(targets), alpha,
                                        e_list, N, rules)
                for res in results:
                    assert res.alpha_u == alpha / n
                    assert set(res.skipped) == set(range(n)) - set(users)
                # reference_bounds of every user, one call per side
                budget = alpha / n / vc.m
                low = bounds._cp_by_count(vc.counts, vc.T, budget, False)
                up = bounds._cp_by_count(vc.counts, vc.T, budget, True)
            seen["skipped"] += n - len(users)
            for rule, res in zip(rules, results):
                assert list(res.e_list) == e_sorted
                assert res.users.tolist() == users
                for u, row in zip(users, res.r.tolist()):
                    if exact:
                        p = prob_row(vc, u)
                        lower = [p[i] for i in sorted(targets[u])]
                        upper = [p[j] for j in range(vc.m) if j not in targets[u]]
                    else:
                        outside = [j for j in range(vc.m) if j not in targets[u]]
                        lower = low[u, sorted(targets[u])].tolist()
                        upper = up[u, outside].tolist()
                    want = [reference_r(lower, upper, ctx, N, vc.n_prime)
                            if rule == "joint" else
                            reference_bagging_r(lower, upper, ctx, N)
                            for ctx in _contexts(n, vc.s, e_sorted)]
                    assert row == want, (rule, u)
                    if rule == "joint":
                        seen["r0_at_min_e"] += want[0] == 0
                        seen["short_target"] += len(targets[u]) < N
                        seen["no_outside"] += len(targets[u]) == train.n_items
                        seen["r_drops_in_e"] += want[0] > want[-1]
        assert all(seen.values()), seen

    def test_unsorted_duplicated_sparse_e_list(self):
        train = ratings.random_matrix(14, 10, seed=4)
        vc = ensemble.build_vote_counts(train, "ir", base_rec.IRParams(),
                                        T=300, s=5, n_prime=1, master_seed=11)
        targets = ensemble.ensemble_recommend_all(vc, train, 3)
        kw = dict(alpha=0.2, N=3, rules=("joint", "bagging"))
        messy = certify.sweep(train, vc, targets, e_list=[10, 0, 5, 5], **kw)
        for res in messy:
            assert res.e_list == (0, 5, 10)
        for j, e in enumerate((0, 5, 10)):
            alone = certify.sweep(train, vc, targets, e_list=[e], **kw)
            for got, want in zip(messy, alone):
                assert got.users.tolist() == want.users.tolist()
                assert got.r[:, j].tolist() == want.r[:, 0].tolist()

    def test_empty_e_list_rejected(self):
        train = ratings.random_matrix(8, 6, seed=1)
        vc = ensemble.VoteCounts(T=10, n_prime=1, s=2, master_seed=0,
                                 algo="ir",
                                 counts=np.zeros((8, 6), dtype=np.int32))
        with pytest.raises(ValueError):
            certify.sweep(train, vc, item_sets([[0]] * 8), alpha=0.2, e_list=[], N=2)

    @pytest.mark.parametrize("n,s", [(943, 200), (943, 50), (14, 5), (8, 4)])
    def test_approx_sigma_never_decreases_in_e(self, n, s):
        # the radius form equals a per-e search only under this property,
        # which the float pass keeps by reading sigma_hi
        for name in ("sigma", "sigma_hi"):
            sigmas = [getattr(bounds.make_context(n, e, s), name)
                      for e in range(10 * n + 1)]
            assert all(a <= b for a, b in zip(sigmas, sigmas[1:])), name


class TestSweepNearTies:
    def test_float_pass_defers_to_exact_predicate(self):
        # C(7, 2) = 21: floor* and ceil* move each side by up to 1/21, so many
        # float margins lie inside the error bound; the sweep must decide
        # those exactly and agree with the constraint read off its definition
        rng = np.random.default_rng(8)
        n, m, s, T = 7, 8, 2, 4000
        counts = np.array([rng.multinomial(rng.binomial(T, s / n),
                                           rng.dirichlet(np.full(m, 0.5)))
                           for _ in range(n)], dtype=np.int32)
        vc = ensemble.VoteCounts(T=T, n_prime=1, s=s, counts=counts,
                                 master_seed=0, algo="ir")
        targets = [np.argsort(-row, kind="stable")[:3].tolist() for row in counts]
        train = ratings.random_matrix(n, m, seed=3)
        e_list = [0, 1, 2, 3]
        rules = ("joint", "bagging")
        results = certify.sweep(train, vc, item_sets(targets), 0.3, e_list, 3, rules)
        for rule, res in zip(rules, results):
            # each rule counts its own comparisons, the fallbacks among them
            assert res.verify_calls >= res.exact_fallbacks > 0, rule
            for u, row in zip(res.users.tolist(), res.r.tolist()):
                lower, upper = reference_bounds(vc, u, targets[u], 0.3 / n)
                for e, got in zip(e_list, row):
                    ctx = bounds.make_context(n, e, s)
                    want = (reference_r(lower, upper, ctx, 3, 1) if rule == "joint"
                            else reference_bagging_r(lower, upper, ctx, 3))
                    assert got == want, (rule, u, e)
        assert results[0].r.any() and not results[0].r.all()


class TestBagging:
    def test_hand_worked_z_values(self):
        # same instance as the certification hand example: at budgets e = 0,
        # 1, 2 the radius is the last e at which item i still beats the
        # single largest competitor
        table = _hand_table()
        contexts = _contexts(5, 2, [0, 1, 2])
        radii = certify._radii(
            lambda i, rank, which: certify._holds(
                "bagging", table, i, rank, contexts, which, 3, 1)[0],
            np.minimum(table.n_in, 3), len(contexts) - 1)
        assert radii.tolist() == [1, 0]  # item 0: sigma < 2/10 holds up to e=1; item 1: e=0

    def test_hand_worked_r_curve(self):
        assert _hand_certify([0, 1, 2, 5], ("bagging",)) == [[2, 1, 0, 0]]

    def test_pore_dominates_bagging_everywhere_here(self):
        pore, bag = _hand_certify(range(8), ("joint", "bagging"))
        assert all(p >= b for p, b in zip(pore, bag))
        assert any(p > b for p, b in zip(pore, bag))

    def test_pore_dominates_bagging_random(self):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(200):
            lower, upper, contexts, N, n_prime = _random_bounds(rng)
            if n_prime != 1:
                continue
            checked += 1
            pore, bag = certify.certify_table(one_row_table(lower, upper, N),
                                              contexts, N, 1, ("joint", "bagging"))
            assert (pore.r >= bag.r).all()
        assert checked > 40

    def test_requires_single_recommendation(self):
        with pytest.raises(ValueError, match="N' = 1"):
            certify.certify_table(_hand_table(), _contexts(5, 2, [0]), 3, 2,
                                  ("bagging",))

    def test_no_outside_items_certifies_all(self):
        # at every budget, also past e = 10 n
        lower = [Fraction(1, 2), Fraction(1, 4)]
        assert _certify_row(lower, [], _contexts(6, 3, [2, 61]), 3, 1,
                            "bagging") == [2, 2]

    def test_s1_certificate_holds_past_ten_n(self):
        # at s = 1, sigma = 0 at every e, so no budget moves either rule's r
        lower, upper = [Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 8)] * 3
        contexts = _contexts(6, 1, [0, 61])
        assert [ctx.sigma for ctx in contexts] == [0, 0]
        pore, bag = (_certify_row(lower, upper, contexts, 3, 1, rule)
                     for rule in ("joint", "bagging"))
        assert bag == [reference_bagging_r(lower, upper, contexts[0], 3)] * 2 == [2, 2]
        assert pore == [pore[0]] * 2 and pore[0] > 0

    def test_bagging_sweep_monotone(self):
        train = ratings.random_matrix(14, 10, seed=4)
        vc = ensemble.build_vote_counts(train, "ir", base_rec.IRParams(),
                                        T=300, s=5, n_prime=1, master_seed=11)
        targets = ensemble.ensemble_recommend_all(vc, train, 3)
        sweep = certify.sweep(train, vc, targets, alpha=0.2,
                              e_list=[0, 1, 3], N=3, rules=("bagging",))[0]
        for rs in sweep.r.tolist():
            assert all(a >= b for a, b in zip(rs, rs[1:]))


# seeds of the paper-scale check, e.g. "0,1,2": tier-1 runs seed 0 alone
_PAPER_SEEDS = [int(x) for x in
                os.environ.get("CERTREC_PAPER_SEEDS", "0").split(",")]


def _paper_instance(seed: int):
    """(train, votes) of certify-t10k at seed: the ML-100k-shaped split and
    its T = 10,000 paper-scale vote counts."""
    matrix = ratings._build_matrix(*bench_gen.ml100k_shaped(seed),
                                   ratings._ML_DOMAIN)
    train, _ = ratings.split_train_test(matrix, 0.75, seed)
    return train, ensemble.VoteCounts(
        T=bench_gen.VOTE_T, n_prime=1, s=bench_gen.VOTE_S,
        counts=bench_gen.paper_scale_votes(seed, train), master_seed=seed,
        algo="ir")


class TestFloatFilterAtPaperScale:
    """certify-t10k's sweep, every float decision redone exactly.

    The float pass decides a comparison when its margin clears the error
    bound; at this scale (C(943, 200) grids, sigma over e = 0:30) none falls
    back, so each decision rests on the bound alone. The smallest |margin| /
    bound seen is about 5.9e7 at seed 0 (1.4e8 at seed 1, 3.7e7 at seed 2);
    the fallback count and the floor below make a change that brings
    decisions near the bound visible.
    """

    @pytest.mark.parametrize("seed", _PAPER_SEEDS)
    def test_every_float_decision_is_exact(self, seed, monkeypatch):
        train, vc = _paper_instance(seed)
        N, seen = 10, {"decided": 0, "ratio": math.inf}
        real = certify._holds

        def checked(rule, table, i, rp, ctxs, which, N, n_prime):
            i, rp = np.asarray(i), np.asarray(rp)
            gap, err, _ = certify._float_pass(
                rule, table, i, rp, np.array([c.sigma_hi for c in ctxs])[which],
                np.array([c.grid for c in ctxs])[which], N, n_prime)
            # decided in floats; an infinite margin (no outside item, or
            # sigma past the double range) is no float decision
            sure = np.flatnonzero(np.isfinite(gap) & (np.abs(gap) > err))
            for t in sure.tolist():
                exact = certify._exact_holds(rule, table, int(i[t]), int(rp[t]),
                                             ctxs[which[t]], N, n_prime)
                assert (gap[t] > 0) == exact, (rule, int(i[t]), int(rp[t]))
            seen["decided"] += sure.size
            with np.errstate(divide="ignore"):
                ratio = np.abs(gap[sure]) / err[sure]
            seen["ratio"] = min(seen["ratio"], float(ratio.min(initial=math.inf)))
            return real(rule, table, i, rp, ctxs, which, N, n_prime)

        monkeypatch.setattr(certify, "_holds", checked)
        results = certify.sweep(train, vc,
                                ensemble.ensemble_recommend_all(vc, train, N),
                                0.001, range(31), N, ("joint", "bagging"))
        assert seen["decided"] == sum(r.verify_calls for r in results) > 20_000
        assert all(r.exact_fallbacks == 0 for r in results)
        assert seen["ratio"] > 1e6, seen


class TestExactBoundsAtPaperScale:
    """Every Clopper-Pearson bound certify-t10k reads, held to its level by
    exact binomial sums.

    At n = 943 and m = 1,682 the per-item level is 1e-3 / 943 / 1682, about
    6.3e-10, where a bound's validity rests on scipy's incomplete beta
    erring by less than bounds._LEVEL_MARGIN. Seed 0 bounds 448 distinct
    (count, side) pairs, the smallest relative slack (level - tail) / level
    among them about 9.5e-13.
    """

    @pytest.mark.parametrize("seed", _PAPER_SEEDS)
    def test_every_bound_meets_its_level(self, seed, monkeypatch):
        train, vc = _paper_instance(seed)
        N, real, seen = 10, bounds._cp_by_count, {}

        def recorded(counts, t, beta, upper):
            out = real(counts, t, beta, upper)
            seen.update(((int(c), upper), (t, beta, float(x)))
                        for c, x in zip(np.ravel(counts), out))
            return out

        monkeypatch.setattr(bounds, "_cp_by_count", recorded)
        # the bounds do not depend on e: one budget estimates them all
        certify.sweep(train, vc, ensemble.ensemble_recommend_all(vc, train, N),
                      0.001, [0], N, ("joint",))
        assert {(t, beta) for t, beta, _ in seen.values()} == {
            (vc.T, 0.001 / train.n_users / train.n_items)}
        slack = {}
        for (count, upper), (t, beta, bound) in seen.items():
            if count == (t if upper else 0):
                continue  # the bound is 1 (or 0): no p lies beyond it
            # a lower bound L fails with P_L(X >= count), an upper U with
            # P_U(X <= count)
            tail = _binom_tail(t, bound, count, not upper)
            slack[count, upper] = float((beta - tail) / beta)
        worst = min(slack, key=slack.get)
        print(f"seed {seed}: {len(slack)} bounds, smallest relative slack "
              f"{slack[worst]:.3g} at (count, upper) = {worst}")
        assert len(slack) > 100
        assert slack[worst] >= 0, (worst, slack[worst])
