"""Certification: constraint evaluation, search, sweeps, bagging baseline."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from certrec import base_rec, bounds, certify, ensemble

from conftest import random_tiny_matrix


def _hand_query(e: int, exact: bool = True) -> certify.CertQuery:
    """n=5, s=2 instance with exact probabilities worked out by hand, as
    rational bounds or (exact=False) as the nearest doubles.

    Inside I_u = (0, 1): p = 4/10, 3/10. Outside: 2/10, 1/10, 0, 0.
    """
    probs = {0: Fraction(4, 10), 1: Fraction(3, 10), 2: Fraction(2, 10),
             3: Fraction(1, 10), 4: Fraction(0), 5: Fraction(0)}
    b = certify.exact_bounds_from_probs(0, (0, 1), probs, m=6)
    if not exact:
        b = bounds.ProbBounds(user=0, items_in=b.items_in,
                              lower=b.lower.astype(float),
                              upper=b.upper.astype(float), alpha_u=0.0, m=6)
    ctx = bounds.make_context(5, e, 2)
    return certify.CertQuery(bounds=b, ctx=ctx, N=3, n_prime=1)


class TestHandWorkedInstance:
    # worked through the constraint by hand for every e; the certificate
    # holds r=2 until sigma reaches 3/10, r=1 until sigma reaches 9/10
    EXPECTED = {0: 2, 1: 2, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1,
                9: 0, 10: 0}

    @pytest.mark.parametrize("e,want", sorted(EXPECTED.items()))
    def test_exact_r_sequence(self, e, want):
        assert certify.binary_search_r(_hand_query(e)) == want

    def test_approx_matches_exact_here(self):
        # float bounds certify what their rational copies certify; the double
        # nearest 3/10 lies just below that grid point, so floor* drops it a
        # whole step and r falls below the hand value at e = 1 and e = 2
        got = []
        for e in range(0, 11):
            q = _hand_query(e, exact=False)
            b = dataclasses.replace(q.bounds, lower=certify._fractions(q.bounds.lower),
                                    upper=certify._fractions(q.bounds.upper))
            got.append(certify.binary_search_r(q))
            assert got[-1] == certify.binary_search_r(
                dataclasses.replace(q, bounds=b))
        assert got == [2, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0]

    def test_constraint_details_at_e1(self):
        q = _hand_query(1)
        assert certify.verify_constraint(1, q)
        assert certify.verify_constraint(2, q)
        q3 = _hand_query(3)
        assert certify.verify_constraint(1, q3)
        assert not certify.verify_constraint(2, q3)

    def test_r_prime_out_of_range(self):
        q = _hand_query(0)
        with pytest.raises(ValueError):
            certify.verify_constraint(0, q)
        with pytest.raises(ValueError):
            certify.verify_constraint(3, q)  # min(|I_u|, N) = 2


class TestConstraintEdges:
    def test_overflowed_sigma_refuses(self):
        probs = {i: Fraction(1, 10) for i in range(4)}
        b = certify.exact_bounds_from_probs(0, (0,), probs, m=4)
        ctx = bounds.make_context(3000, 2500, 1500)  # sigma overflows to inf
        q = certify.CertQuery(bounds=b, ctx=ctx, N=2, n_prime=1)
        assert not certify.verify_constraint(1, q)
        assert certify.binary_search_r(q) == 0

    def test_no_outside_items_always_certifies(self):
        probs = {0: Fraction(1, 2), 1: Fraction(1, 2)}
        b = certify.exact_bounds_from_probs(0, (0, 1), probs, m=2)
        ctx = bounds.make_context(5, 3, 2)
        q = certify.CertQuery(bounds=b, ctx=ctx, N=4, n_prime=1)
        assert certify.binary_search_r(q) == 2

    def test_negative_cap_clamps_with_warning(self, caplog):
        # deliberately inconsistent bounds: lowers sum past N'
        b = bounds.ProbBounds(user=0, items_in=(0, 1),
                              lower=np.array([0.9, 0.8]),
                              upper=np.array([0.05, 0.0]), alpha_u=0.1, m=4)
        ctx = bounds.make_context(20, 0, 5)
        q = certify.CertQuery(bounds=b, ctx=ctx, N=3, n_prime=1)
        with caplog.at_level("WARNING"):
            certify.verify_constraint(1, q)
        assert any("cap" in rec.message for rec in caplog.records)

    def test_empty_target_rejected(self):
        probs = {0: Fraction(1, 2)}
        with pytest.raises(ValueError):
            certify.exact_bounds_from_probs(0, (), probs, m=1)


def exact_constraint(r_prime: int, q: certify.CertQuery) -> bool:
    """The constraint read off its definition in rational arithmetic."""
    ctx, n_prime = q.ctx, q.n_prime
    lower = sorted((Fraction(x) for x in q.bounds.lower.tolist()), reverse=True)
    comp = sorted((Fraction(x) for x in q.bounds.upper.tolist()),
                  reverse=True)[:q.N - r_prime + 1][::-1]
    if not comp:
        return True
    cap = max(n_prime - sum(lower), 0)
    rhs = min([bounds.round_upper_star(comp[0], ctx) + ctx.sigma] + [
        n_prime * (bounds.round_upper_star(Fraction(min(sum(comp[:c]), cap),
                                                    n_prime), ctx)
                   + ctx.sigma) / c
        for c in range(1, len(comp) + 1)])
    return bounds.round_lower_star(lower[r_prime - 1], ctx) > rhs


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
        pb = bounds.ProbBounds(user=0, items_in=(0, 1, 2),
                               lower=np.array([mu, b, c]),
                               upper=np.array([0.5]), alpha_u=0.01, m=4)
        q = certify.CertQuery(bounds=pb, ctx=bounds.make_context(943, 0, 200),
                              N=1, n_prime=1)
        assert not exact_constraint(1, q)
        assert not certify.verify_constraint(1, q)
        assert certify.binary_search_r(q) == 0

    @pytest.mark.parametrize("n,s", [(943, 200), (40, 6), (9, 3)])
    def test_random_bounds_and_near_ties_match_exact(self, n, s):
        # random float bounds as drawn, then with the r'-th lower bound (and
        # a baseline winner) moved within two ULPs of the float right side
        rng = np.random.default_rng(n)
        decided = dict.fromkeys(("float", "exact"), 0)

        def check(r_prime, q):
            before = certify._exact_fallbacks
            assert certify.verify_constraint(r_prime, q) == \
                exact_constraint(r_prime, q)
            decided["exact" if certify._exact_fallbacks > before else "float"] += 1

        for _ in range(300):
            m = int(rng.integers(2, 10))
            n_in = int(rng.integers(1, m))
            N = int(rng.integers(1, m + 1))
            lower = rng.uniform(0, 1.5 / n_in, n_in)
            upper = rng.uniform(0, 1, m - n_in)
            q = certify.CertQuery(
                bounds=bounds.ProbBounds(user=0, items_in=tuple(range(n_in)),
                                         lower=lower.copy(), upper=upper,
                                         alpha_u=0.01, m=m),
                ctx=bounds.make_context(n, int(rng.integers(0, 4)), s), N=N,
                n_prime=int(rng.integers(1, 4)))
            r_prime = int(rng.integers(1, min(n_in, N) + 1))
            check(r_prime, q)
            for _ in range(3):  # settle mu against the cap it feeds
                comp = sorted(upper, reverse=True)[:N - r_prime + 1][::-1]
                cap = max(q.n_prime - sum(lower.tolist()), 0.0)
                rhs = min([comp[0] + q.ctx.sigma_hi] + [
                    q.n_prime * (min(sum(comp[:c]), cap) / q.n_prime
                                 + q.ctx.sigma_hi) / c
                    for c in range(1, len(comp) + 1)])
                lower[np.argsort(-lower, kind="stable")[r_prime - 1]] = \
                    _near_tie(rhs, rng)
            if lower.max() <= 1:
                check(r_prime, dataclasses.replace(q, bounds=dataclasses.replace(
                    q.bounds, lower=lower.copy())))
            if q.n_prime == 1:
                lower[0] = _near_tie(max(upper) + q.ctx.sigma_hi, rng)
                if lower[0] <= 1:
                    bq = dataclasses.replace(q, bounds=dataclasses.replace(
                        q.bounds, lower=lower))
                    assert certify.bagging_baseline_r(bq) == bagging_scan_r(bq)
        # both paths ran on a few hundred comparisons
        assert min(decided.values()) > 20 and sum(decided.values()) > 400, decided


def _random_query(rng) -> certify.CertQuery:
    n = int(rng.integers(5, 11))
    s = int(rng.integers(1, min(4, n) + 1))
    e = int(rng.integers(0, 5))
    m = int(rng.integers(4, 13))
    n_in = int(rng.integers(1, min(6, m)))
    N = int(rng.integers(1, m + 1))
    exact = bool(rng.integers(0, 2))
    items_in = tuple(sorted(int(x) for x in rng.choice(m, n_in, replace=False)))
    in_set = set(items_in)
    denom = math.comb(n, s)
    if exact:
        lower = [Fraction(int(rng.integers(0, denom + 1)), denom)
                 for i in items_in]
        upper = [Fraction(int(rng.integers(0, denom + 1)), denom)
                 for j in range(m) if j not in in_set]
    else:
        lower = [float(rng.uniform(0, 1)) for i in items_in]
        upper = [float(rng.uniform(0, 1)) for j in range(m) if j not in in_set]
    b = bounds.ProbBounds(user=0, items_in=items_in,
                          lower=np.array(lower, dtype=object if exact else float),
                          upper=np.array(upper, dtype=object if exact else float),
                          alpha_u=0.01, m=m)
    ctx = bounds.make_context(n, e, s)
    return certify.CertQuery(bounds=b, ctx=ctx, N=N,
                             n_prime=int(rng.integers(1, 4)))


def linear_scan_r(q: certify.CertQuery) -> int:
    best = 0
    for rp in range(1, min(len(q.bounds.items_in), q.N) + 1):
        if certify.verify_constraint(rp, q):
            best = rp
    return best


class TestSearchEquivalence:
    def test_binary_equals_linear_on_random_bounds(self):
        rng = np.random.default_rng(42)
        for _ in range(250):
            q = _random_query(rng)
            assert certify.binary_search_r(q) == linear_scan_r(q)

    def test_feasibility_downward_closed(self):
        # if the constraint holds at r', it holds at every smaller r'
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = _random_query(rng)
            flags = [certify.verify_constraint(rp, q)
                     for rp in range(1, min(len(q.bounds.items_in), q.N) + 1)]
            first_false = flags.index(False) if False in flags else len(flags)
            assert all(flags[:first_false])
            assert not any(flags[first_false:])


class TestSweep:
    def _setup(self):
        train = random_tiny_matrix(14, 10, seed=4)
        vc = ensemble.build_vote_counts(train, "ir", base_rec.IRParams(),
                                        T=300, s=5, n_prime=1, master_seed=11)
        targets = [ensemble.ensemble_recommend(vc, train, u, 3)
                   for u in range(14)]
        return train, vc, targets

    def test_monotone_in_e_and_complete(self):
        train, vc, targets = self._setup()
        e_list = [0, 1, 2, 4, 8]
        sweep = certify.sweep(train, vc, targets, alpha=0.2,
                              e_list=e_list, N=3, n_prime=1, s=5)[0]
        assert not sweep.skipped
        assert sweep.users.tolist() == list(range(14))
        assert sweep.r.shape == (14, len(e_list))
        for u, rs in enumerate(sweep.r.tolist()):
            assert all(a >= b for a, b in zip(rs, rs[1:])), (u, rs)
        assert (sweep.r[:, 0] > 0).any()

    def test_alpha_budget_division(self):
        train, vc, targets = self._setup()
        sweep = certify.sweep(train, vc, targets, alpha=0.28,
                              e_list=[0], N=3, n_prime=1, s=5)[0]
        assert sweep.alpha_u == pytest.approx(0.28 / 14)

    def test_empty_target_users_skipped(self):
        train, vc, _ = self._setup()
        targets = [[] for _ in range(14)]
        targets[3] = ensemble.ensemble_recommend(vc, train, 3, 3)
        sweep = certify.sweep(train, vc, targets, alpha=0.2,
                              e_list=[0], N=3, n_prime=1, s=5)[0]
        assert len(sweep.users) == 1
        assert set(sweep.skipped) == set(range(14)) - {3}

    def test_mismatched_counts_rejected(self):
        train, vc, targets = self._setup()
        with pytest.raises(ValueError):
            certify.sweep(train, vc, targets, alpha=0.2, e_list=[0],
                          N=3, n_prime=2, s=5)
        with pytest.raises(ValueError):
            certify.sweep(train, vc, targets, alpha=0.2, e_list=[0],
                          N=3, n_prime=1, s=6)

    @pytest.mark.parametrize("N", [0, -1])
    def test_nonpositive_N_refused(self, N):
        # N = 0 would divide the metric floors by zero, N = -1 certify r = -1
        train, vc, targets = self._setup()
        with pytest.raises(ValueError, match="N must be >= 1"):
            certify.sweep(train, vc, targets, alpha=0.2, e_list=[0], N=N,
                          n_prime=1, s=5, rules=("joint", "bagging"))


def bagging_scan_r(q: certify.CertQuery) -> int:
    """Baseline r read off its definition at one e: the I_u items whose lower
    bound still beats the strongest outside upper bound plus sigma(e)."""
    b, ctx = q.bounds, q.ctx
    if b.n_outside == 0:
        return min(len(b.items_in), q.N)
    pbar = bounds.round_upper_star(b.out_upper_desc[0], ctx)
    wins = sum(1 for low in b.lower.tolist()
               if bounds.round_lower_star(low, ctx) > pbar + ctx.sigma)
    return min(wins, q.N)


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
    return random_tiny_matrix(n, m, seed=int(rng.integers(1000))), vc, \
        targets, e_list, N


class TestRadiusSweep:
    """The radius sweep against a per-(user, e) search."""

    @pytest.mark.parametrize("rational", [False, True], ids=["approx", "exact"])
    def test_equals_per_e_search(self, rational):
        # the reference search reads the sweep's float bounds, or (exact)
        # their rational copies: the answers depend on the values alone
        rng = np.random.default_rng(2024 if rational else 2023)
        seen = dict.fromkeys(("r0_at_min_e", "short_target", "no_outside",
                              "r_drops_in_e", "skipped"), 0)
        for _ in range(60):
            train, vc, targets, e_list, N = _random_sweep_instance(rng)
            rules = ("joint", "bagging") if vc.n_prime == 1 else ("joint",)
            alpha = 0.3
            results = certify.sweep(train, vc, targets, alpha, e_list, N,
                                    vc.n_prime, vc.s, rules)
            n = train.n_users
            seen["skipped"] += len(results[0].skipped)
            for rule, res in zip(rules, results):
                assert list(res.e_list) == sorted(set(e_list))
                assert res.alpha_u == alpha / n
                got = {(u, e): r for u, row in zip(res.users.tolist(),
                                                   res.r.tolist())
                       for e, r in zip(res.e_list, row)}
                for u in range(n):
                    if not targets[u]:
                        assert u in res.skipped
                        continue
                    b = bounds.estimate_bounds(vc, u, targets[u], alpha / n)
                    if rational:
                        b = dataclasses.replace(
                            b, lower=certify._fractions(b.lower),
                            upper=certify._fractions(b.upper))
                    rs = []
                    for e in sorted(set(e_list)):
                        q = certify.CertQuery(
                            bounds=b, N=N, n_prime=vc.n_prime,
                            ctx=bounds.make_context(n, e, vc.s))
                        if rule == "joint":
                            want = certify.binary_search_r(q)
                        else:
                            want = certify.bagging_baseline_r(q)
                            assert want == bagging_scan_r(q)
                        assert got[(u, e)] == want, (rule, u, e)
                        rs.append(want)
                    if rule == "joint":
                        seen["r0_at_min_e"] += rs[0] == 0
                        seen["short_target"] += len(targets[u]) < N
                        seen["no_outside"] += len(targets[u]) == train.n_items
                        seen["r_drops_in_e"] += rs[0] > rs[-1]
        assert all(seen.values()), seen

    def test_unsorted_duplicated_sparse_e_list(self):
        train = random_tiny_matrix(14, 10, seed=4)
        vc = ensemble.build_vote_counts(train, "ir", base_rec.IRParams(),
                                        T=300, s=5, n_prime=1, master_seed=11)
        targets = [ensemble.ensemble_recommend(vc, train, u, 3)
                   for u in range(14)]
        kw = dict(alpha=0.2, N=3, n_prime=1, s=5, rules=("joint", "bagging"))
        messy = certify.sweep(train, vc, targets, e_list=[10, 0, 5, 5], **kw)
        for res in messy:
            assert res.e_list == (0, 5, 10)
        for j, e in enumerate((0, 5, 10)):
            alone = certify.sweep(train, vc, targets, e_list=[e], **kw)
            for got, want in zip(messy, alone):
                assert got.users.tolist() == want.users.tolist()
                assert got.r[:, j].tolist() == want.r[:, 0].tolist()

    def test_empty_e_list_rejected(self):
        train = random_tiny_matrix(8, 6, seed=1)
        vc = ensemble.VoteCounts(T=10, n_prime=1, s=2, master_seed=0,
                                 algo="ir",
                                 counts=np.zeros((8, 6), dtype=np.int32))
        with pytest.raises(ValueError):
            certify.sweep(train, vc, [[0]] * 8, alpha=0.2, e_list=[], N=2,
                          n_prime=1, s=2)

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
        train = random_tiny_matrix(n, m, seed=3)
        e_list = [0, 1, 2, 3]
        rules = ("joint", "bagging")
        results = certify.sweep(train, vc, targets, 0.3, e_list, 3, 1, s, rules)
        for rule, res in zip(rules, results):
            assert res.exact_fallbacks > 0, rule
            for u, row in zip(res.users.tolist(), res.r.tolist()):
                b = bounds.estimate_bounds(vc, u, targets[u], 0.3 / n)
                b = dataclasses.replace(b, lower=certify._fractions(b.lower),
                                        upper=certify._fractions(b.upper))
                for e, got in zip(e_list, row):
                    q = certify.CertQuery(bounds=b, N=3, n_prime=1,
                                          ctx=bounds.make_context(n, e, s))
                    want = (max([rp for rp in range(1, 4)
                                 if exact_constraint(rp, q)], default=0)
                            if rule == "joint" else bagging_scan_r(q))
                    assert got == want, (rule, u, e)
        assert results[0].r.any() and not results[0].r.all()


class TestBagging:
    def test_hand_worked_z_values(self):
        # same instance as the certification hand example: Z counts how many
        # fake users item i survives against the single largest competitor
        q = _hand_query(0)
        z = certify._bagging_z_values(q.bounds, n=5, s=2)
        assert z == [1, 0]  # item 0: sigma < 2/10 holds up to e'=1; item 1: e'=0

    def test_hand_worked_r_curve(self):
        for e, want in [(0, 2), (1, 1), (2, 0), (5, 0)]:
            q = _hand_query(e)
            assert certify.bagging_baseline_r(q) == want, e

    def test_pore_dominates_bagging_everywhere_here(self):
        pore = [certify.binary_search_r(_hand_query(e)) for e in range(8)]
        bag = [certify.bagging_baseline_r(_hand_query(e)) for e in range(8)]
        assert all(p >= b for p, b in zip(pore, bag))
        assert any(p > b for p, b in zip(pore, bag))

    def test_pore_dominates_bagging_random(self):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(200):
            q = _random_query(rng)
            if q.n_prime != 1:
                continue
            checked += 1
            assert certify.binary_search_r(q) >= \
                certify.bagging_baseline_r(q)
        assert checked > 40

    def test_requires_single_recommendation(self):
        q = _hand_query(0)
        q2 = certify.CertQuery(bounds=q.bounds, ctx=q.ctx, N=3, n_prime=2)
        with pytest.raises(ValueError):
            certify.bagging_baseline_r(q2)

    def test_no_outside_items_certifies_all(self):
        probs = {0: Fraction(1, 2), 1: Fraction(1, 4)}
        b = certify.exact_bounds_from_probs(0, (0, 1), probs, m=2)
        ctx = bounds.make_context(6, 2, 3)
        q = certify.CertQuery(bounds=b, ctx=ctx, N=3, n_prime=1)
        assert certify.bagging_baseline_r(q) == 2

    def test_bagging_sweep_monotone(self):
        train = random_tiny_matrix(14, 10, seed=4)
        vc = ensemble.build_vote_counts(train, "ir", base_rec.IRParams(),
                                        T=300, s=5, n_prime=1, master_seed=11)
        targets = [ensemble.ensemble_recommend(vc, train, u, 3)
                   for u in range(14)]
        sweep = certify.sweep(train, vc, targets, alpha=0.2,
                              e_list=[0, 1, 3], N=3, n_prime=1, s=5,
                              rules=("bagging",))[0]
        for rs in sweep.r.tolist():
            assert all(a >= b for a, b in zip(rs, rs[1:]))
