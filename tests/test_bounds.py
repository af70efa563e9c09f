"""Beta quantiles, Clopper-Pearson bounds, combinatoric contexts, roundings."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from certrec import bounds
from certrec.ensemble import VoteCounts

from conftest import (item_sets, prob_row, reference_beta_quantile,
                      reference_bounds, reference_left_to_right_sum,
                      reference_top_counts)


class TestBetaQuantile:
    def test_round_trip(self):
        for a, b, q in [(3.0, 9.0, 0.025), (200.0, 1.0, 0.5), (1.0, 1.0, 0.37),
                        (0.5, 5.0, 0.999), (80.0, 120.0, 1e-6)]:
            x = bounds.beta_quantile(q, a, b)
            assert scipy.special.betainc(a, b, x) == pytest.approx(q, abs=1e-10)
            x = bounds.beta_quantile(q, a, b, upper=True)
            assert scipy.special.betaincc(a, b, x) == pytest.approx(q, abs=1e-10)

    def test_against_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = float(rng.uniform(0.2, 300.0))
            b = float(rng.uniform(0.2, 300.0))
            q = float(rng.uniform(1e-6, 1.0 - 1e-6))
            got = bounds.beta_quantile(q, a, b)
            want = float(scipy.stats.beta.ppf(q, a, b))
            assert got == pytest.approx(want, abs=5e-12)

    def test_degenerate_levels_rejected(self):
        with pytest.raises(ValueError):
            bounds.beta_quantile(0.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            bounds.beta_quantile(1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            bounds.beta_quantile(0.5, -1.0, 2.0)

    def test_directed_rounding(self):
        # the bracket ends one ULP apart, and the end returned lies on the
        # safe side of the level: the tail mass there never exceeds beta
        shapes = (0.5, 1.0, 2.0, 7.0, 50.0, 300.0, 2000.0)
        for a in shapes:
            for b in shapes:
                for beta in (1e-9, 1e-6, 1e-3, 0.025, 0.5):
                    lo = bounds.beta_quantile(beta, a, b)
                    assert (scipy.special.betainc(a, b, lo) < beta
                            <= scipy.special.betainc(a, b, math.nextafter(lo, 1)))
                    hi = bounds.beta_quantile(beta, a, b, upper=True)
                    assert (scipy.special.betaincc(a, b, hi) <= beta
                            < scipy.special.betaincc(a, b, math.nextafter(hi, 0)))

    def test_cp_bounds_round_outward(self):
        t, beta = 500, 1e-4
        for k in range(t):
            low = bounds.cp_lower(k + 1, t, beta)
            assert scipy.special.betainc(k + 1, t - k, low) <= beta
            up = bounds.cp_upper(k, t, beta)
            assert scipy.special.betaincc(k + 1, t - k, up) <= beta

    @given(st.floats(0.5, 50.0), st.floats(0.5, 50.0),
           st.floats(0.001, 0.999), st.floats(0.001, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_level(self, a, b, q1, q2):
        lo, hi = sorted((q1, q2))
        assert bounds.beta_quantile(lo, a, b) <= bounds.beta_quantile(hi, a, b) + 1e-15


# frozen reference values, computed once from an independent implementation
FROZEN_LOWER = [
    # (t_i, t, beta, value)
    (50, 100, 0.025, 0.39832112950330106),
    (100, 100, 1e-5 / 1682, 0.8274499614922599),
    (3, 10, 0.05, 0.08726443391415033),
]


class TestArrayBisection:
    """The array bisection against the scalar one it replaced, bit for bit."""

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    @pytest.mark.parametrize("t", [1, 2, 200, 10**4, 10**5])
    def test_equals_scalar_bisection(self, t, upper):
        rng = np.random.default_rng(t)
        ks = sorted({0, 1, t - 1, t} | set(rng.integers(0, t + 1, 6).tolist()))
        for beta in (0.5, 1e-2, 1e-4, 1e-6, 1e-9, 1e-12):
            # the shapes of cp_upper (k < t) and cp_lower (k > 0)
            pairs = ([(k + 1.0, t - k) for k in ks if k < t] if upper
                     else [(float(k), t - k + 1.0) for k in ks if k > 0])
            a, b = (np.array(x) for x in zip(*pairs))
            got = bounds.beta_quantile(beta, a, b, upper)
            want = [reference_beta_quantile(beta, x, y, upper) for x, y in pairs]
            assert got.tolist() == want
            assert [bounds.beta_quantile(beta, x, y, upper) for x, y in pairs] == want
            level = beta * (1.0 - bounds._LEVEL_MARGIN)
            edge = t if upper else 0
            cp = [1.0 if upper else 0.0] * (edge in ks) + [
                reference_beta_quantile(level, x, y, upper) for x, y in pairs]
            if upper:
                cp = cp[1:] + cp[:1]  # k = t comes last
            assert bounds._cp_by_count(np.array(ks), t, beta, upper).tolist() == cp
            one = bounds.cp_upper if upper else bounds.cp_lower
            assert [one(k, t, beta) for k in ks] == cp

    @pytest.mark.parametrize("t", [1, 2, 7, 1000])
    def test_seeded_equals_bisection_at_every_count(self, t):
        # the bracket seeded from scipy's inverse gives the float the
        # bisection from [0, 1] gives, for every count of both bounds at
        # the certify budgets of ML-100k (alpha 1e-3 over 943 users and
        # 1682 items, and over the users alone) and a wide level
        ks = np.arange(t + 1)
        for beta in (1e-3 / 943 / 1682, 1e-3 / 943, 0.3):
            for upper in (False, True):
                pairs = ([(k + 1.0, t - k) for k in ks[:-1]] if upper
                         else [(float(k), t - k + 1.0) for k in ks[1:]])
                a, b = (np.array(x) for x in zip(*pairs))
                want = [reference_beta_quantile(beta, x, y, upper)
                        for x, y in pairs]
                assert bounds.beta_quantile(beta, a, b, upper).tolist() == want
                level = beta * (1.0 - bounds._LEVEL_MARGIN)
                cp = [reference_beta_quantile(level, x, y, upper) for x, y in pairs]
                cp = cp + [1.0] if upper else [0.0] + cp  # the edge count
                assert bounds._cp_by_count(ks, t, beta, upper).tolist() == cp

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    def test_seed_off_its_bracket_falls_back(self, monkeypatch, upper):
        # every seed 1e-6 off: no seeded bracket holds the quantile, both
        # ends are checked, and every element bisects from [0, 1] instead
        t = 300
        c = np.arange(t, dtype=float)
        a, b = c + 1, t - c  # cp_upper's shapes, valid for either tail
        want = [reference_beta_quantile(1e-4, x, y, upper) for x, y in zip(a, b)]
        name = "betaincc" if upper else "betainc"
        tail, calls = getattr(scipy.special, name), []
        monkeypatch.setattr(scipy.special, name,
                            lambda *args: calls.append(1) or tail(*args))
        assert bounds.beta_quantile(1e-4, a, b, upper).tolist() == want
        seeded = len(calls)
        for inverse in ("betaincinv", "betainccinv"):
            real = getattr(scipy.special, inverse)
            monkeypatch.setattr(scipy.special, inverse,
                                lambda x, y, q, real=real: real(x, y, q) * (1 + 1e-6))
        calls.clear()
        assert bounds.beta_quantile(1e-4, a, b, upper).tolist() == want
        assert len(calls) > seeded + 30  # the steps from [0, 1]

    def test_counts_outside_zero_to_t_refused(self):
        for bad in ([-1, 3], [3, 11]):
            with pytest.raises(ValueError, match="need 0 <= count <= t"):
                bounds._cp_by_count(np.array(bad), 10, 0.01, False)


class TestClopperPearson:
    @pytest.mark.parametrize("t_i,t,beta,want", FROZEN_LOWER)
    def test_lower_frozen(self, t_i, t, beta, want):
        assert bounds.cp_lower(t_i, t, beta) == pytest.approx(want, rel=1e-12)

    def test_lower_zero_successes(self):
        assert bounds.cp_lower(0, 100, 0.025) == 0.0

    def test_upper_frozen(self):
        assert bounds.cp_upper(5, 100, 0.025) == \
            pytest.approx(0.11283491110546275, rel=1e-12)

    def test_upper_zero_count_closed_form(self):
        # T_j = 0: upper is 1 - beta^(1/T)
        want = 1.0 - 0.025 ** (1.0 / 100)
        assert bounds.cp_upper(0, 100, 0.025) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.03621669264517646, rel=1e-12)

    def test_upper_full_count(self):
        assert bounds.cp_upper(200, 200, 0.01) == 1.0

    def test_textbook_coverage_brackets_truth(self):
        # textbook CP: exact binomial coverage at level 1 - beta per side
        t, p, beta = 60, 0.3, 0.05
        # every count's bounds once, as cp_lower and cp_upper give them
        lower = bounds._cp_by_count(np.arange(t + 1), t, beta, False)
        upper = bounds._cp_by_count(np.arange(t + 1), t, beta, True)
        rng = np.random.default_rng(7)
        runs = 2000
        ks = [int(rng.binomial(t, p)) for _ in range(runs)]
        misses_lo = int((lower[ks] > p).sum())
        misses_hi = int((upper[ks] < p).sum())
        slack = 3 * math.sqrt(beta * (1 - beta) / runs)
        assert misses_lo / runs <= beta + slack
        assert misses_hi / runs <= beta + slack

    @given(st.integers(0, 40))
    @settings(max_examples=50, deadline=None)
    def test_lower_below_upper(self, t_i):
        t = 40
        beta = 0.02
        lo = bounds.cp_lower(t_i, t, beta)
        up = bounds.cp_upper(t_i, t, beta)
        assert lo <= t_i / t + 1e-12
        assert up >= t_i / t - 1e-12 or up == 1.0
        assert lo <= up


def _pmf_sum(t, p, lo, hi):
    """sum of the Binomial(t, p) pmf over lo..hi, in the current mpmath precision."""
    term = mpmath.binomial(t, lo) * p ** lo * (1 - p) ** (t - lo)
    total, ratio = term, p / (1 - p)
    for j in range(lo, hi):
        term *= ratio * (t - j) / (j + 1)
        total += term
    return total


def _binom_tail(t, p, k, at_least):
    """Exact P(X >= k) if at_least, else P(X <= k), for X ~ Binomial(t, p).

    Sums the pmf at 60 digits over the shorter side of k and complements
    when that side is the other one.
    """
    if p in (0.0, 1.0):  # X = t * p surely
        return int(t * p >= k if at_least else t * p <= k)
    with mpmath.workdps(60):
        p = mpmath.mpf(p)  # exact: every double is an mpf
        lo, hi = (k, t) if at_least else (0, k)
        if hi - lo <= t // 2:
            return _pmf_sum(t, p, lo, hi)
        return 1 - (_pmf_sum(t, p, 0, k - 1) if at_least
                    else _pmf_sum(t, p, k + 1, t))


EXACT_BETAS = (1e-3, 1e-6, 5.9e-9, 5.9e-13)


def _exact_grid(t):
    """Every count at t=200; at larger t both tails, t/2 and seeded interiors."""
    if t <= 200:
        return range(t + 1)
    interior = np.random.default_rng(t).integers(41, t - 40, size=3).tolist()
    return sorted({*range(41), *range(t - 40, t + 1), t // 2, *interior})


class TestExactCoverage:
    """Each bound holds at its level by exact binomial sums, not sampling.

    A lower bound L(k) fails when the true p lies below it, which for p just
    under L(k) happens with probability P_L(X >= k); the upper bound U(k)
    likewise with P_U(X <= k). Both must be at most beta.
    """

    @pytest.mark.parametrize("t", [200, 2000, 10000])
    def test_bounds_meet_their_level(self, t):
        excess = []
        for beta in EXACT_BETAS:
            for k in _exact_grid(t):
                if k > 0:
                    low = bounds.cp_lower(k, t, beta)
                    if _binom_tail(t, low, k, True) > beta:
                        excess.append(("lower", k, beta))
                if k < t:
                    up = bounds.cp_upper(k, t, beta)
                    if _binom_tail(t, up, k, False) > beta:
                        excess.append(("upper", k, beta))
        assert not excess, f"{len(excess)} bounds exceed their level: {excess[:5]}"

    def test_upper_at_zero_count_not_below_exact(self):
        # t_j = 0: the exact bound is 1 - beta^(1/t), which plain rounding of
        # the closed form lands below for most of this grid
        for t in (100, 1000, 10000, 100000):
            for beta in (0.025, 1e-4, 1e-6, 5.9e-7, 5.9e-13):
                with mpmath.workdps(60):
                    exact = 1 - mpmath.mpf(beta) ** (mpmath.mpf(1) / t)
                    assert mpmath.mpf(bounds.cp_upper(0, t, beta)) >= exact, \
                        (t, beta)


class TestContext:
    def test_sigma_small_exact(self):
        assert bounds.make_context(5, 1, 2).sigma == Fraction(1, 10)
        assert bounds.make_context(6, 1, 3).sigma == Fraction(1, 4)

    def test_sigma_zero_at_e0(self):
        ctx = bounds.make_context(943, 0, 200)
        assert ctx.sigma == 0 and ctx.sigma_hi == 0.0

    def test_sigma_approx_conservative_and_close(self):
        # sigma_hi is the smallest double at or above the exact sigma
        for e in (1, 2, 5, 17, 50):
            ctx = bounds.make_context(943, e, 200)
            assert Fraction(ctx.sigma_hi) >= ctx.sigma
            assert Fraction(math.nextafter(ctx.sigma_hi, 0.0)) < ctx.sigma

    def test_sigma_overflow_encodes_inf(self):
        ctx = bounds.make_context(3000, 2500, 1500)
        assert ctx.sigma_hi == math.inf
        assert ctx.sigma > Fraction(10) ** 308

    def test_grid_bounds_the_step_from_above(self):
        for n, s in ((5, 2), (943, 200), (3000, 1500)):  # C(3000,1500) > 1e900
            ctx = bounds.make_context(n, 0, s)
            assert Fraction(ctx.grid) >= Fraction(1, math.comb(n, s)) > 0
            assert Fraction(math.nextafter(ctx.grid, 0.0)) < \
                Fraction(1, math.comb(n, s))

    def test_sigma_monotone_in_e(self):
        vals = [bounds.make_context(60, e, 12).sigma for e in range(0, 31)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bounds.make_context(5, 0, 6)
        with pytest.raises(ValueError):
            bounds.make_context(5, -1, 2)

    def test_rounding_stars_exact(self):
        ctx = bounds.make_context(5, 1, 2)  # C(5,2) = 10
        assert bounds.round_lower_star(Fraction(37, 100), ctx) == Fraction(3, 10)
        assert bounds.round_upper_star(Fraction(37, 100), ctx) == Fraction(4, 10)
        assert bounds.round_lower_star(Fraction(3, 10), ctx) == Fraction(3, 10)
        assert bounds.round_upper_star(Fraction(3, 10), ctx) == Fraction(3, 10)
        assert bounds.round_lower_star(0.375, ctx) == Fraction(3, 10)
        assert bounds.round_upper_star(0.375, ctx) == Fraction(4, 10)

    def test_rounding_stars_approx_identity(self):
        # on C(943,200), a grid step lies far below double resolution: the
        # exact roundings bracket the float and convert back to it
        ctx = bounds.make_context(943, 1, 200)
        lo = bounds.round_lower_star(0.371, ctx)
        hi = bounds.round_upper_star(0.371, ctx)
        assert lo < Fraction(0.371) < hi
        assert hi - lo == Fraction(1, ctx.c_ns)
        assert float(lo) == float(hi) == 0.371


class TestProbBounds:
    """One user's probability bounds, as the BoundTable row that
    certification reads."""

    def _counts(self):
        c = np.zeros((2, 5), dtype=np.int32)
        c[0] = [70, 55, 30, 10, 0]
        return VoteCounts(T=100, n_prime=1, s=3, counts=c, master_seed=0,
                          algo="ir")

    def test_estimate_orderings(self):
        vc = self._counts()
        t = bounds.estimate_table(vc, [0], item_sets([(1, 0)]), 0.05, 5)
        lower, upper = reference_bounds(vc, 0, (0, 1), 0.05)
        assert t.lower.tolist() == lower  # item 0 has the most votes
        assert t.n_in.tolist() == [2] and t.n_out.tolist() == [3]
        assert t.top[0, :3].tolist() == sorted(upper, reverse=True)

    def test_bonferroni_budget(self):
        vc = self._counts()
        t = bounds.estimate_table(vc, [0], item_sets([(0,)]), 0.10, 1)
        # per-item budget alpha_u / m
        assert t.lower[0] == bounds.cp_lower(70, 100, 0.10 / 5)

    def test_items_in_must_be_valid(self):
        vc = self._counts()
        for bad in [(0, 0), (99,), ()]:
            with pytest.raises(ValueError, match="items_in"):
                bounds.exact_table(vc, [0], item_sets([bad]), 2)

    def test_sum_lower(self):
        vc = self._counts()
        t = bounds.estimate_table(vc, [0], item_sets([(0, 1, 2)]), 0.05, 2)
        assert t.sum_lower[0] == pytest.approx(sum(t.lower))

    def test_derived_sums_exact(self):
        # np.sum adds pairwise past 8 terms and rounds differently; sum_lower
        # must equal the left-to-right sum in ascending item order, and the
        # outside bounds must come largest first, in either kind of table
        rng = np.random.default_rng(1)  # a row where the two sums differ
        m, t = 120, 1000
        c = rng.integers(0, t + 1, size=(1, m)).astype(np.int32)
        vc = VoteCounts(T=t, n_prime=1, s=3, counts=c, master_seed=0,
                        algo="ir")
        items = sorted(int(i) for i in rng.choice(m, 25, replace=False))
        est = reference_bounds(vc, 0, items, 0.05)
        # the case this test guards
        assert np.sum(est[0]) != reference_left_to_right_sum(est[0])
        exact = ([Fraction(int(c[0, i]), t) for i in items],
                 [Fraction(int(c[0, j]), t) for j in range(m) if j not in items])
        for table, (low, up) in (
                (bounds.estimate_table(vc, [0], item_sets([items[::-1]]), 0.05, m), est),
                (bounds.exact_table(vc, [0], item_sets([items[::-1]]), m), exact)):
            assert table.sum_lower.tolist() == [reference_left_to_right_sum(low)]
            assert table.lower.tolist() == sorted(low, reverse=True)
            assert table.top[0, :len(up)].tolist() == sorted(up, reverse=True)


class TestBoundTable:
    def test_rows_equal_reference_bounds(self):
        # 150 users span three row blocks; small T gives tied counts, some
        # users have fewer outside items than the width, one has none
        rng = np.random.default_rng(3)
        n, m, t, width = 150, 9, 40, 4
        counts = rng.integers(0, t + 1, size=(n, m)).astype(np.int32)
        vc = VoteCounts(T=t, n_prime=1, s=3, master_seed=0, algo="ir",
                        counts=counts)
        users = [u for u in range(n) if u % 7]
        items = [tuple(rng.choice(m, size=int(rng.integers(1, m + 1)),
                                  replace=False).tolist()) for _ in users]
        for exact in (False, True):
            table = (bounds.exact_table(vc, users, item_sets(items), width) if exact else
                     bounds.estimate_table(vc, users, item_sets(items), 0.05, width))
            assert table.users.tolist() == users
            assert (table.n_out == 0).any() and (table.n_out < width).any()
            for k, (u, its) in enumerate(zip(users, items)):
                if exact:
                    p = prob_row(vc, u)
                    low = [p[i] for i in sorted(its)]
                    up = [p[j] for j in range(m) if j not in its]
                else:
                    low, up = reference_bounds(vc, u, its, 0.05)
                lo, kept = table.starts[k], min(width, len(up))
                assert table.lower[lo:lo + table.n_in[k]].tolist() == \
                    sorted(low, reverse=True)
                assert table.sum_lower[k] == reference_left_to_right_sum(low)
                assert table.top[k, :kept].tolist() == sorted(up, reverse=True)[:kept]
                assert (table.n_in[k], table.n_out[k]) == (len(its), len(up))

    @pytest.mark.parametrize("seed,n,m,t,width", [
        (0, 150, 9, 3, 4),      # heavy ties, three row blocks
        (1, 70, 12, 1, 5),      # counts 0 or 1 only
        (2, 40, 6, 50, 9),      # width > m
        (3, 130, 30, 10_000, 10),
    ])
    def test_table_matches_definitions(self, seed, n, m, t, width):
        # top: a partition and a sort of each user's outside counts, -1 past
        # the last (whose cells hold 0); sum_lower: a Python loop adding the
        # lower bounds in ascending item order. Some rows are all zero, some
        # users keep fewer than width items outside I_u
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, t + 1, size=(n, m)).astype(np.int32)
        counts[rng.random(n) < 0.2] = 0
        vc = VoteCounts(T=t, n_prime=1, s=3, master_seed=0, algo="ir",
                        counts=counts)
        users = [u for u in range(n) if u % 5]
        items = [tuple(rng.choice(m, size=int(rng.integers(1, m + 1)),
                                  replace=False).tolist()) for _ in users]
        want = reference_top_counts(counts, users, items, width)
        assert (want == -1).any() and (want[:, 0] == 0).any()
        alpha_u = 0.05
        for exact in (False, True):
            if exact:
                table = bounds.exact_table(vc, users, item_sets(items), width)
                low_of, up_of = (lambda c: Fraction(int(c), t),) * 2
            else:
                table = bounds.estimate_table(vc, users, item_sets(items), alpha_u, width)
                # cp_lower and cp_upper of each distinct count, once
                each = np.unique(counts).tolist()
                low = bounds._cp_by_count(each, t, alpha_u / m, False).tolist()
                up = bounds._cp_by_count(each, t, alpha_u / m, True).tolist()
                low_of = dict(zip(each, low)).__getitem__
                up_of = dict(zip(each, up)).__getitem__
            top = [[up_of(c) if c >= 0 else 0 for c in row] for row in want]
            assert table.top.tolist() == top
            assert table.sum_lower.tolist() == [
                reference_left_to_right_sum(low_of(counts[u, i]) for i in sorted(its))
                for u, its in zip(users, items)]

    def test_items_in_must_be_valid(self):
        vc = VoteCounts(T=10, n_prime=1, s=2, master_seed=0, algo="ir",
                        counts=np.zeros((3, 5), dtype=np.int32))
        for bad in [[(0, 1), ()], [(0, 1), (2, 2)], [(0, 1), (5,)], [(-1,), (0,)]]:
            with pytest.raises(ValueError, match="items_in"):
                bounds.estimate_table(vc, [0, 1], item_sets(bad), 0.05, 2)
