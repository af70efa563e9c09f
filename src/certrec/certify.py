"""Certified intersection sizes for the ensemble recommender.

For a user u with target item set I_u (held-out test items or the clean top-N)
and at most e fake users appended to the rating matrix, the certified
intersection size r is the largest r' in [1, min(|I_u|, N)] satisfying

    floor*(mu_r') > min( min_{c=1..N-r'+1} N' * (ceil*(HC_c / N') + sigma) / c,
                         ceil*(v1) + sigma )

where mu_r' is the r'-th largest item-probability lower bound inside I_u, the
competitors are the N-r'+1 largest upper bounds outside I_u (v1 the smallest
of those, HC_c the sum of the c smallest of those, capped by N' minus the sum
of all lower bounds), sigma is the attack slack from the combinatoric context,
and floor*/ceil* are the C(n,s)-grid roundings; r = 0 when even r' = 1 fails.
Every comparison is decided exactly: a float pass evaluates both sides with a
rigorous bound on its error, and only the comparisons it cannot tell apart
are redone in rational arithmetic on the same bounds.

The left side falls and the right side rises in r', and sigma grows with e,
so each user's certificate is fixed by attack radii E*(r'), the largest e at
which r' holds: r(e) = #{r' : E*(r') >= e}, the same shape as the baseline's
min(#{i : Z_i >= e}, N). `sweep` counts radii into one r matrix per rule
(users x e); `binary_search_r` answers one query at one e, the per-e reference.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import (CombinatoricContext, ProbBounds, _target_mask,
                     estimate_bounds, make_context, round_lower_star,
                     round_upper_star)

log = logging.getLogger(__name__)

_Z_CAP_FACTOR = 10  # bagging Z search stops at 10*n fake users; sigma has
                    # grown past any probability gap long before that
_EPS = 2.0 ** -53   # unit roundoff of a double
_exact_fallbacks = 0  # comparisons the float pass left to exact arithmetic


@dataclass(frozen=True)
class CertQuery:
    """One certification question: a user's bounds under one attack context.

    The user and I_u come from bounds; e and s come from ctx.
    """

    bounds: ProbBounds
    ctx: CombinatoricContext
    N: int
    n_prime: int

    def __post_init__(self):
        if self.N < 1 or self.n_prime < 1:
            raise ValueError("need N >= 1, N' >= 1")


def _decide(lhs: float, rhs: float, err: float, exact) -> bool:
    """Exactly whether lhs > rhs, for floats within err of the exact sides:
    decided in floats when lhs - rhs clears err, else by exact(). rhs is
    +inf only when sigma lies past the double range, and then it fails."""
    global _exact_fallbacks
    gap = lhs - rhs
    if gap > err:
        return True
    if -gap > err or rhs == math.inf:
        return False
    _exact_fallbacks += 1
    return exact()


def _sides(mu, comp, cap, n_prime: int, sigma, lower_star, upper_star):
    """(lhs, rhs) of the constraint in the arithmetic of its arguments; comp
    holds the competitors ascending (v1 first, HC_c sums the first c)."""
    rhs = upper_star(comp[0]) + sigma
    for c, hc in enumerate(itertools.accumulate(comp), 1):
        rhs = min(rhs, n_prime * (upper_star(min(hc, cap) / n_prime) + sigma) / c)
    return lower_star(mu), rhs


def verify_constraint(r_prime: int, q: CertQuery) -> bool:
    """Evaluate the certification constraint at candidate intersection size r_prime."""
    b, ctx, n_prime = q.bounds, q.ctx, q.n_prime
    k = min(len(b.items_in), q.N)
    if not 1 <= r_prime <= k:
        raise ValueError(f"r_prime must be in [1, {k}], got {r_prime}")
    avail = min(q.N - r_prime + 1, b.n_outside)
    if avail == 0:
        # no items outside I_u at all: nothing can displace the target set
        return True
    # competitors: the `avail` largest outside upper bounds, ascending
    comp, mu = b.out_upper_desc[avail - 1::-1], b.mu_desc[r_prime - 1]
    sum_lower = float(b.sum_lower)
    if sum_lower > n_prime:
        log.warning("user %d: vote-share cap below zero (%s); bounds are "
                    "inconsistent, clamping", b.user, n_prime - sum_lower)
    lhs, rhs = _sides(float(mu), [float(x) for x in comp],
                      max(n_prime - sum_lower, 0.0), n_prime, ctx.sigma_hi,
                      float, float)
    # each float above is at most len(lower) + avail + 4 roundings of
    # nonnegative terms (and the cap's one subtraction) from its exact value;
    # floor* moves mu by < 1/C(n,s), ceil* a term by < N'/C(n,s); both doubled
    rho = 4 * (len(b.lower) + avail + 4) * _EPS
    err = rho * (lhs + rhs + n_prime + sum_lower) + 2 * (n_prime + 1) * ctx.grid

    def exact() -> bool:  # reads only the bounds it needs, as Fractions
        cap = max(n_prime - sum(Fraction(x) for x in b.lower.tolist()), Fraction(0))
        low, high = _sides(mu, [Fraction(x) for x in comp], cap, n_prime, ctx.sigma,
                           lambda p: round_lower_star(p, ctx),
                           lambda p: round_upper_star(p, ctx))
        return low > high

    return _decide(lhs, rhs, err, exact)


def binary_search_r(q: CertQuery) -> int:
    """Largest r' with the constraint satisfied, or 0 if none is."""
    lo, hi = 1, min(len(q.bounds.items_in), q.N)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if verify_constraint(mid, q):
            lo = mid
        else:
            hi = mid - 1
    # the loop converges to the only remaining candidate; it still needs one
    # check because nothing so far proves the constraint holds anywhere
    return lo if verify_constraint(lo, q) else 0


def exact_bounds_from_probs(user: int, items_in, probs, m: int) -> ProbBounds:
    """ProbBounds built from exact item probabilities (both sides tight).

    probs maps item id -> exact probability (Fraction). alpha_u is recorded
    as 0: there is no estimation error to budget for.
    """
    items_in, inside = _target_mask(items_in, m)
    probs = _fractions(probs[j] for j in range(m))
    return ProbBounds(user=user, items_in=items_in, lower=probs[inside],
                      upper=probs[~inside], alpha_u=0.0, m=m)


def _fractions(values) -> np.ndarray:
    return np.array([Fraction(v) for v in values], dtype=object)


@dataclass(frozen=True)
class SweepResult:
    """One rule's certificates: r[k, j] is the size certified for users[k]
    against at most e_list[j] fake users."""

    users: np.ndarray     # certified user ids, ascending
    e_list: tuple         # sorted distinct attack budgets
    r: np.ndarray         # int64, len(users) x len(e_list)
    alpha_u: float        # per-user error budget the bounds were estimated at
    skipped: tuple        # users with empty I_u
    verify_calls: int     # verify_constraint evaluations (0 for the baseline)
    exact_fallbacks: int  # comparisons the float pass left to exact arithmetic


RULES = ("joint", "bagging")


def sweep(train, counts, target_sets, alpha: float, e_list, N: int,
          n_prime: int, s: int, rules=("joint",)) -> tuple:
    """Certify every user under each rule at every e in e_list.

    target_sets maps user -> I_u (anything iterable of item ids). "joint" is
    the joint certificate, "bagging" the per-item baseline for N' = 1 votes.
    Bounds are estimated once per user at budget alpha / n; each rule turns
    them into radii, counted at every e. That equals a per-e search because
    sigma never decreases in e.
    Returns one SweepResult per rule, in the order of `rules`.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if counts.s != s or counts.n_prime != n_prime:
        raise ValueError(f"vote counts have s={counts.s}, N'={counts.n_prime}; "
                         f"certification asked for s={s}, N'={n_prime}")
    if counts.n != train.n_users or counts.m != train.n_items:
        raise ValueError("vote counts shape does not match the training matrix")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not set(rules) <= set(RULES):
        raise ValueError(f"rules must be drawn from {RULES}, got {rules!r}")
    if "bagging" in rules and n_prime != 1:
        raise ValueError("the baseline is defined for N' = 1 vote counts")
    n = train.n_users
    alpha_u = alpha / n
    e_list = sorted(set(int(e) for e in e_list))
    if not e_list:
        raise ValueError("e_list must be nonempty")
    contexts = [make_context(n, e, s) for e in e_list]
    per_rule = [[] for _ in rules]  # one r row per certified user
    fallbacks = [0 for _ in rules]
    calls, users, skipped = 0, [], []
    for u in range(n):
        items = tuple(int(i) for i in target_sets[u])
        if not items:
            skipped.append(u)
            continue
        users.append(u)
        b = estimate_bounds(counts, u, items, alpha_u)

        def holds(r_prime: int, pos: int) -> bool:
            nonlocal calls
            calls += 1
            return verify_constraint(r_prime, CertQuery(
                bounds=b, ctx=contexts[pos], N=N, n_prime=n_prime))

        for j, (rule, rows) in enumerate(zip(rules, per_rule)):
            before = _exact_fallbacks
            if rule == "joint":  # radii over positions in e_list
                radii = [e_list[p] for p in _radii(
                    holds, min(len(items), N), len(e_list) - 1)]
            else:
                radii = _bagging_z_values(b, n, s)
            rows.append(_certified_sizes(radii, e_list, N))
            fallbacks[j] += _exact_fallbacks - before
    if skipped:
        log.info("skipped %d users with empty target sets: %s",
                 len(skipped), skipped[:20])
    users = np.array(users, dtype=np.int64)
    return tuple(SweepResult(
        users=users, e_list=tuple(e_list), alpha_u=alpha_u, skipped=tuple(skipped),
        r=np.array(rows, dtype=np.int64).reshape(len(users), len(e_list)),
        verify_calls=calls if rule == "joint" else 0, exact_fallbacks=fell)
        for rule, rows, fell in zip(rules, per_rule, fallbacks))


def _certified_sizes(radii, e_list, N: int) -> np.ndarray:
    """r(e) = min(#{radii >= e}, N) at every e of e_list."""
    z = np.sort(np.asarray(radii, dtype=np.int64))
    return np.minimum(len(z) - np.searchsorted(z, e_list), N)


# ---------------------------------------------------------------------------
# radius search, and the single-competitor baseline (votes built with N' = 1)

def _radii(holds, k: int, cap: int) -> list[int]:
    """[R(1), R(2), ...]: R(j) is the largest x in [0, cap] with holds(j, x).

    holds must be monotone in both arguments (true at (j, x) implies true at
    every smaller j and x), so each R(j) is bisected below R(j - 1); the list
    stops at the first j that fails at x = 0.
    """
    radii = []
    for j in range(1, k + 1):
        if not holds(j, 0):
            break
        lo, hi = 0, cap + 1  # holds at lo; fails at hi, or hi is past cap
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if holds(j, mid):
                lo = mid
            else:
                hi = mid
        radii.append(lo)
        cap = lo
    return radii


def _bagging_z_values(b: ProbBounds, n: int, s: int) -> list[int]:
    """Z_i per target item, largest first, leaving out items that lose at e' = 0.

    Item i beats the single strongest outside competitor while
    floor*(lower_i) > ceil*(upper_max) + sigma(e'); Z_i is the largest such e'.
    """
    if b.n_outside == 0:
        return [_Z_CAP_FACTOR * n] * len(b.items_in)  # no competitor to lose to
    pbar = b.out_upper_desc[0]

    def survives(rank: int, e_prime: int) -> bool:
        ctx = make_context(n, e_prime, s)
        mu = b.mu_desc[rank - 1]
        lhs, rhs = float(mu), float(pbar) + ctx.sigma_hi
        # both sides are within four roundings of nonnegative terms, and
        # floor*/ceil* move each by less than 1/C(n,s); both bounds doubled
        err = 8 * _EPS * (lhs + rhs) + 4 * ctx.grid
        return _decide(lhs, rhs, err, lambda: (
            round_lower_star(mu, ctx) > round_upper_star(pbar, ctx) + ctx.sigma))

    return _radii(survives, len(b.mu_desc), _Z_CAP_FACTOR * n)


def bagging_baseline_r(q: CertQuery) -> int:
    """Baseline certified size r = min(#{i in I_u : Z_i >= e}, N), for N' = 1 votes."""
    if q.n_prime != 1:
        raise ValueError("the baseline is defined for N' = 1 vote counts")
    zs = _bagging_z_values(q.bounds, q.ctx.n, q.ctx.s)
    return int(_certified_sizes(zs, [q.ctx.e], q.N)[0])
