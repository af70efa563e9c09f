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

The left side falls and the right side rises in r', and sigma grows with e,
so each user's certificate is fixed by attack radii E*(r'), the largest e at
which r' holds: r(e) = #{r' : E*(r') >= e}, the same shape as the baseline's
min(#{i : Z_i >= e}, N). `sweep` counts radii into one r matrix per rule
(users x e); `binary_search_r` answers one query at one e, the per-e reference.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .bounds import (CombinatoricContext, ProbBounds, _target_mask,
                     estimate_bounds, make_context, round_lower_star,
                     round_upper_star)

log = logging.getLogger(__name__)

_Z_CAP_FACTOR = 10  # bagging Z search stops at 10*n fake users; sigma has
                    # grown past any probability gap long before that


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


def verify_constraint(r_prime: int, q: CertQuery) -> bool:
    """Evaluate the certification constraint at candidate intersection size r_prime."""
    b = q.bounds
    k = min(len(b.items_in), q.N)
    if not 1 <= r_prime <= k:
        raise ValueError(f"r_prime must be in [1, {k}], got {r_prime}")
    sigma = q.ctx.sigma
    if isinstance(sigma, float) and math.isinf(sigma):
        return False  # coefficient ratio overflowed: no guarantee at this e
    lhs = round_lower_star(b.mu_desc[r_prime - 1], q.ctx)
    window = q.N - r_prime + 1
    avail = min(window, b.n_outside)
    if avail == 0:
        # no items outside I_u at all: nothing can displace the target set
        return True
    # competitors: the `avail` largest outside upper bounds; within them,
    # v1 is the smallest and HC_c sums the c smallest
    v1_star = round_upper_star(b.out_upper_desc[avail - 1], q.ctx)
    rhs = v1_star + sigma
    cap = q.n_prime - b.sum_lower
    if cap < 0:
        log.warning("user %d: vote-share cap below zero (%s); bounds are "
                    "inconsistent, clamping", b.user, cap)
        cap = 0
    for c in range(1, avail + 1):
        hc = b.out_prefix[avail] - b.out_prefix[avail - c]
        if cap < hc:
            hc = cap
        hc_star = round_upper_star(hc / q.n_prime, q.ctx)
        term = q.n_prime * (hc_star + sigma) / c
        if term < rhs:
            rhs = term
    return lhs > rhs


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


def _exactify(b: ProbBounds) -> ProbBounds:
    """Rebuild float bounds as exact rationals for exact-mode arithmetic."""
    return replace(b, lower=_fractions(b.lower), upper=_fractions(b.upper))


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


RULES = ("joint", "bagging")


def sweep(train, counts, target_sets, alpha: float, e_list, N: int,
          n_prime: int, s: int, mode: str = "approx",
          rules=("joint",)) -> tuple:
    """Certify every user under each rule at every e in e_list.

    target_sets maps user -> I_u (anything iterable of item ids). "joint" is
    the joint certificate, "bagging" the per-item baseline for N' = 1 votes.
    Bounds are estimated once per user at budget alpha / n; each rule turns
    them into radii, counted at every e. That equals a per-e search because
    sigma never decreases in e (tested for approx sigma up to e = 10n).
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
    if mode not in ("exact", "approx"):
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
    if not set(rules) <= set(RULES):
        raise ValueError(f"rules must be drawn from {RULES}, got {rules!r}")
    if "bagging" in rules and n_prime != 1:
        raise ValueError("the baseline is defined for N' = 1 vote counts")
    exact = mode == "exact"
    n = train.n_users
    alpha_u = alpha / n
    e_list = sorted(set(int(e) for e in e_list))
    if not e_list:
        raise ValueError("e_list must be nonempty")
    contexts = [make_context(n, e, s, exact) for e in e_list]
    per_rule = [[] for _ in rules]  # one r row per certified user
    calls, users, skipped = 0, [], []
    for u in range(n):
        items = tuple(int(i) for i in target_sets[u])
        if not items:
            skipped.append(u)
            continue
        users.append(u)
        b = estimate_bounds(counts, u, items, alpha_u)
        if exact:
            b = _exactify(b)

        def holds(r_prime: int, pos: int) -> bool:
            nonlocal calls
            calls += 1
            return verify_constraint(r_prime, CertQuery(
                bounds=b, ctx=contexts[pos], N=N, n_prime=n_prime))

        for rule, rows in zip(rules, per_rule):
            if rule == "joint":  # radii over positions in e_list
                radii = [e_list[p] for p in _radii(
                    holds, min(len(items), N), len(e_list) - 1)]
            else:
                radii = _bagging_z_values(b, n, s, exact)
            rows.append(_certified_sizes(radii, e_list, N))
    if skipped:
        log.info("skipped %d users with empty target sets: %s",
                 len(skipped), skipped[:20])
    users = np.array(users, dtype=np.int64)
    return tuple(SweepResult(
        users=users, e_list=tuple(e_list), alpha_u=alpha_u, skipped=tuple(skipped),
        r=np.array(rows, dtype=np.int64).reshape(len(users), len(e_list)),
        verify_calls=calls if rule == "joint" else 0)
        for rule, rows in zip(rules, per_rule))


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


def _bagging_z_values(b: ProbBounds, n: int, s: int, exact: bool) -> list[int]:
    """Z_i per target item, largest first, leaving out items that lose at e' = 0.

    Item i beats the single strongest outside competitor while
    floor*(lower_i) > ceil*(upper_max) + sigma(e'); Z_i is the largest such e'.
    """
    ctx0 = make_context(n, 0, s, exact)
    if b.n_outside == 0:
        return [_Z_CAP_FACTOR * n] * len(b.items_in)  # no competitor to lose to
    pbar_star = round_upper_star(b.out_upper_desc[0], ctx0)

    def survives(rank: int, e_prime: int) -> bool:
        # an overflowed sigma (+inf) fails the comparison, as it should
        return (round_lower_star(b.mu_desc[rank - 1], ctx0)
                > pbar_star + make_context(n, e_prime, s, exact).sigma)

    return _radii(survives, len(b.mu_desc), _Z_CAP_FACTOR * n)


def bagging_baseline_r(q: CertQuery) -> int:
    """Baseline certified size r = min(#{i in I_u : Z_i >= e}, N), for N' = 1 votes."""
    if q.n_prime != 1:
        raise ValueError("the baseline is defined for N' = 1 vote counts")
    zs = _bagging_z_values(q.bounds, q.ctx.n, q.ctx.s, q.ctx.exact_mode)
    return int(_certified_sizes(zs, [q.ctx.e], q.N)[0])
