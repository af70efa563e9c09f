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
and floor*/ceil* are the C(n,s)-grid roundings. The left side falls and the
right side rises in r', so binary search applies; r = 0 when even r' = 1 fails.
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


@dataclass(frozen=True)
class CertResult:
    user: int
    e: int
    r: int
    alpha: float  # per-user error budget the bounds were estimated at
    mode: str     # "exact" or "approx"


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


def binary_search_r(q: CertQuery) -> CertResult:
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
    return _result(q.bounds, q.ctx, lo if verify_constraint(lo, q) else 0)


def _result(b: ProbBounds, ctx: CombinatoricContext, r: int) -> CertResult:
    return CertResult(user=b.user, e=ctx.e, r=r, alpha=b.alpha_u,
                      mode="exact" if ctx.exact_mode else "approx")


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
    """Certification results per attack budget, plus the users skipped."""

    per_e: dict           # e -> list[CertResult], user-ascending
    skipped: tuple        # users with empty I_u


RULES = ("joint", "bagging")


def sweep(train, counts, target_sets, alpha: float, e_list, N: int,
          n_prime: int, s: int, mode: str = "approx",
          rules=("joint",)) -> tuple:
    """Certify every user under each rule at every e in e_list.

    target_sets maps user -> I_u (anything iterable of item ids). "joint" is
    the joint certificate (binary_search_r); "bagging" is the per-item
    single-competitor baseline, defined for N' = 1 votes. Each user's bounds
    are estimated once, at the per-user budget alpha / n, and shared by every
    rule and every e; only sigma changes with e. Returns one SweepResult per
    rule, in the order of `rules`.
    """
    _check_counts(counts, train, s, n_prime)
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
    contexts = {e: make_context(n, e, s, exact) for e in e_list}
    per_rule = [{e: [] for e in e_list} for _ in rules]
    skipped = []
    for u in range(n):
        items = tuple(int(i) for i in target_sets[u])
        if not items:
            skipped.append(u)
            continue
        b = estimate_bounds(counts, u, items, alpha_u)
        if exact:
            b = _exactify(b)
        for rule, per_e in zip(rules, per_rule):
            if rule == "joint":
                for e in e_list:
                    q = CertQuery(bounds=b, ctx=contexts[e], N=N,
                                  n_prime=n_prime)
                    per_e[e].append(binary_search_r(q))
            else:
                zs = _bagging_z_values(b, n, s, exact)
                for e in e_list:
                    per_e[e].append(_bagging_result(b, zs, contexts[e], N))
    if skipped:
        log.info("skipped %d users with empty target sets: %s",
                 len(skipped), skipped[:20])
    return tuple(SweepResult(per_e=per_e, skipped=tuple(skipped))
                 for per_e in per_rule)


def _check_counts(counts, train, s: int, n_prime: int) -> None:
    if counts.s != s or counts.n_prime != n_prime:
        raise ValueError(
            f"vote counts were built with s={counts.s}, N'={counts.n_prime}; "
            f"certification asked for s={s}, N'={n_prime}")
    if counts.n != train.n_users or counts.m != train.n_items:
        raise ValueError("vote counts shape does not match the training matrix")


# ---------------------------------------------------------------------------
# single-competitor baseline (votes built with N' = 1)

def _largest_surviving_e(survives, cap: int) -> int:
    """Largest e' in [0, cap] with survives(e') true, else -1 (monotone in e')."""
    if not survives(0):
        return -1
    lo, hi = 0, 1
    while hi <= cap and survives(hi):
        lo, hi = hi, hi * 2
    if hi > cap:
        if survives(cap):
            return cap
        hi = cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if survives(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _bagging_z_values(b: ProbBounds, n: int, s: int, exact: bool) -> list[int]:
    """Z_i per target item: how many fake users item i's lead provably survives.

    Item i beats the single strongest outside competitor while
    floor*(lower_i) > ceil*(upper_max) + sigma(e'); Z_i is the largest such e'.
    """
    ctx0 = make_context(n, 0, s, exact)
    cap = _Z_CAP_FACTOR * n
    if b.n_outside == 0:
        return [cap for _ in b.items_in]  # no competitor to lose to
    pbar_star = round_upper_star(b.out_upper_desc[0], ctx0)
    zs = []
    for lower in b.lower.tolist():
        lhs = round_lower_star(lower, ctx0)

        def survives(e_prime: int) -> bool:
            sigma = make_context(n, e_prime, s, exact).sigma
            if isinstance(sigma, float) and math.isinf(sigma):
                return False
            return lhs > pbar_star + sigma

        zs.append(_largest_surviving_e(survives, cap))
    return zs


def _bagging_result(b: ProbBounds, zs, ctx: CombinatoricContext,
                    N: int) -> CertResult:
    return _result(b, ctx, min(sum(1 for z in zs if z >= ctx.e), N))


def bagging_baseline_r(q: CertQuery) -> CertResult:
    """Baseline certified size: per-item single-competitor survival counts.

    r = min(#{i in I_u : Z_i >= e}, N). Requires vote counts built with
    N' = 1 (each base model casts one vote, majority-vote semantics).
    """
    if q.n_prime != 1:
        raise ValueError("the baseline is defined for N' = 1 vote counts")
    zs = _bagging_z_values(q.bounds, q.ctx.n, q.ctx.s, q.ctx.exact_mode)
    return _bagging_result(q.bounds, zs, q.ctx, q.N)

