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
The per-item bagging baseline (N' = 1 votes) compares floor*(mu_r') with
ceil*(the largest outside upper bound) + sigma instead, so its r is the
number of I_u items that still beat that one competitor, at most N. With no
item outside I_u, nothing can displace the target set under either rule.
Every comparison is decided exactly: a float pass evaluates both sides with a
rigorous bound on its error, and only the comparisons it cannot tell apart
are redone in rational arithmetic on the same bounds.

Under both rules the left side falls in r', the right side does not fall in
r', and sigma grows with e, so each user's certificate is fixed by attack
radii E*(r'), the last of the requested budgets at which r' holds:
r(e) = #{r' : E*(r') >= e}, and min(|I_u|, N) ranks are enough, since r is
at most N. `sweep` bounds every user once (one BoundTable from
estimate_table) and hands it to `certify_table`, which searches all users'
radii over the positions of the requested budgets in lockstep, one array
evaluation of the float pass per round, and counts them into one r matrix
per rule (users x e). The oracle certifies exact probabilities
(bounds.exact_table) through the same `certify_table`.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .bounds import (BoundTable, CombinatoricContext, estimate_table,
                     make_context, round_lower_star, round_upper_star)

log = logging.getLogger(__name__)

_EPS = 2.0 ** -53   # unit roundoff of a double


def _float_pass(rule: str, table: BoundTable, i, rp, sigma_hi, grid, N: int,
                n_prime: int):
    """Float sides of the comparison at triples (row i, rank rp, context):
    returns the margin lhs - rhs, a rigorous bound on its error, and rhs.

    The joint rule compares floor*(mu_rp) with the minimum of ceil*(v1) +
    sigma and the N'-scaled capped prefix sums of the competitors; the
    baseline compares it with ceil*(the largest outside upper bound) +
    sigma. Floats here leave the roundings out and read sigma_hi; the error
    bound covers both. A row with no item outside I_u gets an infinite
    margin with no error under either rule.
    """
    lhs = table.lower[table.starts[i] + rp - 1].astype(float)
    none = table.n_out[i] == 0
    if rule == "bagging":
        rhs = table.top[i, 0].astype(float) + sigma_hi
        # both sides are within four roundings of nonnegative terms, and
        # floor*/ceil* move each by less than 1/C(n,s); both bounds doubled
        err = 8 * _EPS * (lhs + rhs) + 4 * grid
    else:
        # competitors: the `avail` largest outside upper bounds, ascending
        # (v1 first), so comp[:, c - 1] = top[avail - c] and HC_c sums the
        # first c; avail is 0 only on rows with no outside item
        avail = np.minimum(N - rp + 1, table.n_out[i])
        c = np.arange(1, table.top.shape[1] + 1)
        src = avail[:, None] - c
        used = src >= 0
        comp = np.where(used, table.top[i[:, None], np.maximum(src, 0)], 0).astype(float)
        sum_lower = table.sum_lower[i].astype(float)
        cap = np.maximum(n_prime - sum_lower, 0.0)
        terms = n_prime * (np.minimum(np.cumsum(comp, axis=1), cap[:, None]) / n_prime
                           + sigma_hi[:, None]) / c
        rhs = np.minimum(comp[:, 0] + sigma_hi, np.where(used, terms, np.inf).min(axis=1))
        # each float above is at most |I_u| + avail + 4 roundings of
        # nonnegative terms (and the cap's one subtraction) from its exact
        # value; floor* moves mu by < 1/C(n,s), ceil* a term by < N'/C(n,s);
        # both doubled
        rho = 4 * (table.n_in[i] + avail + 4) * _EPS
        err = rho * (lhs + rhs + n_prime + sum_lower) + 2 * (n_prime + 1) * grid
    return np.where(none, np.inf, lhs - rhs), np.where(none, 0.0, err), rhs


def _exact_holds(rule: str, table: BoundTable, i: int, rp: int,
                 ctx: CombinatoricContext, N: int, n_prime: int) -> bool:
    """The comparison of _float_pass at one triple, in rational arithmetic on
    the same bounds, with the roundings and the exact sigma."""
    lo = int(table.starts[i])
    mu = round_lower_star(table.lower[lo + rp - 1], ctx)
    if rule == "bagging":
        return mu > round_upper_star(table.top[i, 0], ctx) + ctx.sigma
    avail = min(N - rp + 1, int(table.n_out[i]))
    comp = [Fraction(x) for x in table.top[i, avail - 1::-1].tolist()]
    lower = table.lower[lo:lo + table.n_in[i]].tolist()
    cap = max(n_prime - sum(Fraction(x) for x in lower), Fraction(0))
    rhs = round_upper_star(comp[0], ctx) + ctx.sigma
    for c, hc in enumerate(itertools.accumulate(comp), 1):
        rhs = min(rhs, n_prime * (round_upper_star(min(hc, cap) / n_prime, ctx)
                                  + ctx.sigma) / c)
    return mu > rhs


def _holds(rule: str, table: BoundTable, i, rp, ctxs, which, N: int,
           n_prime: int) -> tuple:
    """Exactly whether the comparison holds at each triple (row i[t], rank
    rp[t], context ctxs[which[t]]): decided in floats where the margin clears
    its error bound, else by _exact_holds. rhs is +inf only when sigma lies
    past the double range, and then it fails. Returns the answers and how
    many of them _exact_holds gave."""
    i, rp = np.asarray(i), np.asarray(rp)
    sigma_hi = np.array([c.sigma_hi for c in ctxs])[which]
    grid = np.array([c.grid for c in ctxs])[which]
    gap, err, rhs = _float_pass(rule, table, i, rp, sigma_hi, grid, N, n_prime)
    holds = gap > err
    unsure = np.flatnonzero(~holds & (-gap <= err) & (rhs != np.inf))
    for t in unsure.tolist():
        holds[t] = _exact_holds(rule, table, int(i[t]), int(rp[t]),
                                ctxs[which[t]], N, n_prime)
    return holds, len(unsure)


def _warn_inconsistent(table: BoundTable, n_prime: int) -> None:
    for k in np.flatnonzero(table.sum_lower.astype(float) > n_prime).tolist():
        log.warning("user %d: vote-share cap below zero (%s); bounds are "
                    "inconsistent, clamping", table.users[k],
                    n_prime - float(table.sum_lower[k]))


@dataclass(frozen=True)
class SweepResult:
    """One rule's certificates: r[k, j] is the size certified for users[k]
    against at most e_list[j] fake users."""

    users: np.ndarray     # certified user ids, ascending
    e_list: tuple         # sorted distinct attack budgets
    r: np.ndarray         # int64, len(users) x len(e_list)
    alpha_u: float        # per-user error budget the bounds were estimated at
    skipped: tuple        # users with empty I_u
    verify_calls: int     # evaluations of the rule's comparison
    exact_fallbacks: int  # comparisons the float pass left to exact arithmetic


RULES = ("joint", "bagging")


def _check_rules(rules, N: int, n_prime: int) -> None:
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not set(rules) <= set(RULES):
        raise ValueError(f"rules must be drawn from {RULES}, got {rules!r}")
    if "bagging" in rules and n_prime != 1:
        raise ValueError("the baseline is defined for N' = 1 vote counts")


def sweep(train, counts, target_sets, alpha: float, e_list, N: int,
          rules=("joint",)) -> tuple:
    """Certify every user under each rule at every e in e_list.

    target_sets: ItemSets, one row I_u per user. "joint" is the joint
    certificate, "bagging" the per-item baseline for N' = 1 votes. s and N'
    are the counts' own. The bounds of all users are estimated once, at
    budget alpha / n, and certified by certify_table. Returns one
    SweepResult per rule, in the order of `rules`.
    """
    # certify_table checks too, but after estimate_table, which a negative N breaks
    _check_rules(rules, N, counts.n_prime)
    if counts.n != train.n_users or counts.m != train.n_items:
        raise ValueError("vote counts shape does not match the training matrix")
    if len(target_sets) != train.n_users:
        raise ValueError("target sets must hold one row per user")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n = train.n_users
    alpha_u = alpha / n
    e_list = sorted(set(int(e) for e in e_list))
    if not e_list:
        raise ValueError("e_list must be nonempty")
    users, items = target_sets.nonempty()
    skipped = np.flatnonzero(target_sets.sizes == 0).tolist()
    if skipped:
        log.info("skipped %d users with empty target sets: %s",
                 len(skipped), skipped[:20])
    table = estimate_table(counts, users, items, alpha_u, N)
    return tuple(replace(res, alpha_u=alpha_u, skipped=tuple(skipped)) for res in
                 certify_table(table, [make_context(n, e, counts.s) for e in e_list],
                               N, counts.n_prime, rules))


def certify_table(table: BoundTable, contexts, N: int, n_prime: int,
                  rules=("joint",)) -> tuple:
    """Certify every row of table under each rule at every context.

    contexts share n and s and hold distinct e, ascending. Each rule turns
    the bounds into radii over the positions of the contexts with one
    lockstep search over all rows, counted at every e. That equals a per-e
    search because sigma never decreases in e. Returns one SweepResult per
    rule, in the order of `rules`, with alpha_u 0 and no skipped users:
    sweep fills those in.
    """
    _check_rules(rules, N, n_prime)
    e_list = [c.e for c in contexts]
    if (not e_list or e_list != sorted(set(e_list))
            or len({(c.n, c.s) for c in contexts}) != 1):
        raise ValueError("contexts must share n and s and hold distinct "
                         "attack budgets, ascending")
    _warn_inconsistent(table, n_prime)
    k = np.minimum(table.n_in, N)  # r is at most N, and mu falls with rank
    results = []
    for rule in rules:
        tally = [0, 0]  # comparisons evaluated, exact fallbacks

        def holds(i, r_prime, which):
            ok, fallbacks = _holds(rule, table, i, r_prime, contexts, which, N,
                                   n_prime)
            tally[0] += len(i)
            tally[1] += fallbacks
            return ok

        r = _certified_sizes(_radii(holds, k, len(e_list) - 1), k, len(e_list))
        results.append(SweepResult(
            users=table.users, e_list=tuple(e_list), r=r, alpha_u=0.0,
            skipped=(), verify_calls=tally[0], exact_fallbacks=tally[1]))
    return tuple(results)


def _certified_sizes(radii: np.ndarray, k: np.ndarray, width: int) -> np.ndarray:
    """r[row, j] = #{R in the row's radii : R >= j} for j < width; radii
    holds k[row] entries in [-1, width - 1] per row, one row after another."""
    row = np.repeat(np.arange(len(k)), k)
    # each row's count of every radius -1..width-1, summed from the top down
    counts = np.bincount(row * (width + 1) + radii + 1,
                         minlength=len(k) * (width + 1)).reshape(len(k), width + 1)
    return np.cumsum(counts[:, :0:-1], axis=1)[:, ::-1]


# ---------------------------------------------------------------------------
# radius search

def _radii(holds, k: np.ndarray, cap: int) -> np.ndarray:
    """Every row's radii R(1), ..., R(k[row]), one row after another: R(j) is
    the largest x in [0, cap] with holds at (row, j, x), and -1 from the
    first j that fails at x = 0 on.

    holds(rows, j, x) answers arrays of triples and must be monotone in j
    and x (true at (j, x) implies true at every smaller j and x). Each row
    searches j = 1..k[row] in turn and bisects R(j) below R(j - 1); every
    round asks each unfinished row one question, the one the row's own
    sequential search would ask next.
    """
    rows = len(k)
    at = np.cumsum(k) - k  # where each row's radii start
    radii = np.full(int(k.sum()), -1, dtype=np.int64)
    j = np.ones(rows, dtype=np.int64)
    lo = np.zeros(rows, dtype=np.int64)   # holds at (j, lo) once j is opened
    hi = np.full(rows, cap + 1, dtype=np.int64)  # fails at hi, or hi is past the cap
    opening = np.ones(rows, dtype=bool)   # next question is (j, 0)
    live = k >= 1
    while live.any():
        act = np.flatnonzero(live)
        x = np.where(opening[act], 0, (lo[act] + hi[act]) // 2)
        ok = holds(act, j[act], x)
        live[act[opening[act] & ~ok]] = False  # the list stops here
        lo[act[ok]] = x[ok]
        hi[act[~ok]] = x[~ok]
        opening[act] = False
        done = act[live[act] & (hi[act] - lo[act] <= 1)]
        radii[at[done] + j[done] - 1] = lo[done]
        hi[done] = lo[done] + 1  # the next R is capped by this one
        lo[done] = 0
        j[done] += 1
        opening[done] = True
        live[done] = j[done] <= k[done]
    return radii
