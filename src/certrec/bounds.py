"""Binomial confidence bounds on item probabilities and binomial-coefficient arithmetic.

Item frequencies T_i out of T base recommenders are binomial in the true item
probability p_i, so one-sided Clopper-Pearson bounds apply: Beta quantiles at a
per-item budget obtained by Bonferroni division of the per-user budget across
the m items. Certification additionally needs C(n,s)-grid roundings of the
bounds and the attack slack

    sigma = (s/n') * C(n',s)/C(n,s) - s/n,   n' = n + e,

kept exact (big integers, even where C(n,s) has hundreds of digits) together
with the doubles that bound them from above for certification's float pass.

`estimate_table` bounds every user at once for certification, reading one
quantile per distinct count; `exact_table` lays exact probabilities out the
same way, for the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.special

__all__ = [
    "beta_quantile", "cp_lower", "cp_upper", "estimate_table", "exact_table",
    "make_context", "round_lower_star", "round_upper_star", "BoundTable",
    "CombinatoricContext",
]

# every bound is computed at level beta * (1 - _LEVEL_MARGIN): scipy's
# incomplete beta errs by far less than that, so the bound still meets beta
_LEVEL_MARGIN = 1e-12

# bisection steps per quantile, counted from [0, 1]; a seeded bracket is
# about 2^-_SEED_BITS of its seed wide
_STEPS = 200
_SEED_BITS = 36


def beta_quantile(beta: float, a, b, upper: bool = False):
    """x with I_x(a, b) = beta, or with 1 - I_x(a, b) = beta when upper is set.

    Bisects scipy's betainc (betaincc when upper, so a small upper-tail mass
    keeps its relative precision) down to a one-ULP bracket, and returns its
    safe end for a confidence bound: lo for a lower bound, hi for an upper.
    Arrays a, b bisect together, each element by its own scalar steps. Each
    starts from the dyadic bracket [j / 2^d, (j + 1) / 2^d] around scipy's
    inverse (betaincinv, betainccinv when upper) if both its ends pass the
    loop's own test, and from [0, 1] if not: the bisection from [0, 1]
    passes through such a bracket, so the same steps follow to the same float.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if (a <= 0).any() or (b <= 0).any():
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    shape, a, b = a.shape, a.ravel(), b.ravel()
    tail = scipy.special.betaincc if upper else scipy.special.betainc
    inverse = scipy.special.betainccinv if upper else scipy.special.betaincinv

    def below(k, x):  # the loop's test: the quantile of element k lies above x
        mass = tail(a[k], b[k], x)  # betainc rises with x, betaincc falls
        return (mass > beta) if upper else (mass < beta)

    x0 = inverse(a, b, beta)
    x0 = np.where((x0 > 0) & (x0 < 1), x0, 0.5)  # nan, 0 or 1: test one at 1/2
    depth = _SEED_BITS - np.frexp(x0)[1]
    lo = np.ldexp(np.floor(np.ldexp(x0, depth)), -depth)
    hi = lo + np.ldexp(1.0, -depth)
    live = np.arange(a.size)  # ids of the brackets still open
    seeded = below(live, lo) & ~below(live, hi) & (depth <= _STEPS)
    lo[~seeded], hi[~seeded], depth[~seeded] = 0.0, 1.0, 0
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        wide = (mid > lo[live]) & (mid < hi[live]) & (depth[live] < _STEPS)
        live, mid = live[wide], mid[wide]  # else one ULP, or out of steps
        up = below(live, mid)
        lo[live[up]], hi[live[~up]] = mid[up], mid[~up]
        depth[live] += 1
    out = (hi if upper else lo).reshape(shape)
    return out if out.ndim else float(out)


def _cp_by_count(counts, t: int, beta: float, upper: bool) -> np.ndarray:
    """cp_upper (or cp_lower) of every entry of a count array, one quantile
    per distinct count, all bisected together."""
    values, inverse = np.unique(counts, return_inverse=True)
    if values.size and (values[0] < 0 or values[-1] > t):
        bad = values[0] if values[0] < 0 else values[-1]
        raise ValueError(f"need 0 <= count <= t, got count={bad}, t={t}")
    # 0 successes bound p below by 0, t successes above by 1
    edge = values == (t if upper else 0)
    out = np.full(values.shape, 1.0 if upper else 0.0)
    c = values[~edge].astype(np.float64)
    # P_U(X <= c) is the upper tail of Beta(c + 1, t - c) at U
    a, b = (c + 1, t - c) if upper else (c, t - c + 1)
    out[~edge] = beta_quantile(beta * (1.0 - _LEVEL_MARGIN), a, b, upper)
    return out[inverse]


def cp_lower(t_i: int, t: int, beta: float) -> float:
    """Lower bound L on p from t_i successes in t trials: P_L(X >= t_i) <= beta."""
    return float(_cp_by_count([t_i], t, beta, False)[0])


def cp_upper(t_j: int, t: int, beta: float) -> float:
    """Upper bound U on p from t_j successes in t trials: P_U(X <= t_j) <= beta."""
    return float(_cp_by_count([t_j], t, beta, True)[0])


@dataclass(frozen=True)
class BoundTable:
    """Bounds of many users, in the orderings certification reads.

    Row k holds users[k]: lower[starts[k]:starts[k] + n_in[k]] are its lower
    bounds on I_u, descending (mu_1 >= mu_2 >= ...), rows one after another;
    sum_lower[k] is their sum in ascending item order; top[k, :min(width,
    n_out[k])] are its largest upper bounds outside I_u, descending, and the
    cells past those hold 0 and are never read. estimate_table's tables hold
    float64, exact_table's Fraction objects.
    """

    users: np.ndarray      # int64 user ids, one per row
    lower: np.ndarray      # sum of |I_u| over the rows
    starts: np.ndarray     # where each row's lower bounds start
    sum_lower: np.ndarray  # rows
    top: np.ndarray        # rows x width
    n_in: np.ndarray       # |I_u| per row
    n_out: np.ndarray      # m - |I_u| per row


def estimate_table(counts, users, items_in, alpha_u: float, width: int) -> BoundTable:
    """Clopper-Pearson bounds of every user of users, as a BoundTable.

    items_in: ItemSets, its row k is I_u of users[k]. Bonferroni: each of the m per-item
    bounds gets budget alpha_u / m, so all of a user's bounds hold together
    with probability >= 1 - alpha_u. Each quantile is computed once per
    distinct count it is read at.
    """
    if not 0.0 < alpha_u < 1.0:
        raise ValueError(f"alpha_u must be in (0, 1), got {alpha_u}")
    budget = alpha_u / counts.m
    return _table(counts, users, items_in, width,
                  lambda c, upper: _cp_by_count(c, counts.T, budget, upper))


def exact_table(counts, users, items_in, width: int) -> BoundTable:
    """estimate_table's BoundTable with Fraction(count, T) as both the lower
    and the upper bounds: the exact item probabilities, when the counts come
    from every one of the T = C(n, s) submatrices (oracle.exact_item_probs)."""
    return _table(counts, users, items_in, width, lambda c, upper: np.array(
        [Fraction(x, counts.T) for x in c.tolist()], dtype=object))


# users per block when sorting the outside counts: a few hundred kB of int
# temporaries at m = 1682, where one n x m table would be tens of MB
_ROW_BLOCK = 64


def _table(counts, users, items_in, width: int, bound) -> BoundTable:
    """The BoundTable of users, with bound(count array, upper) as the bounds:
    lower bounds for the counts on each I_u, upper bounds only for each
    user's `width` largest outside counts. bound must not fall as the count
    rises, so that those give the largest outside upper bounds, the only
    ones certification reads.
    """
    m = counts.m
    users = np.asarray(users, dtype=np.int64)
    n_in = items_in.sizes
    if len(n_in) != len(users) or n_in.min(initial=1) == 0:
        raise ValueError("items_in must hold one nonempty row per user")
    items = items_in.items
    if items.size and (items.min() < 0 or items.max() >= m):
        raise ValueError(f"items_in ids must lie in [0, {m})")
    rows = np.repeat(np.arange(len(users)), n_in)
    key = np.sort(rows * m + items)  # ascending item ids within each row
    if (key[1:] == key[:-1]).any():
        raise ValueError("items_in contains duplicate item ids")
    items = key - rows * m
    starts = np.cumsum(n_in) - n_in
    low = bound(counts.counts[users[rows], items], False)
    # left to right in item order, one item rank at a time over the rows that
    # have one (np.sum adds pairwise, the builtin sum compensates from 3.12 on)
    sum_lower = np.zeros(len(users), dtype=low.dtype)
    for j in range(int(n_in.max(initial=0))):
        live = np.flatnonzero(n_in > j)
        sum_lower[live] += low[starts[live] + j]
    top_counts = np.full((len(users), width), -1, dtype=np.int64)
    keep = min(width, m)
    for lo in range(0, len(users), _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, len(users))
        block = counts.counts[users[lo:hi]]  # a copy
        cells = slice(starts[lo], starts[hi - 1] + n_in[hi - 1])
        block[rows[cells] - lo, items[cells]] = -1  # I_u is not a competitor
        # a full sort of each row: cheaper here than np.partition, and its
        # cost does not grow with width as rounds of argmax do; only counts
        # are read, and past a user's last outside item they are I_u's -1
        top_counts[lo:hi, :keep] = np.sort(block, axis=1)[:, ::-1][:, :keep]
    top = np.zeros(top_counts.shape, dtype=low.dtype)
    outside = top_counts >= 0
    top[outside] = bound(top_counts[outside], True)
    return BoundTable(users=users, lower=low[np.lexsort((-low, rows))],
                      starts=starts, sum_lower=sum_lower, top=top,
                      n_in=n_in, n_out=m - n_in)


@dataclass(frozen=True)
class CombinatoricContext:
    """C(n,s)/C(n',s) arithmetic for one (n, e, s) triple.

    sigma and c_ns are exact. sigma_hi is the smallest double >= sigma (+inf
    when sigma lies past the double range, and then every comparison against
    it fails) and grid the smallest double >= 1/C(n,s): certification's float
    pass reads these two, its exact fallback the exact values.
    """

    n: int
    e: int
    s: int
    sigma: Fraction
    c_ns: int
    sigma_hi: float
    grid: float


def _double_at_least(q: Fraction) -> float:
    """The smallest double >= q, or +inf past the double range."""
    try:
        x = float(q)  # correctly rounded, so at most one step below q
    except OverflowError:
        return math.inf
    return x if Fraction(x) >= q else math.nextafter(x, math.inf)


def make_context(n: int, e: int, s: int) -> CombinatoricContext:
    """Build the coefficient context for n genuine users, e fake users, s rows."""
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    if e < 0:
        raise ValueError(f"e must be >= 0, got {e}")
    c_ns = math.comb(n, s)
    sigma = Fraction(s * math.comb(n + e, s), (n + e) * c_ns) - Fraction(s, n)
    return CombinatoricContext(n=n, e=e, s=s, sigma=sigma, c_ns=c_ns,
                               sigma_hi=_double_at_least(sigma),
                               grid=_double_at_least(Fraction(1, c_ns)))


def round_lower_star(p, ctx: CombinatoricContext) -> Fraction:
    """floor(p * C(n,s)) / C(n,s), exactly, for a float or Fraction p."""
    return Fraction(math.floor(Fraction(p) * ctx.c_ns), ctx.c_ns)


def round_upper_star(p, ctx: CombinatoricContext) -> Fraction:
    """ceil(p * C(n,s)) / C(n,s), exactly, for a float or Fraction p."""
    return Fraction(math.ceil(Fraction(p) * ctx.c_ns), ctx.c_ns)
