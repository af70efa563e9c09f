"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns the same bytes for the
same seed. The program under test only ever sees the files written here.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

# MovieLens-100k's published shape and star histogram (1..5)
ML_USERS, ML_ITEMS, ML_RATINGS = 943, 1682, 100_000
ML_MIN_PER_USER = 20
ML_STAR_SHARES = (0.061, 0.114, 0.271, 0.342, 0.212)
ITEM_ZIPF = 0.75         # item popularity ~ rank^-0.75
USER_ACTIVITY_SIGMA = 1.0  # lognormal spread of ratings per user

# paper-scale vote counts: T models, N'=1, s-user submatrices
VOTE_T, VOTE_S = 10_000, 200
VOTE_CANDIDATES = 200    # popularity-drawn unrated items a user's votes can land on
VOTE_ZIPF = 1.5          # vote share ~ rank^-1.5, top-1 share about 0.4

# exhaustive-oracle instance: C(8,4)=70 clean models, 2^8 fake rows x C(9,4)
ORACLE_N, ORACLE_M, ORACLE_DENSITY = 8, 8, 0.6


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), sum(label.encode())])


def _weighted_orders(rng: np.random.Generator, weights: np.ndarray, rows: int,
                     banned=None) -> np.ndarray:
    """Per row, a weighted draw order of the columns without replacement.

    Exponential keys divided by the weights (Efraimidis-Spirakis): the k
    smallest keys of a row are a weighted k-sample, at a cost that does not
    depend on the seed. Banned cells sort last.
    """
    keys = rng.exponential(size=(rows, len(weights))) / weights
    if banned is not None:
        keys[banned] = np.inf
    return np.argsort(keys, axis=1, kind="stable")


def ml100k_shaped(seed: int, n: int = ML_USERS, m: int = ML_ITEMS,
                  n_ratings: int = ML_RATINGS):
    """(users, items, stars) arrays of an ML-100k-shaped instance, 0-based ids.

    Ratings per user follow fixed lognormal quantiles with a floor of 20,
    dealt to users in seeded order; items are drawn without replacement in
    proportion to a shuffled power law. Every seed thus has the same
    activity and popularity profiles, so the work per instance is steady.
    Every item ends up with at least one rating, so the catalog is exactly m.
    """
    rng = _rng(seed, "ml100k")
    quantiles = np.exp(USER_ACTIVITY_SIGMA * _normal_quantiles(n))
    extra = n_ratings - ML_MIN_PER_USER * n
    per_user = ML_MIN_PER_USER + np.floor(quantiles / quantiles.sum() * extra).astype(int)
    per_user = np.minimum(per_user, m // 2)[rng.permutation(n)]
    popularity = np.arange(1, m + 1, dtype=float) ** -ITEM_ZIPF
    popularity = popularity[rng.permutation(m)]
    order = _weighted_orders(rng, popularity, n)
    rows = [np.sort(order[u, :k]) for u, k in enumerate(per_user)]
    rated = np.zeros(m, dtype=bool)
    for r in rows:
        rated[r] = True
    # hand each never-rated item to a random user who lacks it
    for item in np.flatnonzero(~rated):
        u = int(rng.integers(n))
        rows[u] = np.sort(np.append(rows[u], item))
    users = np.concatenate([np.full(len(r), u) for u, r in enumerate(rows)])
    items = np.concatenate(rows)
    stars = rng.choice(5, size=len(items), p=ML_STAR_SHARES) + 1
    return users, items, stars


def _normal_quantiles(n: int) -> np.ndarray:
    return ndtri((np.arange(n) + 0.5) / n)


def write_ml100k_tab(path: str, users, items, stars, seed: int) -> None:
    """u.data layout: user<TAB>item<TAB>rating<TAB>timestamp, 1-based ids."""
    stamps = 874_724_710 + _rng(seed, "stamps").integers(0, 20_000_000, size=len(users))
    lines = [f"{u + 1}\t{i + 1}\t{r}\t{t}\n"
             for u, i, r, t in zip(users.tolist(), items.tolist(),
                                   stars.tolist(), stamps.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def paper_scale_votes(seed: int, train, T: int = VOTE_T, s: int = VOTE_S) -> np.ndarray:
    """n x m int32 vote counts shaped like a T-model, N'=1 IR ensemble.

    A user sits in Binomial(T, s/n) of the submatrices and gets one vote from
    each. Those votes fall multinomially on up to VOTE_CANDIDATES unrated
    items drawn by training popularity, with a Zipf spectrum over draw order.
    """
    rng = _rng(seed, "votes")
    n, m = train.n_users, train.n_items
    rated = train.csr.toarray() != 0
    k = min(VOTE_CANDIDATES, m - int(rated.sum(axis=1).max()))
    popularity = np.asarray(train.csr.getnnz(axis=0), dtype=float) + 1.0
    cand = _weighted_orders(rng, popularity, n, banned=rated)[:, :k]
    spectrum = np.arange(1, k + 1, dtype=float) ** -VOTE_ZIPF
    totals = rng.binomial(T, s / n, size=n)
    counts = np.zeros((n, m), dtype=np.int32)
    np.put_along_axis(counts, cand, rng.multinomial(totals, spectrum / spectrum.sum()),
                      axis=1)
    return counts


def tiny_oracle_matrix(seed: int, n: int = ORACLE_N, m: int = ORACLE_M,
                       density: float = ORACLE_DENSITY):
    """(users, items, stars) of a tiny instance with round(density*n*m) ratings.

    Every user and item is rated, and every user has an unrated item left
    to be recommended.
    """
    rng = _rng(seed, "oracle")
    cells = round(density * n * m)
    while True:
        mask = np.zeros(n * m, dtype=bool)
        mask[rng.choice(n * m, size=cells, replace=False)] = True
        mask = mask.reshape(n, m)
        if (mask.any(axis=1).all() and mask.any(axis=0).all()
                and not mask.all(axis=1).any()):
            break
    users, items = np.nonzero(mask)
    stars = rng.integers(1, 6, size=len(users))
    return users, items, stars


def vote_shape(counts: np.ndarray) -> dict:
    """Cells, median distinct nonzero counts per row, and mean top-1 share."""
    nz_rows = [row[row > 0] for row in counts]
    distinct = [len(np.unique(r)) for r in nz_rows if len(r)]
    shares = [r.max() / r.sum() for r in nz_rows if len(r)]
    return {"vote_cells": int(np.count_nonzero(counts)),
            "median_distinct_counts": float(np.median(distinct)),
            "top1_share": round(float(np.mean(shares)), 4)}

