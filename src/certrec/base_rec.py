"""Base recommender algorithms trained on user submatrices.

Two interchangeable algorithms: item-neighborhood scoring over cosine
similarities (ir) and pairwise-ranking matrix factorization (bpr). A model is
asked one thing, through recommend_all(): the top-N' items of every user in
its submatrix at once; users outside the submatrix get none. Items unseen in
the submatrix are never recommended because neither algorithm has any signal
for them. All ranking ties break by ascending item id so that ensembles built
from these models are exactly reproducible.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .ratings import RatingMatrix


@dataclass(frozen=True)
class IRParams:
    k: int = 50  # neighbors kept per item

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"ir.k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class BPRParams:
    d: int = 16
    epochs: int = 30
    learn_rate: float = 0.05
    reg: float = 0.01
    neg_samples: int = 1
    seed: int = 0


@dataclass(frozen=True)
class BaseModel:
    """Trained state of one base recommender; immutable, query-safe."""

    algo: str                    # "ir" or "bpr"
    users: np.ndarray            # sorted user ids present in the submatrix
    seen_items: np.ndarray       # items rated by >=1 submatrix user (candidate pool)
    sub: csr_matrix              # s x m submatrix of ratings (row order == users)
    sim: csr_matrix | None = None        # ir: item x item top-k cosine table
    user_factors: np.ndarray | None = None  # bpr: s x d
    item_factors: np.ndarray | None = None  # bpr: m x d


# items per row block of the similarity table, and Gram cells per scipy
# product: a slab of the largest multiple of _BLOCK rows within _SLAB cells
# (at least one block) is one product, then widened, scaled and pruned
# _BLOCK rows at a time. A worker holds O(_SLAB + _BLOCK * m) instead of
# O(m * m): a slab of at most 2 MB in int16 (8 MB where exact_gram refuses
# int16 and it runs in float64), plus one _BLOCK x m float64 block of
# negated cosines, 0.86 MB at m = 1682, which stays in a core's L2 cache
# through the scaling and pruning
_BLOCK = 64
_SLAB = 2 ** 20


def exact_gram(data: np.ndarray, s: int, dtype) -> bool:
    """Whether every Gram of s rows of these ratings is exact in dtype.

    True when the stored ratings data (not the declared domain) are all
    integers and s * max|r|^2 is below the dtype's bound: 2^(bits - 1) for
    a signed integer dtype (2^15 for int16), below which no sum overflows,
    and 2^(nmant + 1) for a float dtype (2^24 for float32, 2^53 for
    float64), below which it holds every integer. Each product r_ui * r_uj,
    and each partial sum of at most s of them, is then an integer below the
    bound, held exactly in any summation order and with or without FMA: the
    Gram in dtype is exact, the same values as in float64.
    """
    bits = (np.iinfo(dtype).bits - 1 if np.issubdtype(dtype, np.integer)
            else np.finfo(dtype).nmant + 1)
    top = float(np.abs(data).max(initial=0.0))
    return s * top * top < 2.0 ** bits and bool((data == data.round()).all())


def _ranked(scores: np.ndarray, candidates: np.ndarray, n: int):
    """The one top-n rule, shared by base models, the ensemble and the oracle.

    For each row of the 2-D scores, the n best candidate columns (all of them
    when there are fewer): descending score, ascending column id on ties.
    Returns (rows, cols) of the picks, row by row and best first. Rounds of
    row-wise argmax (first maximum = lowest id), the floor over each pick: a
    stable sort's order when the scores hold no NaN and every candidate
    scores above the floor, as votes, ir and bpr scores do. The floor is
    -inf for float scores and the dtype's least value for integer ones, so
    int32 votes are masked without widening them.
    """
    floor = (np.iinfo(scores.dtype).min if np.issubdtype(scores.dtype, np.integer)
             else -np.inf)
    masked = np.where(candidates, scores, np.array(floor, dtype=scores.dtype))
    width = np.minimum(candidates.sum(axis=1), n)
    top, rows = [], np.arange(len(masked))
    for _ in range(int(width.max(initial=0))):
        if top:  # not after the last round
            masked[rows, top[-1]] = floor
        top.append(masked.argmax(axis=1))
    top = np.array(top, dtype=np.intp).reshape(-1, len(rows)).T
    picked = np.arange(top.shape[1]) < width[:, None]
    return np.nonzero(picked)[0], top[picked]


def _top_k_keep(neg: np.ndarray, gram: np.ndarray, k: int) -> np.ndarray:
    """The one top-k rule: which neighbours each row of a 2-D table keeps.

    neg holds the negated cosines, +inf at each row's own item; gram the
    Gram rows they were scaled from, 0 at the own item, so gram != 0 marks
    the neighbours. Each row keeps its k neighbours of smallest negated
    cosine, ties by ascending column id (all of them when it has at most k).
    Returns a mask of neg's shape.

    At k >= m - 1 every row keeps all its neighbours. Otherwise one
    partition proposes each row's k-th smallest value, and the row keeps the
    values at or below it: the answer when exactly k are kept and the k-th
    is below 0, as all k are then positive cosines (a non-neighbour's is 0).
    A row with ties straddling the k-th value (more than k kept), or with a
    k-th value >= 0 (unseen and rarely rated items, signed ratings), is
    settled: its candidates (those kept, or all its neighbours when the k-th
    is >= 0) are sorted by value, stably from column order, and it keeps
    the first k.
    """
    if k >= neg.shape[1] - 1:
        return gram != 0
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1, None]
    keep = neg <= kth
    held = keep.sum(axis=1, dtype=np.int32)  # half count_nonzero's time
    settle = np.flatnonzero((held > k) | (kth[:, 0] >= 0))
    if settle.size:
        cand = np.where(kth[settle] >= 0, gram[settle] != 0, keep[settle])
        rows, cols = np.divmod(np.flatnonzero(cand), neg.shape[1])
        order = np.lexsort((neg[settle[rows], cols], rows))
        rows, cols = rows[order], cols[order]
        first = np.arange(rows.size) - np.searchsorted(rows, rows) < k
        keep[settle] = False
        keep[settle[rows[first]], cols[first]] = True
    return keep


def _top_k_similarities(sub: csr_matrix, inv: np.ndarray, k: int) -> csr_matrix:
    """Cosine table keeping each item's k most similar other items.

    The Gram is built one slab of item rows per product (_SLAB), and each
    slab is scaled and pruned _BLOCK rows at a time. Each product is CSR x
    dense in scipy's sparse loop (no BLAS call), row by row, so a slab's
    rows are those of any other split: the same products as a sparse Gram,
    summed over the users in ascending order, plus zero products that add
    +0.0. It is exact for integer ratings, the same floats for others, and 0
    where no user co-rates or the sum cancels, so gram != 0 marks the
    neighbours. Where exact_gram holds for int16 the loop runs in int16, on
    a quarter of the bytes, and gives the same Gram values; other ratings
    run it in float64. Each block is widened to float64 (exact) and scaled
    in place into negated cosines for _top_k_keep: IEEE rounding is
    symmetric, so gram * -inv_i * inv_j is exactly -(gram * inv_i * inv_j),
    and the kept values, negated back, are bit for bit the cosines of the
    per-item loop.
    """
    m = sub.shape[1]
    if exact_gram(sub.data, sub.shape[0], np.int16):
        # sharing the index arrays, not copying them as sub.astype would
        sub = csr_matrix((sub.data.astype(np.int16), sub.indices, sub.indptr),
                         shape=sub.shape)
    subT = sub.T.tocsr()
    x = sub.toarray()
    step = max(_SLAB // (_BLOCK * m), 1) * _BLOCK  # rows per slab
    flat_parts, val_parts = [], []
    for top in range(0, m, step):
        slab = subT[top:top + step] @ x
        for lo in range(top, min(top + step, m), _BLOCK):
            hi = min(lo + _BLOCK, m)
            gram = slab[lo - top:hi - top]
            neg = gram.astype(np.float64)
            neg *= -inv[lo:hi, None]
            neg *= inv[None, :]
            own = np.arange(hi - lo), np.arange(lo, hi)  # self excluded
            neg[own], gram[own] = np.inf, 0
            kept = np.flatnonzero(_top_k_keep(neg, gram, k))
            flat_parts.append(kept + lo * m)  # flat index into the m x m table
            val_parts.append(-neg.ravel()[kept])
    flat = np.concatenate(flat_parts)
    indptr = np.searchsorted(flat, np.arange(0, m * m + 1, m))
    return csr_matrix((np.concatenate(val_parts), flat % m, indptr),
                      shape=(m, m))


def _submatrix(matrix: RatingMatrix, users):
    """Sorted user ids and their rows of the rating matrix, as a CSR gather.

    Equal to matrix.csr[users] (same rows, same index order) without scipy's
    fancy-indexing set-up, which dominates the cost of a tiny model. Refuses
    an id outside [0, n), which would index another user's row, and a
    repeated id, which would count one user twice, naming the first one
    given; a non-integer id (a float) raises TypeError.
    """
    given = [operator.index(u) for u in users]
    if not given:
        raise ValueError("submatrix must contain at least one user")
    csr = matrix.csr
    n = csr.shape[0]
    seen = set()
    for u in given:
        if not 0 <= u < n:
            raise ValueError(f"submatrix user id {u} is not in [0, {n})")
        if u in seen:
            raise ValueError(f"submatrix user id {u} is repeated")
        seen.add(u)
    users = np.asarray(sorted(given), dtype=np.int64)
    starts = csr.indptr[users]
    lengths = csr.indptr[users + 1] - starts
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    pos = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
    return users, csr_matrix((csr.data[pos], csr.indices[pos], indptr),
                             shape=(users.size, csr.shape[1]))


def train_ir(matrix: RatingMatrix, users: np.ndarray, params: IRParams = IRParams()) -> BaseModel:
    """Item-neighborhood model: cosine similarity between item rating columns.

    Only the k most similar items are kept per item; the predicted score for
    (u, i) sums sim(i, j) * score(u, j) over the rated neighbors j of i.
    """
    users, sub = _submatrix(matrix, users)
    m = matrix.n_items
    # column sums of squares, added from the lowest user up like sub.power(2)
    norms = np.sqrt(np.bincount(sub.indices, sub.data * sub.data, minlength=m))
    inv = np.divide(1.0, norms, out=np.zeros(m), where=norms > 0)
    seen = np.flatnonzero(np.bincount(sub.indices, minlength=m))
    return BaseModel(algo="ir", users=users, seen_items=seen, sub=sub,
                     sim=_top_k_similarities(sub, inv, params.k))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def bpr_pair_loss(pu: np.ndarray, qi: np.ndarray, qj: np.ndarray, reg: float) -> float:
    """Negated per-triple objective: -ln sigmoid(x_ui - x_uj) + reg * ||theta||^2."""
    diff = float(pu @ qi - pu @ qj)
    # -log(sigmoid(diff)) computed stably for either sign
    loss = math.log1p(math.exp(-abs(diff))) + max(-diff, 0.0)
    penalty = reg * (pu @ pu + qi @ qi + qj @ qj)
    return loss + float(penalty)


def bpr_pair_grads(pu: np.ndarray, qi: np.ndarray, qj: np.ndarray, reg: float):
    """Gradients of bpr_pair_loss w.r.t. (pu, qi, qj)."""
    diff = float(pu @ qi - pu @ qj)
    g = -_sigmoid(-diff)  # d/d(diff) of -ln sigmoid(diff)
    return (g * (qi - qj) + 2.0 * reg * pu,
            g * pu + 2.0 * reg * qi,
            -g * pu + 2.0 * reg * qj)


def train_bpr(matrix: RatingMatrix, users: np.ndarray, params: BPRParams = BPRParams()) -> BaseModel:
    """Pairwise-ranking factorization by SGD.

    Positives are the user's rated items in the submatrix; each positive draws
    negatives uniformly from the items the user has not rated (anywhere in the
    catalog). Fully deterministic for a fixed seed.
    """
    users, sub = _submatrix(matrix, users)
    s, m = sub.shape
    rng = np.random.default_rng(params.seed)
    p = rng.normal(0.0, 0.1, size=(s, params.d))
    q = rng.normal(0.0, 0.1, size=(m, params.d))
    rated_sets = [frozenset(int(i) for i in sub.indices[sub.indptr[r]:sub.indptr[r + 1]])
                  for r in range(s)]
    pairs = np.array([(r, int(i))
                      for r in range(s)
                      for i in sub.indices[sub.indptr[r]:sub.indptr[r + 1]]
                      if len(rated_sets[r]) < m],  # no negatives exist otherwise
                     dtype=np.int64).reshape(-1, 2)
    lr = params.learn_rate
    reg = params.reg
    for _ in range(params.epochs):
        for r, i in pairs[rng.permutation(len(pairs))]:
            rated = rated_sets[r]
            for _ in range(params.neg_samples):
                j = int(rng.integers(m))
                while j in rated:
                    j = int(rng.integers(m))
                gp, gi, gj = bpr_pair_grads(p[r], q[i], q[j], reg)
                p[r] -= lr * gp
                q[i] -= lr * gi
                q[j] -= lr * gj
    seen = np.flatnonzero(np.bincount(sub.indices, minlength=m))
    return BaseModel(algo="bpr", users=users, seen_items=seen, sub=sub,
                     user_factors=p, item_factors=q)


def predicted_scores(model: BaseModel) -> np.ndarray:
    """s x m scores of every submatrix user over all items, in model.users order.

    ir: one CSR x dense product, which sums each score over j ascending as a
    per-user sim @ x would. bpr: item_factors @ p user by user, not a gemm,
    whose summation order could differ.
    """
    if model.algo == "ir":
        return (model.sim @ model.sub.T.toarray()).T
    return np.stack([model.item_factors @ p for p in model.user_factors])


def recommend_all(model: BaseModel, n_prime: int):
    """Top-n_prime unrated seen items for every submatrix user, as (users,
    items) arrays with one entry per recommendation, each user's best first."""
    if n_prime < 1:
        raise ValueError(f"n_prime must be >= 1, got {n_prime}")
    sub = model.sub
    candidates = np.zeros(sub.shape, dtype=bool)
    candidates[:, model.seen_items] = True
    candidates[np.repeat(np.arange(sub.shape[0]), np.diff(sub.indptr)),
               sub.indices] = False
    rows, items = _ranked(predicted_scores(model), candidates, n_prime)
    return model.users[rows], items


def ir_votes_batched(x: np.ndarray, users: np.ndarray, k: int, n_prime: int):
    """Votes of the ir models of many submatrices at once, as (users, items).

    x: B x s x m, each model's rating rows as a dense stack, 0 where a user
    did not rate (stored ratings are never 0); users: the B x s ids the votes
    are cast for, one row per model. The result holds what
    recommend_all(train_ir(matrix, subset, IRParams(k)), n_prime) returns for
    every model in turn, ids mapped through users, and equals it whenever
    exact_gram(x, s, np.float64) holds (callers check): then the dense
    batched Gram and the norms are exact in any summation order. The
    rest repeats the per-model steps: the negated cosines of
    _top_k_similarities, its pruning rule (_top_k_keep), scores summed over
    j ascending one column at a time as in scipy's CSR x dense loop (a
    non-neighbour adds +0.0), and _ranked.
    """
    if n_prime < 1:
        raise ValueError(f"n_prime must be >= 1, got {n_prime}")
    B, s, m = x.shape
    rated = x != 0
    gram = np.matmul(x.transpose(0, 2, 1), x)  # B x m x m
    diag = np.arange(m)
    norms = np.sqrt(gram[:, diag, diag])
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    neg = gram * -inv[:, :, None]
    neg *= inv[:, None, :]
    neg[:, diag, diag], gram[:, diag, diag] = np.inf, 0  # self excluded
    keep = _top_k_keep(neg.reshape(B * m, m), gram.reshape(B * m, m), k)
    # column j of every item's table row, contiguous: table[b, j, i] = sim(i, j)
    table = np.where(keep.reshape(B, m, m), -neg, 0.0).transpose(0, 2, 1).copy()
    scores = np.zeros((B, s, m))
    for j in range(m):
        scores += x[:, :, j, None] * table[:, None, j, :]
    # seen in the submatrix and not rated by the user
    candidates = rated.any(axis=1, keepdims=True) & ~rated
    rows, items = _ranked(scores.reshape(B * s, m),
                          candidates.reshape(B * s, m), n_prime)
    return users.reshape(-1)[rows], items


def train_base(algo: str, matrix: RatingMatrix, users: np.ndarray, params) -> BaseModel:
    """Dispatch on the algorithm tag."""
    if algo == "ir":
        return train_ir(matrix, users, params if params is not None else IRParams())
    if algo == "bpr":
        return train_bpr(matrix, users, params if params is not None else BPRParams())
    raise ValueError(f"unknown base algorithm {algo!r}")
