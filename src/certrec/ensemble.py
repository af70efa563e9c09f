"""Submatrix sampling, vote aggregation across T base models, and ensemble top-N.

Per-member seeds are derived by hashing (master_seed, t), so member t is
reproducible in isolation and vote counts are a pure sum of independent
per-member contributions: serial, parallel, chunked, and resumed builds all
produce identical counts.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .base_rec import BPRParams, IRParams, _ranked, recommend_all, train_base
# the header grammar, the v2 body helpers and the crash-safe write are
# shared with the split files
from .ratings import (ItemSets, ParseError, RatingMatrix, _fixed_rows,
                      _read_file, _refuse_below, _refuse_cells, _refuse_wide,
                      _replace_file)


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary labels (independent of PYTHONHASHSEED)."""
    h = hashlib.blake2b(":".join(map(str, parts)).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


@dataclass(frozen=True)
class VoteCounts:
    """counts[u][i] = number of the T base models whose top-N' for u includes i."""

    T: int
    n_prime: int
    s: int
    counts: np.ndarray  # n x m, int32
    master_seed: int
    algo: str
    params: str = ""    # params_digest of the base models; "" when unknown
    split: str = ""     # split_digest of the split trained on; "" when unknown

    @property
    def n(self) -> int:
        return int(self.counts.shape[0])

    @property
    def m(self) -> int:
        return int(self.counts.shape[1])


def sample_submatrix(n: int, s: int, seed: int) -> tuple:
    """Uniform s-subset of the n users, without replacement, fixed by seed:
    the sorted user ids."""
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    rng = np.random.default_rng(seed)
    users = np.sort(rng.choice(n, size=s, replace=False))
    return tuple(int(u) for u in users)


def params_digest(algo: str, params) -> str:
    """Whitespace-free digest of the base-model parameters (None means the
    defaults), so votes from differently configured models are never mixed."""
    if params is None:
        params = IRParams() if algo == "ir" else BPRParams()
    return hashlib.blake2b(f"{algo}:{params!r}".encode(),
                           digest_size=8).hexdigest()


def _member_params(algo: str, params, master_seed: int, t: int):
    if algo == "bpr":
        base = params if params is not None else BPRParams()
        return replace(base, seed=derive_seed(master_seed, t, "sgd"))
    return params if params is not None else IRParams()


def _member_votes(train: RatingMatrix, algo: str, params, s: int, n_prime: int,
                  master_seed: int, t_start: int, t_stop: int):
    """Each member t_start..t_stop-1's votes in turn, as (users, items)."""
    n = train.n_users
    for t in range(t_start, t_stop):
        users = sample_submatrix(n, s, derive_seed(master_seed, t))
        model = train_base(algo, train, np.asarray(users),
                           _member_params(algo, params, master_seed, t))
        yield recommend_all(model, n_prime)


# process-pool plumbing: workers get the immutable inputs once via initializer
_POOL_CTX = {}


def _pool_init(*args):
    _POOL_CTX["args"] = args


def _pool_range(span):
    """The (users, items) of every vote the span's members cast: a few kB
    to pickle back, where its count table would be n x m."""
    votes = list(_member_votes(*_POOL_CTX["args"], span[0], span[1]))
    return tuple(np.concatenate(part) for part in zip(*votes))


def _ranges(t_start: int, t_stop: int, pieces: int):
    total = t_stop - t_start
    pieces = max(1, min(pieces, total))
    step = math.ceil(total / pieces)
    return [(lo, min(lo + step, t_stop)) for lo in range(t_start, t_stop, step)]


def accumulate_votes(train: RatingMatrix, algo: str, params, s: int, n_prime: int,
                     master_seed: int, t_start: int, t_stop: int,
                     threads: int = 1) -> np.ndarray:
    """Vote contributions of members t_start..t_stop-1 as an n x m count array.

    threads > 1 splits the members across that many processes. Count addition
    is associative and commutative and member seeds do not depend on the
    executing worker, so the partition is invisible in the output.
    """
    counts = np.zeros((train.n_users, train.n_items), dtype=np.int32)
    if threads <= 1 or t_stop - t_start <= 1:
        for votes in _member_votes(train, algo, params, s, n_prime, master_seed,
                                   t_start, t_stop):
            # a model recommends each item at most once per user: no repeated cell
            counts[votes] += 1
        return counts
    spans = _ranges(t_start, t_stop, threads * 4)
    with ProcessPoolExecutor(
            max_workers=threads, initializer=_pool_init,
            initargs=(train, algo, params, s, n_prime, master_seed)) as pool:
        for users, items in pool.map(_pool_range, spans):
            # members repeat cells, so add.at rather than a fancy +=
            np.add.at(counts, (users, items), 1)
    return counts


def build_vote_counts(train: RatingMatrix, algo: str, params, T: int, s: int,
                      n_prime: int, master_seed: int, threads: int = 1) -> VoteCounts:
    """Train T base models on sampled s-user submatrices and count their votes
    (oracle.exact_item_probs counts those of all C(n, s) submatrices)."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    counts = accumulate_votes(train, algo, params, s, n_prime, master_seed,
                              0, T, threads)
    return VoteCounts(T=T, n_prime=n_prime, s=s, counts=counts,
                      master_seed=master_seed, algo=algo,
                      params=params_digest(algo, params))


# users ranked together: a few hundred kB of int32 temporaries per block,
# where all n users at once would take an n x m table
_ROW_BLOCK = 64


def ensemble_recommend_all(counts: VoteCounts, train: RatingMatrix,
                           N: int) -> ItemSets:
    """Every user's N items with the most votes, excluding train-rated ones,
    as ItemSets in rank order, ranked a block of users at a time.

    Ties break by ascending item id; zero-vote items fill the tail under the
    same tie-break so a list has exactly N items whenever N unrated items
    exist (the metrics divide by a fixed N). A user with fewer than N unrated
    items gets all of them. Count rows past train's users (fake users) are
    not ranked.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    n, csr = train.n_users, train.csr
    picks = [(np.zeros(0, dtype=np.intp),) * 2]  # (rows, items) per block
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        ptr = csr.indptr[lo:hi + 1]
        candidates = np.ones((hi - lo, counts.m), dtype=bool)
        candidates[np.repeat(np.arange(hi - lo), np.diff(ptr)),
                   csr.indices[ptr[0]:ptr[-1]]] = False
        rows, items = _ranked(counts.counts[lo:hi], candidates, N)
        picks.append((rows + lo, items))
    return ItemSets.from_pairs(*map(np.concatenate, zip(*picks)), n)


# a v2 votes row; the writer emits one per nonzero cell, row-major
_VOTE_V2 = np.dtype([("u", "<i4"), ("i", "<i4"), ("count", "<i4")])


def save_votes(path: str, vc: VoteCounts) -> None:
    """Persist counts as v2: the header, then one _VOTE_V2 row per nonzero
    cell in row-major order, written crash-safe by _replace_file."""
    _refuse_wide(n=vc.n, m=vc.m, T=vc.T)
    rows, cols = np.nonzero(vc.counts)
    body = np.empty(len(rows), _VOTE_V2)
    body["u"], body["i"], body["count"] = rows, cols, vc.counts[rows, cols]
    digests = "".join(f" {key}={value}" for key, value in
                      (("params", vc.params), ("split", vc.split)) if value)
    header = (f"#votes v2 n={vc.n} m={vc.m} T={vc.T} s={vc.s} "
              f"nprime={vc.n_prime} algo={vc.algo} seed={vc.master_seed}"
              f"{digests} rows={len(body)}\n")
    _replace_file(path, header.encode(), body)


def load_votes(path: str) -> VoteCounts:
    """Read a v2 votes file, refusing v1 text (retrain to rewrite it), s > n,
    cells outside the matrix, counts outside [0, T], repeated cells and
    users with more than T * nprime votes; every error names the file. A
    header without params= or split= (older files) gives "" for it."""
    version, header, body = _read_file(path, "votes")
    if version == 1:
        raise ParseError(f"{path}: v1 votes are no longer read; retrain with "
                         f"certrec train, which writes v2")
    try:
        n, m, T, n_prime, s, seed, rows = (int(header[k]) for k in (
            "n", "m", "T", "nprime", "s", "seed", "rows"))
        algo = header["algo"]
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    _refuse_below(path, n=(n, 0), m=(m, 0), T=(T, 0), nprime=(n_prime, 1),
                  s=(s, 1), rows=(rows, 0))
    if s > n:
        raise ParseError(f"{path}: header field s={s} is above n={n}")
    (cells,) = _fixed_rows(path, body, (_VOTE_V2, rows))
    u, i, c = cells["u"], cells["i"], cells["count"]
    _refuse_cells(path, "vote", u, i, n, m)
    bad = np.flatnonzero((c < 0) | (c > T))
    if bad.size:
        k = bad[0]
        raise ParseError(f"{path}: count {c[k]} at ({u[k]}, {i[k]}) outside "
                         f"[0, T={T}]")
    counts = np.zeros((n, m), dtype=np.int32)
    counts[u, i] = c
    # each of the T models votes at most N' items per user (sums below 2^53)
    over = np.flatnonzero(np.bincount(u, weights=c, minlength=n) > T * n_prime)
    if over.size:
        raise ParseError(f"{path}: user {over[0]} has "
                         f"{counts[over[0]].sum(dtype=np.int64)} votes, more "
                         f"than T * nprime = {T * n_prime}")
    return VoteCounts(T=T, n_prime=n_prime, s=s, counts=counts,
                      master_seed=seed, algo=algo,
                      params=header.get("params", ""),
                      split=header.get("split", ""))
