"""Exact ground truth on tiny instances, and concrete attacks that try to
falsify certified guarantees.

Enumerating all C(n,s) submatrices gives exact item probabilities, the
reference against which sampled vote counts are validated. Appending real
fake-user rows and recomputing the exact poisoned ensemble can then only
falsify a certificate, never prove one: any observed intersection below the
certified r is a build-failing bug.

Both attack checks run one poisoning path. The clean matrix's exact counts
come from the caller, and only the subsets that hold a fake user are
trained. Poisonings go through it a chunk at a time: for ir on integer
ratings, each chunk's models are one ir_votes_batched call, their votes one
bincount on top of the clean counts, every genuine user of every poisoning
one _ranked call and the intersections one membership lookup. _BATCH_CELLS
bounds every array of a step, so memory does not grow with the number of
poisonings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .base_rec import (IRParams, _ranked, ir_votes_batched, recommend_all,
                       train_base)
from .bounds import exact_table, make_context
from .certify import certify_table
from .ensemble import VoteCounts, ensemble_recommend_all
from .ratings import RatingMatrix

MAX_ENUM = 10 ** 6  # refuse instances with more than this many subsets

ATTACKS = ("random-ratings", "copy-popular", "all-max-on-random-items")


def exact_item_probs(matrix: RatingMatrix, algo: str, params, s: int,
                     n_prime: int) -> VoteCounts:
    """Enumerate every s-subset of users (lexicographic) and count votes.

    The result is the vote counts of the exhaustive ensemble, T = C(n, s), so
    counts[u, i] / T is the exact probability that i is recommended to u.
    This is the only enumeration of submatrices; ensemble.accumulate_votes
    samples them. ir models on integer ratings are counted by
    base_rec.ir_votes_batched; the same C(n, s) models then go through
    train_ir + recommend_all, and any vote that differs raises RuntimeError.
    Other models use the per-model path alone.
    """
    n, m = matrix.n_users, matrix.n_items
    total = math.comb(n, s)
    if total > MAX_ENUM:
        raise ValueError(f"C({n},{s}) = {total} exceeds the enumeration guard {MAX_ENUM}")
    hits = np.zeros((n, m), dtype=np.int32)
    _add_votes(hits, matrix, algo, params, s,
               itertools.combinations(range(n), s), n_prime)
    if _batched_ir(matrix, algo, s):
        # the batched kernel answered: replay the clean models through the
        # production kernel and refuse to go on if any vote differs
        ref = np.zeros_like(hits)
        _add_model_votes(ref, matrix, algo, params,
                         itertools.combinations(range(n), s), n_prime)
        bad = np.argwhere(hits != ref)
        if bad.size:
            u, i = bad[0]
            raise RuntimeError(
                f"batched ir kernel disagrees with train_ir on {len(bad)} "
                f"cells, first ({u}, {i}): {hits[u, i]} votes against "
                f"{ref[u, i]}")
    return VoteCounts(T=total, n_prime=n_prime, s=s, counts=hits,
                      master_seed=0, algo=algo)  # nothing is sampled


# float64 cells per array of one batched step: a kernel call, and a chunk of
# poisonings' counts and ranking; under 1 MB each
_BATCH_CELLS = 1 << 15


def _batched_ir(matrix: RatingMatrix, algo: str, s: int, fake=()) -> bool:
    """Whether ir_votes_batched runs: ir, integer ratings stored in matrix
    and in the fake rows (whatever the domain says) and
    s * max|r|^2 < 2^53, so that it is exact, and one model's arrays within
    _BATCH_CELLS (train_ir blocks wider catalogs)."""
    data = np.concatenate((matrix.csr.data, np.ravel(fake)))
    top = float(np.abs(data).max(initial=0.0))
    m = matrix.n_items
    return (algo == "ir" and m * (m + s) <= _BATCH_CELLS
            and bool(np.all(data == np.round(data)))
            and s * top * top < 2.0 ** 53)


def _models_per_call(m: int, s: int) -> int:
    """Models in one ir_votes_batched call: its arrays take m * (m + s)
    cells per model."""
    return max(1, _BATCH_CELLS // (m * (m + s)))


def _add_kernel_votes(hits, x, users, params, n_prime) -> None:
    """Add the votes of the ir models with rows x (B x s x m) to hits, cast
    for the B x s ids users: rows of hits viewed as (ids, m)."""
    k = (params if params is not None else IRParams()).k
    users, items = ir_votes_batched(x, users, k, n_prime)
    # repeated cells across the batch's models: count them all
    hits += np.bincount(users * hits.shape[-1] + items,
                        minlength=hits.size).reshape(hits.shape)


def _add_votes(hits, matrix, algo, params, s, subsets, n_prime) -> None:
    """Add every s-subset's model votes to hits, in batches when exact."""
    if not _batched_ir(matrix, algo, s):
        _add_model_votes(hits, matrix, algo, params, subsets, n_prime)
        return
    dense = matrix.csr.toarray()
    chunk = _models_per_call(matrix.n_items, s)
    while batch := list(itertools.islice(subsets, chunk)):
        batch = np.array(batch)
        _add_kernel_votes(hits, dense[batch], batch, params, n_prime)


def _add_model_votes(hits, matrix, algo, params, subsets, n_prime) -> None:
    """Train one model per subset and add each member's votes to hits."""
    for subset in subsets:
        model = train_base(algo, matrix, np.asarray(subset), params)
        # a model recommends each item at most once per user: no repeated cell
        hits[recommend_all(model, n_prime)] += 1


def append_fake_users(matrix: RatingMatrix, fake_rows: np.ndarray) -> RatingMatrix:
    """New matrix with the fake rating rows appended after the genuine users.

    The CSR arrays are concatenated directly: the genuine rows are already in
    canonical form and np.nonzero lists the fake cells row by row, columns
    ascending, so the result equals vstack's without its set-up.
    """
    fake = np.atleast_2d(np.asarray(fake_rows, dtype=np.float64))
    if fake.ndim != 2 or fake.shape[1] != matrix.n_items:
        raise ValueError("fake rows must cover exactly the m existing items")
    csr = matrix.csr
    rows, cols = np.nonzero(fake)
    ends = csr.nnz + np.cumsum(np.count_nonzero(fake, axis=1))
    n_new = matrix.n_users + fake.shape[0]
    stacked = csr_matrix((np.concatenate((csr.data, fake[rows, cols])),
                          np.concatenate((csr.indices, cols)),
                          np.concatenate((csr.indptr, ends))),
                         shape=(n_new, matrix.n_items))
    # fake users have no external identity; -1 marks them in the id table
    ext = np.concatenate([matrix.user_ids, np.full(n_new - matrix.n_users, -1)])
    return RatingMatrix(n_users=n_new, n_items=matrix.n_items, csr=stacked,
                        domain=matrix.domain, user_ids=ext,
                        item_ids=matrix.item_ids)


def _domain_scores(matrix: RatingMatrix, rng: np.random.Generator, size: int) -> np.ndarray:
    dom = matrix.domain
    if dom.integral:
        return rng.integers(int(dom.lo), int(dom.hi) + 1, size=size).astype(float)
    return rng.uniform(dom.lo, dom.hi, size=size)


def make_fake_rows(matrix: RatingMatrix, e: int, attack: str,
                   rng: np.random.Generator) -> np.ndarray:
    """e fake rating rows under the named strategy; all scores in the domain."""
    m = matrix.n_items
    rows = np.zeros((e, m))
    if attack == "random-ratings":
        # each item rated with prob 1/2, score drawn from the rating domain
        for f in range(e):
            picked = rng.random(m) < 0.5
            rows[f, picked] = _domain_scores(matrix, rng, int(picked.sum()))
    elif attack == "copy-popular":
        # everyone pushes the already-popular items at the top score
        pop = np.asarray(matrix.csr.getnnz(axis=0))
        width = max(1, math.ceil(matrix.n_ratings / matrix.n_users))
        order = np.lexsort((np.arange(m), -pop))
        rows[:, order[:width]] = matrix.domain.hi
    elif attack == "all-max-on-random-items":
        for f in range(e):
            count = int(rng.integers(1, m + 1))
            items = rng.choice(m, size=count, replace=False)
            rows[f, items] = matrix.domain.hi
    else:
        raise ValueError(f"unknown attack {attack!r}; expected one of {ATTACKS}")
    return rows


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of attack trials against certified sizes."""

    trials: int
    violations: tuple     # (trial index, user, observed intersection, certified r)
    min_intersection: dict  # user -> smallest |I_u ∩ poisoned top-N| seen

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_clean(matrix: RatingMatrix, clean: VoteCounts) -> None:
    n, m = matrix.n_users, matrix.n_items
    if (clean.T, *clean.counts.shape) != (math.comb(n, clean.s), n, m):
        raise ValueError("clean counts must be exact_item_probs of this matrix")


def exact_certificates(matrix: RatingMatrix, clean: VoteCounts, N: int,
                       e: int) -> tuple[dict, dict]:
    """Every user's clean top-N I_u, and user -> r certified against e fake users.

    clean: exact_item_probs of matrix (its s and N' carry over). The exact
    probabilities Fraction(count, T) of every user with a nonempty I_u go
    into one exact_table, certified in one certify_table call, the search
    that certify runs; users with an empty I_u get none.
    """
    ranked = ensemble_recommend_all(clean, matrix, N)
    users, items = ranked.nonempty()
    table = exact_table(clean, users, items, N)
    (res,) = certify_table(table, [make_context(matrix.n_users, e, clean.s)],
                           N, clean.n_prime)
    targets = {u: tuple(ranked[u].tolist()) for u in range(len(ranked))}
    return targets, dict(zip(users.tolist(), res.r[:, 0].tolist()))


def _poisoning(matrix: RatingMatrix, clean: VoteCounts, params, N: int,
               e: int, targets):
    """The one poisoning path of both attack checks, set up once per run.

    Returns intersections(fake): for a P x e x m stack of fake rows, the
    P x n array of |I_u ∩ poisoned top-N| of every genuine user u under each
    poisoning (its e rows appended after the n genuine ones). A subset of
    genuine users trains on the same rows and the same params as in the
    clean enumeration, so it casts the same votes: the clean counts stand in
    for all of them, and only the subsets holding a fake user (an index
    >= n) are trained, the same for every poisoning. For ir on integer
    ratings (the clean ones and every fake row) their models go through
    ir_votes_batched, many poisonings in one call; otherwise each poisoning
    is appended and its models trained one by one. The votes go on top of
    the clean counts, and one _ranked call ranks the unrated items of every
    genuine user of every poisoning, as ensemble_recommend_all does.
    """
    n, m, s = clean.n, clean.m, clean.s
    # combinations come sorted, so the last index is the largest
    subsets = np.array([sub for sub in itertools.combinations(range(n + e), s)
                        if sub[-1] >= n], dtype=np.intp).reshape(-1, s)
    dense = matrix.csr.toarray()
    unrated = np.ones((n, m), dtype=bool)
    unrated[np.repeat(np.arange(n), np.diff(matrix.csr.indptr)),
            matrix.csr.indices] = False
    member = np.zeros((n, m), dtype=bool)
    for u, items in targets.items():
        member[u, list(items)] = True

    def intersections(fake: np.ndarray) -> np.ndarray:
        P = len(fake)
        hits = np.zeros((P, n + e, m), dtype=np.int64)
        if _batched_ir(matrix, clean.algo, s, fake):
            stack = np.concatenate(
                (np.broadcast_to(dense, (P, n, m)), fake), axis=1)
            total, step = P * len(subsets), _models_per_call(m, s)
            for lo in range(0, total, step):
                q, f = np.divmod(np.arange(lo, min(lo + step, total)),
                                 len(subsets))
                users = subsets[f]
                # ids into hits viewed as ((n + e) P rows, m)
                _add_kernel_votes(hits.reshape(-1, m), stack[q[:, None], users],
                                  q[:, None] * (n + e) + users, params,
                                  clean.n_prime)
        else:
            for p in range(P):
                _add_model_votes(hits[p], append_fake_users(matrix, fake[p]),
                                 clean.algo, params, subsets, clean.n_prime)
        counts = hits[:, :n] + clean.counts
        rows, items = _ranked(counts.reshape(P * n, m),
                              np.broadcast_to(unrated, (P, n, m)).reshape(P * n, m),
                              N)
        hit = member[rows % n, items]
        return np.bincount(rows[hit], minlength=P * n).reshape(P, n)

    return intersections


def _attack_report(matrix: RatingMatrix, clean: VoteCounts, params, N: int,
                   e: int, cert_r, targets, trials: int, draw) -> ViolationReport:
    """Run trials poisonings, a chunk at a time, against the certified sizes.

    draw(lo, count): the fake rows of trials lo..lo+count-1, count x e x m,
    asked for in trial order. A chunk's kernel calls, counts and ranking
    stay within _BATCH_CELLS; only the running minimum per user and the
    violations, in (trial, cert_r) order, outlive a chunk.
    """
    n, m, s = clean.n, clean.m, clean.s
    intersections = _poisoning(matrix, clean, params, N, e, targets)
    fake_models = math.comb(n + e, s) - math.comb(n, s)
    chunk = max(1, min(_models_per_call(m, s) // max(fake_models, 1),
                       _BATCH_CELLS // ((n + e) * m)))
    users = np.array(list(cert_r), dtype=np.intp)
    claimed = np.array(list(cert_r.values()), dtype=np.int64)
    low = np.full(len(users), N, dtype=np.int64)  # no intersection exceeds N
    violations = []
    for lo in range(0, trials, chunk):
        inter = intersections(draw(lo, min(chunk, trials - lo)))[:, users]
        low = np.minimum(low, inter.min(axis=0))
        for t, k in np.argwhere(inter < claimed).tolist():
            violations.append((lo + t, int(users[k]), int(inter[t, k]),
                               int(claimed[k])))
    return ViolationReport(trials=trials, violations=tuple(violations),
                           min_intersection=dict(zip(users.tolist(),
                                                     low.tolist())))


def attack_soundness_check(matrix: RatingMatrix, clean: VoteCounts, params,
                           N: int, e: int, attack: str, trials: int, seed: int,
                           cert_r, targets) -> ViolationReport:
    """Run concrete poisoning attacks and compare against certified sizes.

    clean: exact_item_probs of matrix (its algo, s and N' carry over);
    cert_r: user -> certified r; targets: user -> I_u the certificates were
    computed for. Each trial appends e fake rows, drawn from the seeded rng
    in trial order, recomputes the exact poisoned ensemble over all
    C(n+e, s) subsets, and records any user whose observed intersection
    drops below the certified r. At e = 0 the clean matrix is checked once.
    """
    _check_clean(matrix, clean)
    if trials < 1:
        raise ValueError(f"need at least one attack trial, got {trials}")
    if math.comb(matrix.n_users + e, clean.s) > MAX_ENUM:
        raise ValueError("poisoned instance exceeds the enumeration guard")
    m = matrix.n_items
    if e == 0:
        return _attack_report(matrix, clean, params, N, 0, cert_r, targets, 1,
                              lambda lo, count: np.zeros((count, 0, m)))
    rng = np.random.default_rng(seed)
    return _attack_report(
        matrix, clean, params, N, e, cert_r, targets, trials,
        lambda lo, count: np.stack([make_fake_rows(matrix, e, attack, rng)
                                    for _ in range(count)]))


def check_two_level_e(e: int) -> None:
    """Refuse any e but 1: the two-level adversary appends one fake row."""
    if e != 1:
        raise ValueError(f"the two-level exhaustive attack tries one fake "
                         f"user, so it checks e = 1 only, got e = {e}")


def exhaustive_two_level_check(matrix: RatingMatrix, clean: VoteCounts, params,
                               N: int, e: int, cert_r, targets) -> ViolationReport:
    """Every possible single fake user over a two-level rating alphabet.

    The adversary's row takes values in {0, top score} per item; all 2^m
    patterns (including the empty row) are tried, trial p rating item i
    when bit i of p is set. Exhaustive over this discretized domain, so a
    surviving certificate was genuinely never beaten by any such attacker.
    Arguments are as in attack_soundness_check, e = 1.
    """
    check_two_level_e(e)
    _check_clean(matrix, clean)
    m = matrix.n_items
    if math.comb(matrix.n_users + 1, clean.s) > MAX_ENUM or m > 20:
        raise ValueError("exhaustive adversary is desk-scale only")
    hi = matrix.domain.hi

    def patterns(lo, count):
        bits = (np.arange(lo, lo + count)[:, None] >> np.arange(m)) & 1
        return (bits * hi).reshape(count, 1, m)

    return _attack_report(matrix, clean, params, N, 1, cert_r, targets,
                          2 ** m, patterns)
