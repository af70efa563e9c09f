"""Exact ground truth on tiny instances, and concrete attacks that try to
falsify certified guarantees.

Enumerating all C(n,s) submatrices gives exact item probabilities, the
reference against which sampled vote counts are validated. Appending real
fake-user rows and recomputing the exact poisoned ensemble can then only
falsify a certificate, never prove one: any observed intersection below the
certified r is a build-failing bug.

One subset helper and one vote loop serve both: _subsets lists every
subset of the clean matrix, or only those holding a fake user, and
_subset_votes counts their models' votes under a stack of poisonings. Both
attack checks run one poisoning path, _attack_report: the clean matrix's
exact counts come from the caller, and only the subsets that hold a fake
user are trained. Poisonings go through it a chunk at a time: for ir on
integer ratings, each chunk's models are ir_votes_batched calls, their
votes one bincount on top of the clean counts, every genuine user of every
poisoning one _ranked call and the intersections one membership lookup.
_BATCH_CELLS bounds every array of a step, so memory does not grow with the
number of poisonings. Certificates and item sets are arrays:
exact_certificates returns ItemSets and one r per user.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, vstack

from .base_rec import (IRParams, _ranked, exact_gram, ir_votes_batched,
                       recommend_all, train_base)
from .bounds import exact_table, make_context
from .certify import certify_table
from .ensemble import VoteCounts, ensemble_recommend_all
from .ratings import ItemSets, RatingMatrix

MAX_ENUM = 10 ** 6  # refuse instances with more than this many subsets

ATTACKS = ("random-ratings", "copy-popular", "all-max-on-random-items")


def exact_item_probs(matrix: RatingMatrix, algo: str, params, s: int,
                     n_prime: int) -> VoteCounts:
    """Enumerate every s-subset of users (lexicographic) and count votes.

    The result is the vote counts of the exhaustive ensemble, T = C(n, s), so
    counts[u, i] / T is the exact probability that i is recommended to u.
    The subsets go through _subset_votes, the vote loop that the attack
    checks share; ensemble.accumulate_votes samples them instead. When that
    loop counts ir models with base_rec.ir_votes_batched, the same C(n, s)
    models then go through train_ir + recommend_all, and any vote that
    differs raises RuntimeError.
    """
    n, m = matrix.n_users, matrix.n_items
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    total = math.comb(n, s)
    if total > MAX_ENUM:
        raise ValueError(f"C({n},{s}) = {total} exceeds the enumeration guard {MAX_ENUM}")
    subsets = _subsets(n, s, 0)
    hits = _subset_votes(matrix, matrix.csr.toarray(), np.zeros((1, 0, m)),
                         subsets, algo, params, n_prime)[0]
    if _batched_ir(matrix, algo, s):
        # the batched kernel answered: replay the clean models through the
        # production kernel and refuse to go on if any vote differs
        ref = np.zeros_like(hits)
        _add_model_votes(ref, matrix, algo, params, subsets, n_prime)
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
    """Whether ir_votes_batched runs: ir, a float64 Gram that exact_gram
    finds exact on the ratings stored in matrix and in the fake rows
    (whatever the domain says), and one model's arrays within _BATCH_CELLS
    (train_ir blocks wider catalogs)."""
    m = matrix.n_items
    return (algo == "ir" and m * (m + s) <= _BATCH_CELLS
            and exact_gram(np.concatenate((matrix.csr.data, np.ravel(fake))),
                           s, np.float64))


def _models_per_call(m: int, s: int) -> int:
    """Models in one ir_votes_batched call: its arrays take m * (m + s)
    cells per model."""
    return max(1, _BATCH_CELLS // (m * (m + s)))


def _subsets(n: int, s: int, least: int) -> np.ndarray:
    """The s-subsets of range(n) that hold a row >= least, lexicographic,
    as a count x s array: every subset when least = 0, and those holding a
    fake user when the fake rows start at row least."""
    # combinations come sorted, so the last index is the largest; the array
    # fills from the index stream, holding no list of tuples
    kept = (sub for sub in itertools.combinations(range(n), s) if sub[-1] >= least)
    count = math.comb(n, s) - math.comb(least, s)
    return np.fromiter(itertools.chain.from_iterable(kept), np.intp,
                       count=count * s).reshape(-1, s)


def _subset_votes(matrix: RatingMatrix, dense: np.ndarray, fake: np.ndarray,
                  subsets: np.ndarray, algo: str, params,
                  n_prime: int) -> np.ndarray:
    """The one vote loop: P x (n + e) x m votes of the models on subsets,
    poisoning p's rows being matrix's n (dense: its toarray) and then its
    e fake rows fake[p] (fake: P x e x m). For ir on integer ratings, the
    clean ones and every fake row, the models of all P poisonings go
    through ir_votes_batched, as many per call as _BATCH_CELLS allows;
    otherwise each poisoning is appended and its models trained one by one.
    """
    P, e, m = fake.shape
    n, s = matrix.n_users, subsets.shape[1]
    hits = np.zeros((P, n + e, m), dtype=np.int32)
    if not _batched_ir(matrix, algo, s, fake):
        for p in range(P):
            _add_model_votes(hits[p], append_fake_users(matrix, fake[p]),
                             algo, params, subsets, n_prime)
        return hits
    stack = np.concatenate((np.broadcast_to(dense, (P, n, m)), fake), axis=1)
    total, step = P * len(subsets), _models_per_call(m, s)
    for lo in range(0, total, step):
        q, f = np.divmod(np.arange(lo, min(lo + step, total)), len(subsets))
        users = subsets[f]
        # ids into hits viewed as (P (n + e) rows, m)
        _add_kernel_votes(hits.reshape(-1, m), stack[q[:, None], users],
                          q[:, None] * (n + e) + users, params, n_prime)
    return hits


def _add_kernel_votes(hits, x, users, params, n_prime) -> None:
    """Add the votes of the ir models with rows x (B x s x m) to hits, cast
    for the B x s ids users: rows of hits viewed as (ids, m)."""
    k = (params if params is not None else IRParams()).k
    users, items = ir_votes_batched(x, users, k, n_prime)
    # repeated cells across the batch's models: count them all
    hits += np.bincount(users * hits.shape[-1] + items,
                        minlength=hits.size).reshape(hits.shape)


def _add_model_votes(hits, matrix, algo, params, subsets, n_prime) -> None:
    """Train one model per subset and add each member's votes to hits."""
    for subset in subsets:
        model = train_base(algo, matrix, subset, params)
        # a model recommends each item at most once per user: no repeated cell
        hits[recommend_all(model, n_prime)] += 1


def append_fake_users(matrix: RatingMatrix, fake_rows: np.ndarray) -> RatingMatrix:
    """New matrix with the fake rating rows appended after the genuine users."""
    fake = np.atleast_2d(np.asarray(fake_rows, dtype=np.float64))
    if fake.ndim != 2 or fake.shape[1] != matrix.n_items:
        raise ValueError("fake rows must cover exactly the m existing items")
    stacked = vstack([matrix.csr, csr_matrix(fake)]).tocsr()
    stacked.sort_indices()
    # fake users have no external identity; -1 marks them in the id table
    ext = np.concatenate([matrix.user_ids, np.full(len(fake), -1)])
    return RatingMatrix(n_users=stacked.shape[0], n_items=matrix.n_items,
                        csr=stacked, domain=matrix.domain, user_ids=ext,
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
    min_intersection: np.ndarray  # per user, smallest |I_u ∩ poisoned top-N| seen

    @property
    def ok(self) -> bool:
        return not self.violations


def exact_certificates(matrix: RatingMatrix, clean: VoteCounts, N: int,
                       e: int) -> tuple[ItemSets, np.ndarray]:
    """Every user's clean top-N I_u, and the r certified for each user
    against e fake users: an int64 array, 0 where I_u is empty.

    clean: exact_item_probs of matrix (its s and N' carry over). The exact
    probabilities Fraction(count, T) of every user with a nonempty I_u go
    into one exact_table, certified in one certify_table call, the search
    that certify runs.
    """
    targets = ensemble_recommend_all(clean, matrix, N)
    users, items = targets.nonempty()
    table = exact_table(clean, users, items, N)
    (res,) = certify_table(table, [make_context(matrix.n_users, e, clean.s)],
                           N, clean.n_prime)
    cert_r = np.zeros(len(targets), dtype=np.int64)
    cert_r[users] = res.r[:, 0]
    return targets, cert_r


def _attack_report(matrix: RatingMatrix, clean: VoteCounts, params, N: int,
                   e: int, cert_r, targets, trials: int, draw) -> ViolationReport:
    """The one poisoning path of both attack checks: trials poisonings, a
    chunk at a time, against the certified sizes.

    draw(lo, count): the fake rows of trials lo..lo+count-1, count x e x m,
    asked for in trial order; each poisoning appends its e rows after the n
    genuine ones. A subset of genuine users trains on the same rows and the
    same params as in the clean enumeration, so it casts the same votes: the
    clean counts stand in for all of them, and only the subsets holding a
    fake user go through _subset_votes. Their votes go on top of the clean
    counts, and one _ranked call ranks the unrated items of every genuine
    user of every poisoning of the chunk, as ensemble_recommend_all does. A
    chunk's kernel calls, counts and ranking stay within _BATCH_CELLS; only
    the running minimum per user and the violations, in (trial, user)
    order, outlive a chunk.
    """
    n, m, s = matrix.n_users, matrix.n_items, clean.s
    if (clean.T, *clean.counts.shape) != (math.comb(n, s), n, m):
        raise ValueError("clean counts must be exact_item_probs of this matrix")
    if len(cert_r) != n or len(targets) != n:
        raise ValueError("cert_r and targets must hold one entry per user")
    if math.comb(n + e, s) > MAX_ENUM:
        raise ValueError("poisoned instance exceeds the enumeration guard")
    subsets = _subsets(n + e, s, n)
    dense = matrix.csr.toarray()
    unrated = dense == 0  # stored scores are never zero
    member = np.zeros((n, m), dtype=bool)
    member[np.repeat(np.arange(n), targets.sizes), targets.items] = True
    chunk = max(1, min(_models_per_call(m, s) // max(len(subsets), 1),
                       _BATCH_CELLS // ((n + e) * m)))
    low = np.full(n, N, dtype=np.int64)  # no intersection exceeds N
    violations = []
    for lo in range(0, trials, chunk):
        fake = draw(lo, min(chunk, trials - lo))
        P = len(fake)
        counts = _subset_votes(matrix, dense, fake, subsets, clean.algo,
                               params, clean.n_prime)[:, :n] + clean.counts
        rows, items = _ranked(counts.reshape(P * n, m),
                              np.broadcast_to(unrated, (P, n, m)).reshape(P * n, m),
                              N)
        hit = member[rows % n, items]
        inter = np.bincount(rows[hit], minlength=P * n).reshape(P, n)
        low = np.minimum(low, inter.min(axis=0))
        for t, u in np.argwhere(inter < cert_r).tolist():
            violations.append((lo + t, u, int(inter[t, u]), int(cert_r[u])))
    return ViolationReport(trials=trials, violations=tuple(violations),
                           min_intersection=low)


def attack_soundness_check(matrix: RatingMatrix, clean: VoteCounts, params,
                           N: int, e: int, attack: str, trials: int, seed: int,
                           cert_r, targets) -> ViolationReport:
    """Run concrete poisoning attacks and compare against certified sizes.

    clean: exact_item_probs of matrix (its algo, s and N' carry over);
    cert_r and targets: exact_certificates' r array and the ItemSets I_u it
    was computed for. Each trial appends e fake rows, drawn from the seeded
    rng in trial order, recomputes the exact poisoned ensemble over all
    C(n+e, s) subsets, and records any user whose observed intersection
    drops below the certified r. At e = 0 the clean matrix is checked once.
    """
    if trials < 1:
        raise ValueError(f"need at least one attack trial, got {trials}")
    m = matrix.n_items
    if e == 0:
        return _attack_report(matrix, clean, params, N, 0, cert_r, targets, 1,
                              lambda lo, count: np.zeros((count, 0, m)))
    rng = np.random.default_rng(seed)
    return _attack_report(
        matrix, clean, params, N, e, cert_r, targets, trials,
        lambda lo, count: np.stack([make_fake_rows(matrix, e, attack, rng)
                                    for _ in range(count)]))


def check_two_level(e: int, m: int) -> None:
    """Refuse any e but 1, since the two-level adversary appends one fake
    row, and any m over 20, since it tries all 2^m rows."""
    if e != 1:
        raise ValueError(f"the two-level exhaustive attack tries one fake "
                         f"user, so it checks e = 1 only, got e = {e}")
    if m > 20:
        raise ValueError("exhaustive adversary is desk-scale only")


def exhaustive_two_level_check(matrix: RatingMatrix, clean: VoteCounts, params,
                               N: int, e: int, cert_r, targets) -> ViolationReport:
    """Every possible single fake user over a two-level rating alphabet.

    The adversary's row takes values in {0, top score} per item; all 2^m
    patterns (including the empty row) are tried, trial p rating item i
    when bit i of p is set. Exhaustive over this discretized domain, so a
    surviving certificate was genuinely never beaten by any such attacker.
    Arguments are as in attack_soundness_check, e = 1.
    """
    m = matrix.n_items
    check_two_level(e, m)
    hi = matrix.domain.hi

    def patterns(lo, count):
        bits = (np.arange(lo, lo + count)[:, None] >> np.arange(m)) & 1
        return (bits * hi).reshape(count, 1, m)

    return _attack_report(matrix, clean, params, N, 1, cert_r, targets,
                          2 ** m, patterns)
