"""Exact ground truth on tiny instances, and concrete attacks that try to
falsify certified guarantees.

Enumerating all C(n,s) submatrices gives exact item probabilities, the
reference against which sampled vote counts are validated. Appending real
fake-user rows and recomputing the exact poisoned ensemble can then only
falsify a certificate, never prove one: any observed intersection below the
certified r is a build-failing bug. The attack checks take the clean
matrix's exact counts from their caller and, per poisoning, train only the
subsets that hold a fake user.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csr_matrix

from .base_rec import IRParams, ir_votes_batched, recommend_all, train_base
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


# float64 cells per array of one ir_votes_batched call: a few MB in all
_BATCH_CELLS = 1 << 17


def _batched_ir(matrix: RatingMatrix, algo: str, s: int) -> bool:
    """Whether ir_votes_batched runs: ir, integer ratings stored (whatever
    the domain says) and s * max|r|^2 < 2^53, so that it is exact, and one
    model's arrays within _BATCH_CELLS (train_ir blocks wider catalogs)."""
    data = matrix.csr.data
    top = float(np.abs(data).max(initial=0.0))
    m = matrix.n_items
    return (algo == "ir" and m * (m + s) <= _BATCH_CELLS
            and bool(np.all(data == np.round(data)))
            and s * top * top < 2.0 ** 53)


def _add_votes(hits, matrix, algo, params, s, subsets, n_prime) -> None:
    """Add every s-subset's model votes to hits, in batches when exact."""
    if not _batched_ir(matrix, algo, s):
        _add_model_votes(hits, matrix, algo, params, subsets, n_prime)
        return
    k = (params if params is not None else IRParams()).k
    m = matrix.n_items
    chunk = _BATCH_CELLS // (m * (m + s))
    while batch := list(itertools.islice(subsets, chunk)):
        users, items = ir_votes_batched(matrix, np.array(batch), k, n_prime)
        # repeated cells across the batch's models: count them all
        hits += np.bincount(users * m + items,
                            minlength=hits.size).reshape(hits.shape)


def _add_model_votes(hits, matrix, algo, params, subsets, n_prime) -> None:
    """Train one model per subset and add each member's votes to hits."""
    for subset in subsets:
        model = train_base(algo, matrix, np.asarray(subset), params)
        # a model recommends each item at most once per user: no repeated cell
        hits[recommend_all(model, n_prime)] += 1


def _poisoned_counts(clean: VoteCounts, poisoned: RatingMatrix,
                     params) -> VoteCounts:
    """exact_item_probs(poisoned, ...) from the clean matrix's exact counts.

    The poisoned matrix is the clean one with fake rows appended. A subset
    of genuine users trains on the same rows and the same params as in the
    clean enumeration, so it casts the same votes: the clean counts stand in
    for all of them, and only the subsets holding a fake user (an index >= n)
    are trained. T is still C(n + e, s) over every subset.
    """
    n, s = clean.n, clean.s
    hits = np.zeros((poisoned.n_users, poisoned.n_items), dtype=np.int32)
    hits[:n] = clean.counts
    # combinations come sorted, so the last index is the largest
    _add_votes(hits, poisoned, clean.algo, params, s,
               (sub for sub in itertools.combinations(range(poisoned.n_users), s)
                if sub[-1] >= n),
               clean.n_prime)
    return replace(clean, T=math.comb(poisoned.n_users, s), counts=hits)


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


def _check_one_poisoning(matrix, clean, poisoned, params, N, targets, cert_r,
                         trial, violations, min_inter):
    probs = _poisoned_counts(clean, poisoned, params)
    topn = ensemble_recommend_all(probs, matrix, N)  # the genuine users'
    for u, r_u in cert_r.items():
        inter = len(set(targets[u]) & set(topn[u]))
        if u not in min_inter or inter < min_inter[u]:
            min_inter[u] = inter
        if inter < r_u:
            violations.append((trial, u, inter, r_u))


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
    n = matrix.n_users
    targets = {u: tuple(items) for u, items in
               enumerate(ensemble_recommend_all(clean, matrix, N))}
    users = [u for u in range(n) if targets[u]]
    table = exact_table(clean, users, [targets[u] for u in users], N)
    (res,) = certify_table(table, [make_context(n, e, clean.s)], N, clean.n_prime)
    return targets, dict(zip(users, res.r[:, 0].tolist()))


def attack_soundness_check(matrix: RatingMatrix, clean: VoteCounts, params,
                           N: int, e: int, attack: str, trials: int, seed: int,
                           cert_r, targets) -> ViolationReport:
    """Run concrete poisoning attacks and compare against certified sizes.

    clean: exact_item_probs of matrix (its algo, s and N' carry over);
    cert_r: user -> certified r; targets: user -> I_u the certificates were
    computed for. Each trial appends e fake rows, recomputes the exact
    poisoned ensemble over all C(n+e, s) subsets, and records any user whose
    observed intersection drops below the certified r.
    """
    _check_clean(matrix, clean)
    if trials < 1:
        raise ValueError(f"need at least one attack trial, got {trials}")
    if math.comb(matrix.n_users + e, clean.s) > MAX_ENUM:
        raise ValueError("poisoned instance exceeds the enumeration guard")
    rng = np.random.default_rng(seed)
    violations, min_inter = [], {}
    if e == 0:
        _check_one_poisoning(matrix, clean, matrix, params, N, targets,
                             cert_r, 0, violations, min_inter)
        return ViolationReport(trials=1, violations=tuple(violations),
                               min_intersection=min_inter)
    for trial in range(trials):
        rows = make_fake_rows(matrix, e, attack, rng)
        poisoned = append_fake_users(matrix, rows)
        _check_one_poisoning(matrix, clean, poisoned, params, N, targets,
                             cert_r, trial, violations, min_inter)
    return ViolationReport(trials=trials, violations=tuple(violations),
                           min_intersection=min_inter)


def check_two_level_e(e: int) -> None:
    """Refuse any e but 1: the two-level adversary appends one fake row."""
    if e != 1:
        raise ValueError(f"the two-level exhaustive attack tries one fake "
                         f"user, so it checks e = 1 only, got e = {e}")


def exhaustive_two_level_check(matrix: RatingMatrix, clean: VoteCounts, params,
                               N: int, e: int, cert_r, targets) -> ViolationReport:
    """Every possible single fake user over a two-level rating alphabet.

    The adversary's row takes values in {0, top score} per item; all 2^m
    patterns (including the empty row) are tried. Exhaustive over this
    discretized domain, so a surviving certificate was genuinely never beaten
    by any such attacker. Arguments are as in attack_soundness_check, e = 1.
    """
    check_two_level_e(e)
    _check_clean(matrix, clean)
    m = matrix.n_items
    if math.comb(matrix.n_users + 1, clean.s) > MAX_ENUM or m > 20:
        raise ValueError("exhaustive adversary is desk-scale only")
    violations, min_inter = [], {}
    hi = matrix.domain.hi
    for pattern in range(2 ** m):
        row = np.zeros((1, m))
        for i in range(m):
            if pattern >> i & 1:
                row[0, i] = hi
        poisoned = append_fake_users(matrix, row)
        _check_one_poisoning(matrix, clean, poisoned, params, N, targets,
                             cert_r, pattern, violations, min_inter)
    return ViolationReport(trials=2 ** m, violations=tuple(violations),
                           min_intersection=min_inter)
