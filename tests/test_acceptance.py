"""Acceptance gate: one test per shipping criterion, each printing a summary line.

Criteria 1, 2, and the large-dataset half of 5 need MovieLens-100k, which is
not redistributed here; they skip with supply instructions when it is absent
and run in full when CERTREC_ML100K (or data/ml-100k/u.data) provides it.
"""

import itertools
import math
import os
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from certrec import base_rec, bounds, certify, ensemble, metrics, oracle, ratings

from conftest import (ML100K_HINT, one_row_table, prob_row,
                      reference_exhaustive_votes, reference_r, structured_instance)
from test_certify import _random_bounds

N_AT = 10
SWEEP_E = list(range(31))
T_GRID = (500, 1000, 2000)


def _threads() -> int:
    return max(1, min(8, os.cpu_count() or 1))


def _avg(triples):
    return tuple(metrics.mean_over_users(triples).tolist())


def _agg_curve(sweep, tests, e_list):
    sizes = [tests.size(u) for u in sweep.users.tolist()]
    return {e: _avg([metrics.certified_metrics(r, N_AT, size) for r, size in
                     zip(sweep.r[:, sweep.e_list.index(e)].tolist(), sizes)])
            for e in e_list}


# ---------------------------------------------------------------------------
# shared artifacts

@pytest.fixture(scope="session")
def synthetic_sweeps():
    """Structured-instance vote snapshots at T in {500,1000,2000} plus sweeps."""
    train, tests = structured_instance()
    params = base_rec.IRParams()
    snaps = {}
    counts = np.zeros((train.n_users, train.n_items), dtype=np.int32)
    spans = ((0, T_GRID[0]),) + tuple(zip(T_GRID, T_GRID[1:]))
    for t_start, t_stop in spans:
        counts = counts + ensemble.accumulate_votes(
            train, "ir", params, 12, 1, 0, t_start, t_stop, _threads())
        snaps[t_stop] = ensemble.VoteCounts(T=t_stop, n_prime=1, s=12,
                                            counts=counts.copy(),
                                            master_seed=0, algo="ir")
    pore = {T: certify.sweep(train, snaps[T], tests, alpha=0.2,
                             e_list=SWEEP_E, N=N_AT)[0]
            for T in T_GRID}
    bag = certify.sweep(train, snaps[T_GRID[-1]], tests, alpha=0.2,
                        e_list=SWEEP_E, N=N_AT, rules=("bagging",))[0]
    return train, tests, snaps, pore, bag


@pytest.fixture(scope="session")
def ml100k_run(ml100k_path, tmp_path_factory):
    """Split + nested vote snapshots for the real dataset, or None if absent."""
    if ml100k_path is None:
        return None
    matrix = ratings.load_ratings(ml100k_path, "movielens-100k-tab")
    train, tests = ratings.split_train_test(matrix, 0.75, seed=0)
    params = base_rec.IRParams()
    snaps = {}
    counts = np.zeros((train.n_users, train.n_items), dtype=np.int32)
    spans = ((0, T_GRID[0]),) + tuple(zip(T_GRID, T_GRID[1:]))
    for t_start, t_stop in spans:
        counts = counts + ensemble.accumulate_votes(
            train, "ir", params, 300, 1, 0, t_start, t_stop, _threads())
        snaps[t_stop] = ensemble.VoteCounts(T=t_stop, n_prime=1, s=300,
                                            counts=counts.copy(),
                                            master_seed=0, algo="ir")
    return train, tests, snaps


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_table_reproduction(acceptance, ml100k_run):
    """Ensemble IR on MovieLens-100k matches the reference top-10 metrics."""
    if ml100k_run is None:
        acceptance(1, "SKIP", ML100K_HINT)
        pytest.skip(ML100K_HINT)
    train, tests, snaps = ml100k_run
    vc = snaps[2000]
    ranked = ensemble.ensemble_recommend_all(vc, train, N_AT)
    p, r, f1 = _avg(metrics.standard_metrics(ranked, tests, N_AT))
    want = (0.332556, 0.178293, 0.195624)
    ok = all(abs(got - ref) <= 0.02 for got, ref in zip((p, r, f1), want))
    detail = (f"P={p:.6f} R={r:.6f} F1={f1:.6f} vs {want} +-0.02, "
              f"T=2000 s=300")
    acceptance(1, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_2_single_model(acceptance, ml100k_run):
    """One IR model on the full training matrix matches reference precision."""
    if ml100k_run is None:
        acceptance(2, "SKIP", ML100K_HINT)
        pytest.skip(ML100K_HINT)
    train, tests, _ = ml100k_run
    model = base_rec.train_base("ir", train, np.arange(train.n_users),
                                base_rec.IRParams())
    recs = ratings.ItemSets.from_pairs(*base_rec.recommend_all(model, N_AT),
                                       train.n_users)
    p = _avg(metrics.standard_metrics(recs, tests, N_AT))[0]
    ok = abs(p - 0.330753) <= 0.02
    detail = f"P={p:.6f} vs 0.330753 +-0.02"
    acceptance(2, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_3_oracle_equivalence(acceptance):
    """Exhaustive vote fractions equal enumerated probabilities; the radius
    search equals a linear scan of the definition on randomized bound sets."""
    rng = np.random.default_rng(303)
    mismatches = []
    for trial in range(20):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(4, 9))
        s = int(rng.integers(1, min(4, n) + 1))
        n_prime = int(rng.integers(1, 3))
        mat = ratings.random_matrix(n, m, seed=int(rng.integers(0, 10 ** 6)))
        probs = oracle.exact_item_probs(mat, "ir", base_rec.IRParams(), s,
                                        n_prime)
        votes = reference_exhaustive_votes(mat, "ir", base_rec.IRParams(), s,
                                           n_prime)
        assert probs.T == math.comb(n, s)
        for u in range(n):
            row = prob_row(probs, u)
            for i in range(m):
                if Fraction(int(votes[u, i]), probs.T) != row[i]:
                    mismatches.append((trial, u, i))
    search_bad = 0
    qrng = np.random.default_rng(304)
    for _ in range(200):
        lower, upper, contexts, N, n_prime = _random_bounds(qrng)
        (res,) = certify.certify_table(one_row_table(lower, upper, N),
                                       contexts, N, n_prime)
        search_bad += res.r[0].tolist() != [
            reference_r(lower, upper, ctx, N, n_prime) for ctx in contexts]
    ok = not mismatches and search_bad == 0
    detail = (f"20 instances enumerated exactly, {len(mismatches)} prob "
              f"mismatches; 200 bound sets at e=0..4, {search_bad} where the "
              f"radius search differs from a linear scan of the definition")
    acceptance(3, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_4_soundness(acceptance):
    """No enumerated or randomized attack pushes an intersection below its r."""
    def certified(matrix, s, N, e):
        probs = oracle.exact_item_probs(matrix, "ir", base_rec.IRParams(), s, 1)
        return (probs, *oracle.exact_certificates(matrix, probs, N, e))

    # exhaustive two-level adversary on n=5, m=4, s=2, e=1
    small = ratings.random_matrix(5, 4, seed=6)
    probs, targets, cert_r = certified(small, s=2, N=2, e=1)
    assert cert_r.max() > 0, "vacuous certificates"
    exhaustive = oracle.exhaustive_two_level_check(
        small, probs, base_rec.IRParams(), N=2, e=1, cert_r=cert_r,
        targets=targets)
    # 100 randomized attacks on n=6, s=3, e=1 across all attack families
    mid = ratings.random_matrix(6, 6, seed=3)
    probs6, targets6, cert_r6 = certified(mid, s=3, N=3, e=1)
    assert cert_r6.max() > 0, "vacuous certificates"
    reports = []
    for attack, trials in zip(oracle.ATTACKS, (34, 33, 33)):
        reports.append(oracle.attack_soundness_check(
            mid, probs6, base_rec.IRParams(), N=3, e=1, attack=attack,
            trials=trials, seed=11, cert_r=cert_r6, targets=targets6))
    total = sum(rep.trials for rep in reports)
    violations = len(exhaustive.violations) + sum(len(rep.violations)
                                                  for rep in reports)
    ok = exhaustive.ok and all(rep.ok for rep in reports) and total == 100
    detail = (f"exhaustive 2-level: {exhaustive.trials} matrices, randomized: "
              f"{total} attacks, violations: {violations}")
    acceptance(4, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_5_monotonicity(acceptance, synthetic_sweeps, ml100k_run):
    """Certified metrics fall as e grows and rise as T grows."""
    def check(tests, pore_by_T):
        curves = {T: _agg_curve(pore_by_T[T], tests, SWEEP_E) for T in T_GRID}
        top = curves[T_GRID[-1]]
        e_bad = [(e1, e2) for e1, e2 in zip(SWEEP_E, SWEEP_E[1:])
                 if any(top[e1][k] < top[e2][k] - 1e-12 for k in range(3))]
        t_bad = [(e, t1, t2) for e in SWEEP_E
                 for t1, t2 in zip(T_GRID, T_GRID[1:])
                 if any(curves[t1][e][k] > curves[t2][e][k] + 1e-12
                        for k in range(3))]
        return e_bad, t_bad, top

    train, tests, snaps, pore, _ = synthetic_sweeps
    e_bad, t_bad, top = check(tests, pore)
    ok = not e_bad and not t_bad
    assert ok, f"synthetic instance: e violations {e_bad}, T violations {t_bad}"
    assert top[0][0] > 0, "sweep is vacuous at e=0"

    if ml100k_run is None:
        acceptance(5, "SKIP", "property holds on the synthetic instance; "
                              + ML100K_HINT)
        pytest.skip("monotonicity verified on the synthetic instance; "
                    + ML100K_HINT)
    m_train, m_tests, m_snaps = ml100k_run
    m_pore = {T: certify.sweep(m_train, m_snaps[T], m_tests,
                               alpha=0.001, e_list=SWEEP_E, N=N_AT)[0]
              for T in T_GRID}
    e_bad, t_bad, top = check(m_tests, m_pore)
    ok = not e_bad and not t_bad
    detail = (f"e violations: {len(e_bad)}, T violations: {len(t_bad)}, "
              f"cert P@10 at e=0: {top[0][0]:.4f}")
    acceptance(5, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_6_bagging_dominance(acceptance, synthetic_sweeps):
    """Joint certification is never below the per-item baseline, and beats it
    strictly at some positive attack budget."""
    train, tests, snaps, pore, bag = synthetic_sweeps
    pore_curve = _agg_curve(pore[T_GRID[-1]], tests, SWEEP_E)
    bag_curve = _agg_curve(bag, tests, SWEEP_E)
    dominated = [e for e in SWEEP_E
                 if any(pore_curve[e][k] < bag_curve[e][k] - 1e-12
                        for k in range(3))]
    strict = [e for e in SWEEP_E if e >= 1
              and all(pore_curve[e][k] >= bag_curve[e][k] for k in range(3))
              and any(pore_curve[e][k] > bag_curve[e][k] + 1e-12
                      for k in range(3))]
    # per-user dominance as well: with N'=1 the joint constraint is implied
    # whenever the single-competitor one is
    joint = pore[2000]
    assert joint.users.tolist() == bag.users.tolist()
    per_user_bad = [(u, e) for k, u in enumerate(bag.users.tolist())
                    for j, e in enumerate(bag.e_list) if joint.r[k, j] < bag.r[k, j]]
    ok = not dominated and not per_user_bad and bool(strict)
    detail = (f"dominated nowhere ({len(dominated)} exceptions, "
              f"{len(per_user_bad)} per-user), strict at e={strict[:6]}")
    acceptance(6, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_7_calibration(acceptance):
    """Estimated bounds cover the exact probabilities at the promised rate."""
    alpha, t_draws, runs, n_rec = 0.2, 200, 500, 3
    matrix = ratings.random_matrix(6, 6, seed=13)
    n, m = matrix.n_users, matrix.n_items
    probs = oracle.exact_item_probs(matrix, "ir", base_rec.IRParams(), s=3,
                                    n_prime=1)
    # per-subset recommendation patterns; sampling an index uniformly is one
    # submatrix draw, so T draws reproduce the training procedure exactly
    patterns = []
    for users in itertools.combinations(range(n), 3):
        model = base_rec.train_base("ir", matrix, np.array(users),
                                    base_rec.IRParams())
        hits = np.zeros((n, m), dtype=np.int64)
        hits[base_rec.recommend_all(model, 1)] = 1
        patterns.append(hits)
    patterns = np.array(patterns)
    targets = dict(enumerate(map(tuple, ensemble.ensemble_recommend_all(
        probs, matrix, n_rec))))
    exact_rows = {u: prob_row(probs, u) for u in range(n)}
    rng = np.random.default_rng(77)
    alpha_u = alpha / n
    # every count's bounds once, at the Bonferroni budget alpha_u / m
    each = np.arange(t_draws + 1)
    lower_of = bounds._cp_by_count(each, t_draws, alpha_u / m, False)
    upper_of = bounds._cp_by_count(each, t_draws, alpha_u / m, True)
    bad_runs = 0
    for _ in range(runs):
        idx = rng.integers(0, probs.T, size=t_draws)
        counts = patterns[idx].sum(axis=0)
        violated = False
        for u in range(n):
            if not targets[u]:
                continue
            inside = sorted(targets[u])
            outside = [j for j in range(m) if j not in inside]
            lower = lower_of[counts[u, inside]].tolist()
            upper = upper_of[counts[u, outside]].tolist()
            row = exact_rows[u]
            if any(Fraction(lo) > row[i] for i, lo in zip(inside, lower)) or \
               any(Fraction(up) < row[j] for j, up in zip(outside, upper)):
                violated = True
                break
        bad_runs += violated
    frac = bad_runs / runs
    limit = alpha + 3 * math.sqrt(alpha * (1 - alpha) / runs)
    assert limit == pytest.approx(0.253665631459995, abs=1e-12)
    ok = frac <= limit
    detail = f"violation fraction {frac:.4f} <= {limit:.4f} over {runs} runs"
    acceptance(7, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_8_numerics(acceptance):
    """Quantile grid, sigma dual-path agreement, and SGD gradient checks."""
    # quantile residuals against an independent bisection on scipy's CDF
    shapes = (0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 2000.0)
    levels = (1e-6, 1e-3, 0.025, 0.2, 0.37, 0.5, 0.8, 0.975, 0.999,
              1.0 - 1e-6)
    worst_q = 0.0
    cases = 0
    for a in shapes:
        for b in shapes:
            for beta in levels:
                cases += 1
                mine = bounds.beta_quantile(beta, a, b)
                lo, hi = 0.0, 1.0
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    if mid <= lo or mid >= hi:
                        break
                    if float(scipy.special.betainc(a, b, mid)) < beta:
                        lo = mid
                    else:
                        hi = mid
                worst_q = max(worst_q, abs(mine - 0.5 * (lo + hi)))
    q_ok = cases == 1000 and worst_q <= 1e-10

    # exact rational sigma vs the double that bounds it from above
    worst_s = 0.0
    for e in range(0, 51):
        ctx = bounds.make_context(943, e, 200)
        approx, exact = ctx.sigma_hi, ctx.sigma
        assert Fraction(approx) >= exact
        if e == 0:
            assert approx == 0 and exact == 0
            continue
        worst_s = max(worst_s, abs(Fraction(approx) - exact) / exact)
    s_ok = worst_s <= 1e-12

    # pairwise-ranking gradients vs central differences
    rng = np.random.default_rng(55)
    worst_g = 0.0
    for _ in range(110):
        d = 6
        pu, qi, qj = rng.normal(0.0, 0.5, (3, d))
        reg = float(rng.uniform(0.0, 0.05))
        grads = base_rec.bpr_pair_grads(pu, qi, qj, reg)
        h = 1e-6
        for vec, grad in zip((pu, qi, qj), grads):
            for k in range(d):
                keep = vec[k]
                vec[k] = keep + h
                up = base_rec.bpr_pair_loss(pu, qi, qj, reg)
                vec[k] = keep - h
                dn = base_rec.bpr_pair_loss(pu, qi, qj, reg)
                vec[k] = keep
                num = (up - dn) / (2 * h)
                denom = max(abs(num), abs(grad[k]), 1e-8)
                worst_g = max(worst_g, abs(num - grad[k]) / denom)
    g_ok = worst_g <= 1e-5

    ok = q_ok and s_ok and g_ok
    detail = (f"quantile residual {worst_q:.2e} on {cases} cases, sigma rel "
              f"gap {float(worst_s):.2e}, gradient rel err {worst_g:.2e}")
    acceptance(8, "PASS" if ok else "FAIL", detail)
    assert ok, detail
