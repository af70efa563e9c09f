"""The benchmark's workloads: seeded inputs, the timed CLI sequence, its checks.

A pass is one closed-loop sequence of `certrec.cli.main` calls, each started
after the previous one returned, exactly as a user would run the commands.
Every pass starts cold: the program's in-process caches are cleared first,
because each real command starts in a fresh process.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks as ck
import gen

from certrec import cli, ensemble, ratings

N = 10
E_MAX = 30
PIPELINE_T, PIPELINE_S = 200, 200
ORACLE_S, ORACLE_N_REC, ORACLE_E = 4, 3, 1

# vote-count digests of pipeline-ml100k for seeds 0-19, taken with 2 train
# workers (traced runs check them with 1); the ROADMAP requires bit-identical
# votes for a fixed seed, whatever the thread count
PINNED_VOTE_DIGESTS = {
    0: "084d45b92485ec2f3995c267c3129a09fdadb6e08dbf84a7fdbfa0eea8cfed60",
    1: "47e18d9ffc25997f8496a81879f9c9d91d01d2e74b73aafe316bb7c32abad290",
    2: "3cef28b3dad2a0ce023d2ae502a451c2545dd8e55ed71b99ccd2337e76973a10",
    3: "d29d5d1d5242727e1b0181c68ffb41a1a0f26b4fb32901b337455da78d9d90e9",
    4: "49519542b8ca0a1fbbaf626519006842cfe74a628d5f6f8c343e2e1b388b2010",
    5: "c022b02ff4d5086c89122fa2047959501876deb8eb93678c46d01d180a247b94",
    6: "92bd41a571c6f6bbcee1bf7ed29504d86a0b522a29b78f9b91768a1d1ff91f5c",
    7: "413e02f64d4ff7b14061b574d41b023795f34a5ff486036fb6e9045a1a5e50f1",
    8: "f332bdf48e3b3544dbba7a3b1ba04b77141845d22105de36dba1eca7c4705aec",
    9: "5b15d2020fe6228ca91087f30eb5ef0f3ca083f464d3290645dc7cff54c60119",
    10: "505d6bd07bd537eed8b69bd6a584f60c82062429d88d574933daa5be30bf6bf0",
    11: "09fd98d392e5f81232a423244fbb20b4d7961708b12ebeafe3bd097af82b2db1",
    12: "547442e7fed6bd62b623beac5b9bf1f48689bf8e1c916f4de48929c087f27fce",
    13: "712b1872cca3316cfc64fa111567f4e4e32a3f85dbf15b537162fd2da8dea312",
    14: "364e2cbfa18b21675966b8f12773cc57563013cfc5f7cec279e64fe8d4882116",
    15: "86db07192c8478931c251149009ad6a43b62746d451047ea6c496b64b234ac5f",
    16: "7210d9f7f14fb6246f43c4e8e2baf48c7694648e91c283e23e91aec05028fc2f",
    17: "4c7973f785d7f1785feb0e2e9b0df2ca390353627adc7789bed834298a3e329c",
    18: "3ef5de1a5faf41f170db1114cf82b5f0ec47d039bd6df38f73139d82d492ab84",
    19: "6b270078847aeb19183c9161ebed69eb7a3ee03e7308d271c000ebb319bfba0d",
}


@dataclass
class PassResult:
    wall_s: float
    stages: dict           # stage -> seconds
    info: dict = field(default_factory=dict)


def cold_start(modules) -> None:
    """Empty every lru_cache the program keeps, as a fresh process would have."""
    for mod in modules:
        for obj in list(vars(mod).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def run_cli(argv, checks: ck.Checks) -> str:
    """One command through the public entry point; returns what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    checks.check(code == 0, f"certrec {argv[0]} exited {code}")
    return buf.getvalue()


def _write_ratings(path: str, seed: int, users, items, stars) -> dict:
    gen.write_ml100k_tab(path, users, items, stars, seed)
    return {"n": int(users.max()) + 1, "m": int(items.max()) + 1,
            "ratings": int(len(users))}


def _eligible_limits(train, tests, target: str):
    """Users certified into the aggregates, and min(|I_u|, N) per user."""
    if target == "test-items":
        limit = {u: min(tests.size(u), N) for u in range(train.n_users)}
    else:
        limit = {u: min(train.n_items - train.rating_count(u), N)
                 for u in range(train.n_users)}
    eligible = sum(1 for u in range(train.n_users)
                   if tests.size(u) > 0 and limit[u] > 0)
    return eligible, limit


# ---------------------------------------------------------------------------
# pipeline-ml100k: ingest -> train (T=200) -> certify e=0:30 + bagging

def pipeline_setup(seed: int, work: str, checks: ck.Checks):
    data = os.path.join(work, "u.data")
    shape = _write_ratings(data, seed, *gen.ml100k_shaped(seed))
    return {"data": data}, shape


def pipeline_run(inputs: dict, out: str, seed: int, threads: int,
                 checks: ck.Checks) -> PassResult:
    split = os.path.join(out, "split.csv")
    votes = os.path.join(out, "votes.csv")
    cert = os.path.join(out, "cert")
    t0 = time.perf_counter()
    run_cli(["ingest", "--data", inputs["data"], "--format", "movielens-100k-tab",
             "--seed", str(seed), "--out", split], checks)
    t1 = time.perf_counter()
    run_cli(["train", "--split", split, "--algo", "ir", "--s", str(PIPELINE_S),
             "--nprime", "1", "--T", str(PIPELINE_T), "--threads", str(threads),
             "--seed", str(seed), "--out", votes], checks)
    t2 = time.perf_counter()
    run_cli(["certify", "--votes", votes, "--split", split, "--N", str(N),
             "--e", f"0:{E_MAX}", "--baseline", "bagging", "--out", cert], checks)
    t3 = time.perf_counter()
    stages = {"ingest_s": t1 - t0, "train_s": t2 - t1, "certify_s": t3 - t2}
    return PassResult(wall_s=t3 - t0, stages=stages,
                      info={"split": split, "votes": votes, "cert": cert})


def pipeline_check(res: PassResult, seed: int, checks: ck.Checks,
                   state: dict) -> float:
    vc = ensemble.load_votes(res.info["votes"])
    train, tests, _ = ratings.load_split(res.info["split"])
    bad = ck.bad_vote_cells(vc.counts, PIPELINE_T, train.csr.toarray() != 0)
    checks.check(bad == 0, f"{bad} vote cells outside [0, T] or on rated items")
    # unpinned seeds can only be held to the first pass of the same run
    digest = ck.votes_digest(vc.counts, vc.T)
    expected = state.setdefault("digest", PINNED_VOTE_DIGESTS.get(seed) or digest)
    checks.check(digest == expected,
                 f"pipeline votes digest {digest[:16]} != {expected[:16]}")
    state["vote_shape"] = gen.vote_shape(vc.counts)
    res.info["certify_users_per_s"] = _check_cert(res, train, tests, "test-items",
                                                  checks, state)
    return PIPELINE_T / res.stages["train_s"]


def _check_cert(res: PassResult, train, tests, target: str, checks: ck.Checks,
                state: dict) -> float:
    """Certificate checks; returns (user, e) certificates per certify second."""
    eligible, limit = _eligible_limits(train, tests, target)
    per_user = ck.read_per_user(os.path.join(res.info["cert"], "per_user.csv"))
    with open(os.path.join(res.info["cert"], "aggregate.json"), encoding="utf-8") as fh:
        aggregate = json.load(fh)
    ck.check_certificates(checks, per_user, aggregate, limit, target)
    state["r_pos_frac"] = ck.r_positive_share(per_user)
    state["r_pos_frac_e0"] = ck.r_positive_share(per_user, 0)
    return eligible * (E_MAX + 1) / res.stages["certify_s"]


# ---------------------------------------------------------------------------
# certify-t10k: paper-scale votes written in setup, certify only is timed

def t10k_setup(seed: int, work: str, checks: ck.Checks):
    data = os.path.join(work, "u.data")
    split = os.path.join(work, "split.csv")
    votes = os.path.join(work, "votes.csv")
    shape = _write_ratings(data, seed, *gen.ml100k_shaped(seed))
    run_cli(["ingest", "--data", data, "--format", "movielens-100k-tab",
             "--seed", str(seed), "--out", split], checks)
    train, _, _ = ratings.load_split(split)
    counts = gen.paper_scale_votes(seed, train)
    ensemble.save_votes(votes, ensemble.VoteCounts(
        T=gen.VOTE_T, n_prime=1, s=gen.VOTE_S, counts=counts,
        master_seed=seed, algo="ir"))
    back = ensemble.load_votes(votes)
    checks.check(back.T == gen.VOTE_T and np.array_equal(back.counts, counts),
                 "generated votes do not round-trip through load_votes")
    return {"split": split, "votes": votes}, {**shape, **gen.vote_shape(counts)}


def t10k_run(inputs: dict, out: str, seed: int, threads: int,
             checks: ck.Checks) -> PassResult:
    cert = os.path.join(out, "cert")
    t0 = time.perf_counter()
    run_cli(["certify", "--votes", inputs["votes"], "--split", inputs["split"],
             "--target", "clean-topn", "--N", str(N), "--e", f"0:{E_MAX}",
             "--baseline", "bagging", "--out", cert], checks)
    wall = time.perf_counter() - t0
    return PassResult(wall_s=wall, stages={"certify_s": wall},
                      info={"split": inputs["split"], "cert": cert})


def t10k_check(res: PassResult, seed: int, checks: ck.Checks, state: dict) -> float:
    train, tests, _ = ratings.load_split(res.info["split"])
    return _check_cert(res, train, tests, "clean-topn", checks, state)


# ---------------------------------------------------------------------------
# oracle-exhaustive: exact enumeration plus every two-level fake user

def oracle_setup(seed: int, work: str, checks: ck.Checks):
    data = os.path.join(work, "tiny.data")
    shape = _write_ratings(data, seed, *gen.tiny_oracle_matrix(seed))
    # warm-up: first calls into scipy.sparse and numpy pay one-off costs
    run_cli(["oracle", "--data", data, "--format", "movielens-100k-tab",
             "--s", str(ORACLE_S), "--N", str(ORACLE_N_REC), "--check", "probs"],
            checks)
    return {"data": data, "n": shape["n"], "m": shape["m"]}, shape


_ORACLE_OUT = re.compile(r"enumerated (\d+) subsets.*?certified r per user: "
                         r"(\{.*?\}).*?attack trials: (\d+), violations: (\d+)",
                         re.S)


def oracle_run(inputs: dict, out: str, seed: int, threads: int,
               checks: ck.Checks) -> PassResult:
    t0 = time.perf_counter()
    text = run_cli(["oracle", "--data", inputs["data"], "--format",
                    "movielens-100k-tab", "--s", str(ORACLE_S), "--N",
                    str(ORACLE_N_REC), "--e", str(ORACLE_E), "--attack",
                    "two-level-exhaustive"], checks)
    wall = time.perf_counter() - t0
    return PassResult(wall_s=wall, stages={"oracle_s": wall},
                      info={"text": text, **inputs})


def oracle_check(res: PassResult, seed: int, checks: ck.Checks, state: dict) -> float:
    n, m = res.info["n"], res.info["m"]
    found = _ORACLE_OUT.search(res.info["text"])
    if not checks.check(found is not None, "oracle output not understood"):
        return 0.0
    subsets, trials, violations = (int(found.group(i)) for i in (1, 3, 4))
    r_of = {int(k): int(v) for k, v in re.findall(r"(\d+): (\d+)", found.group(2))}
    checks.check(subsets == math.comb(n, ORACLE_S),
                 f"oracle enumerated {subsets} subsets")
    checks.check(trials == 2 ** m, f"oracle tried {trials} fake rows, expected {2 ** m}")
    checks.check(violations == 0, f"oracle reported {violations} violations")
    checks.check(len(r_of) == n and all(0 <= r <= ORACLE_N_REC for r in r_of.values()),
                 f"oracle r out of range: {r_of}")
    models = subsets + trials * math.comb(n + ORACLE_E, ORACLE_S)
    state["models_per_pass"] = models
    state["r_pos_frac"] = sum(1 for r in r_of.values() if r > 0) / max(1, len(r_of))
    return models / res.wall_s


@dataclass(frozen=True)
class Workload:
    """One workload; why it was chosen is recorded in BENCHMARK.json."""

    name: str
    setup: Callable      # (seed, dir, checks) -> (inputs, instance shape)
    run: Callable        # (inputs, dir, seed, threads, checks) -> PassResult
    check: Callable      # (PassResult, seed, checks, state) -> throughput
    setup_reps: int      # set-ups per run; setup_s is their median
    work_unit: str       # what the throughput counts, per second


WORKLOADS = {
    w.name: w for w in (
        Workload("pipeline-ml100k", pipeline_setup, pipeline_run, pipeline_check,
                 5, "train_models_per_s"),
        Workload("certify-t10k", t10k_setup, t10k_run, t10k_check,
                 3, "certify_users_per_s"),
        Workload("oracle-exhaustive", oracle_setup, oracle_run, oracle_check,
                 9, "oracle_models_per_s"),
    )
}


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
