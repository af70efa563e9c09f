"""Command-line surface: ingest, train, recommend, certify, evaluate, baseline, oracle.

Every command that writes results also writes a JSON manifest carrying the
exact parameters and seeds, so a run can be reproduced from its outputs.
Configuration comes from defaults, then an optional key=value config file,
then explicit command-line flags (flags win).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import platform
import sys
import time
from dataclasses import fields, replace

import numpy as np
import scipy

from . import base_rec, certify, ensemble, metrics, oracle, ratings

# base-model parameter types by algo: their fields (but bpr's per-member seed)
# are the config-only ir.* and bpr.* settings
_BASE_PARAMS = {"ir": base_rec.IRParams, "bpr": base_rec.BPRParams}

# every setting and its default; the default's type is the setting's type.
# The defaults mirror the reference evaluation setup; T is shipped smaller
# than the reference 100000 because certified values only grow with T (the
# shipped default is conservative) and desk hardware matters
DEFAULTS = {
    "format": "movielens-100k-tab",
    "fraction": 0.75,
    "seed": 0,
    "algo": "ir",
    "s": 200,
    "T": 10000,
    "nprime": 1,
    "N": 10,
    "alpha": 0.001,
    "e": "0:30",
    "threads": 1,
    "chunk_size": 200,
    **{f"{algo}.{f.name}": f.default for algo, cls in _BASE_PARAMS.items()
       for f in fields(cls) if f.name != "seed"},
}

# the settings whose value is one of a fixed set, in config files and flags
_CHOICES = {"format": ratings.FORMATS, "algo": tuple(_BASE_PARAMS)}


def _algo_params(cfg: dict, algo: str):
    """The base-model parameters of algo under the resolved config cfg."""
    if algo not in _BASE_PARAMS:
        raise ValueError(f"unknown base algorithm {algo!r}")
    prefix = algo + "."
    return _BASE_PARAMS[algo](**{k[len(prefix):]: v for k, v in cfg.items()
                                 if k.startswith(prefix)})


def parse_config_file(path: str) -> dict:
    """key=value lines; blank lines and # comments ignored; each value takes
    the type of its key's default and, for format and algo, one of its
    choices, as the key's flag does."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}: line {lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected key=value")
            key, _, val = (part.strip() for part in line.partition("="))
            if key not in DEFAULTS:
                raise ValueError(f"{where}: unknown key {key!r}")
            kind = type(DEFAULTS[key])
            try:
                out[key] = kind(val)
            except ValueError:
                raise ValueError(f"{where}: {key} must be {kind.__name__}, "
                                 f"got {val!r}") from None
            if key in _CHOICES and out[key] not in _CHOICES[key]:
                raise ValueError(f"{where}: {key}={val!r} is not one of "
                                 f"{_CHOICES[key]}")
    return out


def parse_e_list(text: str) -> list[int]:
    """'0:30' is an inclusive range; comma-separated entries may mix ranges."""
    out = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo, _, hi = part.partition(":")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return sorted(set(out))


def _write_manifest(path: str, command: str, params: dict, started: float,
                    votes=None) -> None:
    """The run's manifest. With the VoteCounts it read as votes, params also
    records that file's header params= and split= (None when absent)."""
    if votes is not None:
        params = {**params, "votes_params": votes.params or None,
                  "votes_split": votes.split or None}
    metrics.write_json(path, {
        "command": command,
        "params": {k: params[k] for k in sorted(params)},
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "wall_time_s": round(time.time() - started, 3),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })


def _resolve(args) -> dict:
    """DEFAULTS, then the --config file, then the command's setting flags
    that were given."""
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(parse_config_file(args.config))
    flags = {k: getattr(args, k) for k in args.settings}
    cfg.update({k: v for k, v in flags.items() if v is not None})
    return cfg


# ---------------------------------------------------------------------------
# commands

def cmd_ingest(args, cfg) -> int:
    started = time.time()
    matrix = ratings.load_ratings(args.data, cfg["format"])
    train, tests = ratings.split_train_test(matrix, cfg["fraction"], cfg["seed"])
    ratings.save_split(args.out, train, tests, cfg["seed"], cfg["fraction"])
    metrics.write_csv(args.out + ".ids.csv", [
        {"kind": kind, "internal": pos, "external": ext}
        for kind, ids in (("user", matrix.user_ids), ("item", matrix.item_ids))
        for pos, ext in enumerate(ids.tolist())])
    mean_train = train.n_ratings / train.n_users
    _write_manifest(args.out + ".manifest.json", "ingest",
                    {"data": args.data, "format": cfg["format"],
                     "fraction": cfg["fraction"], "seed": cfg["seed"],
                     "n": train.n_users, "m": train.n_items}, started)
    print(f"ingested {matrix.n_users} users x {matrix.n_items} items, "
          f"{matrix.n_ratings} ratings; train keeps {train.n_ratings} "
          f"({mean_train:.1f}/user), held out {len(tests.items)}")
    return 0


def cmd_train(args, cfg) -> int:
    """Accumulate votes chunk by chunk with a resumable partial on disk.

    The partial is an ordinary votes file whose header T counts the members
    already in it. It is replaced atomically after each chunk, so it is the
    only checkpoint: member seeds depend on (seed, t) alone, which makes a
    partial with T <= --T, the same parameter digest and the same split
    digest a valid prefix of this run. A complete partial becomes --out.
    """
    started = time.time()
    algo, T, s, nprime, seed, chunk_size, threads = (cfg[k] for k in (
        "algo", "T", "s", "nprime", "seed", "chunk_size", "threads"))
    if (min(T, chunk_size, threads) < 1
            or (args.max_chunks is not None and args.max_chunks < 1)):
        raise ValueError(f"need T, chunk size, threads and max chunks >= 1, "
                         f"got T={T}, chunk size={chunk_size}, "
                         f"threads={threads}, max chunks={args.max_chunks}")
    train, tests, _ = ratings.load_split(args.split)
    if s > train.n_users:
        raise ValueError(f"s={s} exceeds the {train.n_users} users in the split")
    partial_path = args.out + ".partial"
    params = _algo_params(cfg, algo)
    vc = ensemble.VoteCounts(
        T=0, n_prime=nprime, s=s, master_seed=seed, algo=algo,
        counts=np.zeros((train.n_users, train.n_items), dtype=np.int32),
        params=ensemble.params_digest(algo, params),
        split=ratings.split_digest(train, tests))
    if args.resume and os.path.exists(partial_path):
        part = ensemble.load_votes(partial_path)
        if ((part.algo, part.s, part.n_prime, part.master_seed, part.params,
             part.counts.shape)
                != (algo, s, nprime, seed, vc.params, vc.counts.shape)
                or part.T > T):
            raise ValueError("existing partial run used different parameters "
                             "(or predates the params= digest); remove it or "
                             "change --out")
        if part.split != vc.split:
            raise ValueError(f"{partial_path} was not built on {args.split} "
                             f"(its split= digest is "
                             f"{part.split or 'missing'}, the split's is "
                             f"{vc.split}); remove it or change --out")
        vc = replace(vc, T=part.T, counts=part.counts.astype(np.int32))
    first, clock, rate = vc.T, time.perf_counter(), None
    # a None slice (no --max-chunks) keeps every chunk
    for start in range(vc.T, T, chunk_size)[:args.max_chunks]:
        stop = min(start + chunk_size, T)
        vc.counts[:] += ensemble.accumulate_votes(
            train, algo, params, s, nprime, seed, start, stop, threads)
        vc = replace(vc, T=stop)
        ensemble.save_votes(partial_path, vc)
        rate = (vc.T - first) / max(time.perf_counter() - clock, 1e-9)
        print(f"train progress: t={vc.T}/{T} models_per_s={rate:.2f} "
              f"eta_s={(T - vc.T) / rate:.1f}", file=sys.stderr)
    if vc.T < T:
        print(f"stopped after --max-chunks at t={vc.T}/{T}; "
              f"rerun with --resume to continue")
        return 3
    # the complete partial holds exactly these votes: promote it, not rewrite
    os.replace(partial_path, args.out)
    _write_manifest(args.out + ".manifest.json", "train",
                    {"split": args.split, "algo": algo, "T": T, "s": s,
                     "nprime": nprime, "seed": seed, "threads": threads,
                     "params": str(params), "params_digest": vc.params,
                     "models_per_s": None if rate is None else round(rate, 3)},
                    started)
    print(f"built {T} base models (s={s}, N'={nprime}, algo={algo}) -> {args.out}")
    return 0


def _load_votes_and_split(args):
    """The votes and the split a command reads together, refused as a pair
    when their shapes differ or when the votes' split= digest is not the
    split's; returns (votes, train, tests). The split is hashed only for
    votes that carry split=."""
    train, tests, _ = ratings.load_split(args.split)
    vc = ensemble.load_votes(args.votes)
    if vc.counts.shape != (train.n_users, train.n_items):
        raise ValueError(f"{args.votes} holds {vc.n} x {vc.m} vote counts but "
                         f"{args.split} is a {train.n_users} x {train.n_items} "
                         f"split")
    if vc.split and vc.split != (digest := ratings.split_digest(train, tests)):
        raise ValueError(f"{args.votes} was not built on {args.split} (its "
                         f"split= digest is {vc.split}, the split's is "
                         f"{digest})")
    return vc, train, tests


def cmd_recommend(args, cfg) -> int:
    vc, train, _ = _load_votes_and_split(args)
    if args.user is not None and not 0 <= args.user < train.n_users:
        raise ValueError(f"--user must lie in [0, {train.n_users}), got {args.user}")
    if cfg["N"] < 1:  # before the header, so a refusal prints nothing
        raise ValueError(f"N must be positive, got {cfg['N']}")
    ranked = ensemble.ensemble_recommend_all(vc, train, cfg["N"])
    users = np.repeat(np.arange(train.n_users), ranked.sizes)
    ranks = np.arange(len(users)) - ranked.indptr[users] + 1
    picks = (slice(None) if args.user is None else
             slice(*ranked.indptr[args.user:args.user + 2]))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["user", "rank", "item", "votes"])
    writer.writerows(zip(*(x[picks].tolist() for x in (
        users, ranks, ranked.items, vc.counts[users, ranked.items]))))
    return 0


def _metric_rows(sweep, sizes, N):
    # floors against the certified set I_u of sizes[u] items (0: left out),
    # the held-out items for test-items, the clean top-N for clean-topn
    keep = sizes[sweep.users] > 0
    floors = metrics.certified_metrics(sweep.r[keep], N,
                                       sizes[sweep.users[keep], None])
    means = metrics.mean_over_users(np.stack(floors, axis=-1))  # e x 3
    return [{"e": e, "cert_precision": p, "cert_recall": r, "cert_f1": f,
             "n_users": int(keep.sum())}
            for e, (p, r, f) in zip(sweep.e_list, means.tolist())]


def _sweep_rows(args, cfg, rules):
    """Shared certify/baseline path: load, target sets, one sweep, metric rows.

    Returns the votes, one SweepResult per rule and its aggregate rows.
    Aggregates cover only users with held-out items and a nonempty target
    set.
    """
    vc, train, tests = _load_votes_and_split(args)
    N = cfg["N"]
    targets = (tests if args.target == "test-items" else
               ensemble.ensemble_recommend_all(vc, train, N))
    sweeps = certify.sweep(train, vc, targets, cfg["alpha"],
                           parse_e_list(cfg["e"]), N, rules)
    sizes = np.where(tests.sizes > 0, targets.sizes, 0)
    rows = [_metric_rows(sw, sizes, N) for sw in sweeps]
    return vc, sweeps, rows


def _radius_histogram(sweep) -> dict:
    """r' -> how many users are certified at size r' or more, at each e of e_list."""
    return {str(r): (sweep.r >= r).sum(axis=0).tolist()
            for r in range(1, int(sweep.r.max(initial=0)) + 1)}


def cmd_certify(args, cfg) -> int:
    started = time.time()
    rules = ("joint",) if args.baseline is None else ("joint", args.baseline)
    vc, sweeps, rows = _sweep_rows(args, cfg, rules)
    sweep = sweeps[0]
    e_list = sweep.e_list
    os.makedirs(args.out, exist_ok=True)
    # the bytes csv.writer wrote: no field needs quoting, \r\n line ends;
    # each e's rows joined from "u," heads and "r,alpha" tails
    heads = np.array([f"{u}," for u in sweep.users.tolist()], dtype=object)
    tails = np.array([f"{r},{sweep.alpha_u!r}\r\n"
                      for r in range(int(sweep.r.max(initial=0)) + 1)], dtype=object)
    ratings._replace_file(os.path.join(args.out, "per_user.csv"), b"user,e,r,alpha\r\n",
                          *("".join((heads + f"{e}," + tails[rs]).tolist()).encode()
                            for e, rs in zip(e_list, sweep.r.T)))
    agg = rows[0]
    if args.baseline is not None:
        agg = [{**row, "bag_precision": bag["cert_precision"],
                "bag_recall": bag["cert_recall"], "bag_f1": bag["cert_f1"]}
               for row, bag in zip(rows[0], rows[1])]
    metrics.write_csv(os.path.join(args.out, "aggregate.csv"), agg)
    metrics.write_json(os.path.join(args.out, "aggregate.json"), agg)
    _write_manifest(os.path.join(args.out, "manifest.json"), "certify",
                    {"votes": args.votes, "split": args.split,
                     "target": args.target, "alpha": cfg["alpha"],
                     "N": cfg["N"], "e_list": e_list,
                     "baseline": args.baseline,
                     "skipped_users": list(sweep.skipped),
                     "radius_histogram": {rule: _radius_histogram(sw)
                                          for rule, sw in zip(rules, sweeps)},
                     "verify_constraint_calls": sweep.verify_calls,
                     "exact_fallbacks": {rule: sw.exact_fallbacks
                                         for rule, sw in zip(rules, sweeps)}},
                    started, votes=vc)
    print(f"certified {len(sweep.users)} users at {len(e_list)} "
          f"attack budgets -> {args.out}")
    return 0


def cmd_evaluate(args, cfg) -> int:
    started = time.time()
    vc, train, tests = _load_votes_and_split(args)
    N = cfg["N"]
    observed = metrics.standard_metrics(
        ensemble.ensemble_recommend_all(vc, train, N), tests, N)
    summary = {"N": N, "algo": vc.algo, "T": vc.T, "s": vc.s,
               "n_users_evaluated": len(observed),
               "ensemble": metrics.mean_metrics(observed)}
    if args.with_single_model:
        model = base_rec.train_base(vc.algo, train, np.arange(train.n_users),
                                    _algo_params(cfg, vc.algo))
        single = ratings.ItemSets.from_pairs(*base_rec.recommend_all(model, N),
                                             train.n_users)
        summary["single_model"] = metrics.mean_metrics(
            metrics.standard_metrics(single, tests, N))
    os.makedirs(args.out, exist_ok=True)
    metrics.write_json(os.path.join(args.out, "evaluate.json"), summary)
    metrics.write_csv(os.path.join(args.out, "evaluate.csv"), [
        {"system": system, **summary[system]}
        for system in ("ensemble", "single_model") if system in summary])
    _write_manifest(os.path.join(args.out, "manifest.json"), "evaluate",
                    {"votes": args.votes, "split": args.split, "N": N,
                     "with_single_model": bool(args.with_single_model)},
                    started, votes=vc)
    print(json.dumps(summary["ensemble"]))
    return 0


def cmd_baseline(args, cfg) -> int:
    started = time.time()
    vc, (sweep,), (rows,) = _sweep_rows(args, cfg, ("bagging",))
    os.makedirs(args.out, exist_ok=True)
    metrics.write_csv(os.path.join(args.out, "baseline.csv"), rows)
    metrics.write_json(os.path.join(args.out, "baseline.json"), rows)
    _write_manifest(os.path.join(args.out, "manifest.json"), "baseline",
                    {"votes": args.votes, "split": args.split,
                     "target": args.target, "alpha": cfg["alpha"],
                     "N": cfg["N"], "e_list": sweep.e_list,
                     "exact_fallbacks": sweep.exact_fallbacks},
                    started, votes=vc)
    print(f"baseline certified curves for {len(sweep.e_list)} budgets -> {args.out}")
    return 0


def cmd_oracle(args, cfg) -> int:
    if args.data:
        matrix = ratings.load_ratings(args.data, cfg["format"])
    else:
        matrix = ratings.random_matrix(args.n, args.m, args.seed, args.density)
    if args.check == "soundness" and args.attack == "two-level-exhaustive":
        oracle.check_two_level(args.e, matrix.n_items)  # before the enumeration
    algo = cfg["algo"]
    params = _algo_params(cfg, algo)
    s, nprime, N = cfg["s"], cfg["nprime"], cfg["N"]
    # everything is computed before the first line, so a refusal prints nothing
    probs = oracle.exact_item_probs(matrix, algo, params, s, nprime)
    targets, cert_r = oracle.exact_certificates(matrix, probs, N, args.e)
    if args.check == "probs":
        report = None
    elif args.attack == "two-level-exhaustive":
        report = oracle.exhaustive_two_level_check(
            matrix, probs, params, N, args.e, cert_r, targets)
    else:
        report = oracle.attack_soundness_check(
            matrix, probs, params, N, args.e, args.attack, args.trials,
            args.seed + 1, cert_r, targets)
    print(f"enumerated {probs.T} subsets "
          f"(n={matrix.n_users}, m={matrix.n_items}, s={s})")
    users = np.flatnonzero(targets.sizes)
    print("certified r per user:", dict(zip(users.tolist(), cert_r[users].tolist())))
    skipped = np.flatnonzero(targets.sizes == 0).tolist()  # rated every item
    if skipped:
        print("skipped users (empty target set):", skipped)
    if report is None:
        return 0
    print(f"attack trials: {report.trials}, violations: {len(report.violations)}")
    if not report.ok:
        for trial, user, got, need in report.violations[:10]:
            print(f"  VIOLATION trial={trial} user={user} |intersection|={got} < r={need}")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="certrec",
        description="Provably robust ensemble recommenders with certified top-N metrics")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *files, settings=()):
        """The flags every command takes, the files it reads and writes, and
        one flag per DEFAULTS key in settings (--chunk-size for chunk_size),
        with the key's type and choices; a flag left out takes the key's
        value from --config, else its default."""
        sp.add_argument("--config", help="key=value config file; flags override it")
        sp.add_argument("--log-level", dest="log_level", default="WARNING",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="threshold for log messages on stderr")
        for flag in files:
            sp.add_argument(flag, required=True)
        for key in settings:
            sp.add_argument("--" + key.replace("_", "-"), dest=key,
                            type=type(DEFAULTS[key]), choices=_CHOICES.get(key),
                            help=f"config key {key}, default {DEFAULTS[key]}")
        sp.set_defaults(settings=settings)

    sp = sub.add_parser("ingest", help="parse ratings and write a train/test split")
    common(sp, "--data", "--out", settings=("format", "fraction", "seed"))
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("train", help="build T base models and persist vote counts")
    common(sp, "--split", "--out", settings=("algo", "T", "s", "nprime", "seed",
                                             "threads", "chunk_size"))
    sp.add_argument("--resume", action="store_true",
                    help="continue an interrupted run from its partial votes")
    sp.add_argument("--max-chunks", dest="max_chunks", type=int,
                    help="stop after this many chunks (bounded work per invocation)")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("recommend", help="print ensemble top-N from vote counts")
    common(sp, "--votes", "--split", settings=("N",))
    sp.add_argument("--user", type=int, help="one user; omit for all users")
    sp.set_defaults(func=cmd_recommend)

    def certification(sp):
        common(sp, "--votes", "--split", "--out", settings=("alpha", "N", "e"))
        sp.add_argument("--target", choices=("test-items", "clean-topn"),
                        default="test-items")

    sp = sub.add_parser("certify", help="certified intersection sizes and metric floors")
    certification(sp)
    sp.add_argument("--baseline", choices=("bagging",),
                    help="also compute the single-competitor baseline columns")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("evaluate", help="standard Precision/Recall/F1 at e=0")
    common(sp, "--votes", "--split", "--out", settings=("N",))
    sp.add_argument("--with-single-model", action="store_true",
                    help="also evaluate one model trained on the full matrix")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("baseline", help="single-competitor baseline certification only")
    certification(sp)
    sp.set_defaults(func=cmd_baseline)

    sp = sub.add_parser("oracle", help="exact enumeration and attack falsification "
                                       "on tiny instances")
    common(sp, settings=("format", "algo", "s", "nprime", "N"))
    sp.add_argument("--data", help="tiny rating file; omit for a synthetic matrix")
    sp.add_argument("--n", type=int, default=6)
    sp.add_argument("--m", type=int, default=6)
    sp.add_argument("--density", type=float, default=0.7)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--check", choices=("probs", "soundness"), default="soundness")
    sp.add_argument("--attack", choices=oracle.ATTACKS + ("two-level-exhaustive",),
                    default="random-ratings")
    sp.add_argument("--trials", type=int, default=20)
    sp.set_defaults(func=cmd_oracle)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a no-op when the host process has configured logging already
    logging.basicConfig(level=args.log_level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args, _resolve(args))
    except (ValueError, OSError, ratings.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
