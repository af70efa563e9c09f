"""Shared fixtures: acceptance reporting, dataset discovery, synthetic instances."""

import builtins
import importlib.util
import itertools
import math
import os
import struct
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from scipy.sparse import csr_matrix

from certrec import base_rec, bounds, ensemble, oracle, ratings

# one line per acceptance criterion, printed after the run so a reviewer can
# check the gate without scrolling through the full test log
_ACCEPTANCE: dict = {}

ML100K_HINT = ("MovieLens-100k not found: set CERTREC_ML100K to the u.data path "
               "or place it at data/ml-100k/u.data under the repo root")


@pytest.fixture
def acceptance():
    def record(num: int, status: str, detail: str = ""):
        _ACCEPTANCE[num] = (status, detail)
    return record


def item_sets(rows) -> ratings.ItemSets:
    """ItemSets of one iterable of item ids per user, each in the order given."""
    rows = [np.asarray(list(r), dtype=np.int64) for r in rows]
    return ratings.ItemSets.from_pairs(
        np.repeat(np.arange(len(rows)), [len(r) for r in rows]),
        np.concatenate([np.zeros(0, np.int64), *rows]), len(rows))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        status, detail = _ACCEPTANCE[num]
        line = f"ACCEPTANCE {num}: {status}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session")
def ml100k_path():
    """Path to MovieLens-100k u.data, or None when the dataset is absent."""
    env = os.environ.get("CERTREC_ML100K")
    if env and os.path.exists(env):
        return env
    local = os.path.join(_repo_root(), "data", "ml-100k", "u.data")
    if os.path.exists(local):
        return local
    return None


# perfbench/gen.py, the benchmark's input generators, loaded by path: a
# sys.path entry would expose perfbench's generic module names (gen, checks,
# workloads) to every import
_spec = importlib.util.spec_from_file_location(
    "perfbench_gen", os.path.join(_repo_root(), "perfbench", "gen.py"))
bench_gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gen)


def signed_float_matrix(tmp_path, n: int = 12, m: int = 9,
                        seed: int = 0) -> ratings.RatingMatrix:
    """generic-csv instance with signed float ratings. Items 0 and 1 are
    co-rated only by users 0 and 1, whose products cancel: their Gram sum
    is exactly 0, so they are not neighbours."""
    rng = np.random.default_rng(seed)
    values = (-2.5, -1.3, -0.7, 0.7, 1.3, 2.5)
    rows = ["0,0,1.3", "0,1,0.7", "1,0,1.3", "1,1,-0.7"]
    for u in range(n):
        for i in range(2 if u < 2 else 0, m):
            if i < 2 and i != u % 2:
                continue  # users >= 2 rate at most one of items 0 and 1
            if rng.random() < 0.6 or i == u % m:
                rows.append(f"{u},{i},{values[rng.integers(len(values))]}")
    path = tmp_path / f"float{seed}.csv"
    path.write_text("\n".join(rows) + "\n")
    return ratings.load_ratings(str(path), "generic-csv")


# --- reference IR kernel: the per-item top-k loop and per-user ranking that
# base_rec.train_ir / recommend_all replaced, kept as the golden reference


def reference_ir(matrix: ratings.RatingMatrix, users, k: int):
    """(sorted users, submatrix, seen items, top-k cosine table), one item
    row at a time: self excluded, k largest kept, ties by ascending id."""
    users = np.asarray(sorted(int(u) for u in users), dtype=np.int64)
    sub = matrix.csr[users].tocsr()
    m = matrix.n_items
    norms = np.sqrt(np.asarray(sub.power(2).sum(axis=0)).ravel())
    inv = np.divide(1.0, norms, out=np.zeros(m), where=norms > 0)
    gram = (sub.T @ sub).tocsr()
    sim = gram.multiply(inv[:, None]).multiply(inv[None, :]).tocsr()
    indptr = [0]
    idx_parts, val_parts = [], []
    for i in range(m):
        lo, hi = sim.indptr[i], sim.indptr[i + 1]
        cols = sim.indices[lo:hi]
        vals = sim.data[lo:hi]
        not_self = cols != i
        cols = cols[not_self]
        vals = vals[not_self]
        if len(cols) > k:
            keep = np.lexsort((cols, -vals))[:k]
            keep.sort()
            cols = cols[keep]
            vals = vals[keep]
        idx_parts.append(cols)
        val_parts.append(vals)
        indptr.append(indptr[-1] + len(cols))
    table = csr_matrix((np.concatenate(val_parts), np.concatenate(idx_parts),
                        np.asarray(indptr)), shape=(m, m))
    return users, sub, np.flatnonzero(sub.getnnz(axis=0)), table


def reference_model_votes(counts, users, sub, seen, scores, n_prime: int):
    """Add one model's votes user by user: scores[r] scores submatrix row r
    over all items; the top n_prime unrated seen items by descending score,
    ascending id on ties, each get one vote."""
    for r, u in enumerate(users):
        rated = sub.indices[sub.indptr[r]:sub.indptr[r + 1]]
        candidates = np.setdiff1d(seen, rated, assume_unique=True)
        order = np.lexsort((candidates, -scores[r][candidates]))
        counts[u, candidates[order[:n_prime]]] += 1


def reference_votes(train, algo: str, params, s: int, n_prime: int,
                    master_seed: int, t_start: int, t_stop: int) -> np.ndarray:
    """Vote counts of members t_start..t_stop-1 by the reference path: the
    per-item ir loop (bpr models come from train_bpr), scored user by user."""
    counts = np.zeros((train.n_users, train.n_items), dtype=np.int32)
    for t in range(t_start, t_stop):
        members = ensemble.sample_submatrix(
            train.n_users, s, ensemble.derive_seed(master_seed, t))
        if algo == "ir":
            users, sub, seen, table = reference_ir(train, members, params.k)
            scores = [table @ row for row in sub.toarray()]
        else:
            model = base_rec.train_bpr(
                train, np.asarray(members),
                ensemble._member_params(algo, params, master_seed, t))
            users, sub, seen = model.users, model.sub, model.seen_items
            scores = [model.item_factors @ p for p in model.user_factors]
        reference_model_votes(counts, users, sub, seen, scores, n_prime)
    return counts


def reference_exhaustive_votes(matrix, algo: str, params, s: int,
                               n_prime: int) -> np.ndarray:
    """Vote counts of the exhaustive ensemble: train_base + recommend_all on
    every s-subset of the users, one model at a time."""
    counts = np.zeros((matrix.n_users, matrix.n_items), dtype=np.int32)
    for subset in itertools.combinations(range(matrix.n_users), s):
        model = base_rec.train_base(algo, matrix, np.asarray(subset), params)
        counts[base_rec.recommend_all(model, n_prime)] += 1
    return counts


def reference_two_level_rows(matrix) -> list:
    """The fake row of every two-level trial p, bit by bit: item i gets the
    top score when bit i of p is set."""
    m = matrix.n_items
    return [np.array([[matrix.domain.hi if p >> i & 1 else 0.0
                       for i in range(m)]]) for p in range(2 ** m)]


def reference_random_rows(matrix, e: int, attack: str, trials: int,
                          seed: int) -> list:
    """The fake rows of every randomized trial, drawn from one seeded rng in
    trial order; at e = 0, one trial without fake rows."""
    if e == 0:
        return [np.zeros((0, matrix.n_items))]
    rng = np.random.default_rng(seed)
    return [oracle.make_fake_rows(matrix, e, attack, rng) for _ in range(trials)]


def reference_attack_report(matrix, clean, params, N: int, poisonings,
                            cert_r, targets):
    """(trials, violations, min_intersection) of an attack check, one
    poisoning at a time: its fake rows appended by append_fake_users, the
    counts of all C(n + e, s) subsets re-enumerated model by model, the
    genuine users ranked by ensemble_recommend_all and each top-N
    intersected with I_u as sets. cert_r and targets: one r and one I_u
    (ItemSets) per user; min_intersection is a list, one entry per user."""
    violations, min_inter = [], [N] * matrix.n_users
    for trial, rows in enumerate(poisonings):
        poisoned = oracle.append_fake_users(matrix, rows)
        counts = reference_exhaustive_votes(poisoned, clean.algo, params,
                                            clean.s, clean.n_prime)
        probs = ensemble.VoteCounts(T=math.comb(poisoned.n_users, clean.s),
                                    n_prime=clean.n_prime, s=clean.s,
                                    counts=counts, master_seed=0,
                                    algo=clean.algo)
        topn = ensemble.ensemble_recommend_all(probs, matrix, N)
        for u, r_u in enumerate(cert_r.tolist()):
            inter = len(set(targets[u].tolist()) & set(topn[u].tolist()))
            min_inter[u] = min(min_inter[u], inter)
            if inter < r_u:
                violations.append((trial, u, inter, r_u))
    return len(poisonings), tuple(violations), min_inter


# --- reference split and votes I/O, quantile, top-n rule and table sums:
# the line-by-line loader and the row-by-row writers (v1 text and v2), the
# scalar bisection, the stable sort, the partition of each user's outside
# counts and the Python addition loop that ratings.load_split / save_split,
# ensemble.save_votes, bounds.beta_quantile, base_rec._ranked and
# bounds._table replaced; and the builtin sum of Python 3.12 and later


def reference_load_split(path: str):
    """(train, tests, header) of a split file, read line by line. It also
    refuses, with the line, a train cell outside the matrix and a repeated
    train cell."""
    with open(path, "r", encoding="utf-8") as fh:
        header = ratings._parse_header(fh.readline().rstrip("\n"), "#split v1 ")
        try:
            n = header["n"] = int(header["n"])
            m = header["m"] = int(header["m"])
            header["seed"] = int(header["seed"])
            header["fraction"] = float(header["fraction"])
        except (KeyError, ValueError) as exc:
            raise ratings.ParseError(f"{path}: malformed split header: {exc}") from None
        users, items, scores = [], [], []
        train_cells = set()
        test_cells = [set() for _ in range(n)]
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                if parts[0] == "train" and len(parts) == 4:
                    score = float(parts[3])
                    if score == 0 or not math.isfinite(score):
                        raise ValueError(f"train score must be nonzero and "
                                         f"finite, got {parts[3]}")
                    u, i = int(parts[1]), int(parts[2])
                    if not (0 <= u < n and 0 <= i < m):
                        raise ValueError(f"train cell ({u}, {i}) outside the "
                                         f"{n} x {m} matrix")
                    if (u, i) in train_cells:
                        raise ValueError(f"repeated train cell ({u}, {i})")
                    train_cells.add((u, i))
                    users.append(u); items.append(i); scores.append(score)
                elif parts[0] == "test" and len(parts) == 3:
                    u, i = int(parts[1]), int(parts[2])
                    if not (0 <= u < n and 0 <= i < m):
                        raise ValueError(f"test cell ({u}, {i}) outside the "
                                         f"{n} x {m} matrix")
                    if i in test_cells[u]:
                        raise ValueError(f"repeated test cell ({u}, {i})")
                    test_cells[u].add(i)
                elif parts[0] in ("train", "test"):
                    width = 4 if parts[0] == "train" else 3
                    raise ValueError(f"expected {width} fields for a "
                                     f"{parts[0]} row, got {len(parts)}")
                else:
                    raise ValueError(f"unrecognized row kind {parts[0]!r}")
            except (ValueError, IndexError) as exc:
                raise ratings.ParseError(f"{path}: line {lineno}: {exc}") from None
    lo = min(scores) if scores else 1.0
    hi = max(scores) if scores else 5.0
    integral = all(float(s).is_integer() for s in scores)
    domain = ratings.RatingDomain(lo=float(lo), hi=float(hi), integral=integral)
    train = ratings._build_matrix(users, items, scores, domain,
                                  user_ids=np.arange(n), item_ids=np.arange(m))
    tests = item_sets(sorted(t) for t in test_cells)
    for u in range(n):
        held = tests[u]
        both = sorted(set(held.tolist()) & set(train.rated_items(u).tolist()))
        if both:
            raise ratings.ParseError(f"{path}: test cell ({u}, {both[0]}) is "
                                     f"also a train rating")
    return train, tests, header


def reference_split_file(path: str, n: int, m: int, train_rows, test_rows,
                         version: int, seed: int = 0, fraction: float = 0.75) -> None:
    """A split file of (u, i, score) train rows and (u, i) test rows, in the
    order given, written one row at a time: v1 text, or v2 rows packed with
    struct."""
    head = f"n={n} m={m} seed={seed} fraction={float(fraction)!r}"
    if version == 1:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#split v1 {head}\n")
            for u, i, sc in train_rows:
                fh.write(f"train,{u},{i},{float(sc)!r}\n")
            for u, i in test_rows:
                fh.write(f"test,{u},{i}\n")
        return
    with open(path, "wb") as fh:
        fh.write(f"#split v2 {head} train={len(train_rows)} "
                 f"test={len(test_rows)}\n".encode())
        for row in train_rows:
            fh.write(struct.pack("<iid", *row))
        for row in test_rows:
            fh.write(struct.pack("<ii", *row))


def reference_save_split(path: str, train, tests, seed: int, fraction: float,
                         version: int = 1) -> None:
    """save_split's layout, row by row: train rows in CSR order, then test
    rows user by user; version 1 is the text the v1 writer wrote."""
    reference_split_file(
        path, train.n_users, train.n_items,
        [(u, int(i), float(sc)) for u in range(train.n_users)
         for i, sc in zip(train.rated_items(u), train.csr[u].data)],
        [(u, int(i)) for u in range(len(tests)) for i in tests[u]],
        version, seed, fraction)


def reference_votes_file(path: str, head: str, rows) -> None:
    """A v2 votes file of (u, i, count) rows after the header fields head,
    the rows packed one at a time with struct."""
    with open(path, "wb") as fh:
        fh.write(f"#votes v2 {head} rows={len(rows)}\n".encode())
        for row in rows:
            fh.write(struct.pack("<iii", *row))


def reference_save_votes(path: str, vc) -> None:
    """save_votes' layout, row by row: one row per nonzero cell, row-major."""
    head = (f"n={vc.n} m={vc.m} T={vc.T} s={vc.s} nprime={vc.n_prime} "
            f"algo={vc.algo} seed={vc.master_seed}"
            + "".join(f" {key}={value}" for key, value in
                      (("params", vc.params), ("split", vc.split)) if value))
    users, items = np.nonzero(vc.counts)
    reference_votes_file(path, head, [
        (u, i, int(vc.counts[u, i])) for u, i in zip(users.tolist(), items.tolist())])


def reference_beta_quantile(beta: float, a: float, b: float, upper: bool = False) -> float:
    """One scalar one-ULP bisection of betainc (betaincc when upper)."""
    tail = scipy.special.betaincc if upper else scipy.special.betainc
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        mass = tail(a, b, mid)
        if (mass > beta) if upper else (mass < beta):
            lo = mid
        else:
            hi = mid
    return hi if upper else lo


def reference_ranked(scores: np.ndarray, candidates: np.ndarray, n: int):
    """(rows, cols) of each row's n best candidates by a stable argsort:
    descending score, ascending column id on ties."""
    masked = np.where(candidates, scores, -np.inf)
    top = np.argsort(-masked, axis=1, kind="stable")[:, :n]
    width = np.minimum(candidates.sum(axis=1), n)
    picked = np.arange(top.shape[1]) < width[:, None]
    return np.nonzero(picked)[0], top[picked]



def reference_top_counts(counts: np.ndarray, users, items_in, width: int):
    """Each user's `width` largest counts outside I_u, descending, by a
    partition and a sort of the outside counts; -1 past a user's last
    outside item."""
    out = np.full((len(users), width), -1, dtype=np.int64)
    for k, (u, inside) in enumerate(zip(users, items_in)):
        outside = np.delete(counts[u], list(inside))
        keep = min(width, len(outside))
        if keep:
            cut = len(outside) - keep
            out[k, :keep] = np.sort(np.partition(outside, cut)[cut:])[::-1]
    return out


def reference_left_to_right_sum(values):
    """x_1 + x_2 + ... + x_k added one at a time in the order given, as the
    builtin sum added floats before Python 3.12."""
    acc = 0
    for x in values:
        acc += x
    return acc


def neumaier_sum(iterable, /, start=0):
    """The builtin sum as Python 3.12 computes it: a sum of ints and floats
    with at least one float is compensated (Neumaier 1974); any other sum,
    of Fractions say, adds left to right."""
    items = list(iterable)
    kinds = {type(x) for x in [start, *items]}
    if float not in kinds or not kinds <= {int, float}:
        return builtins.sum(items, start)
    total, comp = float(start), 0.0
    for x in map(float, items):
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total

# --- reference certification: per-item bounds from cp_lower / cp_upper, and
# the constraint and both certified sizes read off their definitions in
# rational arithmetic, sharing no code with certify._holds; one_row_table
# lays arbitrary bounds out as the BoundTable row that certify reads


def reference_bounds(vc, u: int, items_in, alpha_u: float):
    """(lower bounds on I_u, upper bounds outside it) of user u, each in
    ascending item order, cp_lower / cp_upper of each item's count at the
    Bonferroni budget alpha_u / m (through _cp_by_count, as those two are,
    one call per side)."""
    budget = alpha_u / vc.m
    inside = sorted({int(i) for i in items_in})
    outside = [j for j in range(vc.m) if j not in inside]
    row = vc.counts[u]
    return (bounds._cp_by_count(row[inside], vc.T, budget, False).tolist(),
            bounds._cp_by_count(row[outside], vc.T, budget, True).tolist())


def reference_holds(r_prime: int, lower, upper, ctx, N: int, n_prime: int) -> bool:
    """The joint constraint at r_prime, read off its definition."""
    lower = sorted((Fraction(x) for x in lower), reverse=True)
    comp = sorted((Fraction(x) for x in upper), reverse=True)[:N - r_prime + 1][::-1]
    if not comp:
        return True
    cap = max(n_prime - sum(lower), 0)
    rhs = min([bounds.round_upper_star(comp[0], ctx) + ctx.sigma] + [
        n_prime * (bounds.round_upper_star(Fraction(min(sum(comp[:c]), cap),
                                                    n_prime), ctx)
                   + ctx.sigma) / c
        for c in range(1, len(comp) + 1)])
    return bounds.round_lower_star(lower[r_prime - 1], ctx) > rhs


def reference_r(lower, upper, ctx, N: int, n_prime: int) -> int:
    """The largest r' in [1, min(|I_u|, N)] whose constraint holds, or 0,
    by a linear scan over every r'."""
    return max((rp for rp in range(1, min(len(lower), N) + 1)
                if reference_holds(rp, lower, upper, ctx, N, n_prime)), default=0)


def reference_bagging_r(lower, upper, ctx, N: int) -> int:
    """Baseline r at one e: the I_u items whose lower bound still beats the
    strongest outside upper bound plus sigma(e), at most N."""
    if not len(upper):
        return min(len(lower), N)
    pbar = bounds.round_upper_star(max(upper), ctx)
    wins = sum(1 for low in lower
               if bounds.round_lower_star(low, ctx) > pbar + ctx.sigma)
    return min(wins, N)


def one_row_table(lower, upper, width: int):
    """A one-row bounds.BoundTable of arbitrary bounds, lower on I_u and
    upper outside it, each in item order: floats, or Fractions for an
    exact row."""
    lower, upper = list(lower), list(upper)
    dtype = object if any(isinstance(x, Fraction) for x in lower + upper) else float
    top = sorted(upper, reverse=True)[:width]
    return bounds.BoundTable(
        users=np.zeros(1, dtype=np.int64),
        lower=np.array(sorted(lower, reverse=True), dtype=dtype),
        starts=np.zeros(1, dtype=np.int64),
        sum_lower=np.array([reference_left_to_right_sum(lower)], dtype=dtype),
        top=np.array([top + [0] * (width - len(top))], dtype=dtype),
        n_in=np.array([len(lower)]), n_out=np.array([len(upper)]))


def prob_row(vc, u: int) -> list:
    """Exact per-item probabilities for user u from exhaustive vote counts."""
    return [Fraction(int(c), vc.T) for c in vc.counts[u]]


def structured_instance(groups: int = 3, per_group: int = 20, block: int = 8,
                        fillers: int = 16):
    """Block-structured matrix with crisp held-out targets.

    Users in group g rate 6 of the 8 items in block g at the top score and
    hold out the other 2; within-block item similarity is strong and
    cross-block similarity is zero, so ensemble votes concentrate on exactly
    the held-out items. Filler items are never rated by anyone.
    """
    n = groups * per_group
    m = groups * block + fillers
    users, items, scores = [], [], []
    tests = []
    for u in range(n):
        g, local = divmod(u, per_group)
        held = {local % block, (local + 3) % block}
        tests.append(np.array(sorted(g * block + k for k in held), dtype=np.int64))
        for k in range(block):
            if k not in held:
                users.append(u)
                items.append(g * block + k)
                scores.append(5.0)
    dom = ratings.RatingDomain(lo=1.0, hi=5.0, integral=True)
    matrix = ratings._build_matrix(users, items, scores, dom,
                                   user_ids=np.arange(n),
                                   item_ids=np.arange(m))
    return matrix, item_sets(tests)


@pytest.fixture(scope="session")
def structured():
    return structured_instance()
