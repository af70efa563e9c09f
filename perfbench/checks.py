"""Output checks; every check counts as one attempt toward `failed_frac`."""

from __future__ import annotations

import csv
import hashlib

import numpy as np


class Checks:
    """Tally of attempted checks and the descriptions of the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def votes_digest(counts: np.ndarray, T: int) -> str:
    """sha256 over T, the shape and the int32 counts in row-major order."""
    arr = np.ascontiguousarray(counts, dtype=np.int32)
    h = hashlib.sha256(f"T={T} shape={arr.shape[0]}x{arr.shape[1]}\n".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def bad_vote_cells(counts: np.ndarray, T: int, rated: np.ndarray) -> int:
    """Cells outside [0, T], or voting for an item the user rated in train."""
    return int(((counts < 0) | (counts > T) | (rated & (counts != 0))).sum())


def read_per_user(path: str) -> dict:
    """per_user.csv -> {e: {user: r}}."""
    out: dict[int, dict[int, int]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(int(row["e"]), {})[int(row["user"])] = int(row["r"])
    return out


def r_out_of_range(per_user: dict, limit: dict) -> list:
    """(e, user, r) with r outside [0, limit[user]], limit = min(|I_u|, N)."""
    return [(e, u, r) for e, rows in per_user.items() for u, r in rows.items()
            if not 0 <= r <= limit[u]]


def r_rising_in_e(per_user: dict) -> list:
    """(user, e) where r at e exceeds r at the next smaller budget."""
    es = sorted(per_user)
    bad = []
    for prev, cur in zip(es, es[1:]):
        for u, r in per_user[cur].items():
            if r > per_user[prev].get(u, r):
                bad.append((u, cur))
    return bad


def bagging_above_joint(aggregate: list[dict]) -> list[int]:
    """Budgets e whose aggregate baseline F1 floor beats the joint one."""
    return [row["e"] for row in aggregate if row["bag_f1"] > row["cert_f1"]]


def r_positive_share(per_user: dict, e=None) -> float:
    """Share of (user, e) pairs with r > 0, over all e or one budget."""
    rows = [r for key, users in per_user.items() if e is None or key == e
            for r in users.values()]
    return sum(1 for r in rows if r > 0) / len(rows) if rows else 0.0


def check_certificates(checks: Checks, per_user: dict, aggregate: list[dict],
                       limit: dict, label: str) -> None:
    """The certificate invariants every certify run must satisfy."""
    bad = r_out_of_range(per_user, limit)
    checks.check(not bad, f"{label}: r outside [0, min(|I_u|, N)]: {bad[:3]}")
    bad = r_rising_in_e(per_user)
    checks.check(not bad, f"{label}: r rises with e (user, e): {bad[:3]}")
    bad = bagging_above_joint(aggregate)
    checks.check(not bad, f"{label}: bag_f1 > cert_f1 at e={bad[:5]}")
