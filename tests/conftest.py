"""Shared fixtures: acceptance reporting, dataset discovery, synthetic instances."""

import os
from fractions import Fraction

import numpy as np
import pytest

from certrec import ratings

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


def random_tiny_matrix(n: int, m: int, seed: int,
                       density: float = 0.6) -> ratings.RatingMatrix:
    """Random integer-rated matrix; every user rates at least one item."""
    rng = np.random.default_rng(seed)
    users, items, scores = [], [], []
    for u in range(n):
        count = max(1, int(rng.binomial(m, density)))
        for i in sorted(int(x) for x in rng.choice(m, size=count, replace=False)):
            users.append(u)
            items.append(i)
            scores.append(float(rng.integers(1, 6)))
    dom = ratings.RatingDomain(lo=1.0, hi=5.0, integral=True)
    return ratings._build_matrix(users, items, scores, dom,
                                 user_ids=np.arange(n), item_ids=np.arange(m))


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
    return matrix, ratings.TestSets(sets=tuple(tests))


@pytest.fixture(scope="session")
def structured():
    return structured_instance()
