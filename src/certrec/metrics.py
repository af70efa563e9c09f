"""Standard and certified Precision/Recall/F1 at N.

Certified metrics are worst-case floors implied by a certified intersection
size r against a target set, the held-out set E_u or the clean top-N:
precision >= r/N, recall >= r/|E_u|, F1 >= 2r/(|E_u|+N), with |E_u| read as
the size of whichever set r was certified against. The F1 floor is computed
directly from that formula (it equals the harmonic mean of the unrounded
precision and recall floors).
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .ratings import _replace_file


def certified_metrics(r, N: int, test_size):
    """Per-user certified (precision, recall, f1) floors from r.

    r and test_size are integers, or integer arrays with one entry per user
    broadcast together; each floor is then an array of the same doubles.
    """
    if np.min(test_size, initial=1) <= 0:
        raise ValueError("test_size must be positive; exclude the user instead")
    bad = (r < 0) | (r > np.minimum(N, test_size))
    if bad.any():
        raise ValueError(f"need 0 <= r <= min(N, |E_u|), got "
                         f"r={np.broadcast_to(r, bad.shape)[bad][0]}")
    return r / N, r / test_size, 2.0 * r / (test_size + N)


def standard_metrics(recommended, tests, N: int):
    """Observed (precision, recall, f1) of every user with a held-out item,
    as one row per user, users ascending.

    recommended and tests are ItemSets over the same users: the lists, and
    the held-out sets E_u; users with an empty E_u are left out. A list may
    come up short of N (a user with fewer than N unrated items); precision
    still divides by N.
    """
    if len(recommended) != len(tests) or recommended.sizes.max(initial=0) > N:
        raise ValueError(f"expected one list of at most N={N} recommendations "
                         f"per test set")
    # one key per (user, item) cell, user-major, and a sentinel past them all
    width = 1 + max(recommended.items.max(initial=-1), tests.items.max(initial=-1))
    rec, held = (np.repeat(np.arange(len(x)), x.sizes) * width + x.items
                 for x in (recommended, tests))
    held = np.append(np.sort(held), len(tests) * width)
    hit = np.bincount(rec[held[np.searchsorted(held, rec)] == rec] // width,
                      minlength=len(tests))
    size = tests.sizes
    hit, size = hit[size > 0], size[size > 0]
    return np.stack((hit / N, hit / size, 2.0 * hit / (size + N)), axis=-1)


def mean_over_users(values) -> np.ndarray:
    """Mean along axis 0 (users), added strictly left to right in user order:
    np.sum adds pairwise and the builtin sum compensates from Python 3.12 on,
    so either would tie a mean's bytes to the array layout or the version."""
    values = np.asarray(values, dtype=np.float64)
    if not len(values):
        raise ValueError("no eligible users to average over")
    return np.cumsum(values, axis=0)[-1] / len(values)


def mean_metrics(triples) -> dict:
    """mean_over_users of per-user (precision, recall, f1) triples, by name."""
    return dict(zip(("precision", "recall", "f1"), mean_over_users(triples).tolist()))


def write_csv(path: str, rows) -> None:
    """A nonempty table of dict rows: the first row's keys, in order, are the
    header and the columns of every row, as csv.writer writes them (CRLF
    line ends), through _replace_file."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(rows[0])
    writer.writerows([row[key] for key in rows[0]] for row in rows)
    _replace_file(path, text.getvalue().encode())


def write_json(path: str, payload) -> None:
    """payload, such as a table's dict rows, as indented, key-sorted JSON and
    a newline, through _replace_file."""
    _replace_file(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())
