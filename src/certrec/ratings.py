"""Rating data ingestion, the sparse rating matrix, and per-user train/test splits.

A rating matrix holds n users by m items with 0 meaning "not rated"; stored
scores are always nonzero. Loaders remap arbitrary external ids to contiguous
0-based internal ids and keep the mapping for output.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix


class ParseError(ValueError):
    """Malformed input data; the message names the offending line."""


# format name -> field separator
_SEPARATORS = {
    "movielens-100k-tab": "\t",
    "movielens-dat-double-colon": "::",
    "generic-csv": ",",
}

FORMATS = tuple(_SEPARATORS)


@dataclass(frozen=True)
class RatingDomain:
    """Closed set of admissible rating scores; 0 is reserved for "unrated"."""

    lo: float
    hi: float
    integral: bool  # True: only integers in [lo, hi] are valid scores

    def accepts(self, score: float) -> bool:
        if not math.isfinite(score) or score == 0:
            return False
        if score < self.lo or score > self.hi:
            return False
        return not self.integral or float(score).is_integer()


# the two MovieLens formats declare 1..5 integer stars up front
_ML_DOMAIN = RatingDomain(lo=1.0, hi=5.0, integral=True)


@dataclass(frozen=True)
class RatingMatrix:
    """Immutable sparse user-item score matrix with id remapping tables."""

    n_users: int
    n_items: int
    csr: csr_matrix  # n_users x n_items, float64, zeros never stored
    domain: RatingDomain
    user_ids: np.ndarray  # internal row -> external user id
    item_ids: np.ndarray  # internal col -> external item id

    def rated_items(self, u: int) -> np.ndarray:
        """Internal ids of the items user u rated, ascending."""
        return self.csr.indices[self.csr.indptr[u]:self.csr.indptr[u + 1]]

    def rating_count(self, u: int) -> int:
        return int(self.csr.indptr[u + 1] - self.csr.indptr[u])

    @property
    def n_ratings(self) -> int:
        return int(self.csr.nnz)


@dataclass(frozen=True)
class ItemSets:
    """One item set per user in CSR layout: user u's set is
    items[indptr[u]:indptr[u + 1]]. Rows keep the order they were built in:
    ascending ids for held-out sets E_u, best first for top-N lists."""

    indptr: np.ndarray  # int64, one entry more than there are users
    items: np.ndarray   # int64 item ids, row after row

    @classmethod
    def from_pairs(cls, rows, items, n: int) -> ItemSets:
        """The sets of n users from parallel (row, item) arrays, rows ascending."""
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(indptr=indptr, items=np.asarray(items, dtype=np.int64))

    def __getitem__(self, u: int) -> np.ndarray:
        return self.items[self.indptr[u]:self.indptr[u + 1]]

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def size(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.indptr)

    def nonempty(self) -> tuple:
        """(users, sets): the users with a nonempty set, ascending, and
        their sets in that order (the same items, as empty rows hold none)."""
        users = np.flatnonzero(self.sizes)
        indptr = np.append(self.indptr[users], self.indptr[-1])
        return users, ItemSets(indptr=indptr, items=self.items)


def _build_matrix(users, items, scores, domain, user_ids=None, item_ids=None) -> RatingMatrix:
    """Assemble a RatingMatrix from parallel entry arrays, remapping ids.

    When user_ids/item_ids are given they fix the dimensions and the mapping
    (used by splits, which must keep the parent matrix shape).
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if user_ids is None:
        user_ids, users = np.unique(users, return_inverse=True)
    if item_ids is None:
        item_ids, items = np.unique(items, return_inverse=True)
    n, m = len(user_ids), len(item_ids)
    key = users * m + items
    # strictly ascending, as splits and their files hold them, is CSR order
    # with no duplicate; a rating file's order is sorted first
    if (key[1:] > key[:-1]).all():
        mat = csr_matrix((scores, items, np.searchsorted(users, np.arange(n + 1))),
                         shape=(n, m))
    else:
        key.sort()
        if (key[1:] == key[:-1]).any():
            raise ParseError("duplicate (user, item) rating")
        mat = csr_matrix((scores, (users, items)), shape=(n, m))
    mat.sort_indices()
    return RatingMatrix(n_users=n, n_items=m, csr=mat, domain=domain,
                        user_ids=np.asarray(user_ids), item_ids=np.asarray(item_ids))


def random_matrix(n: int, m: int, seed: int, density: float = 0.6) -> RatingMatrix:
    """Seeded n x m matrix of 1-5 stars: each user rates Binomial(m, density)
    items, at least one, drawn uniformly without replacement."""
    if not 0 <= density <= 1:  # NaN too
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    users, items, scores = [], [], []
    for u in range(n):
        count = max(1, int(rng.binomial(m, density)))
        for i in sorted(int(x) for x in rng.choice(m, size=count, replace=False)):
            users.append(u)
            items.append(i)
            scores.append(float(rng.integers(1, 6)))
    return _build_matrix(users, items, scores, _ML_DOMAIN,
                         user_ids=np.arange(n), item_ids=np.arange(m))


def load_ratings(path: str, format: str) -> RatingMatrix:
    """Parse a rating file into a RatingMatrix.

    Formats: movielens-100k-tab (user<TAB>item<TAB>rating<TAB>timestamp),
    movielens-dat-double-colon (::-separated, same fields), generic-csv
    (headerless user,item,rating). Timestamps are validated and discarded.
    """
    if format not in _SEPARATORS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    sep = _SEPARATORS[format]
    ml = format != "generic-csv"
    users, items, scores = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) < 3:
                raise ParseError(f"{path}: line {lineno}: expected at least 3 fields, got {len(parts)}")
            try:
                u = int(parts[0])
                i = int(parts[1])
                score = float(parts[2])
                if len(parts) > 3 and parts[3]:
                    int(parts[3])  # timestamp: validated, then discarded
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if ml and not _ML_DOMAIN.accepts(score):
                raise ParseError(f"{path}: line {lineno}: rating {score} outside domain [1..5]")
            if not ml and (score == 0 or not math.isfinite(score)):
                raise ParseError(f"{path}: line {lineno}: rating must be nonzero and finite")
            users.append(u)
            items.append(i)
            scores.append(score)
    if not users:
        raise ParseError(f"{path}: empty rating file")
    if ml:
        domain = _ML_DOMAIN
    else:
        domain = RatingDomain(lo=float(min(scores)), hi=float(max(scores)), integral=False)
    return _build_matrix(users, items, scores, domain)


def split_train_test(matrix: RatingMatrix, train_fraction: float, seed: int):
    """Per-user uniform random split into a train matrix and held-out ItemSets.

    Each user keeps floor(train_fraction * count) ratings for training, at
    least 1 so every user has a profile; the remainder becomes E_u. The split
    of one user is independent of all others (per-user seeding).
    """
    if not 0 < train_fraction <= 1:
        raise ValueError(f"train_fraction must be in (0, 1], got {train_fraction}")
    csr, n = matrix.csr, matrix.n_users
    train_cell = np.zeros(csr.nnz, dtype=bool)  # in CSR order
    for u in range(n):
        count = int(csr.indptr[u + 1] - csr.indptr[u])
        if count == 0:
            raise ValueError(f"user {u} has no ratings; split requires >=1 per user")
        k = max(1, int(math.floor(train_fraction * count)))  # keep a train profile
        rng = np.random.default_rng([seed, u])
        train_cell[csr.indptr[u] + rng.choice(count, size=k, replace=False)] = True
    users = np.repeat(np.arange(n), np.diff(csr.indptr))
    train = _build_matrix(
        users[train_cell], csr.indices[train_cell], csr.data[train_cell],
        matrix.domain, user_ids=matrix.user_ids, item_ids=matrix.item_ids)
    # held-out items come ascending, as each user's CSR row holds them
    return train, ItemSets.from_pairs(users[~train_cell], csr.indices[~train_cell], n)


# v2 bodies: little-endian fixed-width rows, read with np.frombuffer
_TRAIN_V2 = np.dtype([("u", "<i4"), ("i", "<i4"), ("score", "<f8")])
_TEST_V2 = np.dtype([("u", "<i4"), ("i", "<i4")])


def _refuse_wide(**fields) -> None:
    """Refuse the first field, given as name=value, that int32 cannot hold."""
    for key, value in fields.items():
        if value > np.iinfo(np.int32).max:
            raise ValueError(f"{key}={value} does not fit in int32")


def _replace_file(path: str, *parts) -> None:
    """Write the bytes-like parts in order under a temporary name, sync
    them, then rename the file over path, so a crash leaves either the
    previous file or the complete new one."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _split_body(train: RatingMatrix, tests: ItemSets):
    """A split's v2 body: the train rows as _TRAIN_V2 in CSR order, then the
    test rows as _TEST_V2, user by user."""
    csr = train.csr
    tr = np.empty(csr.nnz, _TRAIN_V2)
    tr["u"] = np.repeat(np.arange(train.n_users), np.diff(csr.indptr))
    tr["i"], tr["score"] = csr.indices, csr.data
    te = np.empty(len(tests.items), _TEST_V2)
    te["u"] = np.repeat(np.arange(len(tests)), tests.sizes)
    te["i"] = tests.items
    return tr, te


def save_split(path: str, train: RatingMatrix, tests: ItemSets, seed: int, fraction: float) -> None:
    """Persist a split as v2: the header, then _split_body."""
    _refuse_wide(n=train.n_users, m=train.n_items)
    tr, te = _split_body(train, tests)
    header = (f"#split v2 n={train.n_users} m={train.n_items} seed={seed} "
              f"fraction={float(fraction)!r} train={len(tr)} test={len(te)}\n")
    _replace_file(path, header.encode(), tr, te)


def _parse_header(line: str, magic: str) -> dict:
    if not line.startswith(magic):
        raise ParseError(f"bad header, expected {magic!r}: {line[:60]!r}")
    fields = {}
    for tok in line[len(magic):].split():
        key, _, val = tok.partition("=")
        fields[key] = val
    return fields


def _refuse_below(path: str, **fields) -> None:
    """Refuse the first header field, given as name=(value, least), below its least."""
    for key, (value, least) in fields.items():
        if value < least:
            raise ParseError(f"{path}: header field {key}={value} is below {least}")


def _read_file(path: str, kind: str):
    """(version, header fields, body bytes) of a split or votes file; only
    the header line, ended as universal newlines end it, is decoded."""
    with open(path, "rb") as fh:
        raw = fh.read()
    line, body = re.match(rb"([^\r\n]*)(?:\r\n?|\n)?(.*)", raw, re.S).groups()
    try:
        for version in (2, 1):
            magic = f"#{kind} v{version} "
            if line.startswith(magic.encode()):
                return version, _parse_header(line.decode("utf-8"), magic), body
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    raise ParseError(f"{path}: bad header, expected '#{kind} v1 ' or "
                     f"'#{kind} v2 ': {line[:60]!r}")


def _fixed_rows(path: str, body: bytes, *tables):
    """A v2 body as one array per (dtype, rows) table, in order; refuses a
    body whose length is not exactly the tables' total."""
    size = sum(dtype.itemsize * rows for dtype, rows in tables)
    if len(body) != size:
        raise ParseError(f"{path}: body holds {len(body)} bytes, but the "
                         f"header's row counts call for {size}")
    arrays, offset = [], 0
    for dtype, rows in tables:
        arrays.append(np.frombuffer(body, dtype, count=rows, offset=offset))
        offset += dtype.itemsize * rows
    return arrays


def _refuse_cells(path: str, kind: str, u: np.ndarray, i: np.ndarray,
                  n: int, m: int) -> None:
    """Refuse, naming path, a kind cell outside the n x m matrix or repeated."""
    bad = np.flatnonzero((u < 0) | (u >= n) | (i < 0) | (i >= m))
    if bad.size:
        k = bad[0]
        raise ParseError(f"{path}: {kind} cell ({u[k]}, {i[k]}) outside the "
                         f"{n} x {m} matrix")
    key = u.astype(np.int64) * m + i
    if (key[1:] > key[:-1]).all():  # the writers' row-major order: no sort
        return
    key.sort()
    dup = np.flatnonzero(key[1:] == key[:-1])
    if dup.size:
        cell = int(key[dup[0]])
        raise ParseError(f"{path}: duplicate {kind} cell ({cell // m}, {cell % m})")


def _binary_rows(path: str, body: bytes, n: int, m: int, n_train: int,
                 n_test: int):
    """The rows of a v2 split body, with the fields and shapes _line_rows
    gives, refusing what it refuses; the error names the file and the row
    or the cell."""
    _refuse_below(path, train=(n_train, 0), test=(n_test, 0))
    tr, te = _fixed_rows(path, body, (_TRAIN_V2, n_train), (_TEST_V2, n_test))
    score = tr["score"]
    bad = np.flatnonzero((score == 0) | ~np.isfinite(score))
    if bad.size:
        raise ParseError(f"{path}: train row {bad[0] + 1}: train score must "
                         f"be nonzero and finite, got {float(score[bad[0]])!r}")
    for kind, rows in (("train", tr), ("test", te)):
        _refuse_cells(path, kind, rows["u"], rows["i"], n, m)
    return tr, np.column_stack([te["u"], te["i"]]).astype(np.int64)


def _line_rows(path: str, body: bytes, n: int, m: int):
    """The rows of a v1 split body, decoded as UTF-8 with universal newlines:
    train rows as one (u, i, score) record array and test rows as a k x 2
    int64 array. Takes rows in any order, blank lines and spaces around the
    fields, and names the line of the first row it refuses."""
    try:
        lines = re.split(r"\r\n?|\n", body.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    width = {"train": 4, "test": 3}
    seen = {"train": {}, "test": {}}  # cell -> train score, in file order
    for lineno, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        kind = parts[0]
        try:
            if kind not in width:
                raise ValueError(f"unrecognized row kind {kind!r}")
            if len(parts) != width[kind]:
                raise ValueError(f"expected {width[kind]} fields for a {kind} "
                                 f"row, got {len(parts)}")
            if kind == "train":
                score = float(parts[3])
                if score == 0 or not math.isfinite(score):
                    raise ValueError(f"train score must be nonzero and "
                                     f"finite, got {parts[3]}")
            u, i = int(parts[1]), int(parts[2])
            if not (0 <= u < n and 0 <= i < m):
                raise ValueError(f"{kind} cell ({u}, {i}) outside the "
                                 f"{n} x {m} matrix")
            if (u, i) in seen[kind]:
                raise ValueError(f"repeated {kind} cell ({u}, {i})")
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        seen[kind][u, i] = score if kind == "train" else None
    return (np.array([(*c, sc) for c, sc in seen["train"].items()],
                     dtype=[("u", np.int64), ("i", np.int64), ("score", np.float64)]),
            np.array(list(seen["test"]), dtype=np.int64).reshape(-1, 2))


def split_digest(train: RatingMatrix, tests: ItemSets) -> str:
    """blake2b-64 hex digest of the v2 body save_split writes for a split,
    which votes record as split=. It names the split, not a file layout:
    the split's v1 text, or its rows in another order, give the same
    digest, and for a file save_split wrote it is that of the file's body."""
    digest = hashlib.blake2b(digest_size=8)
    for part in _split_body(train, tests):
        digest.update(part)
    return digest.hexdigest()


def load_split(path: str):
    """Load a persisted split; returns (train, tests, header dict).

    A v2 body is read with np.frombuffer, a v1 text body line by line by
    _line_rows. Both give the same split; the header dict holds n, m, seed
    and fraction, whichever the version.
    """
    version, header, body = _read_file(path, "split")
    try:
        n = header["n"] = int(header["n"])
        m = header["m"] = int(header["m"])
        header["seed"] = int(header["seed"])
        header["fraction"] = float(header["fraction"])
        sizes = [int(header.pop(k)) for k in ("train", "test")] if version == 2 else []
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}: malformed split header: {exc}") from None
    _refuse_below(path, n=(n, 0), m=(m, 0))
    tr, te = (_binary_rows(path, body, n, m, *sizes) if version == 2
              else _line_rows(path, body, n, m))
    scores = tr["score"]
    if scores.size:
        domain = RatingDomain(lo=float(scores.min()), hi=float(scores.max()),
                              integral=bool((scores == np.trunc(scores)).all()))
    else:
        domain = RatingDomain(lo=1.0, hi=5.0, integral=True)
    train = _build_matrix(tr["u"], tr["i"], scores, domain,
                          user_ids=np.arange(n), item_ids=np.arange(m))
    # every cell as the key u * m + i; both key arrays come out ascending
    held = np.sort(te[:, 0] * m + te[:, 1])
    tests = ItemSets(indptr=np.searchsorted(held, np.arange(n + 1) * m),
                     items=held % m)
    rated = np.repeat(np.arange(n), np.diff(train.csr.indptr)) * m + train.csr.indices
    both = np.intersect1d(held, rated, assume_unique=True)
    if both.size:
        u, i = divmod(int(both[0]), m)
        raise ParseError(f"{path}: test cell ({u}, {i}) is also a train rating")
    return train, tests, header
