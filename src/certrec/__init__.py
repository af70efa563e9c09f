"""Provably robust ensemble recommenders with certified top-N metrics.

The pipeline: partition ratings into train/test, train T base recommenders on
random s-user submatrices, aggregate their top-N' outputs into per-item vote
counts, bound each item's selection probability with simultaneous
Clopper-Pearson intervals, and certify the number of target items that must
remain in the ensemble top-N under any poisoning attack that adds at most e
fake users. Certified intersection sizes translate directly into certified
Precision/Recall/F1 floors.
"""

from .base_rec import BPRParams, IRParams, recommend_all, train_base
from .bounds import cp_lower, cp_upper, estimate_table, exact_table, make_context
from .certify import certify_table, sweep
from .ensemble import (VoteCounts, build_vote_counts, derive_seed,
                       ensemble_recommend_all, load_votes, save_votes)
from .metrics import certified_metrics, standard_metrics
from .ratings import (ItemSets, RatingMatrix, load_ratings, load_split,
                      save_split, split_train_test)

__version__ = "0.1.0"

__all__ = [
    "BPRParams", "IRParams", "recommend_all", "train_base",
    "cp_lower", "cp_upper", "estimate_table", "exact_table", "make_context",
    "certify_table", "sweep",
    "VoteCounts", "build_vote_counts", "derive_seed", "ensemble_recommend_all",
    "load_votes", "save_votes",
    "certified_metrics", "standard_metrics",
    "ItemSets", "RatingMatrix", "load_ratings", "load_split", "save_split",
    "split_train_test",
    "__version__",
]
