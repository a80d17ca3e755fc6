"""Correctness gates. They run outside every timed region; a failed check
counts as a failed op and never aborts the run."""
from __future__ import annotations

import numpy as np


_BLOCK_ROWS = 4096


def naive_knn(vectors: np.ndarray, record_ids: list[str], query: np.ndarray,
              k: int) -> list[tuple[str, float]]:
    """Top-k by the canonical distance ``np.sum((x64 - q64) ** 2)`` over every
    row, ties by record id. The row-wise reduction runs the same per-row sum
    as the one-row expression; rows go in blocks to keep the scan small."""
    q64 = np.asarray(query, dtype=np.float32).astype(np.float64)
    dists: list[float] = []
    for start in range(0, len(vectors), _BLOCK_ROWS):
        x64 = np.asarray(vectors[start:start + _BLOCK_ROWS],
                         dtype=np.float32).astype(np.float64)
        dists.extend(np.sum((x64 - q64) ** 2, axis=1).tolist())
    ranked = sorted(zip(dists, record_ids))
    return [(rid, dist) for dist, rid in ranked[:k]]


def knn_matches_naive(index, query: np.ndarray, k: int,
                      result: list[tuple[str, float]]) -> bool:
    """Bit-exact agreement in ids, order and distances."""
    return result == naive_knn(index.vectors, index.record_ids, query, k)


def repeat_mismatches(keys: list[str], answers: list) -> list[int]:
    """Positions whose answer differs from the answer at the first position
    with the same key (a repeated question must repeat its answer)."""
    first: dict[str, object] = {}
    bad = []
    for pos, (key, answer) in enumerate(zip(keys, answers)):
        if key not in first:
            first[key] = answer
        elif answer != first[key]:
            bad.append(pos)
    return bad


def routing_identity_holds(score, tol: float = 1e-12) -> bool:
    """acc_overall == acc_agent * acc_table_given_agent, within tol."""
    return abs(score.acc_overall - score.acc_agent * score.acc_table_given_agent) <= tol
