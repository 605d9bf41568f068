"""K-means contextualization: mint implicit context ids from session embeddings.

k-means++ seeding with a fixed generator, Lloyd iterations to an assignment
fixed point, empty clusters repaired by seizing the point farthest from its
own center. Distance ties always resolve to the lowest context id. Sessions
outside the fit are labeled from the embeddings the embed stage stored, never
re-embedded here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import SplitCorpus

UNLABELED = -1


@dataclass
class ContextModel:
    centers: np.ndarray                 # (num_contexts, dim)
    session_ids: np.ndarray             # training sessions, aligned with labels
    labels: np.ndarray                  # context id per training session
    inertia_history: list[float] = field(default_factory=list)


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(N, K) squared Euclidean distances."""
    p2 = (points * points).sum(axis=1)[:, None]
    c2 = (centers * centers).sum(axis=1)[None, :]
    return np.maximum(p2 + c2 - 2.0 * points @ centers.T, 0.0)


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:  # all remaining points coincide with a chosen center
            centers[j] = points[rng.integers(n)]
            continue
        centers[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans_fit(embeddings: np.ndarray, num_contexts: int = 40,
               max_iters: int = 100, seed: int = 0,
               session_ids: np.ndarray | None = None,
               n_init: int = 4) -> ContextModel:
    """Cluster embeddings into ``num_contexts`` contexts.

    Runs ``n_init`` seeded k-means++ restarts and keeps the lowest-inertia
    solution (first on ties), which guards against a single unlucky seeding.
    The stored assignment is always a fixed point of nearest-center
    assignment, the rule ``label_all`` applies outside the fit: after the
    last center update one final assignment pass runs, so every stored label
    is the nearest center (ties to the lowest id). ``inertia_history[t]`` is
    the within-cluster sum of squares after iteration t's center update and is
    non-increasing.
    """
    points = np.asarray(embeddings, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"expected (n, dim) embeddings, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("embeddings contain non-finite values")
    n = len(points)
    if n < num_contexts:
        raise ValueError(f"cannot fit {num_contexts} contexts to {n} points")
    rng = np.random.default_rng(seed)
    best: tuple[np.ndarray, np.ndarray, list[float]] | None = None
    for _ in range(max(1, n_init)):
        centers, labels, history = _lloyd(points, num_contexts, max_iters, rng)
        if best is None or history[-1] < best[2][-1]:
            best = (centers, labels, history)
    centers, labels, history = best

    if session_ids is None:
        session_ids = np.arange(n)
    order = np.argsort(session_ids)
    return ContextModel(centers=centers,
                        session_ids=np.asarray(session_ids)[order],
                        labels=labels[order].astype(np.intp),
                        inertia_history=history)


def _lloyd(points: np.ndarray, num_contexts: int, max_iters: int,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, list[float]]:
    n = len(points)
    centers = _plus_plus_init(points, num_contexts, rng)

    labels = np.full(n, -1, dtype=np.intp)
    history: list[float] = []
    for _ in range(max_iters):
        d2 = _squared_distances(points, centers)
        new_labels = d2.argmin(axis=1)  # argmin takes the first (lowest) id on ties

        # repair empty clusters: seize the point farthest from its own center
        counts = np.bincount(new_labels, minlength=num_contexts)
        for empty in np.flatnonzero(counts == 0):
            own = d2[np.arange(n), new_labels].copy()
            own[counts[new_labels] <= 1] = -np.inf  # never empty a singleton
            victim = int(own.argmax())
            counts[new_labels[victim]] -= 1
            new_labels[victim] = empty
            counts[empty] += 1

        converged = bool((new_labels == labels).all())
        labels = new_labels
        for c in range(num_contexts):
            members = points[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
        history.append(float(
            ((points - centers[labels]) ** 2).sum()))
        if converged:
            break

    # final pass so stored labels are exactly nearest-center
    labels = _squared_distances(points, centers).argmin(axis=1)
    return centers, labels, history


def _nearest(centers: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per (N, dim) point row, the nearest center's id (ties to the lowest),
    each row's distances summed as a one-row call sums them."""
    return ((centers - points[:, None, :]) ** 2).sum(axis=2).argmin(axis=1)


def label_all(model: ContextModel, embeddings: np.ndarray,
              embeddable: np.ndarray) -> np.ndarray:
    """Context id for every session, from its stored embedding row.

    Sessions clustered at fit time keep their stored assignment; every other
    embeddable session (test-only, embedded inductively by the embed stage)
    goes to the nearest center without refitting. Sessions the encoder could
    not embed (no in-vocabulary item) get ``UNLABELED`` and one warning.
    """
    labels = np.full(len(embeddings), UNLABELED, dtype=np.intp)
    labels[model.session_ids] = model.labels
    rest = labels == UNLABELED  # not clustered
    new = np.flatnonzero(rest & embeddable)
    labels[new] = _nearest(model.centers, np.asarray(embeddings, dtype=np.float64)[new])
    left = np.flatnonzero(rest & ~embeddable)
    if len(left):
        warnings.warn(f"{len(left)} session(s) with no in-vocabulary items left "
                      f"unlabeled: {left[:10].tolist()}")
    return labels


def export_clusters_csv(path, centers: np.ndarray, corpus: SplitCorpus,
                        labels: np.ndarray, embeddings: np.ndarray) -> None:
    """CSV (session_id, context_id, distance_to_center) over labeled
    sessions, each distance to its context's row of ``centers``."""
    with open(path, "w") as fh:
        fh.write("session_id,context_id,distance_to_center\n")
        for sid in range(corpus.num_sessions):
            c = int(labels[sid])
            if c == UNLABELED:
                continue
            dist = float(np.linalg.norm(embeddings[sid] - centers[c]))
            fh.write(f"{sid},{c},{dist!r}\n")
