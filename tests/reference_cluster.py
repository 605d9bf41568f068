"""``cluster.label_all`` as it stood when it re-embedded every session outside
the fit through the encoder, kept as the differential oracle for the version
that reads the embed stage's stored rows.

``label_all`` is copied unchanged but for its nearest-center call, which
now goes to ``assign_row``. It calls ``ContextModel.label_of``, which left
the package with it, so ``ReferenceContextModel`` carries that method, also
unchanged. ``assign_many`` is the removed ``cluster.assign_many``, which
only tests called.

``assign_row`` and ``label_rows`` are the removed ``cluster.assign`` and the
stored-row ``cluster.label_all`` as they stood before ``label_all`` labeled
every unclustered session in one array pass, copied unchanged apart from
their names and ``assign_row`` reading the dimension off the centers.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ctxrec.cluster import UNLABELED, ContextModel, _squared_distances
from ctxrec.corpus import SplitCorpus
from ctxrec.graph import BipartiteMultigraph, SageEncoder


@dataclass
class ReferenceContextModel(ContextModel):
    def label_of(self, session_id: int) -> int:
        idx = np.searchsorted(self.session_ids, session_id)
        if idx >= len(self.session_ids) or self.session_ids[idx] != session_id:
            raise KeyError(f"session {session_id} was not clustered")
        return int(self.labels[idx])


def label_all(model: ContextModel, encoder: SageEncoder,
              graph: BipartiteMultigraph, corpus: SplitCorpus,
              strict: bool = True) -> np.ndarray:
    """Context id for every session in the corpus.

    Sessions clustered at fit time keep their stored assignment; sessions
    outside the graph (test-only) are embedded inductively and assigned to
    the nearest center without refitting. With ``strict=False`` a session
    whose items are all outside the training vocabulary gets label -1 and a
    warning instead of an error.
    """
    labels = np.full(corpus.num_sessions, UNLABELED, dtype=np.intp)
    clustered = set(int(s) for s in model.session_ids)
    for s in corpus.sessions:
        sid = s.session_id
        if sid in clustered:
            labels[sid] = model.label_of(sid)
            continue
        try:
            emb = encoder.embed_new_session(graph, list(s.items))
        except ValueError:
            if strict:
                raise
            warnings.warn(f"session {sid}: no in-vocabulary items; left unlabeled")
            continue
        labels[sid] = assign_row(model, emb)
    return labels


def assign_row(model: ContextModel, embedding: np.ndarray) -> int:
    """Nearest-center context id; distance ties break to the lowest id."""
    embedding = np.asarray(embedding, dtype=np.float64)
    dim = model.centers.shape[1]
    if embedding.shape != (dim,):
        raise ValueError(f"expected embedding of dim {dim}, "
                         f"got shape {embedding.shape}")
    d2 = ((model.centers - embedding) ** 2).sum(axis=1)
    return int(d2.argmin())


def label_rows(model: ContextModel, embeddings: np.ndarray,
               embeddable: np.ndarray) -> np.ndarray:
    """Context id for every session, from its stored embedding row.

    Sessions clustered at fit time keep their stored assignment; every other
    embeddable session (test-only, embedded inductively by the embed stage)
    goes to the nearest center without refitting. A session the encoder could
    not embed (no in-vocabulary item) gets ``UNLABELED`` and a warning.
    """
    labels = np.full(len(embeddings), UNLABELED, dtype=np.intp)
    labels[model.session_ids] = model.labels
    for sid in np.flatnonzero(labels == UNLABELED):  # not clustered
        if embeddable[sid]:
            labels[sid] = assign_row(model, embeddings[sid])
        else:
            warnings.warn(f"session {sid}: no in-vocabulary items; left unlabeled")
    return labels


def assign_many(model: ContextModel, embeddings: np.ndarray) -> np.ndarray:
    return _squared_distances(np.asarray(embeddings, dtype=np.float64),
                              model.centers).argmin(axis=1)


def reference_labels(model: ContextModel, encoder: SageEncoder,
                     graph: BipartiteMultigraph, corpus: SplitCorpus) -> np.ndarray:
    """The oracle's labels for ``model``, called the way contextualize did."""
    ref_model = ReferenceContextModel(model.centers, model.session_ids,
                                      model.labels, model.inertia_history)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return label_all(ref_model, encoder, graph, corpus, strict=False)
