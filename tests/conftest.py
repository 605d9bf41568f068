import dataclasses
import json
import struct

import numpy as np
import pytest

from ctxrec import cluster as cluster_mod
from ctxrec import graph as graph_mod
from ctxrec import predictor as pred_mod
from ctxrec.corpus import TAGS, build_corpus, parse_log, split_columns
from ctxrec.synth import SynthSpec, generate


def corpus_from_rows(rows, **split_kwargs):
    """Build a SplitCorpus straight from (user, item, timestamp) tuples,
    sorted stably by (user, timestamp), with no filtering or id compaction."""
    ordered = sorted(rows, key=lambda r: (r[0], r[2]))
    return split_columns(*(list(zip(*ordered)) or [(), (), ()]), **split_kwargs)


def all_in_split(corpus, tag):
    """A copy of ``corpus`` whose every interaction is in split ``tag``."""
    split = np.full(corpus.num_interactions, TAGS.index(tag), dtype=np.intp)
    return dataclasses.replace(corpus, arrays=corpus.arrays._replace(split=split))


def graph_from_lists(item_lists, num_items):
    """The graph with one session node per non-empty list, whose session id
    is the list's index."""
    session_of = [k for k, items in enumerate(item_lists) for _ in items]
    item_of = [item for items in item_lists for item in items]
    return graph_mod.build_graph(np.array(session_of, dtype=np.intp),
                                 np.array(item_of, dtype=np.intp), num_items)


def column_sessions(interactions, idle_threshold=3600):
    """The sessions that the corpus columns give ``Interaction`` rows."""
    return corpus_from_rows([(it.user_id, it.item_id, it.timestamp) for it in interactions],
                            idle_threshold=idle_threshold).sessions


def nnck_checkpoint_bytes() -> bytes:
    """A checkpoint in the older NNCK container that ``.npz`` checkpoints
    replaced: magic, version, header length, JSON header, raw float64s."""
    header = json.dumps({"config": {"dim": 2}, "tensors": [
        {"dtype": "<f8", "name": "w", "nbytes": 16, "offset": 0, "shape": [2]}]},
        sort_keys=True, separators=(",", ":")).encode()
    return b"NNCK" + struct.pack("<IQ", 2, len(header)) + header + np.ones(2).tobytes()


def synth_corpus(tmp_path, **overrides):
    spec = SynthSpec(**overrides)
    log = tmp_path / "log.csv"
    sidecar = generate(spec, log, tmp_path / "labels.json")
    parsed = parse_log(log)
    corpus = build_corpus(parsed)
    return corpus, sidecar, log, spec


@pytest.fixture(scope="module")
def small_stack(tmp_path_factory):
    """A small end-to-end trained stack shared by model-level tests:
    planted corpus, graph, encoder, embeddings, clustering, features."""
    tmp = tmp_path_factory.mktemp("small_stack")
    corpus, sidecar, _, spec = synth_corpus(
        tmp, num_users=16, num_contexts=4, items_per_context=12,
        sessions_per_user=14, seed=11, mean_session_len=2.5)
    graph = graph_mod.build_graph_from_corpus(corpus)
    encoder, history = graph_mod.train_encoder(
        graph, base_dim=16, out_dim=16, epochs=20, batch_size=256,
        lr=0.01, seed=11)
    embeddings, embeddable = encoder.embed_corpus(graph, corpus)
    model = cluster_mod.kmeans_fit(embeddings[graph.session_ids], 4, seed=11,
                                   session_ids=graph.session_ids)
    labels = cluster_mod.label_all(model, embeddings, embeddable)
    features = pred_mod.build_session_features(corpus, embeddings)
    return {
        "corpus": corpus,
        "sidecar": sidecar,
        "spec": spec,
        "graph": graph,
        "encoder": encoder,
        "encoder_history": history,
        "embeddings": embeddings,
        "embeddable": embeddable,
        "kmeans": model,
        "labels": labels,
        "features": features,
    }
