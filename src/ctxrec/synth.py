"""Synthetic interaction-log generator with planted session contexts.

Each planted context owns a disjoint item vocabulary; a session draws its
context (sticky across a user's consecutive sessions with configurable
probability) and samples items from that context's vocabulary under a Zipf
popularity law. Timestamp gaps are drawn so the generated session boundaries
are exactly what an idle-threshold sessionizer recovers. The sidecar JSON
records the generator parameters and every session's planted context, keyed
by (user, per-user session index).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


@dataclass
class SynthSpec:
    num_users: int = 50
    num_contexts: int = 8
    items_per_context: int = 30
    sessions_per_user: int = 40
    seed: int = 7
    stickiness: float = 0.7
    zipf_exponent: float = 1.1
    mean_session_len: float = 2.5
    within_gap_max: int = 900       # <= idle threshold, keeps a session together
    between_gap_min: int = 4000     # > idle threshold, forces a session break
    between_gap_max: int = 90000
    start_epoch: int = 1_600_000_000

    @property
    def num_items(self) -> int:
        return self.num_contexts * self.items_per_context


def generate(spec: SynthSpec, log_path: str | Path,
             sidecar_path: str | Path | None = None) -> dict:
    """Write the raw CSV log (user,item,timestamp) and the label sidecar.

    Deterministic: a fixed spec (seed included) produces byte-identical files.
    Returns the sidecar payload.
    """
    rng = np.random.default_rng(spec.seed)
    zipf = 1.0 / np.arange(1, spec.items_per_context + 1) ** spec.zipf_exponent
    zipf /= zipf.sum()
    # what Generator.choice(p=zipf) draws from, without its per-call checks
    cdf = zipf.cumsum()
    cdf /= cdf[-1]

    rows: list[str] = []
    sessions: list[dict] = []
    for user in range(spec.num_users):
        t = spec.start_epoch + int(rng.integers(0, spec.between_gap_max))
        context = int(rng.integers(spec.num_contexts))
        for index in range(spec.sessions_per_user):
            if index > 0:
                if rng.random() >= spec.stickiness:
                    # switch to a uniformly drawn different context
                    shift = 1 + int(rng.integers(spec.num_contexts - 1))
                    context = (context + shift) % spec.num_contexts
                t += int(rng.integers(spec.between_gap_min, spec.between_gap_max))
            length = 1 + int(rng.poisson(max(spec.mean_session_len - 1.0, 0.0)))
            items = context * spec.items_per_context + cdf.searchsorted(
                rng.random(length), side="right")
            for j, item in enumerate(items.tolist()):
                if j > 0:
                    t += int(rng.integers(1, spec.within_gap_max))
                rows.append(f"{user},{item},{t}")
            sessions.append({"user": user, "index": index,
                             "context": context, "length": int(length)})

    Path(log_path).write_text("\n".join(rows) + "\n")
    sidecar = {"generator": asdict(spec), "sessions": sessions}
    if sidecar_path is not None:
        Path(sidecar_path).write_text(
            json.dumps(sidecar, sort_keys=True, separators=(",", ":")) + "\n")
    return sidecar


def planted_labels(sidecar: dict, corpus) -> np.ndarray:
    """Planted context per corpus session id.

    Generated gaps respect the idle threshold, so the sessionizer recovers
    exactly the generated sessions in (user, time) order and the k-th session
    of a user in the corpus is the k-th generated one.
    """
    a = corpus.arrays
    by_key = {(s["user"], s["index"]): s["context"] for s in sidecar["sessions"]}
    raw = (np.array([int(key) for key in corpus.user_keys], dtype=np.intp)
           if corpus.user_keys else np.arange(corpus.num_users))
    try:
        return np.array([by_key[key] for key in zip(raw[a.session_user].tolist(),
                                                    a.session_rank.tolist())], dtype=np.intp)
    except KeyError:
        raise ValueError("sidecar does not cover every corpus session") from None
