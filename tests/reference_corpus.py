"""Object-level corpus path, kept as the oracle of the column path in
``ctxrec.corpus`` and of ``ctxrec.synth.generate``.

Everything here builds one ``Interaction`` or ``Session`` per row, as the
package did before its corpus became a set of columns: user filtering,
sessionization, the chronological split, and the generator that drew each
session's items with ``Generator.choice(p=...)``.

``parsed_interactions``, ``session_split``, ``interaction_range`` and
``user_session_ids`` are the per-row accessors that ``ParsedLog`` and
``SplitCorpus`` carried while only tests read them; ``session_split`` is
the per-row copy of ``SplitCorpus.session_split_codes``'s rule.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ctxrec.corpus import TEST, TRAIN, VAL, Interaction, ParsedLog, Session, SplitCorpus
from ctxrec.synth import SynthSpec


def parsed_interactions(parsed: ParsedLog) -> list[Interaction]:
    return list(map(Interaction, parsed.user_of.tolist(), parsed.item_of.tolist(),
                    parsed.timestamp.tolist()))


def interaction_range(corpus: SplitCorpus, session_id: int) -> range:
    first = int(corpus.arrays.session_start[session_id])
    return range(first, first + int(corpus.arrays.session_length[session_id]))


def session_split(corpus: SplitCorpus, session_id: int) -> str:
    """Tag for a whole session: test > val > train by containment."""
    tags = {corpus.splits[k] for k in interaction_range(corpus, session_id)}
    if TEST in tags:
        return TEST
    if VAL in tags:
        return VAL
    return TRAIN


def user_session_ids(corpus: SplitCorpus, user_id: int) -> list[int]:
    return np.flatnonzero(corpus.arrays.session_user == user_id).tolist()


@dataclass
class ReferenceCorpus:
    num_users: int
    num_items: int
    interactions: list[Interaction]
    splits: list[str]
    sessions: list[Session]
    session_of: list[int]
    position_of: list[int]
    user_keys: list[str] = field(default_factory=list)
    item_keys: list[str] = field(default_factory=list)


def assert_same_corpus(corpus: SplitCorpus, ref: ReferenceCorpus) -> None:
    """Every field of the oracle equals the column corpus's view of it,
    element types included."""
    for name in ("num_users", "num_items", "interactions", "splits", "sessions",
                 "session_of", "position_of", "user_keys", "item_keys"):
        got, want = getattr(corpus, name), getattr(ref, name)
        assert got == want, name
        if isinstance(want, list) and want:
            assert type(got[0]) is type(want[0]), name
    for got, want in zip(corpus.sessions, ref.sessions):
        assert [type(v) for v in vars(got).values()] == [type(v) for v in vars(want).values()]


def filter_users(interactions: Sequence[Interaction],
                 min_count: int = 10) -> list[Interaction]:
    """Drop users with fewer than ``min_count`` interactions; re-compact ids."""
    counts: dict[int, int] = {}
    for it in interactions:
        counts[it.user_id] = counts.get(it.user_id, 0) + 1
    keep = {u for u, c in counts.items() if c >= min_count}
    user_map: dict[int, int] = {}
    item_map: dict[int, int] = {}
    out = []
    for it in interactions:
        if it.user_id not in keep:
            continue
        u = user_map.setdefault(it.user_id, len(user_map))
        i = item_map.setdefault(it.item_id, len(item_map))
        out.append(Interaction(u, i, it.timestamp))
    return out


def sessionize(interactions: Sequence[Interaction],
               idle_threshold: int = 3600) -> list[Session]:
    """Group per-user interaction runs into sessions; a gap strictly greater
    than ``idle_threshold`` starts a new one."""
    per_user: dict[int, list[Interaction]] = {}
    for it in interactions:
        per_user.setdefault(it.user_id, []).append(it)

    sessions: list[Session] = []
    for user in sorted(per_user):
        runs: list[list[Interaction]] = []
        for it in per_user[user]:
            if runs and it.timestamp - runs[-1][-1].timestamp <= idle_threshold:
                runs[-1].append(it)
            else:
                runs.append([it])
        user_sessions = []
        for run in runs:
            user_sessions.append(Session(
                session_id=len(sessions) + len(user_sessions),
                user_id=user,
                items=tuple(it.item_id for it in run),
                start=run[0].timestamp,
                end=run[-1].timestamp,
                gap_to_next=None,
            ))
        for k in range(len(user_sessions) - 1):
            s = user_sessions[k]
            user_sessions[k] = Session(
                s.session_id, s.user_id, s.items, s.start, s.end,
                user_sessions[k + 1].start - s.end)
        sessions.extend(user_sessions)
    return sessions


def split(interactions: Sequence[Interaction], train_frac: float = 0.9,
          val_frac_of_train: float = 0.1, idle_threshold: int = 3600,
          num_users: int | None = None, num_items: int | None = None,
          user_keys: list[str] | None = None,
          item_keys: list[str] | None = None) -> ReferenceCorpus:
    """Sessionize, then split chronologically per user into train/val/test."""
    interactions = list(interactions)
    sessions = sessionize(interactions, idle_threshold)

    per_user_counts: dict[int, int] = {}
    for it in interactions:
        per_user_counts[it.user_id] = per_user_counts.get(it.user_id, 0) + 1

    n_users = num_users if num_users is not None else (
        max(per_user_counts) + 1 if per_user_counts else 0)
    n_items = num_items if num_items is not None else (
        max((it.item_id for it in interactions), default=-1) + 1)

    splits: list[str] = []
    seen: dict[int, int] = {}
    for it in interactions:
        k = seen.get(it.user_id, 0)
        seen[it.user_id] = k + 1
        n = per_user_counts[it.user_id]
        train_val = int(train_frac * n)
        val_count = max(1, round(val_frac_of_train * train_val)) if train_val else 0
        if n - train_val == 0:
            warnings.warn(f"user {it.user_id}: no test interactions (n={n})")
        if k < train_val - val_count:
            splits.append(TRAIN)
        elif k < train_val:
            splits.append(VAL)
        else:
            splits.append(TEST)

    session_of = []
    position_of = []
    by_user_time: dict[int, list[Session]] = {}
    for s in sessions:
        by_user_time.setdefault(s.user_id, []).append(s)
    cursor: dict[int, tuple[int, int]] = {}
    for it in interactions:
        idx, pos = cursor.get(it.user_id, (0, 0))
        s = by_user_time[it.user_id][idx]
        if pos >= s.length:
            idx, pos = idx + 1, 0
            s = by_user_time[it.user_id][idx]
        session_of.append(s.session_id)
        position_of.append(pos)
        cursor[it.user_id] = (idx, pos + 1)

    return ReferenceCorpus(n_users, n_items, interactions, splits, sessions,
                           session_of, position_of, user_keys or [], item_keys or [])


def build_corpus(parsed: ParsedLog, idle_threshold: int = 3600,
                 min_count: int = 10) -> ReferenceCorpus:
    """Filter, sessionize and split the parsed log's interactions."""
    filtered = filter_users(parsed_interactions(parsed), min_count)
    keep_counts: dict[int, int] = {}
    for it in parsed_interactions(parsed):
        keep_counts[it.user_id] = keep_counts.get(it.user_id, 0) + 1
    user_keys: list[str] = []
    item_keys: list[str] = []
    seen_u: set[int] = set()
    seen_i: set[int] = set()
    for it in parsed_interactions(parsed):
        if keep_counts[it.user_id] < min_count:
            continue
        if it.user_id not in seen_u:
            seen_u.add(it.user_id)
            user_keys.append(parsed.user_keys[it.user_id])
        if it.item_id not in seen_i:
            seen_i.add(it.item_id)
            item_keys.append(parsed.item_keys[it.item_id])
    return split(filtered, idle_threshold=idle_threshold,
                 num_users=len(user_keys), num_items=len(item_keys),
                 user_keys=user_keys, item_keys=item_keys)


def generate(spec: SynthSpec, log_path: str | Path,
             sidecar_path: str | Path | None = None) -> dict:
    """The generator with each session's items drawn by ``choice(p=zipf)``."""
    rng = np.random.default_rng(spec.seed)
    zipf = 1.0 / np.arange(1, spec.items_per_context + 1) ** spec.zipf_exponent
    zipf /= zipf.sum()

    rows: list[str] = []
    sessions: list[dict] = []
    for user in range(spec.num_users):
        t = spec.start_epoch + int(rng.integers(0, spec.between_gap_max))
        context = int(rng.integers(spec.num_contexts))
        for index in range(spec.sessions_per_user):
            if index > 0:
                if rng.random() >= spec.stickiness:
                    shift = 1 + int(rng.integers(spec.num_contexts - 1))
                    context = (context + shift) % spec.num_contexts
                t += int(rng.integers(spec.between_gap_min, spec.between_gap_max))
            length = 1 + int(rng.poisson(max(spec.mean_session_len - 1.0, 0.0)))
            items = context * spec.items_per_context + rng.choice(
                spec.items_per_context, size=length, p=zipf)
            for j, item in enumerate(items):
                if j > 0:
                    t += int(rng.integers(1, spec.within_gap_max))
                rows.append(f"{user},{int(item)},{t}")
            sessions.append({"user": user, "index": index,
                             "context": context, "length": int(length)})

    Path(log_path).write_text("\n".join(rows) + "\n")
    sidecar = {"generator": asdict(spec), "sessions": sessions}
    if sidecar_path is not None:
        Path(sidecar_path).write_text(
            json.dumps(sidecar, sort_keys=True, separators=(",", ":")) + "\n")
    return sidecar
