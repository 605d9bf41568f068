"""Interaction-log ingestion: parsing, user filtering, sessionization, splits.

All functions are pure: they take immutable inputs and return new structures,
so per-user work could be parallelized without changing any output.
"""

from __future__ import annotations

import functools
import itertools
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

CORPUS_FORMAT_VERSION = 1

TRAIN, VAL, TEST = "train", "val", "test"


class LogParseError(ValueError):
    """A malformed input row; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Interaction:
    user_id: int
    item_id: int
    timestamp: int


@dataclass(frozen=True)
class Session:
    """A maximal run of one user's interactions under the idle threshold.

    ``gap_to_next`` is the idle time from this session's end to the user's
    next session start; ``None`` for the user's last session.
    """

    session_id: int
    user_id: int
    items: tuple[int, ...]
    start: int
    end: int
    gap_to_next: int | None

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def length(self) -> int:
        return len(self.items)


@dataclass
class ColumnSchema:
    delimiter: str = ","
    user_col: int = 0
    item_col: int = 1
    time_col: int = 2
    has_header: bool = False

    @property
    def arity(self) -> int:
        return max(self.user_col, self.item_col, self.time_col) + 1


@dataclass
class ParsedLog:
    interactions: list[Interaction]
    user_keys: list[str]  # compact id -> raw key, first-appearance order
    item_keys: list[str]

    @property
    def num_users(self) -> int:
        return len(self.user_keys)

    @property
    def num_items(self) -> int:
        return len(self.item_keys)


def _parse_timestamp(raw: str) -> int:
    # accepts integer or float epoch seconds; floats truncate toward zero
    try:
        return int(raw)
    except ValueError:
        return int(float(raw))


def parse_log(source: Iterable[str] | str | Path, schema: ColumnSchema | None = None,
              on_error: str = "abort") -> ParsedLog:
    """Parse delimiter-separated (user, item, timestamp) rows.

    Ids are compacted to contiguous integers in first-appearance order and
    interactions are sorted per user by timestamp, stable on ties so equal
    timestamps keep their input order. ``on_error`` is ``abort`` (raise
    LogParseError) or ``skip`` (drop the row with a warning).
    """
    if on_error not in ("abort", "skip"):
        raise ValueError(f"on_error must be 'abort' or 'skip', got {on_error!r}")
    schema = schema or ColumnSchema()
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = Path(source).read_text().splitlines()
    else:
        lines = source

    user_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    rows: list[tuple[int, int, int, int]] = []  # (user, ts, seq, item)
    for lineno, line in enumerate(lines, start=1):
        if schema.has_header and lineno == 1:
            continue
        if not line.strip():
            continue
        parts = line.rstrip("\n").split(schema.delimiter)
        try:
            if len(parts) < schema.arity:
                raise LogParseError(
                    lineno, f"expected >= {schema.arity} columns, got {len(parts)}")
            try:
                ts = _parse_timestamp(parts[schema.time_col].strip())
            except ValueError:
                raise LogParseError(
                    lineno, f"non-numeric timestamp {parts[schema.time_col]!r}")
            user_key = parts[schema.user_col].strip()
            item_key = parts[schema.item_col].strip()
            if not user_key or not item_key:
                raise LogParseError(lineno, "empty user or item field")
        except LogParseError as exc:
            if on_error == "abort":
                raise
            warnings.warn(f"skipping malformed row: {exc}")
            continue
        uid = user_ids.setdefault(user_key, len(user_ids))
        iid = item_ids.setdefault(item_key, len(item_ids))
        rows.append((uid, ts, len(rows), iid))

    rows.sort()  # (user, timestamp, input order) -> stable per-user time sort
    interactions = [Interaction(u, i, ts) for u, ts, _, i in rows]
    return ParsedLog(interactions, list(user_ids), list(item_ids))


def filter_users(interactions: Sequence[Interaction],
                 min_count: int = 10) -> list[Interaction]:
    """Drop users with fewer than ``min_count`` interactions; re-compact ids.

    Single pass over users only; items are never filtered, but item ids are
    re-compacted so both id spaces stay contiguous.
    """
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
    """Group per-user interaction runs into sessions.

    A new session starts whenever the gap to the previous interaction is
    strictly greater than ``idle_threshold``; a gap of exactly the threshold
    stays in-session. Session ids are assigned globally, grouped by user and
    then time.
    """
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
        # fill gap_to_next = next session start - this session end
        for k in range(len(user_sessions) - 1):
            s = user_sessions[k]
            user_sessions[k] = Session(
                s.session_id, s.user_id, s.items, s.start, s.end,
                user_sessions[k + 1].start - s.end)
        sessions.extend(user_sessions)
    return sessions


class CorpusArrays(NamedTuple):
    """A corpus's interactions and sessions as int arrays, for building
    examples and prefix windows without walking the corpus in Python."""

    user_of: np.ndarray        # per interaction
    item_of: np.ndarray        # per interaction
    session_of: np.ndarray     # per interaction
    position_of: np.ndarray    # per interaction
    session_user: np.ndarray   # per session
    session_items: np.ndarray  # every session's items, sessions in id order
    session_start: np.ndarray  # per session: where its items begin in session_items
    user_sessions: np.ndarray  # every user's session ids in time order, users in id order
    user_start: np.ndarray     # per user: where their ids begin in user_sessions
    session_rank: np.ndarray   # per session: its index among its user's sessions


def example_rows(examples, width: int) -> np.ndarray:
    """Examples as their (N, width) int array of fields: a sequence of
    ``width``-field rows (``NamedTuple``s) is converted, and an ``intp``
    array of that shape is returned as it is."""
    return np.asarray(examples, dtype=np.intp).reshape(-1, width)


@dataclass
class SplitCorpus:
    """Interactions, sessions, and the per-user chronological split.

    Interactions are stored sorted by (user, time); ``splits[k]`` tags
    interaction ``k`` as train/val/test, ``session_of[k]`` is its session id
    and ``position_of[k]`` its 0-based position inside that session. Sessions
    straddling a split cut keep one session id; the split tags say which
    interactions are train-visible.
    """

    num_users: int
    num_items: int
    interactions: list[Interaction]
    splits: list[str]
    sessions: list[Session]
    session_of: list[int]
    position_of: list[int]
    user_keys: list[str] = field(default_factory=list)
    item_keys: list[str] = field(default_factory=list)

    @property
    def num_sessions(self) -> int:
        return len(self.sessions)

    def session_split(self, session_id: int) -> str:
        """Tag for a whole session: test > val > train by containment."""
        tags = {self.splits[k] for k in self.interaction_range(session_id)}
        if TEST in tags:
            return TEST
        if VAL in tags:
            return VAL
        return TRAIN

    def interaction_range(self, session_id: int) -> range:
        first = self._session_first[session_id]
        return range(first, first + self.sessions[session_id].length)

    def user_session_ids(self, user_id: int) -> list[int]:
        return self._user_sessions[user_id]

    @functools.cached_property
    def arrays(self) -> CorpusArrays:
        """Built on first use; a corpus's interactions and sessions do not
        change after it is built (its split tags may, and are not cached)."""
        def column(values) -> np.ndarray:
            return np.fromiter(values, dtype=np.intp)

        def starts(lengths: np.ndarray) -> np.ndarray:
            return np.cumsum(lengths) - lengths

        user_sessions = [self._user_sessions[u] for u in range(self.num_users)]
        session_rank = np.zeros(self.num_sessions, dtype=np.intp)
        for sids in user_sessions:
            session_rank[sids] = np.arange(len(sids))
        return CorpusArrays(
            user_of=column(it.user_id for it in self.interactions),
            item_of=column(it.item_id for it in self.interactions),
            session_of=column(self.session_of),
            position_of=column(self.position_of),
            session_user=column(s.user_id for s in self.sessions),
            session_items=column(itertools.chain.from_iterable(
                s.items for s in self.sessions)),
            session_start=starts(column(s.length for s in self.sessions)),
            user_sessions=column(itertools.chain.from_iterable(user_sessions)),
            user_start=starts(column(map(len, user_sessions))),
            session_rank=session_rank)

    def __post_init__(self):
        self._session_first = {}
        for k, sid in enumerate(self.session_of):
            if sid not in self._session_first:
                self._session_first[sid] = k
        self._user_sessions: dict[int, list[int]] = {u: [] for u in range(self.num_users)}
        for s in self.sessions:
            self._user_sessions[s.user_id].append(s.session_id)


def split(interactions: Sequence[Interaction],
          sessions: list[Session] | None = None,
          train_frac: float = 0.9,
          val_frac_of_train: float = 0.1,
          idle_threshold: int = 3600,
          num_users: int | None = None,
          num_items: int | None = None,
          user_keys: list[str] | None = None,
          item_keys: list[str] | None = None) -> SplitCorpus:
    """Chronological per-user split into train/val/test.

    Per user with n interactions: the first floor(train_frac * n) are the
    train side, of which the last max(1, round(val_frac_of_train * count))
    become validation; the remainder is test. Python's round (half-to-even)
    is used for the validation carve-out.
    """
    interactions = list(interactions)
    if sessions is None:
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
    by_user_time = {}
    for s in sessions:
        by_user_time.setdefault(s.user_id, []).append(s)
    cursor: dict[int, tuple[int, int]] = {}  # user -> (session idx in user list, pos)
    for it in interactions:
        idx, pos = cursor.get(it.user_id, (0, 0))
        s = by_user_time[it.user_id][idx]
        if pos >= s.length:
            idx, pos = idx + 1, 0
            s = by_user_time[it.user_id][idx]
        session_of.append(s.session_id)
        position_of.append(pos)
        cursor[it.user_id] = (idx, pos + 1)

    return SplitCorpus(
        num_users=n_users, num_items=n_items,
        interactions=interactions, splits=splits, sessions=sessions,
        session_of=session_of, position_of=position_of,
        user_keys=user_keys or [], item_keys=item_keys or [])


def build_corpus(parsed: ParsedLog, idle_threshold: int = 3600,
                 min_count: int = 10) -> SplitCorpus:
    """Filter, sessionize and split a parsed log in one step."""
    filtered = filter_users(parsed.interactions, min_count)
    # replay filter_users' first-appearance re-compaction to carry remap tables
    keep_counts: dict[int, int] = {}
    for it in parsed.interactions:
        keep_counts[it.user_id] = keep_counts.get(it.user_id, 0) + 1
    user_keys: list[str] = []
    item_keys: list[str] = []
    seen_u: set[int] = set()
    seen_i: set[int] = set()
    for it in parsed.interactions:
        if keep_counts[it.user_id] < min_count:
            continue
        if it.user_id not in seen_u:
            seen_u.add(it.user_id)
            user_keys.append(parsed.user_keys[it.user_id])
        if it.item_id not in seen_i:
            seen_i.add(it.item_id)
            item_keys.append(parsed.item_keys[it.item_id])
    return split(filtered, None, idle_threshold=idle_threshold,
                 num_users=len(user_keys), num_items=len(item_keys),
                 user_keys=user_keys, item_keys=item_keys)


def save_corpus(corpus: SplitCorpus, path: str | Path) -> None:
    """Line-JSON corpus file.

    Line 1 is a header object (format version, counts, id-remapping tables);
    every following line is one typed row: ``["i", user, item, ts, split,
    session_id, position]`` per interaction, then ``["s", session_id, user,
    start, end, gap_to_next, [items...]]`` per session.
    """
    with open(path, "w") as fh:
        fh.write(json.dumps({
            "format_version": CORPUS_FORMAT_VERSION,
            "num_users": corpus.num_users,
            "num_items": corpus.num_items,
            "user_keys": corpus.user_keys,
            "item_keys": corpus.item_keys,
        }, sort_keys=True, separators=(",", ":")) + "\n")
        for k, it in enumerate(corpus.interactions):
            fh.write(json.dumps(
                ["i", it.user_id, it.item_id, it.timestamp, corpus.splits[k],
                 corpus.session_of[k], corpus.position_of[k]],
                separators=(",", ":")) + "\n")
        for s in corpus.sessions:
            fh.write(json.dumps(
                ["s", s.session_id, s.user_id, s.start, s.end, s.gap_to_next,
                 list(s.items)], separators=(",", ":")) + "\n")


def load_corpus(path: str | Path) -> SplitCorpus:
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("format_version") != CORPUS_FORMAT_VERSION:
            raise ValueError(
                f"unsupported corpus format: {header.get('format_version')}")
        interactions: list[Interaction] = []
        splits: list[str] = []
        session_of: list[int] = []
        position_of: list[int] = []
        sessions: list[Session] = []
        for line in fh:
            row = json.loads(line)
            if row[0] == "i":
                _, user, item, ts, tag, sid, pos = row
                interactions.append(Interaction(user, item, ts))
                splits.append(tag)
                session_of.append(sid)
                position_of.append(pos)
            elif row[0] == "s":
                _, sid, user, start, end, gap, items = row
                sessions.append(Session(sid, user, tuple(items), start, end, gap))
            else:
                raise ValueError(f"unknown corpus row type {row[0]!r}")
    return SplitCorpus(
        num_users=header["num_users"], num_items=header["num_items"],
        interactions=interactions, splits=splits, sessions=sessions,
        session_of=session_of, position_of=position_of,
        user_keys=header["user_keys"], item_keys=header["item_keys"])
