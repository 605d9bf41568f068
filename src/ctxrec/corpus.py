"""Interaction-log ingestion: parsing, user filtering, sessionization, splits.

A corpus is a set of int columns (``CorpusArrays``). Interactions are
stored in (user, time) order, so every session is a run of consecutive
interactions and session ids are assigned user after user, each user's in
time order. The per-row ``Interaction`` and ``Session`` lists and the other
list-valued accessors of ``SplitCorpus`` are views built on first use; no
stage reads them.
"""

from __future__ import annotations

import functools
import itertools
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .nn.checkpoint import load_arrays

CORPUS_FORMAT_VERSION = 2

TRAIN, VAL, TEST = "train", "val", "test"
TAGS = (TRAIN, VAL, TEST)  # a split code is its tag's index here


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
    has_header: bool = False


@dataclass
class ParsedLog:
    """Interaction columns in (user, time) order, with the raw key of each
    compact user and item id."""

    user_of: np.ndarray
    item_of: np.ndarray
    timestamp: np.ndarray
    user_keys: list[str]  # compact id -> raw key, first-appearance order
    item_keys: list[str]

    @property
    def num_users(self) -> int:
        return len(self.user_keys)

    @property
    def num_items(self) -> int:
        return len(self.item_keys)


_INT64 = np.iinfo(np.int64)
# what decoding with errors="surrogateescape" makes of a byte that is not UTF-8
_UNDECODED = re.compile("[\udc80-\udcff]")


def _parse_timestamp(raw: str) -> int:
    """Integer or float epoch seconds; floats truncate toward zero. Not a
    number (NaN included) is a ValueError; infinite or outside int64 is an
    OverflowError."""
    try:
        value = int(raw)
    except ValueError:
        value = int(float(raw))
    if not _INT64.min <= value <= _INT64.max:
        raise OverflowError(value)
    return value


def _timestamps(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("a timestamp is outside the 64-bit integer range") from None


def parse_log(source: Iterable[str] | str | Path, schema: ColumnSchema | None = None,
              on_error: str = "abort") -> ParsedLog:
    """Parse delimiter-separated rows whose first three columns are the
    user, the item and the timestamp; any further columns are ignored.

    Ids are compacted to contiguous integers in first-appearance order and
    interactions are sorted per user by timestamp, stable on ties so equal
    timestamps keep their input order. ``on_error`` is ``abort`` (raise
    LogParseError) or ``skip`` (drop the row with a warning).

    A file is read as UTF-8 and cut into lines as ``str.splitlines`` cuts
    them. A line holding a byte that is not UTF-8 is that line's error, as
    is a timestamp that is not a number or lies outside int64.
    """
    if on_error not in ("abort", "skip"):
        raise ValueError(f"on_error must be 'abort' or 'skip', got {on_error!r}")
    schema = schema or ColumnSchema()
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = Path(source).read_bytes().decode(
            "utf-8", "surrogateescape").splitlines()
    else:
        lines = source

    user_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    users: list[int] = []
    items: list[int] = []
    stamps: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        if schema.has_header and lineno == 1:
            continue
        if not line.strip():
            continue
        parts = line.rstrip("\n").split(schema.delimiter)
        try:
            undecoded = _UNDECODED.search(line)
            if undecoded:
                raise LogParseError(lineno, f"byte 0x{ord(undecoded.group()) - 0xdc00:02x} "
                                            "is not UTF-8")
            if len(parts) < 3:
                raise LogParseError(lineno, f"expected >= 3 columns, got {len(parts)}")
            try:
                ts = _parse_timestamp(parts[2].strip())
            except ValueError:
                raise LogParseError(lineno, f"non-numeric timestamp {parts[2]!r}")
            except OverflowError:
                raise LogParseError(lineno, f"timestamp {parts[2]!r} is outside "
                                            "the 64-bit integer range")
            user_key = parts[0].strip()
            item_key = parts[1].strip()
            if not user_key or not item_key:
                raise LogParseError(lineno, "empty user or item field")
        except LogParseError as exc:
            if on_error == "abort":
                raise
            warnings.warn(f"skipping malformed row: {exc}")
            continue
        users.append(user_ids.setdefault(user_key, len(user_ids)))
        items.append(item_ids.setdefault(item_key, len(item_ids)))
        stamps.append(ts)

    user_of = np.array(users, dtype=np.intp)
    timestamp = _timestamps(stamps)
    # (user, timestamp, input order): a stable per-user time sort
    order = np.lexsort((np.arange(len(users)), timestamp, user_of))
    return ParsedLog(user_of[order], np.array(items, dtype=np.intp)[order],
                     timestamp[order], list(user_ids), list(item_ids))


def _compact(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``ids`` renumbered 0, 1, ... in order of first appearance, and the
    old id of each new one."""
    old, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    new = np.empty(len(old), dtype=np.intp)
    new[order] = np.arange(len(old))
    return new[inverse], old[order]


def filter_log(parsed: ParsedLog, min_count: int = 10) -> ParsedLog:
    """Drop users with fewer than ``min_count`` interactions; re-compact ids.

    Items are never filtered, but item ids are re-compacted too, so both id
    spaces stay contiguous, in first-appearance order of what is kept.
    """
    counts = np.bincount(parsed.user_of)
    keep = counts[parsed.user_of] >= min_count
    user_of, old_users = _compact(parsed.user_of[keep])
    item_of, old_items = _compact(parsed.item_of[keep])
    return ParsedLog(user_of, item_of, parsed.timestamp[keep],
                     [parsed.user_keys[u] for u in old_users.tolist()],
                     [parsed.item_keys[i] for i in old_items.tolist()])


class CorpusArrays(NamedTuple):
    """A corpus's interactions and sessions as int arrays. Interactions are
    in session order, so session s's items are
    ``item_of[session_start[s]:session_start[s] + session_length[s]]``."""

    user_of: np.ndarray         # per interaction
    item_of: np.ndarray         # per interaction
    timestamp: np.ndarray       # per interaction
    session_of: np.ndarray      # per interaction
    position_of: np.ndarray     # per interaction: its index inside its session
    session_user: np.ndarray    # per session
    session_start: np.ndarray   # per session: its first interaction
    session_length: np.ndarray  # per session
    session_rank: np.ndarray    # per session: its index among its user's sessions


def _runs(starts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per position 0..n-1, the index of the run (of those beginning at the
    ascending ``starts``, 0 first) that holds it, and its offset in that run."""
    length = np.diff(np.append(starts, n))
    return np.repeat(np.arange(len(starts)), length), np.arange(n) - np.repeat(starts, length)


def _corpus_arrays(user_of: np.ndarray, item_of: np.ndarray, timestamp: np.ndarray,
                   session_start: np.ndarray) -> CorpusArrays:
    """The columns of interactions in (user, time) order whose sessions
    begin at the interaction indices ``session_start``. Sessions are then
    numbered user after user, each user's in time order, so session s - r is
    the first of its user's when r is its rank."""
    n, num_sessions = len(user_of), len(session_start)
    session_of, position_of = _runs(session_start, n)
    session_user = user_of[session_start]
    new_user = np.ones(num_sessions, dtype=bool)
    new_user[1:] = session_user[1:] != session_user[:-1]
    return CorpusArrays(
        user_of=user_of, item_of=item_of, timestamp=timestamp, session_of=session_of,
        position_of=position_of, session_user=session_user, session_start=session_start,
        session_length=np.diff(np.append(session_start, n)),
        session_rank=_runs(np.flatnonzero(new_user), num_sessions)[1])


def _check(ok, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _in_user_time_order(user_of: np.ndarray, timestamp: np.ndarray) -> bool:
    step, tick = np.diff(user_of), np.diff(timestamp)
    return bool(((step > 0) | ((step == 0) & (tick >= 0))).all())


def example_rows(examples, width: int) -> np.ndarray:
    """Examples as their (N, width) int array of fields: a sequence of
    ``width``-field rows (``NamedTuple``s) is converted, and an ``intp``
    array of that shape is returned as it is."""
    return np.asarray(examples, dtype=np.intp).reshape(-1, width)


@dataclass(eq=False)
class SplitCorpus:
    """Interactions, sessions, and the per-user chronological split.

    ``arrays`` holds the corpus; ``splits[k]`` tags interaction ``k`` as
    train/val/test. Sessions straddling a split cut keep one session id;
    the split tags say which interactions are train-visible. The tags are
    a list that may be reassigned, so what is derived from them is read on
    each call. ``interactions``, ``sessions``, ``session_of`` and
    ``position_of`` are per-row views of ``arrays``, built on first use.
    """

    num_users: int
    num_items: int
    arrays: CorpusArrays
    splits: list[str]
    user_keys: list[str] = field(default_factory=list)
    item_keys: list[str] = field(default_factory=list)

    def __eq__(self, other):
        if not isinstance(other, SplitCorpus):
            return NotImplemented
        fields = ("num_users", "num_items", "splits", "user_keys", "item_keys")
        return (all(getattr(self, f) == getattr(other, f) for f in fields)
                and all(map(np.array_equal, self.arrays, other.arrays)))

    @property
    def num_interactions(self) -> int:
        return len(self.arrays.user_of)

    @property
    def num_sessions(self) -> int:
        return len(self.arrays.session_start)

    def split_codes(self) -> np.ndarray:
        """Per interaction, the index of its tag in ``TAGS``."""
        tags = np.asarray(self.splits, dtype=str)
        return (tags == VAL) + 2 * (tags == TEST)

    def session_split_codes(self) -> np.ndarray:
        """Per session, the largest code among its interactions: a session
        is test if it holds a test interaction, else val if it holds a
        validation one, else train."""
        if not self.num_sessions:
            return np.zeros(0, dtype=np.intp)
        return np.maximum.reduceat(self.split_codes(), self.arrays.session_start)

    def session_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per session: its first and last timestamps, the idle time to its
        user's next session, and whether there is one (the gap reads 0 where
        there is not)."""
        a = self.arrays
        start = a.timestamp[a.session_start]
        end = a.timestamp[a.session_start + a.session_length - 1]
        has_next = np.zeros(len(start), dtype=bool)
        has_next[:-1] = a.session_user[1:] == a.session_user[:-1]
        gap = np.zeros_like(start)
        gap[:-1] = start[1:] - end[:-1]
        return start, end, np.where(has_next, gap, 0), has_next

    @functools.cached_property
    def interactions(self) -> list[Interaction]:
        a = self.arrays
        return list(map(Interaction, a.user_of.tolist(), a.item_of.tolist(),
                        a.timestamp.tolist()))

    @functools.cached_property
    def sessions(self) -> list[Session]:
        a = self.arrays
        start, end, gap, has_next = self.session_times()
        items = a.item_of.tolist()
        return [Session(sid, user, tuple(items[first:first + n]), s, e, g if h else None)
                for sid, user, first, n, s, e, g, h in zip(
                    itertools.count(), a.session_user.tolist(), a.session_start.tolist(),
                    a.session_length.tolist(), start.tolist(), end.tolist(), gap.tolist(),
                    has_next.tolist())]

    @functools.cached_property
    def session_of(self) -> list[int]:
        return self.arrays.session_of.tolist()

    @functools.cached_property
    def position_of(self) -> list[int]:
        return self.arrays.position_of.tolist()


def split_columns(user_of, item_of, timestamp, idle_threshold: int = 3600,
                  train_frac: float = 0.9, val_frac_of_train: float = 0.1,
                  num_users: int | None = None, num_items: int | None = None,
                  user_keys: list[str] | None = None,
                  item_keys: list[str] | None = None) -> SplitCorpus:
    """Sessionize interactions given in (user, time) order and split them
    chronologically per user into train/val/test.

    A new session starts whenever the gap to the user's previous interaction
    is strictly greater than ``idle_threshold``; a gap of exactly the
    threshold stays in-session. Per user with n interactions: the first
    floor(train_frac * n) are the train side, of which the last
    max(1, round(val_frac_of_train * count)) become validation, rounding
    half to even; the remainder is test. The user and item counts default
    to the largest id plus one.
    """
    user_of = np.asarray(user_of, dtype=np.intp)
    item_of = np.asarray(item_of, dtype=np.intp)
    timestamp = _timestamps(timestamp)
    n = len(user_of)
    _check(_in_user_time_order(user_of, timestamp), "interactions must be in (user, time) order")
    new_user = np.ones(n, dtype=bool)
    new_user[1:] = user_of[1:] != user_of[:-1]
    new_session = new_user.copy()
    new_session[1:] |= timestamp[1:] - timestamp[:-1] > idle_threshold

    first = np.flatnonzero(new_user)
    count = np.diff(np.append(first, n))
    train_val = (train_frac * count).astype(np.intp)
    val_count = np.where(train_val > 0, np.maximum(
        1, np.rint(val_frac_of_train * train_val).astype(np.intp)), 0)
    for user, c in zip(user_of[first[train_val == count]].tolist(),
                       count[train_val == count].tolist()):
        warnings.warn(f"user {user}: no test interactions (n={c})")
    k = np.arange(n) - np.repeat(first, count)
    code = ((k >= np.repeat(train_val - val_count, count)).astype(np.intp)
            + (k >= np.repeat(train_val, count)))

    n_users = num_users if num_users is not None else int(user_of.max(initial=-1)) + 1
    n_items = num_items if num_items is not None else int(item_of.max(initial=-1)) + 1
    return SplitCorpus(
        num_users=n_users, num_items=n_items,
        arrays=_corpus_arrays(user_of, item_of, timestamp, np.flatnonzero(new_session)),
        splits=np.array(TAGS)[code].tolist(),
        user_keys=user_keys or [], item_keys=item_keys or [])


def build_corpus(parsed: ParsedLog, idle_threshold: int = 3600,
                 min_count: int = 10) -> SplitCorpus:
    """Filter, sessionize and split a parsed log in one step."""
    kept = filter_log(parsed, min_count)
    return split_columns(kept.user_of, kept.item_of, kept.timestamp, idle_threshold,
                         num_users=kept.num_users, num_items=kept.num_items,
                         user_keys=kept.user_keys, item_keys=kept.item_keys)


# the arrays of a corpus file: what save_corpus stores, in order
_MEMBERS = ("format_version", "num_users", "num_items", "user_keys", "item_keys",
            "user_of", "item_of", "timestamp", "split", "session_start")


def save_corpus(corpus: SplitCorpus, path: str | Path) -> None:
    """The corpus as an ``.npz`` file of ``_MEMBERS``: the format version,
    the counts and raw keys, the interaction columns, each interaction's
    split code and the session starts. ``load_corpus`` rebuilds the rest."""
    a = corpus.arrays
    with open(path, "wb") as fh:  # a path np.savez would give an .npz suffix
        np.savez(fh, format_version=CORPUS_FORMAT_VERSION, num_users=corpus.num_users,
                 num_items=corpus.num_items, user_keys=np.array(corpus.user_keys, dtype=str),
                 item_keys=np.array(corpus.item_keys, dtype=str), user_of=a.user_of,
                 item_of=a.item_of, timestamp=a.timestamp, split=corpus.split_codes(),
                 session_start=a.session_start)


def _is_int(arr: np.ndarray, ndim: int) -> bool:
    return arr.ndim == ndim and arr.dtype.kind == "i"


def load_corpus(path: str | Path) -> SplitCorpus:
    """Read a ``save_corpus`` file. A file that is missing, cut or corrupt,
    or whose arrays do not make one consistent corpus, raises ``ValueError``
    naming the file."""
    (version, num_users, num_items, user_keys, item_keys, user_of, item_of, timestamp,
     split, session_start) = load_arrays(path, *_MEMBERS)
    columns = (user_of, item_of, timestamp, split)
    try:
        _check(_is_int(version, 0) and version == CORPUS_FORMAT_VERSION,
               f"unsupported corpus format {version}")
        _check(all(_is_int(count, 0) and count >= 0 for count in (num_users, num_items)),
               "the user and item counts are not two non-negative ints")
        _check(all(keys.ndim == 1 and keys.dtype.kind == "U" and len(keys) in (0, count)
                   for keys, count in ((user_keys, num_users), (item_keys, num_items))),
               "the raw keys are not one string per user and item")
        _check(all(_is_int(c, 1) for c in columns + (session_start,))
               and len(set(map(len, columns))) == 1,
               "the columns are not 1-D ints, one per interaction")
        _check(((0 <= user_of) & (user_of < num_users)).all()
               and ((0 <= item_of) & (item_of < num_items)).all(),
               "a user or item id is outside the counts")
        _check(((0 <= split) & (split < len(TAGS))).all(), f"a split code outside {TAGS}")
        _check(_in_user_time_order(user_of, timestamp),
               "interactions are not in (user, time) order")
        n = len(user_of)
        _check(session_start[:1].tolist() == [0] * (n > 0)
               and (np.diff(np.append(session_start, n)) > 0).all(),
               "sessions do not start at 0 and rise strictly below the interaction count")
        _check(np.isin(np.flatnonzero(user_of[1:] != user_of[:-1]) + 1, session_start).all(),
               "a session spans two users")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return SplitCorpus(int(num_users), int(num_items), _corpus_arrays(
        *(c.astype(np.intp, copy=False) for c in (user_of, item_of)),
        timestamp.astype(np.int64, copy=False), session_start.astype(np.intp, copy=False)),
        np.array(TAGS)[split].tolist(), user_keys.tolist(), item_keys.tolist())
