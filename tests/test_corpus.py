import io
import math
import re
import sys
import tempfile
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_corpus
from ctxrec import pipeline
from ctxrec.config import PipelineConfig
from ctxrec.corpus import (
    ColumnSchema,
    Interaction,
    ParsedLog,
    Session,
    build_corpus,
    filter_log,
    LogParseError,
    TAGS,
    TEST,
    TRAIN,
    VAL,
    load_corpus,
    parse_log,
    save_corpus,
)
from ctxrec.predictor import build_session_features
from ctxrec.synth import SynthSpec, generate, planted_labels
from reference_corpus import parsed_interactions, session_split
from conftest import column_sessions as sessionize, corpus_from_rows, synth_corpus


def filter_users(interactions, min_count):
    """``filter_log`` on ``Interaction`` rows, as rows."""
    user, item, ts = (np.array(c, dtype=np.intp) for c in
                      zip(*[(it.user_id, it.item_id, it.timestamp) for it in interactions]))
    keys = [str(k) for k in range(max(user.max(), item.max()) + 1)]
    return parsed_interactions(filter_log(ParsedLog(user, item, ts, keys, keys), min_count))


class TestParseLog:
    def test_id_compaction(self):
        parsed = parse_log(["9,100,5", "42,100,9", "9,101,7"])
        assert len(parsed_interactions(parsed)) == 3
        assert {it.user_id for it in parsed_interactions(parsed)} == {0, 1}
        assert parsed.user_keys == ["9", "42"]
        assert parsed.item_keys == ["100", "101"]

    def test_first_three_columns_read_and_later_ones_ignored(self):
        parsed = parse_log(["9,100,5,x,y", "9,101,7,", "9,102,8,3,4,5"])
        assert parsed.user_keys == ["9"]
        assert parsed.item_keys == ["100", "101", "102"]
        assert parsed.timestamp.tolist() == [5, 7, 8]

    def test_wrong_arity_reports_line(self):
        with pytest.raises(LogParseError, match="line 2"):
            parse_log(["1,2,3", "a,b"])

    def test_non_numeric_timestamp(self):
        with pytest.raises(LogParseError, match="timestamp"):
            parse_log(["1,2,notatime"])

    def test_skip_mode_drops_bad_rows(self):
        with pytest.warns(UserWarning):
            parsed = parse_log(["1,2,3", "bad", "1,3,4"], on_error="skip")
        assert len(parsed_interactions(parsed)) == 2

    def test_equal_timestamps_keep_input_order(self):
        parsed = parse_log(["1,10,5", "1,11,5", "1,12,5"])
        assert [it.item_id for it in parsed_interactions(parsed)] == [0, 1, 2]

    def test_sorted_per_user_by_time(self):
        parsed = parse_log(["1,10,9", "1,11,5", "2,10,7", "1,12,6"])
        times = [it.timestamp for it in parsed_interactions(parsed) if it.user_id == 0]
        assert times == sorted(times)

    def test_header_and_float_timestamps(self):
        schema = ColumnSchema(has_header=True)
        parsed = parse_log(["user,item,time", "1,2,3.7"], schema)
        assert parsed_interactions(parsed)[0].timestamp == 3

    def test_custom_delimiter(self):
        parsed = parse_log(["1\t2\t3"], ColumnSchema(delimiter="\t"))
        assert len(parsed_interactions(parsed)) == 1

    @pytest.mark.parametrize("stamp, error", [
        ("1e400", "outside the 64-bit integer range"), ("inf", "outside the 64-bit"),
        ("-inf", "outside the 64-bit"), ("9223372036854775808", "outside the 64-bit"),
        ("nan", "non-numeric timestamp")])
    def test_unrepresentable_timestamp_is_a_row_error(self, stamp, error):
        rows = ["1,2,3", f"1,3,{stamp}", "1,4,5"]
        with pytest.raises(LogParseError, match=f"^line 2: .*{error}"):
            parse_log(rows)
        with pytest.warns(UserWarning, match=f"line 2: .*{error}"):
            parsed = parse_log(rows, on_error="skip")
        assert [it.timestamp for it in parsed_interactions(parsed)] == [3, 5]

    def test_int64_extremes_are_kept(self):
        parsed = parse_log(["1,2,-9223372036854775808", "1,3,9223372036854775807"])
        assert parsed.timestamp.tolist() == [-2 ** 63, 2 ** 63 - 1]

    def test_undecodable_byte_is_a_row_error(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(b"1,2,3\n1,\xff9,4\n1,4,5\n")
        with pytest.raises(LogParseError, match="^line 2: byte 0xff is not UTF-8"):
            parse_log(path)
        with pytest.warns(UserWarning, match="line 2: byte 0xff"):
            parsed = parse_log(path, on_error="skip")
        assert [it.timestamp for it in parsed_interactions(parsed)] == [3, 5]

    def test_file_lines_are_cut_as_str_splitlines_cuts_them(self, tmp_path):
        """A file's line boundaries, and so its line numbers, are those of
        its decoded text's ``splitlines``, which also cuts at characters
        that ``bytes.splitlines`` does not."""
        seps = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029"]
        text = "".join(f"u{k},é{k},{k}{sep}" for k, sep in enumerate(seps)) + "bad"
        path = tmp_path / "log.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(LogParseError, match=f"^line {len(seps) + 1}: expected >= 3"):
            parse_log(path)
        with pytest.warns(UserWarning):
            got = parse_log(path, on_error="skip")
        with pytest.warns(UserWarning):
            want = parse_log(text.splitlines(), on_error="skip")
        assert got.user_keys == want.user_keys and got.item_keys == want.item_keys
        assert len(got.item_keys) == len(seps)
        assert np.array_equal(got.timestamp, want.timestamp)


_CELL = st.one_of(
    st.integers(-2 ** 70, 2 ** 70).map(str), st.floats().map(str),
    st.sampled_from(["1e400", "-1e400", "inf", "-inf", "nan", "1.5", "", " ", "u"]),
).map(str.encode)
_ROW = st.lists(st.one_of(_CELL, st.sampled_from([b"\xff", b"\xc3", b",", b"\t"])),
                max_size=5).map(b",".join)


@settings(max_examples=100, deadline=None)
@given(st.lists(_ROW, max_size=8))
def test_any_log_parses_or_names_its_line(rows):
    """Rows of ints, floats, infinities, NaNs, huge values, non-UTF-8
    bytes, short rows and stray delimiters: abort mode gives a log or one
    row's LogParseError; skip mode keeps every row that abort mode accepts
    and warns once for each row it drops."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_bytes(b"\n".join(rows))
        lines = path.read_bytes().decode("utf-8", "surrogateescape").splitlines()
        try:
            parse_log(path)
        except LogParseError as exc:
            assert 1 <= exc.lineno <= len(lines)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parsed = parse_log(path, on_error="skip")
    kept = sum(1 for line in lines if line.strip())
    assert len(parsed.user_of) + len(caught) == kept
    assert all(re.match(r"skipping malformed row: line \d+: ", str(w.message)) for w in caught)


class TestFilterUsers:
    def _user(self, uid, n, item=0):
        return [Interaction(uid, item, 100 * k) for k in range(n)]

    def test_nine_removed_ten_retained(self):
        inter = self._user(0, 9) + self._user(1, 10)
        out = filter_users(inter, 10)
        assert {it.user_id for it in out} == {0}
        assert len(out) == 10

    def test_all_below_threshold(self):
        assert filter_users(self._user(0, 3), 10) == []

    def test_ids_recompacted(self):
        inter = self._user(0, 2) + self._user(1, 10, item=7) + self._user(2, 11, item=9)
        out = filter_users(inter, 10)
        assert {it.user_id for it in out} == {0, 1}
        assert {it.item_id for it in out} == {0, 1}


class TestSessionize:
    def test_threshold_split(self):
        inter = [Interaction(0, 1, 0), Interaction(0, 2, 1800), Interaction(0, 3, 7200)]
        sessions = sessionize(inter, 3600)
        assert [s.items for s in sessions] == [(1, 2), (3,)]
        assert sessions[0].duration == 1800
        assert sessions[0].gap_to_next == 7200 - 1800
        assert sessions[1].gap_to_next is None

    def test_gap_exactly_threshold_stays(self):
        inter = [Interaction(0, 1, 0), Interaction(0, 2, 3600)]
        assert len(sessionize(inter, 3600)) == 1

    def test_empty(self):
        assert sessionize([]) == []

    def test_session_ids_grouped_by_user_then_time(self):
        inter = [Interaction(1, 1, 0), Interaction(0, 1, 50),
                 Interaction(0, 1, 99999)]
        sessions = sessionize(inter)
        assert [(s.session_id, s.user_id) for s in sessions] == [
            (0, 0), (1, 0), (2, 1)]

    def test_round_trip_reproduces_stream(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = 0
            inter = []
            for _ in range(rng.integers(1, 40)):
                t += int(rng.integers(1, 8000))
                inter.append(Interaction(0, int(rng.integers(10)), t))
            sessions = sessionize(inter, 3600)
            flat = [i for s in sessions for i in s.items]
            assert flat == [it.item_id for it in inter]

    def test_matches_gap_scan_oracle(self):
        # smaller copy of the acceptance oracle run
        rng = np.random.default_rng(1)
        for _ in range(200):
            streams = {}
            for u in range(rng.integers(1, 4)):
                t = int(rng.integers(0, 1000))
                streams[u] = []
                for _ in range(rng.integers(1, 30)):
                    t += int(rng.integers(0, 7500))
                    streams[u].append(t)
            inter = [Interaction(u, 0, t) for u in sorted(streams)
                     for t in streams[u]]
            got = [(s.user_id, s.start, s.end, s.length)
                   for s in sessionize(inter, 3600)]
            expected = []
            for u in sorted(streams):
                run = [streams[u][0]]
                for t in streams[u][1:]:
                    if t - run[-1] > 3600:
                        expected.append((u, run[0], run[-1], len(run)))
                        run = [t]
                    else:
                        run.append(t)
                expected.append((u, run[0], run[-1], len(run)))
            assert got == expected


class TestSplit:
    def _rows(self, n, user=0):
        return [(user, k % 3, k * 100) for k in range(n)]

    def test_twenty_interactions(self):
        corpus = corpus_from_rows(self._rows(20))
        counts = {tag: corpus.splits.count(tag) for tag in (TRAIN, VAL, TEST)}
        assert counts == {TRAIN: 16, VAL: 2, TEST: 2}

    def test_ten_interactions(self):
        corpus = corpus_from_rows(self._rows(10))
        counts = {tag: corpus.splits.count(tag) for tag in (TRAIN, VAL, TEST)}
        assert counts == {TRAIN: 8, VAL: 1, TEST: 1}

    def test_eleven_interactions_floor(self):
        corpus = corpus_from_rows(self._rows(11))
        counts = {tag: corpus.splits.count(tag) for tag in (TRAIN, VAL, TEST)}
        assert counts == {TRAIN: 8, VAL: 1, TEST: 2}

    def test_chronological_monotonicity(self):
        rng = np.random.default_rng(2)
        rows = []
        for u in range(5):
            t = 0
            for _ in range(int(rng.integers(10, 40))):
                t += int(rng.integers(1, 5000))
                rows.append((u, int(rng.integers(5)), t))
        corpus = corpus_from_rows(rows)
        for u in range(5):
            by_tag = {TRAIN: [], VAL: [], TEST: []}
            for k, it in enumerate(corpus.interactions):
                if it.user_id == u:
                    by_tag[corpus.splits[k]].append(it.timestamp)
            assert max(by_tag[TRAIN]) <= min(by_tag[VAL])
            assert max(by_tag[VAL]) <= min(by_tag[TEST])

    def test_straddling_session_keeps_one_id(self):
        # 10 interactions, all within one session: the test tail shares the id
        corpus = corpus_from_rows([(0, k % 2, k * 10) for k in range(10)])
        assert corpus.num_sessions == 1
        assert set(corpus.session_of) == {0}
        assert corpus.splits[-1] == TEST
        assert session_split(corpus, 0) == TEST

    def test_session_split_tags(self):
        # sessions of 2, gaps 10000: 20 interactions -> 10 sessions;
        # split 16/2/2 puts val inside session 8 and test inside session 9
        rows = []
        t = 0
        for k in range(20):
            t += 10 if k % 2 else 10000
            rows.append((0, k % 3, t))
        corpus = corpus_from_rows(rows)
        assert corpus.num_sessions == 10
        tags = [session_split(corpus, s) for s in range(10)]
        assert tags == [TRAIN] * 8 + [VAL, TEST]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                max_size=60))
def test_sessionize_boundaries_property(gaps):
    t = 0
    inter = []
    for g in gaps:
        t += g
        inter.append(Interaction(0, 0, t))
    sessions = sessionize(inter, 3600)
    # within-session gaps <= threshold, across-boundary gaps > threshold
    for s in sessions:
        times = [it.timestamp for it in inter
                 if s.start <= it.timestamp <= s.end][:s.length]
        assert len(times) == s.length
        assert all(b - a <= 3600 for a, b in zip(times, times[1:]))
    starts = [s.start for s in sessions]
    ends = [s.end for s in sessions]
    for a_end, b_start in zip(ends, starts[1:]):
        assert b_start - a_end > 3600
    assert sum(s.length for s in sessions) == len(inter)


def test_corpus_save_load_round_trip(tmp_path):
    corpus = corpus_from_rows([(0, k % 4, k * 1000) for k in range(12)]
                              + [(1, k % 3, k * 2500) for k in range(11)])
    path = tmp_path / "corpus.npz"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded.interactions == corpus.interactions
    assert loaded.splits == corpus.splits
    assert loaded.sessions == corpus.sessions
    assert loaded.session_of == corpus.session_of


# (user, item, gap) rows; each user's timestamps strictly increase
_logs = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 12),
                           st.integers(1, 9000)), min_size=1, max_size=80)


def _timed_rows(log):
    clock: dict[int, int] = {}
    rows = []
    for user, item, gap in log:
        clock[user] = clock.get(user, 0) + gap
        rows.append((user, item, clock[user]))
    return rows


@settings(max_examples=30, deadline=None)
@given(_logs)
def test_save_load_round_trip_property(log):
    lines = [f"u{u},i{i},{t}" for u, i, t in _timed_rows(log)]
    corpus = build_corpus(parse_log(lines), min_count=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.npz"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
    assert loaded == corpus


@settings(max_examples=50, deadline=None)
@given(_logs)
def test_split_invariants_property(log):
    corpus = corpus_from_rows(_timed_rows(log))
    order = {TRAIN: 0, VAL: 1, TEST: 2}
    per_user: dict[int, list[tuple[int, str]]] = {}
    for it, tag in zip(corpus.interactions, corpus.splits):
        per_user.setdefault(it.user_id, []).append((it.timestamp, tag))
    for rows in per_user.values():
        # chronology: every train <= every val <= every test timestamp
        assert [t for t, _ in rows] == sorted(t for t, _ in rows)
        ranks = [order[tag] for _, tag in rows]
        assert ranks == sorted(ranks)
        n = len(rows)
        train_val = math.floor(0.9 * n)
        val = max(1, round(0.1 * train_val)) if train_val else 0
        tags = [tag for _, tag in rows]
        assert tags.count(TRAIN) + tags.count(VAL) == train_val
        assert tags.count(VAL) == val


# -- the column path against the object-level oracle (reference_corpus) -----

_GAPS = {"tie": lambda thr, g: 0, "at-threshold": lambda thr, g: thr,
         "over-threshold": lambda thr, g: thr + 1, "drawn": lambda thr, g: g}

# (user, item, gap kind, drawn gap, float timestamp) rows of one log
_raw_rows = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 12), st.sampled_from(list(_GAPS)),
                               st.integers(0, 9000), st.booleans()), max_size=80)


def _log_lines(rows, idle_threshold: int, header: bool) -> list[str]:
    clock: dict[int, int] = {}
    lines = ["user,item,time"] if header else []
    for user, item, kind, gap, as_float in rows:
        clock[user] = clock.get(user, 1_600_000_000) + _GAPS[kind](idle_threshold, gap)
        lines.append(f"u{user},i{item},{clock[user]}" + (".75" if as_float else ""))
    return lines


def _parse_oracle(lines: list[str], header: bool) -> tuple[list[Interaction], list, list]:
    """Interactions, user keys and item keys that a log parser must give."""
    rows = [line.split(",") for line in lines[header:]]
    user_keys = list(dict.fromkeys(u for u, _, _ in rows))
    item_keys = list(dict.fromkeys(i for _, i, _ in rows))
    inter = [Interaction(user_keys.index(u), item_keys.index(i), int(float(t)))
             for u, i, t in rows]
    return sorted(inter, key=lambda it: (it.user_id, it.timestamp)), user_keys, item_keys


@settings(max_examples=60, deadline=None)
@given(_raw_rows, st.sampled_from([0, 5, 3600]), st.integers(1, 8), st.booleans())
def test_column_path_matches_object_oracle(rows, idle_threshold, min_count, header):
    lines = _log_lines(rows, idle_threshold, header)
    parsed = parse_log(lines, ColumnSchema(has_header=header))
    assert (parsed_interactions(parsed), parsed.user_keys, parsed.item_keys) == _parse_oracle(
        lines, header)
    corpus = build_corpus(parsed, idle_threshold, min_count)
    oracle = reference_corpus.build_corpus(parsed, idle_threshold, min_count)
    reference_corpus.assert_same_corpus(corpus, oracle)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.npz"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
    assert loaded == corpus
    reference_corpus.assert_same_corpus(loaded, oracle)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 9), st.integers(0, 8000)),
                max_size=60),
       st.sampled_from([(0.9, 0.1), (0.5, 0.25), (0.8, 0.5)]))
def test_split_columns_matches_oracle(rows, fracs):
    """Uncompacted ids: the counts are the largest id plus one."""
    inter = sorted((Interaction(*row) for row in rows), key=lambda it: (it.user_id, it.timestamp))
    train_frac, val_frac = fracs
    corpus = corpus_from_rows(rows, train_frac=train_frac, val_frac_of_train=val_frac)
    reference_corpus.assert_same_corpus(corpus, reference_corpus.split(
        inter, train_frac=train_frac, val_frac_of_train=val_frac))


# -- a cut, corrupt or inconsistent corpus file gives an error that names it -

@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    """A small corpus and the bytes of its file."""
    tmp = tmp_path_factory.mktemp("corpus_file")
    corpus, *_ = synth_corpus(tmp, num_users=4, sessions_per_user=6, seed=3)
    save_corpus(corpus, tmp / "corpus.npz")
    return corpus, (tmp / "corpus.npz").read_bytes()


# the members of a corpus file in file order: the header members, then the
# interaction columns, then the session column
MEMBERS = ("format_version", "num_users", "num_items", "user_keys", "item_keys",
           "user_of", "item_of", "timestamp", "split", "session_start")


def _load_error(path: Path) -> str:
    with pytest.raises(ValueError) as err:
        load_corpus(path)
    assert str(path) in str(err.value)
    return str(err.value)


def _record_spans(data: bytes) -> dict[str, tuple[int, int]]:
    """The (start, stop) bytes of each record of a corpus file, in file
    order: its members by array name, then ``directory`` (the zip central
    directory) and ``end`` (the end-of-directory record)."""
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        starts = {info.filename.removesuffix(".npy"): info.header_offset
                  for info in zf.infolist()}
        starts["directory"] = zf.start_dir
    starts["end"] = data.rfind(b"PK\x05\x06")
    bounds = sorted(starts.values()) + [len(data)]
    return {name: (start, bounds[bounds.index(start) + 1]) for name, start in starts.items()}


def _members(data: bytes) -> dict[str, np.ndarray]:
    with np.load(io.BytesIO(data)) as npz:
        return {name: npz[name] for name in npz.files}


def _write_members(path: Path, members: dict) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def test_whole_file_loads(corpus_file, tmp_path):
    corpus, data = corpus_file
    path = tmp_path / "corpus.npz"
    path.write_bytes(data)
    assert load_corpus(path) == corpus
    assert list(_record_spans(data)) == list(MEMBERS) + ["directory", "end"]


# A "line" of the file is one of its records: the header members, the
# interaction columns, the session column, the directory and the end record.
@pytest.mark.parametrize("keep", ["header", "some-interactions", "all-interactions",
                                  "some-sessions", "all-but-one-line"])
def test_cut_at_a_line_boundary_is_named(corpus_file, tmp_path, keep):
    _, data = corpus_file
    first_dropped = {"header": "user_of", "some-interactions": "timestamp",
                     "all-interactions": "session_start", "some-sessions": "directory",
                     "all-but-one-line": "end"}[keep]
    path = tmp_path / "corpus.npz"
    path.write_bytes(data[:_record_spans(data)[first_dropped][0]])
    _load_error(path)


@pytest.mark.parametrize("line", ["format_version", "user_of", "session_start"],
                         ids=["header", "interaction", "last-session"])
def test_cut_inside_a_line_is_named(corpus_file, tmp_path, line):
    _, data = corpus_file
    start, stop = _record_spans(data)[line]
    path = tmp_path / "corpus.npz"
    path.write_bytes(data[:(start + stop) // 2])
    _load_error(path)


def test_cut_anywhere_is_named(corpus_file, tmp_path):
    _, data = corpus_file
    path = tmp_path / "corpus.npz"
    for cut in range(0, len(data), 37):
        path.write_bytes(data[:cut])
        _load_error(path)


@pytest.mark.parametrize("member", MEMBERS)
def test_dropped_member_is_named(corpus_file, tmp_path, member):
    _, data = corpus_file
    members = _members(data)
    del members[member]
    path = tmp_path / "corpus.npz"
    _write_members(path, members)
    assert member in _load_error(path).split(": ", 1)[1]


def test_format_version_1_is_refused(corpus_file, tmp_path):
    _, data = corpus_file
    path = tmp_path / "corpus.npz"
    _write_members(path, {**_members(data), "format_version": np.array(1)})
    assert "unsupported corpus format 1" in _load_error(path)


# edit id: (an in-place edit of the stored arrays, the failed check it
# names); each breaks one load check
_EDITS = {
    "session-items": (lambda m: np.put(m["item_of"], 0, m["num_items"]), "outside the counts"),
    "session-start": (lambda m: np.put(m["session_start"], 1, 0), "rise strictly"),
    "gap": (lambda m: np.put(m["timestamp"], 1, m["timestamp"][0] - 1),
            r"\(user, time\) order"),
    "position": (lambda m: np.put(m["session_start"], 0, 1), "start at 0"),
    "item-count": (lambda m: m.update(num_items=np.array(1), item_keys=m["item_keys"][:1]),
                   "outside the counts"),
    "row-type": (lambda m: m.update(timestamp=m["timestamp"].astype(float)), "1-D ints"),
    "extra-session": (lambda m: m.update(session_start=np.append(
        m["session_start"], len(m["user_of"]))), "below the interaction count"),
    "no-sessions": (lambda m: m.update(session_start=m["session_start"][:0]), "start at 0"),
    "short-column": (lambda m: m.update(split=m["split"][:-1]), "one per interaction"),
    "two-dim": (lambda m: m.update(user_of=m["user_of"][:, None]), "1-D ints"),
    "negative-user": (lambda m: np.put(m["user_of"], 0, -1), "outside the counts"),
    "split-code": (lambda m: np.put(m["split"], 0, len(TAGS)), "split code"),
    "user-order": (lambda m: np.put(m["user_of"], -1, 0), r"\(user, time\) order"),
    "user-change": (lambda m: m.update(session_start=np.setdiff1d(
        m["session_start"], np.flatnonzero(np.diff(m["user_of"])) + 1)), "spans two users"),
    "count-type": (lambda m: m.update(num_users=m["num_users"].astype(float)), "counts"),
    "negative-count": (lambda m: m.update(num_items=np.array(-1)), "counts"),
    "keys": (lambda m: m.update(user_keys=m["user_keys"][:-1]), "raw keys"),
}


@pytest.mark.parametrize("edit", list(_EDITS))
def test_inconsistent_rows_are_named(corpus_file, tmp_path, edit):
    _, data = corpus_file
    members = _members(data)
    change, message = _EDITS[edit]
    change(members)
    path = tmp_path / "corpus.npz"
    _write_members(path, members)
    assert re.search(message, _load_error(path))


def test_flipped_bit_is_refused_or_harmless(corpus_file, tmp_path):
    """A one-bit flip anywhere in the file gives a named error (the member
    CRC-32s, the zip structure and the load checks) or the same corpus."""
    corpus, data = corpus_file
    path = tmp_path / "corpus.npz"
    refused = 0
    for k in range(0, len(data), 3):
        flipped = bytearray(data)
        flipped[k] ^= 1 << (k % 8)
        path.write_bytes(flipped)
        try:
            loaded = load_corpus(path)
        except ValueError as exc:
            assert str(path) in str(exc)
            refused += 1
        else:
            assert loaded == corpus, k
    assert refused > len(data) // 3 // 2


# -- the generator ------------------------------------------------------------

def _benchmark_spec(name: str, tmp: Path) -> SynthSpec:
    """The generator spec that the benchmark's workload ``name`` uses at seed 1."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    return WORKLOADS[name].synth_spec(1, tmp)


@pytest.mark.parametrize("spec", ["default", "pinned", "long-wide", "one-item-per-context"])
def test_generate_writes_the_choice_oracle_bytes(tmp_path, spec):
    spec = {"default": lambda: SynthSpec(),
            "one-item-per-context": lambda: SynthSpec(items_per_context=1)}.get(
        spec, lambda: _benchmark_spec(spec, tmp_path))()
    sidecar = generate(spec, tmp_path / "log.csv", tmp_path / "labels.json")
    expected = reference_corpus.generate(spec, tmp_path / "ref.csv", tmp_path / "ref.json")
    assert sidecar == expected
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "labels.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


# -- no stage builds a per-row object ---------------------------------------

def test_stages_build_no_row_objects(tmp_path, monkeypatch):
    spec = SynthSpec(num_users=8, num_contexts=3, items_per_context=6, sessions_per_user=8,
                     seed=3)
    sidecar = generate(spec, tmp_path / "log.csv")
    cfg = PipelineConfig(num_contexts=3, top_k_contexts=2, user_dim=4, item_dim=4,
                         context_dim=4, session_emb_dim=4, lstm_hidden=4, graph_base_dim=4,
                         graph_epochs=1, graph_batch=64, batch=64, max_epochs=1, patience=1,
                         repetitions=2, seed=1)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built")

    monkeypatch.setattr(Interaction, "__init__", refuse)
    monkeypatch.setattr(Session, "__init__", refuse)
    ws = pipeline.Workspace(cfg, tmp_path / "work")
    pipeline.run_ingest(ws, tmp_path / "log.csv")
    for stage in ("embed", "contextualize", "train_context", "train_next", "ablate"):
        getattr(pipeline, f"run_{stage}")(ws)
    corpus, _, _, embeddings, _ = pipeline.load_encoder(ws)
    build_session_features(corpus, embeddings)
    planted_labels(sidecar, corpus)
    with pytest.raises(AssertionError, match="Interaction built"):
        corpus.interactions
