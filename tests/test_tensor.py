import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctxrec.nn import (
    Adam,
    BiLstm,
    DenseLayer,
    EmbeddingTable,
    Parameter,
    backward,
    clip_global_norm,
    constant,
    finite_diff_check,
    load_checkpoint,
    save_checkpoint,
    softmax,
    softmax_cross_entropy,
)
import reference_bilstm
import reference_graph
import reference_models
from ctxrec.nn import engine
from ctxrec.nn.checkpoint import load_arrays, load_params
from ctxrec.nn.layers import window_sources
from conftest import nnck_checkpoint_bytes


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_closed_form(self):
        assert np.allclose(softmax(np.array([math.log(2.0), 0.0])),
                           [2 / 3, 1 / 3])

    def test_large_logits_no_overflow(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(p).all()
        assert p[0] > 0.999999 and p[1] < 1e-6

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([np.nan, 0.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=20),
           st.floats(-100, 100))
    def test_sums_to_one_and_shift_invariant(self, logits, shift):
        x = np.array(logits)
        p = softmax(x)
        assert (p > 0).all()
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.abs(p - softmax(x + shift)).max() <= 1e-12


class TestCrossEntropy:
    """The loss value of softmax_cross_entropy, from logits."""

    def _loss(self, logits, true_index):
        return float(softmax_cross_entropy(constant(np.array(logits)), true_index).value)

    def test_perfect_prediction(self):
        # exp(-1000) underflows to 0, so the true class gets probability 1
        assert self._loss([-1000.0, 0.0], 1) == 0.0

    def test_closed_form(self):
        # probabilities (1/4, 3/4)
        assert abs(self._loss([0.0, math.log(3.0)], 0) - math.log(4)) < 1e-12

    def test_clamp(self):
        assert self._loss([-1000.0, 0.0], 0) == -math.log(1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            self._loss([0.0, 0.0], 2)


def _reference_bilstm(lstm: BiLstm, xs: np.ndarray) -> np.ndarray:
    """Independent step-by-step cell: per-gate slices, explicit recurrences."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    def run(d, seq):
        h = np.zeros(d.hidden_dim)
        c = np.zeros(d.hidden_dim)
        n = d.hidden_dim
        for x in seq:
            z = d.w_in.value @ x + d.w_rec.value @ h + d.bias.value
            i, f, g, o = sig(z[:n]), sig(z[n:2 * n]), np.tanh(z[2 * n:3 * n]), sig(z[3 * n:])
            c = f * c + i * g
            h = o * np.tanh(c)
        return h

    return np.concatenate([run(lstm.fwd, xs), run(lstm.bwd, xs[::-1])])


def _run(lstm: BiLstm, xs: np.ndarray) -> np.ndarray:
    """Inference-only encoding of a raw (T, input_dim) array."""
    with engine.no_grad():
        return lstm.forward(engine.Var(xs)).value


class TestBiLstm:
    def test_zero_parameters_give_zero_output(self):
        lstm = BiLstm("z", 3, 4, np.random.default_rng(0))
        for p in lstm.params():
            p.value[...] = 0.0
        out = _run(lstm, np.random.default_rng(1).normal(size=(6, 3)))
        assert np.all(out == 0.0)

    def test_identical_directions_on_length_one(self):
        rng = np.random.default_rng(2)
        lstm = BiLstm("s", 3, 4, rng)
        for pf, pb in zip(lstm.fwd.params(), lstm.bwd.params()):
            pb.value[...] = pf.value
        out = _run(lstm, rng.normal(size=(1, 3)))
        assert np.array_equal(out[:4], out[4:])

    def test_matches_independent_reference_cell(self):
        rng = np.random.default_rng(3)
        lstm = BiLstm("r", 2, 2, rng)
        xs = rng.normal(size=(3, 2))
        assert np.abs(_run(lstm, xs) - _reference_bilstm(lstm, xs)).max() < 1e-10

    def test_reversed_sequence_swaps_halves(self):
        rng = np.random.default_rng(4)
        a = BiLstm("a", 3, 5, rng)
        b = BiLstm("b", 3, 5, rng)
        # b gets a's directions swapped
        for pb, pa in zip(b.fwd.params(), a.bwd.params()):
            pb.value[...] = pa.value
        for pb, pa in zip(b.bwd.params(), a.fwd.params()):
            pb.value[...] = pa.value
        xs = rng.normal(size=(7, 3))
        out_a = _run(a, xs)
        out_b = _run(b, xs[::-1])
        assert np.allclose(out_a[:5], out_b[5:], atol=1e-12)
        assert np.allclose(out_a[5:], out_b[:5], atol=1e-12)

    def test_empty_sequence_rejected(self):
        lstm = BiLstm("e", 3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="auxiliary"):
            _run(lstm, np.zeros((0, 3)))


def _bilstm_grads(lstm, build, seqs):
    """Output and input and parameter gradients of sum(out * weights)."""
    for p in lstm.params():
        p.zero_grad()
    out, weights = build()
    backward(reference_graph.vsum(reference_graph.dot_last(out, constant(weights))))
    return out.value, seqs.grad, [p.grad.copy() for p in lstm.params()]


class TestBatchedBiLstm:
    """``encode`` on a padded batch against ``forward`` on each sequence."""

    @pytest.mark.parametrize("lengths", [[6, 2, 1, 6, 3, 2], [4, 4, 4]],
                             ids=["mixed", "equal"])
    def test_rows_match_single_sequence_forward(self, lengths):
        rng = np.random.default_rng(9)
        lstm = BiLstm("k", 3, 4, rng)
        lengths = np.array(lengths)
        xs = rng.normal(size=(len(lengths), lengths.max(), 3))
        weights = rng.normal(size=(len(lengths), 8))
        batch = constant(xs)
        out, dx, dparams = _bilstm_grads(
            lstm, lambda: (lstm.encode(batch, lengths), weights), batch)

        single_dparams = [np.zeros_like(p.value) for p in lstm.params()]
        for b, n in enumerate(lengths):
            seq = constant(xs[b, :n])
            row, row_dx, row_dparams = _bilstm_grads(
                lstm, lambda: (lstm.forward(seq), weights[b]), seq)
            assert np.abs(row - out[b]).max() < 1e-10
            assert np.abs(row_dx - dx[b, :n]).max() < 1e-10
            assert np.all(dx[b, n:] == 0.0)  # padding
            for acc, g in zip(single_dparams, row_dparams):
                acc += g
        for acc, g in zip(single_dparams, dparams):
            assert np.abs(acc - g).max() < 1e-10

    def test_forward_matches_per_step_reference(self):
        """``forward`` against the one-sequence BiLSTM it replaced, in
        output, input gradient and every parameter gradient."""
        rng = np.random.default_rng(13)
        lstm = BiLstm("old", 3, 4, rng)
        xs = rng.normal(size=(7, 3))
        weights = rng.normal(size=8)
        seq = constant(xs)
        out, dx, dparams = _bilstm_grads(lstm, lambda: (lstm.forward(seq), weights), seq)
        for p in lstm.params():
            p.zero_grad()
        ref_out, caches = reference_models.bilstm_forward(lstm, xs)
        ref_dx = reference_models.bilstm_backward(lstm, caches, weights)
        assert np.abs(out - ref_out).max() < 1e-10
        assert np.abs(dx - ref_dx).max() < 1e-10
        for p, g in zip(lstm.params(), dparams):
            assert np.abs(p.grad - g).max() < 1e-10, p.name

    def test_single_row_batch_is_forward(self):
        rng = np.random.default_rng(10)
        lstm = BiLstm("one", 3, 4, rng)
        xs = rng.normal(size=(5, 3))
        out = lstm.encode(constant(xs[None]), [5]).value[0]
        assert np.array_equal(out, lstm.forward(constant(xs)).value)

    def test_lengths_validated(self):
        lstm = BiLstm("v", 3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="lengths"):
            lstm.encode(constant(np.zeros((2, 3, 3))), [3, 0])
        with pytest.raises(ValueError, match="lengths"):
            lstm.encode(constant(np.zeros((2, 3, 3))), [4, 1])

    def test_no_grad_keeps_no_cache(self):
        lstm = BiLstm("n", 3, 4, np.random.default_rng(0))
        xs = np.random.default_rng(1).normal(size=(4, 3))
        with engine.no_grad():
            out = lstm.forward(constant(xs))
        assert np.array_equal(out.value, lstm.forward(constant(xs)).value)
        with pytest.raises(RuntimeError, match="no_grad"):
            backward(reference_graph.vsum(out))

    def test_gradient_check_on_mixed_lengths(self):
        rng = np.random.default_rng(11)
        lstm = BiLstm("gc", 3, 4, rng)
        xs = rng.normal(size=(3, 5, 3))
        weights = rng.normal(size=(3, 8))

        def build():
            out = lstm.encode(constant(xs), [5, 1, 3])
            return reference_graph.vsum(reference_graph.dot_last(out, constant(weights)))

        report = finite_diff_check(build, lstm.params(), tolerance=1e-4,
                                   rng=np.random.default_rng(12))
        assert report.passed, str(report)
        assert not finite_diff_check(build, lstm.params(), tolerance=1e-4,
                                     rng=np.random.default_rng(12),
                                     gradient_scale=2.0).passed


def _oracle_grads(lstm, xs, lengths, g):
    """Output, input gradient and parameter gradients of the per-row kernel
    that the prefix-state kernel replaced, for output gradient ``g``."""
    for p in lstm.params():
        p.zero_grad()
    out, grad_in = reference_bilstm.bilstm_run(lstm, xs, lengths)
    dx = grad_in(g)
    return out, dx, [p.grad.copy() for p in lstm.params()]


def _rel_err(a, ref):
    return np.abs(np.asarray(a) - ref).max() / max(np.abs(ref).max(), 1e-300)


# Source lengths 7, 3, 1 and 5 over T = 7. Source 0 runs past its longest
# row (end 5), rows 1 and 2 both read (source 0, end 4), and source 2 has a
# single step.
SHARED_LENGTHS = np.array([7, 3, 1, 5])
SHARED_SRC = np.array([0, 0, 0, 1, 1, 2, 3, 0, 3])
SHARED_ENDS = np.array([5, 4, 4, 3, 1, 1, 5, 1, 2])


class TestPrefixStateBiLstm:
    """``encode`` over shared sources against the per-row kernel it replaced
    (``reference_bilstm``): own-source rows exactly, shared rows at 1e-10."""

    @pytest.mark.parametrize("lengths, T", [([6, 2, 1, 6, 3, 2], 6), ([4, 4, 4], 4),
                                            ([3, 1, 2], 5), ([5], 5)],
                             ids=["mixed", "equal", "padded-past-longest", "one-row"])
    def test_own_source_rows_equal_oracle_exactly(self, lengths, T):
        rng = np.random.default_rng(19)
        lstm = BiLstm("own", 3, 4, rng)
        lengths = np.array(lengths)
        xs = rng.normal(size=(len(lengths), T, 3))
        g = rng.normal(size=(len(lengths), 8))
        ref_out, ref_dx, ref_dparams = _oracle_grads(lstm, xs, lengths, g)
        for src in (None, np.arange(len(lengths))):
            batch = constant(xs)
            out, dx, dparams = _bilstm_grads(
                lstm, lambda: (lstm.encode(batch, lengths, src,
                                           None if src is None else lengths), g), batch)
            assert np.array_equal(out, ref_out)
            assert np.array_equal(dx, ref_dx)
            for got, ref in zip(dparams, ref_dparams):
                assert np.array_equal(got, ref)

    def test_forward_equals_oracle_exactly(self):
        rng = np.random.default_rng(20)
        lstm = BiLstm("one", 3, 4, rng)
        xs = rng.normal(size=(6, 3))
        g = rng.normal(size=8)
        seq = constant(xs)
        out, dx, dparams = _bilstm_grads(lstm, lambda: (lstm.forward(seq), g), seq)
        ref_out, ref_dx, ref_dparams = _oracle_grads(lstm, xs[None], None, g[None])
        assert np.array_equal(out, ref_out[0])
        assert np.array_equal(dx, ref_dx[0])
        for got, ref in zip(dparams, ref_dparams):
            assert np.array_equal(got, ref)

    # one reader per source, in permuted order and stopping short of sources
    # 0 and 2, takes the plain input-gradient scatter instead of the sum
    @pytest.mark.parametrize("lengths, src, ends", [
        (SHARED_LENGTHS, SHARED_SRC, SHARED_ENDS),
        (np.array([6, 2, 4]), np.array([2, 0, 1]), np.array([3, 5, 2]))],
        ids=["shared", "one-reader"])
    def test_rows_match_per_row_oracle(self, lengths, src, ends):
        rng = np.random.default_rng(21)
        lstm = BiLstm("shared", 3, 4, rng)
        xs = rng.normal(size=(len(lengths), lengths.max(), 3))
        g = rng.normal(size=(len(src), 8))
        batch = constant(xs)
        out, dx, dparams = _bilstm_grads(
            lstm, lambda: (lstm.encode(batch, lengths, src, ends), g), batch)
        ref_dx = np.zeros_like(xs)
        ref_dparams = [np.zeros_like(p.value) for p in lstm.params()]
        for b, (s, e) in enumerate(zip(src, ends)):
            row, row_dx, row_dparams = _oracle_grads(lstm, xs[s:s + 1, :e], None, g[b:b + 1])
            assert _rel_err(out[b], row[0]) <= 1e-10
            ref_dx[s, :e] += row_dx[0]
            for acc, rg in zip(ref_dparams, row_dparams):
                acc += rg
        assert _rel_err(dx, ref_dx) <= 1e-10
        last = np.zeros(len(lengths), dtype=int)
        np.maximum.at(last, src, ends)
        assert np.all(dx[np.arange(xs.shape[1]) >= last[:, None]] == 0.0)  # steps no row reads
        for p, got, ref in zip(lstm.params(), dparams, ref_dparams):
            assert _rel_err(got, ref) <= 1e-10, p.name

    @pytest.mark.parametrize("case", ["shared", "one-reader", "mixed", "random"])
    def test_input_gradient_equals_previous_kernel(self, case):
        """Every (source, step) cell sums its backward-direction gradients
        through the one ``engine.sum_rows``: against the kernel that summed
        every cell as one sparse product whenever a source had several
        readers, and scattered them otherwise (``prefix_state_run``),
        outputs, input and parameter gradients are equal exactly."""
        rng = np.random.default_rng(25)
        dim = 3
        if case == "shared":
            lengths, src, ends = SHARED_LENGTHS, SHARED_SRC, SHARED_ENDS
        elif case == "one-reader":
            lengths, src, ends = np.array([6, 2, 4]), np.array([2, 0, 1]), np.array([3, 5, 2])
        elif case == "mixed":  # source 1 has two readers, sources 0 and 2 one each
            lengths, src, ends = (np.array([3, 5, 2]), np.array([1, 0, 1, 2]),
                                  np.array([5, 3, 2, 2]))
        else:
            dim = 8
            src, ends = rng.integers(0, 12, 120), rng.integers(1, 9, 120)
            lengths = np.ones(12, dtype=int)
            np.maximum.at(lengths, src, ends)
        lstm = BiLstm("ig", dim, 4, rng)
        xs = rng.normal(size=(len(lengths), lengths.max(), dim))
        g = rng.normal(size=(len(src), 8))
        batch = constant(xs)
        out, dx, dparams = _bilstm_grads(
            lstm, lambda: (lstm.encode(batch, lengths, src, ends), g), batch)
        for p in lstm.params():
            p.zero_grad()
        ref_out, grad_in = reference_bilstm.prefix_state_run(lstm, xs, lengths, src, ends)
        ref_dx = grad_in(g)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(dx, ref_dx)
        for p, got in zip(lstm.params(), dparams):
            assert np.array_equal(got, p.grad), p.name

    @pytest.mark.parametrize("case", ["equal", "shared"])
    def test_data_batch_gets_parameter_gradients_only(self, case):
        """A plain-array batch is data: the node has no parent to pass an
        input gradient to, and its output and every parameter gradient equal
        those of the same batch as a constant node, bit for bit."""
        rng = np.random.default_rng(26)
        lstm = BiLstm("data", 3, 4, rng)
        args = (([4, 4, 4],) if case == "equal"
                else (SHARED_LENGTHS, SHARED_SRC, SHARED_ENDS))
        xs = rng.normal(size=(len(args[0]), max(args[0]), 3))
        g = rng.normal(size=(3 if case == "equal" else len(SHARED_SRC), 8))
        grads = []
        for batch in (constant(xs), xs):
            for p in lstm.params():
                p.zero_grad()
            out = lstm.encode(batch, *args)
            backward(reference_graph.vsum(reference_graph.dot_last(out, constant(g))))
            grads.append([out.value.tobytes()] + [p.grad.tobytes() for p in lstm.params()])
        assert out.parents == ()
        assert grads[0] == grads[1]

    def test_no_grad_shared_rows_equal_grad_mode(self):
        rng = np.random.default_rng(22)
        lstm = BiLstm("ng", 3, 4, rng)
        xs = rng.normal(size=(len(SHARED_LENGTHS), SHARED_LENGTHS.max(), 3))
        with engine.no_grad():
            out = lstm.encode(constant(xs), SHARED_LENGTHS, SHARED_SRC, SHARED_ENDS)
        assert np.array_equal(out.value, lstm.encode(
            constant(xs), SHARED_LENGTHS, SHARED_SRC, SHARED_ENDS).value)

    @pytest.mark.parametrize("S, T", [(1, 1), (1, 6), (4, 1), (5, 7)])
    def test_no_grad_equal_own_rows_equal_grad_mode(self, S, T):
        """Rows that each run all of their own source take the transposed
        packing under ``no_grad`` and the general one under gradients: the
        outputs are equal bit for bit."""
        rng = np.random.default_rng(24)
        lstm = BiLstm("tr", 3, 4, rng)
        xs = rng.normal(size=(S, T, 3))
        lengths = np.full(S, T)
        with engine.no_grad():
            inferred = lstm.encode(xs, lengths).value
        assert np.array_equal(inferred, lstm.encode(constant(xs), lengths).value)

    def test_gradient_check_on_shared_sources(self):
        rng = np.random.default_rng(23)
        lstm = BiLstm("gs", 3, 4, rng)
        xs = rng.normal(size=(len(SHARED_LENGTHS), SHARED_LENGTHS.max(), 3))
        weights = rng.normal(size=(len(SHARED_SRC), 8))

        def build():
            out = lstm.encode(constant(xs), SHARED_LENGTHS, SHARED_SRC, SHARED_ENDS)
            return reference_graph.vsum(reference_graph.dot_last(out, constant(weights)))

        report = finite_diff_check(build, lstm.params(), tolerance=1e-4,
                                   rng=np.random.default_rng(24))
        assert report.passed, str(report)
        assert not finite_diff_check(build, lstm.params(), tolerance=1e-4,
                                     rng=np.random.default_rng(24),
                                     gradient_scale=2.0).passed

    def test_sources_validated(self):
        lstm = BiLstm("sv", 3, 4, np.random.default_rng(0))
        xs = constant(np.zeros((2, 3, 3)))
        with pytest.raises(ValueError, match="ends"):
            lstm.encode(xs, [3, 2], [0, 1], [3, 3])
        with pytest.raises(ValueError, match="ends"):
            lstm.encode(xs, [3, 2], [0, 1], [0, 1])
        with pytest.raises(ValueError, match="src"):
            lstm.encode(xs, [3, 2], [0, 2], [1, 1])
        with pytest.raises(ValueError, match="src"):
            lstm.encode(xs, [3, 2], [0, 1], [1])
        with pytest.raises(ValueError, match="together"):
            lstm.encode(xs, [3, 2], [0, 1])


def test_window_sources_groups_rows():
    # key 5 reads (1, 2, 3, 4, 5, 6), key 7 reads (8, 9), key 9 reads (4,),
    # laid end to end in key order
    flat = np.array([1, 2, 3, 4, 5, 6, 8, 9, 4])
    offset = {5: 0, 7: 6, 9: 8}
    keys = [5, 5, 5, 7, 5, 9, 5, 7, 5]
    stops = [2, 3, 0, 0, 6, 1, 3, 2, 6]
    ids, valid, lengths, src, ends = window_sources(
        flat, [offset[k] for k in keys], stops, 3)
    spans = [tuple(row[ok]) for row, ok in zip(ids, valid)]
    # key 5 windows from 0 share a source up to its furthest stop; the
    # truncated window (4, 5, 6) is its own; both empty rows share one
    assert [spans[s][:e] for s, e in zip(src, ends)] == [
        (1, 2), (1, 2, 3), (), (), (4, 5, 6), (4,), (1, 2, 3), (8, 9), (4, 5, 6)]
    assert sorted(spans) == [(), (1, 2, 3), (4,), (4, 5, 6), (8, 9)]
    assert np.array_equal(lengths, [max(len(sp), 1) for sp in spans])
    assert ends[2] == ends[3] == 1 and src[2] == src[3]


@pytest.mark.parametrize("stop", [0, 1, 3, 6])
def test_window_sources_one_row_matches_grouped_rows(stop):
    """A lone row (built directly) reads the source that grouping gives the
    same row among others: same ids, mask, dtypes and length."""
    seq = (1, 2, 3, 4, 5, 6)
    one = window_sources(np.array(seq), [0], [stop], 3)
    many = window_sources(np.array(seq + (8, 9)), [0, 6], [stop, 2], 3)
    s = many[3][0]
    ids, valid = many[0][s, :many[2][s]], many[1][s, :many[2][s]]
    assert one[0].dtype == ids.dtype and one[1].dtype == valid.dtype
    assert np.array_equal(one[0], ids[None]) and np.array_equal(one[1], valid[None])
    assert [a.tolist() for a in one[2:]] == [[many[2][s]], [0], [many[4][0]]]


@pytest.mark.parametrize("seed", range(6))
def test_window_sources_match_loop_oracle(seed):
    """The flat-array grouping against the per-source loop it replaced
    (``reference_bilstm.window_sources``), exactly: the same sources in the
    same order, with the same ids, masks, lengths, src and ends."""
    rng = np.random.default_rng(seed)
    num_keys = int(rng.integers(1, 8))
    seqs = [tuple(rng.integers(0, 50, int(rng.integers(1, 12))).tolist())
            for _ in range(num_keys)]
    keys = rng.integers(0, num_keys, int(rng.integers(2, 40)))
    stops = [int(rng.integers(0, len(seqs[k]) + 1)) for k in keys]
    offsets = np.cumsum([0] + [len(seq) for seq in seqs])[keys]
    max_len = int(rng.integers(1, 6))
    got = window_sources(np.array(sum(seqs, ())), offsets, stops, max_len)
    ref = reference_bilstm.window_sources(keys, [seqs[k] for k in keys], stops, max_len)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestScatterAdd:
    """``engine.scatter_add`` is ``target += sum_rows(...)``, exactly: into
    a zero target that equals ``np.add.at``, into any other it adds the one
    sum of the rows."""

    @pytest.mark.parametrize("shape", [(40,), (10, 4), (800,), (200, 4)],
                             ids=["ids-1d", "ids-2d", "many-ids-1d", "many-ids-2d"])
    @pytest.mark.parametrize("start", ["zero", "nonzero"])
    def test_matches_add_at(self, shape, start):
        rng = np.random.default_rng(30)
        ids = rng.integers(0, 7, shape)  # most rows repeat
        rows = rng.normal(size=shape + (5,)) * 10.0 ** rng.integers(-6, 7, shape + (1,))
        target = np.zeros((9, 5)) if start == "zero" else rng.normal(size=(9, 5))
        if start == "zero":
            expected = target.copy()
            np.add.at(expected, ids, rows)
        else:
            expected = target + engine.sum_rows(ids.reshape(-1), rows.reshape(-1, 5), 9)
        engine.scatter_add(target, ids, rows)
        assert np.array_equal(target, expected)

    @pytest.mark.parametrize("width", [1, 3])
    def test_sum_rows_adds_in_index_order(self, width):
        # 1e16 + 1 - 1e16 is 0 in this order and 1 in others
        rows = np.repeat([[1e16], [1.0], [-1e16], [2.0]], width, axis=1)
        assert np.array_equal(engine.sum_rows(np.array([0, 0, 0, 1]), rows, 3),
                              np.repeat([[0.0], [2.0], [0.0]], width, axis=1))

    def test_index_rows_gradient_equals_add_at(self):
        """The gradient of a gather with repeated ids (and rows no id reads)
        is ``np.add.at`` into zeros, bit for bit."""
        rng = np.random.default_rng(32)
        x = constant(rng.normal(size=(9, 5)))
        ids = rng.integers(0, 7, 600)
        w = rng.normal(size=(600, 5)) * 10.0 ** rng.integers(-6, 7, (600, 1))
        backward(reference_graph.vsum(reference_graph.dot_last(
            engine.index_rows(x, ids), constant(w))))
        expected = np.zeros((9, 5))
        np.add.at(expected, ids, w)
        assert np.array_equal(x.grad, expected)

    @pytest.mark.parametrize("twice", [False, True], ids=["one-lookup", "two-lookups"])
    def test_table_gradients_equal_add_at(self, monkeypatch, twice):
        """A table read once in a graph gets the gradient ``np.add.at`` gives;
        one read twice gets one ``sum_rows`` per lookup, the two sums added
        (which ``np.add.at``'s row-by-row sums differ from here)."""
        rng = np.random.default_rng(31)
        table = EmbeddingTable("t", 6, 3, rng)
        first, second = rng.integers(0, 6, 800), rng.integers(0, 6, (400, 2))
        weights = [rng.normal(size=(800, 3)), rng.normal(size=(400, 2, 3))]

        def grads():
            table.weights.zero_grad()
            parts = [reference_graph.vsum(reference_graph.dot_last(
                table.lookup(first), constant(weights[0])))]
            if twice:
                parts.append(reference_graph.vsum(reference_graph.dot_last(
                    table.lookup(second), constant(weights[1]))))
            backward(reference_graph.add_n(parts))
            return table.weights.grad.copy()

        got = grads()
        if twice:
            # the gradient reaching each lookup is its weights, exactly
            expected = np.zeros((6, 3))
            expected += engine.sum_rows(first, weights[0], 6)
            expected += engine.sum_rows(second.reshape(-1), weights[1].reshape(-1, 3), 6)
            assert np.array_equal(got, expected)
        else:
            monkeypatch.setattr(engine, "scatter_add", np.add.at)
            assert np.array_equal(got, grads())


def _leaf(param: Parameter):
    """The whole parameter as a graph node, through a row lookup."""
    return engine.lookup(param, np.arange(param.value.shape[0]))


class TestBackward:
    def test_sum_of_parameters_gives_unit_gradients(self):
        a = Parameter("a", np.array([1.0, 2.0, 3.0]))
        b = Parameter("b", np.array([[4.0, 5.0]]))
        loss = reference_graph.add(reference_graph.vsum(_leaf(a)),
                          reference_graph.vsum(_leaf(b)))
        backward(loss)
        assert np.array_equal(a.grad, np.ones(3))
        assert np.array_equal(b.grad, np.ones((1, 2)))

    def test_unused_parameter_gets_zero_gradient(self):
        a = Parameter("a", np.array([1.0]))
        unused = Parameter("u", np.array([5.0]))
        loss = reference_graph.vsum(_leaf(a))
        backward(loss)
        assert np.array_equal(unused.grad, np.zeros(1))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(constant(np.array([1.0, 2.0])))

    def test_shared_subgraph_accumulates_once(self):
        a = Parameter("a", np.array([2.0]))
        v = _leaf(a)
        s = reference_graph.vsum(v)
        loss = reference_graph.add(s, s)  # d(loss)/da = 2
        backward(loss)
        assert np.array_equal(a.grad, np.array([2.0]))

    def test_embedding_gradient_sparse_over_rows(self):
        rng = np.random.default_rng(5)
        table = EmbeddingTable("t", 6, 3, rng)
        out = table.lookup(np.array([1, 1, 4]))
        backward(reference_graph.vsum(out))
        assert np.array_equal(table.weights.grad[1], 2 * np.ones(3))
        assert np.array_equal(table.weights.grad[4], np.ones(3))
        untouched = [0, 2, 3, 5]
        assert np.all(table.weights.grad[untouched] == 0.0)

    def test_lookup_out_of_range(self):
        table = EmbeddingTable("t", 4, 2, np.random.default_rng(0))
        with pytest.raises(IndexError):
            table.lookup(np.array([4]))
        with pytest.raises(IndexError):
            table.lookup(np.array([-1]))

    def test_concat_backward_slices_the_last_axis(self):
        rng = np.random.default_rng(8)
        parts = [constant(rng.normal(size=(2, 3, w))) for w in (1, 4, 2)]
        out = engine.concat(parts)
        assert np.array_equal(out.value, np.concatenate([p.value for p in parts], axis=2))
        g = rng.normal(size=out.value.shape)
        backward(reference_graph.vsum(reference_graph.dot_last(out, constant(g))))
        assert np.array_equal(parts[0].grad, g[:, :, :1])
        assert np.array_equal(parts[1].grad, g[:, :, 1:5])
        assert np.array_equal(parts[2].grad, g[:, :, 5:])

    def test_row_wise_cross_entropy_is_mean_of_rows(self):
        logits = np.random.default_rng(6).normal(size=(4, 5))
        targets = [0, 3, 3, 1]
        batch = constant(logits)
        loss = softmax_cross_entropy(batch, targets)
        backward(loss)
        rows = [constant(row) for row in logits]
        parts = [softmax_cross_entropy(r, t) for r, t in zip(rows, targets)]
        backward(reference_graph.add_n(parts, [0.25] * 4))
        assert abs(float(loss.value) - np.mean([float(p.value) for p in parts])) < 1e-12
        picked = softmax(logits)[np.arange(4), targets]
        assert abs(float(loss.value) + np.log(picked).mean()) < 1e-12
        assert np.abs(batch.grad - np.stack([r.grad for r in rows])).max() < 1e-15
        with pytest.raises(ValueError, match="targets"):
            softmax_cross_entropy(batch, [0, 1])
        with pytest.raises(IndexError):
            softmax_cross_entropy(batch, [0, 1, 2, 5])

    def test_softmax_cross_entropy_matches_plain_ops(self):
        logits = constant(np.array([0.3, -1.2, 2.0]))
        loss = softmax_cross_entropy(logits, 1)
        probs = softmax(logits.value)
        assert abs(float(loss.value) + math.log(probs[1])) < 1e-12
        backward(loss)
        expected = probs.copy()
        expected[1] -= 1.0
        assert np.allclose(logits.grad, expected)


class TestAdam:
    def test_first_step_magnitude(self):
        p = Parameter("p", np.array([0.0]))
        opt = Adam([p], lr=0.001)
        p.grad[...] = 1.0
        opt.step()
        assert abs(p.value[0] + 0.001 / (1.0 + 1e-8)) < 1e-15

    def test_zero_gradient_is_noop(self):
        p = Parameter("p", np.array([1.5, -2.0]))
        opt = Adam([p])
        p.grad[...] = 0.0
        opt.step()
        assert np.array_equal(p.value, np.array([1.5, -2.0]))

    def test_constant_gradient_keeps_step_near_lr(self):
        p = Parameter("p", np.array([0.0]))
        opt = Adam([p], lr=0.001)
        prev = p.value.copy()
        for _ in range(2):
            p.grad[...] = 1.0
            opt.step()
            delta = abs(float(p.value[0] - prev[0]))
            assert abs(delta - 0.001) < 1e-9
            prev = p.value.copy()

    def test_non_finite_gradient_rejected(self):
        p = Parameter("p", np.zeros(2))
        opt = Adam([p])
        p.grad[...] = np.array([np.nan, 0.0])
        with pytest.raises(FloatingPointError):
            opt.step()

    def test_clip_global_norm(self):
        a = Parameter("a", np.zeros(3))
        a.grad[...] = np.array([3.0, 4.0, 0.0])
        norm = clip_global_norm([a], 1.0)
        assert abs(norm - 5.0) < 1e-12
        assert abs(np.linalg.norm(a.grad) - 1.0) < 1e-12


class TestFiniteDiffCheck:
    def test_quadratic_passes_tightly(self):
        theta = Parameter("theta", np.random.default_rng(0).normal(size=8))

        def build():
            v = _leaf(theta)
            return reference_graph.scale(reference_graph.vsum(reference_graph.dot_last(v, v)), 0.5)

        report = finite_diff_check(build, [theta], tolerance=1e-8,
                                   rng=np.random.default_rng(1))
        assert report.passed, str(report)

    def test_corrupted_gradient_detected(self):
        theta = Parameter("theta", np.random.default_rng(0).normal(size=8))

        def build():
            v = _leaf(theta)
            return reference_graph.scale(reference_graph.vsum(reference_graph.dot_last(v, v)), 0.5)

        report = finite_diff_check(build, [theta], tolerance=1e-4,
                                   rng=np.random.default_rng(1),
                                   gradient_scale=2.0)
        assert not report.passed

    def test_bilstm_head_passes(self):
        rng = np.random.default_rng(6)
        lstm = BiLstm("g", 3, 4, rng)
        head = DenseLayer("h", 8, 1, rng)
        xs = rng.normal(size=(5, 3))

        def build():
            return reference_graph.vsum(head(lstm.forward(constant(xs))))

        report = finite_diff_check(build, lstm.params() + head.params(),
                                   tolerance=1e-4, rng=np.random.default_rng(7))
        assert report.passed, str(report)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        tensors = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tensors, config={"dim": 4})
        ck = load_checkpoint(path)
        assert np.array_equal(ck.tensors["w"], tensors["w"])
        assert ck.config == {"dim": 4}

    def test_bad_magic_rejected(self, tmp_path):
        """A file that is not an ``.npz``, such as a checkpoint of the older
        NNCK container, is a ValueError that names it as an older format
        and gives numpy's pickle advice no room."""
        path = tmp_path / "bad.ckpt"
        for data in (b"NOPE" + b"\x00" * 32, nnck_checkpoint_bytes()):
            path.write_bytes(data)
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unreadable "
                               "older format.*use a fresh workdir$") as err:
                load_checkpoint(path)
            assert "pickle" not in str(err.value)

    @pytest.mark.parametrize("keep", [0, 1, 3, 5])
    def test_cut_before_the_magic_is_not_an_older_format(self, tmp_path, keep):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones(2)})
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unreadable arrays"):
            load_checkpoint(path)

    @staticmethod
    def _rewrite_header(path, edit) -> None:
        """Replace the header of the checkpoint at ``path`` by ``edit`` of its
        bytes, keeping the values, in a file whose CRC-32s hold."""
        header, values = load_arrays(path, "header", "values")
        with open(path, "wb") as fh:
            np.savez(fh, header=np.frombuffer(edit(header.tobytes()), dtype=np.uint8),
                     values=values)

    @staticmethod
    def _tensors(h: bytes, tensors) -> bytes:
        return json.dumps({**json.loads(h), "tensors": tensors}).encode()

    @pytest.mark.parametrize("damage, error", [
        (lambda h: h.replace(b"{", b"[", 1), "JSONDecodeError"),
        (lambda h: h[:5] + b"\xff" + h[6:], "UnicodeDecodeError"),
        (lambda h: h.replace(b'"tensors"', b'"tensorz"'), "KeyError"),
        (lambda h: TestCheckpoint._tensors(h, [["w", "2"]]), "TypeError"),
        (lambda h: TestCheckpoint._tensors(h, [["w", [1]]]), "ValueError: the header's"),
        (lambda h: TestCheckpoint._tensors(h, [["w", [3]]]), "ValueError: cannot reshape"),
    ], ids=["json", "utf-8", "key", "type", "shapes-short", "shapes-long"])
    def test_damaged_header_named(self, tmp_path, damage, error):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.ones(2)}, config={"dim": 2})
        self._rewrite_header(path, damage)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {error}"):
            load_checkpoint(path)

    def test_header_bit_flips_named_or_loaded(self, tmp_path):
        """A flipped bit in any byte of the file, header and values alike,
        is a ValueError naming it, or loads the same tensors and config."""
        path = tmp_path / "m.ckpt"
        tensors = {"b": np.zeros(2), "w": np.ones((3, 2))}
        save_checkpoint(path, tensors, config={"dim": 2})
        data = path.read_bytes()
        for k in range(len(data)):
            flipped = bytearray(data)
            flipped[k] ^= 1 << (k % 8)
            path.write_bytes(flipped)
            try:
                ck = load_checkpoint(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: "), k
            else:
                assert ck.config == {"dim": 2}, k
                assert {n: t.shape for n, t in ck.tensors.items()} == \
                    {n: t.shape for n, t in tensors.items()}, k
                assert all(ck.tensors[n].tobytes() == t.tobytes()
                           for n, t in tensors.items()), k

    def test_load_params_names_missing_tensor(self, tmp_path):
        save_checkpoint(tmp_path / "m.ckpt", {"w": np.ones(4)})
        b = Parameter("b", np.zeros(4))
        with pytest.raises(ValueError, match="no tensor 'b'"):
            load_params([b], load_checkpoint(tmp_path / "m.ckpt"))


class TestArrayFile:
    """``load_arrays``: the checked reader of the stages' ``.npz`` files."""

    @staticmethod
    def _save(path, **arrays):
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        return path.read_bytes()

    def test_reads_the_named_arrays(self, tmp_path):
        a, b = np.arange(6.0).reshape(2, 3), np.arange(4)
        self._save(tmp_path / "x.npz", a=a, b=b)
        got_b, got_a = load_arrays(tmp_path / "x.npz", "b", "a")
        assert got_a.tobytes() == a.tobytes() and got_b.tobytes() == b.tobytes()

    @pytest.mark.parametrize("damage", ["absent", "empty", "cut", "no-member", "not-npz",
                                        "plain-npy", "shrunk-shape"])
    def test_damage_named(self, tmp_path, damage):
        path = tmp_path / "x.npz"
        # a member larger than one zip read, so a shorter array reads a prefix
        data = self._save(path, a=np.arange(12000.0).reshape(3000, 4))
        if damage == "absent":
            path.unlink()
        elif damage == "no-member":
            self._save(path, b=np.zeros(2))
        elif damage == "plain-npy":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(2))
        elif damage == "shrunk-shape":  # (3000, 4) -> (2000, 4): one bit
            at = data.index(b"(3000, 4)") + 1
            path.write_bytes(data[:at] + b"2" + data[at + 1:])
        else:
            path.write_bytes({"empty": b"", "cut": data[:len(data) // 2],
                              "not-npz": b"\x93NUMPY not a zip"}[damage])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_arrays(path, "a")
