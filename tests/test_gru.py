"""Recurrent sequence kernel: cell fixtures, direction contract, BPTT gradients.

`gru_sequence` runs both directions of bidirectional layers; one direction
alone is the kernel `_gru_pass` over a single cell."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    check_grads,
    copying_gru_pass,
    needs_blas_threads,
    pad_stack,
    serial_at_one_blas_thread,
    spy_groups,
    step_rows,
    tsum,
    two_loop_bigru,
)
from spanqa.diffmath import (
    BiGruParams,
    GruParams,
    Tensor,
    backward,
    bigru_each,
    bigru_rows,
    gru_sequence,
    init_bigru_params,
    init_gru_params,
    make_rng,
    named_tensors,
    no_grad,
    unstack,
)
from spanqa.diffmath import workers
from spanqa.diffmath.rnn import _gru_pass, _sigmoid
from spanqa.diffmath.workers import direction_groups, usable_cpus

REVERSE = {"forward": (False,), "backward": (True,), "both": (False, True)}


def random_params(in_dim, d, seed):
    return init_gru_params(in_dim, d, make_rng(seed, 2))


def run_direction(x, bi, direction, lengths):
    """Both directions of `bi` through `gru_sequence`, or one of them, with its
    forward cell, through the kernel."""
    if direction == "both":
        return gru_sequence(*step_rows(x), (bi,), lengths)
    return _gru_pass(*step_rows(x), (bi.fwd,), REVERSE[direction], lengths)


def zero_params(in_dim, d):
    return GruParams(
        w=Tensor(np.zeros((in_dim, 3 * d))),
        u_zr=Tensor(np.zeros((d, 2 * d))),
        u_h=Tensor(np.zeros((d, d))),
        b=Tensor(np.zeros(3 * d)),
    )


def test_zero_weights_halve_initial_state():
    # With only the candidate bias b_h nonzero, z = sigmoid(0) = 0.5 and the
    # candidate is c = tanh(b_h) at every step, so h' = (h + c) / 2: each step
    # halves the gap between the state and c, starting from the zero state.
    d = 3
    params = zero_params(2, d)
    params.b.data[2 * d :] = [2.0, -4.0, 0.5]
    c = np.tanh(params.b.data[2 * d :])
    out = _gru_pass(*step_rows(Tensor(np.ones((2, 1, 2)))), (params,), (False,), [2])
    np.testing.assert_allclose(out.data[0, 0], 0.5 * c, rtol=1e-15)
    np.testing.assert_allclose(out.data[1, 0], 0.75 * c, rtol=1e-15)


def test_zero_weights_zero_init_gives_zeros():
    out = _gru_pass(*step_rows(Tensor(np.ones((4, 1, 2)))), (zero_params(2, 3),), (False,), [4])
    np.testing.assert_array_equal(out.data, np.zeros((4, 1, 3)))


def test_single_step_shape():
    out = _gru_pass(*step_rows(Tensor(np.ones((1, 1, 2)))), (random_params(2, 4, 31),), (False,), [1])
    assert out.shape == (1, 1, 4)


def test_empty_sequence_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        layers = (init_bigru_params(2, 2, make_rng(32, 2)),)
        gru_sequence(np.zeros((0, 1), dtype=int), Tensor(np.zeros((1, 2))), layers, [1])


def test_unpacked_input_rejected():
    # a lone sequence goes as the batch of one, a (T, 1) step map
    with pytest.raises(ValueError, match=r"\(T, B\)"):
        gru_sequence(np.arange(3), Tensor(np.zeros((3, 2))), (init_bigru_params(2, 2, make_rng(32, 2)),), [3])


def test_input_width_mismatch_rejected():
    with pytest.raises(ValueError, match="width"):
        gru_sequence(*step_rows(Tensor(np.zeros((3, 1, 5)))), (init_bigru_params(2, 2, make_rng(33, 2)),), [3])


def test_backward_direction_equals_reversed_forward():
    rng = make_rng(34, 1)
    x = Tensor(rng.standard_normal((6, 1, 3)))
    params = random_params(3, 4, 34)
    rev = _gru_pass(*step_rows(x), (params,), (True,), [6])
    manual = _gru_pass(*step_rows(Tensor(x.data[::-1])), (params,), (False,), [6]).data[::-1]
    np.testing.assert_array_equal(rev.data, manual)


def test_gradients_match_finite_differences():
    rng = make_rng(36, 1)
    x = Tensor(rng.standard_normal((3, 1, 2)), requires_grad=True)
    params = random_params(2, 2, 36)
    w = Tensor(rng.standard_normal((3, 1, 2)))

    def build():
        return tsum(_gru_pass(*step_rows(x), (params,), (False,), [3]) * w)

    check_grads(build, [x, params.w, params.u_zr, params.u_h, params.b])


def test_backward_direction_gradients():
    rng = make_rng(37, 1)
    x = Tensor(rng.standard_normal((4, 1, 3)), requires_grad=True)
    params = random_params(3, 2, 37)
    w = Tensor(rng.standard_normal((4, 1, 2)))

    def build():
        return tsum(_gru_pass(*step_rows(x), (params,), (True,), [4]) * w)

    check_grads(build, [x, params.w, params.u_zr, params.u_h, params.b])


def test_bigru_concatenates_directions():
    rng = make_rng(38, 1)
    x = Tensor(rng.standard_normal((5, 1, 3)))
    params = init_bigru_params(3, 3, make_rng(38, 2))
    out = gru_sequence(*step_rows(x), (params,), [5])
    assert out.shape == (5, 1, 6)
    fwd = _gru_pass(*step_rows(x), (params.fwd,), (False,), [5])
    bwd = _gru_pass(*step_rows(x), (params.bwd,), (True,), [5])
    np.testing.assert_array_equal(out.data[..., :3], fwd.data)
    np.testing.assert_array_equal(out.data[..., 3:], bwd.data)


def test_bigru_zero_weights_all_zeros():
    params = BiGruParams(fwd=zero_params(2, 3), bwd=zero_params(2, 3))
    out = gru_sequence(*step_rows(Tensor(np.ones((4, 1, 2)))), (params,), [4])
    np.testing.assert_array_equal(out.data, np.zeros((4, 1, 6)))


def test_bigru_gradients():
    rng = make_rng(39, 1)
    x = Tensor(rng.standard_normal((3, 1, 2)), requires_grad=True)
    params = init_bigru_params(2, 2, make_rng(39, 2))
    w = Tensor(rng.standard_normal((3, 1, 4)))
    leaves = [x] + [t for _, t in named_tensors(params)]
    check_grads(lambda: tsum(gru_sequence(*step_rows(x), (params,), [3]) * w), leaves)


def test_param_registration_names():
    params = init_bigru_params(2, 2, make_rng(40, 2))
    names = [name for name, _ in named_tensors(params)]
    assert names == [
        "fwd/w", "fwd/u_zr", "fwd/u_h", "fwd/b",
        "bwd/w", "bwd/u_zr", "bwd/u_h", "bwd/b",
    ]


# ------------------------------------------------------------ sigmoid


def masked_sigmoid(x):
    """The former branching form: exp of -x where x >= 0, of x elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_masked_form_without_warnings():
    # the kernel holds np.errstate(over="ignore") around its whole time loop,
    # so the bare sigmoid is called the same way here
    x = np.linspace(-700.0, 700.0, 200_001)
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        got = _sigmoid(x)
        extremes = _sigmoid(np.array([-1e4, -800.0, 800.0, 1e4]))
        buf = x.copy()
        in_place = _sigmoid(buf, out=buf)
    ref = masked_sigmoid(x)
    assert np.max(np.abs(got - ref) / ref) <= 1e-15
    np.testing.assert_array_equal(extremes, [0.0, 0.0, 1.0, 1.0])
    # the time loop's form: written over its own input
    assert in_place is buf
    np.testing.assert_array_equal(buf, got)


@pytest.mark.parametrize("direction", ["forward", "backward", "both"])
def test_saturated_gates_stay_finite_without_warnings(direction):
    # gate pre-activations of +-1e4 overflow exp(-x) inside the time loop;
    # the loop's errstate must keep that silent under the suite's
    # error::RuntimeWarning filter, and the states must stay finite
    rng = make_rng(46, 1)
    x = Tensor(np.sign(rng.standard_normal((5, 3, 2))) * 1e4, requires_grad=True)
    bi = init_bigru_params(2, 3, make_rng(46, 2))
    params = bi if direction == "both" else bi.fwd
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = run_direction(x, bi, direction, [5, 2, 4])
        backward(tsum(out))
    assert np.isfinite(out.data).all() and np.isfinite(x.grad).all()
    assert all(np.isfinite(t.grad).all() for _, t in named_tensors(params))


# ------------------------------------------------------ packed batches


def rel_diff(a, b):
    """Largest absolute difference, relative to the reference's largest entry."""
    scale = np.max(np.abs(b))
    return float(np.max(np.abs(a - b)) / scale) if scale > 0 else float(np.max(np.abs(a)))


def run_rows(layer, params, inputs, lengths, weights):
    """Outputs and gradients of every row, taken through a packed call of
    `layer` over all of them (backward once per row, so each gradient is
    that row's alone; a walk releases its graph, so each row's walk runs on
    a packed call of its own)."""
    xs = [Tensor(x, requires_grad=True) for x in inputs]
    leaves = [t for _, t in named_tensors(params)]
    results = []
    for b, w in enumerate(weights):
        out = unstack(layer(pad_stack(xs), params, lengths), lengths)[b]
        backward(tsum(out * w))
        results.append((out.data, xs[b].grad, [t.grad for t in leaves]))
        for t in xs + leaves:
            t.zero_grad()
    return results


def run_single(layer, params, x, w):
    """Outputs and gradients of the one (n, in) sequence `x`, as a batch of one."""
    xt = Tensor(x[:, None], requires_grad=True)
    leaves = [t for _, t in named_tensors(params)]
    out = layer(xt, params, [len(x)])
    backward(tsum(out * w[:, None]))
    result = (out.data[:, 0], xt.grad[:, 0], [t.grad for t in leaves])
    for t in [xt] + leaves:
        t.zero_grad()
    return result


@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=6),
    st.sampled_from(["forward", "backward", "both"]),
    st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_packed_rows_match_single_sequence_calls(lengths, direction, seed):
    rng = make_rng(seed, 41)
    in_dim, d = 3, 4
    if direction == "both":
        params, width = init_bigru_params(in_dim, d, make_rng(seed, 42)), 2 * d
    else:
        params, width = random_params(in_dim, d, seed), d

    def layer(inputs, params, lengths):
        if direction == "both":
            return gru_sequence(*step_rows(inputs), (params,), lengths)
        return _gru_pass(*step_rows(inputs), (params,), (direction == "backward",), lengths)

    inputs = [rng.standard_normal((n, in_dim)) for n in lengths]
    weights = [rng.standard_normal((n, width)) for n in lengths]
    packed = run_rows(layer, params, inputs, lengths, weights)
    for (out, dx, dparams), x, w in zip(packed, inputs, weights):
        ref_out, ref_dx, ref_dparams = run_single(layer, params, x, w)
        assert out.shape == ref_out.shape
        assert rel_diff(out, ref_out) <= 1e-12
        assert rel_diff(dx, ref_dx) <= 1e-12
        for got, ref in zip(dparams, ref_dparams):
            assert rel_diff(got, ref) <= 1e-12


def test_packed_gradients_match_finite_differences():
    rng = make_rng(43, 1)
    lengths = [2, 4, 3]
    xs = [Tensor(rng.standard_normal((n, 3)), requires_grad=True) for n in lengths]
    params = init_bigru_params(3, 2, make_rng(43, 2))
    weights = [Tensor(rng.standard_normal((n, 4))) for n in lengths]

    def build():
        outs = unstack(gru_sequence(*step_rows(pad_stack(xs)), (params,), lengths), lengths)
        loss = tsum(outs[0] * weights[0])
        for out, w in zip(outs[1:], weights[1:]):
            loss = loss + tsum(out * w)
        return loss

    check_grads(build, xs + [t for _, t in named_tensors(params)])


@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=6),
    st.sampled_from([3, 8]),
    st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_fused_bigru_matches_two_loop_reference(lengths, d, seed):
    """Both directions in one loop give the outputs and all gradients of a
    forward pass plus a separately reversed backward pass."""
    rng = make_rng(seed, 47)
    in_dim = 3
    params = init_bigru_params(in_dim, d, make_rng(seed, 48))
    inputs = [rng.standard_normal((n, in_dim)) for n in lengths]
    weights = [rng.standard_normal((n, 2 * d)) for n in lengths]
    got = run_rows(lambda x, p, lengths: gru_sequence(*step_rows(x), (p,), lengths), params, inputs, lengths, weights)
    ref = run_rows(lambda x, p, lengths: two_loop_bigru(*step_rows(x), p, lengths), params, inputs, lengths, weights)
    for (out, dx, dparams), (ref_out, ref_dx, ref_dparams) in zip(got, ref):
        assert out.shape == ref_out.shape and len(dparams) == len(ref_dparams) == 8
        assert rel_diff(out, ref_out) <= 1e-12
        assert rel_diff(dx, ref_dx) <= 1e-12
        for g, r in zip(dparams, ref_dparams):
            assert rel_diff(g, r) <= 1e-12


def test_fused_bigru_packed_gradients_match_finite_differences():
    # every entry of the packed output, padded steps included, is a smooth
    # function of the packed input, so the whole (T, B, in) gradient is checked
    rng = make_rng(49, 1)
    lengths = [2, 4, 3]
    x = Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
    params = init_bigru_params(3, 3, make_rng(49, 2))
    w = Tensor(rng.standard_normal((4, 3, 6)))
    leaves = [x] + [t for _, t in named_tensors(params)]
    check_grads(lambda: tsum(gru_sequence(*step_rows(x), (params,), lengths) * w), leaves)


@pytest.mark.parametrize("direction", ["forward", "backward", "both"])
@pytest.mark.parametrize(
    "lengths, d",
    [([1], 2), ([6], 3), ([5, 2, 4], 2), ([5, 2, 4], 8), ([1, 7, 7, 3, 2], 3), ([4, 4], 32), ([5, 2, 4], 1)],
)
def test_shared_bptt_buffers_are_bit_exact(direction, lengths, d):
    """The kernel keeps the gate adjoints of all directions in one array and
    sums them per input row before the weight and input products; its
    outputs equal those of the kernel that held the reversed copy, projected
    every step and concatenated per-direction arrays, bit for bit, and every
    gradient, whose sums it reorders, within 1e-12 relative."""
    rng = make_rng(sum(lengths) * d, 50)
    bi = init_bigru_params(3, d, make_rng(d, 51))
    cells = (bi.fwd, bi.bwd) if direction == "both" else (bi.fwd,)
    x = rng.standard_normal((max(lengths), len(lengths), 3))
    w = rng.standard_normal((max(lengths), len(lengths), len(cells) * d))
    results = []
    for run in (
        lambda xt: run_direction(xt, bi, direction, lengths),
        lambda xt: copying_gru_pass(*step_rows(xt), cells, REVERSE[direction], lengths),
    ):
        xt = Tensor(x, requires_grad=True)
        out = run(xt)
        backward(tsum(out * w))
        results.append([out.data, xt.grad] + [t.grad for c in cells for _, t in named_tensors(c)])
        for c in cells:
            for _, t in named_tensors(c):
                t.zero_grad()
    (out, *grads), (ref_out, *ref_grads) = results
    assert np.array_equal(out, ref_out)
    for got, ref in zip(grads, ref_grads):
        assert got.shape == ref.shape
        assert rel_diff(got, ref) <= 1e-12


# ------------------------------------------------------ inference pass

PATTERNS = [(False,), (True,), (False, True), (False, True, False, True)]


def pattern_cells(reverse, in_dim, d, seed):
    return tuple(random_params(in_dim, d, seed + g) for g in range(len(reverse)))


@pytest.mark.parametrize("reverse", PATTERNS)
@pytest.mark.parametrize("lengths", [None, [5, 2, 4], [1, 7, 7, 3, 2]])
def test_no_grad_pass_equals_the_recorded_pass(reverse, lengths):
    """Under no_grad the kernel keeps no gate caches and builds no closure,
    but it runs the same ops in the same order: its states equal the
    recorded pass's bit for bit."""
    lengths = [6, 6, 6] if lengths is None else lengths  # None: every column is full
    batch, steps = len(lengths), max(lengths)
    rng = make_rng(steps * batch * len(reverse), 52)
    cells = pattern_cells(reverse, 3, 4, 52)
    x = Tensor(rng.standard_normal((steps, batch, 3)), requires_grad=True)
    recorded = _gru_pass(*step_rows(x), cells, reverse, lengths)
    with no_grad():
        plain = _gru_pass(*step_rows(x), cells, reverse, lengths)
    assert recorded._node[0] is not None and len(recorded._node[1]) == 1 + 4 * len(cells)
    assert plain._node is None and not plain.requires_grad
    np.testing.assert_array_equal(plain.data, recorded.data)


def test_pass_without_gradient_parents_is_a_plain_tensor():
    params = BiGruParams(fwd=zero_params(2, 3), bwd=zero_params(2, 3))
    out = gru_sequence(*step_rows(Tensor(np.ones((4, 2, 2)))), (params,), [4, 2])
    assert out._node is None and not out.requires_grad


@pytest.mark.parametrize("reverse", [(False,), (False, True), (False, True, False, True)])
def test_no_grad_pass_peaks_below_the_recorded_pass_by_its_gate_caches(reverse):
    # long-workload shapes: T = 145 steps, B = 30 rows, d = 32, input width 2d
    steps, batch, d = 145, 30, 32
    rng = make_rng(len(reverse), 53)
    cells = pattern_cells(reverse, 2 * d, d, 53)
    x = Tensor(rng.standard_normal((steps, batch, 2 * d)), requires_grad=True)
    lengths = rng.integers(55, steps + 1, batch)
    lengths[0] = steps

    def peak():
        tracemalloc.start()
        try:
            _gru_pass(*step_rows(x), cells, reverse, lengths)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    recorded = peak()
    with no_grad():
        plain = peak()
    # the (T, G, B, 2d) [z | r] and (T, G, B, d) candidate caches
    assert recorded - plain >= 3 * steps * len(reverse) * batch * d * 8


@pytest.mark.parametrize("reverse", [(False,), (True,), (False, True), (False, True, False, True)])
def test_no_grad_pass_peaks_at_its_projection_and_states(reverse):
    """Under no_grad the pass holds the (G, T, B, 3d) input projection, the
    (T + 1, G, B, d) states and, for a reversed direction, the regathered
    input, and nothing of (T * B, 3d): each direction's GEMM writes its own
    block of the projection."""
    steps, batch, d = 145, 30, 32
    rng = make_rng(len(reverse), 54)
    cells = pattern_cells(reverse, 2 * d, d, 54)
    x = Tensor(rng.standard_normal((steps, batch, 2 * d)))
    lengths = rng.integers(55, steps + 1, batch)
    lengths[0] = steps
    unit = steps * len(reverse) * batch * d * 8
    tracemalloc.start()
    try:
        with no_grad():
            _gru_pass(*step_rows(x), cells, reverse, lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * unit + (x.data.nbytes if any(reverse) else 0)


@needs_blas_threads
@pytest.mark.parametrize("reverse", [(False, True), (False, True, False, True)])
def test_memory_checks_hold_with_the_directions_on_two_threads(monkeypatch, reverse):
    """The two peak checks above, with each pass's directions split over
    two threads: the calling thread allocates every buffer before the
    loops start, so the peaks do not depend on how the threads
    interleave."""
    sizes = spy_groups(monkeypatch, 2)
    with workers.workers(workers.SPLIT_WIDTH):
        test_no_grad_pass_peaks_below_the_recorded_pass_by_its_gate_caches(reverse)
        test_no_grad_pass_peaks_at_its_projection_and_states(reverse)
    assert set(sizes) == {2}


@needs_blas_threads
def test_directions_on_worker_threads_give_the_serial_bits(monkeypatch):
    """A recorded pass of four directions over shared rows and zero rows,
    split over 1, 2 and 3 threads: its states and every gradient equal
    the serial pass's under a one-thread BLAS, bit for bit.  Each direction
    runs the same ops, and the rows' adjoints are added in direction
    order."""
    sizes = spy_groups(monkeypatch, 3)
    reverse = (False, True, False, True)
    rng = make_rng(62, 1)
    cells = pattern_cells(reverse, 12, 16, 62)
    rows = Tensor(rng.standard_normal((9, 12)), requires_grad=True)
    steps = rng.integers(-1, 9, (7, 5))
    lengths = [7, 3, 5, 1, 6]
    w = rng.standard_normal((7, 5, 4 * 16))
    leaves = [rows] + [t for c in cells for _, t in named_tensors(c)]

    def run():
        for t in leaves:
            t.zero_grad()
        sizes.clear()
        with workers.workers(workers.SPLIT_WIDTH):
            out = _gru_pass(steps, rows, cells, reverse, lengths)
            backward(tsum(out * w))
        return [out.data] + [t.grad for t in leaves]

    with serial_at_one_blas_thread(monkeypatch):
        serial = run()
    assert sizes == [1]
    for cpus in (1, 2, 3):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        for got, want in zip(run(), serial, strict=True):
            assert np.array_equal(got, want)
        assert sizes == [cpus]


@pytest.mark.parametrize("cpus", [1, 2, 3, 10**6])
def test_direction_groups_cap_the_split_at_two_and_at_the_directions_and_cpus(cpus):
    groups = direction_groups(4, cpus)
    assert len(groups) == min(2, cpus)
    assert [g for a, b in groups for g in range(a, b)] == [0, 1, 2, 3]
    sizes = [b - a for a, b in groups]
    assert max(sizes) - min(sizes) <= 1
    assert direction_groups(1, cpus) == [(0, 1)]
    assert usable_cpus() >= 1


@pytest.mark.parametrize("direction", ["forward", "both"])
def test_layers_over_one_input_share_one_loop(direction):
    """Two layers over the same input in one call: their states side by
    side equal two separate calls' bit for bit, and so does every parameter
    gradient; the input gradient adds the layers' adjoints in another order."""
    rng = make_rng(54, 1)
    lengths = [5, 2, 4]
    x = Tensor(rng.standard_normal((5, 3, 3)), requires_grad=True)
    if direction == "both":
        layers = (init_bigru_params(3, 4, make_rng(54, 2)), init_bigru_params(3, 4, make_rng(54, 3)))

        def run(layers):
            return gru_sequence(*step_rows(x), layers, lengths)
    else:
        layers = (random_params(3, 4, 54), random_params(3, 4, 55))

        def run(layers):
            return _gru_pass(*step_rows(x), layers, (False,) * len(layers), lengths)
    width = 8 if direction == "both" else 4
    w = rng.standard_normal((5, 3, 2 * width))
    leaves = [t for layer in layers for _, t in named_tensors(layer)]

    shared = run(layers)
    backward(tsum(shared * w))
    got = [x.grad] + [t.grad for t in leaves]
    for t in [x] + leaves:
        t.zero_grad()
    separate = [run((layer,)) for layer in layers]
    backward(tsum(separate[0] * w[..., :width]) + tsum(separate[1] * w[..., width:]))
    ref = [x.grad] + [t.grad for t in leaves]

    np.testing.assert_array_equal(shared.data, np.concatenate([s.data for s in separate], axis=-1))
    assert rel_diff(got[0], ref[0]) <= 1e-12
    for g, r in zip(got[1:], ref[1:]):
        np.testing.assert_array_equal(g, r)


def test_layers_of_different_shapes_rejected():
    layers = (init_bigru_params(3, 2, make_rng(56, 2)), init_bigru_params(3, 4, make_rng(57, 2)))
    with pytest.raises(ValueError, match="weight shape"):
        gru_sequence(*step_rows(Tensor(np.zeros((4, 1, 3)))), layers, [4])


def test_packed_padding_does_not_leak_into_valid_steps():
    rng = make_rng(44, 1)
    params = random_params(3, 4, 44)
    short = rng.standard_normal((2, 3))
    packed = pad_stack([Tensor(short), Tensor(rng.standard_normal((5, 3)))]).data.copy()
    packed[2:, 0] = 1e3  # padding content must not matter
    out = _gru_pass(*step_rows(Tensor(packed)), (params,), (True,), [2, 5])
    ref = _gru_pass(*step_rows(Tensor(short[:, None])), (params,), (True,), [2])
    assert rel_diff(out.data[:2, 0], ref.data[:, 0]) <= 1e-12


@pytest.mark.parametrize("lengths", [[1, 3], [7, 2, 5], [4, 4, 1, 6]])
def test_a_sequence_states_do_not_depend_on_its_batch(lengths):
    """Equal bit for bit at this width, one-step sequences too: prediction
    packs examples into chunks, and a column's states come from the same
    per-row products whatever shares its batch, or whether its rows are
    its own or shared with other columns (the end layer's starts in one
    paragraph read the paragraph's rows and one row of their own each).
    At an inner width above 200 BLAS picks its gemm kernel by the
    product's row count, so there the bits can move within 1e-12
    (`test_pipeline.py::test_a_chunk_agrees_with_each_example_alone_at_full_width`)."""
    rng = make_rng(46, 1)
    layers = (init_bigru_params(16, 16, make_rng(46, 2)),)
    xs = [Tensor(rng.standard_normal((n, 16))) for n in lengths]
    with no_grad():
        packed = unstack(gru_sequence(*step_rows(pad_stack(xs)), layers, lengths), lengths)
        for x, n, out in zip(xs, lengths, packed):
            alone = gru_sequence(*step_rows(pad_stack([x])), layers, [n])
            assert np.array_equal(out.data, alone.data[:, 0])

        # column b with step n // 2 swapped for extra row b: first each from
        # its own copy, then all from one table beside the plain columns
        extra = rng.standard_normal((len(lengths), 16))
        copies = []
        for b, (x, n) in enumerate(zip(xs, lengths)):
            copies.append(Tensor(x.data.copy()))
            copies[-1].data[n // 2] = extra[b]
        (own,) = bigru_each(copies, *layers)
        firsts = np.cumsum([0] + lengths[:-1])
        columns = [firsts[b] + np.arange(n) for b, n in enumerate(lengths)]
        for b, n in enumerate(lengths):
            columns.append(columns[b].copy())
            columns[-1][n // 2] = sum(lengths) + b
        (shared,) = bigru_rows(xs + [Tensor(extra)], columns, *layers)
    for out, got in zip(packed + own, shared):
        assert np.array_equal(got.data, out.data)


def test_step_map_must_name_rows():
    layers = (init_bigru_params(3, 2, make_rng(45, 2)),)
    rows = Tensor(np.zeros((4, 3)))
    for bad in (4, -2):
        with pytest.raises(ValueError, match="step map reads rows"):
            gru_sequence(np.array([[0], [bad]]), rows, layers, [2])
    with pytest.raises(ValueError, match="integer"):
        gru_sequence(np.zeros((2, 1)), rows, layers, [2])
    # -1 reads a zero row
    out = gru_sequence(np.array([[1, -1]]), Tensor(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])), layers, [1, 1])
    np.testing.assert_array_equal(out.data[:, 0], out.data[:, 1])


@pytest.mark.parametrize(
    "lengths, d",
    [([1], 2), ([6], 3), ([5, 2, 4], 2), ([5, 2, 4], 8), ([1, 7, 7, 3, 2], 3), ([4, 4], 32), ([5, 2, 4], 1)],
)
def test_row_form_matches_the_copying_and_two_loop_references(lengths, d):
    """A recorded pass built as `bigru_rows` builds it (the sequences' rows
    stacked, padded steps reading -1) equals the kernel that gathers and
    projects every padded step, and the two one-direction loops, in its
    states bit for bit, and in every gradient within 1e-12 relative: it
    drops the padded steps from the weight and input products and sums
    each row's step adjoints before them."""
    rng = make_rng(sum(lengths) * d, 58)
    bi = init_bigru_params(3, d, make_rng(d, 59))
    cells = (bi.fwd, bi.bwd)
    x = rng.standard_normal((sum(lengths), 3))
    steps = np.full((max(lengths), len(lengths)), -1)
    for b, n in enumerate(lengths):
        steps[:n, b] = sum(lengths[:b]) + np.arange(n)
    w = rng.standard_normal((max(lengths), len(lengths), 2 * d))
    results = []
    for run in (
        lambda rows: gru_sequence(steps, rows, (bi,), lengths),
        lambda rows: copying_gru_pass(steps, rows, cells, (False, True), lengths),
        lambda rows: two_loop_bigru(steps, rows, bi, lengths),
    ):
        rows = Tensor(x, requires_grad=True)
        out = run(rows)
        backward(tsum(out * w))
        results.append([out.data, rows.grad] + [t.grad for c in cells for _, t in named_tensors(c)])
        for c in cells:
            for _, t in named_tensors(c):
                t.zero_grad()
    out, *grads = results[0]
    for ref_out, *ref_grads in results[1:]:
        assert np.array_equal(out, ref_out)
        for got, want in zip(grads, ref_grads):
            assert got.shape == want.shape
            assert rel_diff(got, want) <= 1e-12


def test_shared_row_gradients_match_finite_differences():
    """Rows that several steps read, in one column and across columns and
    directions, take the sum of those steps' adjoints."""
    rng = make_rng(60, 1)
    rows = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    steps = np.array([[0, 2, 1], [1, 2, 3], [0, -1, 3], [3, -1, -1]])
    lengths = [4, 2, 3]
    params = init_bigru_params(3, 2, make_rng(60, 2))
    w = Tensor(rng.standard_normal((4, 3, 4)))
    leaves = [rows] + [t for _, t in named_tensors(params)]
    check_grads(lambda: tsum(gru_sequence(steps, rows, (params,), lengths) * w), leaves)
    # the same gradients, summed in another order, as the copying reference's
    got = gru_sequence(steps, rows, (params,), lengths)
    backward(tsum(got * w))
    kernel = rows.grad.copy()
    rows.zero_grad()
    backward(tsum(copying_gru_pass(steps, rows, (params.fwd, params.bwd), (False, True), lengths) * w))
    assert rel_diff(kernel, rows.grad) <= 1e-12


def test_lengths_must_fit_the_packed_input():
    layers = (init_bigru_params(3, 2, make_rng(45, 2)),)
    with pytest.raises(ValueError, match="lengths"):
        gru_sequence(*step_rows(Tensor(np.zeros((4, 2, 3)))), layers, [4, 5])
    with pytest.raises(ValueError, match="lengths"):
        gru_sequence(*step_rows(Tensor(np.zeros((4, 2, 3)))), layers, [4])
    with pytest.raises(ValueError, match="lengths"):
        gru_sequence(*step_rows(Tensor(np.zeros((4, 2, 3)))), layers, [0, 4])
