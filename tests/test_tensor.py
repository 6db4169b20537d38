"""Reverse-mode engine: op semantics and gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_grads, dense_unstack, loop_group_max_rows, max_rel_err, numeric_grad, pad_stack, tsum
from spanqa.diffmath import (
    Tensor,
    backward,
    clip_min,
    concat_cols,
    concat_rows,
    dropout,
    gather_rows,
    group_max_rows,
    log,
    make_rng,
    matmul,
    no_grad,
    pick,
    relu,
    reshape,
    row_softmax,
    transpose,
    unstack,
)


def leaf(data, rng=None, shape=None):
    if rng is not None:
        data = rng.standard_normal(shape)
    return Tensor(data, requires_grad=True)


# ---------------------------------------------------------------- matmul


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Tensor(np.eye(2)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_unit_vector_selection():
    out = matmul(Tensor([[1.0, 0.0]]), Tensor([[5.0], [7.0]]))
    np.testing.assert_array_equal(out.data, [[5.0]])


def test_matmul_shape_mismatch_reports_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradient_near_exact():
    # matmul is linear, so central differences are accurate to ~1e-10
    rng = make_rng(11, 1)
    a = leaf(None, rng, (3, 4))
    b = leaf(None, rng, (4, 2))
    loss = tsum(matmul(a, b))
    backward(loss)
    for t in (a, b):
        numeric = numeric_grad(lambda: tsum(matmul(a, b)).item(), t.data)
        assert max_rel_err(t.grad, numeric) < 1e-7


# ------------------------------------------------------------ row_softmax


def test_row_softmax_uniform_logits():
    out = row_softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_row_softmax_analytic():
    out = row_softmax(Tensor([0.0, np.log(2.0)]))
    np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-12)


def test_row_softmax_masked_matches_unmasked_subset():
    out = row_softmax(Tensor([5.0, 1.0, 9.0]), mask=[True, True, False])
    # softmax of [5, 1], with an exact 0 in the masked slot
    np.testing.assert_allclose(
        out.data, [0.98201379003790834, 0.017986209962091555, 0.0], atol=1e-15
    )
    assert out.data[2] == 0.0


def test_row_softmax_fully_masked_row_rejected():
    with pytest.raises(ValueError, match="fully masked"):
        row_softmax(Tensor([[1.0, 2.0]]), mask=[[False, False]])


@given(
    st.lists(
        st.lists(st.floats(-30, 30), min_size=1, max_size=6),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
    st.floats(-100, 100),
)
@settings(max_examples=60, deadline=None)
def test_row_softmax_rows_sum_to_one_and_shift_invariant(rows, shift):
    x = np.array(rows)
    p = row_softmax(Tensor(x)).data
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
    shifted = row_softmax(Tensor(x + shift)).data
    assert np.max(np.abs(p - shifted)) < 1e-9


def test_row_softmax_gradient():
    rng = make_rng(12, 1)
    x = leaf(None, rng, (3, 5))
    w = Tensor(rng.standard_normal((3, 5)))
    check_grads(lambda: tsum(row_softmax(x) * w), [x])


def test_row_softmax_masked_gradient():
    rng = make_rng(13, 1)
    x = leaf(None, rng, (2, 4))
    mask = np.array([[True, False, True, True], [True, True, True, False]])
    w = Tensor(rng.standard_normal((2, 4)))
    check_grads(lambda: tsum(row_softmax(x, mask) * w), [x])


# --------------------------------------------------------------- backward


def test_backward_linear_case():
    w = leaf(np.zeros((2, 2)))
    backward(tsum(w))
    np.testing.assert_array_equal(w.grad, np.ones((2, 2)))


def test_backward_cross_entropy_gradient():
    x = leaf([0.3, -1.2, 2.0])
    k = 2
    loss = log(pick(row_softmax(x), k)) * -1.0
    backward(loss)
    p = np.exp(x.data) / np.exp(x.data).sum()
    expected = p.copy()
    expected[k] -= 1.0
    np.testing.assert_allclose(x.grad, expected, atol=1e-12)
    numeric = numeric_grad(lambda: -log(pick(row_softmax(x), k)).item(), x.data)
    assert max_rel_err(x.grad, numeric) < 1e-6


def test_backward_twice_doubles_grads():
    x = leaf([1.0, 2.0])
    y = x * x
    loss = tsum(y)
    backward(loss)
    first = x.grad.copy()
    backward(loss)
    np.testing.assert_allclose(x.grad, 2 * first)
    assert loss.grad.reshape(()) == 1.0  # the root itself stays at exactly 1


def test_backward_rejects_non_scalar():
    with pytest.raises(ValueError, match="scalar"):
        backward(Tensor([1.0, 2.0], requires_grad=True))


def test_backward_reused_node_accumulates_once_per_call():
    x = leaf([3.0])
    y = x + x  # x reused: dy/dx = 2
    backward(tsum(y))
    np.testing.assert_allclose(x.grad, [2.0])


def test_no_grad_blocks_graph_recording():
    x = leaf([1.0, 2.0])
    with no_grad():
        y = tsum(x * x)
    assert not y.requires_grad and y._prev == ()


# ----------------------------------------------------- elementwise and shape ops


def test_broadcast_add_and_mul_gradients():
    rng = make_rng(14, 1)
    a = leaf(None, rng, (3, 4))
    b = leaf(None, rng, (4,))
    c = leaf(None, rng, (3, 1))
    check_grads(lambda: tsum((a + b) * c), [a, b, c])


def test_sub_neg_div_gradients():
    rng = make_rng(15, 1)
    a = leaf(None, rng, (2, 3))
    b = leaf(None, rng, (2, 3))
    # subtraction, negation and division are sums and products with constants
    check_grads(lambda: tsum((a + b * -1.0) * (a * -1.0) * 0.5), [a, b])


def test_relu_and_clip_min_values():
    x = Tensor([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(relu(x).data, [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(clip_min(x, 0.5).data, [0.5, 0.5, 2.0])


def test_clip_min_blocks_gradient_at_floor():
    x = leaf([-1.0, 2.0])
    backward(tsum(clip_min(x, 0.0)))
    np.testing.assert_array_equal(x.grad, [0.0, 1.0])


def test_log_gradient():
    rng = make_rng(16, 1)
    x = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
    check_grads(lambda: tsum(log(x)), [x])


def test_transpose_reshape_gradients():
    rng = make_rng(18, 1)
    x = leaf(None, rng, (3, 4))
    w = Tensor(rng.standard_normal((4, 3)))
    check_grads(lambda: tsum(transpose(x) * w), [x])
    check_grads(lambda: tsum(reshape(x, (4, 3)) * w), [x])


def test_concat_cols_values_and_gradient():
    rng = make_rng(19, 1)
    a = leaf(None, rng, (2, 2))
    b = leaf(None, rng, (2, 3))
    out = concat_cols([a, b])
    assert out.shape == (2, 5)
    np.testing.assert_array_equal(out.data[:, :2], a.data)
    np.testing.assert_array_equal(out.data[:, 2:], b.data)
    w = Tensor(rng.standard_normal((2, 5)))
    check_grads(lambda: tsum(concat_cols([a, b]) * w), [a, b])


def test_concat_rows_values_and_gradient():
    rng = make_rng(19, 2)
    a = leaf(None, rng, (2, 3))
    b = leaf(None, rng, (1, 3))
    out = concat_rows([a, b, a])
    assert out.shape == (5, 3)
    np.testing.assert_array_equal(out.data, np.concatenate([a.data, b.data, a.data]))
    w = Tensor(rng.standard_normal((5, 3)))
    check_grads(lambda: tsum(concat_rows([a, b, a]) * w), [a, b])


def test_pad_stack_unstack_roundtrip():
    rng = make_rng(20, 1)
    a = leaf(None, rng, (2, 3))
    b = leaf(None, rng, (4, 3))
    packed = pad_stack([a, b])
    assert packed.shape == (4, 2, 3)
    np.testing.assert_array_equal(packed.data[:2, 0], a.data)
    np.testing.assert_array_equal(packed.data[2:, 0], 0.0)
    np.testing.assert_array_equal(packed.data[:, 1], b.data)
    first, second = unstack(packed, [2, 4])
    np.testing.assert_array_equal(first.data, a.data)
    np.testing.assert_array_equal(second.data, b.data)
    wa, wb = Tensor(rng.standard_normal((2, 3))), Tensor(rng.standard_normal((4, 3)))

    def build():
        x, y = unstack(pad_stack([a, b]), [2, 4])
        return tsum(x * wa) + tsum(y * wb)

    check_grads(build, [a, b])


def test_unstack_column_returns_only_its_own_slice():
    packed = leaf(np.arange(24.0).reshape(4, 2, 3))
    _, second = unstack(packed, [2, 3])
    g = np.ones((3, 3))
    ((index, value),) = second._backward(g)
    assert value.shape == (3, 3)
    np.testing.assert_array_equal(packed.data[index], second.data)


def test_single_entry_reads_return_index_adjoints():
    # pick and group_max_rows each read one entry per output
    # entry, so their adjoint is an (index, value) pair, not a dense array
    x = leaf([[1.0, 5.0, 2.0], [4.0, 2.0, 4.0], [0.0, 7.0, 3.0]])
    for out, dense in [
        (pick(reshape(x, (-1,)), 4), [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
        (group_max_rows(x, [2, 1]), [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]),
    ]:
        ((index, value),) = out._backward(np.ones(out.shape))
        got = np.zeros_like(out._prev[0].data)
        got[index] = value
        np.testing.assert_array_equal(got, dense)


def unstacked_loss(packed, other, split, weights, dense_first):
    """A loss over unstacked columns of `packed` with ragged lengths: column 1
    unused, column 2 used twice, column 0 taken by a second unstack too.
    `packed + other` hands both operands the same dense adjoint array; with
    `dense_first` it reaches `packed` before the columns' slices."""
    lengths = [3, 1, 4, 2]
    cols = split(packed, lengths)
    again = split(packed, lengths)[0]
    terms = [tsum(c * w) for c, w in zip(cols, weights)]
    column_sum = terms[0] + terms[2] + terms[3] + tsum(cols[2] * cols[2]) + tsum(again * weights[0])
    dense = tsum((packed + other) * weights[-1])
    return dense + column_sum if dense_first else column_sum + dense


@pytest.mark.parametrize("dense_first", [True, False])
@pytest.mark.parametrize("through_node", [False, True])
def test_unstack_slice_adjoints_equal_the_dense_reference(dense_first, through_node):
    # through_node puts a scaling node between the leaf and the columns, so
    # the packed adjoint is an intermediate one, not a leaf's grad
    rng = make_rng(21, 1)
    base, other_base = rng.standard_normal((4, 4, 3)), rng.standard_normal((4, 4, 3))
    weights = [rng.standard_normal((n, 3)) for n in (3, 1, 4, 2)] + [rng.standard_normal((4, 4, 3))]
    grads = []
    for split in (unstack, dense_unstack):
        x, other = leaf(base), leaf(other_base)
        packed = x * 1.5 if through_node else x
        backward(unstacked_loss(packed, other, split, weights, dense_first))
        grads.append((x.grad, other.grad))
    (x_grad, other_grad), (ref_x_grad, ref_other_grad) = grads
    assert np.array_equal(x_grad, ref_x_grad)
    assert np.array_equal(other_grad, ref_other_grad)
    # the slices were added into a copy, never into the adjoint `other` shares
    np.testing.assert_array_equal(other_grad, weights[-1])
    np.testing.assert_array_equal(x_grad[:, 1], weights[-1][:, 1] * (1.5 if through_node else 1.0))


def test_backward_sets_grad_on_leaves_and_root_only():
    rng = make_rng(22, 1)
    x = leaf(None, rng, (3, 2, 2))
    w = leaf(None, rng, (3, 2))
    cols = unstack(x, [3, 2])
    hidden = cols[0] * w
    loss = tsum(hidden) + tsum(cols[1])
    backward(loss)
    assert all(node.grad is None for node in (*cols, hidden))
    np.testing.assert_array_equal(w.grad, x.data[:, 0])
    np.testing.assert_array_equal(x.grad[:, 0], w.data)
    np.testing.assert_array_equal(x.grad[:2, 1], 1.0)
    assert loss.grad.reshape(()) == 1.0


def test_stack_scalars_and_pick_gradients():
    a = leaf(2.0)
    b = leaf(-1.0)

    def stack():
        return concat_cols([reshape(a, (1,)), reshape(b, (1,))])

    np.testing.assert_array_equal(stack().data, [2.0, -1.0])
    check_grads(lambda: pick(stack() * stack(), 0), [a, b])


def test_gather_rows_repeated_index_accumulates():
    x = leaf(np.arange(6.0).reshape(3, 2))
    out = gather_rows(x, [1, 1, 0])
    np.testing.assert_array_equal(out.data, [[2.0, 3.0], [2.0, 3.0], [0.0, 1.0]])
    backward(tsum(out))
    np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])


def test_gather_rows_gradient():
    rng = make_rng(20, 1)
    x = leaf(None, rng, (4, 3))
    w = Tensor(rng.standard_normal((5, 3)))
    check_grads(lambda: tsum(gather_rows(x, [0, 2, 2, 3, 1]) * w), [x])


def test_group_max_rows_values_and_gradient():
    x = leaf([[1.0, 5.0], [4.0, 2.0], [0.0, 7.0], [3.0, 3.0]])
    out = group_max_rows(x, [2, 2])
    np.testing.assert_array_equal(out.data, [[4.0, 5.0], [3.0, 7.0]])
    rng = make_rng(21, 1)
    y = leaf(None, rng, (5, 3))
    w = Tensor(rng.standard_normal((2, 3)))
    check_grads(lambda: tsum(group_max_rows(y, [3, 2]) * w), [y])


@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=5),
    st.integers(1, 4),
    st.sampled_from([0.0, np.inf, np.nan]),
    st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_group_max_rows_matches_per_group_argmax(sizes, cols, special, seed):
    # small integer values force ties; inf and NaN entries follow argmax's rule
    rng = make_rng(seed, 1)
    a = rng.integers(-2, 3, size=(sum(sizes), cols)).astype(float)
    a[rng.random(a.shape) < 0.2] = special if special else a[0, 0]
    x = Tensor(a, requires_grad=True)
    out = group_max_rows(x, sizes)
    g = rng.standard_normal(out.shape)
    with np.errstate(invalid="ignore"):  # inf - inf in the loss value; its gradient is finite
        loss = tsum(out * Tensor(g))
    backward(loss)
    ref_out, ref_rows = loop_group_max_rows(a, sizes)
    ref_grad = np.zeros_like(a)
    ref_grad[ref_rows, np.arange(cols)] = g
    assert np.array_equal(out.data, ref_out, equal_nan=True)
    assert np.array_equal(x.grad, ref_grad)


def test_group_max_rows_size_mismatch():
    with pytest.raises(ValueError, match="rows"):
        group_max_rows(Tensor(np.zeros((3, 2))), [2, 2])


def row_max(x):
    """Per-row max of a 2-D tensor as one (1, rows) row: `bidaf_attention`'s form."""
    return group_max_rows(transpose(x), [x.shape[1]])


def test_row_max_tie_goes_to_lowest_column():
    x = leaf([[2.0, 2.0, 1.0], [0.0, 3.0, 3.0]])
    out = row_max(x)
    np.testing.assert_array_equal(out.data, [[2.0, 3.0]])
    backward(tsum(out))
    np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_row_max_gradient():
    rng = make_rng(22, 1)
    x = leaf(None, rng, (3, 4))
    w = Tensor(rng.standard_normal((1, 3)))
    check_grads(lambda: tsum(row_max(x) * w), [x])


# ---------------------------------------------------------------- dropout


def test_dropout_keep_prob_one_is_identity():
    x = Tensor(np.ones((4, 4)))
    out = dropout(x, 1.0, rng=make_rng(24, 2))
    assert out is x


def test_dropout_eval_mode_is_identity():
    x = Tensor(np.ones((4, 4)))
    out = dropout(x, 0.5, rng=None)
    assert out is x


def test_dropout_rejects_nonpositive_keep_prob():
    with pytest.raises(ValueError, match="keep_prob"):
        dropout(Tensor([1.0]), 0.0, rng=make_rng(0, 1))


def test_dropout_preserves_mean():
    x = Tensor(np.ones(100_000))
    out = dropout(x, 0.8, rng=make_rng(24, 1))
    assert 0.98 <= out.data.mean() <= 1.02


def test_dropout_gradient_matches_mask():
    rng_seed = 25
    x = leaf(np.ones((6, 6)))
    check_grads(lambda: tsum(dropout(x, 0.5, make_rng(rng_seed, 1))), [x])


# ------------------------------------------------------------ determinism


def test_graph_evaluation_is_deterministic():
    def run():
        rng = make_rng(99, 1)
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        out = tsum(row_softmax(matmul(x, x)) * dropout(x, 0.7, make_rng(99, 2)))
        backward(out)
        return out.item(), x.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    np.testing.assert_array_equal(g1, g2)
