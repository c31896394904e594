"""The numpy facts that ``baselines.train_mlps`` rests on.

The stacked trainer steps many networks at once on [networks, batch, width]
arrays and promises each network the weights ``train_mlp`` gives it alone,
bit for bit.  numpy does not document that a stacked operation equals the
same operation slice by slice, so each fact is pinned here.  A numpy or BLAS
upgrade that breaks one fails below with the fact named, rather than as an
unexplained difference in trained weights or artifact digests.
"""
import numpy as np
import pytest

MATMUL = ("fact: each slice of a stacked np.matmul is bit-equal to the 2-D "
          "np.matmul of the slices")
BATCH_SUM = ("fact: a stacked sum over the batch axis is bit-equal to each "
             "slice's sum over its batch axis")
BATCH_MEAN = ("fact: a stacked mean over the batch axis is bit-equal to each "
              "slice's mean")
ELEMENTWISE = ("fact: tanh, exp and logaddexp give an element the same value "
               "wherever it sits in an array")

# (networks, batch rows, layer inputs, layer outputs): the MLP's shapes, a
# one-hot input layer of 30 columns, 16-wide hidden layers and a 1-wide
# output, on full batches of 32 and ragged last batches
SHAPES = [(f, b, i, o) for f in (1, 2, 10) for b in (1, 7, 26, 32, 66)
          for i, o in ((30, 16), (16, 16), (16, 1), (3, 5))]


def same_bits(x, y) -> bool:
    """Equal shapes and equal bits: -0.0 differs from 0.0 and NaN equals
    itself, as they do in trained weights compared by float.hex."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _operands(f, b, i, o, seed):
    rng = np.random.default_rng([f, b, i, o, seed])
    a = np.tanh(rng.normal(size=(f, b, i)))
    w = rng.uniform(-0.5, 0.5, size=(f, o, i))
    delta = rng.normal(size=(f, b, o)) / b
    return a, w, delta


@pytest.mark.parametrize("f, b, i, o", SHAPES)
def test_stacked_matmul_slices_equal_the_2d_products(f, b, i, o):
    a, w, delta = _operands(f, b, i, o, 0)
    forward = a @ w.swapaxes(-1, -2)  # a transposed operand
    gradient = delta.swapaxes(-1, -2) @ a  # the other operand transposed
    backward = delta @ w
    for k in range(f):
        assert same_bits(forward[k], a[k] @ w[k].T), MATMUL
        assert same_bits(gradient[k], delta[k].T @ a[k]), MATMUL
        assert same_bits(backward[k], delta[k] @ w[k]), MATMUL


@pytest.mark.parametrize("f, b, i, o", SHAPES)
def test_stacked_slices_of_a_bigger_stack_equal_the_2d_products(f, b, i, o):
    # a step of some networks takes a slice or a gather of the whole stack
    a, w, delta = _operands(f + 2, b, i, o, 1)
    for sel in (slice(1, f + 1), np.arange(f + 2)[::2][:f]):
        forward = a[sel] @ w[sel].swapaxes(-1, -2)
        gradient = delta[sel].swapaxes(-1, -2) @ a[sel]
        for k, n in enumerate(np.arange(f + 2)[sel]):
            assert same_bits(forward[k], a[n] @ w[n].T), MATMUL
            assert same_bits(gradient[k], delta[n].T @ a[n]), MATMUL


@pytest.mark.parametrize("f, b, i, o", SHAPES)
def test_stacked_batch_sum_and_mean_equal_the_slices(f, b, i, o):
    _, _, delta = _operands(f, b, i, o, 2)
    z = delta[..., 0] * 1e3
    sums = delta.sum(axis=-2)
    means = np.mean(z, axis=-1)
    for k in range(f):
        assert same_bits(sums[k], delta[k].sum(axis=0)), BATCH_SUM
        assert same_bits(means[k], np.mean(z[k])), BATCH_MEAN


@pytest.mark.parametrize("offset", range(9))
def test_elementwise_values_do_not_depend_on_position(offset):
    rng = np.random.default_rng(offset)
    z = np.concatenate([rng.normal(scale=30.0, size=101), [0.0, -0.0, 800.0, -800.0]])
    padded = np.concatenate([np.zeros(offset), z])
    for ufunc in (np.tanh, np.exp, lambda v: np.logaddexp(0.0, v)):
        with np.errstate(over="ignore"):
            assert same_bits(ufunc(padded)[offset:], ufunc(z)), ELEMENTWISE
            assert same_bits(ufunc(z.reshape(5, 21))[2], ufunc(z[42:63])), ELEMENTWISE
