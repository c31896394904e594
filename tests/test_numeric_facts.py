"""The numpy facts that ``baselines.train_mlps`` and ``shapley``'s kernel
rest on.

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


# ---------------------------------------------------------------------------
# The facts ``shapley``'s kernel rests on.  Its per-stop oracle sums
# [patterns, background, d] products over the background axis; the kernel
# takes the same sums for the patterns of many stops at once, in slices, and
# must land on the same floats.

IN_ORDER = ("fact: a [patterns, background, d] sum over the background axis "
            "adds in background order when d >= 2")
PAIRWISE = ("fact: a [patterns, background, 1] sum over the background axis is "
            "the pairwise sum of each pattern's contiguous row")
ACCUMULATE = "fact: np.add.accumulate adds in order along its axis"
STACKED = ("fact: a stacked [stops, patterns, background, d] sum, or a slice of "
           "its patterns, equals each stop's own sum")
LAYOUT = ("fact: a transposed (not C-ordered) background-fail operand changes "
          "the order of the background sum")

# background sizes around the pairwise sum's blocks of 8 and 128
BACKGROUNDS = (1, 2, 7, 8, 9, 13, 16, 64, 128, 129, 300)


def _game(p, b, d, seed):
    """(z_fail [b, d] C-ordered, gain [p, b]) as the kernel builds them:
    fail bits and Shapley weights, some of them zeroed by dead pairs."""
    rng = np.random.default_rng([p, b, d, seed])
    z_fail = rng.random((b, d)) < 0.5
    gain = np.where(rng.random((p, b)) < 0.3, 0.0, rng.random((p, b)) / 7)
    return z_fail, gain


def _in_order(x, axis):
    """The sum along ``axis`` by one addition after another."""
    x = np.moveaxis(x, axis, 0)
    total = x[0].copy()
    for item in x[1:]:
        total += item
    return total


@pytest.mark.parametrize("b", BACKGROUNDS)
@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_background_sum_is_in_order_past_one_path_feature(b, d):
    for seed in range(5):
        z_fail, gain = _game(4, b, d, seed)
        product = z_fail[None, :, :] * gain[:, :, None]
        assert same_bits(product.sum(axis=1), _in_order(product, 1)), IN_ORDER


@pytest.mark.parametrize("b", BACKGROUNDS)
def test_background_sum_is_pairwise_on_one_path_feature(b):
    differs = 0
    for seed in range(20):
        z_fail, gain = _game(4, b, 1, seed)
        product = z_fail[None, :, :] * gain[:, :, None]
        assert same_bits(product.sum(axis=1)[:, 0], product[:, :, 0].sum(axis=1)), \
            PAIRWISE
        differs += not same_bits(product.sum(axis=1), _in_order(product, 1))
    if b >= 64:  # on enough rows the pairwise order shows
        assert differs, PAIRWISE


@pytest.mark.parametrize("b", BACKGROUNDS)
def test_accumulate_adds_in_order(b):
    for seed in range(5):
        _, gain = _game(6, b, 2, seed)
        assert same_bits(np.add.accumulate(gain, axis=1)[:, -1],
                         _in_order(gain, 1)), ACCUMULATE
        x_fail = np.arange(6 * 3).reshape(6, 3) % 4 == 0
        # the oracle's loss term for d >= 2, in which x_fail picks whole rows
        product = x_fail[:, None, :] * gain[:, :, None]
        assert same_bits(product.sum(axis=1), np.where(
            x_fail, np.add.accumulate(gain, axis=1)[:, -1:], 0.0)), ACCUMULATE


@pytest.mark.parametrize("b", BACKGROUNDS)
@pytest.mark.parametrize("d", [1, 2, 4])
def test_stacked_background_sums_equal_each_stops_own(b, d):
    stops = [_game(1 << d, b, d, seed) for seed in range(3)]
    stacked = np.stack([z[None] * g[:, :, None] for z, g in stops])
    sums = stacked.sum(axis=2)
    pairs = stacked.reshape(-1, b, d)
    for s, (z_fail, gain) in enumerate(stops):
        own = (z_fail[None, :, :] * gain[:, :, None]).sum(axis=1)
        assert same_bits(sums[s], own), STACKED
        assert same_bits(pairs.sum(axis=1)[s << d:(s + 1) << d], own), STACKED
        for p in range(s << d, (s + 1) << d):  # a slice of one pattern
            assert same_bits(pairs[p:p + 1].sum(axis=1), own[p - (s << d)][None]), \
                STACKED


def test_a_transposed_background_operand_changes_the_sum():
    """Why the kernel's fail bits are C-ordered copies: the same values in a
    transposed view take the background sum in another order."""
    differs = 0
    for seed in range(20):
        z_fail, gain = _game(4, 64, 3, seed)
        view = np.asfortranarray(z_fail)
        assert not view.flags.c_contiguous and np.array_equal(view, z_fail)
        ordered = (z_fail[None, :, :] * gain[:, :, None]).sum(axis=1)
        differs += not same_bits((view[None, :, :] * gain[:, :, None]).sum(axis=1),
                                 ordered)
    assert differs, LAYOUT
