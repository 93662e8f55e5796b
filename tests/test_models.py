"""Loss-model oracles: hand-computed values, finite differences, IDX bytes."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from mfquad.models import (
    Dataset,
    _sigmoid,
    IdxFormatError,
    LogisticModel,
    MlpModel,
    QuadraticOracleModel,
    idx_shape,
    read_idx,
    synth_sparse_logistic,
    write_idx,
)


def small_logistic():
    data, _ = synth_sparse_logistic(d=6, k_true=3, n_cases=20, noise=1.0, seed=11)
    return LogisticModel(data, h_prior=2.0)


def small_mlp():
    rng = np.random.Generator(np.random.Philox(5))
    feats = rng.standard_normal((15, 12))
    labels = rng.integers(0, 5, size=15)
    return MlpModel(Dataset(feats, labels), layer_sizes=(12, 8, 5), h_prior=3.0)


# ------------------------------------------------------------- quadratic


def test_quadratic_oracle_frozen():
    model = QuadraticOracleModel(
        c=1.5, b=[1.0, -2.0], a=[[4.0, 1.0], [1.0, 3.0]], x0=[0.5, 0.0]
    )
    theta = np.array([1.5, 2.0])
    # z = (1, 2): loss = 1.5 + (1*1 - 2*2) + 0.5*(4+2+2+12) = 1.5 - 3 + 10
    loss, grad = model.evaluate(theta, case=0)
    assert loss == pytest.approx(8.5)
    assert_allclose(grad, [1.0 + 6.0, -2.0 + 7.0])


def test_quadratic_case_independent():
    model = QuadraticOracleModel(c=0.0, b=[1.0], a=[[2.0]])
    theta = np.array([0.7])
    assert model.evaluate(theta, 0) == model.evaluate(theta, 99)


def test_quadratic_gradient_check():
    model = QuadraticOracleModel(
        c=0.3, b=[1.0, -1.0, 2.0], a=np.diag([1.0, 2.0, 3.0]) + 0.25
    )
    assert oracles.gradient_check(model, n_probes=3, seed=1) < 1e-9


def test_quadratic_shape_mismatch():
    with pytest.raises(ValueError, match="2x2"):
        QuadraticOracleModel(c=0.0, b=[1.0, 2.0], a=np.eye(3))


# -------------------------------------------------------------- logistic


def test_logistic_frozen_values():
    # Single case x=(1,2), y=1, theta=(0.5,-0.25): margin z=0, so the
    # data part is log(2) with gradient -0.5*x; prior h=2, N=1 adds
    # theta.theta = 0.3125 to the loss and 2*theta to the gradient.
    data = Dataset(np.array([[1.0, 2.0]]), np.array([1]))
    model = LogisticModel(data, h_prior=2.0)
    loss, grad = model.evaluate(np.array([0.5, -0.25]), case=0)
    assert loss == pytest.approx(np.log(2.0) + 0.3125, abs=1e-15)
    assert_allclose(grad, [-0.5 + 1.0, -1.0 - 0.5], atol=1e-15)


def test_logistic_extreme_margin_stable():
    data = Dataset(np.array([[1.0]]), np.array([0]))
    model = LogisticModel(data, h_prior=0.0)
    loss, grad = model.evaluate(np.array([800.0]), case=0)
    assert loss == pytest.approx(800.0)   # softplus(z) -> z for huge z
    assert grad[0] == pytest.approx(1.0)
    loss, grad = model.evaluate(np.array([-800.0]), case=0)
    assert loss == pytest.approx(0.0, abs=1e-300)
    assert np.isfinite(grad).all()


def test_logistic_gradient_check():
    assert oracles.gradient_check(small_logistic(), case=3, n_probes=3, seed=2) < 1e-6


# margins z = x.theta of exactly +0, or of |z| >= 700 where exp(-|z|) is
# subnormal or zero; z = -0 never comes out of a dot product
_MARGINS = st.one_of(
    st.just(0.0), st.floats(701.0, 1e4), st.floats(-1e4, -701.0), st.floats(-40.0, 40.0)
)


@settings(max_examples=80, deadline=None)
@given(
    labels=st.lists(st.integers(0, 1), min_size=3, max_size=3),
    case=st.integers(0, 2),
    margins=st.sampled_from([1, 2, 4, 6]).flatmap(
        lambda m: st.lists(_MARGINS, min_size=m, max_size=m)
    ),
)
def test_logistic_evaluate_nodes_rows_match_scalar_oracle(labels, case, margins):
    # the block oracle's rows, the scalar oracle and the model's evaluate
    # give the same bits on both tails
    rng = np.random.Generator(np.random.Philox(7))
    feats = rng.standard_normal((3, 5))
    model = LogisticModel(Dataset(feats, np.array(labels)), h_prior=2.0)
    x = feats[case]
    nodes = np.array([z / (x @ x) * x for z in margins])
    losses, grads = oracles.logistic_evaluate_nodes(model, nodes, case)
    assert losses.shape == (len(margins),) and grads.shape == nodes.shape
    for z, node, loss, grad in zip(margins, nodes, losses, grads):
        margin = x @ node
        assert margin == 0.0 if z == 0.0 else (abs(margin) >= 700.0) == (abs(z) > 700.0)
        want_loss, want_grad = oracles.logistic_evaluate(model, node, case)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        one_loss, one_grad = model.evaluate(node, case)
        assert one_loss == want_loss and one_grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_logistic_evaluate_nodes_rows_on_non_contiguous_blocks(layout):
    # One dot per row whatever the block's layout: each row matches the
    # scalar oracle on that same row, a view with the block's strides.
    data, _ = synth_sparse_logistic(d=37, k_true=5, n_cases=8, noise=0.5, seed=3)
    model = LogisticModel(data)
    rng = np.random.Generator(np.random.Philox(8))
    nodes = 3.0 * rng.standard_normal((6, 37))
    if layout == "fortran":
        block = np.asfortranarray(nodes)
    else:
        block = np.repeat(nodes, 2, axis=1)[:, ::2]
    assert not block.flags.c_contiguous and np.array_equal(block, nodes)
    losses, grads = oracles.logistic_evaluate_nodes(model, block, 4)
    for row, loss, grad in zip(block, losses, grads):
        want_loss, want_grad = oracles.logistic_evaluate(model, row, 4)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        one_loss, one_grad = model.evaluate(row, 4)
        assert one_loss == want_loss and one_grad.tobytes() == want_grad.tobytes()


def test_sigmoid_matches_mask_oracle():
    rng = np.random.Generator(np.random.Philox(3))
    edges = [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 709.8, -745.2]
    tiny = [5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308]
    z = np.concatenate([rng.normal(0.0, 40.0, 100_000), edges, tiny])
    assert _sigmoid(z).tobytes() == oracles.sigmoid(z).tobytes()


def test_logistic_rejects_multiclass():
    with pytest.raises(ValueError, match="0 or 1"):
        LogisticModel(Dataset(np.ones((3, 2)), np.array([0, 1, 2])))


def test_logistic_predict():
    data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1, 0]))
    model = LogisticModel(data)
    assert_array_equal(
        model.predict(np.array([2.0, -3.0]), data.features), [1, 0]
    )


def test_gradient_check_catches_wrong_gradient():
    class Broken:
        n_params = 3

        def evaluate(self, theta, case):
            return float(theta @ theta), 2.02 * theta  # 1% off

    assert oracles.gradient_check(Broken(), n_probes=2, seed=0) > 1e-3


# ------------------------------------------------------------------- mlp


def test_mlp_param_count_default():
    rng = np.random.Generator(np.random.Philox(0))
    data = Dataset(rng.random((2, 784)), np.array([0, 9]))
    model = MlpModel(data)
    assert model.n_params == 784 * 32 + 32 + 32 * 10 + 10 == 25450


def test_mlp_zero_params_frozen():
    # All-zero parameters: uniform softmax, loss = log(n_out); every
    # gradient block vanishes except the output bias p - onehot(y).
    model = small_mlp()
    loss, grad = model.evaluate(np.zeros(model.n_params), case=4)
    assert loss == pytest.approx(np.log(5.0))
    y = int(model.dataset.labels[4])
    expected_b2 = np.full(5, 0.2)
    expected_b2[y] -= 1.0
    assert_allclose(grad[-5:], expected_b2, atol=1e-15)
    assert_array_equal(grad[:-5], np.zeros(model.n_params - 5))


def test_mlp_gradient_check():
    assert oracles.gradient_check(small_mlp(), case=7, n_probes=2, seed=3) < 1e-4


def test_mlp_evaluate_matches_concatenating_oracle():
    # gradient blocks written into their slots equal the concatenated blocks
    model = small_mlp()
    rng = np.random.Generator(np.random.Philox(9))
    for case in (0, 7, 14):
        theta = rng.standard_normal(model.n_params)
        loss, grad = model.evaluate(theta, case)
        want_loss, want_grad = oracles.mlp_evaluate(model, theta, case)
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()
        assert not np.shares_memory(grad, theta)


def _pair_sums_models():
    rng = np.random.Generator(np.random.Philox(13))
    models = {"logistic": small_logistic(), "mlp-12-8-5": small_mlp()}
    for sizes in [(13, 1, 2), (7, 4, 3), (5, 16, 2)]:
        data = Dataset(rng.random((6, sizes[0])), rng.integers(0, sizes[2], size=6))
        models["mlp-%d-%d-%d" % sizes] = MlpModel(data, layer_sizes=sizes, h_prior=3.0)
    return models


@pytest.mark.parametrize("name", list(_pair_sums_models()))
@pytest.mark.parametrize("k_start", [0, 3, 77, 2**15 + 5, 2**40 + 1])
@pytest.mark.parametrize("n_pairs", [1, 2, 3])
def test_pair_sums_match_node_sums(name, k_start, n_pairs):
    # one evaluate per node, summed pair by pair, is the definition; the
    # model's pair sums reorganize it and agree to rounding, and match
    # their allocating oracle bit for bit
    model = _pair_sums_models()[name]
    rng = np.random.Generator(np.random.Philox(k_start + n_pairs))
    mu = 0.5 * rng.standard_normal(model.n_params)
    sigma = rng.uniform(0.0, 0.4, size=model.n_params)
    sigma[::5] = 0.0
    loss, grad, curv = model.pair_sums(2, mu, sigma, k_start, n_pairs)
    want_loss, want_grad, want_curv = oracles.node_sums(model, 2, mu, sigma, k_start, n_pairs)
    assert loss == pytest.approx(want_loss, rel=1e-14)
    assert_allclose(grad, want_grad, rtol=0, atol=1e-14 * np.abs(want_grad).max())
    assert_allclose(curv, want_curv, rtol=0, atol=1e-14 * np.abs(want_curv).max())
    fresh = oracles.logistic_pair_sums if name == "logistic" else oracles.mlp_pair_sums
    same_loss, same_grad, same_curv = fresh(model, 2, mu, sigma, k_start, n_pairs)
    assert loss == same_loss
    assert grad.tobytes() == same_grad.tobytes() and curv.tobytes() == same_curv.tobytes()


@pytest.mark.parametrize("k_start", [2**63 - 1, 2**64 + 5, 10**30 + 3])
def test_mlp_pair_sums_take_sign_numbers_past_int64(k_start):
    # Sign number k is vector k mod 2**b for any 2**b above every parameter
    # index, so a number past int64, such as a damaged checkpoint's
    # seq_index, gives the sums of the reduced number.
    model = small_mlp()
    rng = np.random.Generator(np.random.Philox(4))
    mu = 0.5 * rng.standard_normal(model.n_params)
    sigma = rng.uniform(0.0, 0.4, size=model.n_params)
    loss, grad, curv = model.pair_sums(2, mu, sigma, k_start, 2)
    reduced = k_start % 2 ** model.n_params.bit_length()
    want_loss, want_grad, want_curv = model.pair_sums(2, mu, sigma, reduced, 2)
    assert loss == want_loss
    assert grad.tobytes() == want_grad.tobytes() and curv.tobytes() == want_curv.tobytes()


def test_mlp_pair_sums_need_a_power_of_two_hidden_size():
    data = Dataset(np.ones((2, 4)), np.array([0, 1]))
    for n_hid, factored in [(1, True), (2, True), (3, False), (6, False), (8, True)]:
        model = MlpModel(data, layer_sizes=(4, n_hid, 2))
        zeros = np.zeros(model.n_params)
        assert (model.pair_sums(0, zeros, zeros, 0, 1) is not None) == factored


def test_mlp_gradient_check_small_scale():
    assert oracles.gradient_check(small_mlp(), case=0, n_probes=1, seed=4, scale=0.05) < 1e-4


def test_mlp_predict_matches_loss_argmin():
    model = small_mlp()
    rng = np.random.Generator(np.random.Philox(9))
    theta = model.init_params(rng)
    preds = model.predict(theta, model.dataset.features)
    assert preds.shape == (15,)
    # prediction for one case agrees with the lowest cross-entropy label
    case = 2
    x = model.dataset.features[case : case + 1]
    losses = []
    for label in range(5):
        probe = MlpModel(Dataset(x, np.array([label])), (12, 8, 5), h_prior=0.0)
        losses.append(probe.evaluate(theta, 0)[0])
    assert preds[case] == int(np.argmin(losses))


def test_mlp_validation():
    data = Dataset(np.ones((2, 4)), np.array([0, 1]))
    with pytest.raises(ValueError, match="features"):
        MlpModel(data, layer_sizes=(5, 3, 2))
    with pytest.raises(ValueError, match="labels"):
        MlpModel(Dataset(np.ones((2, 4)), np.array([0, 7])), layer_sizes=(4, 3, 2))
    with pytest.raises(ValueError, match="layer sizes"):
        MlpModel(data, layer_sizes=(4, 0, 2))


def test_mlp_init_params_shapes():
    model = small_mlp()
    rng = np.random.Generator(np.random.Philox(1))
    theta = model.init_params(rng)
    assert theta.shape == (model.n_params,)
    # biases start at zero
    assert_array_equal(theta[12 * 8 : 12 * 8 + 8], np.zeros(8))
    assert_array_equal(theta[-5:], np.zeros(5))
    assert np.std(theta[: 12 * 8]) == pytest.approx(1 / np.sqrt(12), rel=0.3)


# ------------------------------------------------------------- synthetic


def test_synth_deterministic():
    a, wa = synth_sparse_logistic(d=20, k_true=4, n_cases=30, noise=0.5, seed=7)
    b, wb = synth_sparse_logistic(d=20, k_true=4, n_cases=30, noise=0.5, seed=7)
    assert_array_equal(a.features, b.features)
    assert_array_equal(a.labels, b.labels)
    assert_array_equal(wa, wb)


def test_synth_support_and_magnitudes():
    _, w = synth_sparse_logistic(d=50, k_true=9, n_cases=1, noise=1.0, seed=3)
    nz = w[w != 0]
    assert nz.size == 9
    assert set(np.abs(nz)) == {1.0}


def test_synth_noiseless_separable():
    data, w = synth_sparse_logistic(d=16, k_true=5, n_cases=200, noise=0.0, seed=21)
    assert_array_equal(data.labels, (data.features @ w > 0).astype(np.int64))


def test_synth_noisy_labels_follow_link():
    # Large noise pushes label probabilities toward 1/2.
    data, w = synth_sparse_logistic(d=8, k_true=8, n_cases=4000, noise=50.0, seed=2)
    assert abs(data.labels.mean() - 0.5) < 0.05
    # Small noise keeps labels aligned with the signal sign.
    data, w = synth_sparse_logistic(d=8, k_true=8, n_cases=4000, noise=0.1, seed=2)
    agree = np.mean(data.labels == (data.features @ w > 0))
    assert agree > 0.95


def test_synth_validation():
    with pytest.raises(ValueError, match="k_true"):
        synth_sparse_logistic(d=4, k_true=5, n_cases=3, noise=1.0, seed=0)
    with pytest.raises(ValueError, match="n_cases"):
        synth_sparse_logistic(d=4, k_true=2, n_cases=0, noise=1.0, seed=0)
    with pytest.raises(ValueError, match="noise"):
        synth_sparse_logistic(d=4, k_true=2, n_cases=3, noise=-1.0, seed=0)
    for noise in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="noise"):
            synth_sparse_logistic(d=4, k_true=2, n_cases=3, noise=float(noise), seed=0)


# ------------------------------------------------------------------- idx


def test_read_idx_images_frozen(tmp_path):
    raw = struct.pack(">IIII", 0x00000803, 1, 2, 2) + bytes([0, 255, 128, 64])
    path = tmp_path / "img.idx"
    path.write_bytes(raw)
    out = read_idx(path)
    assert out.shape == (1, 2, 2)
    assert_allclose(out[0], [[0.0, 1.0], [128 / 255, 64 / 255]])


def test_read_idx_labels_frozen(tmp_path):
    raw = struct.pack(">II", 0x00000801, 3) + bytes([7, 0, 9])
    path = tmp_path / "lab.idx"
    path.write_bytes(raw)
    out = read_idx(path)
    assert out.dtype == np.int64
    assert_array_equal(out, [7, 0, 9])


def test_read_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">II", 0x00000807, 3))
    with pytest.raises(IdxFormatError, match="bad magic 0x00000807 at byte 0"):
        read_idx(path)


def test_read_idx_truncated(tmp_path):
    raw = struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes([1, 2, 3])
    path = tmp_path / "short.idx"
    path.write_bytes(raw)
    with pytest.raises(IdxFormatError, match="truncated at byte 19"):
        read_idx(path)


def test_read_idx_trailing_bytes(tmp_path):
    raw = struct.pack(">II", 0x00000801, 2) + bytes([1, 2, 3])
    path = tmp_path / "long.idx"
    path.write_bytes(raw)
    with pytest.raises(IdxFormatError, match="11 bytes, expected 10"):
        read_idx(path)


@pytest.mark.parametrize("kind", ["images", "labels"])
def test_read_idx_limit_reads_the_first_items(tmp_path, kind):
    # read_idx(path, limit) decodes only the first items, bit for bit those
    # of the whole-file reader, and still checks the whole file's length
    rng = np.random.Generator(np.random.Philox(5))
    n = 7
    array = rng.random((n, 3, 4)) if kind == "images" else rng.integers(0, 10, size=n)
    path = tmp_path / f"{kind}.idx"
    write_idx(path, array)
    whole = oracles.read_idx(path)
    assert idx_shape(path) == whole.shape
    for limit in (1, n - 1, n, n + 5):
        part = read_idx(path, limit)
        want = whole[:limit]
        assert part.dtype == want.dtype and part.shape == want.shape
        assert part.tobytes() == want.tobytes()
    assert read_idx(path).tobytes() == whole.tobytes()
    assert read_idx(path, 0).shape == (0,) + whole.shape[1:]
    with pytest.raises(ValueError, match="limit"):
        read_idx(path, -1)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(IdxFormatError, match="expected"):
        read_idx(path, 1)


@pytest.mark.parametrize("raw", [
    struct.pack(">II", 0x00000807, 3),
    struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes([1, 2, 3]),
    struct.pack(">II", 0x00000801, 2) + bytes([1, 2, 3]),
    struct.pack(">I", 0x00000803) + bytes(5),
    bytes(2),
])
def test_read_idx_messages_match_the_whole_file_reader(tmp_path, raw):
    path = tmp_path / "bad.idx"
    path.write_bytes(raw)
    with pytest.raises(IdxFormatError) as want:
        oracles.read_idx(path)
    for read in (read_idx, idx_shape, lambda p: read_idx(p, 1)):
        with pytest.raises(IdxFormatError) as got:
            read(path)
        assert str(got.value) == str(want.value)


def test_idx_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.Philox(12))
    imgs = rng.random((5, 4, 3))
    write_idx(tmp_path / "i.idx", imgs)
    back = read_idx(tmp_path / "i.idx")
    assert_allclose(back, np.rint(imgs * 255) / 255, atol=1e-15)

    labels = rng.integers(0, 10, size=5)
    write_idx(tmp_path / "l.idx", labels)
    assert_array_equal(read_idx(tmp_path / "l.idx"), labels)


# --------------------------------------------------------------- dataset


def test_dataset_validation():
    with pytest.raises(ValueError, match="2-d"):
        Dataset(np.ones(3), np.array([0, 1, 0]))
    with pytest.raises(ValueError, match="rows"):
        Dataset(np.ones((3, 2)), np.array([0, 1]))
    with pytest.raises(ValueError, match="empty"):
        Dataset(np.ones((0, 2)), np.array([]))


def test_dataset_subset():
    data = Dataset(np.arange(12.0).reshape(6, 2), np.arange(6))
    sub = data.subset(2, 5)
    assert sub.n_cases == 3
    assert_array_equal(sub.labels, [2, 3, 4])
    assert_array_equal(sub.features[0], [4.0, 5.0])
