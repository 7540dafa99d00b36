import numpy as np
import pytest

from diffbank import (ConcatMLP, ConfigError, DataError, HopGRU, TrainConfig, init_adam,
                      make_operator, softmax_xent)
from diffbank.backbone import accuracy, adam_step, label_features, model_scores, roc_auc
from diffbank.graph import LabelVector
from diffbank.rng import rng_for

from conftest import finite_diff_grads


def rand_instance(hops, width, n=12, num_classes=3, seed=0):
    rng = rng_for(seed, "fdcase", hops, width)
    slabs = rng.normal(size=(hops + 1, n, width))
    labels = rng.integers(0, num_classes, size=n)
    ids = np.arange(n)
    return slabs, labels, ids


def block_errors(model, params, slabs, labels, ids, *, dropout=0.0,
                 input_dropout=0.0, rng_seed=None):
    def make_rng():
        return None if rng_seed is None else np.random.default_rng(rng_seed)

    train = dropout > 0.0 or input_dropout > 0.0

    def loss_fn():
        logits, _, _ = model.forward(params, slabs, ids, train=train,
                                     dropout=dropout, input_dropout=input_dropout,
                                     rng=make_rng())
        loss, _ = softmax_xent(logits, labels[ids])
        return loss

    logits, _, cache = model.forward(params, slabs, ids, train=train,
                                     dropout=dropout, input_dropout=input_dropout,
                                     rng=make_rng())
    _, dlogits = softmax_xent(logits, labels[ids])
    grads = model.backward(params, cache, dlogits)
    assert set(grads) == set(params)
    fd = finite_diff_grads(loss_fn, params)
    errs = {}
    for k in params:
        scale = max(np.linalg.norm(fd[k]), np.linalg.norm(grads[k]), 1e-8)
        errs[k] = np.linalg.norm(fd[k] - grads[k]) / scale
    return errs


def test_concat_mlp_gradients_every_block():
    slabs, labels, ids = rand_instance(hops=3, width=4, seed=1)
    model = ConcatMLP(hops=3, width=4, num_classes=3, trunk=(8, 6))
    params = model.init(seed=0, dtype=np.float64)
    errs = block_errors(model, params, slabs, labels, ids)
    assert set(errs) == {"trunk0.w", "trunk0.b", "trunk1.w", "trunk1.b",
                         "pre.w", "pre.b", "cls.w", "cls.b"}
    assert max(errs.values()) < 1e-4


def test_concat_mlp_gradients_with_dropout_masks():
    slabs, labels, ids = rand_instance(hops=2, width=3, seed=2)
    model = ConcatMLP(hops=2, width=3, num_classes=3, trunk=(6,))
    params = model.init(seed=1, dtype=np.float64)
    errs = block_errors(model, params, slabs, labels, ids,
                        dropout=0.3, input_dropout=0.2, rng_seed=7)
    assert max(errs.values()) < 1e-4


@pytest.mark.parametrize("readout", ["last", "mean"])
def test_hop_gru_gradients_every_block(readout):
    slabs, labels, ids = rand_instance(hops=4, width=3, seed=3)
    model = HopGRU(hops=4, width=3, num_classes=3, state_dim=5, readout=readout)
    params = model.init(seed=0, dtype=np.float64)
    errs = block_errors(model, params, slabs, labels, ids)
    assert set(errs) == {"gru.wr", "gru.ur", "gru.br", "gru.wz", "gru.uz",
                         "gru.bz", "gru.wc", "gru.uc", "gru.bc",
                         "pre.w", "pre.b", "cls.w", "cls.b"}
    assert max(errs.values()) < 1e-4


def test_hop_gru_gradients_with_dropout_masks():
    slabs, labels, ids = rand_instance(hops=3, width=3, seed=4)
    model = HopGRU(hops=3, width=3, num_classes=3, state_dim=4)
    params = model.init(seed=2, dtype=np.float64)
    errs = block_errors(model, params, slabs, labels, ids,
                        dropout=0.3, input_dropout=0.25, rng_seed=11)
    assert max(errs.values()) < 1e-4


def test_gru_readouts_agree_at_zero_hops():
    slabs, labels, ids = rand_instance(hops=0, width=4, seed=5)
    last = HopGRU(hops=0, width=4, num_classes=3, state_dim=5, readout="last")
    mean = HopGRU(hops=0, width=4, num_classes=3, state_dim=5, readout="mean")
    params = last.init(seed=3)
    la, _, _ = last.forward(params, slabs.astype(np.float32), ids)
    lb, _, _ = mean.forward(params, slabs.astype(np.float32), ids)
    assert np.array_equal(la, lb)


def test_forward_rejects_hop_mismatch():
    slabs, _, ids = rand_instance(hops=3, width=4, seed=6)
    model = ConcatMLP(hops=2, width=4, num_classes=2)
    with pytest.raises(ValueError):
        model.forward(model.init(), slabs.astype(np.float32), ids)


def test_eval_forward_ignores_dropout_and_is_deterministic():
    slabs, _, ids = rand_instance(hops=2, width=4, seed=7)
    model = ConcatMLP(hops=2, width=4, num_classes=2, trunk=(8,))
    params = model.init(seed=0)
    a, _, _ = model.forward(params, slabs.astype(np.float32), ids,
                            train=False, dropout=0.9, input_dropout=0.9)
    b, _, _ = model.forward(params, slabs.astype(np.float32), ids)
    assert np.array_equal(a, b)


def test_xent_hand_case():
    loss, dlogits = softmax_xent(np.zeros((1, 2)), np.array([0]))
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)
    assert np.allclose(dlogits, [[-0.5, 0.5]], atol=1e-12)


def test_xent_against_finite_difference():
    rng = rng_for(0, "xentfd")
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    loss, dlogits = softmax_xent(logits, labels)
    eps = 1e-6
    for i in range(6):
        for j in range(4):
            orig = logits[i, j]
            logits[i, j] = orig + eps
            hi, _ = softmax_xent(logits, labels)
            logits[i, j] = orig - eps
            lo, _ = softmax_xent(logits, labels)
            logits[i, j] = orig
            assert (hi - lo) / (2 * eps) == pytest.approx(dlogits[i, j], abs=1e-8)


def test_xent_mask_mean_and_stability():
    # huge logits must not overflow, and the mean is over the masked rows
    logits = np.array([[1000.0, 0.0], [0.0, 1000.0], [5.0, 5.0]])
    labels = np.array([0, 0, 1])
    mask = np.array([True, False, True])
    loss, dlogits = softmax_xent(logits[mask], labels[mask])
    assert loss == pytest.approx(0.5 * (0.0 + np.log(2.0)), abs=1e-9)
    assert dlogits.shape == (2, 2)
    with pytest.raises(ValueError):
        softmax_xent(logits[:0], labels[:0])
    with pytest.raises(DataError):
        softmax_xent(logits, np.array([0, 2, 1]))


def test_adam_first_step_hand_math():
    params = {"w": np.array([1.0], dtype=np.float32)}
    state = init_adam(params)
    adam_step(params, {"w": np.array([0.5])}, state, lr=0.1)
    # bias-corrected m and v both equal the raw gradient on step one,
    # so the update is g / (|g| + eps)
    assert params["w"][0] == pytest.approx(1.0 - 0.1 * (0.5 / (0.5 + 1e-8)),
                                           abs=1e-7)
    assert state["t"] == 1
    assert params["w"].dtype == np.float32


def test_adam_decoupled_decay_shrinks_without_gradient():
    params = {"w": np.array([2.0, -4.0])}
    state = init_adam(params)
    adam_step(params, {"w": np.zeros(2)}, state, lr=0.1, weight_decay=0.05)
    assert np.allclose(params["w"], [2.0 * (1 - 0.005), -4.0 * (1 - 0.005)],
                       atol=1e-12)


def test_adam_matches_reference_loop():
    rng = rng_for(1, "adamref")
    p = rng.normal(size=5)
    params = {"w": p.copy()}
    state = init_adam(params)
    m = np.zeros(5)
    v = np.zeros(5)
    ref = p.copy()
    for t in range(1, 6):
        g = rng.normal(size=5)
        adam_step(params, {"w": g.copy()}, state, lr=0.01, weight_decay=0.02)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9 ** t)
        vh = v / (1 - 0.999 ** t)
        ref -= 0.01 * (mh / (np.sqrt(vh) + 1e-8) + 0.02 * ref)
        assert np.allclose(params["w"], ref, atol=1e-12)


def reference_adam_step(params, grads, state, lr, *, weight_decay=0.0,
                        beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam written with a fresh array per operation; the in-place update
    must reproduce it bit for bit."""
    state["t"] += 1
    t = state["t"]
    b1c = 1.0 - beta1 ** t
    b2c = 1.0 - beta2 ** t
    for k, p in params.items():
        g = grads[k].astype(p.dtype, copy=False)
        m = state["m"][k]
        v = state["v"][k]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = (m / b1c) / (np.sqrt(v / b2c) + eps)
        if weight_decay:
            update = update + weight_decay * p
        p -= (lr * update).astype(p.dtype, copy=False)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.02])
def test_adam_step_is_bit_identical_to_the_allocating_update(dtype, weight_decay):
    rng = rng_for(2, "adambits")
    shapes = {"w": (7, 5), "b": (5,)}
    params = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
    ref = {k: v.copy() for k, v in params.items()}
    state, ref_state = init_adam(params), init_adam(ref)
    for _ in range(6):
        # float64 gradients spanning many magnitudes, cast like a mixed run's
        grads = {k: rng.normal(size=s) * 10.0 ** rng.uniform(-6, 3, size=s)
                 for k, s in shapes.items()}
        kept = {k: g.copy() for k, g in grads.items()}
        adam_step(params, grads, state, lr=0.01, weight_decay=weight_decay)
        reference_adam_step(ref, kept, ref_state, lr=0.01, weight_decay=weight_decay)
        for k in shapes:
            assert np.array_equal(grads[k], kept[k])  # gradients are not scratch
            assert params[k].dtype == dtype
            assert np.array_equal(params[k], ref[k])
            assert np.array_equal(state["m"][k], ref_state["m"][k])
            assert np.array_equal(state["v"][k], ref_state["v"][k])
    assert state["t"] == ref_state["t"] == 6


def reference_concat_backward(params, cache, dlogits, depth):
    """ConcatMLP's backward pass carried down to the bank rows: returns the
    parameter gradients and the input gradient the model never forms."""
    grads = {"cls.w": cache["hidden"].T @ dlogits, "cls.b": dlogits.sum(axis=0)}
    dh = dlogits @ params["cls.w"].T
    grads["pre.w"] = cache["pre_in"].T @ dh
    grads["pre.b"] = dh.sum(axis=0)
    dh = dh @ params["pre.w"].T
    for i in reversed(range(depth)):
        if cache["masks"][i] is not None:
            dh = dh * cache["masks"][i]
        dh = dh * cache["gates"][i]
        grads[f"trunk{i}.w"] = cache["inputs"][i].T @ dh
        grads[f"trunk{i}.b"] = dh.sum(axis=0)
        dh = dh @ params[f"trunk{i}.w"].T
    return grads, dh


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_concat_mlp_backward_matches_reference_with_input_gradient(dropout):
    slabs, labels, ids = rand_instance(hops=3, width=4, n=40, seed=5)
    slabs = slabs.astype(np.float32)
    model = ConcatMLP(hops=3, width=4, num_classes=3, trunk=(16, 8))
    params = model.init(seed=1)
    logits, _, cache = model.forward(params, slabs, ids, train=dropout > 0,
                                     dropout=dropout, input_dropout=dropout,
                                     rng=np.random.default_rng(0))
    _, dlogits = softmax_xent(logits, labels[ids])
    grads = model.backward(params, cache, dlogits)
    want, dx = reference_concat_backward(params, cache, dlogits, depth=2)
    assert dx.shape == (len(ids), model.in_dim)
    assert grads.keys() == want.keys() == params.keys()
    for k in want:
        assert grads[k].dtype == want[k].dtype == np.float32
        assert np.array_equal(grads[k], want[k]), k


def reference_gru_scan_backward(params, cache, dpool, readout):
    """HopGRU's backward scan carried down to the zero initial state:
    returns the GRU gradients and the initial-state gradient the model never
    forms."""
    grads = {k: np.zeros_like(v) for k, v in params.items() if k.startswith("gru.")}
    steps = cache["steps"]
    ds = dpool if readout == "last" else dpool / len(steps)
    for k in reversed(range(len(steps))):
        st = steps[k]
        x, s_prev, r, z, c = st["x"], st["s_prev"], st["r"], st["z"], st["c"]
        dz = ds * (s_prev - c)
        dc = ds * (1.0 - z)
        ds_prev = ds * z
        dc_pre = dc * (1.0 - c * c)
        grads["gru.wc"] += x.T @ dc_pre
        grads["gru.uc"] += (r * s_prev).T @ dc_pre
        grads["gru.bc"] += dc_pre.sum(axis=0)
        drs = dc_pre @ params["gru.uc"].T
        dr = drs * s_prev
        ds_prev += drs * r
        dz_pre = dz * z * (1.0 - z)
        grads["gru.wz"] += x.T @ dz_pre
        grads["gru.uz"] += s_prev.T @ dz_pre
        grads["gru.bz"] += dz_pre.sum(axis=0)
        ds_prev += dz_pre @ params["gru.uz"].T
        dr_pre = dr * r * (1.0 - r)
        grads["gru.wr"] += x.T @ dr_pre
        grads["gru.ur"] += s_prev.T @ dr_pre
        grads["gru.br"] += dr_pre.sum(axis=0)
        ds_prev += dr_pre @ params["gru.ur"].T
        ds = ds_prev
        if readout == "mean" and k > 0:
            ds = ds + dpool / len(steps)
    return grads, ds


@pytest.mark.parametrize("readout", ["last", "mean"])
def test_hop_gru_backward_matches_reference_with_state_gradient(readout):
    slabs, labels, ids = rand_instance(hops=3, width=4, n=30, seed=6)
    slabs = slabs.astype(np.float32)
    model = HopGRU(hops=3, width=4, num_classes=3, state_dim=5, readout=readout)
    params = model.init(seed=2)
    logits, _, cache = model.forward(params, slabs, ids, train=True, dropout=0.2,
                                     input_dropout=0.1, rng=np.random.default_rng(1))
    _, dlogits = softmax_xent(logits, labels[ids])
    grads = model.backward(params, cache, dlogits)
    dpool = (dlogits @ params["cls.w"].T) @ params["pre.w"].T * cache["pm"]
    want, ds0 = reference_gru_scan_backward(params, cache, dpool, readout)
    assert ds0.shape == (len(ids), model.state_dim)
    for k in want:
        assert grads[k].dtype == np.float32
        assert np.array_equal(grads[k], want[k]), k


def test_accuracy_hand_case():
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 1, 1, 1])
    mask = np.array([True, True, True, False])
    assert accuracy(logits[mask], labels[mask]) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        accuracy(logits[:0], labels[:0])


def naive_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def test_roc_auc_matches_pairwise_oracle_with_ties():
    rng = rng_for(2, "auc")
    for trial in range(10):
        n = int(rng.integers(8, 40))
        scores = np.round(rng.normal(size=n), 1)  # force ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        mask = rng.random(n) < 0.8
        if labels[mask].size == 0 or labels[mask].min() == labels[mask].max():
            mask[:] = True
        got = roc_auc(scores[mask], labels[mask])
        want = naive_auc(scores[mask], labels[mask])
        assert got == pytest.approx(want, abs=1e-12)


def test_roc_auc_edges():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert roc_auc(scores, labels) == 1.0
    assert roc_auc(-scores, labels) == 0.0
    assert roc_auc(np.zeros(4), labels) == 0.5
    with pytest.raises(ValueError):
        roc_auc(scores, np.ones(4, dtype=int))
    with pytest.raises(ValueError):
        roc_auc(scores[:0], labels[:0])


def test_model_scores_binary_only():
    logits = np.array([[1.0, 3.0], [0.5, 0.0]])
    assert np.allclose(model_scores(logits), [2.0, -0.5])
    with pytest.raises(ValueError):
        model_scores(np.zeros((2, 3)))


def test_label_features_one_hot_and_diffused(k3):
    labels = np.array([0, 1, 1])
    split = np.array([0, 0, 2])  # two train nodes, one test node
    lv = LabelVector(labels=labels, train_mask=split == 0,
                     val_mask=split == 1, test_mask=split == 2,
                     num_classes=2)
    feats = label_features(lv)
    assert np.array_equal(feats, [[1, 0], [0, 1], [0, 0]])
    diffused = label_features(lv, make_operator(k3, "da"))
    assert np.all(diffused.sum(axis=1) <= 1.0 + 1e-6)
    assert diffused[2].sum() > 0.0  # test node sees its neighbors' labels


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(readout="attention")
    with pytest.raises(ConfigError):
        TrainConfig(metric="f1")
    with pytest.raises(ConfigError):
        HopGRU(hops=2, width=3, num_classes=2, readout="sum")


def test_init_is_seed_deterministic():
    model = HopGRU(hops=2, width=3, num_classes=2, state_dim=4)
    a = model.init(seed=5)
    b = model.init(seed=5)
    c = model.init(seed=6)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], c[k]) for k in a)
