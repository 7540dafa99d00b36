import copy
from types import SimpleNamespace

import numpy as np
import pytest

from diffbank import (ConfigError, NumericalError, StagePlan, TrainConfig,
                      batched_lanczos, blend, blend_alphas, chebyshev_bank,
                      cosine_blend_weight, extract_hidden, init_adam, jacobi_bank,
                      legendre_bank, make_operator, monomial_bank, repropagate,
                      reset_spmm_count, run_hrp_training, softmax_xent, train_stage)
from diffbank import hrp
from diffbank.backbone import adam_step
from diffbank.banks import HopBank
from diffbank.config import validate_config
from diffbank.experiment import build_bank, prepare_dataset, run_seed
from diffbank.graph import LabelVector, spmm_call_count
from diffbank.hrp import (_load_hidden, build_model, diffuse, evaluate_split,
                          moment_signature, spectral_distance)
from diffbank.krylov import ritz_bank, ritz_bank_as_hopbank
from diffbank.rng import rng_for

from conftest import random_graph, seeded_features


def make_case(seed=0, n=24, d=3, hops=3, num_classes=2):
    rng = rng_for(seed, "hrpcase")
    g = random_graph(rng, n, kind="sbm")
    x = seeded_features(g, d, seed).astype(np.float32)
    bank = legendre_bank(make_operator(g, "shifted"), x, hops)
    labels = rng.integers(0, num_classes, size=n)
    split = rng.permutation(np.repeat([0, 1, 2], [n - 2 * (n // 4)] +
                                      [n // 4, n // 4]))
    lv = LabelVector(labels=labels, train_mask=split == 0, val_mask=split == 1,
                     test_mask=split == 2, num_classes=num_classes)
    return g, x, bank, lv


def small_cfg(**kw):
    base = dict(lr=0.05, batch_size=16, epochs=4, trunk=(8,), patience=50,
                seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_cosine_blend_weight_values_and_monotonicity():
    w1 = cosine_blend_weight(1, 4, 0.5)
    assert w1 == pytest.approx(0.25 * (1 + np.cos(np.pi / 4)), abs=1e-14)
    assert cosine_blend_weight(2, 4, 0.5) == pytest.approx(0.25, abs=1e-14)
    ws = [cosine_blend_weight(s, 5, 0.8) for s in range(1, 5)]
    assert all(a > b for a, b in zip(ws, ws[1:]))
    assert all(0.0 <= w <= 0.8 for w in ws)
    assert cosine_blend_weight(3, 4, 0.0) == 0.0
    with pytest.raises(ValueError):
        cosine_blend_weight(0, 4, 0.5)
    with pytest.raises(ValueError):
        cosine_blend_weight(4, 4, 0.5)


def test_blend_alphas_schedules():
    plan = StagePlan(stages=3, epochs=2, lambda0=0.6, schedule="constant")
    a = blend_alphas(plan, 1, 4)
    assert a[0] == 1.0
    assert np.allclose(a[1:], 0.4)
    plan = StagePlan(stages=3, epochs=2, lambda0=0.6)
    a1 = blend_alphas(plan, 1, 4)
    a2 = blend_alphas(plan, 2, 4)
    assert np.all(a1[1:] < a2[1:])  # later stages blend less in
    plan = StagePlan(stages=2, epochs=2, schedule="perhop",
                     alpha_vectors=[[1.0, 0.5, 0.25]])
    assert np.allclose(blend_alphas(plan, 1, 2), [1.0, 0.5, 0.25])
    with pytest.raises(ConfigError):
        blend_alphas(plan, 1, 3)  # wrong length
    bad = StagePlan(stages=2, epochs=2, schedule="perhop",
                    alpha_vectors=[[0.9, 0.5, 0.25]])
    with pytest.raises(ConfigError):
        blend_alphas(bad, 1, 2)  # hop 0 must stay raw


def test_stage_plan_validation():
    with pytest.raises(ConfigError):
        StagePlan(stages=0, epochs=1)
    with pytest.raises(ConfigError):
        StagePlan(stages=8, epochs=1)
    with pytest.raises(ConfigError):
        StagePlan(stages=2, epochs=[5])
    with pytest.raises(ConfigError):
        StagePlan(stages=1, epochs=0)
    with pytest.raises(ConfigError):
        StagePlan(stages=1, epochs=1, lambda0=1.5)
    with pytest.raises(ConfigError):
        StagePlan(stages=1, epochs=1, schedule="linear")
    with pytest.raises(ConfigError):
        StagePlan(stages=2, epochs=1, schedule="perhop")
    with pytest.raises(ConfigError):
        StagePlan(stages=1, epochs=1, patience=0)
    plan = StagePlan(stages=3, epochs=5)
    assert plan.epochs == [5, 5, 5]


def test_blend_endpoints_are_bit_exact():
    g, x, bank, lv = make_case(seed=1)
    other = chebyshev_bank(make_operator(g, "shifted"), x, bank.hops)
    mixed = blend(bank, other, [1.0, 1.0, 0.0, 0.5])
    assert np.array_equal(mixed.slabs[0], bank.slabs[0])
    assert np.array_equal(mixed.slabs[1], bank.slabs[1])
    assert np.array_equal(mixed.slabs[2], other.slabs[2])
    want = np.float32(0.5) * bank.slabs[3] + np.float32(0.5) * other.slabs[3]
    assert np.array_equal(mixed.slabs[3], want)
    assert mixed.provenance["blended"]["alphas"] == [1.0, 1.0, 0.0, 0.5]
    assert mixed.provenance["blended"]["source"] == other.provenance


def test_blend_validation():
    g, x, bank, lv = make_case(seed=2)
    other = legendre_bank(make_operator(g, "shifted"), x, bank.hops)
    with pytest.raises(ValueError):
        blend(bank, other, [1.0, 0.5])
    with pytest.raises(ValueError):
        blend(bank, other, [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        blend(bank, other, [1.0, 0.5, 0.5, 1.5])
    small = HopBank(hops=1, slabs=bank.slabs[:2], provenance={})
    with pytest.raises(ValueError):
        blend(bank, small, [1.0, 0.5, 0.5, 0.5])


def test_repropagate_dispatches_to_bank_builders():
    g, x, bank, lv = make_case(seed=3)
    hidden = seeded_features(g, 4, 9).astype(np.float32)
    op = make_operator(g, "shifted")
    got = repropagate(g, hidden, 3, family="legendre")
    assert np.array_equal(got.slabs, legendre_bank(op, hidden, 3).slabs)
    got = repropagate(g, hidden, 3, family="chebyshev")
    assert np.array_equal(got.slabs, chebyshev_bank(op, hidden, 3).slabs)
    got = repropagate(g, hidden, 3, family="jacobi", jacobi_alpha=-0.3,
                      jacobi_beta=0.1)
    assert np.array_equal(got.slabs, jacobi_bank(op, hidden, 3, -0.3, 0.1).slabs)
    got = repropagate(g, hidden, 3, family="monomial", operator="dad")
    assert np.array_equal(got.slabs,
                          monomial_bank(make_operator(g, "dad"), hidden, 3).slabs)
    got = repropagate(g, hidden, 3, family="krylov")
    rb = ritz_bank(batched_lanczos(op, hidden, 4), n=g.n)
    assert np.array_equal(got.slabs,
                          ritz_bank_as_hopbank(rb, 3, raw_hop0=hidden).slabs)
    with pytest.raises(ConfigError):
        repropagate(g, hidden, 3, family="fourier")


# config overrides per basis; every case builds a 3-hop bank of an SBM graph
RECIPES = {
    "monomial": {"basis": "monomial", "operator": "dad"},
    "chebyshev": {"basis": "chebyshev"},
    "legendre": {"basis": "legendre"},
    "jacobi": {"basis": "jacobi", "jacobi": {"alpha": -0.3, "beta": 0.2}},
    "auto": {"basis": "auto",
             "calibration": {"order": 10, "probes": 8, "exact": False}},
    "krylov": {"basis": "krylov"},
}


@pytest.mark.parametrize("basis", list(RECIPES))
def test_bank_provenance_is_the_recipe_that_rebuilds_it(basis):
    cfg = validate_config({
        "dataset": {"synthetic": {"generator": "sbm", "n": 40, "blocks": 2,
                                  "p_intra": 0.2, "p_inter": 0.05,
                                  "feature_dim": 3}},
        "hops": 3, "seeds": [0], "hrp": {"stages": 2, "epochs": 2},
        "train": {"epochs": 2, "batch_size": 16, "trunk": [8], "lr": 0.05},
        **RECIPES[basis]})
    g, x, lv, _ = prepare_dataset(cfg, 0)
    bank, details = build_bank(cfg, g, x)
    pre = spmm_call_count()
    again = diffuse(make_operator(g, bank.provenance["operator"]), x, bank.hops,
                    bank.provenance)
    cost = spmm_call_count() - pre
    assert np.array_equal(again.slabs.view(np.uint32), bank.slabs.view(np.uint32))
    assert again.provenance == bank.provenance
    calibration = cfg["calibration"]["order"] if basis == "auto" else 0
    assert details["spmm"] == calibration + cost
    # a staged run re-propagates at the bank's own cost
    row, _ = run_seed(cfg, 0)
    assert [st["diffusion_spmm"] for st in row["stages"]] == [cost, 0]


def test_a_bank_no_recipe_rebuilds_fails_before_stage_1(monkeypatch):
    g, x, bank, lv = make_case(seed=4)

    def no_training(*args, **kwargs):
        raise AssertionError("stage 1 trained before the recipe was checked")

    monkeypatch.setattr(hrp, "train_stage", no_training)
    plan = StagePlan(stages=2, epochs=2)
    for prov in ({}, {"operator": "shifted", "hops": bank.hops},
                 {"basis": "wavelet", "operator": "shifted"},
                 {"basis": "legendre"},  # the shape bank files in test_io carry
                 {"basis": "jacobi", "operator": "shifted", "alpha": 0.0}):
        bare = HopBank(hops=bank.hops, slabs=bank.slabs, provenance=prov)
        with pytest.raises(ConfigError, match="no bank recipe"):
            run_hrp_training(plan, bare, g, lv, small_cfg())


def test_extract_hidden_matches_direct_forward():
    g, x, bank, lv = make_case(seed=5)
    cfg = small_cfg()
    model = build_model("mlp", bank.hops, bank.width, 2, cfg)
    params = model.init(seed=0)
    hid = extract_hidden(model, params, bank, chunk=7)
    _, direct, _ = model.forward(params, bank.slabs, np.arange(g.n), train=False)
    assert hid.dtype == np.float32
    assert np.array_equal(hid, direct.astype(np.float32))


def test_moment_signature_on_laplacian_eigenvectors(p2):
    lap = make_operator(p2, "lap")
    x = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.float64)
    sig, keep = moment_signature(x, lap, max_power=4)
    assert list(keep) == [0, 1]
    assert np.allclose(sig[0], [1, 0, 0, 0, 0], atol=1e-12)
    powers = np.array([1.0, 4.0, 16.0, 64.0, 256.0])
    assert np.allclose(sig[1], powers / powers.sum(), atol=1e-6)
    assert np.allclose(sig.sum(axis=1), 1.0, atol=1e-12)


def test_moment_signature_drops_zero_channels(k3):
    lap = make_operator(k3, "lap")
    x = np.zeros((3, 3))
    x[:, 2] = [1.0, 2.0, 3.0]
    sig, keep = moment_signature(x, lap)
    assert list(keep) == [2]
    assert sig.shape == (1, 5)


def test_spectral_distance_properties(path4):
    lap = make_operator(path4, "lap")
    rng = rng_for(6, "dist")
    x = rng.normal(size=(4, 3))
    assert spectral_distance(x, x, lap) == pytest.approx(0.0, abs=1e-12)
    smooth = np.ones((4, 1))
    rough = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    d = spectral_distance(smooth, rough, lap)
    assert d > 0.1
    assert spectral_distance(rough, smooth, lap) == pytest.approx(d, abs=1e-12)
    with pytest.raises(ValueError):
        spectral_distance(x, x[:, :2], lap)
    a = np.zeros((4, 2))
    b = np.zeros((4, 2))
    a[:, 0] = 1.0
    b[:, 1] = 1.0
    with pytest.raises(NumericalError):
        spectral_distance(a, b, lap)


def test_train_stage_checkpoint_retention(monkeypatch):
    g, x, bank, lv = make_case(seed=7)
    cfg = small_cfg(epochs=8)
    model = build_model("mlp", bank.hops, bank.width, 2, cfg)
    params = model.init(seed=0)
    adam = init_adam(params)
    copied = []

    def counting(obj):
        copied.append(obj)
        return copy.deepcopy(obj)

    monkeypatch.setattr(hrp, "copy", SimpleNamespace(deepcopy=counting))
    out = train_stage(model, params, adam, bank, lv, cfg, stage=1, epochs=8, seed=0)
    assert [r["epoch"] for r in out["history"]] == list(range(1, 9))
    vals = {r["epoch"]: r["val_metric"] for r in out["history"]}
    assert out["best"]["epoch"] == min(e for e in vals
                                       if vals[e] == max(vals.values()))
    assert out["best"]["params"] is not params  # deep copy, not a live view
    # a best-val run without diagnostics copies the params and the Adam
    # state of each improving epoch, and nothing else
    assert out["early"] == {}
    assert not any(key.startswith("top") for key in out)
    improving = sum(vals[e] > max([-np.inf] + [vals[p] for p in range(1, e)])
                    for e in vals)
    assert len(copied) == 2 * improving
    assert all(p is params and a is adam for p, a in zip(copied[::2], copied[1::2]))

    params = model.init(seed=0)
    out = train_stage(model, params, init_adam(params), bank, lv, cfg, stage=1,
                      epochs=8, seed=0, diagnostics=True)
    assert sorted(out["early"]) == [1, 2, 3]


def test_train_stage_early_stop_with_frozen_params():
    g, x, bank, lv = make_case(seed=8)
    cfg = small_cfg(lr=0.0)
    model = build_model("mlp", bank.hops, bank.width, 2, cfg)
    params = model.init(seed=0)
    from diffbank import init_adam
    out = train_stage(model, params, init_adam(params), bank, lv, cfg,
                      stage=1, epochs=10, seed=0, patience=1)
    assert out["stopped_early"] is True
    assert len(out["history"]) == 2  # epoch 2 cannot beat epoch 1, stop there
    assert out["best"]["epoch"] == 1


def test_run_single_stage_needs_no_graph():
    g, x, bank, lv = make_case(seed=9)
    cfg = small_cfg(epochs=3)
    plan = StagePlan(stages=1, epochs=3)
    res = run_hrp_training(plan, bank, None, lv, cfg)
    assert res.best_stage == 1
    assert res.stages[0].diffusion_spmm == 0
    assert res.stages[0].diagnostic_spmm == 0
    with pytest.raises(ConfigError):
        run_hrp_training(StagePlan(stages=2, epochs=2), bank, None, lv, cfg)


def test_run_two_stages_preserves_raw_hop0_and_counts_spmm():
    g, x, bank, lv = make_case(seed=10)
    cfg = small_cfg(epochs=3)
    plan = StagePlan(stages=2, epochs=3, lambda0=0.5)
    reset_spmm_count()
    res = run_hrp_training(plan, bank, g, lv, cfg)
    assert len(res.stages) == 2
    # one legendre re-propagation of K hops between the two stages
    assert [s.diffusion_spmm for s in res.stages] == [bank.hops, 0]
    assert [s.diagnostic_spmm for s in res.stages] == [0, 0]
    assert res.stages[0].hidden_snapshots == {}
    assert np.array_equal(res.bank.slabs[0], bank.slabs[0])
    assert res.best_val == max(s.val_metric for s in res.stages)


def test_run_diagnostics_record_snapshots_and_distances(tmp_path):
    g, x, bank, lv = make_case(seed=11)
    cfg = small_cfg(epochs=4)
    plan = StagePlan(stages=2, epochs=4, diagnostics=True)
    res = run_hrp_training(plan, bank, g, lv, cfg, workdir=tmp_path)
    st = res.stages[0]
    assert st.diagnostic_spmm > 0
    assert st.spectral_distance_to_x is not None
    assert set(st.hidden_snapshots) >= {1, 2, 3}
    for e, snap in st.hidden_snapshots.items():
        assert snap == str(tmp_path / f"hidden_seed{cfg.seed}_s1_e{e}.npy")
        arr = _load_hidden(snap)
        assert arr.shape == (g.n, bank.width)
    # final stage never re-propagates, so it records no snapshots
    assert res.stages[1].hidden_snapshots == {}


def test_cold_restart_matches_fresh_training():
    g, x, bank, lv = make_case(seed=12)
    cfg = small_cfg(epochs=2)
    plan = StagePlan(stages=2, epochs=2, lambda0=0.0, warm_start=False)
    res = run_hrp_training(plan, bank, g, lv, cfg)
    # lambda0 = 0 keeps the bank fixed, so stage 2 must equal a fresh model
    # trained on the original bank with the stage-2 streams and init seed
    from diffbank import init_adam
    model = build_model("mlp", bank.hops, bank.width, 2, cfg)
    p2 = model.init(seed=cfg.seed + 1, dtype=np.float32)
    manual = train_stage(model, p2, init_adam(p2), bank, lv, cfg, stage=2,
                         epochs=2, seed=cfg.seed, patience=plan.patience)
    got = [r["train_loss"] for r in res.stages[1].history]
    want = [r["train_loss"] for r in manual["history"]]
    assert got == want
    assert res.stages[1].val_metric == manual["best"]["val"]


def test_evaluate_split_chunking_and_auc():
    g, x, bank, lv = make_case(seed=13)
    cfg = small_cfg()
    model = build_model("mlp", bank.hops, bank.width, 2, cfg)
    params = model.init(seed=0)
    a = evaluate_split(model, params, bank, lv, lv.val_mask, "accuracy", chunk=3)
    b = evaluate_split(model, params, bank, lv, lv.val_mask, "accuracy")
    assert a == b
    auc = evaluate_split(model, params, bank, lv, lv.val_mask, "roc_auc")
    assert 0.0 <= auc <= 1.0


def test_raw_feature_signature_is_computed_once_per_run():
    g, x, bank, lv = make_case(seed=14)
    plan = StagePlan(stages=3, epochs=3, diagnostics=True)
    res = run_hrp_training(plan, bank, g, lv, small_cfg(epochs=3))
    # 4 products per moment signature: the raw features once, at stage 1,
    # and the selected hidden states of each stage that re-propagates
    assert [st.diagnostic_spmm for st in res.stages] == [8, 4, 0]
    for st in res.stages[:2]:
        hidden = st.hidden_snapshots[st.selected_epoch]
        assert st.spectral_distance_to_x == spectral_distance(
            hidden, x, make_operator(g, "lap"))


def test_train_stage_without_dropout_draws_only_shuffles(monkeypatch):
    g, x, bank, lv = make_case(seed=15)
    keys = []

    def counting(*key):
        keys.append(key)
        return rng_for(*key)

    monkeypatch.setattr(hrp, "rng_for", counting)
    cfg = small_cfg(epochs=3, batch_size=4)
    model = build_model("mlp", bank.hops, bank.width, 2, cfg)
    params = model.init(seed=0)
    out = train_stage(model, params, init_adam(params), bank, lv, cfg,
                      stage=2, epochs=3, seed=5)
    assert len(out["history"]) == 3
    # three batches per epoch, yet one stream per epoch: its shuffle
    assert keys == [(5, "shuffle", 2, e) for e in (1, 2, 3)]


def test_train_stage_dropout_masks_keyed_by_stage_epoch_and_batch():
    g, x, bank, lv = make_case(seed=16)
    cfg = small_cfg(epochs=3, batch_size=5, dropout=0.3, input_dropout=0.2)
    model = build_model("mlp", bank.hops, bank.width, 2, cfg)
    p0 = model.init(seed=0)
    params = copy.deepcopy(p0)
    got = train_stage(model, params, init_adam(params), bank, lv, cfg,
                      stage=2, epochs=3, seed=4)["history"]

    params = copy.deepcopy(p0)
    adam = init_adam(params)
    train_ids = np.nonzero(lv.train_mask)[0]
    want = []
    for epoch in (1, 2, 3):
        order = rng_for(4, "shuffle", 2, epoch).permutation(train_ids)
        losses = []
        for bi, lo in enumerate(range(0, order.size, cfg.batch_size)):
            batch = order[lo:lo + cfg.batch_size]
            logits, _, cache = model.forward(
                params, bank.slabs, batch, train=True, dropout=0.3,
                input_dropout=0.2, rng=rng_for(4, "dropout", 2, epoch, bi))
            loss, dlogits = softmax_xent(logits, lv.labels[batch])
            losses.append(loss)
            adam_step(params, model.backward(params, cache, dlogits), adam, cfg.lr)
        val = evaluate_split(model, params, bank, lv, lv.val_mask)
        want.append({"stage": 2, "epoch": epoch, "train_loss": float(np.mean(losses)),
                     "val_metric": float(val)})
    assert got == want
    plain = small_cfg(epochs=3, batch_size=5)
    params = copy.deepcopy(p0)
    undropped = train_stage(model, params, init_adam(params), bank, lv, plain,
                            stage=2, epochs=3, seed=4)["history"]
    assert [r["train_loss"] for r in undropped] != [r["train_loss"] for r in got]


@pytest.mark.parametrize("diagnostics, laplacians", [(False, 0), (True, 1)])
def test_laplacian_is_built_only_to_measure_distances(monkeypatch, diagnostics,
                                                      laplacians):
    g, x, bank, lv = make_case(seed=17)
    kinds = []
    real = hrp.make_operator

    def counting(graph, kind):
        kinds.append(kind)
        return real(graph, kind)

    monkeypatch.setattr(hrp, "make_operator", counting)
    plan = StagePlan(stages=3, epochs=2, diagnostics=diagnostics)
    res = run_hrp_training(plan, bank, g, lv, small_cfg(epochs=2))
    # with diagnostics both re-propagating stages measure a distance, on one
    # Laplacian
    assert [s.spectral_distance_to_x is not None for s in res.stages] == \
        [diagnostics, diagnostics, False]
    assert kinds.count("lap") == laplacians
    assert kinds.count("shifted") == 2  # one per re-propagation
