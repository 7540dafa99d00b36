import numpy as np
import pytest

from diffbank import (ConfigError, HopBank, NumericalError, StagePlan,
                      TrainConfig, batched_lanczos, blend, blend_alphas,
                      build_graph, chebyshev_bank, cosine_blend_weight,
                      evaluate_split, extract_hidden, jacobi_bank,
                      legendre_bank, make_operator, moment_signature,
                      monomial_bank, repropagate, reset_spmm_count, ritz_bank,
                      ritz_bank_as_hopbank, run_hrp_training,
                      screen_checkpoints, spectral_distance, train_stage)
from diffbank import hrp
from diffbank.graph import LabelVector
from diffbank.hrp import _load_hidden, _resolve_reprop_spec, build_model
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
        StagePlan(stages=1, epochs=1, hrp_family="fourier")
    with pytest.raises(ConfigError):
        StagePlan(stages=1, epochs=1, checkpoint_policy="random")
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


def test_reprop_spec_inherits_bank_provenance():
    g, x, bank, lv = make_case(seed=4)
    op = make_operator(g, "shifted")
    plan = StagePlan(stages=2, epochs=1, hrp_family="same")
    jac = jacobi_bank(op, x, 2, -0.25, 0.0)
    spec = _resolve_reprop_spec(plan, jac)
    assert spec["family"] == "jacobi"
    assert spec["jacobi_alpha"] == -0.25 and spec["jacobi_beta"] == 0.0
    kry = ritz_bank_as_hopbank(ritz_bank(batched_lanczos(op, x, 4), n=g.n),
                               3, raw_hop0=x)
    spec = _resolve_reprop_spec(plan, kry)
    assert spec["family"] == "krylov" and spec["lanczos_order"] == 4
    mono = monomial_bank(make_operator(g, "dad"), x, 2)
    spec = _resolve_reprop_spec(plan, mono)
    assert spec["family"] == "monomial" and spec["operator"] == "dad"
    bare = _resolve_reprop_spec(plan, HopBank(hops=1, slabs=bank.slabs[:2],
                                              provenance={}))
    assert bare["family"] == "legendre"  # missing provenance falls back
    with pytest.raises(ConfigError):
        _resolve_reprop_spec(plan, HopBank(hops=1, slabs=bank.slabs[:2],
                                           provenance={"basis": "wavelet"}))
    explicit = StagePlan(stages=2, epochs=1, hrp_family="chebyshev")
    assert _resolve_reprop_spec(explicit, jac)["family"] == "chebyshev"


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


def test_screen_checkpoints_selection_logic():
    candidates = ["a", "b", "c", "d"]
    small = {"a": 0.5, "b": 0.9, "c": 0.9, "d": 0.1}
    div = {"a": 9.0, "b": 1.0, "c": 2.0, "d": 9.0}
    winner, detail = screen_checkpoints(
        candidates, lambda c: small[c], lambda c: div[c])
    assert winner == "c"  # tied on small score, higher diversity wins
    assert detail == {"small_scores": [0.5, 0.9, 0.9, 0.1], "winner_index": 2}

    winner, _ = screen_checkpoints(candidates, lambda c: small[c], lambda c: 1.0)
    assert winner == "b"  # equal diversity falls back to the earlier index
    with pytest.raises(ValueError):
        screen_checkpoints([], lambda c: 0, lambda c: 0)


def test_train_stage_checkpoint_retention():
    g, x, bank, lv = make_case(seed=7)
    cfg = small_cfg(epochs=8)
    model = build_model("mlp", bank.hops, bank.width, 2, cfg)
    params = model.init(seed=0)
    from diffbank import init_adam
    rows = []
    out = train_stage(model, params, init_adam(params), bank, lv, cfg,
                      stage=1, epochs=8, seed=0, history_sink=rows.append)
    assert [r["epoch"] for r in out["history"]] == list(range(1, 9))
    assert rows == out["history"]
    assert sorted(out["early"]) == [1, 2, 3]
    assert len(out["top_ckpts"]) == 2
    vals = {r["epoch"]: r["val_metric"] for r in out["history"]}
    best_two = sorted(vals, key=lambda e: (-vals[e], e))[:2]
    assert sorted(out["top_epochs"]) == sorted(best_two)
    assert out["best"]["epoch"] == min(e for e in vals
                                       if vals[e] == max(vals.values()))
    assert out["best"]["params"] is not params  # deep copy, not a live view


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
    assert res.report["total_diffusion_spmm"] == 0
    assert res.report["total_diagnostic_spmm"] == 0
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
    assert res.report["total_diffusion_spmm"] == bank.hops
    assert res.report["total_diagnostic_spmm"] == 0
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
    for snap in st.hidden_snapshots.values():
        assert isinstance(snap, str)
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


@pytest.mark.parametrize("diagnostics", [False, True])
def test_raw_feature_signature_is_computed_once_per_run(monkeypatch, diagnostics):
    g, x, bank, lv = make_case(seed=14)
    real_screen = hrp.screen_checkpoints
    tied = []

    def all_tied(candidates, evaluate_small, diversity, **kw):
        tied.append(len(candidates))
        return real_screen(candidates, lambda c: 0.0, diversity, **kw)

    monkeypatch.setattr(hrp, "screen_checkpoints", all_tied)
    plan = StagePlan(stages=2, epochs=3, checkpoint_policy="diversity-screened",
                     diagnostics=diagnostics)
    res = run_hrp_training(plan, bank, g, lv, small_cfg(epochs=3))
    assert tied == [3]
    # 4 products per moment signature: three candidates plus the raw
    # features once, and with diagnostics the selected hidden states
    assert res.stages[0].diagnostic_spmm == (20 if diagnostics else 16)
    if diagnostics:
        st = res.stages[0]
        hidden = st.hidden_snapshots[st.selected_epoch]
        assert st.spectral_distance_to_x == spectral_distance(
            hidden, x, make_operator(g, "lap"))
