"""Release gate: every primary criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <name>: PASS` line (visible with -s or in
the captured output); a failed assert marks the criterion FAIL.
"""

import time

import numpy as np
import pytest

from posecascade import cascade, cli, data, metrics, nn

from conftest import make_pose
from fdcheck import max_rel_error
from oracle import naive_counts


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


# -----------------------------------------------------------------------------
# 1. gradient correctness per layer kind, nets <= 1k params, < 30 s


def test_gradient_correctness_per_layer_kind():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    cases = {
        "conv": nn.init_network(
            [nn.Conv(3, 3, stride=2), nn.ReLU(), nn.Conv(4, 2), nn.FullyConnected(6)],
            (9, 9, 2), 6, seed=1,
        ),
        "relu": nn.init_network(
            [nn.FullyConnected(12), nn.ReLU(), nn.FullyConnected(4)], (8,), 4, seed=2
        ),
        "lrn": nn.init_network(
            [nn.Conv(6, 2), nn.LRN(depth=5), nn.FullyConnected(4)], (5, 5, 1), 4, seed=3
        ),
        "maxpool_fast": nn.init_network(
            [nn.Conv(3, 3), nn.MaxPool(2), nn.ReLU(), nn.FullyConnected(4)], (8, 8, 1), 4, seed=4
        ),
        "maxpool_general": nn.init_network(
            [nn.Conv(3, 3), nn.MaxPool(3, stride=2), nn.FullyConnected(4)], (9, 9, 1), 4, seed=5
        ),
        "fc": nn.init_network(
            [nn.FullyConnected(16), nn.ReLU(), nn.FullyConnected(6)], (10,), 6, seed=6
        ),
        "dropout": nn.init_network(
            [nn.FullyConnected(10), nn.Dropout(0.6), nn.FullyConnected(4)], (6,), 4, seed=7
        ),
    }
    worst = {}
    for name, net in cases.items():
        params = sum(p["w"].size + p["b"].size for p in net.params if p is not None)
        assert params <= 1000, f"{name} net has {params} params"
        x = rng.random(net.input_size)
        target = rng.random(net.output_dim)
        mask = np.ones(net.output_dim // 2, dtype=bool)
        seed = 123 if name == "dropout" else None  # fixed mask across FD sweeps
        worst[name] = max_rel_error(net, x, target, mask, step=1e-6, rng_seed=seed)
    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    report(
        "gradient-correctness",
        not bad and elapsed < 30.0,
        f"max_rel_err={max(worst.values()):.2e} runtime={elapsed:.1f}s",
    )


# -----------------------------------------------------------------------------
# 2. normalization round trip, 10k pairs, < 1e-9 per coordinate


def test_normalization_round_trip():
    # encode as a training target does, decode as cascade.predict does
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(10_000):
        p = rng.uniform(-500, 500, size=2)
        b = np.array([*rng.uniform(-500, 500, size=2), rng.uniform(0.1, 800), rng.uniform(0.1, 800)])
        v = cascade.view_targets(b[None], (p - b[:2])[None, None], np.ones((1, 1), bool))[0]
        back = v * b[2:] + b[:2]
        worst = max(worst, float(np.abs(back - p).max()))
    report("normalization-round-trip", worst < 1e-9, f"worst={worst:.2e}")


# -----------------------------------------------------------------------------
# 3. zero-output refinement identity on 100 random inputs, exact


def test_zero_output_refinement_identity():
    tree = data.default_tree()
    input_size = (24, 24, 1)
    layers = [nn.Conv(4, 5), nn.ReLU(), nn.MaxPool(2), nn.FullyConnected(18)]
    stage1 = nn.init_network(layers, input_size, 18, seed=31)
    stage2 = nn.init_network(layers, input_size, 18, seed=32)
    for p in stage2.params:
        if p is not None:
            p["w"][:] = 0.0
            p["b"][:] = 0.0
    stats = cascade.DisplacementStats(
        np.zeros((9, 2)), np.zeros((9, 2)), np.ones(9, bool), np.ones(9, int)
    )
    model = cascade.CascadeModel([stage1, stage2], [None, stats], 1.0, tree, input_size)
    rng = np.random.default_rng(33)
    exact = 0
    for _ in range(100):
        img = rng.random((40, 40, 1))
        result = cascade.predict(model, img)
        if len(result.poses) == 2 and np.array_equal(
            result.poses[0].joints, result.poses[1].joints
        ):
            exact += 1
    report("zero-refinement-identity", exact == 100, f"{exact}/100 exact")


# -----------------------------------------------------------------------------
# 4. metric oracles on 10 hand-built fixtures, exact integer counts


def test_metric_oracles():
    from posecascade.geometry import PoseTree

    tree = PoseTree(4, limbs=[(0, 1), (2, 3)], torso_pairs=[(0, 3)])
    gts, preds = [], []
    # fixture 1: exact
    g = make_pose([(0, 0), (10, 0), (0, 20), (8, 26)])
    gts.append(g)
    preds.append(g)
    # fixture 2: both endpoints at exactly 0.5 L (boundary, must count)
    gts.append(g)
    preds.append(make_pose([(0, 5), (10, 5), (0, 20), (8, 26)]))
    # fixture 3: loose-only detection (errors 0 and 0.9 L)
    gts.append(g)
    preds.append(make_pose([(0, 0), (10, 9), (0, 20), (8, 26)]))
    # fixture 4: everything far off
    gts.append(g)
    preds.append(make_pose([(100, 100), (120, 100), (100, 150), (130, 140)]))
    # fixture 5: unlabeled joint knocks out limb 1
    gts.append(make_pose(g.joints, mask=[True, True, False, True]))
    preds.append(g)
    # fixture 6: zero-length limb 0
    z = make_pose([(5, 5), (5, 5), (0, 20), (8, 26)])
    gts.append(z)
    preds.append(z)
    # fixtures 7-10: seeded random
    rng = np.random.default_rng(44)
    for _ in range(4):
        mask = rng.random(4) < 0.8
        mask[0] = mask[3] = True
        gg = make_pose(rng.uniform(0, 60, (4, 2)), mask)
        gts.append(gg)
        preds.append(make_pose(gg.joints + rng.normal(0, 6, (4, 2))))

    strict, loose = metrics.pcp(preds, gts, tree, 0.5)
    joint = metrics.pdj_curve(preds, gts, tree, [0.25])
    det_s, det_l, valid, jdet, jvalid = naive_counts(preds, gts, tree, 0.5, 0.25)
    ok = (
        strict.detected.tolist() == det_s
        and loose.detected.tolist() == det_l
        and strict.valid.tolist() == valid
        and joint.detected[0].tolist() == jdet
        and joint.valid.tolist() == jvalid
        and np.all(loose.rates >= strict.rates)
        and strict.detected[0] >= 2  # boundary fixture counted
    )
    report("metric-oracles", bool(ok),
           f"strict={strict.detected.tolist()} loose={loose.detected.tolist()}")


# -----------------------------------------------------------------------------
# 5. augmentation statistics: 10k draws within 5% of fitted mean/variance


def test_augmentation_statistics():
    k = 9
    rng = np.random.default_rng(55)
    # means bounded away from zero so "5% relative" is well-posed
    fitted = cascade.DisplacementStats(
        mean=rng.choice([-1.0, 1.0], size=(k, 2)) * rng.uniform(1.5, 3.0, size=(k, 2)),
        var=rng.uniform(0.5, 4.0, size=(k, 2)),
        present=np.ones(k, bool),
        count=np.full(k, 10_000),
    )
    worst_m, worst_v = 0.0, 0.0
    for i in range(k):
        draws = cascade.sample_displacement(fitted, np.full(10_000, i), rng)
        m_err = np.abs(draws.mean(axis=0) - fitted.mean[i]) / np.abs(fitted.mean[i])
        v_err = np.abs(draws.var(axis=0, ddof=1) - fitted.var[i]) / fitted.var[i]
        worst_m = max(worst_m, float(m_err.max()))
        worst_v = max(worst_v, float(v_err.max()))
    report(
        "augmentation-statistics",
        worst_m < 0.05 and worst_v < 0.05,
        f"mean_err={worst_m:.3f} var_err={worst_v:.3f}",
    )


# -----------------------------------------------------------------------------
# 6. synthetic cascade experiment: the scaled analogue of the headline claim


@pytest.fixture(scope="module")
def synthetic_experiment(tmp_path_factory):
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("experiment")
    train_m = data.synth_generate(data.SynthConfig(count=500, seed=42, image_size=(64, 64)),
                                  root / "train")
    test_m = data.synth_generate(data.SynthConfig(count=100, seed=43, image_size=(64, 64)),
                                 root / "test")
    train_ex = data.load_examples(train_m)
    test_ex = data.load_examples(test_m)
    tree = train_m.tree

    # the quick start's run with --stages 3 --stage1-crops 3: the paper's S = 3
    run = cli.RunConfig(stages=3, epochs=12, refine_epochs=1, stage1_crops=3, crops_per_joint=4,
                        seed=1)
    *_, model = cascade.train_cascade(train_ex, tree, run.stage_configs())

    results = cascade.predict_many(model, test_ex)
    truths = [ex.pose for ex in test_ex]
    rates = {}
    for stage in range(model.num_stages):
        preds = [r.poses[min(stage, len(r.poses) - 1)] for r in results]
        for f in (0.1, 0.2):
            rates[(stage + 1, f)] = float(metrics.pdj_curve(preds, truths, tree, [f]).rates[0].mean())
    return rates, time.perf_counter() - t0


@pytest.mark.slow
def test_synthetic_cascade_stage1_accuracy(synthetic_experiment):
    rates, elapsed = synthetic_experiment
    report(
        "synthetic-cascade-stage1",
        rates[(1, 0.2)] >= 0.6,
        f"stage1 PDJ@0.2={rates[(1, 0.2)]:.3f} (need >= 0.6)",
    )


@pytest.mark.slow
def test_synthetic_cascade_refinement_gain(synthetic_experiment):
    rates, elapsed = synthetic_experiment
    gain = rates[(2, 0.1)] - rates[(1, 0.1)]
    report(
        "synthetic-cascade-refinement",
        gain >= 0.05,
        f"PDJ@0.1 stage1={rates[(1, 0.1)]:.3f} stage2={rates[(2, 0.1)]:.3f} gain={gain:+.3f}",
    )


@pytest.mark.slow
def test_synthetic_cascade_stage3_refinement_gain(synthetic_experiment):
    rates, elapsed = synthetic_experiment
    gain = rates[(3, 0.1)] - rates[(2, 0.1)]
    report(
        "synthetic-cascade-stage3-refinement",
        gain >= 0.05,
        f"PDJ@0.1 stage2={rates[(2, 0.1)]:.3f} stage3={rates[(3, 0.1)]:.3f} gain={gain:+.3f}",
    )


@pytest.mark.slow
def test_synthetic_cascade_runtime_budget(synthetic_experiment):
    rates, elapsed = synthetic_experiment
    report(
        "synthetic-cascade-runtime",
        elapsed < 15 * 60,
        f"{elapsed:.0f}s (budget 900s on 4 cores)",
    )


# -----------------------------------------------------------------------------
# 7. overfit sanity: 10 examples, loss below 10% of initial


def test_overfit_sanity():
    rng = np.random.default_rng(77)
    net = nn.init_network(
        [nn.Conv(4, 3), nn.ReLU(), nn.MaxPool(2), nn.FullyConnected(8)], (10, 10, 1), 8, seed=70
    )
    x = rng.random((10, 10, 10, 1))
    y = rng.uniform(-0.4, 0.4, size=(10, 8))
    m = np.ones((10, 4), dtype=bool)
    initial = nn.l2_loss_batch(nn.forward(net, x)[0], y, m)[0]
    nn.train_epochs(net, x, y, m,
                    nn.TrainConfig(epochs=150, batch_size=10, learning_rate=0.02, seed=71))
    final = nn.l2_loss_batch(nn.forward(net, x)[0], y, m)[0]
    report("overfit-sanity", final < 0.1 * initial,
           f"initial={initial:.4f} final={final:.4f}")


# -----------------------------------------------------------------------------
# 8. determinism: two single-threaded cmd_train runs, byte-identical models


def test_cmd_train_determinism(tmp_path):
    synth = tmp_path / "data"
    assert cli.main(["synth", "--out", str(synth), "--count", "8", "--seed", "9",
                     "--size", "32"]) == 0
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = cli.main([
            "train", "--train", str(synth / "manifest.txt"), "--out", str(out),
            "--stages", "2", "--epochs", "2", "--batch", "16", "--crops-per-joint", "2",
            "--stage1-crops", "1", "--input-size", "24", "--seed", "13",
        ])
        assert code == 0
        blobs.append((out / "cascade.model").read_bytes())
    report("cmd-train-determinism", blobs[0] == blobs[1],
           f"{len(blobs[0])} bytes each")
