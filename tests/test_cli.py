import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from posecascade import cascade, cli, data, nn
from posecascade.cascade import load_cascade, save_cascade
from posecascade.errors import InvalidArgumentError

from conftest import file_with_param, loads_or_is_rejected, mutated, wrapping_size_model


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    assert run("synth", "--out", str(d), "--count", "6", "--seed", "7", "--size", "32") == 0
    return d


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    code = run(
        "train",
        "--train", str(synth_dir / "manifest.txt"),
        "--out", str(out),
        "--stages", "2",
        "--sigma", "1.0",
        "--epochs", "2",
        "--batch", "16",
        "--crops-per-joint", "1",
        "--stage1-crops", "1",
        "--input-size", "24",
        "--seed", "3",
    )
    assert code == 0
    return out


# --- synth ------------------------------------------------------------------------


def test_serving_loads_no_module_of_the_training_worker():
    # the worker's modules load when training forks it, not on import, so a
    # process that only serves keeps its RSS
    script = """if True:
        import sys
        import numpy as np
        from posecascade import cascade, cli, nn

        def loaded():
            print(*(m for m in ("mmap", "signal", "multiprocessing", "concurrent.futures") if m in sys.modules))

        loaded()
        net, rng = cascade.StageConfig(sigma=1.0).build_network(4), np.random.default_rng(0)
        nn.train_epochs(net, rng.random((16, 60, 60, 1), np.float32), rng.random((16, 4)),
                        np.ones((16, 2), bool), nn.TrainConfig(epochs=1))  # two slices: a pair
        loaded()
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\nmmap signal\n"


def test_synth_writes_dataset(synth_dir):
    m = data.load_manifest(synth_dir / "manifest.txt")
    assert len(m.examples) == 6
    for ex in m.examples:
        assert (synth_dir / ex.image_path).exists()


def test_synth_repeat_same_digest(tmp_path, synth_dir):
    d2 = tmp_path / "again"
    assert run("synth", "--out", str(d2), "--count", "6", "--seed", "7", "--size", "32") == 0
    h1 = hashlib.sha256((synth_dir / "manifest.txt").read_bytes()).hexdigest()
    h2 = hashlib.sha256((d2 / "manifest.txt").read_bytes()).hexdigest()
    assert h1 == h2


@pytest.mark.parametrize("flag, value", [("--noise", "-1"), ("--noise", "nan"),
                                         ("--noise", "inf"), ("--size", "0"), ("--size", "-4"),
                                         ("--size", "6"), ("--seed", "-3")])
def test_synth_bad_setting_is_data_error(tmp_path, capsys, flag, value):
    out = tmp_path / "synth"
    assert run("synth", "--out", str(out), "--count", "2", flag, value) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_synth_missing_out_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        run("synth", "--count", "3")
    assert e.value.code == 1


# --- train ------------------------------------------------------------------------


def test_train_writes_model_and_checkpoints(trained_dir):
    assert (trained_dir / "cascade.model").exists()
    assert (trained_dir / "cascade_stage1.model").exists()
    assert (trained_dir / "cascade_stage2.model").exists()
    model = load_cascade(trained_dir / "cascade.model")
    assert model.num_stages == 2


def test_train_heldout_report_rows(trained_dir):
    lines = (trained_dir / "heldout_report.txt").read_text().strip().splitlines()
    rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("stage ")]
    assert len(rows) == 2  # one per stage
    for row in rows:
        stage, pdj02, err = row.split()
        assert 0.0 <= float(pdj02) <= 1.0
        assert float(err) >= 0.0


def test_train_single_stage(tmp_path, synth_dir):
    out = tmp_path / "s1"
    code = run(
        "train", "--train", str(synth_dir / "manifest.txt"), "--out", str(out),
        "--stages", "1", "--epochs", "1", "--batch", "16", "--stage1-crops", "0",
        "--input-size", "24", "--seed", "1",
    )
    assert code == 0
    model = load_cascade(out / "cascade.model")
    assert model.num_stages == 1


def test_train_three_stages(tmp_path, synth_dir):
    out = tmp_path / "s3"
    code = run(
        "train", "--train", str(synth_dir / "manifest.txt"), "--out", str(out),
        "--stages", "3", "--epochs", "1", "--batch", "16", "--crops-per-joint", "1",
        "--stage1-crops", "1", "--input-size", "24", "--seed", "4",
    )
    assert code == 0
    assert load_cascade(out / "cascade.model").num_stages == 3
    assert (out / "cascade_stage3.model").exists()
    rows = (out / "heldout_report.txt").read_text().splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["1", "2", "3"]
    assert run("eval", "--model", str(out / "cascade.model"),
               "--manifest", str(synth_dir / "manifest.txt"), "--out", str(out / "eval")) == 0
    assert (out / "eval" / "eval_stage3.txt").exists()
    assert (out / "eval" / "eval_stage3.json").exists()


def test_train_determinism_byte_identical(tmp_path, synth_dir):
    outs = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        code = run(
            "train", "--train", str(synth_dir / "manifest.txt"), "--out", str(out),
            "--stages", "2", "--epochs", "1", "--batch", "16", "--crops-per-joint", "1",
            "--stage1-crops", "1", "--input-size", "24", "--seed", "5",
        )
        assert code == 0
        outs.append((out / "cascade.model").read_bytes())
    assert outs[0] == outs[1]


def test_train_config_file_with_flag_override(tmp_path, synth_dir):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "train = {m}\nout = {o}\nstages = 1\nepochs = 1\nbatch = 16\n"
        "stage1_crops = 0\ninput_size = 24\nseed = 2\n# comment line\n".format(
            m=synth_dir / "manifest.txt", o=tmp_path / "cfgout"
        )
    )
    assert run("train", "--config", str(cfg)) == 0
    assert (tmp_path / "cfgout" / "cascade.model").exists()
    # flag wins over file value
    assert run("train", "--config", str(cfg), "--out", str(tmp_path / "cfgout2")) == 0
    assert (tmp_path / "cfgout2" / "cascade.model").exists()


def test_train_zero_batch_is_data_error(tmp_path, synth_dir, capsys):
    code = run("train", "--train", str(synth_dir / "manifest.txt"), "--out", str(tmp_path / "o"),
               "--batch", "0")
    assert code == 2
    assert "batch size" in capsys.readouterr().err
    assert not (tmp_path / "o" / "cascade_stage1.model").exists()


@pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf"])
def test_train_bad_sigma_is_data_error_before_reading_data(tmp_path, capsys, sigma):
    code = run("train", "--train", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "o"),
               "--sigma", sigma)
    assert code == 2
    assert "sigma must be" in capsys.readouterr().err


def test_train_negative_stage1_crops_is_data_error(tmp_path, synth_dir, capsys):
    code = run("train", "--train", str(synth_dir / "manifest.txt"), "--out", str(tmp_path / "o"),
               "--stage1-crops", "-1")
    assert code == 2
    assert "stage1_jitter_crops must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("stages", ["0", "-3"])
@pytest.mark.parametrize("by_key", [False, True], ids=["flag", "config_key"])
def test_train_nonpositive_stages_is_data_error(tmp_path, synth_dir, monkeypatch, capsys,
                                                stages, by_key):
    def no_data(*args, **kwargs):
        pytest.fail("data was read before the stage count was checked")

    monkeypatch.setattr(cli.dat, "load_manifest", no_data)
    out = tmp_path / "o"
    if by_key:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"train = {synth_dir / 'manifest.txt'}\nout = {out}\nstages = {stages}\n")
        code = run("train", "--config", str(cfg))
    else:
        code = run("train", "--train", str(synth_dir / "manifest.txt"), "--out", str(out),
                   "--stages", stages)
    assert code == 2
    assert f"stages must be >= 1, got {stages}" in capsys.readouterr().err
    assert not (out / "cascade.model").exists()


def test_stage_configs_seed_each_stage_from_the_run_seed():
    configs = cli.RunConfig(seed=3, stages=3, epochs=5).stage_configs()
    assert [c.seed for c in configs] == [3001, 3002, 3003]
    assert [c.train.seed for c in configs] == [3001, 3002, 3003]
    assert [c.train.epochs for c in configs] == [5, 5, 5]


def test_stage_configs_refine_epochs_set_only_the_refinement_stages():
    configs = cli.RunConfig(seed=3, stages=3, epochs=5, refine_epochs=2).stage_configs()
    assert [c.train.epochs for c in configs] == [5, 2, 2]


def test_stage_configs_carry_every_stage_setting():
    run = cli.RunConfig(stages=2, sigma=1.5, crops_per_joint=7, stage1_crops=2, batch=16,
                        lr=0.01, dropout=0.5, input_size=30, use_lrn=True)
    for config in run.stage_configs():
        assert (config.sigma, config.crops_per_joint, config.stage1_jitter_crops) == (1.5, 7, 2)
        assert (config.train.batch_size, config.train.learning_rate) == (16, 0.01)
        assert config.input_size == (30, 30, 1)
        assert config.hidden == cascade.default_hidden(0.5, use_lrn=True)


@pytest.mark.parametrize("settings, message", [
    ({"stages": 0}, "stages must be >= 1, got 0"),
    ({"seed": -1}, "seed must be >= 0, got -1"),  # as given, not the per-stage -999
])
def test_stage_configs_reject_a_bad_stage_count_or_seed(settings, message):
    with pytest.raises(InvalidArgumentError, match=message):
        cli.RunConfig(**settings).stage_configs()


@pytest.mark.parametrize("flag, value, message", [
    ("--input-size", "-5", "input size must be >= 1 in every dimension"),
    ("--input-size", "0", "input size must be >= 1 in every dimension"),
    ("--dropout", "0", "keep_prob must be in (0, 1]"),
    ("--dropout", "1.5", "keep_prob must be in (0, 1]"),
    ("--dropout", "nan", "keep_prob must be in (0, 1]"),
    ("--dropout", "1e-46", "nonzero in float32"),  # 0 as float32: trained to nan loss
    ("--lr", "inf", "learning rate must be positive and finite"),
    ("--lr", "nan", "learning rate must be positive and finite"),
    ("--input-size", "4", "layer 0 (Conv): 5x5 filter exceeds input 4x4"),
    ("--input-size", "11", "layer 5 (MaxPool): 2x2 window exceeds input 1x1"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
])
def test_train_bad_stage_setting_is_data_error_before_reading_data(tmp_path, synth_dir,
                                                                   monkeypatch, capsys, flag,
                                                                   value, message):
    def no_data(*args, **kwargs):
        pytest.fail(f"data was read before {flag} was checked")

    monkeypatch.setattr(cli.dat, "load_manifest", no_data)
    out = tmp_path / "o"
    code = run("train", "--train", str(synth_dir / "manifest.txt"), "--out", str(out), flag, value)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_overflowing_refinement_side_skips_the_figure(tmp_path, synth_dir, caplog):
    # sigma * diameter overflows to inf for some figures: their views are skipped, not cropped
    with caplog.at_level("WARNING", logger="posecascade"):
        code = run("train", "--train", str(synth_dir / "manifest.txt"), "--out", str(tmp_path / "o"),
                   "--stages", "2", "--epochs", "1", "--crops-per-joint", "1",
                   "--input-size", "24", "--sigma", "1e307")
    assert code == 0
    assert "degenerate joint box" in caplog.text


@pytest.mark.parametrize("sigma", ["1e-3", "1e-40"])
def test_train_sub_pixel_refinement_boxes_leave_no_training_set(tmp_path, synth_dir, capsys, sigma):
    # every figure's box is below a pixel, so stage 2 has no view to train
    # on and fails before its targets (offset over side) can overflow; a
    # RuntimeWarning would fail this test
    out = tmp_path / "o"
    code = run("train", "--train", str(synth_dir / "manifest.txt"), "--out", str(out),
               "--stages", "2", "--epochs", "1", "--crops-per-joint", "1",
               "--input-size", "24", "--sigma", sigma)
    assert code == 2
    assert "refinement training set is empty" in capsys.readouterr().err
    assert list(out.iterdir()) == []  # the boxes are checked before stage 1 trains


def test_train_diverging_stage_writes_no_model(tmp_path, synth_dir, capsys):
    # a finite but huge rate takes stage 1 to non-finite weights, which no file holds
    out = tmp_path / "o"
    with pytest.warns(RuntimeWarning):  # the adagrad step overflows
        code = run("train", "--train", str(synth_dir / "manifest.txt"), "--out", str(out),
                   "--stages", "1", "--epochs", "1", "--batch", "16", "--stage1-crops", "0",
                   "--input-size", "24", "--lr", "1e308")
    assert code == 2
    assert "stage 1: layer" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# a non-default text form per field type, and what it converts to
_SAMPLES = {int: ("7", 7), float: ("0.25", 0.25), str: ("some/path", "some/path"),
            bool: ("Yes", True)}


@pytest.mark.parametrize("f", fields(cli.RunConfig), ids=lambda f: f.name)
def test_run_config_field_is_flag_and_config_key(tmp_path, f):
    default = getattr(cli.RunConfig(), f.name)
    text, value = _SAMPLES[type(default)]
    assert value != default
    flag = "--" + f.name.replace("_", "-")
    by_flag = cli.run_config(cli.build_parser().parse_args(["train", flag, text]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{f.name} = {text}\n")
    by_key = cli.load_run_config(cfg)
    assert getattr(by_flag, f.name) == getattr(by_key, f.name) == value

    cfg.write_text(f"{f.name}_typo = {text}\n")
    with pytest.raises(InvalidArgumentError, match=r"run\.cfg:1: unknown config key"):
        cli.load_run_config(cfg)
    if type(default) is str:
        return  # every text is a valid string
    cfg.write_text(f"{f.name} = maybe\n")
    with pytest.raises(InvalidArgumentError, match=r"run\.cfg:1: bad value"):
        cli.load_run_config(cfg)
    assert run("train", "--config", str(cfg)) == 2
    with pytest.raises(SystemExit) as e:
        run("train", flag, "maybe")
    assert e.value.code == 1


RUN_CONFIG = b"""# a run config
train = data/manifest.txt
out = runs/a
stages = 3
sigma = 0.75
epochs = 4
use_lrn = yes
"""


@settings(max_examples=250, deadline=None)
@given(mutated(RUN_CONFIG))
def test_mutated_run_config_loads_or_is_rejected(fuzz_dir, content):
    loads_or_is_rejected(cli.load_run_config, fuzz_dir / "run.cfg", content)


def test_train_use_lrn_flag_builds_lrn_stages(tmp_path, synth_dir):
    out = tmp_path / "lrn"
    code = run(
        "train", "--train", str(synth_dir / "manifest.txt"), "--out", str(out),
        "--stages", "1", "--epochs", "1", "--batch", "16", "--stage1-crops", "0",
        "--input-size", "24", "--seed", "1", "--use-lrn", "true",
    )
    assert code == 0
    net = load_cascade(out / "cascade.model").stages[0]
    assert sum(isinstance(s, nn.LRN) for s in net.layers) == 2


def test_train_bad_manifest_is_data_error(tmp_path, capsys):
    # a record whose image is missing, and a manifest without records
    for text, message in [("k=9\nmissing.pgm - " + " ".join(["1 2 1"] * 8) + "\n", "missing.pgm"),
                          ("k=2\n", "no records")]:
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert run("train", "--train", str(bad), "--out", str(tmp_path / "o")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # the output directory waits for the inputs


def test_train_refinement_without_torso_pair_is_data_error(tmp_path, synth_dir, monkeypatch,
                                                           capsys):
    def no_training(*args, **kwargs):
        pytest.fail("stage 1 trained before the missing torso pair was reported")

    monkeypatch.setattr(cli.casc, "train_stage1", no_training)
    lines = (synth_dir / "manifest.txt").read_text().splitlines()
    no_torso = tmp_path / "m.txt"  # the synthetic set without its torso lines
    no_torso.write_text("".join(f"{synth_dir / line if line.startswith('fig_') else line}\n"
                                for line in lines if not line.startswith("torso")))
    code = run("train", "--train", str(no_torso), "--out", str(tmp_path / "o"), "--stages", "2")
    assert code == 2
    assert "torso pair" in capsys.readouterr().err


@pytest.mark.parametrize("heldout, message", [
    ("k=2\nimg.pgm - 1 2 1 3 4 1\n", "manifest k=2 does not match model k=9"),
    ("k=9\n", "no records"),
], ids=["joint_count_mismatch", "no_records"])
def test_train_bad_heldout_is_data_error_before_training(tmp_path, synth_dir, monkeypatch,
                                                         capsys, heldout, message):
    def no_training(*args, **kwargs):
        pytest.fail("stage 1 trained before the held-out manifest was checked")

    monkeypatch.setattr(cli.casc, "train_stage1", no_training)
    held = tmp_path / "held.txt"
    held.write_text(heldout)
    code = run("train", "--train", str(synth_dir / "manifest.txt"), "--heldout", str(held),
               "--out", str(tmp_path / "o"))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_missing_manifest_file(tmp_path):
    code = run("train", "--train", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o"))
    assert code == 2


# --- eval -------------------------------------------------------------------------


def test_eval_writes_reports(tmp_path, synth_dir, trained_dir):
    out = tmp_path / "eval"
    code = run(
        "eval", "--model", str(trained_dir / "cascade.model"),
        "--manifest", str(synth_dir / "manifest.txt"),
        "--out", str(out), "--fractions", "0.1,0.2,0.3,0.4,0.5",
    )
    assert code == 0
    for s in (1, 2):
        assert (out / f"eval_stage{s}.txt").exists()
        d = json.loads((out / f"eval_stage{s}.json").read_text())
        assert len(d["pdj_fractions"]) == 5
        assert all(0.0 <= r <= 1.0 for row in d["pdj_rates"] for r in row)
        assert all(0.0 <= r <= 1.0 for r in d["pcp_strict"])


@pytest.mark.parametrize("option, value, message", [
    ("--fractions", "nan,0.2", "fractions"),
    ("--fractions", "0.1,inf", "fractions"),
    ("--fractions", "-0.1", "fractions"),
    ("--pcp-threshold", "nan", "threshold"),
    ("--pcp-threshold", "-1", "threshold"),
    ("--pcp-threshold", "inf", "threshold"),
], ids=["fraction_nan", "fraction_inf", "fraction_negative", "threshold_nan",
        "threshold_negative", "threshold_inf"])
def test_eval_bad_option_is_data_error(tmp_path, synth_dir, trained_dir, monkeypatch, capsys,
                                       option, value, message):
    # checked with the rule pcp and pdj_curve apply, before eval predicts or makes --out
    def no_prediction(*args, **kwargs):
        pytest.fail("eval predicted before its settings were checked")

    monkeypatch.setattr(cli.casc, "predict_many", no_prediction)
    out = tmp_path / "o"
    code = run("eval", "--model", str(trained_dir / "cascade.model"),
               "--manifest", str(synth_dir / "manifest.txt"), "--out", str(out), option, value)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["eval", "train"])
def test_manifest_coordinate_beyond_bound_is_data_error(tmp_path, synth_dir, trained_dir, capsys,
                                                        command):
    lines = (synth_dir / "manifest.txt").read_text().splitlines()
    record = next(i for i, line in enumerate(lines) if line.startswith("fig_"))
    tokens = lines[record].split()
    tokens[0] = str(synth_dir / tokens[0])
    tokens[2] = "1e308"
    lines[record] = " ".join(tokens)
    bad = tmp_path / "far.txt"
    bad.write_text("\n".join(lines) + "\n")
    args = (["eval", "--model", str(trained_dir / "cascade.model"), "--manifest", str(bad)]
            if command == "eval" else ["train", "--train", str(bad), "--stages", "1"])
    code = run(*args, "--out", str(tmp_path / "o"))
    assert code == 2
    assert f"line {record + 1}: joint coordinate beyond" in capsys.readouterr().err


def test_eval_k_mismatch(tmp_path, trained_dir):
    bad = tmp_path / "two.txt"
    bad.write_text("k=2\nimg.pgm - 1 2 1 3 4 1\n")
    code = run(
        "eval", "--model", str(trained_dir / "cascade.model"),
        "--manifest", str(bad), "--out", str(tmp_path / "o"),
    )
    assert code == 2


def test_eval_manifest_without_records_is_data_error(tmp_path, trained_dir, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("k=9\ntorso 1 8\n")
    out = tmp_path / "o"
    code = run("eval", "--model", str(trained_dir / "cascade.model"), "--manifest", str(empty),
               "--out", str(out))
    assert code == 2
    assert "no records" in capsys.readouterr().err
    assert not out.exists()


def test_eval_perfect_prediction_fixture(tmp_path, trained_dir, synth_dir, monkeypatch):
    # force predictions equal to ground truth: all rates must be 1.0
    from posecascade import cascade as casc

    m = data.load_manifest(synth_dir / "manifest.txt")

    def fake_predict_many(model, examples):
        return [casc.CascadePrediction([ex.pose, ex.pose]) for ex in examples]

    monkeypatch.setattr(cli.casc, "predict_many", fake_predict_many)
    out = tmp_path / "perfect"
    code = run(
        "eval", "--model", str(trained_dir / "cascade.model"),
        "--manifest", str(synth_dir / "manifest.txt"), "--out", str(out),
    )
    assert code == 0
    d = json.loads((out / "eval_stage2.json").read_text())
    assert all(r == 1.0 for r in d["pcp_strict"])
    assert all(r == 1.0 for row in d["pdj_rates"] for r in row)


def _headless_manifest(tmp_path, synth_dir):
    """synth_dir's manifest with absolute image paths and no head labeled."""
    m = data.load_manifest(synth_dir / "manifest.txt")
    for ex in m.examples:
        ex.image_path = str(synth_dir / ex.image_path)
        ex.pose.mask[0] = False
    data.save_manifest(m, tmp_path / "headless.txt")
    return tmp_path / "headless.txt"


def test_mean_pdj_skips_joints_no_example_labels(tmp_path, synth_dir, trained_dir):
    # no example labels the head: eval's pdj_mean and its average row average
    # the other joints (the held-out report's rows are eval's, see below)
    headless = _headless_manifest(tmp_path, synth_dir)
    out = tmp_path / "eval"
    code = run("eval", "--model", str(trained_dir / "cascade.model"),
               "--manifest", str(headless), "--out", str(out),
               "--fractions", "0.1,0.2,0.3")
    assert code == 0
    d = json.loads((out / "eval_stage2.json").read_text())
    rates, valid = np.array(d["pdj_rates"]), np.array(d["pdj_valid"])
    assert valid[0] == 0 and np.all(valid[1:] > 0)
    assert np.allclose(d["pdj_mean"], rates[:, 1:].mean(axis=1), rtol=0, atol=1e-12)
    average = (out / "eval_stage2.txt").read_text().split("# PDJ")[1].split("\naverage ")[1]
    assert average.split("\n")[0] == " ".join(f"{r:.4f}" for r in d["pdj_mean"])


@pytest.mark.parametrize("headless", [False, True], ids=["all_joints", "headless"])
def test_heldout_report_rows_match_eval(tmp_path, synth_dir, headless):
    # one PDJ pass scores both: the row of stage N, from the N-stage model
    # train has just fitted, is eval's stage-N pdj_mean at 0.2 and
    # mean_px_error, which eval reads from the last stage's model
    held = _headless_manifest(tmp_path, synth_dir) if headless else synth_dir / "manifest.txt"
    out = tmp_path / "run"
    assert run("train", "--train", str(synth_dir / "manifest.txt"), "--heldout", str(held),
               "--out", str(out), "--stages", "3", "--epochs", "1", "--batch", "16",
               "--crops-per-joint", "1", "--stage1-crops", "1", "--input-size", "24",
               "--seed", "6") == 0
    assert run("eval", "--model", str(out / "cascade.model"), "--manifest", str(held),
               "--out", str(out / "eval")) == 0
    rows = (out / "heldout_report.txt").read_text().splitlines()[2:]
    expected = []
    for s in (1, 2, 3):
        d = json.loads((out / "eval" / f"eval_stage{s}.json").read_text())
        pdj02 = d["pdj_mean"][d["pdj_fractions"].index(0.2)]
        expected.append(f"{s} {pdj02:.4f} {d['mean_px_error']:.4f}")
    assert rows == expected


# --- predict ----------------------------------------------------------------------


def test_predict_outputs_k_lines_per_stage(capsys, synth_dir, trained_dir):
    m = data.load_manifest(synth_dir / "manifest.txt")
    img = synth_dir / m.examples[0].image_path
    code = run("predict", "--model", str(trained_dir / "cascade.model"), "--image", str(img))
    assert code == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    model = load_cascade(trained_dir / "cascade.model")
    k = model.tree.k
    for s in range(1, model.num_stages + 1):
        stage_lines = [l for l in out_lines if l.startswith(f"{s} ")]
        assert len(stage_lines) == k


def test_predict_svg_line_count(tmp_path, synth_dir, trained_dir):
    m = data.load_manifest(synth_dir / "manifest.txt")
    img = synth_dir / m.examples[0].image_path
    svg_path = tmp_path / "pose.svg"
    code = run(
        "predict", "--model", str(trained_dir / "cascade.model"),
        "--image", str(img), "--render", str(svg_path),
    )
    assert code == 0
    svg = svg_path.read_text()
    model = load_cascade(trained_dir / "cascade.model")
    assert svg.count("<line ") == len(model.tree.limbs)


def test_predict_explicit_box_zero_model(tmp_path, synth_dir, trained_dir, capsys):
    # zero the loaded model: all joints print at the box center
    model = load_cascade(trained_dir / "cascade.model")
    for net in model.stages:
        for p in net.params:
            if p is not None:
                p["w"][:] = 0.0
                p["b"][:] = 0.0
    zpath = tmp_path / "zero.model"
    save_cascade(model, zpath)
    m = data.load_manifest(synth_dir / "manifest.txt")
    img = synth_dir / m.examples[0].image_path
    code = run("predict", "--model", str(zpath), "--image", str(img), "--box", "16,16,32,32")
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    stage1 = [l for l in lines if l.startswith("1 ")]
    for line in stage1:
        _, _, x, y = line.split()
        assert float(x) == pytest.approx(16.0)
        assert float(y) == pytest.approx(16.0)


@pytest.mark.filterwarnings("error")
def test_predict_far_away_box_runs(synth_dir, trained_dir, capsys):
    # every crop of a box this far out (the largest accepted coordinate) is
    # the fill image; no numeric warning
    m = data.load_manifest(synth_dir / "manifest.txt")
    img = synth_dir / m.examples[0].image_path
    code = run("predict", "--model", str(trained_dir / "cascade.model"), "--image", str(img),
               "--box", "1e9,4,4,4")
    assert code == 0, capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("box", ["16,16,0,32", "16,x,32,32", "1e300,1e300,1e300,1e300",
                                 "16,16,32,2e9"])
def test_predict_malformed_box_is_data_error(synth_dir, trained_dir, capsys, box):
    m = data.load_manifest(synth_dir / "manifest.txt")
    img = synth_dir / m.examples[0].image_path
    code = run("predict", "--model", str(trained_dir / "cascade.model"), "--image", str(img),
               "--box", box)
    assert code == 2
    assert "box" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_predict_non_finite_model_is_data_error(tmp_path, synth_dir, trained_dir, capsys, bad):
    model = load_cascade(trained_dir / "cascade.model")
    path = tmp_path / "bad.model"
    path.write_bytes(file_with_param(model, model.stages[1].params[0]["w"], 3, bad))
    m = data.load_manifest(synth_dir / "manifest.txt")
    img = synth_dir / m.examples[0].image_path
    assert run("predict", "--model", str(path), "--image", str(img)) == 2
    err = capsys.readouterr().err
    assert "stage 2" in err and "layer 0 (conv)" in err and "non-finite" in err


def _overflow(net):
    """Make a default-stack net's output overflow float32 with finite
    parameters: every hidden unit of the first fully connected layer is 1 and
    each output sums them times 3e38."""
    hidden, last = [p for spec, p in zip(net.layers, net.params)
                    if isinstance(spec, nn.FullyConnected)]
    hidden["w"][:] = 0.0
    hidden["b"][:] = 1.0
    last["w"][:] = 3e38


@pytest.mark.parametrize("stage", [1, 2])
def test_predict_non_finite_stage_output(tmp_path, synth_dir, trained_dir, capsys, stage):
    model = load_cascade(trained_dir / "cascade.model")
    _overflow(model.stages[stage - 1])
    path = tmp_path / "overflow.model"
    save_cascade(model, path)
    m = data.load_manifest(synth_dir / "manifest.txt")
    img = synth_dir / m.examples[0].image_path
    code = run("predict", "--model", str(path), "--image", str(img))
    out, err = capsys.readouterr()
    if stage == 1:  # no earlier pose to keep: a data error naming the stage
        assert code == 2 and "stage 1" in err and "non-finite" in err
    else:  # the cascade stops at the stage-1 pose
        assert code == 0 and "truncated" in err
        assert {line.split()[0] for line in out.splitlines()} == {"1"}


def test_train_eval_predict_on_gray_and_color_images(tmp_path, synth_dir, capsys):
    # every other figure rewritten as a P6 image with three distinct channels:
    # the gray net's training store mixes gray and color images
    text = (synth_dir / "manifest.txt").read_text()
    for j, ex in enumerate(data.load_manifest(synth_dir / "manifest.txt").examples):
        image, name = data.load_image(synth_dir / ex.image_path), ex.image_path
        if j % 2:
            name = Path(name).with_suffix(".ppm").name
            text = text.replace(ex.image_path, name)
            image = np.concatenate([image, 1.0 - image, 0.5 * image], axis=2)
        data.save_image(image, tmp_path / name)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(text)
    out = tmp_path / "run"
    assert run("train", "--train", str(manifest), "--out", str(out), "--stages", "2",
               "--epochs", "1", "--batch", "16", "--crops-per-joint", "1", "--stage1-crops", "1",
               "--input-size", "24", "--seed", "3") == 0
    model_path = out / "cascade.model"
    assert run("eval", "--model", str(model_path), "--manifest", str(manifest),
               "--out", str(tmp_path / "eval")) == 0
    color = data.load_image(tmp_path / name)  # the last figure, made color when count is even
    assert color.shape[2] == 3
    capsys.readouterr()
    assert run("predict", "--model", str(model_path), "--image", str(tmp_path / name)) == 0
    result = cascade.predict(load_cascade(model_path), color)
    assert capsys.readouterr().out.splitlines() == [
        f"{s} {i} {x:.3f} {y:.3f}"
        for s, pose in enumerate(result.poses, start=1) for i, (x, y) in enumerate(pose.joints)]


def test_predict_bad_image_is_data_error(tmp_path, trained_dir):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"garbage")
    code = run("predict", "--model", str(trained_dir / "cascade.model"), "--image", str(bad))
    assert code == 2


@pytest.mark.parametrize("mangle", [
    lambda b: b[:10],  # cut inside the header length
    lambda b: b[:-5],  # cut inside the last stage's parameters
    lambda b: b + b"junk",  # trailing bytes
])
def test_predict_malformed_model_is_data_error(tmp_path, synth_dir, trained_dir, capsys, mangle):
    bad = tmp_path / "bad.model"
    bad.write_bytes(mangle((trained_dir / "cascade.model").read_bytes()))
    m = data.load_manifest(synth_dir / "manifest.txt")
    img = synth_dir / m.examples[0].image_path
    assert run("predict", "--model", str(bad), "--image", str(img)) == 2
    assert "error:" in capsys.readouterr().err


def test_predict_model_whose_sizes_wrap_in_int64_is_data_error(tmp_path, synth_dir, capsys):
    bad = tmp_path / "wrap.model"
    bad.write_bytes(wrapping_size_model())
    img = synth_dir / data.load_manifest(synth_dir / "manifest.txt").examples[0].image_path
    assert run("predict", "--model", str(bad), "--image", str(img)) == 2
    assert "truncated" in capsys.readouterr().err


def _unreadable_input(case, tmp_path, synth_dir, trained_dir):
    """(argv, path): a command whose input or output path at `path` cannot be used."""
    image = synth_dir / data.load_manifest(synth_dir / "manifest.txt").examples[0].image_path
    model, out = str(trained_dir / "cascade.model"), str(tmp_path / "out")
    if case == "model_is_a_directory":
        return ["predict", "--model", str(tmp_path), "--image", str(image)], tmp_path
    if case == "config_not_utf8":
        path = tmp_path / "run.cfg"
        path.write_bytes(b"epochs = 1\n\xff\n")
        return ["train", "--config", str(path)], path
    if case == "manifest_not_utf8":
        path = tmp_path / "m.txt"
        path.write_bytes(b"k=2\n\xff.pgm - 1 1 1 2 2 1\n")
        return ["train", "--train", str(path), "--out", out], path
    if case == "record_is_a_directory":
        (tmp_path / "sub").mkdir()
        (tmp_path / "m.txt").write_text("k=2\nsub - 1 1 1 2 2 1\n")
        return ["train", "--train", str(tmp_path / "m.txt"), "--out", out], tmp_path / "sub"
    predict = ["predict", "--model", model, "--image", str(image), "--render"]
    if case == "render_is_a_directory":
        return predict + [str(tmp_path)], tmp_path
    if case == "render_dir_missing":
        return predict + [str(tmp_path / "nope" / "x.svg")], tmp_path / "nope" / "x.svg"
    if case == "eval_report_is_a_directory":
        (tmp_path / "out" / "eval_stage1.txt").mkdir(parents=True)
        return ["eval", "--model", model, "--manifest", str(synth_dir / "manifest.txt"),
                "--out", out], tmp_path / "out" / "eval_stage1.txt"
    if case == "synth_image_is_a_directory":
        (tmp_path / "out" / "fig_00000.pgm").mkdir(parents=True)
        return ["synth", "--out", out, "--count", "1"], tmp_path / "out" / "fig_00000.pgm"
    path = tmp_path / "report"
    path.write_text("")
    if case == "synth_out_is_a_file":
        return ["synth", "--out", str(path), "--count", "1"], path
    if case == "synth_out_under_a_file":
        return ["synth", "--out", str(path / "sub"), "--count", "1"], path / "sub"
    if case == "train_out_is_a_file":
        return ["train", "--train", str(synth_dir / "manifest.txt"), "--out", str(path)], path
    if case == "train_model_is_a_directory":
        path = tmp_path / "out" / "cascade_stage1.model"
        path.mkdir(parents=True)
        return ["train", "--train", str(synth_dir / "manifest.txt"), "--out", out, "--stages", "1",
                "--epochs", "1", "--stage1-crops", "0", "--input-size", "24"], path
    assert case == "eval_out_is_a_file"
    return ["eval", "--model", model, "--manifest", str(synth_dir / "manifest.txt"),
            "--out", str(path)], path


@pytest.mark.parametrize("case", ["model_is_a_directory", "config_not_utf8", "manifest_not_utf8",
                                  "record_is_a_directory", "train_out_is_a_file",
                                  "train_model_is_a_directory",
                                  "eval_out_is_a_file", "synth_out_is_a_file",
                                  "synth_out_under_a_file", "render_is_a_directory",
                                  "render_dir_missing", "eval_report_is_a_directory",
                                  "synth_image_is_a_directory"])
def test_unusable_path_is_data_error_naming_it(tmp_path, synth_dir, trained_dir, capsys, case):
    argv, path = _unreadable_input(case, tmp_path, synth_dir, trained_dir)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "error: cannot " in err and f"{path}: " in err


def test_train_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS can round a float32 GEMM differently at 2 threads than at 1;
    # every training step and every prediction (the stats fitting that feeds
    # stage 3, the held-out report, eval and predict) pins BLAS to one thread
    manifest = str(tmp_path / "d" / "manifest.txt")
    assert run("synth", "--out", str(tmp_path / "d"), "--count", "4", "--seed", "7") == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    written, printed = [], []
    for threads in ("2", "1"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / threads
        model = str(out / "train" / "cascade.model")

        def command(*args):
            proc = subprocess.run([sys.executable, "-m", "posecascade.cli", *args],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        command("train", "--train", manifest, "--out", str(out / "train"),
                "--stages", "3", "--epochs", "1", "--refine-epochs", "1", "--stage1-crops", "0",
                "--crops-per-joint", "1", "--seed", "1")
        printed.append([command("eval", "--model", model, "--manifest", manifest, "--out", str(out / "eval")),
                        command("predict", "--model", model, "--image", str(tmp_path / "d" / "fig_00000.pgm"))])
        written.append({p.relative_to(out).as_posix(): p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file()})
    assert {"train/cascade.model", "train/heldout_report.txt", "eval/eval_stage3.json"} <= set(written[0])
    assert written[0] == written[1]
    assert printed[0] == printed[1]


def test_module_entry_point_runs_without_runtime_warning():
    # the package must not import cli, or `python -m posecascade.cli` warns
    # that the module was already in sys.modules when it ran as __main__
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "posecascade.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
