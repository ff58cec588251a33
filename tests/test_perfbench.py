"""The benchmark harness in perfbench/ drives the package through module
attributes (the tracer patches them, the workloads build stage configs). These
checks load its files by path and fail fast when something it uses is gone."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from posecascade import cascade, data, nn

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_patches_and_restores_every_attribute():
    spans = _load("spans")
    originals = [getattr(module, attr) for module, attr, _, _ in spans._PATCHES]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(getattr(module, attr) is not fn
                   for (module, attr, _, _), fn in zip(spans._PATCHES, originals))
        net = nn.init_network([nn.FullyConnected(2)], (3,), 2, seed=0)
        with tracer.record("root"):
            nn.forward(net, np.ones((1, 3)))
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is fn
               for (module, attr, _, _), fn in zip(spans._PATCHES, originals))
    assert [s[spans.NAME] for s in tracer.spans] == ["root", "nn.forward.infer.b1"]


def test_workload_stage_config_builds():
    workloads = _load("workloads")
    config = workloads._stage_config(1, 1, 1)
    assert isinstance(config, cascade.StageConfig)
    assert config.train.epochs == 1 and config.crops_per_joint == 1


def test_round_trip_check_passes_on_a_two_stage_cascade(tmp_path):
    workloads = _load("workloads")
    tree = data.default_tree()
    k = tree.k
    config = cascade.StageConfig(sigma=1.0, input_size=(8, 8, 1),
                                 layers=[nn.Conv(2, 3), nn.ReLU(), nn.FullyConnected(2 * k)])
    stats = cascade.DisplacementStats(np.full((k, 2), 0.5), np.ones((k, 2)), np.ones(k, bool),
                                      np.full(k, 3))
    model = cascade.CascadeModel([config.build_network(2 * k) for _ in range(2)], [None, stats],
                                 1.0, tree, (8, 8, 1))
    saved = workloads.check_round_trip(model, tmp_path)
    assert cascade.cascade_from_bytes(saved).num_stages == 2
