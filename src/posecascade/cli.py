"""Command-line pipeline: generate data, train the cascade, evaluate, predict.

Exit codes: 0 success, 1 usage, 2 data/validation problems, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from . import cascade as casc
from . import data as dat
from . import metrics as met
from . import nn
from .errors import InvalidArgumentError, io_reason
from .geometry import PoseVector, parse_box

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def boolean(text: str) -> bool:
    """Strict boolean text: 1/true/yes or 0/false/no, in any case."""
    value = text.strip().lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")


def _opt(default, help_text: str):
    return field(default=default, metadata={"help": help_text})


@dataclass
class RunConfig:
    """Training-run settings. Each field is both a `train` flag (--field-name)
    and a key of the key=value config file."""

    train: str = _opt("", "training manifest")
    heldout: str = _opt("", "held-out manifest for the per-stage report")
    out: str = _opt("", "output directory")
    stages: int = _opt(2, "cascade stages, the holistic one included")
    sigma: float = _opt(1.0, "refinement box side, in torso diameters")
    crops_per_joint: int = _opt(40, "refinement samples per example and joint")
    stage1_crops: int = _opt(4, "translated copies per stage-1 example")
    epochs: int = _opt(10, "training epochs per stage")
    refine_epochs: int = _opt(0, "epochs of each refinement stage (0: same as --epochs)")
    batch: int = _opt(128, "mini-batch size")
    lr: float = _opt(0.0005, "adaptive-gradient learning rate")
    dropout: float = _opt(0.6, "dropout keep probability")
    seed: int = _opt(0, "seed of the weights, sampling and dropout")
    input_size: int = _opt(60, "square network input side in pixels")
    use_lrn: bool = _opt(False, "response normalization after each conv (1/true/yes or 0/false/no)")

    def apply(self, key: str, value: str):
        """Set field `key` from its text form."""
        if key not in _CONVERTERS:
            raise InvalidArgumentError(f"unknown config key {key!r}")
        try:
            setattr(self, key, _CONVERTERS[key](value))
        except ValueError:
            raise InvalidArgumentError(f"bad value {value!r} for config key {key!r}") from None


# text-to-value converter of each RunConfig field, shared by argparse and apply
_CONVERTERS = {
    name: {int: int, float: float, str: str, bool: boolean}[t]
    for name, t in get_type_hints(RunConfig).items()
}


def load_run_config(path) -> RunConfig:
    cfg = RunConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidArgumentError(f"cannot read config file {path}: {io_reason(e)}") from None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        cfg.apply(key, value)
    return cfg


def run_config(args) -> RunConfig:
    """The `train` settings: the config file, if given, overridden by explicit flags."""
    cfg = load_run_config(args.config) if args.config else RunConfig()
    for f in fields(RunConfig):
        value = getattr(args, f.name)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    cfg = dat.SynthConfig(
        count=args.count,
        seed=args.seed,
        image_size=(args.size, args.size),
        noise_level=args.noise,
    )
    try:
        manifest = dat.synth_generate(cfg, _out_dir(args.out))
    except OSError as e:  # an image or the manifest could not be written
        raise InvalidArgumentError(f"cannot write {e.filename or args.out}: {io_reason(e)}") from None
    print(f"wrote {len(manifest.examples)} examples to {args.out}")
    return EXIT_OK


def _stage_config(cfg: RunConfig, stage: int) -> casc.StageConfig:
    epochs = cfg.epochs if stage == 1 or cfg.refine_epochs == 0 else cfg.refine_epochs
    return casc.StageConfig(
        sigma=cfg.sigma,
        crops_per_joint=cfg.crops_per_joint,
        stage1_jitter_crops=cfg.stage1_crops,
        input_size=(cfg.input_size, cfg.input_size, 1),
        hidden=casc.default_hidden(cfg.dropout, cfg.use_lrn),
        train=nn.TrainConfig(
            epochs=epochs,
            batch_size=cfg.batch,
            learning_rate=cfg.lr,
            seed=cfg.seed * 1000 + stage,
        ),
        seed=cfg.seed * 1000 + stage,
    )


def _heldout_row(model, examples, truths):
    preds = [p.final for p in casc.predict_many(model, examples)]
    mean_pdj = float(met.pdj_curve(preds, truths, model.tree, [0.2]).mean_rates()[0])
    err, labeled = met.joint_errors(preds, truths, model.tree)
    return mean_pdj, float(err[labeled].mean()) if labeled.any() else float("nan")


def _out_dir(path: str) -> Path:
    """The output directory at path, made if missing; a path that cannot be
    one is a data error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InvalidArgumentError(f"cannot create output directory {out}: {io_reason(e)}") from None
    return out


def _write(path, content: str | bytes) -> None:
    """Write one output file; a path that cannot be written is a data error."""
    try:
        Path(path).write_bytes(content.encode("utf-8") if isinstance(content, str) else content)
    except OSError as e:
        raise InvalidArgumentError(f"cannot write {path}: {io_reason(e)}") from None


def cmd_train(args) -> int:
    cfg = run_config(args)
    if not cfg.train or not cfg.out:
        print("train: error: --train and --out are required (flag or config file)",
              file=sys.stderr)
        return EXIT_USAGE
    # every stage's settings are checked before any data is read
    if cfg.stages < 1:
        raise InvalidArgumentError(f"stages must be >= 1, got {cfg.stages}")
    if cfg.seed < 0:  # named as given, not as the per-stage seed derived from it
        raise InvalidArgumentError(f"seed must be >= 0, got {cfg.seed}")
    stage_configs = [_stage_config(cfg, s) for s in range(1, cfg.stages + 1)]

    manifest = dat.load_manifest(cfg.train)
    examples = dat.load_examples(manifest)
    if cfg.heldout:
        held_manifest = dat.load_manifest(cfg.heldout)
        if held_manifest.k != manifest.k:  # the model will have the training manifest's k
            raise InvalidArgumentError(f"manifest k={held_manifest.k} does not match model k={manifest.k}")
        held_examples = dat.load_examples(held_manifest)
        held_name = cfg.heldout
    else:
        held_examples = examples
        held_name = f"{cfg.train} (train set; no held-out manifest given)"
    held_truths = [ex.pose for ex in held_examples]
    out = _out_dir(cfg.out)  # made once every input has been read

    def progress(stage, epoch, loss):
        print(f"stage {stage} epoch {epoch}: loss {loss:.6f}")

    report_lines = [f"# held-out set: {held_name}", "stage mean_pdj@0.2 mean_px_error"]
    for model in casc.train_cascade(examples, manifest.tree, stage_configs, progress):
        stage = model.num_stages
        _write(out / f"cascade_stage{stage}.model", casc.cascade_to_bytes(model))
        mean_pdj, mean_err = _heldout_row(model, held_examples, held_truths)
        report_lines.append(f"{stage} {mean_pdj:.4f} {mean_err:.4f}")
        _write(out / "heldout_report.txt", "\n".join(report_lines) + "\n")

    _write(out / "cascade.model", casc.cascade_to_bytes(model))
    print(f"trained {model.num_stages} stage(s); model at {out / 'cascade.model'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = casc.load_cascade(args.model)
    manifest = dat.load_manifest(args.manifest)
    if manifest.k != model.tree.k:
        raise InvalidArgumentError(f"manifest k={manifest.k} does not match model k={model.tree.k}")
    try:
        fractions = [float(f) for f in args.fractions.split(",")]
    except ValueError:
        raise InvalidArgumentError(f"bad --fractions value {args.fractions!r}") from None
    examples = dat.load_examples(manifest)
    truths = [ex.pose for ex in examples]
    preds = casc.predict_many(model, examples)
    out = _out_dir(args.out)
    for s in range(model.num_stages):
        stage_preds = [p.poses[min(s, len(p.poses) - 1)] for p in preds]
        report = met.make_report(
            stage_preds, truths, manifest.tree, manifest.joint_names,
            pcp_threshold=args.pcp_threshold, fractions=fractions,
        )
        _write(out / f"eval_stage{s + 1}.txt", report.text_table())
        _write(out / f"eval_stage{s + 1}.json", json.dumps(report.json_dict(), indent=1))
        mean = report.pdj.mean_rates()
        summary = " ".join(f"pdj@{f:g}={m:.4f}" for f, m in zip(fractions, mean))
        print(f"stage {s + 1}: {summary}")
    return EXIT_OK


_LIMB_PALETTE = [
    "#e6194b", "#3cb44b", "#daa520", "#4363d8", "#f58231",
    "#911eb4", "#46f0f0", "#f032e6", "#8f7a46", "#008080",
]


def render_svg(pose: PoseVector, tree, width: int, height: int) -> str:
    """Stick-figure overlay: one <line> per limb, colored by limb id."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for idx, (a, b) in enumerate(tree.limbs):
        color = _LIMB_PALETTE[idx % len(_LIMB_PALETTE)]
        xa, ya = pose.joints[a]
        xb, yb = pose.joints[b]
        parts.append(
            f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
    for x, y in pose.joints:
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.2" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_predict(args) -> int:
    model = casc.load_cascade(args.model)
    image = dat.load_image(args.image)
    box = parse_box(args.box) if args.box else None
    t0 = time.perf_counter()
    result = casc.predict(model, image, box)
    elapsed = time.perf_counter() - t0
    for s, pose in enumerate(result.poses, start=1):
        for i, (x, y) in enumerate(pose.joints):
            print(f"{s} {i} {x:.3f} {y:.3f}")
    if result.truncated:
        print("truncated", file=sys.stderr)
    print(f"predicted in {elapsed * 1000:.1f} ms", file=sys.stderr)
    if args.render:
        svg = render_svg(result.final, model.tree, image.shape[1], image.shape[0])
        _write(args.render, svg)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="posecascade", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic stick-figure dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=64, help="square image side in pixels")
    p.add_argument("--noise", type=float, default=0.03, help="background noise std")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the cascade")
    p.add_argument("--config", help="key=value file keyed by the flag names, with '_' "
                   "for '-'; flags override it")
    for f in fields(RunConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=_CONVERTERS[f.name],
                       help=f.metadata["help"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fractions", default="0.1,0.2,0.3,0.4,0.5")
    p.add_argument("--pcp-threshold", dest="pcp_threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="predict a pose for one image")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--box", help="initial box cx,cy,w,h (default: full image)")
    p.add_argument("--render", help="write a stick-figure SVG here")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    """Run one command with BLAS pinned to one thread (see nn.one_blas_thread),
    so that what it writes and prints does not depend on the BLAS thread
    count: training, the stats fitting whose predictions feed the next
    stage's training set, and every prediction alike."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with nn.one_blas_thread():
            return args.func(args)
    except InvalidArgumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # noqa: BLE001 -- boundary: everything else is a runtime failure
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
