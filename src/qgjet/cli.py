"""Command-line surface.

Subcommands: synth, stats, preprocess, train, eval, sweep, render.
Exit codes: 0 success, 2 usage error, 3 data/format error, 4 numeric
degeneracy. Setting QGJET_DETERMINISTIC=1 pins every numeric library to a
single thread before numpy loads, which makes runs bit-reproducible.

Heavy imports happen inside the handlers so the deterministic-mode
environment is in place first.
"""
from __future__ import annotations

import argparse
import os
import sys

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DETERMINISTIC_ENV = "QGJET_DETERMINISTIC"


def _pin_threads():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(var, "1")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgjet",
        description="Synthetic quark/gluon jet imaging and classification pipeline.",
        epilog=f"Set {DETERMINISTIC_ENV}=1 for single-threaded, bit-reproducible numeric paths.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic window dataset")
    p.add_argument("--preset", choices=("easy", "paperlike", "hard"), default="easy")
    p.add_argument("--n", type=int, required=True, help="windows per class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("stats", help="compute training-set channel statistics")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("preprocess", help="apply the deterministic preprocessing chain")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a classifier over the configured seeds")
    p.add_argument("--data", required=True, help="directory holding train.jqg and val.jqg")
    p.add_argument("--model", choices=("vit", "conv", "hybrid2", "hybrid3"), required=True)
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--seeds", type=int,
                   help="run seeds 1..N in place of the seeds setting "
                        "(default: the seeds setting, 1,2,3 unless configured)")
    p.add_argument("--out", required=True)
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config entry")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="resolved config (defaults to run_config.txt beside the checkpoint)")
    p.add_argument("--stats", help="statistics file (defaults to stats.txt beside the checkpoint)")

    p = sub.add_parser("sweep", help="single-factor sensitivity sweep")
    p.add_argument("--axis", required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=("vit", "conv", "hybrid2", "hybrid3"), required=True)
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--out", required=True)
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE")

    p = sub.add_parser("render", help="average intensity map as a binary PGM")
    p.add_argument("--data", required=True)
    p.add_argument("--label", choices=("q", "g"), required=True)
    p.add_argument("--channel", choices=("track", "ecal", "hcal"), required=True)
    p.add_argument("--scale", choices=("log", "linear"), default="log")
    p.add_argument("--out", required=True)
    return parser


def _read_settings(args) -> dict[str, str]:
    """The --config file's settings, then each --set override on top."""
    from .config import parse_kv_file

    settings: dict[str, str] = {}
    if args.config:
        settings.update(parse_kv_file(args.config))
    for item in args.overrides:
        if "=" not in item:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        settings[key.strip()] = value.strip()
    return settings


def _resolve(settings: dict[str, str]):
    from .augment import AugmentConfig
    from .config import apply_settings
    from .train import TrainConfig

    return apply_settings(TrainConfig(), AugmentConfig(), settings)


class UsageError(ValueError):
    pass


def _cmd_synth(args) -> int:
    from .datastore import write_dataset
    from .synth import generate_dataset, preset

    config = preset(args.preset, seed=args.seed)
    windows = generate_dataset(config, args.n)
    write_dataset(args.out, windows)
    print(f"wrote {len(windows)} windows to {args.out}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    from .datastore import read_dataset, write_stats
    from .preprocess import compute_channel_stats

    stats = compute_channel_stats(read_dataset(args.train))
    write_stats(args.out, stats)
    print(f"mu={stats.mu.tolist()} sigma={stats.sigma.tolist()} over {stats.n_pixels} pixels/channel")
    return EXIT_OK


def _cmd_preprocess(args) -> int:
    from .datastore import read_dataset, read_stats, write_dataset
    from .detector import JetWindow
    from .preprocess import preprocess_window

    stats = read_stats(args.stats)
    windows = read_dataset(args.inp)
    out = [JetWindow(preprocess_window(w, stats), label=w.label) for w in windows]
    write_dataset(args.out, out)
    print(f"preprocessed {len(out)} windows into {args.out}")
    return EXIT_OK


def _load_split(data_dir: str):
    import os.path as osp
    from .datastore import read_dataset

    train_path = osp.join(data_dir, "train.jqg")
    val_path = osp.join(data_dir, "val.jqg")
    for path in (train_path, val_path):
        if not osp.exists(path):
            raise FileNotFoundError(f"expected dataset at {path}")
    return read_dataset(train_path), read_dataset(val_path)


def _cmd_train(args) -> int:
    import os.path as osp
    from dataclasses import replace as dc_replace

    from .config import format_resolved
    from .datastore import (read_stats, write_checkpoint, write_metrics_csv, write_stats)
    from .models import build_model
    from .preprocess import compute_channel_stats
    from .rng import stream
    from .train import fit, results_row

    settings = _read_settings(args)
    train_cfg, aug_cfg, kwargs = _resolve(settings)
    if args.seeds is not None:
        train_cfg = dc_replace(train_cfg, seeds=tuple(range(1, args.seeds + 1)))
    # build every seed's model first, so a bad model setting writes nothing
    models = [build_model(args.model, aug_cfg.out_size, stream(seed, "init"), **kwargs)
              for seed in train_cfg.seeds]

    train_windows, val_windows = _load_split(args.data)
    stats_path = osp.join(args.data, "stats.txt")
    stats = read_stats(stats_path) if osp.exists(stats_path) else compute_channel_stats(train_windows)

    os.makedirs(args.out, exist_ok=True)
    write_stats(osp.join(args.out, "stats.txt"), stats)
    with open(osp.join(args.out, "run_config.txt"), "w") as f:
        f.write(format_resolved(train_cfg, aug_cfg,
                                {"model": args.model,
                                 **{k: v for k, v in settings.items() if k.startswith("model.")}}))

    reports, records = [], []
    for seed, model in zip(train_cfg.seeds, models):
        record, state, report = fit(train_windows, val_windows, args.model,
                                    train_cfg, aug_cfg, seed, stats=stats, model=model)
        write_checkpoint(osp.join(args.out, f"model_seed{seed}.ckpt"), state)
        _write_run_csv(osp.join(args.out, f"run_seed{seed}.csv"), record)
        reports.append(report)
        records.append(record)
        print(f"seed {seed}: best epoch {record.best_epoch} "
              f"val_loss {record.best_val_loss:.4f} auc {report.roc_auc:.4f}")

    rows = [results_row(args.model, models[-1], records, reports, aug_cfg.out_size)]
    write_metrics_csv(rows, osp.join(args.out, "metrics.csv"))
    print(f"wrote {osp.join(args.out, 'metrics.csv')}")
    return EXIT_OK


def _write_run_csv(path, record) -> None:
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "train_loss", "val_loss", "accuracy", "precision",
                         "recall", "f1", "roc_auc", "lr_head", "lr_unfrozen",
                         "trainable_params", "seconds"])
        for e in record.epochs:
            m = e.metrics
            writer.writerow([e.epoch, f"{e.train_loss:.6f}", f"{e.val_loss:.6f}",
                             f"{m.accuracy:.4f}", f"{m.precision:.4f}", f"{m.recall:.4f}",
                             f"{m.f1:.4f}", f"{m.roc_auc:.4f}", f"{e.lr_head:.8g}",
                             f"{e.lr_unfrozen:.8g}", e.trainable_params, f"{e.seconds:.2f}"])
        writer.writerow(["best_epoch", record.best_epoch, "optimizer_steps",
                         record.optimizer_steps, "total_params", record.total_params,
                         "train_seconds", f"{record.train_seconds:.2f}", "", "", "", ""])


def _cmd_eval(args) -> int:
    import os.path as osp
    from dataclasses import replace as dc_replace

    import numpy as np

    from .config import parse_kv_file
    from .augment import validation_transform
    from .datastore import DataFormatError, read_checkpoint, read_dataset, read_stats
    from .metrics import compute_metrics
    from .models import build_model
    from .rng import stream
    from .train import _forward_batches, _softmax_scores

    config_path = args.config or osp.join(osp.dirname(args.checkpoint) or ".", "run_config.txt")
    settings = parse_kv_file(config_path)
    if "model" not in settings:
        raise DataFormatError(f"{config_path} has no 'model' entry naming the architecture")
    model_kind = settings.pop("model")
    train_cfg, aug_cfg, kwargs = _resolve(settings)

    stats_path = args.stats or osp.join(osp.dirname(args.checkpoint) or ".", "stats.txt")
    stats = read_stats(stats_path)
    windows = read_dataset(args.data)

    model = build_model(model_kind, aug_cfg.out_size, stream(0, "init"), **kwargs)
    model.registry.load_state_dict(read_checkpoint(args.checkpoint))
    aug_cfg = dc_replace(aug_cfg, imagenet_normalize=model.uses_imagenet_norm)  # as fit does

    inputs = np.stack([validation_transform(w, stats, aug_cfg) for w in windows])
    labels = np.array([w.label for w in windows], dtype=np.int64)
    scores = _softmax_scores(_forward_batches(model, inputs, train_cfg.batch_size))
    report = compute_metrics(scores, labels)
    print(f"accuracy  {report.accuracy:.4f}")
    print(f"precision {report.precision:.4f}")
    print(f"recall    {report.recall:.4f}")
    print(f"f1        {report.f1:.4f}")
    print(f"roc_auc   {report.roc_auc:.4f}")
    print(f"confusion [[tn fp] [fn tp]] = {report.confusion.tolist()}")
    if report.degenerate:
        print("warning: degenerate metrics: no positive predictions or no positive "
              "labels, so precision or recall has a zero denominator and reads 0")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    import os.path as osp

    from .datastore import write_metrics_csv
    from .preprocess import compute_channel_stats
    from .sweep import parse_values, run_sweep

    train_cfg, aug_cfg, kwargs = _resolve(_read_settings(args))
    values = parse_values(args.axis, [v for v in args.values.split(",") if v])

    train_windows, val_windows = _load_split(args.data)
    stats = compute_channel_stats(train_windows)
    rows = run_sweep(train_windows, val_windows, args.model, train_cfg, aug_cfg,
                     args.axis, values, stats=stats, build_kwargs=kwargs)
    os.makedirs(args.out, exist_ok=True)
    out_path = osp.join(args.out, f"sweep_{args.axis}.csv")
    write_metrics_csv(rows, out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def _cmd_render(args) -> int:
    from .datastore import read_dataset, render_intensity_map, write_pgm
    from .detector import Channel, GLUON, QUARK

    label = QUARK if args.label == "q" else GLUON
    channel = {"track": Channel.TRACK, "ecal": Channel.ECAL, "hcal": Channel.HCAL}[args.channel]
    windows = [w for w in read_dataset(args.data) if w.label == label]
    if not windows:
        raise UsageError(f"no windows with label {args.label!r} in {args.data}")
    image = render_intensity_map(windows, channel, args.scale)
    write_pgm(args.out, image)
    print(f"wrote {args.out} from {len(windows)} windows")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "stats": _cmd_stats,
    "preprocess": _cmd_preprocess,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    if os.environ.get(DETERMINISTIC_ENV) == "1":
        _pin_threads()
    parser = _build_parser()
    args = parser.parse_args(argv)

    from .datastore import DataFormatError
    from .preprocess import DegenerateChannel

    try:
        return _COMMANDS[args.command](args)
    # DegenerateChannel and DataFormatError are ValueErrors: catch them first
    except (DegenerateChannel, OverflowError, FloatingPointError, ZeroDivisionError) as exc:
        code, error = EXIT_NUMERIC, exc
    except (DataFormatError, FileNotFoundError) as exc:
        code, error = EXIT_DATA, exc
    except ValueError as exc:  # UsageError and every rejected setting or value
        code, error = EXIT_USAGE, exc
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
