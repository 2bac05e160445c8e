"""The three workloads. Each is a closed loop with one caller, because qgjet
is a batch pipeline and serves no requests.

- ``prep``: rounds of synth -> write -> read back -> channel stats ->
  preprocess every window. No model runs.
- ``train-vit`` / ``train-conv``: ``fit`` for one seed, then the eval path
  on a held-out set, then single-image forwards.

README.md lists what each end-to-end metric measures on each workload.
"""
from __future__ import annotations

import hashlib
import math
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from qgjet import augment, autodiff, datastore, metrics, models, preprocess, synth, train
from qgjet.rng import stream

from layers import Instrument, per_layer
from measure import percentile
from spans import Patches

PRESET = synth.PAPERLIKE
SETUPS = 5                 # setup_s is the median of this many set-ups in one run
PREP_PER_CLASS = 64        # one prep round: 128 windows, a 24 MB dataset file
MIN_ROUNDS = 3
TRAIN_PER_CLASS = 16       # 32 train windows: one full batch per epoch
VAL_PER_CLASS = 8
HELD_OUT_PER_CLASS = 16
EPOCHS = 1
FIT_SHARE, EVAL_SHARE = 0.55, 0.75  # phase deadlines, as shares of --seconds
MIN_FITS = MIN_EVALS = 2
MIN_INFER = 100            # p90 then has ten samples beyond it
TRAIN, VAL, HELD_OUT = 0, 1, 2


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    lines: list = field(default_factory=list)
    spans: list | None = None

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.problems.append(why)

    def attempt(self, n: int, what: str, fn, *args):
        """Run one operation of ``n`` items; an exception fails all of them.
        A failure is counted and never retried."""
        self.attempted += n
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - the benchmark reports every failure
            self.fail(n, f"{what} raised:\n{traceback.format_exc()}")
            return None

    def report(self, name: str, value, unit: str, note: str = "") -> None:
        self.lines.append(f"{name:<32} {value:>14.6g} {unit:<10} {note}".rstrip())


def _config(seed: int, part: int) -> synth.SynthConfig:
    """Distinct generator seeds for each round or split of one workload seed."""
    return synth.preset(PRESET, seed=seed * 1_000_000 + part)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _median(values):
    return statistics.median(values) if values else None


def _tail(values, q):
    try:
        return percentile(values, q)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# prep

@dataclass
class PrepRound:
    n: int
    synth_s: float
    write_s: float
    read_s: float
    stats_s: float
    latencies: list
    nbytes: int
    digest: str

    @property
    def make_rate(self) -> float:
        return self.n / (self.synth_s + self.write_s + self.read_s)

    @property
    def eval_rate(self) -> float:
        return self.n / (self.stats_s + sum(self.latencies))


def _prep_round(out: Outcome, seed: int, part: int, per_class: int, path: Path) -> PrepRound | None:
    def run():
        t0 = perf_counter()
        windows = synth.generate_dataset(_config(seed, part), per_class)
        t1 = perf_counter()
        datastore.write_dataset(path, windows)
        t2 = perf_counter()
        back = datastore.read_dataset(path)
        t3 = perf_counter()
        stats = preprocess.compute_channel_stats(back)
        t4 = perf_counter()
        pre, lat = [], []
        for w in back:
            a = perf_counter()
            pre.append(preprocess.preprocess_window(w, stats))
            lat.append(perf_counter() - a)
        return windows, back, pre, lat, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)

    n = 2 * per_class
    got = out.attempt(n, f"prep round {part}", run)
    if got is None:
        return None
    windows, back, pre, lat, (synth_s, write_s, read_s, stats_s) = got
    labels = [w.label for w in windows]
    if len(windows) != n or labels.count(0) != per_class or labels.count(1) != per_class:
        out.fail(n, f"prep round {part}: expected {per_class} windows per class, "
                    f"got {labels.count(0)} gluon and {labels.count(1)} quark")
        return None
    bad = 0
    for w, b, p in zip(windows, back, pre):
        same = (b.label == w.label and b.data.dtype == w.data.dtype
                and b.data.tobytes() == w.data.tobytes())
        in_range = (p.dtype == np.float32 and p.shape == w.data.shape
                    and bool(np.all(p >= 0)) and bool(np.all(p < 1)))
        bad += not (same and in_range)
    if bad:
        out.fail(bad, f"prep round {part}: {bad} windows failed the round trip or [0,1) check")
    return PrepRound(n, synth_s, write_s, read_s, stats_s, lat, path.stat().st_size,
                     _digest([b.data for b in back] + pre))


def run_prep(seed: int, seconds: float, trace: bool, import_s: float, scratch: Path) -> Outcome:
    out = Outcome()
    path = scratch / "prep.jqg"
    setups = []
    for k in range(SETUPS):  # warm-up: first-call costs are set-up, not throughput
        t0 = perf_counter()
        _prep_round(Outcome(), seed, 999_000 + k, 2, path)
        setups.append(perf_counter() - t0)

    inst = None
    reference = None
    if trace:  # the same first round untraced, then traced
        reference = _prep_round(out, seed, 0, PREP_PER_CLASS, path)
        inst = Instrument()
        inst.install()
    rounds: list[PrepRound] = []
    start = perf_counter()
    try:
        part = 0
        while part < MIN_ROUNDS or perf_counter() - start < seconds:
            r = _prep_round(out, seed, part, PREP_PER_CLASS, path)
            part += 1
            if r is not None:
                rounds.append(r)
    finally:
        if inst:
            inst.restore()
    if not rounds:
        out.fail(0, "no prep round completed")
        return out

    sizes = {r.nbytes for r in rounds}
    if len(sizes) != 1:
        out.fail(0, f"dataset bytes differ between rounds: {sorted(sizes)}")
    lat_ms = [x * 1e3 for r in rounds for x in r.latencies]
    total_mb = sum(2 * r.nbytes for r in rounds) / 1e6
    io_s = sum(r.write_s + r.read_s for r in rounds)
    windows = sum(r.n for r in rounds)
    out.report("synth_windows_per_s", _median([r.n / r.synth_s for r in rounds]), "windows/s",
               f"median of {len(rounds)} rounds of {rounds[0].n}")
    out.report("io_MB_per_s", total_mb / io_s, "MB/s", "written and read back, all rounds")
    out.report("prep_windows_per_s", _median([r.eval_rate for r in rounds]), "windows/s",
               "channel stats + preprocess_window")
    out.report("dataset_bytes", rounds[0].nbytes, "bytes", "per round")
    out.lines.append(f"preprocess latency over {len(lat_ms)} windows; {windows} windows in "
                     f"{len(rounds)} rounds")

    if not trace:
        out.metrics = {
            "setup_s": import_s + _median(setups),
            "peak_rss_MB": _peak_rss_mb(),
            "throughput_per_s": _median([r.make_rate for r in rounds]),
            "eval_per_s": _median([r.eval_rate for r in rounds]),
            "latency_ms_p50": _tail(lat_ms, 50),
            "latency_ms_p90": _tail(lat_ms, 90),
        }
        return out

    first = rounds[0]
    if reference is not None and reference.digest != first.digest:
        out.fail(0, "traced round 0 differs from the untraced one")
    out.lines.append(f"round 0 digest untraced {reference and reference.digest} traced {first.digest}")

    def full_rate(r):
        return r.n / (r.synth_s + r.write_s + r.read_s + r.stats_s + sum(r.latencies))

    out.metrics = per_layer(inst, {
        "dataset_bytes": first.nbytes,
        "trace.untraced_per_s": full_rate(reference) if reference else 0.0,
        "trace.traced_per_s": full_rate(first),
    })
    out.spans = inst.tracer.spans
    return out


# ---------------------------------------------------------------------------
# train-vit, train-conv

class StepLog(Patches):
    """Per-step training losses, taken where ``fit`` calls ``autodiff.backward``."""

    def __init__(self):
        super().__init__()
        self.losses: list[float] = []
        backward = autodiff.backward

        def logged(tape, loss):
            self.losses.append(float(loss.data))
            return backward(tape, loss)

        self.patch(autodiff, "backward", logged)


@dataclass
class Fit:
    seconds: float
    losses: list
    state_digest: str
    state: dict
    report: object


def _build(kind: str, seed: int):
    return models.build_model(kind, augment.AugmentConfig().out_size, stream(seed, "init"))


def _train_inputs(seed: int):
    train_w = synth.generate_dataset(_config(seed, TRAIN), TRAIN_PER_CLASS)
    val_w = synth.generate_dataset(_config(seed, VAL), VAL_PER_CLASS)
    held = synth.generate_dataset(_config(seed, HELD_OUT), HELD_OUT_PER_CLASS)
    return train_w, val_w, held, preprocess.compute_channel_stats(train_w)


def _fit(out: Outcome, log: StepLog, inst, kind, seed, train_w, val_w) -> Fit | None:
    cfg = train.TrainConfig(max_epochs=EPOCHS, seeds=(seed,))
    steps = EPOCHS * math.ceil(len(train_w) / cfg.batch_size)
    model = _build(kind, seed)
    if inst:
        inst.watch_model(model)
    log.losses.clear()

    def run():
        t0 = perf_counter()
        got = train.fit(train_w, val_w, kind, cfg, augment.AugmentConfig(), seed, model=model)
        return perf_counter() - t0, got

    got = out.attempt(steps, "fit", run)
    if got is None:
        return None
    seconds, (record, state, report) = got
    losses = list(log.losses)
    if record.optimizer_steps != steps or len(losses) != steps:
        out.fail(steps, f"fit took {record.optimizer_steps} optimizer steps and logged "
                        f"{len(losses)} losses, expected {steps}")
        return None
    bad = sum(not math.isfinite(x) for x in losses)
    epoch_values = [v for e in record.epochs for v in (e.train_loss, e.val_loss)]
    if bad or not all(math.isfinite(v) for v in epoch_values + list(report.values().values())):
        out.fail(max(bad, 1), f"non-finite loss or validation score: losses {losses}")
    return Fit(seconds, losses, _digest(state.values()), state, report)


def _eval_pass(out: Outcome, model, held, stats, aug, batch):
    """The ``qgjet eval`` path: validation transform, batched forward, metrics."""
    labels = np.array([w.label for w in held], dtype=np.int64)

    def run():
        t0 = perf_counter()
        inputs = np.stack([augment.validation_transform(w, stats, aug) for w in held])
        logits = np.concatenate([
            model.forward(autodiff.Tensor(inputs[s:s + batch]), autodiff.EVAL).data
            for s in range(0, len(inputs), batch)])
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        scores = (e / e.sum(axis=1, keepdims=True))[:, 1]
        report = metrics.compute_metrics(scores, labels)
        return perf_counter() - t0, inputs, scores, report

    got = out.attempt(len(held), "eval pass", run)
    if got is None:
        return None
    seconds, inputs, scores, report = got
    bad = int(np.sum(~np.isfinite(scores)))
    if bad or not all(math.isfinite(v) for v in report.values().values()):
        out.fail(max(bad, 1), "non-finite eval score or metric")
    return seconds, inputs, report


def run_train(kind: str, seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    out = Outcome()
    log = StepLog()
    inst = Instrument() if trace else None
    try:
        if inst:
            inst.install()  # set-up is traced too: synth and detector spans
        setups, digests = [], set()
        for _ in range(SETUPS):
            t0 = perf_counter()
            inputs = _train_inputs(seed)
            _build(kind, seed)
            setups.append(perf_counter() - t0)
            digests.add(_digest([w.data for part in inputs[:3] for w in part]))
        if len(digests) != 1:
            out.fail(0, "one seed generated different inputs on repeated set-ups")
        train_w, val_w, held, stats = inputs

        if inst:
            inst.restore()
        # the first fit in a process runs about 40% slower (allocator, page faults)
        _fit(Outcome(), log, None, kind, seed, train_w, val_w)
        reference = None
        if inst:  # the first measured fit again, untraced, for transparency and overhead
            reference = _fit(out, log, None, kind, seed, train_w, val_w)
            inst.install()

        start = perf_counter()
        fits: list[Fit] = []
        while len(fits) < MIN_FITS or perf_counter() - start < FIT_SHARE * seconds:
            f = _fit(out, log, inst, kind, seed, train_w, val_w)
            if f is None:
                break
            fits.append(f)
        if not fits:
            return out
        if any(f.losses != fits[0].losses or f.state_digest != fits[0].state_digest
               for f in fits):
            out.fail(0, "fits of one seed on the same inputs gave different losses or weights")

        model = _build(kind, seed)
        model.registry.load_state_dict(fits[-1].state)  # as eval loads the checkpoint
        if inst:
            inst.watch_model(model)
        aug = augment.AugmentConfig(imagenet_normalize=model.uses_imagenet_norm)
        batch = train.TrainConfig().batch_size
        evals = []
        while len(evals) < MIN_EVALS or perf_counter() - start < EVAL_SHARE * seconds:
            got = _eval_pass(out, model, held, stats, aug, batch)
            if got is None:
                break
            evals.append(got)

        latencies = []
        images = evals[-1][1] if evals else None
        while images is not None and (len(latencies) < MIN_INFER
                                      or perf_counter() - start < seconds):
            x = images[len(latencies) % len(images)][None]

            def one():
                t0 = perf_counter()
                logits = model.forward(autodiff.Tensor(x), autodiff.EVAL).data
                return perf_counter() - t0, logits

            got = out.attempt(1, "single-image forward", one)
            if got is None:
                break
            if not np.all(np.isfinite(got[1])):
                out.fail(1, "non-finite logits from a single-image forward")
            latencies.append(got[0])
    finally:
        if inst:
            inst.restore()
        log.restore()

    n_train = len(train_w)
    rates = [EPOCHS * n_train / f.seconds for f in fits]
    eval_rates = [len(held) / e[0] for e in evals]
    lat_ms = [x * 1e3 for x in latencies]
    out.report("train_samples_per_s", _median(rates), "samples/s",
               f"median of {len(fits)} fits, {EPOCHS} epoch(s) x {n_train} samples")
    if evals:
        out.report("eval_images_per_s", _median(eval_rates), "images/s",
                   f"median of {len(evals)} passes over {len(held)} held-out images")
        out.report("eval_roc_auc", evals[-1][2].roc_auc, "", "diagnostic")
    if lat_ms:
        out.report("infer_ms_p50", _tail(lat_ms, 50) or float("nan"), "ms",
                   f"{len(lat_ms)} single-image forwards")
        out.report("infer_ms_p90", _tail(lat_ms, 90) or float("nan"), "ms",
                   f"{len(lat_ms)} single-image forwards")
    out.lines.append(f"fit seconds {[round(f.seconds, 3) for f in fits]}")
    out.lines.append(f"eval pass seconds {[round(e[0], 3) for e in evals]}")
    loss_bytes = np.array(fits[0].losses, dtype=np.float64).tobytes()
    out.lines.append(f"per-step losses {fits[0].losses} "
                     f"digest {hashlib.sha256(loss_bytes).hexdigest()[:16]}")

    if not trace:
        out.metrics = {
            "setup_s": import_s + _median(setups),
            "peak_rss_MB": _peak_rss_mb(),
            "throughput_per_s": _median(rates),
            "eval_per_s": _median(eval_rates),
            "latency_ms_p50": _tail(lat_ms, 50),
            "latency_ms_p90": _tail(lat_ms, 90),
        }
        return out

    first = fits[0]
    if reference is None or reference.losses != first.losses \
            or reference.state_digest != first.state_digest:
        out.fail(0, "traced fit differs from the untraced one: "
                    f"{reference and reference.losses} vs {first.losses}")
    if len(set(inst.counts)) != 1:
        out.fail(0, f"tape counts differ between steps: {sorted(set(inst.counts))}")
    out.metrics = per_layer(inst, {
        "epochs": EPOCHS * len(fits),
        "train.loss_step1": first.losses[0],
        "train.val_auc": first.report.roc_auc,
        "trace.untraced_per_s": EPOCHS * n_train / reference.seconds if reference else 0.0,
        "trace.traced_per_s": EPOCHS * n_train / first.seconds,
    })
    out.spans = inst.tracer.spans
    return out
