"""Where the traced run puts its spans in qgjet, and how spans become the
per-layer metrics.

Spans wrap public names at the modules that call them, so the program runs
unchanged: ``generate_dataset`` looks up ``bin_hits`` in ``qgjet.synth``,
``fit`` looks up ``train_transform`` in ``qgjet.train``, the models look up
every op in ``qgjet.autodiff``. The ``backward`` wrapper receives the tape
and times the callable of each node under the name of the op that recorded it.
"""
from __future__ import annotations

import numpy as np

from qgjet import augment, autodiff, datastore, optim, preprocess, synth, train
from spans import Tracer, summarize, under

OPS = ("add", "mul", "matmul", "reshape", "transpose", "index", "concat", "broadcast_to",
       "mean_", "relu", "gelu", "softmax", "layer_norm", "cross_entropy_soft", "conv2d")
VIT_OPS = ("mul", "reshape", "transpose", "concat", "broadcast_to", "gelu", "softmax",
           "layer_norm")
CONV_OPS = ("mean_", "relu", "conv2d")

# counts that must read the same on every run of the same sources
EXACT = ("autodiff.tape_nodes", "autodiff.nodes_float64", "autodiff.fwd_MB", "datastore.bytes")

_SYNTH = "throughput_per_s on prep; setup_s on train-vit and train-conv"
_IO = "throughput_per_s and peak_rss_MB on prep"
_PRE = "eval_per_s and latency_ms_p50/p90 on prep"
_AUG = "throughput_per_s on train-vit and train-conv; nothing on prep"
_STEP = "throughput_per_s, eval_per_s and latency_ms_p50/p90 on "

# per-layer metric -> the end-to-end metric and workload it should move
MOVES = {
    "synth.sample_jet_ms": _SYNTH,
    "synth.accept_ratio": _SYNTH,
    "detector.bin_hits_ms": _SYNTH,
    "detector.find_window_center_ms": _SYNTH,
    "detector.crop_jet_window_ms": _SYNTH,
    "datastore.write_s": _IO,
    "datastore.read_s": _IO,
    "datastore.bytes": _IO,
    "preprocess.stats_s": _PRE + "; a small share of fit on train-*",
    "preprocess.window_ms": _PRE + "; a small share of fit on train-*",
    "augment.train_transform_ms": _AUG,
    "augment.random_resized_crop_ms": _AUG,
    "augment.random_rotate_ms": _AUG,
    "augment.color_jitter_ms": _AUG,
    "augment.mixup_ms": "throughput_per_s on train-vit (mixup is off for conv)",
    "augment.validation_transform_ms": "eval_per_s on train-vit and train-conv; nothing on prep",
    "train.forward_s": _STEP + "train-vit and train-conv",
    "autodiff.backward_s": "throughput_per_s on train-vit and train-conv",
    "autodiff.tape_nodes": "count, repeats exactly; fewer nodes move throughput_per_s on train-*",
    "autodiff.nodes_float64": "count, repeats exactly; the float64 leak, moves throughput_per_s on train-*",
    "autodiff.fwd_MB": "count, repeats exactly; moves peak_rss_MB and throughput_per_s on train-*",
    "optim.step_ms": "throughput_per_s on train-*, but at <=5 ms a step it is predicted to move nothing",
    "train.val_pass_s": "throughput_per_s on train-vit and train-conv",
    "train.loss_step1": "diagnostic, not gated",
    "train.val_auc": "diagnostic, not gated",
    "trace.untraced_per_s": "tracing overhead: the untraced reference rate",
    "trace.traced_per_s": "tracing overhead: the same work traced",
}
for _op in OPS:
    _label = _op.rstrip("_")
    _where = ("train-vit" if _op in VIT_OPS else "train-conv" if _op in CONV_OPS
              else "train-vit and train-conv")
    MOVES[f"autodiff.{_label}.fwd_ms"] = _STEP + _where
    MOVES[f"autodiff.{_label}.bwd_ms"] = "throughput_per_s on " + _where


class Instrument:
    """A Tracer plus the tape counts taken where ``fit`` calls backward."""

    def __init__(self):
        self.tracer = Tracer()
        self.counts: list[tuple[int, int, int]] = []  # per step: nodes, float64 nodes, bytes
        self._op_of: dict[int, str] = {}
        self._taping = False

    def install(self) -> None:
        t = self.tracer
        for owner, attr, name in (
                (synth, "sample_jet", "synth.sample_jet"),
                (synth, "bin_hits", "detector.bin_hits"),
                (synth, "find_window_center", "detector.find_window_center"),
                (synth, "crop_jet_window", "detector.crop_jet_window"),
                (datastore, "write_dataset", "datastore.write"),
                (datastore, "read_dataset", "datastore.read"),
                (preprocess, "compute_channel_stats", "preprocess.stats"),
                (train, "compute_channel_stats", "preprocess.stats"),
                (preprocess, "preprocess_window", "preprocess.window"),
                (train, "preprocess_window", "preprocess.window"),
                (augment, "preprocess_window", "preprocess.window"),
                (train, "train_transform", "augment.train_transform"),
                (augment, "random_resized_crop", "augment.random_resized_crop"),
                (augment, "random_rotate", "augment.random_rotate"),
                (augment, "color_jitter", "augment.color_jitter"),
                (train, "mixup", "augment.mixup"),
                (train, "validation_transform", "augment.validation_transform"),
                (augment, "validation_transform", "augment.validation_transform"),
                (train, "compute_metrics", "metrics.compute"),
                (train, "fit", "train.fit"),
                (optim.Optimizer, "step", "optim.step")):
            t.wrap(owner, attr, name)
        for op in OPS:
            t.patch(autodiff, op, self._traced_op(op, getattr(autodiff, op)))
        t.patch(autodiff, "backward", self._traced_backward(autodiff.backward))
        enter, leave = autodiff.Tape.__enter__, autodiff.Tape.__exit__

        def tape_enter(tape):
            self._taping = True
            return enter(tape)

        def tape_exit(tape, *exc):
            self._taping = False
            return leave(tape, *exc)

        t.patch(autodiff.Tape, "__enter__", tape_enter)
        t.patch(autodiff.Tape, "__exit__", tape_exit)

    def watch_model(self, model) -> None:
        """Span every forward of this model, named by its mode."""
        forward = model.forward

        def traced_forward(images, mode=autodiff.EVAL, rng=None):
            return self.tracer.call(f"model.forward.{mode}", forward, images, mode, rng)

        self.tracer.patch(model, "forward", traced_forward)

    def restore(self) -> None:
        self.tracer.restore()
        self._op_of.clear()

    def _traced_op(self, op: str, fn):
        label = op.rstrip("_")
        tracer, op_of = self.tracer, self._op_of

        def traced(*args, **kwargs):
            span = tracer.begin(f"autodiff.{label}")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            span[0] += ".fwd" if self._taping else ".eval"
            if out.requires_grad:
                op_of[id(out)] = label
            return out

        return traced

    def _traced_backward(self, backward):
        tracer, op_of = self.tracer, self._op_of

        def traced(tape, loss):
            nodes = tape.nodes
            n64 = nbytes = 0
            for i, (out, node_backward) in enumerate(nodes):
                name = f"autodiff.{op_of.get(id(out), 'other')}.bwd"
                nodes[i] = (out, tracer.timed(name, node_backward))
                n64 += out.data.dtype == np.float64
                nbytes += out.data.nbytes
            self.counts.append((len(nodes), int(n64), int(nbytes)))
            op_of.clear()
            return tracer.call("autodiff.backward", backward, tape, loss)

        return traced


def per_layer(inst: Instrument, extra: dict) -> dict[str, float]:
    """Every per-layer metric from the spans; a layer that never ran reads 0.

    Leaf layers report self time per call. ``train_transform``,
    ``validation_transform``, ``train.forward``, ``autodiff.backward`` and
    the datastore calls report their whole span, as their children are
    reported on their own. Op times are per training step.
    """
    spans = inst.tracer.spans
    s = summarize(spans)

    def per_call(name, scale=1.0, whole=False):
        calls, total, own = s.get(name, (0, 0.0, 0.0))
        return (total if whole else own) / calls * scale if calls else 0.0

    steps = s.get("autodiff.backward", (0,))[0]
    out = {
        "synth.sample_jet_ms": per_call("synth.sample_jet", 1e3),
        "synth.accept_ratio": (s.get("detector.bin_hits", (0,))[0] / s["synth.sample_jet"][0]
                               if "synth.sample_jet" in s else 0.0),
        "detector.bin_hits_ms": per_call("detector.bin_hits", 1e3),
        "detector.find_window_center_ms": per_call("detector.find_window_center", 1e3),
        "detector.crop_jet_window_ms": per_call("detector.crop_jet_window", 1e3),
        "datastore.write_s": per_call("datastore.write", whole=True),
        "datastore.read_s": per_call("datastore.read", whole=True),
        "datastore.bytes": float(extra.get("dataset_bytes", 0)),
        "preprocess.stats_s": per_call("preprocess.stats", whole=True),
        "preprocess.window_ms": per_call("preprocess.window", 1e3),
        "augment.train_transform_ms": per_call("augment.train_transform", 1e3, whole=True),
        "augment.random_resized_crop_ms": per_call("augment.random_resized_crop", 1e3),
        "augment.random_rotate_ms": per_call("augment.random_rotate", 1e3),
        "augment.color_jitter_ms": per_call("augment.color_jitter", 1e3),
        "augment.mixup_ms": per_call("augment.mixup", 1e3),
        "augment.validation_transform_ms": per_call("augment.validation_transform", 1e3, whole=True),
        "train.forward_s": per_call("model.forward.train", whole=True),
        "autodiff.backward_s": per_call("autodiff.backward", whole=True),
        "optim.step_ms": per_call("optim.step", 1e3, whole=True),
    }
    for op in OPS:
        label = op.rstrip("_")
        for phase in ("fwd", "bwd"):
            own = s.get(f"autodiff.{label}.{phase}", (0, 0.0, 0.0))[2]
            out[f"autodiff.{label}.{phase}_ms"] = own / steps * 1e3 if steps else 0.0
    first = inst.counts[0] if inst.counts else (0, 0, 0)
    out["autodiff.tape_nodes"] = float(first[0])
    out["autodiff.nodes_float64"] = float(first[1])
    out["autodiff.fwd_MB"] = first[2] / 1e6
    # the validation pass inside fit: eval forwards, the eval loss and the metrics
    in_fit = under(spans, "train.fit")
    val = sum(end - start for (name, start, end, parent), inside in zip(spans, in_fit)
              if inside and name in ("model.forward.eval", "autodiff.cross_entropy_soft.eval",
                                     "metrics.compute")
              and not in_fit[parent])
    epochs = extra.get("epochs", 0)
    out["train.val_pass_s"] = val / epochs if epochs else 0.0
    for key in ("train.loss_step1", "train.val_auc", "trace.untraced_per_s", "trace.traced_per_s"):
        out[key] = float(extra.get(key, 0.0))
    return out
