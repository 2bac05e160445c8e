"""qgjet benchmark.

    python3 perfbench/run.py --workload prep --seed 1 --seconds 25 --trace 0

Runs one workload (``prep``, ``train-vit``, ``train-conv``, or ``all`` for
each in turn, one process per workload) against the qgjet sources in
``src/`` of the checkout that holds this file. It prints the machine, every
metric with its unit and the correctness checks, and as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` they are the per-layer ones, and the spans are written to
``.bench_out/``. Numeric libraries run on one thread, as under
``QGJET_DETERMINISTIC=1``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from measure import machine, spec_errors

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("prep", "train-vit", "train-conv")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout, end="", flush=True)
        last = (child.stdout.strip().splitlines() or [""])[-1]
        if child.returncode or not last.startswith("{") or not json.loads(last)["correct"]:
            status = 1
    return status


def _import_qgjet():
    """Pin threads, then import numpy and qgjet from this checkout; returns seconds."""
    src = ROOT / "src"
    if not (src / "qgjet" / "__init__.py").is_file():
        raise SystemExit(f"error: no qgjet sources under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    from qgjet.cli import DETERMINISTIC_ENV, _pin_threads

    if "numpy" in sys.modules:
        raise SystemExit("error: numpy was loaded before the thread pinning")
    os.environ[DETERMINISTIC_ENV] = "1"
    _pin_threads()
    import qgjet
    import workloads  # noqa: F401  numpy and every qgjet module
    if Path(qgjet.__file__).resolve().parent != (src / "qgjet").resolve():
        raise SystemExit(f"error: imported qgjet from {qgjet.__file__}, not {src}")
    return perf_counter() - t0


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qgjet").rglob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_counts(out, path: Path) -> None:
    """The exact counts must repeat across traced runs of the same sources:
    the first run stores them, later runs compare."""
    import layers

    counts = {k: out.metrics.get(k) for k in layers.EXACT}
    if path.is_file():
        before = json.loads(path.read_text())
        if before != counts:
            out.problems.append(f"exact counts changed between runs: {before} -> {counts}")
    elif not out.problems:
        path.write_text(json.dumps(counts))


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read BENCHMARK.json: {exc}")
    errors = spec_errors(spec)
    if errors:
        raise SystemExit("error: BENCHMARK.json: " + "; ".join(errors))
    if args.workload == "all":
        return _run_all(args)

    import_s = _import_qgjet()
    import layers
    import workloads

    scratch = ROOT / ".bench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "prep":
            out = workloads.run_prep(args.seed, args.seconds, bool(args.trace), import_s, scratch)
        else:
            out = workloads.run_train(args.workload.removeprefix("train-"), args.seed,
                                      args.seconds, bool(args.trace), import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    info = machine(ROOT, args.workload, args.seed)
    print("machine " + json.dumps(info, sort_keys=True))
    for line in out.lines:
        print(line)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = out.metrics.get(m["name"])
        if value is None:
            out.problems.append(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = layers.MOVES.get(m["name"], "") if args.trace else ""
        shown = "-" if value is None else f"{value:.6g}"
        print(f"{m['name']:<32} {shown:>14} {m['unit']:<6} {note}".rstrip())
    if args.trace:
        trace_dir = ROOT / ".bench_out"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"machine": info, "metrics": metrics,
                                    "spans": out.spans or []}))
        print(f"spans: {len(out.spans or [])} written to {path.relative_to(ROOT)}")
        _check_counts(out, trace_dir / f"counts-{args.workload}-{_source_digest()}.json")
    for problem in out.problems:
        print("CHECK FAILED: " + problem)
    print(json.dumps({"correct": not out.problems, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
