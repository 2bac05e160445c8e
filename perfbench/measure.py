"""Benchmark helpers that import no numeric library: percentiles, metric
names, the BENCHMARK.json schema and the machine record."""
from __future__ import annotations

import math
import os
import platform
import re
from pathlib import Path

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH_RE = re.compile(r"[A-Za-z0-9_./-]{1,200}")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_BEYOND = 10  # a reported percentile needs this many samples above it


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it. Refuses a tail with fewer than MIN_BEYOND
    samples beyond it, so p90 needs 100 samples and p50 needs 20."""
    n = len(values)
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    rank = math.ceil(q / 100.0 * n)
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples leaves {n - rank} beyond it, "
                         f"fewer than {MIN_BEYOND}")
    return sorted(values)[rank - 1]


def valid_name(name) -> bool:
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def _check_metrics(entries, key: str, lo: int, hi: int, bounded: bool, errors: list) -> None:
    want = {"name", "unit", "better", "bound"} if bounded else {"name", "unit", "better"}
    if not isinstance(entries, list) or not lo <= len(entries) <= hi:
        errors.append(f"{key}: need a list of {lo} to {hi} metrics")
        return
    for m in entries:
        if not isinstance(m, dict) or set(m) != want:
            errors.append(f"{key}: {m!r} must have exactly the keys {sorted(want)}")
            continue
        if not valid_name(m["name"]):
            errors.append(f"{key}: bad name {m['name']!r}")
        if not isinstance(m["unit"], str) or not UNIT_RE.fullmatch(m["unit"]):
            errors.append(f"{key}: bad unit {m['unit']!r} for {m['name']}")
        if m["better"] not in ("lower", "higher"):
            errors.append(f"{key}: better must be lower or higher for {m['name']}")
        if bounded and not (isinstance(m["bound"], (int, float)) and 0 < m["bound"] <= 0.25):
            errors.append(f"{key}: bound of {m['name']} must lie in (0, 0.25]")


def spec_errors(spec) -> list[str]:
    """Every way ``spec`` breaks the BENCHMARK.json contract; empty if none."""
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if not isinstance(spec, dict) or set(spec) != keys:
        return [f"top level must have exactly the keys {sorted(keys)}"]
    errors: list[str] = []
    paths = spec["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        errors.append("paths: need 1 to 16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or not PATH_RE.fullmatch(p) or p.startswith("/")
                    or ".." in p.split("/")):
                errors.append(f"paths: bad path {p!r}")
    command = spec["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32
            or not all(isinstance(c, str) and 0 < len(c) <= 200 for c in command)):
        errors.append("command: need 1 to 32 strings of at most 200 characters")
    else:
        for c in command[1:]:
            if c.startswith("/") or ".." in c.split("/"):
                errors.append(f"command: argument {c!r} leaves the repository")
    seconds = spec["run_seconds"]
    if not isinstance(seconds, int) or isinstance(seconds, bool) or not 1 <= seconds <= 60:
        errors.append("run_seconds: need a whole number from 1 to 60")
    workloads = spec["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        errors.append("workloads: need 2 to 8")
    else:
        for w in workloads:
            if not isinstance(w, dict) or set(w) != {"name", "why"}:
                errors.append(f"workloads: {w!r} must have exactly name and why")
            elif not valid_name(w["name"]):
                errors.append(f"workloads: bad name {w['name']!r}")
            elif not isinstance(w["why"], str) or not 0 < len(w["why"]) <= 200 or "\n" in w["why"]:
                errors.append(f"workloads: why of {w['name']} must be one line of at most 200 characters")
    _check_metrics(spec["end_to_end"], "end_to_end", 1, 16, True, errors)
    _check_metrics(spec["per_layer"], "per_layer", 1, 128, False, errors)
    if not errors:
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
            errors.append("end_to_end: setup_s in s, better lower, is required")
        names = [w["name"] for w in workloads] + [m["name"] for m in spec["end_to_end"]]
        names += [m["name"] for m in spec["per_layer"]]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            errors.append(f"names used more than once: {dupes}")
    return errors


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(root: Path, workload: str, seed: int) -> dict:
    """nproc, interpreter, numpy and BLAS build, thread pinning, commit, seed."""
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):  # numpy older than 1.25
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(root),
    }
