"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""
import copy
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from measure import percentile, spec_errors, valid_name  # noqa: E402
from spans import Patches, Tracer, self_times, summarize, under  # noqa: E402


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90

    def test_rank_rounds_up(self):
        assert percentile(list(range(1, 22)), 50) == 11  # ceil(10.5) = 11th

    def test_tail_needs_ten_samples_beyond(self):
        assert percentile(list(range(100)), 90) == 89
        with pytest.raises(ValueError, match="beyond"):
            percentile(list(range(99)), 90)
        with pytest.raises(ValueError, match="beyond"):
            percentile(list(range(19)), 50)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile(list(range(1000)), 100)


class TestSpans:
    def test_self_time_subtracts_direct_children_only(self):
        spans = [["root", 0.0, 10.0, -1],
                 ["child", 1.0, 5.0, 0],
                 ["grandchild", 2.0, 3.0, 1],
                 ["child", 6.0, 8.0, 0]]
        assert self_times(spans) == [4.0, 3.0, 1.0, 2.0]
        assert summarize(spans)["child"] == (2, 6.0, 5.0)

    def test_under(self):
        spans = [["fit", 0, 9, -1], ["op", 1, 2, 0], ["inner", 1, 2, 1], ["op", 10, 11, -1]]
        assert under(spans, "fit") == [False, True, True, False]

    def test_tracer_nests_and_survives_errors(self):
        t = Tracer()

        def inner():
            raise RuntimeError("boom")

        def outer():
            with pytest.raises(RuntimeError):
                t.call("inner", inner)
            return 7

        assert t.call("outer", outer) == 7
        assert [s[0] for s in t.spans] == ["outer", "inner"]
        assert [s[3] for s in t.spans] == [-1, 0]
        assert all(s[2] >= s[1] for s in t.spans)
        assert self_times(t.spans)[0] <= t.spans[0][2] - t.spans[0][1]

    def test_patches_restore_module_class_and_instance(self):
        mod = types.SimpleNamespace(f=lambda: "module")

        class Thing:
            def m(self):
                return "class"

        obj = Thing()
        p = Patches()
        p.patch(mod, "f", lambda: "patched")
        p.patch(Thing, "m", lambda self: "patched")
        p.patch(obj, "m", lambda: "instance")
        assert (mod.f(), Thing().m(), obj.m()) == ("patched", "patched", "instance")
        p.restore()
        assert (mod.f(), Thing().m(), obj.m()) == ("module", "class", "class")
        assert "m" not in vars(obj)


class TestNames:
    @pytest.mark.parametrize("name", ["setup_s", "autodiff.layer_norm.fwd_ms", "train-vit", "p90"])
    def test_valid(self, name):
        assert valid_name(name)

    @pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "é", None])
    def test_invalid(self, name):
        assert not valid_name(name)


class TestSchema:
    def test_repo_file_is_valid(self):
        assert spec_errors(spec()) == []

    def test_every_per_layer_metric_says_what_it_moves(self):
        import layers

        assert [m["name"] for m in spec()["per_layer"]] == list(layers.MOVES)

    @pytest.mark.parametrize("mutate, message", [
        (lambda s: s.update(extra=1), "exactly the keys"),
        (lambda s: s["end_to_end"][0].update(bound=0.3), "bound"),
        (lambda s: s["end_to_end"][0].update(name="warmup_s"), "setup_s"),
        (lambda s: s["per_layer"][0].update(bound=0.1), "exactly the keys"),
        (lambda s: s["per_layer"].append(dict(s["per_layer"][0])), "more than once"),
        (lambda s: s["workloads"][0].update(why="two\nlines"), "one line"),
        (lambda s: s.update(workloads=s["workloads"][:1]), "2 to 8"),
        (lambda s: s["per_layer"][1].update(unit="per second"), "bad unit"),
        (lambda s: s.update(paths=["../elsewhere"]), "bad path"),
        (lambda s: s.update(run_seconds=61), "run_seconds"),
        (lambda s: s["command"].append("/abs/path"), "leaves the repository"),
    ])
    def test_rejects(self, mutate, message):
        bad = copy.deepcopy(spec())
        mutate(bad)
        errors = spec_errors(bad)
        assert errors and any(message in e for e in errors), errors
