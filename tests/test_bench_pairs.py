"""The summary step of tools/bench_pairs.py, on fabricated run results."""

import importlib.util
from pathlib import Path

import pytest


def load_bench_pairs():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(wall_s, setup_s):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "setup_s": {"value": setup_s, "unit": "s"}}}


def test_summary_reports_quartiles_ratio_and_lower_pairs():
    bench_pairs = load_bench_pairs()
    parent_wall = [1.0, 2.0, 3.0, 4.0, 5.0]
    change_wall = [0.5, 2.5, 2.0, 3.0, 6.0]
    pairs = [(fake_run(p, 0.3), fake_run(c, 0.3)) for p, c in zip(parent_wall, change_wall)]
    summary = bench_pairs.summarize(pairs)
    assert summary["pairs"] == 5 and summary["all_correct_no_failed_ops"]
    wall = summary["metrics"]["wall_s"]
    assert wall["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert wall["change"] == {"q1": 2.0, "median": 2.5, "q3": 3.0}
    assert wall["ratio"] == round(2.5 / 3.0, 3)
    assert wall["change_lower_pairs"] == 3
    setup = summary["metrics"]["setup_s"]
    assert setup["ratio"] == 1.0 and setup["change_lower_pairs"] == 0


def test_claim_is_met_only_by_ratio_pairs_and_spread():
    bench_pairs = load_bench_pairs()

    def judged(parent_wall, change_wall, target):
        pairs = [(fake_run(p, 0.3), fake_run(c, 0.3)) for p, c in zip(parent_wall, change_wall)]
        summary = bench_pairs.summarize(pairs)
        return bench_pairs.claim_met(summary["metrics"]["wall_s"], summary["pairs"], target)

    parent = [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.1]
    faster = [0.5] * 10
    assert judged(parent, faster, 0.5)
    # the median ratio 0.5 / 1.1 misses a target of 0.4
    assert not judged(parent, faster, 0.4)
    # lower in only 8 of 10 pairs
    assert not judged(parent, faster[:8] + [1.3, 1.3], 0.6)
    # lower in every pair, but by less than the parent's quartile spread 0.15
    assert not judged(parent, [p - 0.05 for p in parent], 1.0)


def test_a_claim_benchmark_json_does_not_name_exits_2_before_any_run(monkeypatch, capsys):
    bench_pairs = load_bench_pairs()
    root = str(Path(__file__).resolve().parents[1])
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: root)

    def no_run(*args):
        raise AssertionError("a run started")
    monkeypatch.setattr(bench_pairs, "export_tree", no_run)
    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    for claim, message in ((["dist_smal", "wall_s", "0.8"], "no workload 'dist_smal'"),
                           (["dist_small", "wall_ms", "0.8"], "no end-to-end metric 'wall_ms'"),
                           (["dist_small", "wall_s", "0"], "positive number"),
                           (["dist_small", "wall_s", "-0.5"], "positive number"),
                           (["dist_small", "wall_s", "nan"], "positive number"),
                           (["dist_small", "wall_s", "fast"], "positive number")):
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(["HEAD", "--change", "x", "--claim", *claim])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
