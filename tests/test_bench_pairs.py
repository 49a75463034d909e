"""The summary step of tools/bench_pairs.py, on fabricated run results."""

import importlib.util
from pathlib import Path


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
