#!/usr/bin/env python3
"""Benchmark a parent revision against the working tree, in alternating pairs.

    python3 tools/bench_pairs.py PARENT --change TEXT [--pairs 10]
        [--seed-start 501] [--note TEXT] [--claim WORKLOAD METRIC TARGET_RATIO]

Run from anywhere inside a checkout.  The workloads, the command and the
run length come from ``BENCHMARK.json``.  The parent revision is exported
with ``git archive`` into a temporary directory, so no worktree is
registered, and the directory is removed at the end.  For each workload,
pair i runs the benchmark with ``--trace 0`` once in each tree on seed
``seed-start + i``, the parent first on even i and the working tree first
on odd i.  Any run that is not ``correct`` or has failed operations stops
the script with exit code 1.  The result is written to
``BENCH_<parent>.json`` at the root of the checkout: per workload and
end-to-end metric, the median and quartiles (inclusive method) of each
side, the ratio of the medians (change over parent) and the number of
pairs in which the change read lower.

``--claim`` names a workload and an end-to-end metric of ``BENCHMARK.json``
and a positive target ratio; anything else exits with code 2 before any
run.  The claim is recorded as met when the change's median is at most the
target ratio times the parent's, the change reads lower in at least nine
of ten pairs, and the medians differ by more than the parent's
interquartile spread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ORDER = "alternating by seed: even pair index runs the parent first"


def _git(root, *args):
    return subprocess.run(["git", "-C", root, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def export_tree(root, rev, dest):
    """Write the files of revision ``rev`` into ``dest`` with git archive."""
    archive = subprocess.Popen(["git", "-C", root, "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def run_once(bench, tree, workload, seed):
    """One benchmark run in ``tree``: ``(result, env)``."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} in {tree} exited with {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} in {tree}: correct={result['correct']}, "
                         f"{result['failed']} of {result['attempted']} ops failed")
    env = next((json.loads(ln[len("env: "):]) for ln in lines if ln.startswith("env: ")), {})
    return result, env


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(pairs):
    """Per-metric summary of ``[(parent result, change result), ...]``, the
    results as ``perfbench/run.py`` prints them."""
    metrics = {}
    for name in pairs[0][0]["metrics"]:
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        metrics[name] = {
            "parent": _quartiles(parent),
            "change": _quartiles(change),
            "ratio": round(statistics.median(change) / statistics.median(parent), 3),
            "change_lower_pairs": sum(c < p for p, c in zip(parent, change)),
        }
    return {"pairs": len(pairs),
            "all_correct_no_failed_ops": all(r["correct"] and not r["failed"]
                                             for pair in pairs for r in pair),
            "metrics": metrics}


def parse_claim(bench, claim):
    """``--claim WORKLOAD METRIC TARGET_RATIO`` checked against ``bench``,
    the parsed ``BENCHMARK.json``: the claim as a dict, or ValueError."""
    workload, metric, target = claim
    if workload not in [w["name"] for w in bench["workloads"]]:
        raise ValueError(f"--claim: BENCHMARK.json names no workload {workload!r}")
    if metric not in [m["name"] for m in bench["end_to_end"]]:
        raise ValueError(f"--claim: BENCHMARK.json names no end-to-end metric {metric!r}")
    try:
        ratio = float(target)
    except ValueError:
        ratio = 0.0
    if not 0 < ratio < float("inf"):
        raise ValueError(f"--claim: the target ratio must be a positive number, got {target!r}")
    return {"workload": workload, "metric": metric, "target_ratio": ratio}


def claim_met(metric, pairs, target_ratio):
    """Whether ``metric``, one metric of :func:`summarize` over ``pairs``
    pairs, meets a claim that the change lowers it to ``target_ratio`` times
    the parent's median."""
    parent, change = metric["parent"], metric["change"]
    return (change["median"] <= target_ratio * parent["median"]
            and metric["change_lower_pairs"] >= 0.9 * pairs
            and parent["median"] - change["median"] > parent["q3"] - parent["q1"])


def _host(env):
    return (f"{env.get('nproc')}-core {env.get('cpu_model')}, Python {env.get('python')}, "
            f"numpy {env.get('numpy')}, scipy {env.get('scipy')}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git revision to compare the working tree against")
    ap.add_argument("--change", required=True, help="one line that describes the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-start", type=int, default=501)
    ap.add_argument("--note", help="default: the claim, or that no gain is claimed")
    ap.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "TARGET_RATIO"))
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")

    root = _git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    claimed = None
    if args.claim:
        try:
            claimed = parse_claim(bench, args.claim)
        except ValueError as exc:
            ap.error(str(exc))
    short = _git(root, "rev-parse", "--short=7", args.parent)
    seeds = [args.seed_start + i for i in range(args.pairs)]
    workloads, env = {}, {}
    with tempfile.TemporaryDirectory(prefix=f"bench-{short}-") as parent_tree:
        export_tree(root, args.parent, parent_tree)
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i, seed in enumerate(seeds):
                trees = (parent_tree, root) if i % 2 == 0 else (root, parent_tree)
                runs = {tree: run_once(bench, tree, workload, seed) for tree in trees}
                env = runs[root][1]
                pairs.append((runs[parent_tree][0], runs[root][0]))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{name} {pairs[-1][0]['metrics'][name]['value']:.4g} -> "
                    f"{pairs[-1][1]['metrics'][name]['value']:.4g}"
                    for name in ("wall_s", "setup_s")), flush=True)
            workloads[workload] = summarize(pairs)

    note = args.note or "No gain is claimed."
    if claimed:
        summary = workloads[claimed["workload"]]
        claimed["met"] = claim_met(summary["metrics"][claimed["metric"]], summary["pairs"],
                                   claimed["target_ratio"])
        note = args.note or (f"Claimed: {claimed['workload']} {claimed['metric']} at most "
                             f"{claimed['target_ratio']:g}x the parent's median; "
                             f"{'met' if claimed['met'] else 'not met'}.")
    out = {
        "parent": short,
        "change": args.change,
        "note": "Named after the parent commit, since a commit cannot hold its own hash. "
                f"Medians and quartiles (inclusive method) over {args.pairs} parent/change "
                f"pairs per workload. {note}",
        "command": " ".join(bench["command"]) + " --workload NAME --seed SEED "
                   f"--seconds {bench['run_seconds']:g} --trace 0",
        "seeds": seeds,
        "order": ORDER,
        "host": _host(env),
        "claimed": claimed,
        "workloads": workloads,
    }
    path = os.path.join(root, f"BENCH_{short}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
