"""Alternating parent/change runs of the end-to-end benchmark on one workload.

Usage (from the repository root)::

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload train_k1 \
        --seeds 301 302 303 304 305 306 307 308 309 310

``--parent`` is checked out into a temporary ``git worktree`` (removed when
the script ends); the working tree is the change.  For each seed the script
runs ``perfbench/run.py --seconds <run_seconds> --trace 0`` once on each
side, alternating which side runs first, and prints the pair.  It then
prints, for every end-to-end metric in ``BENCHMARK.json``, each side's
median and quartiles, the parent's quartile distance, the change's win
count (by the metric's ``better`` direction) and whether the gain rule
holds: at least nine tenths of the pairs won and a median difference larger
than the parent's quartile distance.

Exits non-zero if a run fails or reports ``correct: false``.  Simulated
outcomes (the details line's ``outcomes`` and ``acceptance_ratio``) that
differ between the two sides of a pair are flagged and also fail the run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) with the inclusive method, defined for any count >= 1."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: int) -> Tuple[dict, dict]:
    """One ``perfbench/run.py`` run in ``checkout``: (details, result)."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: seed {seed} exited with code {completed.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(runs: Dict[str, List[dict]], metrics: List[dict]) -> None:
    pairs = len(runs["parent"])
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        wins = sum(
            sign * (change - parent) > 0
            for parent, change in zip(sides["parent"], sides["change"])
        )
        parent_q1, parent_median, parent_q3 = quartiles(sides["parent"])
        change_q1, change_median, change_q3 = quartiles(sides["change"])
        spread = parent_q3 - parent_q1
        gain = sign * (change_median - parent_median)
        holds = wins >= 0.9 * pairs and gain > spread
        relative = (change_median / parent_median - 1.0) * 100.0 if parent_median else 0.0
        print(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"parent median {parent_median:.6g} [q1 {parent_q1:.6g}, q3 {parent_q3:.6g}]; "
            f"change median {change_median:.6g} [q1 {change_q1:.6g}, q3 {change_q3:.6g}]; "
            f"{relative:+.1f}%; parent quartile distance {spread:.6g}; "
            f"change wins {wins}/{pairs}; gain rule {'holds' if holds else 'does not hold'}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = int(benchmark["run_seconds"])
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    mismatches = 0
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        worktree = Path(scratch) / "parent"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(worktree), args.parent],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        try:
            checkouts = {"parent": worktree, "change": ROOT}
            for index, seed in enumerate(args.seeds):
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                pair = {}
                for side in order:
                    details, result = run_benchmark(checkouts[side], args.workload, seed, seconds)
                    if not result.get("correct"):
                        print(f"{side} seed {seed}: correct is false: {details.get('failures')}")
                        return 1
                    pair[side] = (details, result)
                    runs[side].append(result)
                outcomes = {
                    side: (
                        details["outcomes"],
                        result["metrics"]["acceptance_ratio"]["value"],
                    )
                    for side, (details, result) in pair.items()
                }
                same = outcomes["parent"] == outcomes["change"]
                mismatches += not same
                deltas = ", ".join(
                    f"{name} {pair['parent'][1]['metrics'][name]['value']:.6g} -> "
                    f"{value['value']:.6g}"
                    for name, value in pair["change"][1]["metrics"].items()
                )
                print(
                    f"seed {seed} ({order[0]} first): parent -> change: {deltas}; "
                    f"outcomes {'equal' if same else 'DIFFER: ' + repr(outcomes)}",
                    flush=True,
                )
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(worktree)], cwd=ROOT, check=False
            )
    summarize(runs, benchmark["end_to_end"])
    if mismatches:
        print(f"{mismatches} pair(s) with differing outcomes")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
