"""Self-test of the benchmark itself.

Usage, from the repository root: ``python3 perfbench/selftest.py``
(about half a minute).

Checks, for each workload of ``BENCHMARK.json``, that one short
untraced run:

* exits 0 and ends with a result line whose metrics are exactly the
  ``end_to_end`` metrics of ``BENCHMARK.json``, all non-zero, with
  ``correct`` true and no failed operation;
* leaves every file of the repository outside ``perfbench/`` as it
  was (no byte-code, cache or report written into the program's tree).

And that the benchmark refuses to run, without printing a result, in
a directory holding only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent


def tree_state() -> dict[str, str]:
    """Digest of every file outside the benchmark's directory."""
    state = {}
    for path in sorted(ROOT.rglob("*")):
        relative = path.relative_to(ROOT)
        if relative.parts[0] in (".git", BENCH.name) or not path.is_file():
            continue
        state[str(relative)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return state


def run(workload: str, cwd: Path, seconds: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {metric["name"] for metric in spec["end_to_end"]}
    workloads = [workload["name"] for workload in spec["workloads"]]
    failures = []
    before = tree_state()
    for workload in workloads:
        known = len(failures)
        done = run(workload, ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            failures.append(f"{workload}: exit {done.returncode}: "
                            f"{done.stderr[-400:]}")
            continue
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        if set(metrics) != declared:
            failures.append(f"{workload}: metrics {sorted(metrics)}")
        if not result["correct"] or result["failed"]:
            failures.append(f"{workload}: {result['failed']} failed")
        zero = [name for name, entry in metrics.items() if not entry["value"]]
        if zero:
            failures.append(f"{workload}: zero metrics {zero}")
        print(f"{workload}: " + ("ok" if len(failures) == known else "FAIL"))
    after = tree_state()
    changed = sorted(
        path for path in set(before) | set(after)
        if before.get(path) != after.get(path)
    )
    if changed:
        failures.append(f"repository files changed by a run: {changed[:10]}")

    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            BENCH, bare / BENCH.name,
            ignore=shutil.ignore_patterns("out", ".pycache", "__pycache__"),
        )
        done = run(workloads[0], bare)
        if done.returncode == 0 or done.stdout.strip():
            failures.append("a bare directory did not make the run fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main(sys.argv[1:]))
