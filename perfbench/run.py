"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload programs-s0 --seed 1 --seconds 25 --trace 0

Workloads: ``programs-s0``, ``decay-alloc`` and ``shards-inline`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs untraced reference passes for half the
seconds, then one traced pass, and reports the per-layer metrics
instead.  Every line but the last is for people; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, carrying exactly the metrics ``BENCHMARK.json`` declares
for that mode.  The exit code is 0 only if a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
#: A run that is not done by then is stopped; every run must end in 180 s.
DEADLINE_S = 170
#: Environment knobs of the program that would change what is run.
PROGRAM_KNOBS = (
    "REPRO_HEAP_BACKEND",
    "REPRO_JOBS",
    "REPRO_TASK_TIMEOUT",
    "REPRO_TASK_RETRIES",
)
WORKLOADS = ("programs-s0", "decay-alloc", "shards-inline")


class Deadline(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def _become_subreaper() -> None:
    """Have descendants orphaned during the run re-parented to this
    process, so that :func:`_reap` finds them too (Linux only)."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    """Process ids whose parent is this process, zombies included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _reap(grace_s: float = 5.0) -> None:
    """Stop every process the run started and wait until each has
    ended: pool workers are given ``grace_s`` to finish, then killed."""
    import multiprocessing

    deadline = time.monotonic() + grace_s
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.kill()
            child.join()
    while True:
        pending = _children()
        if not pending:
            return
        for pid in pending:
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.02)


def _environment() -> dict:
    """The environment every process of the run gets: the program
    from this checkout's sources, byte-code kept inside the benchmark's
    directory, and none of the program's own knobs."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in PROGRAM_KNOBS
    }
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONPYCACHEPREFIX"] = str(BENCH_DIR / ".pycache")
    return env


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources under {ROOT / 'src'}; run "
            f"from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env = _environment()
    os.environ.clear()
    os.environ.update(env)
    sys.pycache_prefix = env["PYTHONPYCACHEPREFIX"]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.measure import peak_rss_mb
    from perfbench.service import shards
    from perfbench.workloads import decay, programs

    _become_subreaper()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        traced = bool(args.trace)
        if args.workload == "programs-s0":
            result = programs(args.seed, args.seconds, traced, env)
        elif args.workload == "decay-alloc":
            result = decay(args.seed, args.seconds, traced, env)
        else:
            result = shards(args.seed, args.seconds, traced, env)
        result.metric("peak_rss_mb", peak_rss_mb(), "MiB")
    finally:
        signal.alarm(0)
        _reap()

    error_rate = result.failed / max(1, result.attempted)
    result.note("error_rate", error_rate, "ratio",
                f"{result.failed} of {result.attempted} operations failed")
    for problem in result.problems:
        print(f"FAILED: {problem}")
    for name, (value, unit, note) in result.notes.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    metrics = {}
    for entry in declared:
        name = entry["name"]
        value, unit = result.metrics[name]
        if unit != entry["unit"]:
            raise ValueError(f"{name}: unit {unit} != {entry['unit']}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
