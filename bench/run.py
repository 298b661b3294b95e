"""embform benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 bench/run.py --workload scan-k5 --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 0

The package is imported from ``src/`` as checked out; nothing is
installed.  Each round of a workload runs in its own fresh worker process
(bench/worker.py), one after another; rounds continue while the next one
is expected to fit in ``--seconds`` of timed wall time, and at least one
runs.  Times in the metrics are machine-speed weighted (bench/speed.py).
Every output is checked after its round.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's details.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` the same rounds run untraced and then traced, each in
fresh processes; the metrics are the per-layer ones, and the traced
workers write their spans under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import tracer  # noqa: E402  (needs no package import)

WORKLOADS = ("scan-k3", "scan-k5", "sos2-k4", "pwl-m4")
SETUP_PROBES = 6          # extra set-up-only processes; set-up time is their median with the rounds'
HULL_BUDGET_S = "120"     # EMBFORM_BUDGET_SECONDS for every worker
RUN_DEADLINE_S = 170      # a run ends within this, whatever its workers do
WORKER_TIMEOUT_S = 150
WALL_FACTOR = 2.5         # wall-time cap on a run's rounds, as a multiple of --seconds


class WorkerFailed(RuntimeError):
    pass


def _worker(args, round_index: int, trace: int, deadline: float, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--round", str(round_index), "--trace", str(trace)]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--spans", str(Path(".bench_out") / f"spans-{args.workload}-r{round_index}.bin")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["EMBFORM_BUDGET_SECONDS"] = HULL_BUDGET_S
    env["PYTHONHASHSEED"] = "0"
    timeout = min(WORKER_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        raise WorkerFailed("run deadline reached")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"round {round_index} worker killed after {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"round {round_index} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rounds(args, deadline: float) -> list[dict]:
    """Fresh-process rounds while the next is expected to fit in --seconds
    of timed work, and its process (set-up and checks included) in
    WALL_FACTOR times that."""
    done: list[dict] = []
    timed = wall = last_wall = 0.0
    while not done or (timed + done[-1]["timed_wall_s"] <= args.seconds
                       and wall + last_wall <= WALL_FACTOR * args.seconds):
        t0 = time.monotonic()
        done.append(_worker(args, len(done), 0, deadline))
        last_wall = time.monotonic() - t0
        timed += done[-1]["timed_wall_s"]
        wall += last_wall
    return done


def _totals(rounds) -> tuple[int, int]:
    return sum(r["attempted"] for r in rounds), sum(r["failed"] for r in rounds)


def _descriptors(rounds) -> dict:
    """Item-weighted means of the per-round numeric input descriptors."""
    out = {}
    weight = sum(r["attempted"] for r in rounds)
    for key in ("direction_set_repeat_ratio", "slices_per_member"):
        if all(key in r["descriptors"] for r in rounds):
            out[key] = sum(r["descriptors"][key] * r["attempted"] for r in rounds) / weight
    return out


def run_workload(args) -> tuple[dict, dict]:
    """(result line, details) for one workload."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    plain = _rounds(args, deadline)
    attempted, failed = _totals(plain)
    details = {
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny,
        "rounds": [{k: r[k] for k in ("timed_s", "timed_wall_s", "reference_ns", "attempted", "failed",
                                      "setup_s", "setup_wall_s", "peak_rss_mib", "messages")}
                   for r in plain],
        "descriptors": [r["descriptors"] for r in plain],
        "digests": {k: v for r in plain for k, v in r["digests"].items()},
        "absent": sorted({a for r in plain for a in r["absent"]}),
    }
    if not args.trace:
        setups = [r["setup_s"] for r in plain]
        probes = [_worker(args, 0, 0, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
        setups += [p["setup_s"] for p in probes]
        details["raw_items_per_s"] = (attempted - failed) / sum(r["timed_wall_s"] for r in plain)
        details["raw_setup_s"] = statistics.median([r["setup_wall_s"] for r in plain + probes])
        details["setup_samples_s"] = setups
        metrics = {
            "items_per_s": {"value": (attempted - failed) / sum(r["timed_s"] for r in plain), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": max(r["peak_rss_mib"] for r in plain), "unit": "MiB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    else:
        for stale in Path(".bench_out").glob(f"spans-{args.workload}-r*.bin"):
            stale.unlink()
        traced = [_worker(args, i, 1, deadline) for i in range(len(plain))]
        t_attempted, t_failed = _totals(traced)
        attempted, failed = attempted + t_attempted, failed + t_failed
        overhead = sum(r["timed_s"] for r in traced) / sum(r["timed_s"] for r in plain)
        agg = tracer.merge([r["layers"] for r in traced])
        spec = json.loads(Path("BENCHMARK.json").read_text())["per_layer"]
        metrics = tracer.layer_metrics(agg, overhead, _descriptors(plain), spec)
        details["traced_rounds"] = [{k: r[k] for k in ("timed_s", "timed_wall_s", "attempted", "failed", "spans", "messages")}
                                    for r in traced]
        details["tail_samples"] = {q: len(agg.get(q, {}).get("durations_ns", [])) for q in tracer.LATENCY}
    details["input_descriptors"] = _descriptors(plain)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs on the same code paths (harness smoke check only)")
    args = parser.parse_args(argv)

    if not Path("src/embform/__init__.py").is_file():
        print("error: run from the root of an embform checkout (src/embform not found)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        try:
            results[name], details = run_workload(args)
        except WorkerFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"details": details}))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
