"""One benchmark process: set up, run one timed round, check it, report.

run.py starts one fresh process per round, so memos inside the package
and the memory high-water mark stay per round.  The last line of standard
output is one JSON object.  With ``--setup-only`` the process stops after
set-up; run.py uses that to sample set-up time several times.

    python3 bench/worker.py --workload scan-k5 --seed 3 --round 0 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import speed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args(argv)

    with speed.Probe() as setup:
        import embform  # noqa: F401  (import time is part of set-up)
        import tracer
        import workloads

        table = workloads.TINY if args.tiny else workloads.WORKLOADS
        workload = table[args.workload]
        inputs = workload.inputs(args.seed, args.round)
        workload.warm_up()
    report = {"workload": args.workload, "round": args.round,
              "setup_s": setup.seconds(), "setup_wall_s": setup.wall()}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    absent = tracer.assert_untraced()
    trace = tracer.Tracer() if args.trace else None
    mark = trace.mark if trace else (lambda item: None)
    if trace:
        trace.install()
    with speed.Probe() as timed:
        rnd = workload.run(inputs, mark)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        trace.uninstall()
    tracer.assert_untraced()

    check = workload.check(inputs, rnd, args.seed, args.round, compare_digests=not args.tiny)
    report.update(
        timed_s=timed.seconds(),
        timed_wall_s=timed.wall(),
        reference_ns=timed.median_reference_ns(),
        attempted=rnd.items,
        failed=len(check.failed),
        messages=check.messages[:10],
        descriptors=check.descriptors,
        digests=check.digests,
        peak_rss_mib=peak_rss_mib,
        absent=absent,
    )
    if trace:
        report["layers"] = trace.summary()
        report["spans"] = len(trace.start)
        if args.spans:
            trace.write(Path(args.spans))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
