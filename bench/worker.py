"""One measured round of the benchmark, in a fresh interpreter.

    python3 bench/worker.py < spec.json

The spec names the workload, the run seed and the blocks to run.  The worker imports numpy and lindisc and loads every job file (its
set-up time), runs the jobs one at a time through ``lindisc.cli.main``
and prints one JSON line: per job its time, exit code, output SHA-256,
digits and the machine-speed probe taken before its block, plus set-up
time and its probe, loop time, peak RSS, the independent oracle's
verdict and, when traced, the per-layer figures.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402

ORACLE_SAMPLE = 2


class Loop:
    """The closed loop: one job at a time, each timed from outside."""

    def __init__(self, items, paths, capture, main, speed_probe=None):
        self.items = items
        self.paths = paths
        self.capture = capture
        self.main = main
        self.speed_probe = speed_probe

    def run(self, blocks, tracer=None, keep=()):
        """Run every job of ``blocks`` (lists of item ids) in order, with a
        machine-speed probe before each block.

        Returns ([(job_id, seconds, code, stdout, error, digits, probe
        seconds)], solver results of the jobs in ``keep``)."""
        records, kept = [], {}
        for block in blocks:
            probe_s = self.speed_probe() if self.speed_probe else None
            for item in block:
                for job_id, argv_tail, _ in self.items[item]:
                    argv = argv_tail + ["--job", self.paths[item]]
                    if tracer is not None:
                        tracer.job = job_id
                    t0 = perf_counter()
                    code, stdout, error = harness.run_job(self.main, argv)
                    elapsed = perf_counter() - t0
                    results, points = self.capture.take()
                    digits = harness.digits_of(results, points)
                    records.append((job_id, elapsed, code, stdout, error, digits, probe_s))
                    if job_id in keep and job_id not in kept:
                        kept[job_id] = results
        return records, kept


def main():
    spec = json.load(sys.stdin)
    os.chdir(harness.ROOT)
    items = workloads.pool(spec["workload"])
    paths = harness.write_jobs(spec["workload"], items)

    # set-up as a CLI call pays it: import numpy and lindisc, load the jobs
    t0 = perf_counter()
    import numpy

    harness.import_lindisc()
    import lindisc.cli

    for path in sorted(paths.values()):
        lindisc.cli.load_job(path)
    setup_s = perf_counter() - t0
    import probe  # after the set-up timing: it imports numpy

    setup_probe_s = probe.probe()
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": setup_s, "setup_probe_s": setup_probe_s}))
        return 0

    patcher = harness.Patcher()
    capture = harness.Capture(patcher)
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer(patcher)
    loop = Loop(items, paths, capture, lambda a: lindisc.cli.main(a), probe.probe)

    # oracle sample: seeded picks among the first block's solving jobs
    solving = [
        job_id
        for item in spec["blocks"][0]
        for job_id, argv_tail, _ in items[item]
        if argv_tail[0] != "analyze"
    ]
    keep = random.Random(f"oracle:{spec['seed']}").sample(
        solving, min(ORACLE_SAMPLE, len(solving))
    )

    t0 = perf_counter()
    records, kept = loop.run(spec["blocks"], tracer=tracer, keep=set(keep))
    loop_s = perf_counter() - t0
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    patcher.undo()

    out = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "numpy": numpy.__version__,
        "loop_s": loop_s,
        "peak_rss_kb": peak_rss_kb,
        "jobs": [
            [job_id, elapsed, code, hashlib.sha256(stdout).hexdigest(), error, digits, probe_s]
            for job_id, elapsed, code, stdout, error, digits, probe_s in records
        ],
        "oracle_checked": sorted(kept),
        "oracle_bad": harness.oracle_mismatches(capture.originals, kept),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(len(records), capture.attempts, capture.pipelines)
        tracer.write_spans(harness.WORK / "trace" / f"{spec['workload']}.s{spec['seed']}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
