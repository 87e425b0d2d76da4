"""lindisc benchmark: seeded CLI job workloads, timed from outside, with an
exact-output gate.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths resolve from
this file).  The load is a closed loop: one client runs one job at a
time through ``lindisc.cli.main`` in a worker interpreter (see
``worker.py``); workers run one after another, never concurrently.

A run is a fixed amount of work: the first blocks of the seeded
sequence, as many as take about ``S`` seconds on the reference machine
(``workloads.BLOCK_S``).  Fixing the work rather than the time keeps the
job count, and so the ranks behind p50 and the tail, the same in every
run.

``--trace 0``: one round in a fresh interpreter runs those blocks.
Times are scaled to the reference machine's speed by the probe taken
before each block (see ``probe.py``); the raw seconds are printed in the
info line.  ``setup_s`` is the median scaled set-up time over the round
and extra set-up-only workers.

``--trace 1``: one untraced round, then the same blocks traced;
per-layer figures are per job, and ``trace.overhead_s`` is the traced
round's scaled job time minus the untraced round's, per job.

Every execution is checked against the committed reference; stdout ends
with one JSON line: correct, attempted, failed and the metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from probe import PROBE_REF_S  # noqa: E402

SETUP_SAMPLES = 5
# enough jobs that job_s.tail (ten jobs beyond it) sits above the median
MIN_JOBS = 20
WORKER = Path(__file__).resolve().parent / "worker.py"
# the rounds (two when traced) and the set-up workers must end within
# the 180 s a run may take
WORKER_TIMEOUT_S = 75


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def worker(spec):
    """Run one round in a fresh interpreter and return its JSON report."""
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER)],
            input=json.dumps(spec),
            cwd=harness.ROOT,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"worker ran longer than {WORKER_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"worker exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(times):
    """(value, percentile): the highest whole percentile with at least ten
    jobs beyond it, nearest-rank; the maximum when fewer than 11 jobs ran."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct


def plan(workload, seed, seconds, items):
    """The run's blocks: about ``seconds`` of reference-machine work, and
    at least MIN_JOBS jobs."""
    sequence = workloads.blocks(workload, seed)
    first = next(sequence)
    per_block = sum(len(items[item]) for item in first)
    count = max(
        round(seconds / workloads.BLOCK_S[workload]),
        math.ceil(MIN_JOBS / per_block),
    )
    return [first] + [next(sequence) for _ in range(count - 1)]


def scaled(report):
    """The round's job times at the reference machine's speed."""
    return [elapsed * PROBE_REF_S / probe_s for _, elapsed, *_, probe_s in report["jobs"]]


def digits_kept(jobs, reference):
    """Digits known over the run's series, as a share of the reference's."""
    got = sum(sum(job[5]) for job in jobs)
    known = sum(d * n for job in jobs for d, n in reference[job[0]]["digits"])
    return got / known


def gate(rounds, reference):
    """(executions, {(round, index): reasons}) over every round's jobs,
    counting the independent oracle's verdict on the first round."""
    failures = {}
    executions = 0
    for r, report in enumerate(rounds):
        for i, (job_id, _, code, out_sha, error, digits, _) in enumerate(report["jobs"]):
            executions += 1
            reasons = harness.check(reference[job_id], code, out_sha, error, digits)
            if reasons:
                failures[(r, i)] = [job_id] + reasons
    first = rounds[0]["jobs"]
    for job_id in rounds[0]["oracle_bad"]:
        i = next(i for i, job in enumerate(first) if job[0] == job_id)
        failures.setdefault((0, i), [job_id]).append("disagrees with the independent oracle")
    return executions, failures


def main(argv=None):
    # SIGTERM unwinds like an exception, so subprocess.run kills the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not harness.have_program():
        fail(f"no lindisc sources under {harness.SRC}")
    os.chdir(harness.ROOT)

    items = workloads.pool(args.workload)
    reference = harness.load_reference(args.workload)
    if reference is None:
        fail(f"no reference for {args.workload}; record it with bench/reference.py")
    for jobs in items.values():
        for job_id, argv_tail, payload in jobs:
            entry = reference.get(job_id)
            if entry is None or entry["job"] != workloads.job_sha(argv_tail, payload):
                fail(f"reference does not match generated job {job_id}; re-record it")
    harness.write_jobs(args.workload, items)

    blocks = plan(args.workload, args.seed, args.seconds, items)
    base = {"workload": args.workload, "seed": args.seed}
    n_rounds = 2 if args.trace else 1
    rounds = [worker(dict(base, blocks=blocks, trace=r > 0)) for r in range(n_rounds)]
    first = rounds[0]

    executions, failures = gate(rounds, reference)
    for (r, i), reasons in sorted(failures.items()):
        print(f"FAIL round {r} job {i} {reasons[0]}: {'; '.join(reasons[1:])}", file=sys.stderr)
    failed = len(failures)

    # times and digits come from the untraced round
    jobs = first["jobs"]
    raw = [job[1] for job in jobs]
    times = scaled(first)
    tail_s, tail_pct = tail(times)
    info = dict(
        base,
        blocks=len(blocks),
        jobs=len(jobs),
        rounds=n_rounds,
        round_loop_s=[round(report["loop_s"], 4) for report in rounds],
        tail_percentile=tail_pct,
        raw_jobs_per_s=len(raw) / sum(raw),
        raw_job_s_p50=statistics.median(raw),
        raw_job_s_tail=tail(raw)[0],
        probe_s=sorted({job[6] for report in rounds for job in report["jobs"]}),
        fail_ratio=failed / executions,
        oracle_checked=first["oracle_checked"],
        env=dict(environment(), numpy=first["numpy"]),
    )

    if args.trace:
        metrics = {name: tuple(v) for name, v in rounds[1]["layers"].items()}
        overhead = (sum(scaled(rounds[1])) - sum(times)) / len(times)
        metrics["trace.overhead_s"] = (overhead, "s/job")
    else:
        reports = list(rounds)
        while len(reports) < SETUP_SAMPLES:
            reports.append(worker(dict(base, setup_only=True)))
        setup = [r["setup_s"] * PROBE_REF_S / r["setup_probe_s"] for r in reports]
        info["raw_setup_s"] = [round(r["setup_s"], 4) for r in reports]
        metrics = {
            "jobs_per_s": (len(times) / sum(times), "jobs/s"),
            "job_s.p50": (statistics.median(times), "s"),
            "job_s.tail": (tail_s, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (max(report["peak_rss_kb"] for report in rounds) / 1024, "MB"),
            "digits_kept": (digits_kept(jobs, reference), "ratio"),
        }

    print(json.dumps({"info": info}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':36s} {failed / executions:14.6g} ratio ({failed}/{executions})")
    result = {
        "correct": failed == 0,
        "attempted": executions,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
