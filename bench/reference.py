"""Record the exact-output reference of a job pool.

    python3 bench/reference.py [--workload NAME ...]

Runs every job of the pool once, in process, and writes
``bench/reference/<workload>.json``: per job the SHA-256 of its
input, its exit code, the SHA-256 of its output bytes and the digits
(``prec - lead``) of every nonzero series its pipeline returned.

The reference of the pool ``workloads.POOL_SEED`` draws is committed.
After changing the pool (its seed or its strata), record the reference
again on the parent commit.
"""

import argparse
import hashlib
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import harness  # noqa: E402
import workloads  # noqa: E402


def record(workload, main, capture):
    items = workloads.pool(workload)
    paths = harness.write_jobs(workload, items)
    jobs = {}
    for item, item_jobs in items.items():
        for job_id, argv_tail, payload in item_jobs:
            code, stdout, error = harness.run_job(main, argv_tail + ["--job", paths[item]])
            if error is not None or code != 0:
                raise SystemExit(f"{job_id} did not succeed (exit {code}, {error})")
            results, points = capture.take()
            jobs[job_id] = {
                "job": workloads.job_sha(argv_tail, payload),
                "code": code,
                "out": hashlib.sha256(stdout).hexdigest(),
                "digits": harness.pack_digits(harness.digits_of(results, points)),
            }
    return jobs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    if not harness.have_program():
        raise SystemExit(f"no lindisc sources under {harness.SRC}")
    os.chdir(harness.ROOT)
    harness.import_lindisc()
    import lindisc.cli

    capture = harness.Capture(harness.Patcher())
    for workload in args.workload or sorted(workloads.WORKLOADS):
        jobs = record(workload, lambda a: lindisc.cli.main(a), capture)
        path = harness.reference_path(workload)
        harness.dump_reference(path, workload, jobs)
        print(f"{workload}: {len(jobs)} jobs -> {path.relative_to(harness.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
