"""Self-test of the benchmark's exact-output gate.

    python3 bench/selftest.py

Runs one tiny job per workload through the benchmark's loop.  Against
its own fresh reference every job must pass; against a reference whose
output differs in one byte, or that knows one digit more at one series
(the run lost a digit), fail_ratio must rise above 0.  A reference
knowing one digit fewer must still pass: more digits is not a
regression.  The independent oracle must agree with each job and must
reject a conjugacy with one coefficient changed.  Exits 1 when any check
does not hold.
"""

import dataclasses
import hashlib
import sys

import harness
from worker import Loop  # sets the one-thread environment before numpy loads

TINY = {
    "family-solve": (
        ["solve"],
        {"p": 2, "lambda": "1+T", "f": {"2": "1", "6": "T"}, "degree": 24},
    ),
    "generic-sweep": (
        ["sweep"],
        {"p": 3, "degree": 16, "instances": [{"lambda": "1+T", "f": {"2": "1", "3": "T"}}]},
    ),
    "divergence-ladder": (
        ["certify-divergence"],
        {"p": 2, "lambda": "1+T", "f": {"3": "1"}, "Nmax": 4},
    ),
    "disc-tower": (["disc"], {"p": 2, "lambda": "1+T", "f": {"2": "1"}}),
}


def sha(data):
    return hashlib.sha256(data).hexdigest()


def fail_ratio(loop, reference):
    records, _ = loop.run([["tiny"]])
    failed = sum(
        1
        for job_id, _, code, stdout, error, digits, _ in records
        if harness.check(reference[job_id], code, sha(stdout), error, digits)
    )
    return failed / len(records)


def altered(results):
    """The same solver results with the first nonzero b_k (k >= 2) shifted."""
    f, window, g = results[0]
    k = next(k for k in range(2, g.D + 1) if not g.coeffs[k].is_zero_as_known)
    coeffs = dict(g.coeffs)
    coeffs[k] = coeffs[k] + coeffs[k].shift(-1)
    return [(f, window, dataclasses.replace(g, coeffs=coeffs))] + results[1:]


def main():
    if not harness.have_program():
        raise SystemExit(f"no lindisc sources under {harness.SRC}")
    harness.import_lindisc()
    import lindisc.cli

    capture = harness.Capture(harness.Patcher())
    cli_main = lambda a: lindisc.cli.main(a)  # noqa: E731
    broken = []

    def expect(label, ok):
        print(f"{'PASS' if ok else 'FAIL'} {label}")
        if not ok:
            broken.append(label)

    for workload, (argv_tail, payload) in TINY.items():
        job_id = f"tiny.{argv_tail[0]}"
        items = {"tiny": [(job_id, argv_tail, payload)]}
        paths = harness.write_jobs(f"selftest-{workload}", items)
        loop = Loop(items, paths, capture, cli_main)
        records, kept = loop.run([["tiny"]], keep={job_id})
        _, _, code, stdout, error, digits, _ = records[0]
        good = {"code": code, "out": sha(stdout), "digits": harness.pack_digits(digits)}
        expect(f"{workload}: tiny job succeeds with digits",
               code == 0 and error is None and bool(digits))

        corrupted = bytearray(stdout)
        corrupted[len(corrupted) // 2] ^= 0x01
        lost = list(digits)
        lost[-1] += 1
        gained = list(digits)
        gained[-1] -= 1
        cases = [
            ("own reference passes", good, lambda r: r == 0),
            ("one corrupted output byte fails",
             dict(good, out=sha(bytes(corrupted))), lambda r: r > 0),
            ("one digit lost fails",
             dict(good, digits=harness.pack_digits(lost)), lambda r: r > 0),
            ("one digit gained passes",
             dict(good, digits=harness.pack_digits(gained)), lambda r: r == 0),
        ]
        for label, ref, holds in cases:
            ratio = fail_ratio(loop, {job_id: ref})
            expect(f"{workload}: {label} (fail_ratio {ratio:g})", holds(ratio))

        bad = harness.oracle_mismatches(capture.originals, kept)
        expect(f"{workload}: independent oracle agrees", bool(kept) and not bad)
        bad = harness.oracle_mismatches(capture.originals, {job_id: altered(kept[job_id])})
        expect(f"{workload}: independent oracle rejects a changed coefficient", bad == [job_id])
    print("selftest:", "FAIL" if broken else "PASS")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
