"""The entry points the benchmark wraps exist under the names it uses.

``bench/harness.py`` and ``bench/tracer.py`` replace lindisc functions,
methods and attributes by name.  Building both here, and running one job
through them, makes a rename fail the test suite instead of the
benchmark.
"""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import lindisc.cli as cli
import lindisc.discs as discs
import lindisc.schroder as schroder
from lindisc._dense import DensePoly
from lindisc.field import FqElement

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry_points():
    return (
        schroder.solve_sfe,
        schroder.solve_specialized_p_plus_1,
        schroder.certify_divergence,
        cli._with_retries,
        discs.find_periodic_point,
        discs.weierstrass_data,
        discs.classify_linearization_disc,
        DensePoly.__dict__["mul_by_map"],
        DensePoly.__dict__["add_scaled"],
        FqElement.__dict__["__mul__"],
        FqElement.__dict__["__pow__"],
        FqElement.__dict__["inverse"],
    )


def traced_solve(tmp_path, f):
    """Run one ``solve`` job over F_2 at degree 6 through the tracer and
    the capture, check both wrapped the entry points and undo them."""
    harness = load("harness")
    tracer_module = load("tracer")
    job = tmp_path / "q.json"
    job.write_text(json.dumps({"p": 2, "lambda": "1+T", "f": f}))
    originals = entry_points()
    patcher = harness.Patcher()
    try:
        tracer = tracer_module.Tracer(patcher)
        capture = harness.Capture(patcher)
        assert all(a is not b for a, b in zip(entry_points(), originals))
        assert cli.main(["solve", "--job", str(job), "--degree", "6"]) == 0
        results, _ = capture.take()
        assert [g.D for _, _, g in results] == [6]
    finally:
        patcher.undo()
    assert entry_points() == originals
    return tracer


def test_tracer_and_capture_wrap_a_job_and_undo(tmp_path, capsys):
    """A p-divisible map with two nonlinear degrees, so the dense engine
    solves it: one product by f builds f^2, later powers are products by
    f^2."""
    tracer = traced_solve(tmp_path, {"2": "1", "4": "T"})
    assert tracer.stats["dense.mul_by_map"][0] == 1
    assert tracer.stats["dense.add_scaled"][0] > 0
    assert tracer.counts["dense.bytes_computed"] > 0
    capsys.readouterr()


def test_tracer_reads_a_map_of_degree_prime_to_p(tmp_path, capsys):
    """The support is K = {1, 3, 5}: f^2 is the one product by f, and
    f^3, f^5 are products by it, so the tracer reads ``f.coeffs`` on the
    one-step path too."""
    tracer = traced_solve(tmp_path, {"3": "1"})
    assert tracer.stats["dense.mul_by_map"][0] == 1
    assert tracer.counts["dense.bytes_computed"] > 0
    capsys.readouterr()


def test_tracer_and_capture_wrap_certify_divergence(tmp_path, capsys):
    """``certify-divergence`` reaches the specialised solver through the
    names the tracer and the capture wrap."""
    harness = load("harness")
    tracer_module = load("tracer")
    job = tmp_path / "d.json"
    job.write_text(json.dumps({"p": 2, "lambda": "1+T", "f": {"3": "1"}, "Nmax": 3}))
    originals = entry_points()
    patcher = harness.Patcher()
    try:
        tracer = tracer_module.Tracer(patcher)
        capture = harness.Capture(patcher)
        assert cli.main(["certify-divergence", "--job", str(job)]) == 0
        results, _ = capture.take()
    finally:
        patcher.undo()
    assert entry_points() == originals
    spans = [s for s in tracer.spans if s[3] == "schroder.solve_specialized"]
    assert len(spans) == 1
    assert tracer.stats["schroder.certify_divergence"][0] == 1
    assert [g.source for _, _, g in results] == ["specialized"]
    assert results[0][2].D == 2**2 * 2 + 1
    capsys.readouterr()


def test_capture_records_the_disc_periodic_point(tmp_path, capsys):
    """``Capture`` reads ``periodic_point`` off what ``_with_retries``
    returns, so the disc pipeline must return the report object."""
    harness = load("harness")
    job = tmp_path / "q.json"
    job.write_text(json.dumps({"p": 2, "lambda": "1+T", "f": {"2": "1"}}))
    patcher = harness.Patcher()
    try:
        capture = harness.Capture(patcher)
        assert cli.main(["disc", "--job", str(job)]) == 0
        _, points = capture.take()
        assert [pp.kappa for pp in points] == [1]
        assert points[0].point.prec >= 128
    finally:
        patcher.undo()
    capsys.readouterr()


def test_tracer_wraps_the_disc_periodic_point_search(tmp_path, capsys):
    """``disc`` on an EXACT-SIGMA map runs the boundary search once, under
    the name the tracer wraps, and the tracer counts the point it found."""
    harness = load("harness")
    tracer_module = load("tracer")
    job = tmp_path / "q.json"
    job.write_text(json.dumps({"p": 2, "lambda": "1+T", "f": {"2": "1"}}))
    originals = entry_points()
    patcher = harness.Patcher()
    try:
        tracer = tracer_module.Tracer(patcher)
        capture = harness.Capture(patcher)
        assert all(a is not b for a, b in zip(entry_points(), originals))
        assert cli.main(["disc", "--job", str(job)]) == 0
        _, points = capture.take()
    finally:
        patcher.undo()
    assert entry_points() == originals
    spans = [s for s in tracer.spans if s[3] == "discs.find_periodic_point"]
    assert len(spans) == 1
    assert tracer.counts["discs.periodic_found"] == 1
    assert [pp.kappa for pp in points] == [1]
    assert tracer.stats["discs.classify"][0] == 1
    assert tracer.stats["discs.weierstrass_data"][0] >= 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, job",
    [
        (["disc"], {"f": {"2": "1"}}),  # EXACT-SIGMA
        (["disc"], {"f": {"4": "T"}}),  # EXTENDED-RHO
        (["certify-divergence"], {"f": {"3": "1"}, "Nmax": 4}),
    ],
    ids=["disc-exact", "disc-extended", "certify-divergence"],
)
def test_verdict_jobs_build_no_coefficient_series(tmp_path, capsys, monkeypatch, argv, job):
    """A ``disc`` job and a ``certify-divergence`` job read every verdict off
    the conjugacy's ``ValuationTable``: no ``_Coefficients.build`` call
    while the job runs.  ``harness.digits_of`` then builds every
    coefficient and reads the digits the table holds, in order."""
    harness = load("harness")
    built = []
    real_init = schroder._Coefficients.__init__

    def counted(self, D, build):
        real_init(self, D, lambda k: built.append(k) or build(k))

    monkeypatch.setattr(schroder._Coefficients, "__init__", counted)
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"p": 2, "lambda": "1+T", **job}))
    patcher = harness.Patcher()
    try:
        capture = harness.Capture(patcher)
        assert cli.main(argv + ["--job", str(path)]) == 0
        results, points = capture.take()
    finally:
        patcher.undo()
    ((_, _, g),) = results
    assert built == []
    digits = harness.digits_of(results, points)
    assert sorted(built) == list(range(1, g.D + 1))
    table = g.valuations
    held = [table.prec[k] - table.lead[k] for k in range(1, g.D + 1) if table.kind[k] == "nonzero"]
    assert digits == held + [s.prec - s.lead for pp in points for s in (pp.point, pp.multiplier)]
    capsys.readouterr()


def test_bench_gate_selftest_passes():
    """``bench/selftest.py`` shows the exact-output gate catches a changed
    byte, a lost digit and a changed coefficient."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: PASS" in done.stdout


# the workloads whose solves multiply by the stride f^p: variant 1 of
# each of their strata runs too
SECOND_VARIANT = {"family-solve", "disc-tower"}


def test_variant_zero_of_every_stratum_matches_the_committed_reference(tmp_path, capsys):
    """Variant 0 of every stratum of the four workloads, and variant 1 of
    every stratum of ``family-solve`` and ``disc-tower``, run in process
    through ``harness.Capture`` and gated by ``harness.check`` against the
    committed ``bench/reference/*.json``: each job exits with the
    reference's code, writes output bytes of the reference's SHA-256 and
    loses no digit, so a changed output byte fails the test suite."""
    harness, workloads = load("harness"), load("workloads")
    originals = entry_points()
    patcher = harness.Patcher()
    failures, ran = [], 0
    try:
        capture = harness.Capture(patcher)
        for workload in sorted(workloads.WORKLOADS):
            reference = harness.load_reference(workload)
            for item, jobs in workloads.pool(workload).items():
                variant = int(item.rsplit(".", 1)[1])
                if variant > (workload in SECOND_VARIANT):
                    continue
                path = tmp_path / f"{workload}.{item}.json"
                path.write_text(json.dumps(jobs[0][2], sort_keys=True))
                for job_id, argv_tail, payload in jobs:
                    ref = reference[job_id]
                    assert ref["job"] == workloads.job_sha(argv_tail, payload), job_id
                    code, out, error = harness.run_job(
                        cli.main, argv_tail + ["--job", str(path)]
                    )
                    digits = harness.digits_of(*capture.take())
                    sha = hashlib.sha256(out).hexdigest()
                    reasons = harness.check(ref, code, sha, error, digits)
                    if reasons:
                        failures.append((job_id, reasons))
                    ran += 1
    finally:
        patcher.undo()
    assert entry_points() == originals
    assert ran == 40 + 27 and not failures, failures
    capsys.readouterr()
