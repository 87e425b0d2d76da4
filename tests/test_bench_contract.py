"""The entry points the benchmark wraps exist under the names it uses.

``bench/harness.py`` and ``bench/tracer.py`` replace lindisc functions,
methods and attributes by name.  Building both here, and running one job
through them, makes a rename fail the test suite instead of the
benchmark.
"""

import importlib.util
import json
from pathlib import Path

import lindisc.cli as cli
import lindisc.schroder as schroder
from lindisc._dense import DensePoly

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry_points():
    return (
        schroder.solve_sfe,
        cli._with_retries,
        DensePoly.__dict__["mul_by_map"],
        DensePoly.__dict__["add_scaled"],
    )


def test_tracer_and_capture_wrap_a_job_and_undo(tmp_path, capsys):
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
        assert cli.main(["solve", "--job", str(job), "--degree", "6"]) == 0
        results, _ = capture.take()
        assert [g.D for _, _, g in results] == [6]
        assert tracer.stats["dense.mul_by_map"][0] > 0
        assert tracer.stats["dense.add_scaled"][0] > 0
        assert tracer.counts["dense.bytes_computed"] > 0
    finally:
        patcher.undo()
    assert entry_points() == originals
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
