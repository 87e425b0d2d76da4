"""Running CLI jobs in process and checking them against the reference.

``Capture`` wraps the solver entry points and ``cli._with_retries`` at
every module that looks them up, so the benchmark sees the series each
job's pipeline returned without changing what the program prints.

The gate fails a job when it raises, exits non-zero, writes output
bytes whose SHA-256 differs from the reference, or ends with any
coefficient whose ``prec - lead`` (digits known, in U-units) is below
the reference's.  ``oracle_mismatches`` re-solves a sample of the run's
maps with an independent solver and requires ``agrees_with``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# highest degree the multinomial oracle re-solves (it is exponential in
# the support size of the map)
ORACLE_D = 16


def have_program():
    return (SRC / "lindisc" / "cli.py").is_file()


def import_lindisc():
    """Import lindisc from this checkout's sources, ahead of any installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lindisc.cli  # noqa: F401


def lindisc_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "lindisc" or name.startswith("lindisc."))
    ]


class Patcher:
    """Replaces a function or method at every place lindisc looks it up."""

    def __init__(self):
        self._undo = []

    def function(self, orig, wrapper):
        for mod in lindisc_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def method(self, cls, name, make_wrapper):
        """Wrap cls.name and every alias of it (``__rmul__ = __mul__``)."""
        orig = cls.__dict__[name]
        wrapper = make_wrapper(orig)
        for attr, value in list(vars(cls).items()):
            if value is orig:
                self._undo.append((cls, attr, value))
                setattr(cls, attr, wrapper)

    def undo(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


class Capture:
    """Collects the conjugacies and periodic points each job returned.

    Only results of the successful attempt of each retry loop count; the
    number of attempts per retry loop is kept for ``cli.attempts_per_job``.
    """

    def __init__(self, patcher):
        import lindisc.cli as cli
        import lindisc.schroder as schroder

        self.attempt = []
        self.results = []  # (f, window, Conjugacy)
        self.points = []  # PeriodicPoint
        self.attempts = 0
        self.pipelines = 0
        self.originals = {
            "solve_sfe": schroder.solve_sfe,
            "solve_specialized_p_plus_1": schroder.solve_specialized_p_plus_1,
            "solve_sfe_multinomial": schroder.solve_sfe_multinomial,
        }
        for name in ("solve_sfe", "solve_specialized_p_plus_1"):
            orig = getattr(schroder, name)
            patcher.function(orig, self._solver(orig))
        orig_retries = cli._with_retries
        patcher.function(orig_retries, self._retries(orig_retries))

    def _solver(self, fn):
        def solver(f, D, window=32):
            g = fn(f, D, window)
            self.attempt.append((f, window, g))
            return g

        solver.__wrapped__ = fn
        return solver

    def _retries(self, fn):
        def with_retries(policy, run):
            def attempt(horizon):
                self.attempt = []
                self.attempts += 1
                return run(horizon)

            out = fn(policy, attempt)
            self.pipelines += 1
            self.results.extend(self.attempt)
            self.attempt = []
            point = getattr(out, "periodic_point", None)
            if point is not None:
                self.points.append(point)
            return out

        return with_retries

    def take(self):
        """Results of the job just finished, and a fresh slate."""
        results, points = self.results, self.points
        self.results, self.points, self.attempt = [], [], []
        return results, points


def digits_of(results, points):
    """prec - lead of every nonzero series the pipeline returned, in order:
    the coefficients b_1..b_D of each conjugacy, then each periodic
    point and its multiplier."""
    out = []
    for _, _, g in results:
        for k in range(1, g.D + 1):
            s = g.coeffs[k]
            if not s.is_zero_as_known:
                out.append(s.prec - s.lead)
    for pp in points:
        for s in (pp.point, pp.multiplier):
            if not s.is_zero_as_known:
                out.append(s.prec - s.lead)
    return out


def pack_digits(digits):
    """Run-length form [[digits, repeat], ...] for the reference file."""
    packed = []
    for d in digits:
        if packed and packed[-1][0] == d:
            packed[-1][1] += 1
        else:
            packed.append([d, 1])
    return packed


def unpack_digits(packed):
    return [d for d, n in packed for _ in range(n)]


def run_job(main, argv):
    """Run one cli.main invocation in process; (exit code, stdout bytes,
    error text or None)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed job, not a crashed bench
        return None, out.getvalue().encode(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue().encode(), None


def check(ref, code, out_sha, error, digits):
    """Reasons this job fails the gate (empty when it passes)."""
    reasons = []
    if error is not None:
        reasons.append(f"raised {error}")
    if code != ref["code"]:
        reasons.append(f"exit code {code}, reference {ref['code']}")
    if out_sha != ref["out"]:
        reasons.append("output bytes differ from the reference")
    known = unpack_digits(ref["digits"])
    if len(digits) != len(known):
        reasons.append(f"{len(digits)} nonzero series, reference {len(known)}")
    else:
        lost = [i for i, (d, r) in enumerate(zip(digits, known)) if d < r]
        if lost:
            reasons.append(f"digits lost at series {lost[:5]}")
    return reasons


# -- job files and references ----------------------------------------------------


def write_jobs(workload, items):
    """Write every pool job's payload; {item_id: path relative to ROOT}."""
    directory = WORK / "jobs" / workload
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for item, jobs in items.items():
        payload = jobs[0][2]
        path = directory / f"{item}.json"
        text = json.dumps(payload, sort_keys=True)
        if not path.is_file() or path.read_text() != text:
            path.write_text(text)
        paths[item] = str(path.relative_to(ROOT))
    return paths


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload):
    path = reference_path(workload)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["jobs"]


def dump_reference(path, workload, jobs):
    """One job per line, so a diff of the reference reads job by job."""
    lines = [
        "{",
        f'  "workload": {json.dumps(workload)},',
        '  "jobs": {',
    ]
    body = [
        f"    {json.dumps(job_id)}: {json.dumps(jobs[job_id], separators=(',', ':'))}"
        for job_id in sorted(jobs)
    ]
    lines.append(",\n".join(body))
    lines += ["  }", "}"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


# -- independent oracle ----------------------------------------------------------


def _is_p_plus_1(f):
    return f.nonlinear_degrees == [f.field.p + 1]


def _oracle(originals, f, window, g):
    """(oracle conjugacy, degrees to compare) from a solver other than
    the one that produced g."""
    p = f.field.p
    if g.source == "specialized":
        D = min(g.D, 4 * p + 1)
        return originals["solve_sfe"](f, D, window), D
    if _is_p_plus_1(f):
        jmax = max(1, min(g.D, 8 * p) // p)
        return originals["solve_specialized_p_plus_1"](f, jmax, window), min(
            g.D, jmax * p + 1
        )
    D = min(g.D, ORACLE_D)
    return originals["solve_sfe_multinomial"](f, D, window), D


def oracle_mismatches(originals, solved):
    """Re-solve every map of ``solved`` ({job_id: [(f, window, g)]}) with
    an independent solver; the job ids whose coefficients disagree."""
    bad = []
    for job_id, results in sorted(solved.items()):
        for f, window, g in results:
            oracle, D = _oracle(originals, f, window, g)
            if not all(
                g.coeffs[k].agrees_with(oracle.coeffs[k]) for k in range(1, D + 1)
            ):
                bad.append(job_id)
                break
    return bad
