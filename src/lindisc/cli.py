"""Batch command-line front-end.

Commands read a self-describing JSON job file and write data to stdout,
or to --out once the command has succeeded; diagnostics go to stderr.
Exit codes: 0 success, 2 parse error (including a malformed or
out-of-range job value, such as a solve degree above MAX_DEGREE, an
unknown or repeated job key, or an --out that cannot be written), 3
mathematical error (root of unity, precision exhausted, hypothesis
violation), 4 certified-bound violation or failed internal self-check.

Job keys: ``p``, ``r``, ``modulus`` and ``e`` fix the field F_{p^r}((T^(1/e)));
``lambda`` and ``f`` give the map; ``degree``, ``Nmax``, ``tail``,
``kappa_max`` and ``instances`` are per command; ``precision`` is below.
Any other top-level key is a parse error.  Integers are JSON
integers or decimal strings.  The one precision setting is the working
precision W: every command runs through ``_job_runner``, which parses
the map and runs the pipeline at W = ``precision.initial`` (default 32)
and retries at doubled W, up to MAX_WINDOW, while precision is exhausted.

The --display-epsilon flag is presentation only: it adds absolute-value
renderings |x| = eps^v next to exact valuations and never enters any
computation.
"""

import argparse
import io
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import CertificateError, LindiscError, ParseError, PrecisionError
from .field import FieldParams, _integer
from .laurent import format_valuation, parse_series
from .multiplier import disc_profile, mult_profile
from .powerseries import PowerSeriesMap, ps_gauge
from .schroder import (
    NONZERO,
    certify_divergence,
    check_coefficient_bound,
    check_structural_zeros,
    solve_sfe,
)
from .discs import classify_linearization_disc, default_degree

EXIT_PARSE = 2
EXIT_MATH = 3
EXIT_BOUND = 4

# largest working precision W the retry schedule reaches
MAX_WINDOW = 1024
# largest solve degree D: one DensePoly holds (D + 1)·W·r int64 entries,
# 32·r MB at D = MAX_DEGREE and W = MAX_WINDOW
MAX_DEGREE = 4096
# largest ramification index e: a literal T^n holds n·e + 1 rows
MAX_RAMIFICATION = 64

# every top-level key some command reads: one job file may serve several
# commands (``analyze`` then ``disc`` on a file that sets ``kappa_max``)
JOB_KEYS = frozenset(
    "p r modulus e lambda f degree Nmax tail kappa_max instances precision".split()
)


def load_job(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ParseError(f"cannot read job file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"job file {path} is not valid JSON: {exc.msg}", exc.pos
        ) from exc
    except ValueError as exc:  # not UTF-8, or an integer int() will not convert
        raise ParseError(f"job file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("job file must contain a JSON object")
    unknown = sorted(set(raw) - JOB_KEYS)
    if unknown:
        raise ParseError(f"unknown job keys {unknown}; a job takes {sorted(JOB_KEYS)}")
    return raw


def _unique_keys(pairs):
    """A JSON object as a dict; a repeated key is a parse error, not last-wins."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ParseError(f"repeated JSON keys {sorted({k for k in keys if keys.count(k) > 1})}")
    return dict(pairs)


def _int_of(value, name, low=1, high=None):
    """A JSON integer or decimal string in [low, high]; None stays None."""
    if value is None:
        return None
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        value = _integer(value)
    if type(value) is not int:
        raise ParseError(f"'{name}' must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bounds = f"between {low} and {high}" if high is not None else f">= {low}"
        raise ParseError(f"'{name}' must be {bounds}, got {value}")
    return value


def _job_field(job):
    if "p" not in job:
        raise ParseError("job is missing the residue characteristic 'p'")
    p = _int_of(job["p"], "p", low=2)
    r = _int_of(job.get("r", 1), "r")
    modulus = job.get("modulus")
    if modulus is not None:
        if not isinstance(modulus, list):
            raise ParseError("'modulus' must be a list of coefficients")
        modulus = [_int_of(c, "modulus", low=0) for c in modulus]
    return FieldParams(p, r, modulus)


def _job_runner(job):
    """The one job path.  Reads the job's field, ``e`` and initial working
    precision; the returned ``run(pipeline, spec=job)`` parses spec's map
    at each W of the retry schedule and returns ``pipeline(f, W)`` of the
    first W that does not exhaust precision."""
    field = _job_field(job)
    ram = _int_of(job.get("e", 1), "e", high=MAX_RAMIFICATION)
    precision = job.get("precision", {})
    if not isinstance(precision, dict):
        raise ParseError("'precision' must be an object")
    unknown = sorted(set(precision) - {"initial"})
    if unknown:
        raise ParseError(f"'precision' takes only 'initial', got {unknown}")
    initial = _int_of(precision.get("initial", 32), "precision.initial", high=MAX_WINDOW)

    def run(pipeline, spec=job):
        return _with_retries(initial, lambda W: pipeline(_job_map(spec, field, ram, W), W))

    return run


def _degree(job, args, default):
    """The solve degree: --degree, else the job's 'degree', else default."""
    if args.degree is not None:
        return _int_of(args.degree, "--degree", high=MAX_DEGREE)
    return _int_of(job.get("degree", default), "degree", high=MAX_DEGREE)


def _nmax(job):
    """The ladder length Nmax, whose solve degree p^Nmax + 1 is at most
    MAX_DEGREE; p >= 2, so Nmax >= 13 is too long whatever p is."""
    nmax = _int_of(job.get("Nmax", 4), "Nmax")
    p = _int_of(job["p"], "p", low=2)
    if nmax >= MAX_DEGREE.bit_length() or p**nmax + 1 > MAX_DEGREE:
        raise ParseError(
            f"'Nmax' = {nmax} needs degree {p}^{nmax} + 1 > {MAX_DEGREE}"
        )
    return nmax


def _job_map(job, field, ram, prec):
    if "lambda" not in job:
        raise ParseError("job is missing the multiplier 'lambda'")
    lam = parse_series(str(job["lambda"]), field, ram, prec)
    table = job.get("f", {})
    if not isinstance(table, dict):
        raise ParseError("'f' must map degrees to series literals")
    coeffs = {1: lam}
    for key, literal in table.items():
        degree = _int_of(key, "f degree", low=2)  # degree 1 is 'lambda'
        if degree in coeffs:
            raise ParseError(f"degree {degree} is given twice in 'f' (key {key!r})")
        coeffs[degree] = parse_series(str(literal), field, ram, prec)
    return PowerSeriesMap(coeffs)


def _with_retries(initial, run):
    """run(W) at W = initial, then at doubled W up to MAX_WINDOW, until
    one does not exhaust precision."""
    W = initial
    while True:
        try:
            return run(W)
        except PrecisionError as exc:
            if W >= MAX_WINDOW:
                print(f"precision {W} exhausted ({exc})", file=sys.stderr)
                raise
            print(f"precision {W} exhausted ({exc}); retrying", file=sys.stderr)
        W = min(2 * W, MAX_WINDOW)


def cmd_analyze(job, args, out):
    def analyze(f, W):
        profile = mult_profile(f.multiplier)
        report = dict(profile.report_dict())
        if not f.is_linear:
            report.update(disc_profile(profile, ps_gauge(f)).report_dict())
        return report

    report = _job_runner(job)(analyze)
    valuations = {key[2:]: report[key] for key in ("v_m", "v_rho", "v_sigma") if key in report}
    return _write_report(report, valuations, args, out)


def cmd_solve(job, args, out):
    run = _job_runner(job)
    D = _degree(job, args, 64)

    def solve(f, W):
        g = solve_sfe(f, D, window=W)
        zeros = check_structural_zeros(g, f)
        bounds = check_coefficient_bound(g, ps_gauge(f), f)
        return g, zeros, bounds

    g, zeros, bounds = run(solve)
    out.write(g.csv())
    if zeros.applicable and zeros.violations:
        print(f"structural zero violations at {zeros.violations}", file=sys.stderr)
        raise CertificateError("structural zeros")
    if bounds.applicable and bounds.violations:
        print(f"coefficient bound violations at {bounds.violations}", file=sys.stderr)
        raise CertificateError("coefficient bound")
    return 0


def cmd_certify_divergence(job, args, out):
    run = _job_runner(job)
    nmax = _nmax(job)
    cert = run(lambda f, W: certify_divergence(f, nmax, window=W))
    header = {
        "verdict": cert.verdict,
        "m": cert.profile.m,
        "v_m": format_valuation(cert.profile.v_m),
    }
    json.dump(header, out, sort_keys=True)
    out.write("\n")
    out.write(cert.csv())
    return 0


def cmd_disc(job, args, out):
    run = _job_runner(job)
    D = _degree(job, args, None)
    kappa_max = _int_of(job.get("kappa_max"), "kappa_max")

    def disc(f, W):
        degree = D or default_degree(f, mult_profile(f.multiplier))
        if degree > MAX_DEGREE:
            raise ParseError(f"'disc' derives degree {degree} > MAX_DEGREE = {MAX_DEGREE}")
        return classify_linearization_disc(f, D=degree, window=W, kappa_max=kappa_max)

    report = run(disc).report_dict()
    return _write_report(report, {"radius": report["disc"]["v_radius"]}, args, out)


def _write_report(report, valuations, args, out):
    """Write a JSON report.  With --display-epsilon eps it first gains
    ``display_epsilon`` and, for each name -> valuation string v of
    ``valuations``, ``abs_<name>`` = eps^(v): presentation only."""
    if args.display_epsilon:
        try:
            eps = Fraction(args.display_epsilon)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {args.display_epsilon!r}") from exc
        report["display_epsilon"] = str(eps)
        for name, v in valuations.items():
            report[f"abs_{name}"] = f"{eps}^({v})"
    out.write(json.dumps(report, indent=2, sort_keys=True))
    out.write("\n")
    return 0


def cmd_sweep(job, args, out):
    run = _job_runner(job)
    D = _degree(job, args, 64)
    tail = _int_of(job.get("tail", 8), "tail")
    instances = job.get("instances", [])
    if not isinstance(instances, list) or not all(isinstance(i, dict) for i in instances):
        raise ParseError("'instances' must be a list of {lambda, f} objects")
    for inst in instances:
        unknown = sorted(set(inst) - {"lambda", "f"})
        if unknown:
            raise ParseError(f"an instance takes only 'lambda' and 'f', got {unknown}")
    out.write("instance,k,slope_num,slope_den\n")
    for idx, inst in enumerate(instances):
        g = run(lambda f, W: solve_sfe(f, D, window=W), {**job, **inst})
        held = [k for k in range(D, 1, -1) if g.zero_kind[k] == NONZERO]
        for k in held[:tail]:
            slope = g.valuation(k) / k
            out.write(f"{idx},{k},{slope.numerator},{slope.denominator}\n")
    return 0


COMMANDS = {
    "analyze": cmd_analyze,
    "solve": cmd_solve,
    "certify-divergence": cmd_certify_divergence,
    "disc": cmd_disc,
    "sweep": cmd_sweep,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lindisc",
        description="Exact linearization discs and Schröder conjugacies "
        "over Laurent series fields of characteristic p.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--job", required=True, help="path to a JSON job file")
    parser.add_argument("--degree", default=None, help="override solve degree D")
    parser.add_argument("--out", default=None, help="write data to this file instead of stdout")
    parser.add_argument(
        "--display-epsilon",
        default=None,
        help="rational base for presentation-only absolute values",
    )
    return parser


def _write_out(path, text):
    """Write a successful command's output to --out."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write --out {path}: {exc}") from exc


@lru_cache(maxsize=None)
def _parser():
    """One parser per process; ``parse_args`` keeps no state."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        job = load_job(args.job)
        sink = io.StringIO() if args.out else sys.stdout
        code = COMMANDS[args.command](job, args, sink)
        if args.out:
            _write_out(args.out, sink.getvalue())
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CertificateError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except LindiscError as exc:
        print(f"math error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except MemoryError:
        # MAX_DEGREE and the other size limits bound a job's arrays, not
        # the memory the host has left: a job within them can exceed it
        print("job too large for available memory", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
