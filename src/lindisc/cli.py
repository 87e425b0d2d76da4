"""Batch command-line front-end.

Commands read a self-describing JSON job file and write data to stdout
(or --out); diagnostics go to stderr.  Exit codes: 0 success, 2 parse
error, 3 mathematical error (root of unity, precision exhausted,
hypothesis violation), 4 certified-bound violation or failed internal
self-check.

The --display-epsilon flag is presentation only: it adds absolute-value
renderings |x| = eps^v next to exact valuations and never enters any
computation.
"""

import argparse
import json
import sys
from fractions import Fraction

from .errors import CertificateError, LindiscError, ParseError, PrecisionError
from .field import FieldParams
from .laurent import LaurentSeries, PrecisionPolicy, parse_series
from .multiplier import disc_profile, mult_profile
from .powerseries import PowerSeriesMap, ps_gauge
from .schroder import (
    NONZERO,
    certify_divergence,
    check_coefficient_bound,
    check_structural_zeros,
    solve_sfe,
)
from .discs import classify_linearization_disc

EXIT_PARSE = 2
EXIT_MATH = 3
EXIT_BOUND = 4


def load_job(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read job file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"job file {path} is not valid JSON: {exc.msg}", exc.pos
        ) from exc
    if not isinstance(raw, dict):
        raise ParseError("job file must contain a JSON object")
    return raw


def _job_field(job):
    try:
        p = int(job["p"])
    except KeyError:
        raise ParseError("job is missing the residue characteristic 'p'") from None
    r = int(job.get("r", 1))
    modulus = job.get("modulus")
    return FieldParams(p, r, modulus)


def _job_policy(job):
    spec = job.get("precision", {})
    if not isinstance(spec, dict):
        raise ParseError("'precision' must be an object")
    return PrecisionPolicy(
        initial=int(spec.get("initial", 32)),
        maximum=int(spec.get("maximum", 1024)),
        auto_retry=bool(spec.get("auto_retry", True)),
    )


def _job_map(job, field, ram, prec):
    if "lambda" not in job:
        raise ParseError("job is missing the multiplier 'lambda'")
    lam = parse_series(str(job["lambda"]), field, ram, prec)
    table = job.get("f", {})
    if not isinstance(table, dict):
        raise ParseError("'f' must map degrees to series literals")
    coeffs = {1: lam}
    for key, literal in table.items():
        try:
            degree = int(key)
        except ValueError:
            raise ParseError(f"bad degree key {key!r} in 'f'") from None
        if degree == 1:
            raise ParseError(
                "degree 1 is the multiplier and must be given as 'lambda', "
                "not inside 'f'"
            )
        if degree < 2:
            raise ParseError(f"degree {degree} in 'f' must be >= 2")
        coeffs[degree] = parse_series(str(literal), field, ram, prec)
    return PowerSeriesMap(coeffs)


def _parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}") from exc


def _epsilon_note(eps, valuation_str):
    return f"{eps}^({valuation_str})"


def _with_retries(policy, run):
    """Run a pipeline at growing horizons per the precision policy."""
    last = None
    for horizon in policy.horizons():
        try:
            return run(horizon)
        except PrecisionError as exc:
            last = exc
            print(
                f"precision {horizon} exhausted ({exc}); retrying",
                file=sys.stderr,
            )
    raise last


def cmd_analyze(job, args, out):
    field = _job_field(job)
    ram = int(job.get("e", 1))
    policy = _job_policy(job)

    def run(horizon):
        f = _job_map(job, field, ram, horizon)
        profile = mult_profile(f.multiplier)
        report = dict(profile.report_dict())
        if not f.is_linear:
            gauge = ps_gauge(f)
            dp = disc_profile(profile, gauge)
            report.update(dp.report_dict())
        if args.display_epsilon:
            eps = _parse_rational(args.display_epsilon)
            report["display_epsilon"] = str(eps)
            for key in ("v_m", "v_rho", "v_sigma"):
                if key in report:
                    report[f"abs_{key[2:]}"] = _epsilon_note(eps, report[key])
        return report

    report = _with_retries(policy, run)
    json.dump(report, out, indent=2, sort_keys=True)
    out.write("\n")
    return 0


def cmd_solve(job, args, out):
    field = _job_field(job)
    ram = int(job.get("e", 1))
    policy = _job_policy(job)
    D = args.degree or int(job.get("degree", 64))

    def run(horizon):
        f = _job_map(job, field, ram, horizon)
        g = solve_sfe(f, D, window=horizon)
        zeros = check_structural_zeros(g, f)
        bounds = check_coefficient_bound(g, ps_gauge(f), f) if not f.is_linear \
            else None
        return g, zeros, bounds

    g, zeros, bounds = _with_retries(policy, run)
    out.write(g.csv())
    if zeros.applicable and zeros.violations:
        print(f"structural zero violations at {zeros.violations}", file=sys.stderr)
        raise CertificateError("structural zeros")
    if bounds is not None and bounds.applicable and bounds.violations:
        print(f"coefficient bound violations at {bounds.violations}", file=sys.stderr)
        raise CertificateError("coefficient bound")
    return 0


def cmd_certify_divergence(job, args, out):
    field = _job_field(job)
    ram = int(job.get("e", 1))
    policy = _job_policy(job)
    nmax = int(job.get("Nmax", 4))

    def run(horizon):
        f = _job_map(job, field, ram, horizon)
        return certify_divergence(f, nmax, window=horizon)

    cert = _with_retries(policy, run)
    header = {
        "verdict": cert.verdict,
        "m": cert.profile.m,
        "v_m": str(cert.profile.v_m),
    }
    json.dump(header, out, sort_keys=True)
    out.write("\n")
    out.write(cert.csv())
    return 0


def cmd_disc(job, args, out):
    field = _job_field(job)
    ram = int(job.get("e", 1))
    policy = _job_policy(job)
    kappa_max = job.get("kappa_max")
    D = args.degree or job.get("degree")

    def run(horizon):
        f = _job_map(job, field, ram, horizon)
        return classify_linearization_disc(
            f,
            D=int(D) if D else None,
            window=horizon,
            kappa_max=int(kappa_max) if kappa_max else None,
            horizon=max(horizon, 128),
        )

    report = _with_retries(policy, run).report_dict()
    if args.display_epsilon:
        eps = _parse_rational(args.display_epsilon)
        report["display_epsilon"] = str(eps)
        report["abs_radius"] = _epsilon_note(eps, report["disc"]["v_radius"])
    json.dump(report, out, indent=2, sort_keys=True)
    out.write("\n")
    return 0


def cmd_sweep(job, args, out):
    field = _job_field(job)
    ram = int(job.get("e", 1))
    policy = _job_policy(job)
    D = args.degree or int(job.get("degree", 64))
    tail = int(job.get("tail", 8))
    instances = job.get("instances", [])
    if not isinstance(instances, list):
        raise ParseError("'instances' must be a list of {lambda, f} objects")
    out.write("instance,k,slope_num,slope_den\n")
    for idx, inst in enumerate(instances):
        merged = dict(job)
        merged.update(inst)

        def run(horizon, merged=merged):
            f = _job_map(merged, field, ram, horizon)
            return solve_sfe(f, D, window=horizon)

        g = _with_retries(policy, run)
        reported = 0
        for k in range(D, 1, -1):
            if g.zero_kind[k] != NONZERO:
                continue
            slope = Fraction(g.coeffs[k].lead, ram * k)
            out.write(f"{idx},{k},{slope.numerator},{slope.denominator}\n")
            reported += 1
            if reported >= tail:
                break
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
    parser.add_argument("--degree", type=int, default=None, help="override solve degree D")
    parser.add_argument("--out", default=None, help="write data to this file instead of stdout")
    parser.add_argument(
        "--display-epsilon",
        default=None,
        help="rational base for presentation-only absolute values",
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        job = load_job(args.job)
        sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
        try:
            code = COMMANDS[args.command](job, args, sink)
        finally:
            if args.out:
                sink.close()
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


if __name__ == "__main__":
    sys.exit(main())
