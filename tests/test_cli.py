"""Command-line front-end: commands, exit codes, determinism."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import lindisc.cli
import lindisc.discs
import lindisc.powerseries
from lindisc import FieldParams, PeriodicPoint, PowerSeriesMap, parse_series, verify_indifferent
from lindisc.cli import main
from lindisc.errors import PrecisionError
from lindisc.discs import ExtensionVerdict
from lindisc.schroder import ZeroReport, solve_sfe


def write_job(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


QUADRATIC = {"p": 2, "lambda": "1+T", "f": {"2": "1"}}
# λ = b + 1 + T over F_{65521^2}: the residue order m is 20,639,430
LARGE_ORDER = {"p": 65521, "r": 2, "modulus": [17, 0, 1], "lambda": "b+1+T", "f": {"65521": "1"}}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_quadratic(tmp_path, capsys):
    job = write_job(tmp_path, "q.json", QUADRATIC)
    code, out, _ = run(capsys, ["analyze", "--job", job])
    assert code == 0
    report = json.loads(out)
    assert report["m"] == 1
    assert report["k_prime"] == 2
    assert report["v_sigma"] == "1/1"
    assert report["v_rho"] == "1/2"


def test_analyze_f4_quartic(tmp_path, capsys):
    job = write_job(
        tmp_path, "q4.json", {"p": 2, "r": 2, "lambda": "b+T", "f": {"4": "1"}}
    )
    code, out, _ = run(capsys, ["analyze", "--job", job])
    assert code == 0
    report = json.loads(out)
    assert report["m"] == 3 and report["k_prime"] == 4
    assert report["v_rho"] == "1/6"


def test_analyze_large_residue_order_within_budget(tmp_path, capsys):
    """v_m and k' are closed forms in m: analyze forms no power λ^m, so it
    answers within the budget instead of running until killed."""

    def over_budget(signum, frame):
        raise TimeoutError("analyze took longer than 20 s")

    job = write_job(tmp_path, "big.json", LARGE_ORDER)
    previous = signal.signal(signal.SIGALRM, over_budget)
    signal.alarm(20)
    try:
        code, out, err = run(capsys, ["analyze", "--job", job])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0, err
    report = json.loads(out)
    assert (report["m"], report["v_m"], report["k_prime"]) == (20639430, "1/1", 4293001441)


def test_analyze_root_of_unity_exits_3(tmp_path, capsys):
    job = write_job(tmp_path, "rou.json", {"p": 2, "lambda": "1", "f": {"2": "1"}})
    code, _, err = run(capsys, ["analyze", "--job", job])
    assert code == 3
    assert "root of unity" in err


def test_huge_prime_exits_3_at_once(tmp_path, capsys):
    """p = 2^61 - 1 is prime, but the p < 2^16 bound rejects it before a
    trial division to √p is started."""
    job = write_job(tmp_path, "big.json", {**QUADRATIC, "p": 2305843009213693951})
    code, out, err = run(capsys, ["analyze", "--job", job])
    assert code == 3 and out == ""
    assert "too large" in err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, ["analyze", "--job", str(bad)])
    assert code == 2
    job = write_job(tmp_path, "no_lambda.json", {"p": 2, "f": {"2": "1"}})
    code, _, err = run(capsys, ["analyze", "--job", job])
    assert code == 2
    assert "lambda" in err


def test_degree_one_in_f_table_rejected(tmp_path, capsys):
    job = write_job(
        tmp_path, "deg1.json", {"p": 2, "lambda": "1+T", "f": {"1": "1", "2": "1"}}
    )
    code, _, err = run(capsys, ["analyze", "--job", job])
    assert code == 2


def test_solve_csv(tmp_path, capsys):
    job = write_job(tmp_path, "q.json", QUADRATIC)
    code, out, _ = run(capsys, ["solve", "--job", job, "--degree", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,v_num,v_den,zero_kind"
    assert lines[1] == "1,0,1,nonzero"
    assert lines[2] == "2,-1,1,nonzero"
    assert len(lines) == 5


def test_certify_divergence(tmp_path, capsys):
    job = write_job(
        tmp_path, "d.json", {"p": 2, "lambda": "1+T", "f": {"3": "1"}, "Nmax": 3}
    )
    code, out, _ = run(capsys, ["certify-divergence", "--job", job])
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert json.loads(header)["verdict"] == "diverges"
    assert rows[1] == "1,3,-2,1,-2,1"
    assert rows[3] == "3,9,-16,1,-16,1"


def test_disc_report(tmp_path, capsys):
    job = write_job(tmp_path, "q.json", QUADRATIC)
    code, out, _ = run(capsys, ["disc", "--job", job])
    assert code == 0
    report = json.loads(out)
    assert report["certificate"] == "EXACT-SIGMA"
    assert report["degree_closed_sigma"] == 2
    assert report["periodic_point"]["kappa"] == 1


@pytest.mark.parametrize(
    "job, tower",
    [
        ({"p": 3, "e": 2, "lambda": "2+U", "f": {"3": "1"}}, (2, 4, 2)),
        ({"p": 3, "e": 3, "lambda": "2+U^2", "f": {"3": "U"}}, (2, 6, 2)),
        ({"p": 2, "r": 2, "e": 2, "lambda": "b+U", "f": {"4": "1"}}, (2, 6, 3)),
    ],
)
def test_disc_on_a_ramified_map(tmp_path, capsys, job, tower):
    """The search runs in the tower of index lcm(e, denominator of v_σ),
    which holds both the map and the sphere; the printed point, read
    back, is κ-periodic with a unit multiplier."""
    code, out, err = run(capsys, ["disc", "--job", write_job(tmp_path, "r.json", job)])
    assert code == 0, err
    report = json.loads(out)
    assert report["certificate"] == "EXACT-SIGMA"
    pp = report["periodic_point"]
    assert (pp["tower_r"], pp["tower_e"], pp["kappa"]) == tower
    base = FieldParams(job["p"], job.get("r", 1))
    f = PowerSeriesMap({
        1: parse_series(job["lambda"], base, job["e"]),
        **{int(d): parse_series(a, base, job["e"]) for d, a in job["f"].items()},
    })
    tower_field = FieldParams(job["p"], pp["tower_r"])
    point = parse_series(pp["point"], tower_field, pp["tower_e"])
    fe = lindisc.discs._embed_map(f, tower_field, pp["tower_e"])
    residual, mult = verify_indifferent(fe, point, pp["kappa"])
    assert residual.is_zero_as_known
    assert mult.lead == 0 and not mult.is_zero_as_known


def test_failed_self_check_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        lindisc.discs, "check_structural_zeros", lambda g, f: ZeroReport(True, [3])
    )
    job = write_job(tmp_path, "q.json", QUADRATIC)
    code, out, err = run(capsys, ["disc", "--job", job])
    assert code == 4
    assert out == ""
    assert "structural zero violations at [3]" in err


def test_non_indifferent_boundary_point_exits_4(tmp_path, capsys, monkeypatch):
    """``disc`` checks that the multiplier the search returns is a unit."""
    F2 = FieldParams(2)

    def search(f, kappa_max, sphere, e=1, horizon=128):
        return PeriodicPoint(parse_series("T", F2), 1, parse_series("T", F2), (1, 1))

    monkeypatch.setattr(lindisc.discs, "find_periodic_point", search)
    code, out, err = run(capsys, ["disc", "--job", write_job(tmp_path, "q.json", QUADRATIC)])
    assert code == 4
    assert out == "" and "not indifferent" in err


def test_extension_that_fails_its_check_exits_4(tmp_path, capsys, monkeypatch):
    """λx + x^4 over F_2 with λ = 1 + T has b_{k'} = 0; ``disc`` reports
    EXTENDED-RHO only when ``check_bkprime_zero_extension`` holds."""
    job = write_job(tmp_path, "ext.json", {"p": 2, "lambda": "1+T", "f": {"4": "1"}})
    code, out, _ = run(capsys, ["disc", "--job", job])
    assert code == 0 and json.loads(out)["certificate"] == "EXTENDED-RHO"
    monkeypatch.setattr(
        lindisc.discs,
        "check_bkprime_zero_extension",
        lambda g, dp: ExtensionVerdict(True, False, g.D, 0),
    )
    code, out, err = run(capsys, ["disc", "--job", job])
    assert code == 4
    assert out == "" and "no extension to rho" in err


def test_disc_walks_the_periodic_orbit_once(tmp_path, capsys, monkeypatch):
    """λx + x^4 over F_4 with λ = b + T has a boundary point of period 3;
    certifying it and taking its multiplier evaluate f three times."""
    calls = []
    ps_eval = lindisc.powerseries.ps_eval

    def counted(f, x):
        calls.append(x)
        return ps_eval(f, x)

    for module in (lindisc.discs, lindisc.powerseries):
        monkeypatch.setattr(module, "ps_eval", counted)
    payload = {"p": 2, "r": 2, "lambda": "b+T", "f": {"4": "1"}}
    code, out, err = run(capsys, ["disc", "--job", write_job(tmp_path, "f4.json", payload)])
    assert code == 0, err
    assert json.loads(out)["periodic_point"]["kappa"] == 3
    assert len(calls) == 3


def test_sweep(tmp_path, capsys):
    job = write_job(
        tmp_path,
        "s.json",
        {
            "p": 2,
            "lambda": "1+T",
            "degree": 12,
            "tail": 2,
            "instances": [{"f": {"2": "1"}}, {"f": {"3": "1"}}],
        },
    )
    code, out, _ = run(capsys, ["sweep", "--job", job])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,k,slope_num,slope_den"
    assert any(line.startswith("0,") for line in lines[1:])
    assert any(line.startswith("1,") for line in lines[1:])


def test_sweep_empty_grid(tmp_path, capsys):
    job = write_job(tmp_path, "e.json", {"p": 2, "lambda": "1+T", "instances": []})
    code, out, _ = run(capsys, ["sweep", "--job", job])
    assert code == 0
    assert out == "instance,k,slope_num,slope_den\n"


def test_determinism(tmp_path, capsys):
    job = write_job(tmp_path, "q.json", QUADRATIC)
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, ["disc", "--job", job])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_solve_map_degree_above_solve_degree(tmp_path, capsys):
    """A term of f above the solve degree only reaches degrees above it."""
    job = write_job(
        tmp_path, "q14.json", {"p": 2, "lambda": "1+T", "f": {"2": "1", "14": "1"}}
    )
    code, out, err = run(capsys, ["solve", "--job", job, "--degree", "10"])
    assert code == 0, err
    plain = write_job(tmp_path, "q.json", QUADRATIC)
    _, expected, _ = run(capsys, ["solve", "--job", plain, "--degree", "10"])
    assert out == expected


def test_out_flag_writes_file(tmp_path, capsys):
    job = write_job(tmp_path, "q.json", QUADRATIC)
    target = tmp_path / "result.csv"
    code, out, _ = run(capsys, ["solve", "--job", job, "--degree", "3", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("k,v_num,v_den,zero_kind")
    _, stdout, _ = run(capsys, ["solve", "--job", job, "--degree", "3"])
    assert target.read_text() == stdout


def test_unwritable_out_exits_2(tmp_path, capsys):
    job = write_job(tmp_path, "d.json", {"p": 2, "lambda": "1+T", "f": {"3": "1"}})
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, ["certify-divergence", "--job", job, "--out", str(target)])
    assert code == 2 and out == ""
    assert "--out" in err and str(target) in err
    assert not target.parent.exists()


def test_failed_command_leaves_out_file_alone(tmp_path, capsys):
    """A job that exits 3 (λ = 1 is a root of unity) writes nothing."""
    job = write_job(tmp_path, "rou.json", {"p": 2, "lambda": "1", "f": {"3": "1"}})
    keep = tmp_path / "keep.txt"
    keep.write_text("earlier results\n")
    code, out, _ = run(capsys, ["certify-divergence", "--job", job, "--out", str(keep)])
    assert code == 3 and out == ""
    assert keep.read_text() == "earlier results\n"


def test_display_epsilon_is_presentation_only(tmp_path, capsys):
    job = write_job(tmp_path, "q.json", QUADRATIC)
    _, plain, _ = run(capsys, ["analyze", "--job", job])
    _, decorated, _ = run(capsys, ["analyze", "--job", job, "--display-epsilon", "1/2"])
    plain_report = json.loads(plain)
    decorated_report = json.loads(decorated)
    for key, value in plain_report.items():
        assert decorated_report[key] == value
    assert decorated_report["display_epsilon"] == "1/2"
    assert decorated_report["abs_sigma"] == "1/2^(1/1)"


def test_disc_display_epsilon_is_presentation_only(tmp_path, capsys):
    job = write_job(tmp_path, "q.json", QUADRATIC)
    _, plain, _ = run(capsys, ["disc", "--job", job])
    _, decorated, _ = run(capsys, ["disc", "--job", job, "--display-epsilon", "1/3"])
    decorated_report = json.loads(decorated)
    assert decorated_report.pop("display_epsilon") == "1/3"
    assert decorated_report.pop("abs_radius") == "1/3^(1/1)"
    assert decorated_report == json.loads(plain)


@pytest.mark.parametrize(
    "command, change, key",
    [
        ("analyze", {"precision": {"initial": 0}}, "precision.initial"),
        ("analyze", {"precision": {"initial": 2000}}, "precision.initial"),
        ("analyze", {"precision": {"initial": 32, "maximum": 64}}, "maximum"),
        ("analyze", {"precision": {"auto_retry": False}}, "auto_retry"),
        ("analyze", {"e": 0}, "e"),
        ("analyze", {"p": "two"}, "p"),
        ("analyze", {"p": 2.0}, "p"),
        ("analyze", {"r": True}, "r"),
        ("solve", {"degree": "x"}, "degree"),
        ("solve", {"degree": -3}, "degree"),
        ("solve", {"degree": 3.7}, "degree"),
        ("certify-divergence", {"Nmax": 0}, "Nmax"),
        ("sweep", {"tail": "1.5", "instances": []}, "tail"),
        ("disc", {"kappa_max": 0}, "kappa_max"),
        ("sweep", {"instances": [3]}, "instances"),
        ("analyze", {"r": 2, "modulus": "x^2+x+1"}, "modulus"),
        ("analyze", {"r": 2, "modulus": [1, 1.5, 1]}, "modulus"),
        (
            "sweep",
            {
                "degree": 8,
                "tail": 2,
                "instances": [
                    {"f": {"3": "1"}, "p": 3, "degree": 4, "precision": {"initial": 0}}
                ],
            },
            "['degree', 'p', 'precision']",
        ),
        ("sweep", {"instances": [{"lambda": "1+T"}, {"f": {"4": "1"}, "e": 2}]}, "['e']"),
        (
            "certify-divergence",
            {"nmax": 2, "Precision": {"initial": 8}},
            "['Precision', 'nmax']",
        ),
        ("solve", {"Degree": 4}, "['Degree']"),
        # D above MAX_DEGREE: the dense arrays alone would need 7.28 TiB
        ("solve", {"degree": 1000000000000}, "degree"),
        # Jmax = 2^39: the solve degree p^Nmax + 1 is far above MAX_DEGREE
        ("certify-divergence", {"Nmax": 40}, "Nmax"),
        # values that size arrays: 44.7 GiB for the default degree 2·deg f,
        # 22.4 GiB for the literal U^3000000000 or T^3000000000
        ("disc", {"f": {"3000000000": "T"}}, "6000000000"),
        ("disc", {"e": 3000000000}, "3000000000"),
        ("disc", {"lambda": "1+T^3000000000"}, "3000000000"),
        # k' = 65521^2 gives the default degree 5413557373561
        ("disc", LARGE_ORDER, "5413557373561"),
        # one degree named twice, and JSON keys given twice (a string is
        # raw JSON members, since a dict cannot repeat a key)
        ("disc", {"f": {"2": "1", "02": "T^5"}}, "'02'"),
        pytest.param("disc", '"lambda": "1+T^2"', "['lambda']", id="disc-repeated-lambda"),
        pytest.param(
            "solve",
            '"precision": {"initial": 8, "initial": 16}',
            "['initial']",
            id="solve-repeated-nested-key",
        ),
        # degree keys of f follow the integer rule: no underscore, no space
        ("analyze", {"f": {"1_0": "1"}}, "'1_0'"),
        ("analyze", {"f": {" 10": "1"}}, "' 10'"),
        # a space never joins two digits; a Unicode digit is no digit
        ("analyze", {"p": 5, "lambda": "1+(1 2)*T"}, "'1 2'"),
        ("analyze", {"lambda": "1+T^\u0663"}, "T^\u0663"),
        # more digits than int() converts: a ParseError, not a traceback
        pytest.param("solve", '"degree": 1' + "0" * 5000, "4300", id="solve-huge-json-integer"),
        pytest.param("solve", {"degree": "1" + "0" * 5000}, "5001", id="solve-huge-decimal-string"),
    ],
)
def test_malformed_job_values_exit_2(tmp_path, capsys, command, change, key):
    base = {"p": 2, "lambda": "1+T", "f": {"3" if command == "certify-divergence" else "2": "1"}}
    if isinstance(change, str):
        job = tmp_path / "bad.json"
        job.write_text(json.dumps(base)[:-1] + ", " + change + "}")
        job = str(job)
    else:
        job = write_job(tmp_path, "bad.json", {**base, **change})
    code, out, err = run(capsys, [command, "--job", job])
    assert code == 2, err
    assert out == "" and key in err


def test_job_file_not_utf8_exits_2(tmp_path, capsys):
    job = tmp_path / "latin1.json"
    job.write_bytes(b'{"p": 2, "lambda": "1+T\xff"}')
    code, out, err = run(capsys, ["analyze", "--job", str(job)])
    assert code == 2 and out == ""
    assert "not valid JSON" in err and "utf-8" in err


def test_keys_of_other_commands_are_accepted(tmp_path, capsys):
    """One job file may serve several commands: ``analyze`` ignores the
    keys ``disc``, ``solve`` and ``certify-divergence`` read."""
    job = write_job(tmp_path, "q.json", {**QUADRATIC, "kappa_max": 2, "degree": 5, "Nmax": 3})
    code, out, err = run(capsys, ["analyze", "--job", job])
    assert code == 0, err
    assert json.loads(out)["k_prime"] == 2


def test_malformed_degree_flag_exits_2(tmp_path, capsys):
    job = write_job(tmp_path, "q.json", QUADRATIC)
    code, _, err = run(capsys, ["solve", "--job", job, "--degree", "0"])
    assert code == 2 and "--degree" in err
    code, _, err = run(capsys, ["solve", "--job", job, "--degree", "4097"])
    assert code == 2 and "--degree" in err


def test_decimal_strings_read_as_integers(tmp_path, capsys):
    job = write_job(tmp_path, "q.json", {**QUADRATIC, "p": "2", "degree": "4"})
    code, out, _ = run(capsys, ["solve", "--job", job])
    assert code == 0 and len(out.strip().splitlines()) == 5


def test_supplied_modulus(tmp_path, capsys):
    payload = {"p": 2, "r": 2, "modulus": [1, "1", 1], "lambda": "b+T", "f": {"4": "1"}}
    code, out, _ = run(capsys, ["analyze", "--job", write_job(tmp_path, "m.json", payload)])
    assert code == 0 and json.loads(out)["k_prime"] == 4


def solve_needing(monkeypatch, least_window):
    """solve_sfe as seen by the CLI, failing below ``least_window``; returns
    the working precisions it was called at."""
    windows = []

    def solver(f, D, window=32):
        windows.append(window)
        if window < least_window:
            raise PrecisionError(f"needs W >= {least_window}")
        return solve_sfe(f, D, window)

    monkeypatch.setattr(lindisc.cli, "solve_sfe", solver)
    return windows


def test_retry_doubles_the_working_precision(tmp_path, capsys, monkeypatch):
    windows = solve_needing(monkeypatch, 64)
    job = write_job(tmp_path, "q.json", QUADRATIC)
    code, out, err = run(capsys, ["solve", "--job", job, "--degree", "4"])
    assert code == 0
    assert windows == [32, 64]
    assert "precision 32 exhausted" in err and "retrying" in err
    assert out.splitlines()[2] == "2,-1,1,nonzero"


def test_retry_stops_at_the_largest_working_precision(tmp_path, capsys, monkeypatch):
    windows = solve_needing(monkeypatch, 2048)
    job = write_job(tmp_path, "q.json", {**QUADRATIC, "precision": {"initial": 1024}})
    code, out, err = run(capsys, ["solve", "--job", job, "--degree", "4"])
    assert code == 3
    assert windows == [1024]
    assert out == "" and "needs W >= 2048" in err
    assert "precision 1024 exhausted" in err and "retrying" not in err


def test_job_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    """A job within every size limit can still exceed the memory left on
    the host; it exits 2 with one line, not a traceback, and writes no
    output file."""

    def solver(f, D, window=32):
        raise MemoryError("Unable to allocate 256. MiB for an array")

    monkeypatch.setattr(lindisc.cli, "solve_sfe", solver)
    job = write_job(tmp_path, "q.json", QUADRATIC)
    target = tmp_path / "out.csv"
    code, out, err = run(capsys, ["solve", "--job", job, "--out", str(target)])
    assert code == 2
    assert out == "" and err == "job too large for available memory\n"
    assert not target.exists()


# one job of each command: an F_9 solve, and the maps the tests above use
COMMAND_JOBS = {
    "analyze": QUADRATIC,
    "solve": {"p": 3, "r": 2, "lambda": "b+T", "f": {"3": "1", "6": "T"}, "degree": 20},
    "certify-divergence": {"p": 2, "lambda": "1+T", "f": {"3": "1"}, "Nmax": 5},
    "disc": QUADRATIC,
    "sweep": {
        "p": 2,
        "lambda": "1+T",
        "degree": 12,
        "tail": 2,
        "instances": [{"f": {"2": "1"}}, {"f": {"3": "1"}}],
    },
}

# run in a fresh interpreter: the numpy submodules loaded after
# ``import lindisc``, by importing the CLI and running one job of each
# command, printed as a JSON list
NUMPY_SUBMODULES_SCRIPT = """
import contextlib, io, json, sys
import lindisc
numpy_modules = lambda: {m for m in sys.modules if m == "numpy" or m.startswith("numpy.")}
before = numpy_modules()
import lindisc.cli
codes = []
for command, path in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(lindisc.cli.main([command, "--job", path]))
print(json.dumps([codes, sorted(numpy_modules() - before)]))
"""


def test_commands_load_no_numpy_submodule_beyond_the_package(tmp_path):
    """A numpy submodule first loaded by a job costs every job's process
    its memory: one ``np.unique`` call loads ``numpy.ma``, about 1.7 MB
    of resident memory.  After ``import lindisc``, one job of each
    command loads none."""
    jobs = [
        [command, write_job(tmp_path, f"{command}.json", job)]
        for command, job in COMMAND_JOBS.items()
    ]
    src = str(Path(lindisc.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_SUBMODULES_SCRIPT, json.dumps(jobs)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    codes, loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(COMMAND_JOBS)
    assert loaded == []
