"""Command-line front-end: commands, exit codes, determinism."""

import json

import pytest

import lindisc.cli
import lindisc.discs
from lindisc.cli import main
from lindisc.errors import PrecisionError
from lindisc.schroder import ZeroReport, solve_sfe


def write_job(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


QUADRATIC = {"p": 2, "lambda": "1+T", "f": {"2": "1"}}


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


def test_failed_self_check_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        lindisc.discs, "check_structural_zeros", lambda g, f: ZeroReport(True, [3])
    )
    job = write_job(tmp_path, "q.json", QUADRATIC)
    code, out, err = run(capsys, ["disc", "--job", job])
    assert code == 4
    assert out == ""
    assert "structural zero violations at [3]" in err


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
    ],
)
def test_malformed_job_values_exit_2(tmp_path, capsys, command, change, key):
    base = {"p": 2, "lambda": "1+T", "f": {"3" if command == "certify-divergence" else "2": "1"}}
    job = write_job(tmp_path, "bad.json", {**base, **change})
    code, out, err = run(capsys, [command, "--job", job])
    assert code == 2, err
    assert out == "" and key in err


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
