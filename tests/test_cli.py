import json
import subprocess
import sys
from fractions import Fraction

import pytest

from qappell import render
from qappell.cli import main
from qappell.families import FamilyKind, make_family


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_numbers_json_bernoulli(capsys):
    code, out, _ = run_cli(capsys, "numbers", "--family", "bernoulli",
                           "--max-n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "bernoulli"
    expected = make_family(FamilyKind.BERNOULLI, 24).numbers(2)
    assert payload["numbers"] == [render.qrat_to_json(v) for v in expected]
    assert payload["numbers"][0] == {"num": ["1"], "den": ["1"]}
    assert payload["numbers"][1] == {"num": ["-1"], "den": ["1", "1"]}


def test_numbers_csv_genocchi(capsys):
    code, out, _ = run_cli(capsys, "numbers", "--family", "genocchi",
                           "--max-n", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,value", "0,0", "1,1"]


def test_numbers_empty_range(capsys):
    code, out, _ = run_cli(capsys, "numbers", "--family", "euler",
                           "--max-n", "0", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,value", "0,1"]


def test_poly_latex_hermite(capsys):
    code, out, _ = run_cli(capsys, "poly", "--family", "hermite", "--n", "3",
                           "--format", "latex")
    assert code == 0
    assert out == "\\[ H_{3,q}(x) = x^{3} - \\left(1 + q + q^{2}\\right) x \\]\n"


def test_poly_at_q_classical_hermite(capsys):
    code, out, _ = run_cli(capsys, "poly", "--family", "hermite", "--n", "4",
                           "--at-q", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == ["3", "0", "-6", "0", "1"]


def test_poly_full_evaluation(capsys):
    code, out, _ = run_cli(capsys, "poly", "--family", "bernoulli", "--n", "1",
                           "--at-q", "1/2", "--at-x", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "-2/3"


def test_poly_at_x_symbolic(capsys):
    code, out, _ = run_cli(capsys, "poly", "--family", "bernoulli", "--n", "1",
                           "--at-x", "0")
    assert code == 0
    payload = json.loads(out)
    assert render.qrat_from_json(payload["value"]).evaluate(Fraction(1, 2)) == Fraction(-2, 3)


def test_poly_pole_exit_code(capsys):
    code, out, err = run_cli(capsys, "poly", "--family", "bernoulli", "--n", "1",
                             "--at-q", "-1")
    assert code == 3
    assert "1 + q" in err


def test_invalid_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["numbers", "--family", "nope", "--max-n", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["numbers", "--family", "euler", "--max-n", "-3"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--at-q", "--at-x"])
@pytest.mark.parametrize("value", ["1/0", "abc"])
def test_non_rational_point_is_a_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--family", "euler", "--n", "2", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"argument {flag}: invalid Fraction value: '{value}'" in err


@pytest.mark.parametrize("flag", ["--at-q", "--at-x"])
@pytest.mark.parametrize("value", ["-2/7", "-1/2"])
def test_negative_rational_point_after_a_space(capsys, flag, value):
    argv = ["poly", "--family", "euler", "--n", "2"]
    spaced = run_cli(capsys, *argv, flag, value)
    joined = run_cli(capsys, *argv, f"{flag}={value}")
    assert spaced[0] == 0
    assert spaced == joined


def test_alpha_subcommand(capsys):
    code, out, _ = run_cli(capsys, "alpha", "--family", "genocchi",
                           "--max-n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"][0] == {"num": ["1"], "den": ["0", "1"]}


def test_verify_scope_a1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "a1", "--max-n", "6",
                           "--order", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["hard"]) == 4


def test_verify_scope_euler_relation(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "euler-relation",
                           "--max-n", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["hard"] == []
    assert payload["descriptive"][0]["claim"] == "euler-relation"


def test_verify_scope_h1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "h1", "--max-n", "12",
                           "--order", "12")
    assert code == 0


@pytest.mark.parametrize("scope", ["b1", "b2", "e1", "e2", "g1", "g2"])
def test_verify_printed_claims_at_max_n_1_are_inapplicable(capsys, scope):
    code, out, err = run_cli(capsys, "verify", "--scope", scope, "--max-n", "1")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["hard"] == []
    assert payload["descriptive"]
    assert {e["status"] for e in payload["descriptive"]} == {"inapplicable"}


@pytest.mark.parametrize("scope", ["h1", "all"])
def test_verify_empty_hard_range_is_a_usage_error(scope):
    proc = subprocess.run(
        [sys.executable, "-m", "qappell", "verify", "--scope", scope,
         "--max-n", "1", "--order", "4"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: h1")
    assert "Traceback" not in proc.stderr


def test_verify_checks_degree_ranges_before_building_families(capsys):
    make_family.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scope", "all", "--max-n", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: h1: empty degree range 2..1"]
    assert make_family.cache_info().misses == 0


def test_verify_exit_1_on_hard_failure(capsys, monkeypatch):
    # the genuine identities all hold, so force a failing payload
    from qappell import cli as cli_module

    def fake_run_scope(scope, max_n, order, euler_max_n=None):
        return {"scope": scope, "max_n": max_n, "order": order,
                "passed": False,
                "hard": [{"theorem": "a1", "family": "bernoulli",
                          "max_n": max_n, "passed": False, "first_failure": 3}],
                "descriptive": []}

    monkeypatch.setattr(cli_module.reports, "run_scope", fake_run_scope)
    code, out, _ = run_cli(capsys, "verify", "--scope", "a1", "--max-n", "4")
    assert code == 1
    payload = json.loads(out)
    assert payload["hard"][0]["first_failure"] == 3


def test_json_round_trip_bytes(capsys):
    code, out, _ = run_cli(capsys, "poly", "--family", "euler", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    poly = render.xpoly_from_json(payload["poly"])
    re_emitted = render.dumps({"family": "euler", "n": 5,
                               "poly": render.xpoly_to_json(poly)})
    assert re_emitted == out


def test_rendering_is_deterministic(capsys):
    first = run_cli(capsys, "numbers", "--family", "bernoulli", "--max-n", "6")
    second = run_cli(capsys, "numbers", "--family", "bernoulli", "--max-n", "6")
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qappell", "numbers", "--family", "euler",
         "--max-n", "1", "--format", "csv"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["n,value", "0,1", "1,-1/2"]
