import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qappell import cli, families, render
from qappell.appell import XPoly
from qappell.qarith import QRat
from qappell.cli import MAX_N, MAX_ORDER, build_parser, main
from qappell.families import FamilyKind, make_family

import helpers

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """``python -m qappell`` in a child process that imports this checkout."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, "-m", "qappell", *map(str, argv)],
                          capture_output=True, text=True, timeout=120, env=env)


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


def test_poly_latex_leading_term_has_no_unit_coefficient(capsys):
    code, out, _ = run_cli(capsys, "poly", "--family", "bernoulli", "--n", "24",
                           "--format", "latex")
    assert code == 0
    assert out.startswith("\\[ B_{24,q}(x) = x^{24} - ")


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
    assert helpers.qrat_from_json(payload["value"]).evaluate(Fraction(1, 2)) == Fraction(-2, 3)


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
    proc = run_module("verify", "--scope", scope, "--max-n", "1", "--order", "4")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: h1")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, flag, limit", [
    (["numbers", "--family", "euler", "--max-n", MAX_N + 1], "--max-n", MAX_N),
    (["alpha", "--family", "euler", "--max-n", MAX_N + 1], "--max-n", MAX_N),
    (["poly", "--family", "euler", "--n", MAX_N + 1], "--n", MAX_N),
    (["verify", "--scope", "a1", "--max-n", MAX_N + 1], "--max-n", MAX_N),
    (["numbers", "--family", "euler", "--max-n", 2, "--order", MAX_ORDER + 1],
     "--order", MAX_ORDER),
    (["verify", "--scope", "h0", "--max-n", 2, "--order", MAX_ORDER + 1],
     "--order", MAX_ORDER),
])
def test_inputs_above_the_limits_are_usage_errors(argv, flag, limit):
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {flag} must be <= {limit}\n"


def test_a_negative_order_is_a_usage_error():
    proc = run_module("numbers", "--family", "bernoulli", "--max-n", 3, "--order", -5)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: --order must be >= 0\n"


def test_inputs_at_the_limits_are_accepted(capsys):
    code, out, _ = run_cli(capsys, "numbers", "--family", "hermite",
                           "--max-n", str(MAX_N), "--order", str(MAX_ORDER))
    assert code == 0 and len(json.loads(out)["numbers"]) == MAX_N + 1
    helptext = build_parser().format_help()
    assert f"--order <= {MAX_ORDER}" in helptext
    assert f"--max-n, --n <= {MAX_N}" in helptext


def _cost_rows(run: str, times: str, sep: str) -> dict[str, str]:
    """{command with its value: wall time} for one cost-table row whose
    values and times are each separated by `sep`."""
    first, *rest = run.strip().replace("`", "").split(sep)
    command, value = first.rsplit(" ", 1)
    figures = [t.strip().removesuffix(" s") for t in times.split(sep)]
    return {f"{command} {v}": t for v, t in zip([value, *rest], figures, strict=True)}


def test_readme_cost_table_carries_the_help_figures():
    """The verify rows of the --help limits (cli._LIMITS) and of the
    README cost table give the same wall time for every run they list,
    and list the same verify-all depths."""
    limits = {}
    for line in cli._LIMITS.splitlines():
        if line.lstrip().startswith("verify"):
            limits.update(_cost_rows(*re.split(r"\s{2,}", line.strip()), " | "))
    readme = {}
    for line in (SRC.parent / "README.md").read_text().splitlines():
        if line.startswith("| `verify"):
            _, run, times, _ = line.split("|")
            readme.update(_cost_rows(run, times, " / "))
    assert len(limits) == 7 and limits.items() <= readme.items()
    depths = [{run for run in table if "--scope all" in run} for table in (limits, readme)]
    assert depths[0] == depths[1]


def test_verify_checks_degree_ranges_before_building_families(capsys):
    make_family.cache_clear()
    families._family.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scope", "all", "--max-n", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: h1: empty degree range 2..1"]
    assert make_family.cache_info().misses == 0
    assert families._family.cache_info().misses == 0


def test_verify_all_builds_one_family_per_kind(capsys):
    make_family.cache_clear()
    families._family.cache_clear()
    assert main(["verify", "--scope", "all", "--max-n", "12"]) == 0
    capsys.readouterr()
    assert make_family.cache_info().misses == 4
    assert families._family.cache_info().misses == 4
    assert cli.MAX_ORDER is families.MAX_ORDER


def test_verify_exit_1_on_hard_failure(capsys, monkeypatch):
    # the genuine identities all hold, so force a failing payload
    from qappell import cli as cli_module

    def fake_run_scope(scope, max_n, order):
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
    poly = helpers.xpoly_from_json(payload["poly"])
    re_emitted = render.dumps({"family": "euler", "n": 5,
                               "poly": render.xpoly_to_json(poly)})
    assert re_emitted == out


def test_parsed_table_values_are_factored_and_equal_the_family_values(capsys):
    """Every value of ``numbers --max-n 24`` and ``alpha --max-n 23``
    parses back through helpers.qrat_from_json to a factored value equal to the
    family's own, for all four families."""
    for kind in FamilyKind:
        fam = make_family(kind)
        for command, n, own in (("numbers", 24, fam.numbers), ("alpha", 23, fam.alphas)):
            code, out, _ = run_cli(capsys, command, "--family", kind.value,
                                   "--max-n", str(n))
            assert code == 0
            parsed = [helpers.qrat_from_json(v) for v in json.loads(out)[command]]
            assert parsed == list(own(n)), (kind, command)
            assert all(r._m is not None for r in parsed), (kind, command)


def test_xpoly_json_degree_must_match_n():
    one = render.qrat_to_json(QRat(1))
    with pytest.raises(ValueError, match="n = 3"):
        helpers.xpoly_from_json({"n": 3, "coeffs": [one]})
    with pytest.raises(ValueError, match="n = 0"):
        helpers.xpoly_from_json({"n": 0, "coeffs": []})
    assert helpers.xpoly_from_json({"n": -1, "coeffs": []}).is_zero()
    assert helpers.xpoly_from_json({"n": 0, "coeffs": [one]}) == XPoly([1])


def test_rendering_is_deterministic(capsys):
    first = run_cli(capsys, "numbers", "--family", "bernoulli", "--max-n", "6")
    second = run_cli(capsys, "numbers", "--family", "bernoulli", "--max-n", "6")
    assert first == second


def test_module_entry_point():
    proc = run_module("numbers", "--family", "euler", "--max-n", "1",
                      "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["n,value", "0,1", "1,-1/2"]
