import json
import pathlib

import pytest

import helpers
from qappell import render, reports
from qappell.families import PRINTED_CLAIMS, verify_printed_theorem

GOLDEN = pathlib.Path(__file__).parent / "golden" / "discrepancy_report.json"


def test_discrepancy_report_matches_golden_file():
    text = render.dumps(helpers.discrepancy_report())
    assert text.encode() == GOLDEN.read_bytes()


def test_discrepancy_report_reruns_byte_identical():
    first = render.dumps(helpers.discrepancy_report())
    second = render.dumps(helpers.discrepancy_report())
    assert first == second


def test_discrepancy_report_covers_all_claims_in_order():
    claims = [entry["claim"] for entry in helpers.discrepancy_report()]
    assert claims == ["b1", "b2", "e1[numbers]", "e1[values]", "e2",
                      "g1", "g2", "h0-normalization", "euler-relation"]


def test_run_scope_all_passes_hard_checks():
    payload = reports.run_scope("all", 6, 8)
    assert payload["passed"] is True
    hard_ids = {(r["theorem"], r["family"]) for r in payload["hard"]}
    for fam in ("bernoulli", "euler", "genocchi", "hermite"):
        assert ("a1", fam) in hard_ids
        assert ("a2", fam) in hard_ids
        assert ("lowering", fam) in hard_ids
    assert ("h1", "hermite") in hard_ids
    assert ("h2", "hermite") in hard_ids
    assert ("h0-cross", "hermite") in hard_ids
    assert ("hermite-ratio", "hermite") in hard_ids
    for entry in payload["hard"]:
        assert entry["passed"] is True and entry["first_failure"] is None


def test_run_scope_descriptive_only_never_fails():
    payload = reports.run_scope("e1", 6, 8)
    assert payload["passed"] is True
    assert payload["hard"] == []
    assert [e["claim"] for e in payload["descriptive"]] == ["e1[numbers]",
                                                            "e1[values]"]


def test_verification_json_schema_fields():
    payload = reports.run_scope("a1", 4, 6)
    entry = payload["hard"][0]
    assert set(entry) == {"theorem", "family", "max_n", "passed", "first_failure"}
    d = helpers.discrepancy_report()[0]
    assert set(d) == {"claim", "status", "counterexample_n", "residual"}


def test_report_payload_is_json_serializable():
    payload = reports.run_scope("all", 4, 6)
    parsed = json.loads(render.dumps(payload))
    assert parsed["scope"] == "all"


# The descriptive rows are the rows of one table.

def test_descriptive_reports_are_the_printed_claims_table():
    assert reports.descriptive_reports("all", 10) == [
        verify_printed_theorem(claim, 10) for claim in PRINTED_CLAIMS]


def test_each_scope_runs_exactly_the_claims_that_name_it():
    for scope in reports.SCOPES[1:]:
        claims = [r.claim_id for r in reports.descriptive_reports(scope, 10)]
        assert claims == [claim for claim, (claim_scope, *_) in PRINTED_CLAIMS.items()
                          if claim_scope == scope], scope


def test_an_old_style_claim_id_raises():
    for claim in ("e1", "h0", "g1[numbers]"):
        with pytest.raises(ValueError, match="unknown printed claim"):
            verify_printed_theorem(claim, 10)


def test_an_unknown_scope_raises_instead_of_passing():
    for run in (lambda: reports.run_scope("b3", 6, 8),
                lambda: reports.hard_reports("b3", 6, 8),
                lambda: reports.descriptive_reports("b3", 6)):
        with pytest.raises(ValueError, match="unknown scope"):
            run()
