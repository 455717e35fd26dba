from __future__ import annotations

from affine_singular.report import VerificationReport
from affine_singular.serialize import canonical_json


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, {"y": 3, "x": 4}]})
    b = canonical_json({"a": [2, {"x": 4, "y": 3}], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert '"a"' in a.splitlines()[1]


def test_report_defaults_are_fresh_and_shown():
    a, b = VerificationReport("claim", True), VerificationReport("claim", False)
    a.parameters["x"] = 1
    a.notes.append("note")
    assert b.parameters == {} and b.notes == []
    assert b.to_obj() == {"claim": "claim", "verdict": False, "parameters": {}, "timing_ms": 0,
                          "seed": None}
    assert repr(b) == ("VerificationReport(claim='claim', verdict=False, parameters={}, witness=None, "
                       "timing_ms=0, seed=None, notes=[], details=None)")
