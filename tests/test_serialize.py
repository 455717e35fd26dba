from __future__ import annotations

from affine_singular.serialize import canonical_json


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, {"y": 3, "x": 4}]})
    b = canonical_json({"a": [2, {"x": 4, "y": 3}], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert '"a"' in a.splitlines()[1]
