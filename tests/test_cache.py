from __future__ import annotations

import hashlib
import json
import os

import pytest

from affine_singular.cache import (FORMAT_VERSION, cache_get, cache_path,
                                   cache_put, default_cache_dir)


KEY = {"command": "singular-verify", "kind": "C", "rank": 2, "m": 2, "n": 1,
       "level": "-1/2"}
PAYLOAD = {"claim": "demo", "verdict": True, "parameters": {"m": 2}}


def test_round_trip(tmp_path):
    directory = str(tmp_path)
    path = cache_put(directory, KEY, PAYLOAD)
    assert os.path.exists(path)
    got, warnings = cache_get(directory, KEY)
    assert got == PAYLOAD
    assert warnings == []


def test_missing_record(tmp_path):
    got, warnings = cache_get(str(tmp_path), KEY)
    assert got is None
    assert warnings == []


def test_distinct_keys_distinct_files(tmp_path):
    directory = str(tmp_path)
    other = dict(KEY, level="symbolic")
    assert cache_path(directory, KEY) != cache_path(directory, other)
    cache_put(directory, KEY, PAYLOAD)
    got, _ = cache_get(directory, other)
    assert got is None


def test_corrupt_file_warns(tmp_path):
    directory = str(tmp_path)
    path = cache_put(directory, KEY, PAYLOAD)
    with open(path, "w") as handle:
        handle.write("{ not json")
    got, warnings = cache_get(directory, KEY)
    assert got is None
    assert any("unreadable" in w for w in warnings)


def test_tampered_payload_fails_digest(tmp_path):
    directory = str(tmp_path)
    path = cache_put(directory, KEY, PAYLOAD)
    record = json.load(open(path))
    record["payload"] = record["payload"].replace("true", "false")
    with open(path, "w") as handle:
        json.dump(record, handle)
    got, warnings = cache_get(directory, KEY)
    assert got is None
    assert any("digest" in w for w in warnings)


def test_stale_version_is_silent(tmp_path):
    directory = str(tmp_path)
    path = cache_put(directory, KEY, PAYLOAD)
    record = json.load(open(path))
    record["format_version"] = FORMAT_VERSION + 1
    with open(path, "w") as handle:
        json.dump(record, handle)
    got, warnings = cache_get(directory, KEY)
    assert got is None
    assert warnings == []


def test_key_mismatch_warns(tmp_path):
    directory = str(tmp_path)
    path = cache_put(directory, KEY, PAYLOAD)
    record = json.load(open(path))
    record["key"] = dict(KEY, n=99)
    with open(path, "w") as handle:
        json.dump(record, handle)
    got, warnings = cache_get(directory, KEY)
    assert got is None
    assert any("mismatch" in w for w in warnings)


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("AFFINE_SINGULAR_CACHE", str(tmp_path / "override"))
    assert default_cache_dir() == str(tmp_path / "override")
    monkeypatch.delenv("AFFINE_SINGULAR_CACHE")
    assert default_cache_dir().endswith(os.path.join(".cache", "affine-singular"))


def _rewrite(path, record):
    with open(path, "w") as handle:
        json.dump(record, handle)


def _signed(payload: str) -> dict:
    return {"format_version": FORMAT_VERSION, "key": KEY, "payload": payload,
            "digest": hashlib.sha256(payload.encode()).hexdigest()}


@pytest.mark.parametrize("record", [
    [1, 2], 5, "text", None,  # parses, but is not a record
    dict(_signed("{}"), payload=5),
    dict(_signed("{}"), payload=None),
    dict(_signed("{}"), digest=5),
    {"format_version": FORMAT_VERSION, "key": KEY},  # neither payload nor digest
], ids=["list", "int", "str", "null", "int-payload", "null-payload", "int-digest", "no-payload"])
def test_malformed_record_is_unreadable(tmp_path, record):
    directory = str(tmp_path)
    path = cache_put(directory, KEY, PAYLOAD)
    _rewrite(path, record)
    got, warnings = cache_get(directory, KEY)
    assert got is None
    assert warnings == ["cache record unreadable, recomputing: %s" % path]


def test_non_object_payloads_are_unreadable(tmp_path):
    directory = str(tmp_path)
    path = cache_put(directory, KEY, PAYLOAD)
    for payload in ("[1, 2]", "5", "null", "{ not json"):
        _rewrite(path, _signed(payload))
        got, warnings = cache_get(directory, KEY)
        assert got is None
        assert warnings == ["cache record unreadable, recomputing: %s" % path]
    _rewrite(path, _signed(json.dumps(PAYLOAD)))
    assert cache_get(directory, KEY) == (PAYLOAD, [])


def test_lone_surrogate_payload_fails_its_digest(tmp_path):
    directory = str(tmp_path)
    path = cache_put(directory, KEY, PAYLOAD)
    _rewrite(path, dict(_signed("{}"), payload="\ud800"))  # no UTF-8 text holds it
    got, warnings = cache_get(directory, KEY)
    assert got is None
    assert any("digest" in w for w in warnings)


def test_invalid_utf8_is_unreadable(tmp_path):
    directory = str(tmp_path)
    path = cache_put(directory, KEY, PAYLOAD)
    with open(path, "wb") as handle:
        handle.write(b'{"payload": "\xff"}')
    got, warnings = cache_get(directory, KEY)
    assert got is None
    assert any("unreadable" in w for w in warnings)


def test_a_record_nested_past_the_recursion_limit_is_unreadable(tmp_path):
    directory = str(tmp_path)
    path = cache_put(directory, KEY, PAYLOAD)
    with open(path, "w") as handle:
        handle.write("[" * 100_000 + "]" * 100_000)
    got, warnings = cache_get(directory, KEY)
    assert got is None
    assert warnings == ["cache record unreadable, recomputing: %s" % path]


def test_a_signed_payload_nested_past_the_recursion_limit_is_unreadable(tmp_path):
    directory = str(tmp_path)
    path = cache_put(directory, KEY, PAYLOAD)
    _rewrite(path, _signed("[" * 100_000 + "]" * 100_000))
    got, warnings = cache_get(directory, KEY)
    assert got is None
    assert warnings == ["cache record unreadable, recomputing: %s" % path]
