"""Digest-checked on-disk cache for verification payloads.

Records are JSON files carrying a format version, the identifying key, the
canonical payload text and its SHA-256 digest.  A version mismatch makes
the record invisible; so does a key mismatch, a failed digest check or a
file that is not such a record, with a warning passed back.  Stale or
corrupted files can only cause recomputation, never wrong answers.  Writes go to a temporary file first and are renamed into place,
which keeps concurrent writers safe: the loser of a race simply overwrites
with an identical record.

The digest comes from the interpreter's builtin SHA-256, as the standard
random module takes its SHA-512, so a CLI process does not load OpenSSL
through hashlib (about 3.6 MB resident and a few ms per start).  The digests
are the same, so records written either way stay valid.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile

from .serialize import canonical_json

try:
    from _sha256 import sha256  # Python 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256

FORMAT_VERSION = 1


def default_cache_dir() -> str:
    env = os.environ.get("AFFINE_SINGULAR_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "affine-singular")


def _filename(key: dict) -> str:
    parts = [str(key[field]) for field in sorted(key)]
    safe = "-".join(parts).replace("/", "_").replace(" ", "_")
    return safe + ".json"


def cache_path(directory: str, key: dict) -> str:
    return os.path.join(directory, _filename(key))


def cache_put(directory: str, key: dict, payload_obj) -> str:
    try:
        os.makedirs(directory, exist_ok=True)
    except FileExistsError:  # directory names a file, not a directory
        raise NotADirectoryError(errno.ENOTDIR, "the cache directory is not a directory",
                                 directory) from None
    payload = canonical_json(payload_obj)
    record = {
        "format_version": FORMAT_VERSION,
        "key": key,
        "payload": payload,
        "digest": sha256(payload.encode()).hexdigest(),
    }
    path = cache_path(directory, key)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(canonical_json(record))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def cache_get(directory: str, key: dict):
    """Returns (payload object or None, list of warnings).

    Only a record of this format version and key, whose payload string
    passes its digest check and decodes to a JSON object, is a hit.  Every
    other record is a miss with a warning, except a stale version, which
    is silent.
    """
    path = cache_path(directory, key)
    unreadable = "cache record unreadable, recomputing: %s" % path
    try:
        with open(path) as handle:
            record = json.load(handle)
    except (FileNotFoundError, NotADirectoryError):
        return None, []  # no record, or no directory to hold one
    except (OSError, ValueError, RecursionError):  # malformed or too deeply nested
        return None, [unreadable]
    if not isinstance(record, dict):
        return None, [unreadable]
    if record.get("format_version") != FORMAT_VERSION:
        return None, []  # silently stale
    if record.get("key") != key:
        return None, ["cache record key mismatch, recomputing: %s" % path]
    payload, digest = record.get("payload"), record.get("digest")
    if not (isinstance(payload, str) and isinstance(digest, str)):
        return None, [unreadable]
    # surrogatepass: a lone surrogate that JSON let through fails the digest
    if sha256(payload.encode("utf-8", "surrogatepass")).hexdigest() != digest:
        return None, ["cache record failed its digest check, recomputing: %s" % path]
    try:
        obj = json.loads(payload)
    except (ValueError, RecursionError):
        obj = None
    if not isinstance(obj, dict):
        return None, [unreadable]
    return obj, []
