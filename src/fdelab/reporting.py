"""Deterministic artifact writers and the run report schema.

All output is reproducible byte for byte: JSON is serialized with sorted
keys, floats keep their shortest round-trip repr, nothing carries a
timestamp, and files are written atomically (temp + rename).  Runs are
addressed by a hash of the canonical config so reruns of the same config
land on the same paths.

The hash is SHA-256 from the interpreter's built-in module (`_sha256`, or
`_sha2` from Python 3.12), as the standard library's `random` takes
`_sha512`: `hashlib` loads OpenSSL's binding, about 3.6 MB of every
command's peak memory for one digest.  `hashlib` serves only where
neither module exists, with the same digest.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import tempfile

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .params import ModelParams, ThresholdConfig, params_to_dict

__all__ = [
    "canonical_json",
    "config_hash",
    "atomic_write",
    "write_json",
    "write_csv",
    "make_check",
    "base_report",
]


def _sanitize(obj):
    """Make an object JSON-serializable with deterministic content."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _sanitize(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if hasattr(obj, "item") and callable(obj.item) and getattr(obj, "ndim", None) == 0:
        return obj.item()
    if hasattr(obj, "tolist"):
        return _sanitize(obj.tolist())
    if isinstance(obj, float):
        # normalize -0.0 and non-finite values for stable serialization
        if obj == 0.0:
            return 0.0
        if obj != obj:
            return "nan"
        if obj in (float("inf"), float("-inf")):
            return "inf" if obj > 0 else "-inf"
        return obj
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n"


def config_hash(p: ModelParams, cfg: ThresholdConfig, extras: dict) -> str:
    payload = {
        "params": dataclasses.asdict(p),
        "thresholds": dataclasses.asdict(cfg),
        "extras": extras,
    }
    digest = sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    return digest[:12]


def atomic_write(path: str, text):
    """Write text, a string or an iterable of strings written in order, to
    path through a temp file and a rename.

    mkstemp creates the temp file with mode 0600, which the rename would
    keep; the file gets the mode a plain open() would give it instead,
    0666 less the process umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj):
    atomic_write(path, canonical_json(obj))


def write_csv(path: str, header: list[str], rows):
    """Header and rows as CSV lines, each value the repr of its float.
    Rows may be a generator: each line is written as it is formed."""
    lines = (",".join(repr(float(v)) for v in row) + "\n" for row in rows)
    atomic_write(path, itertools.chain([",".join(header) + "\n"], lines))


def make_check(name: str, passed: bool, details: dict) -> dict:
    return {"name": name, "passed": bool(passed), "details": _sanitize(details)}


def base_report(p: ModelParams, cfg: ThresholdConfig) -> dict:
    return {
        **params_to_dict(p),
        "thresholds": dataclasses.asdict(cfg),
        "checks": [],
        "artifacts": [],
    }
