"""Deterministic artifact writers and the run report schema.

All output is reproducible byte for byte: JSON is serialized with sorted
keys, floats keep their shortest round-trip repr, nothing carries a
timestamp, and files are written atomically (temp + rename).  Runs are
addressed by a hash of the canonical config so reruns of the same config
land on the same paths.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile

from .params import DerivedConstants, ModelParams, ThresholdConfig

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
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    return digest[:12]


def atomic_write(path: str, text: str):
    """Write text to path through a temp file and a rename.

    mkstemp creates the temp file with mode 0600, which the rename would
    keep; the file gets the mode a plain open() would give it instead,
    0666 less the process umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
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
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def make_check(name: str, passed: bool, details: dict) -> dict:
    return {"name": name, "passed": bool(passed), "details": _sanitize(details)}


def base_report(p: ModelParams, d: DerivedConstants, cfg: ThresholdConfig) -> dict:
    return {
        "params": dataclasses.asdict(p),
        "derived": dataclasses.asdict(d),
        "thresholds": dataclasses.asdict(cfg),
        "checks": [],
        "artifacts": [],
    }
