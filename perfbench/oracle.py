"""Output oracle: per-field digests of an operation's model outputs.

A digest covers model outputs only (see :mod:`workloads`), encoded
exactly: floats by their hex form, so a change must reproduce every bit
to match.  Digests for seed :data:`PINNED_SEED` are pinned in
``digests_seed7.json``; for any other seed the benchmark requires the
digests to repeat exactly across the rounds of a run instead.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from pathlib import Path
from typing import Any

__all__ = [
    "PINNED_SEED",
    "PINNED_PATH",
    "digest_fields",
    "diverged_fields",
    "load_pinned",
]

PINNED_SEED = 7
PINNED_PATH = Path(__file__).with_name("digests_seed7.json")


def _encode(value: Any, out: list[str]) -> None:
    if isinstance(value, float):
        out.append(value.hex())
    elif isinstance(value, (bool, int, str)) or value is None:
        out.append(repr(value))
    elif isinstance(value, Mapping):
        out.append("{")
        for key in sorted(value):
            out.append(repr(key))
            out.append(":")
            _encode(value[key], out)
            out.append(",")
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for item in value:
            _encode(item, out)
            out.append(",")
        out.append("]")
    else:
        raise TypeError(f"cannot digest a {type(value).__name__}")


def digest_fields(fields: Mapping[str, Any]) -> dict[str, str]:
    """One 16-hex-digit SHA-256 digest per output field."""
    digests = {}
    for name in sorted(fields):
        parts: list[str] = []
        _encode(fields[name], parts)
        digests[name] = hashlib.sha256("".join(parts).encode()).hexdigest()[:16]
    return digests


def diverged_fields(expected: Mapping[str, str], actual: Mapping[str, str]) -> list[str]:
    """Field names whose digests differ, including fields only one side has."""
    return sorted(
        name for name in set(expected) | set(actual) if expected.get(name) != actual.get(name)
    )


def load_pinned(workload: str, path: Path = PINNED_PATH) -> dict[str, dict[str, str]]:
    """Pinned seed-7 digests of ``workload``, by operation name."""
    with path.open() as handle:
        return json.load(handle)["workloads"].get(workload, {})
