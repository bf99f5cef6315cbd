"""Disk cache for verification results.

Everything is JSON on disk, one file per key, so cache state stays
inspectable and survives across runs.  Keys that need group identity
should use cohomology.group_digest, so one digest convention covers
the whole package.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from .errors import InvalidInputError

__all__ = [
    "CACHE_FORMAT_VERSION",
    "ResultCache",
]

# version 2: H^2 entries hold CohomologyResult.to_json() payloads
CACHE_FORMAT_VERSION = 2

_KEY_RE = re.compile(r"[^A-Za-z0-9._-]+")
_SLUG_MAX = 120


class ResultCache:
    """One JSON file per key under a user-chosen directory.

    A missing or unreadable entry is a miss, never an error: the cache
    only short-circuits recomputation, it is not a source of truth."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        slug = _KEY_RE.sub("-", key).strip("-")
        if not slug:
            raise InvalidInputError("cache key must contain printable characters")
        if len(slug) > _SLUG_MAX:
            digest = hashlib.sha256(key.encode()).hexdigest()[:16]
            slug = f"{slug[:_SLUG_MAX - 17]}-{digest}"
        return self.root / f"{slug}.json"

    def get(self, key: str):
        try:
            with open(self._path(key), encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(entry, dict) or entry.get("version") != CACHE_FORMAT_VERSION:
            return None
        if entry.get("key") != key:
            return None
        return entry.get("payload")

    def put(self, key: str, payload) -> None:
        path = self._path(key)
        entry = {"version": CACHE_FORMAT_VERSION, "key": key, "payload": payload}
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True)
            fh.write("\n")
        # atomic swap so a concurrent reader never sees a torn file
        tmp.replace(path)

    def get_or_compute(self, key: str, compute):
        """Returns (payload, hit) where hit tells whether the disk won."""
        hit = self.get(key)
        if hit is not None:
            return hit, True
        value = compute()
        self.put(key, value)
        return value, False
