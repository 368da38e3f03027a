"""Shard checkpoint store: resume a sharded run after interruption.

The store is a single JSON file mapping a *run key* -- a stable hash
of the workload identity (name + parameters + seed + shard plan) --
to the validated payloads of its completed shards.  Because shard
payloads are pure JSON and Python's ``json`` round-trips float64
exactly (``repr`` shortest-round-trip), a resumed run merges the
checkpointed payloads bit-for-bit as if the shards had just executed.

Writes are atomic (temp file + ``os.replace``) so a crash mid-write
never corrupts previously stored shards, and each shard is stored the
moment it validates -- the checkpoint always reflects exactly the
completed work.  A path that cannot hold the file (its directory is
missing, or it names a directory) is rejected when the store is
built, before any shard runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Optional

from ..robust.errors import ModelDomainError


def run_key(workload_name: str, workload_key: Any,
            n_shards: int) -> str:
    """Stable identity of one sharded run.

    Hashes the workload name, its parameter key and the shard count
    with SHA-256 (never ``hash()`` -- that is salted per process, and
    checkpoints must match across processes and sessions).  Any
    parameter change, including the shard plan, yields a new key, so
    a stale checkpoint can never leak into a different run.
    """
    try:
        blob = json.dumps([workload_name, workload_key, n_shards],
                          sort_keys=True)
    except (TypeError, ValueError) as error:
        raise ModelDomainError(
            f"workload key is not JSON-serializable: {error}")
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class ShardCheckpoint:
    """JSON-file store of completed shard payloads, keyed by run.

    Layout::

        {"<run_key>": {"<start>:<stop>": <payload>, ...}, ...}
    """

    def __init__(self, path: str):
        if not path or not isinstance(path, str):
            raise ModelDomainError(
                f"checkpoint path must be a non-empty string, got "
                f"{path!r}")
        if os.path.isdir(path) or not os.path.isdir(
                os.path.dirname(os.path.abspath(path))):
            raise ModelDomainError(
                f"checkpoint path {path!r} must name a file in an "
                f"existing directory")
        self.path = path

    def _read_all(self) -> Dict[str, Dict[str, Any]]:
        if not os.path.exists(self.path):
            return {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as error:
            raise ModelDomainError(
                f"unreadable checkpoint {self.path!r}: {error}")
        if not isinstance(data, dict):
            raise ModelDomainError(
                f"checkpoint {self.path!r} is not a JSON object")
        return data

    def load(self, key: str) -> Dict[str, Any]:
        """Payloads of the completed shards of run ``key``.

        Returns ``{"start:stop": payload}``; empty when the run has
        no checkpointed shards (or the file does not exist yet).
        """
        return dict(self._read_all().get(key, {}))

    def store(self, key: str, start: int, stop: int,
              payload: Any) -> None:
        """Atomically record one completed shard's payload."""
        data = self._read_all()
        data.setdefault(key, {})[f"{start}:{stop}"] = payload
        directory = os.path.dirname(os.path.abspath(self.path))
        try:
            fd, tmp_path = tempfile.mkstemp(
                dir=directory, prefix=".checkpoint-", suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(data, handle)
                os.replace(tmp_path, self.path)
            finally:
                if os.path.exists(tmp_path):
                    os.unlink(tmp_path)
        except OSError as error:
            raise ModelDomainError(
                f"unwritable checkpoint {self.path!r}: {error}")

    def shard_payload(self, key: str, start: int,
                      stop: int) -> Optional[Any]:
        """One shard's checkpointed payload, or ``None``."""
        return self.load(key).get(f"{start}:{stop}")
