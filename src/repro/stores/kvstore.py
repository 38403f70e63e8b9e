"""Local key-value stores.

:class:`InMemoryKeyValueStore` is the PKB's working store and the cache
backend; :class:`FileKeyValueStore` adds JSON persistence with atomic
writes so a crashed process never leaves a torn file behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from abc import ABC, abstractmethod
from pathlib import Path

from repro.util.errors import NotFoundError, SerializationError

_MISSING = object()


def write_json_atomic(path: Path, data: object) -> None:
    """Write ``data`` as JSON to ``path`` without ever tearing it.

    The text goes to a temp file in the same directory, which then
    replaces ``path`` in one ``os.replace``: a write that fails part-way
    leaves the previous file intact and no temp file behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w") as handle:
            json.dump(data, handle)
        os.replace(temp_name, path)
    except BaseException:
        if os.path.exists(temp_name):
            os.unlink(temp_name)
        raise


class KeyValueStore(ABC):
    """Minimal mapping-style store contract shared by all backends."""

    @abstractmethod
    def put(self, key: str, value: object) -> None:
        """Store ``value`` under ``key``, replacing any previous value."""

    @abstractmethod
    def get(self, key: str, default: object = _MISSING) -> object:
        """Fetch the value for ``key``.

        Raises :class:`NotFoundError` for unknown keys unless a
        ``default`` is supplied.
        """

    @abstractmethod
    def delete(self, key: str) -> bool:
        """Remove ``key``; returns whether it existed."""

    @abstractmethod
    def keys(self, prefix: str = "") -> list[str]:
        """All keys starting with ``prefix``, sorted."""

    def contains(self, key: str) -> bool:
        return self.get(key, default=None) is not None or key in self.keys(key)

    def __contains__(self, key: str) -> bool:
        sentinel = object()
        return self.get(key, default=sentinel) is not sentinel

    def __len__(self) -> int:
        return len(self.keys())

    def items(self, prefix: str = "") -> list[tuple[str, object]]:
        return [(key, self.get(key)) for key in self.keys(prefix)]

    def clear(self) -> None:
        for key in self.keys():
            self.delete(key)


class InMemoryKeyValueStore(KeyValueStore):
    """Plain dict-backed store."""

    def __init__(self) -> None:
        self._data: dict[str, object] = {}

    def put(self, key: str, value: object) -> None:
        self._data[key] = value

    def get(self, key: str, default: object = _MISSING) -> object:
        if key in self._data:
            return self._data[key]
        if default is _MISSING:
            raise NotFoundError(f"no value for key {key!r}")
        return default

    def delete(self, key: str) -> bool:
        return self._data.pop(key, _MISSING) is not _MISSING

    def keys(self, prefix: str = "") -> list[str]:
        return sorted(key for key in self._data if key.startswith(prefix))


class FileKeyValueStore(KeyValueStore):
    """JSON-file-backed store with atomic persistence.

    The whole store is one JSON object on disk; every mutation rewrites
    it atomically (write to a temp file in the same directory, then
    ``os.replace``).  Values must be JSON-serializable.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._data: dict[str, object] = {}
        if self.path.exists():
            self._data = json.loads(self.path.read_text())

    def _flush(self) -> None:
        write_json_atomic(self.path, self._data)

    def put(self, key: str, value: object) -> None:
        try:
            json.dumps(value)
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"value for key {key!r} is not JSON-serializable: {exc}"
            ) from exc
        self._data[key] = value
        self._flush()

    def get(self, key: str, default: object = _MISSING) -> object:
        if key in self._data:
            return self._data[key]
        if default is _MISSING:
            raise NotFoundError(f"no value for key {key!r}")
        return default

    def delete(self, key: str) -> bool:
        existed = self._data.pop(key, _MISSING) is not _MISSING
        if existed:
            self._flush()
        return existed

    def keys(self, prefix: str = "") -> list[str]:
        return sorted(key for key in self._data if key.startswith(prefix))
