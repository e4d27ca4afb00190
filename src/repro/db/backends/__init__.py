"""Pluggable storage backends.

The registry maps backend names (as used by ``--backend`` on the CLI and the
``backend=`` parameter of the dataset builders) to :class:`StorageBackend`
subclasses.  Third-party engines register themselves with
:func:`register_backend`; see ``docs/architecture.md`` for the contract a new
backend must satisfy.  SQL-speaking backends share the planner/compiler
layer in :mod:`repro.db.backends.sql` instead of building statement text
themselves.
"""

from __future__ import annotations

from pathlib import Path
from typing import Type

from repro.db.backends.base import (
    BatchedExecution,
    PathSpec,
    RelationView,
    Selection,
    SelectionsByPosition,
    StorageBackend,
)
from repro.db.backends.memory import MemoryBackend
from repro.db.backends.sharded import ShardedSQLiteBackend
from repro.db.backends.sqlite import SQLiteBackend, SQLiteRelation
from repro.db.schema import Schema
from repro.db.tokenizer import DEFAULT_TOKENIZER, Tokenizer

_REGISTRY: dict[str, Type[StorageBackend]] = {}


def register_backend(cls: Type[StorageBackend]) -> Type[StorageBackend]:
    """Register a backend class under its ``name`` (usable as a decorator)."""
    if not cls.name or cls.name == "abstract":
        raise ValueError(f"backend class {cls.__name__} needs a concrete name")
    _REGISTRY[cls.name] = cls
    return cls


register_backend(MemoryBackend)
register_backend(SQLiteBackend)
register_backend(ShardedSQLiteBackend)


def available_backends() -> list[str]:
    """Names accepted by :func:`create_backend` (and the CLI's ``--backend``)."""
    return sorted(_REGISTRY)


def resolve_shard_layout(
    backend: str | StorageBackend, shards: int | None = None
) -> int | None:
    """The concrete shard count a backend/shards request resolves to.

    ``None`` for backends without sharding support; sharding backends
    resolve an unspecified count to their class default.  Pool keys (the
    query server's) normalize through this, so "sharded with the default
    layout" and "sharded with ``shards=<default>``" share one engine instead
    of building the same physical store twice.
    """
    if isinstance(backend, StorageBackend):
        return getattr(backend, "shards", None)
    cls = _REGISTRY.get(backend)
    if cls is None or not cls.supports_sharding:
        return None  # create_backend raises on an explicit-shards misuse
    if shards is not None:
        return shards
    default = getattr(cls, "DEFAULT_SHARDS", None)
    return default


def create_backend(
    backend: str | StorageBackend,
    schema: Schema,
    *,
    path: str | Path | None = None,
    tokenizer: Tokenizer = DEFAULT_TOKENIZER,
    shards: int | None = None,
    read_pool_size: int | None = None,
) -> StorageBackend:
    """Instantiate a backend by registry name.

    ``backend`` may also be an already-constructed instance, which is
    returned unchanged — the hook tests and embedders use to inject a
    preconfigured engine.  ``path`` is only meaningful for persistent
    backends; combining it with ``"memory"`` or with an already-constructed
    instance (whose storage location is fixed) raises to catch silent data
    loss.  ``shards`` is only meaningful for backends with
    ``supports_sharding`` (the partition count of ``"sqlite-sharded"``), and
    ``read_pool_size`` for backends with ``supports_read_pool`` (the
    reader-connection cap of the SQLite backends; ``1`` is a pool of one).
    Unlike ``path``/``shards``, ``read_pool_size`` *is* accepted alongside an
    existing instance — it is a tunable, not a storage-layout choice.
    """
    if isinstance(backend, StorageBackend):
        if path is not None:
            raise ValueError(
                "cannot combine an existing backend instance with a storage path"
            )
        if shards is not None:
            raise ValueError(
                "cannot combine an existing backend instance with a shard count"
            )
        if read_pool_size is not None:
            backend.configure_read_pool(read_pool_size)
        return backend
    try:
        cls = _REGISTRY[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; available: {', '.join(available_backends())}"
        ) from None
    kwargs: dict = {"tokenizer": tokenizer}
    if path is not None:
        if not cls.persistent:
            raise ValueError(f"backend {backend!r} does not support a storage path")
        kwargs["path"] = path
    if shards is not None:
        if not cls.supports_sharding:
            raise ValueError(f"backend {backend!r} does not support sharding")
        kwargs["shards"] = shards
    if read_pool_size is not None:
        if not cls.supports_read_pool:
            raise ValueError(
                f"backend {backend!r} does not support a read-connection pool"
            )
        kwargs["read_pool_size"] = read_pool_size
    return cls(schema, **kwargs)


__all__ = [
    "BatchedExecution",
    "MemoryBackend",
    "PathSpec",
    "RelationView",
    "SQLiteBackend",
    "SQLiteRelation",
    "Selection",
    "SelectionsByPosition",
    "ShardedSQLiteBackend",
    "StorageBackend",
    "available_backends",
    "create_backend",
    "register_backend",
    "resolve_shard_layout",
]
