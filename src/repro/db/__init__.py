"""Relational database substrate with pluggable storage backends.

This package provides the relational engine the keyword-search systems of the
thesis run on: schemas with foreign keys (exposed as an undirected *schema
graph*), tuple storage, selection/join execution for candidate networks, an
inverted index over textual attributes with the term statistics the
probabilistic models need (TF, ATF, DF, IDF), and a tuple-level data graph for
the data-based baselines.

Storage is pluggable (:mod:`repro.db.backends`): the default ``Database`` is
the in-memory :class:`MemoryBackend`; :class:`SQLiteBackend` persists datasets
to disk and pushes join execution down to SQL.  Both implement the
:class:`StorageBackend` contract, which replaces the MySQL + Lucene substrate
used by the original experiments while exercising the same code paths:
a-priori inverted indexing, schema-graph exploration and SQL-style join
evaluation.
"""

from repro.db.backends import (
    MemoryBackend,
    SQLiteBackend,
    StorageBackend,
    available_backends,
    create_backend,
    register_backend,
)
from repro.db.database import Database
from repro.db.datagraph import DataGraph
from repro.db.errors import (
    DatabaseError,
    DuplicateTableError,
    IntegrityError,
    UnknownAttributeError,
    UnknownTableError,
)
from repro.db.index import AttributeStatistics, InvertedIndex, Posting
from repro.db.schema import Attribute, ForeignKey, Schema, Table
from repro.db.table import Relation, Tuple
from repro.db.tokenizer import Tokenizer, tokenize

__all__ = [
    "Attribute",
    "AttributeStatistics",
    "DataGraph",
    "Database",
    "DatabaseError",
    "DuplicateTableError",
    "ForeignKey",
    "IntegrityError",
    "InvertedIndex",
    "MemoryBackend",
    "Posting",
    "Relation",
    "SQLiteBackend",
    "Schema",
    "StorageBackend",
    "Table",
    "Tokenizer",
    "Tuple",
    "UnknownAttributeError",
    "UnknownTableError",
    "available_backends",
    "create_backend",
    "register_backend",
    "tokenize",
]
