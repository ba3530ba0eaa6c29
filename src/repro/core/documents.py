"""The self-defined JSON schema interface (Section 5.1).

"Spitz supports both SQL and a self-defined JSON schema."  This module
is the JSON side: schemaless *collections* of documents, each document
a JSON object addressed by a string id.  A document is one version
under its ``DOC_PREFIX`` key, committed like any table cell (so reads
are verifiable and history is free), and the database posts its
top-level scalar fields in the inverted index for `find()` queries
(:meth:`SpitzDatabase._repost`), so WAL replay and checkpoint load
rebuild them too.  This module is a codec plus validation over the
database's own write and read paths.

A *schema* in the "self-defined" sense is an optional, per-collection
validator document::

    {"required": ["name"], "types": {"name": "str", "age": "int"}}

enforced at insert/replace time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import QueryError, SchemaError
from repro.core.database import SpitzDatabase
from repro.core.proofs import LedgerProof
from repro.core.query import SearchPredicate
from repro.core.schema import (
    DOC_PREFIX,
    decode_document,
    encode_document,
    prefix_end,
)
from repro.core.verifier import ClientVerifier

_TYPE_CHECKS = {
    "str": str,
    "int": int,
    "float": (int, float),
    "bool": bool,
    "list": list,
    "object": dict,
}


class Collection:
    """One named collection of JSON documents.

    Obtain instances from :meth:`DocumentStore.collection`.
    """

    def __init__(
        self,
        db: SpitzDatabase,
        name: str,
        schema: Optional[Dict[str, Any]] = None,
    ):
        if not name or "\x00" in name:
            raise SchemaError(f"invalid collection name {name!r}")
        self._db = db
        self.name = name
        self.schema = schema
        self._prefix = (
            DOC_PREFIX + name.encode("utf-8") + b"\x00"
        )

    # -- keys ----------------------------------------------------------------

    def _key(self, doc_id: str) -> bytes:
        if not doc_id:
            raise SchemaError("document id must be non-empty")
        return self._prefix + doc_id.encode("utf-8")

    def _index_column(self, field: str) -> str:
        return f"{self.name}#doc.{field}"

    # -- validation -------------------------------------------------------------

    def _validate(self, document: Dict[str, Any]) -> None:
        if not isinstance(document, dict):
            raise SchemaError("a document must be a JSON object")
        if self.schema is None:
            return
        for field in self.schema.get("required", []):
            if field not in document:
                raise SchemaError(
                    f"document is missing required field {field!r}"
                )
        for field, type_name in self.schema.get("types", {}).items():
            if field not in document:
                continue
            expected = _TYPE_CHECKS.get(type_name)
            if expected is None:
                raise SchemaError(f"unknown schema type {type_name!r}")
            value = document[field]
            if type_name in ("int", "float") and isinstance(value, bool):
                raise SchemaError(
                    f"field {field!r}: bool is not {type_name}"
                )
            if not isinstance(value, expected):
                raise SchemaError(
                    f"field {field!r} expects {type_name}, got "
                    f"{type(value).__name__}"
                )

    # -- writes --------------------------------------------------------------------

    def put(self, doc_id: str, document: Dict[str, Any]) -> None:
        """Insert or replace one document (one ledger block).  A field
        whose kind (string or number) is not the one its column's
        postings hold is refused before anything is written."""
        self._validate(document)
        self._db._commit(
            {self._key(doc_id): encode_document(document)},
            statements=(f"DOC PUT {self.name}/{doc_id}",),
        )

    def delete(self, doc_id: str) -> bool:
        """Remove a document (history stays in older blocks)."""
        key = self._key(doc_id)
        if self._db._live(key) is None:
            return False
        self._db._commit(
            {key: None},
            statements=(f"DOC DELETE {self.name}/{doc_id}",),
        )
        return True

    # -- reads ----------------------------------------------------------------------

    def get(self, doc_id: str) -> Optional[Dict[str, Any]]:
        """Unverified read of one document via the version map."""
        return decode_document(self._db._live(self._key(doc_id)))

    def get_verified(
        self, doc_id: str
    ) -> Tuple[Optional[Dict[str, Any]], LedgerProof]:
        """Document plus its ledger proof."""
        self._db.flush_ledger()
        raw, proof = self._db.ledger.get_with_proof(self._key(doc_id))
        return decode_document(raw), proof

    def ids(self) -> List[str]:
        """All document ids, sorted."""
        entries = self._db.versions.range(
            self._prefix, prefix_end(self._prefix), inclusive=False
        )
        return [
            key[len(self._prefix):].decode("utf-8") for key, _ in entries
        ]

    def find(
        self,
        field: str,
        value: Any = None,
        low: Any = None,
        high: Any = None,
    ) -> List[Tuple[str, Dict[str, Any]]]:
        """Documents whose indexed ``field`` equals ``value`` or lies
        in ``[low, high]``.  Returns (id, document) pairs."""
        if value is not None:
            predicate = SearchPredicate.eq(value)
        elif low is not None and high is not None:
            predicate = SearchPredicate.between(low, high)
        else:
            raise QueryError("find() needs value= or low=/high=")
        tokens = self._db.inverted.matching(
            self._index_column(field), predicate
        )
        # The postings follow the live documents: every token is one.
        doc_ids = [token.decode("utf-8") for token in tokens]
        return [(doc_id, self.get(doc_id)) for doc_id in doc_ids]

    def history(
        self, doc_id: str
    ) -> List[Tuple[int, Optional[Dict[str, Any]]]]:
        """(block height, document state) at every change."""
        self._db.flush_ledger()
        changes = self._db.ledger.key_history(self._key(doc_id))
        return [(height, decode_document(raw)) for height, raw in changes]

    def get_at_block(
        self, doc_id: str, height: int
    ) -> Optional[Dict[str, Any]]:
        """Historical document state as of block ``height``."""
        self._db.flush_ledger()
        return decode_document(
            self._db.ledger.get_at(self._key(doc_id), height)
        )


class DocumentStore:
    """Facade: named collections over one Spitz database."""

    def __init__(self, db: Optional[SpitzDatabase] = None):
        self.db = db if db is not None else SpitzDatabase()
        self._collections: Dict[str, Collection] = {}

    def collection(
        self, name: str, schema: Optional[Dict[str, Any]] = None
    ) -> Collection:
        """Get or create a collection (idempotent; a schema passed on
        the first call sticks)."""
        existing = self._collections.get(name)
        if existing is not None:
            if schema is not None and existing.schema != schema:
                raise SchemaError(
                    f"collection {name!r} already exists with a "
                    "different schema"
                )
            return existing
        created = Collection(self.db, name, schema)
        self._collections[name] = created
        return created

    def collections(self) -> List[str]:
        return sorted(self._collections)

    def digest(self):
        return self.db.digest()

    def verifier(self) -> ClientVerifier:
        """A client verifier pre-trusted with the current digest."""
        verifier = ClientVerifier()
        verifier.trust(self.db.digest())
        return verifier
