"""Unit tests for ledger statements and provenance queries."""

import pytest

from repro.core.database import SpitzDatabase
from repro.core.ledger import SpitzLedger
from repro.core.provenance import (
    ProvenanceEntry,
    blocks_touching,
    key_provenance,
    verify_statements,
)
from repro.errors import CommitNotFoundError


class TestLedgerStatements:
    def test_statements_retained(self):
        ledger = SpitzLedger()
        ledger.append_block({b"k": b"v"}, statements=("PUT k",))
        assert ledger.statements(0) == ("PUT k",)

    def test_out_of_range(self):
        with pytest.raises(CommitNotFoundError):
            SpitzLedger().statements(0)

    def test_statements_verify_against_headers(self):
        ledger = SpitzLedger()
        for i in range(5):
            ledger.append_block(
                {f"k{i}".encode(): b"v"}, statements=(f"stmt-{i}",)
            )
        assert verify_statements(ledger) == []

    def test_tampered_statements_detected(self):
        ledger = SpitzLedger()
        ledger.append_block({b"k": b"v"}, statements=("honest",))
        ledger._statements[0] = ("rewritten",)
        assert verify_statements(ledger) == [0]


class TestProvenance:
    def _ledger(self):
        ledger = SpitzLedger()
        ledger.append_block({b"k": b"v1"}, statements=("INSERT k",))
        ledger.append_block({b"other": b"x"}, statements=("INSERT other",))
        ledger.append_block({b"k": b"v2"}, statements=("UPDATE k",))
        ledger.append_block({b"k": None}, statements=("DELETE k",))
        return ledger

    def test_blocks_touching(self):
        assert blocks_touching(self._ledger(), b"k") == [0, 2, 3]

    def test_blocks_touching_untouched_key(self):
        assert blocks_touching(self._ledger(), b"ghost") == []

    def test_key_provenance_values_and_statements(self):
        lineage = key_provenance(self._ledger(), b"k")
        assert [entry.value for entry in lineage] == [b"v1", b"v2", None]
        assert [entry.statements for entry in lineage] == [
            ("INSERT k",), ("UPDATE k",), ("DELETE k",),
        ]

    def test_provenance_through_database_sql(self):
        db = SpitzDatabase()
        db.sql("CREATE TABLE t (id INT, v STR, PRIMARY KEY (id))")
        db.sql("INSERT INTO t (id, v) VALUES (1, 'a')")
        db.sql("UPDATE t SET v = 'b' WHERE id = 1")
        schema = db.table("t")
        key = schema.logical_key("v", schema.pk_bytes(1))
        lineage = key_provenance(db.ledger, key)
        assert len(lineage) == 2
        assert "INSERT INTO t" in lineage[0].statements[0]
        assert "UPDATE t" in lineage[1].statements[0]

    def test_provenance_entry_is_value_object(self):
        entry = ProvenanceEntry(height=1, value=b"v", statements=("s",))
        assert entry == ProvenanceEntry(
            height=1, value=b"v", statements=("s",)
        )
