"""Unit tests for search predicates and the SearchProof tamper matrix.

A search proof is a claim over one ledger range proof of a column's
posting keys.  The tamper matrix: a dropped, fabricated or reordered
match, a boundary omission, a narrowed range, evidence about a
neighbouring column, a KV range handed over as evidence, ``eq``
evidence wider than ``[k, k]``, evidence from an older block, and
undecodable proof nodes must all verify ``False`` (never raise) for
both keyword and numeric-range predicates.
"""

from dataclasses import replace

import pytest

from repro.errors import CommitNotFoundError, QueryError
from repro.forkbase.chunk_store import ChunkStore
from repro.core.ledger import SpitzLedger
from repro.core.query import SearchPredicate
from repro.indexes.inverted import InvertedIndex, encode_search_value
from repro.search.committed import (
    column_prefix,
    encode_postings,
    posting_key,
    posting_writes,
)
from repro.search.proofs import build_search_proof


# -- predicates -------------------------------------------------------------


class TestSearchPredicate:
    def test_parse_grammar(self):
        assert SearchPredicate.parse(">= 10") == SearchPredicate.ge(10)
        assert SearchPredicate.parse("<2.5") == SearchPredicate.lt(2.5)
        assert SearchPredicate.parse("== alice") == SearchPredicate.eq(
            "alice"
        )
        assert SearchPredicate.parse("alice") == SearchPredicate.eq("alice")
        # Single '=' must not fall through to a bare literal starting
        # with '=' — that would silently match nothing.
        assert SearchPredicate.parse("= alice") == SearchPredicate.eq(
            "alice"
        )
        assert SearchPredicate.parse("= 'apple'") == SearchPredicate.eq(
            "apple"
        )
        assert SearchPredicate.parse("'10'") == SearchPredicate.eq("10")
        assert SearchPredicate.parse("between 3 7") == (
            SearchPredicate.between(3, 7)
        )

    def test_parse_rejects_garbage(self):
        for bad in ["", "   ", "between 1", ">=", "between 1 2 3"]:
            with pytest.raises(QueryError):
                SearchPredicate.parse(bad)

    def test_constructor_guards(self):
        with pytest.raises(QueryError):
            SearchPredicate("like", value="x")
        with pytest.raises(QueryError):
            SearchPredicate("between", value=1, low=1, high=2)
        with pytest.raises(QueryError):
            SearchPredicate("eq", low=1)

    @pytest.mark.parametrize(
        "predicate",
        [
            SearchPredicate.eq(True),
            SearchPredicate.eq(None),
            SearchPredicate.eq(float("nan")),
            SearchPredicate.eq(b"bytes"),
            SearchPredicate.ne(1),
            SearchPredicate.between(5, 2),
            SearchPredicate.between(1, "z"),
        ],
    )
    def test_search_refuses_what_no_walk_answers(self, predicate):
        with pytest.raises(QueryError):
            predicate.searchable()
        with pytest.raises(QueryError):
            SearchPredicate.from_payload(predicate.to_payload())

    def test_parse_refuses_nan(self):
        with pytest.raises(QueryError):
            SearchPredicate.parse("= nan")

    def test_matches_semantics(self):
        assert SearchPredicate.ge(10).matches(10)
        assert not SearchPredicate.gt(10).matches(10)
        assert SearchPredicate.le(10).matches(10)
        assert not SearchPredicate.lt(10).matches(10)
        assert SearchPredicate.between(3, 7).matches(3)
        assert SearchPredicate.between(3, 7).matches(7)
        assert not SearchPredicate.between(3, 7).matches(7.5)
        # Cross-type candidates never match.
        assert not SearchPredicate.ge(10).matches("10")
        assert not SearchPredicate.eq("a").matches(97)
        assert not SearchPredicate.eq(1).matches(True)
        assert SearchPredicate.ne(1).matches(True)
        assert SearchPredicate.eq(True).matches(True)
        assert not SearchPredicate.gt(1).matches(True)

    def test_payload_round_trip(self):
        for predicate in [
            SearchPredicate.eq("term"),
            SearchPredicate.gt(1.5),
            SearchPredicate.between("a", "b"),
        ]:
            assert (
                SearchPredicate.from_payload(predicate.to_payload())
                == predicate
            )

    def test_strict_bounds_scan_inclusively(self):
        low, high = SearchPredicate.gt(10).bounds()
        assert low == encode_search_value(10)
        ge_low, _ = SearchPredicate.ge(10).bounds()
        assert low == ge_low  # boundary rides along, re-excluded later

    def test_eq_bounds_are_one_value(self):
        key = encode_search_value(1)
        assert SearchPredicate.eq(1).bounds() == (key, key)
        with pytest.raises(QueryError):
            SearchPredicate.ne(1).bounds()


# -- fixture: a ledger whose tip commits the postings ------------------------


COLUMNS = ["t.term", "t.score", "t.a", "t.ab"]


@pytest.fixture()
def plane():
    ledger = SpitzLedger(ChunkStore())
    inverted = InvertedIndex()
    rows = [
        ("alpha", 10.0, b"uk-01"),
        ("alpha", 20.0, b"uk-02"),
        ("beta", 20.0, b"uk-03"),
        ("gamma", 30.0, b"uk-04"),
        ("delta", 40.0, b"uk-05"),
    ]
    for term, score, ukey in rows:
        inverted.add("t.term", term, ukey)
        inverted.add("t.score", score, ukey)
    inverted.add("t.a", 1, b"uk-a")
    inverted.add("t.ab", 1, b"uk-ab")
    writes = posting_writes(inverted, COLUMNS)
    writes[b"k\x00kv"] = b"a key-value row"
    ledger.append_block(writes)
    return ledger, inverted


class TestBuildAndVerify:
    def test_keyword_proof_verifies(self, plane):
        ledger, _ = plane
        proof = build_search_proof(
            ledger, "t.term", SearchPredicate.eq("alpha")
        )
        assert proof.verify(ledger.digest().chain_digest)
        assert proof.ukeys == (b"uk-01", b"uk-02")
        assert proof.result_count == 2
        assert proof.size_bytes > 0
        assert proof.label.startswith("search:t.term:")

    def test_range_proof_verifies(self, plane):
        ledger, inverted = plane
        predicate = SearchPredicate.between(15.0, 35.0)
        proof = build_search_proof(ledger, "t.score", predicate)
        assert proof.verify(ledger.digest().chain_digest)
        assert set(proof.ukeys) == {b"uk-02", b"uk-03", b"uk-04"}
        assert set(proof.ukeys) == set(
            inverted.matching("t.score", predicate)
        )

    def test_strict_bound_excludes_boundary(self, plane):
        ledger, inverted = plane
        predicate = SearchPredicate.gt(20)
        proof = build_search_proof(ledger, "t.score", predicate)
        assert proof.verify(ledger.digest().chain_digest)
        assert set(proof.ukeys) == {b"uk-04", b"uk-05"}
        assert set(proof.ukeys) == set(
            inverted.matching("t.score", predicate)
        )

    def test_verified_empty_result(self, plane):
        ledger, _ = plane
        proof = build_search_proof(
            ledger, "t.term", SearchPredicate.eq("nope")
        )
        assert proof.matches == ()
        assert proof.verify(ledger.digest().chain_digest)

    def test_unindexed_column_supports_only_empty_claim(self, plane):
        ledger, _ = plane
        proof = build_search_proof(
            ledger, "t.other", SearchPredicate.eq("x")
        )
        assert proof.evidence.entries == ()
        assert proof.verify(ledger.digest().chain_digest)
        forged = replace(
            proof, matches=((b"sx", (b"uk-99",)),)
        )
        assert not forged.verify(ledger.digest().chain_digest)

    def test_unsealed_ledger_refuses_to_prove(self):
        with pytest.raises(CommitNotFoundError):
            build_search_proof(
                SpitzLedger(), "t.term", SearchPredicate.eq("a")
            )


# -- tamper matrix ----------------------------------------------------------


def _keyword_proof(plane):
    ledger, _ = plane
    return ledger, build_search_proof(
        ledger, "t.term", SearchPredicate.eq("alpha")
    )


def _range_proof(plane):
    ledger, _ = plane
    return ledger, build_search_proof(
        ledger, "t.score", SearchPredicate.between(15.0, 35.0)
    )


class TestTamperMatrix:
    @pytest.mark.parametrize("build", [_keyword_proof, _range_proof])
    def test_dropped_match(self, plane, build):
        ledger, proof = build(plane)
        tampered = replace(proof, matches=proof.matches[:-1])
        assert not tampered.verify(ledger.digest().chain_digest)

    @pytest.mark.parametrize("build", [_keyword_proof, _range_proof])
    def test_dropped_posting_inside_match(self, plane, build):
        ledger, proof = build(plane)
        value, postings = proof.matches[0]
        tampered = replace(
            proof, matches=((value, postings[:-1]),) + proof.matches[1:]
        )
        assert not tampered.verify(ledger.digest().chain_digest)

    @pytest.mark.parametrize("build", [_keyword_proof, _range_proof])
    def test_fabricated_match(self, plane, build):
        ledger, proof = build(plane)
        value, postings = proof.matches[0]
        tampered = replace(
            proof,
            matches=((value, postings + (b"uk-evil",)),)
            + proof.matches[1:],
        )
        assert not tampered.verify(ledger.digest().chain_digest)

    def test_boundary_omission(self, plane):
        ledger, proof = _range_proof(plane)
        scan = proof.evidence.range_proof
        # Drop the first proven entry — on an inclusive range this is a
        # boundary leaf; the replayed scan no longer hashes to the root.
        tampered_evidence = replace(
            proof.evidence,
            range_proof=replace(scan, entries=scan.entries[1:]),
        )
        tampered = replace(
            proof,
            matches=proof.matches[1:],
            evidence=tampered_evidence,
        )
        assert not tampered.verify(ledger.digest().chain_digest)

    def test_narrowed_range(self, plane):
        ledger, _ = plane
        narrow = build_search_proof(
            ledger, "t.score", SearchPredicate.between(15.0, 25.0)
        )
        # Re-label a narrower (complete, authentic) scan as the wider
        # query: bounds mismatch must be detected.
        widened = replace(
            narrow, predicate=SearchPredicate.between(15.0, 35.0)
        )
        assert not widened.verify(ledger.digest().chain_digest)

    @pytest.mark.parametrize("build", [_keyword_proof, _range_proof])
    def test_stale_index_root(self, plane, build):
        """Evidence from an older block: the chain moved on."""
        ledger, inverted = plane
        _, proof = build(plane)
        older = ledger.digest().chain_digest
        inverted.add("t.term", "alpha", b"uk-06")
        ledger.append_block({
            posting_key("t.term", "alpha"): encode_postings(
                inverted.lookup("t.term", "alpha")
            ),
        })
        assert not proof.verify(ledger.digest().chain_digest)
        assert proof.verify(older)
        # A fresh proof against the new state verifies again.
        _, fresh = build(plane)
        assert fresh.verify(ledger.digest().chain_digest)

    def test_neighbouring_column_evidence(self, plane):
        ledger, _ = plane
        trusted = ledger.digest().chain_digest
        for asked, proven in [("t.a", "t.ab"), ("t.ab", "t.a")]:
            proof = build_search_proof(
                ledger, proven, SearchPredicate.eq(1)
            )
            assert proof.verify(trusted)
            assert not replace(proof, column=asked).verify(trusted)

    def test_kv_range_as_evidence(self, plane):
        ledger, _ = plane
        trusted = ledger.digest().chain_digest
        _entries, kv = ledger.scan_with_proof(b"k\x00", b"k\x00\xff")
        assert kv.entries and kv.verify(trusted)
        proof = build_search_proof(
            ledger, "t.term", SearchPredicate.eq("nope")
        )
        assert not replace(proof, evidence=kv).verify(trusted)

    def test_eq_evidence_wider_than_one_value(self, plane):
        ledger, _ = plane
        trusted = ledger.digest().chain_digest
        prefix = column_prefix("t.score")
        _entries, wide = ledger.scan_with_proof(
            prefix + encode_search_value(10.0),
            prefix + encode_search_value(30.0),
        )
        assert wide.verify(trusted)
        proof = build_search_proof(
            ledger, "t.score", SearchPredicate.eq(20.0)
        )
        assert proof.verify(trusted)
        assert not replace(proof, evidence=wide).verify(trusted)

    @pytest.mark.parametrize("build", [_keyword_proof, _range_proof])
    def test_undecodable_evidence_nodes(self, plane, build):
        ledger, proof = build(plane)
        scan = proof.evidence.range_proof
        garbage = tuple(b"\xff garbage node" for _ in scan.nodes)
        tampered = replace(proof, evidence=replace(
            proof.evidence, range_proof=replace(scan, nodes=garbage),
        ))
        assert tampered.verify(ledger.digest().chain_digest) is False  # not an exception

    def test_non_canonical_postings_detected(self, plane):
        ledger, proof = _keyword_proof(plane)
        value, postings = proof.matches[0]
        # Claim the same set in a different order: matches are compared
        # against the canonical decode, so ordering tampering fails.
        tampered = replace(
            proof, matches=((value, tuple(reversed(postings))),)
        )
        assert not tampered.verify(ledger.digest().chain_digest)

    def test_evidence_of_another_shape(self, plane):
        ledger, proof = _keyword_proof(plane)
        _value, point = ledger.get_with_proof(b"k\x00kv")
        tampered = replace(proof, evidence=point)
        assert tampered.verify(ledger.digest().chain_digest) is False


# -- unverified evaluation: the one walk answers as the proof does ----------


class TestEvaluateOnInverted:
    def test_eq_and_range_match_brute_force(self, plane):
        _, inverted = plane
        assert inverted.matching("t.term", SearchPredicate.eq("beta")) == [
            b"uk-03"
        ]
        assert inverted.matching("t.score", SearchPredicate.le(20)) == [
            b"uk-01", b"uk-02", b"uk-03"
        ]

    def test_type_mismatch_yields_empty(self, plane):
        _, inverted = plane
        assert inverted.matching("t.score", SearchPredicate.ge("zz")) == []
        assert inverted.matching("t.term", SearchPredicate.gt(5)) == []

    def test_unknown_column_yields_empty(self, plane):
        _, inverted = plane
        assert inverted.matching("t.nope", SearchPredicate.eq(1)) == []

    @pytest.mark.parametrize(
        "column,predicate",
        [
            ("t.term", SearchPredicate.eq("beta")),
            ("t.term", SearchPredicate.gt("alpha")),
            ("t.term", SearchPredicate.lt("delta")),
            ("t.score", SearchPredicate.le(20)),
            ("t.score", SearchPredicate.gt(20)),
            ("t.score", SearchPredicate.between(15.0, 35.0)),
            # An operand the column's postings cannot hold matches
            # nothing on either path.
            ("t.score", SearchPredicate.ge("zz")),
            ("t.term", SearchPredicate.gt(5)),
            ("t.nope", SearchPredicate.eq(1)),
        ],
    )
    def test_walk_equals_proven_matches(self, plane, column, predicate):
        ledger, inverted = plane
        proof = build_search_proof(ledger, column, predicate)
        assert proof.verify(ledger.digest().chain_digest)
        assert inverted.matching(column, predicate) == list(proof.ukeys)
