"""Unit tests for search predicates and the SearchProof tamper matrix.

The tamper matrix is the ISSUE's acceptance bar: dropped match,
fabricated match, boundary omission, stale index root, and undecodable
proof nodes must all verify ``False`` (never raise) for both keyword
and numeric-range predicates.
"""

from dataclasses import replace

import pytest

from repro.errors import QueryError
from repro.forkbase.chunk_store import ChunkStore
from repro.core.ledger import SpitzLedger
from repro.core.query import SearchPredicate
from repro.indexes.inverted import InvertedIndex, encode_search_value
from repro.search.committed import SEARCH_ROOT_KEY, CommittedSearchIndex
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

    def test_eq_has_no_bounds(self):
        with pytest.raises(QueryError):
            SearchPredicate.eq(1).bounds()


# -- fixture: a sealed ledger + committed index -----------------------------


@pytest.fixture()
def plane():
    chunks = ChunkStore()
    ledger = SpitzLedger(chunks)
    inverted = InvertedIndex()
    index = CommittedSearchIndex(chunks, ["t.term", "t.score"])
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
        index.note_change("t.term", term)
        index.note_change("t.score", score)
    manifest = index.seal(inverted)
    ledger.append_block({SEARCH_ROOT_KEY: manifest})
    return ledger, index, inverted


class TestBuildAndVerify:
    def test_keyword_proof_verifies(self, plane):
        ledger, index, _ = plane
        proof = build_search_proof(
            ledger, index, "t.term", SearchPredicate.eq("alpha")
        )
        assert proof.verify(ledger.digest().chain_digest)
        assert proof.ukeys == (b"uk-01", b"uk-02")
        assert proof.result_count == 2
        assert proof.size_bytes > 0
        assert proof.label.startswith("search:t.term:")

    def test_range_proof_verifies(self, plane):
        ledger, index, inverted = plane
        predicate = SearchPredicate.between(15.0, 35.0)
        proof = build_search_proof(ledger, index, "t.score", predicate)
        assert proof.verify(ledger.digest().chain_digest)
        assert set(proof.ukeys) == {b"uk-02", b"uk-03", b"uk-04"}
        assert set(proof.ukeys) == set(
            inverted.matching("t.score", predicate)
        )

    def test_strict_bound_excludes_boundary(self, plane):
        ledger, index, inverted = plane
        predicate = SearchPredicate.gt(20)
        proof = build_search_proof(ledger, index, "t.score", predicate)
        assert proof.verify(ledger.digest().chain_digest)
        assert set(proof.ukeys) == {b"uk-04", b"uk-05"}
        assert set(proof.ukeys) == set(
            inverted.matching("t.score", predicate)
        )

    def test_verified_empty_result(self, plane):
        ledger, index, _ = plane
        proof = build_search_proof(
            ledger, index, "t.term", SearchPredicate.eq("nope")
        )
        assert proof.matches == ()
        assert proof.verify(ledger.digest().chain_digest)

    def test_unindexed_column_supports_only_empty_claim(self, plane):
        ledger, index, _ = plane
        proof = build_search_proof(
            ledger, index, "t.other", SearchPredicate.eq("x")
        )
        assert proof.evidence is None
        assert proof.verify(ledger.digest().chain_digest)
        forged = replace(
            proof, matches=((b"sx", (b"uk-99",)),)
        )
        assert not forged.verify(ledger.digest().chain_digest)

    def test_unsealed_ledger_refuses_to_prove(self):
        chunks = ChunkStore()
        ledger = SpitzLedger(chunks)
        ledger.append_block({b"k\x00x": b"v"})
        index = CommittedSearchIndex(chunks, ["t.term"])
        with pytest.raises(QueryError):
            build_search_proof(
                ledger, index, "t.term", SearchPredicate.eq("a")
            )


# -- tamper matrix ----------------------------------------------------------


def _keyword_proof(plane):
    ledger, index, _ = plane
    return ledger, build_search_proof(
        ledger, index, "t.term", SearchPredicate.eq("alpha")
    )


def _range_proof(plane):
    ledger, index, _ = plane
    return ledger, build_search_proof(
        ledger, index, "t.score", SearchPredicate.between(15.0, 35.0)
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
        evidence = proof.evidence
        # Drop the first proven entry — on an inclusive range this is a
        # boundary leaf; the replayed scan no longer hashes to the root.
        tampered_evidence = replace(evidence, entries=evidence.entries[1:])
        tampered = replace(
            proof,
            matches=proof.matches[1:],
            evidence=tampered_evidence,
        )
        assert not tampered.verify(ledger.digest().chain_digest)

    def test_narrowed_range(self, plane):
        ledger, index, _ = plane
        narrow = build_search_proof(
            ledger, index, "t.score", SearchPredicate.between(15.0, 25.0)
        )
        # Re-label a narrower (complete, authentic) scan as the wider
        # query: bounds mismatch must be detected.
        widened = replace(
            narrow, predicate=SearchPredicate.between(15.0, 35.0)
        )
        assert not widened.verify(ledger.digest().chain_digest)

    @pytest.mark.parametrize("build", [_keyword_proof, _range_proof])
    def test_stale_index_root(self, plane, build):
        ledger, index, inverted = plane
        _, proof = build(plane)
        # Advance the chain with new postings: the old anchor no longer
        # matches the pinned digest.
        inverted.add("t.term", "alpha", b"uk-06")
        index.note_change("t.term", "alpha")
        ledger.append_block({SEARCH_ROOT_KEY: index.seal(inverted)})
        assert not proof.verify(ledger.digest().chain_digest)
        # A fresh proof against the new state verifies again.
        _, fresh = build(plane)
        assert fresh.verify(ledger.digest().chain_digest)

    @pytest.mark.parametrize("build", [_keyword_proof, _range_proof])
    def test_undecodable_evidence_nodes(self, plane, build):
        ledger, proof = build(plane)
        evidence = proof.evidence
        garbage = tuple(b"\xff garbage node" for _ in evidence.nodes)
        tampered = replace(
            proof, evidence=replace(evidence, nodes=garbage)
        )
        assert tampered.verify(ledger.digest().chain_digest) is False  # not an exception

    @pytest.mark.parametrize("build", [_keyword_proof, _range_proof])
    def test_undecodable_anchor_nodes(self, plane, build):
        ledger, proof = build(plane)
        siri = replace(
            proof.anchor.siri,
            nodes=tuple(b"junk" for _ in proof.anchor.siri.nodes),
        )
        tampered = replace(proof, anchor=replace(proof.anchor, siri=siri))
        assert tampered.verify(ledger.digest().chain_digest) is False

    def test_non_canonical_postings_detected(self, plane):
        ledger, proof = _keyword_proof(plane)
        value, postings = proof.matches[0]
        # Claim the same set in a different order: matches are compared
        # against the canonical decode, so ordering tampering fails.
        tampered = replace(
            proof, matches=((value, tuple(reversed(postings))),)
        )
        assert not tampered.verify(ledger.digest().chain_digest)

    def test_wrong_anchor_key_rejected(self, plane):
        ledger, proof = _keyword_proof(plane)
        tampered = replace(
            proof,
            anchor=replace(
                proof.anchor,
                siri=replace(proof.anchor.siri, key=b"k\x00other"),
            ),
        )
        assert not tampered.verify(ledger.digest().chain_digest)


# -- unverified evaluation: the one walk answers as the proof does ----------


class TestEvaluateOnInverted:
    def test_eq_and_range_match_brute_force(self, plane):
        _, _, inverted = plane
        assert inverted.matching("t.term", SearchPredicate.eq("beta")) == [
            b"uk-03"
        ]
        assert inverted.matching("t.score", SearchPredicate.le(20)) == [
            b"uk-01", b"uk-02", b"uk-03"
        ]

    def test_type_mismatch_yields_empty(self, plane):
        _, _, inverted = plane
        assert inverted.matching("t.score", SearchPredicate.ge("zz")) == []
        assert inverted.matching("t.term", SearchPredicate.gt(5)) == []

    def test_unknown_column_yields_empty(self, plane):
        _, _, inverted = plane
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
        ledger, index, inverted = plane
        proof = build_search_proof(ledger, index, column, predicate)
        assert proof.verify(ledger.digest().chain_digest)
        assert inverted.matching(column, predicate) == list(proof.ukeys)
