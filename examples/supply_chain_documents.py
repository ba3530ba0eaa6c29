"""Supply chain: JSON documents, offline evidence, replica audits.

Logistics is one of the paper's target applications (Figure 2:
"Logistic Orders").  A shipment passes through parties that do not
trust each other; each custody transfer is recorded as a new version
of the shipment document.  This example exercises the reproduction's
extension surface:

- the self-defined JSON schema interface (Section 5.1) via
  :class:`~repro.core.documents.DocumentStore`;
- offline evidence packages (:func:`make_bundle` /
  :func:`verify_bundle`) a party can hand to an arbitrator;
- replica comparison (:func:`compare_replicas`) catching a partner
  that forked its copy of the ledger;
- durability: the store lives in a database directory (write-ahead
  log + checkpoints) and reopens to the same chain digest.

Run:  python examples/supply_chain_documents.py
"""

import tempfile
from pathlib import Path

from repro import (
    DocumentStore,
    compare_replicas,
    make_bundle,
    verify_bundle,
)
from repro.core.audit import ProofBundle
from repro.durability import DurableDatabase


def main() -> None:
    path = Path(tempfile.mkdtemp()) / "supply-chain.d"
    durable = DurableDatabase.open(path)
    store = DocumentStore(durable.db)
    shipments = store.collection(
        "shipments",
        schema={
            "required": ["sku", "custodian", "status"],
            "types": {"sku": "str", "custodian": "str",
                      "temperature_c": "float"},
        },
    )

    # -- custody chain ---------------------------------------------------
    print("== custody chain for shipment SH-001 ==")
    legs = [
        {"sku": "vaccine-lot-77", "custodian": "factory",
         "status": "packed", "temperature_c": 4.0},
        {"sku": "vaccine-lot-77", "custodian": "air-freight",
         "status": "in-transit", "temperature_c": 5.5},
        {"sku": "vaccine-lot-77", "custodian": "cold-store-oslo",
         "status": "warehoused", "temperature_c": 3.8},
        {"sku": "vaccine-lot-77", "custodian": "clinic-14",
         "status": "delivered", "temperature_c": 4.2},
    ]
    for leg in legs:
        shipments.put("SH-001", leg)
        print(f"  {leg['custodian']:16s} -> {leg['status']}")

    print("\nfull custody history (from the ledger):")
    for height, state in shipments.history("SH-001"):
        if state:
            print(f"  block #{height}: {state['custodian']} "
                  f"({state['temperature_c']}°C)")

    # -- find: which shipments got too warm? --------------------------------
    shipments.put("SH-002", {"sku": "vaccine-lot-78",
                             "custodian": "air-freight",
                             "status": "in-transit",
                             "temperature_c": 9.5})
    warm = shipments.find("temperature_c", low=8.0, high=100.0)
    print("\nshipments above 8°C:", [doc_id for doc_id, _ in warm])

    # -- offline evidence for the arbitrator -----------------------------------
    print("\n== evidence bundle ==")
    store.db.flush_ledger()
    key = shipments._key("SH-001")
    bundle = make_bundle(
        store.db.ledger, key, "final custody state of SH-001"
    )
    blob = bundle.serialize()
    print(f"  bundle: {len(blob)} bytes, claim: {bundle.description!r}")
    # The arbitrator, offline, holding only the published digest:
    restored = ProofBundle.deserialize(blob)
    ok, message = verify_bundle(restored, trusted=store.db.digest())
    print(f"  arbitrator check: {message}")
    assert ok

    # -- replica audit ------------------------------------------------------------
    print("\n== replica audit ==")
    honest = DocumentStore()
    crooked = DocumentStore()
    for replica in (honest, crooked):
        c = replica.collection("shipments")
        c.put("SH-001", legs[0])
        c.put("SH-001", legs[1])
    # The crooked partner rewrites history: the shipment "never" left
    # the factory cold chain.
    crooked.collection("shipments").put(
        "SH-001", {"sku": "vaccine-lot-77", "custodian": "factory",
                   "status": "packed", "temperature_c": 4.0}
    )
    honest.collection("shipments").put("SH-001", legs[2])
    report = compare_replicas(honest.db.ledger, crooked.db.ledger)
    print(f"  consistent: {report.consistent}")
    print(f"  {report.detail}")
    assert not report.consistent

    # -- durability ---------------------------------------------------------------------
    print("\n== reopen from disk ==")
    digest = store.db.digest()
    durable.close()
    with DurableDatabase.open(path) as reopened:
        assert reopened.db.digest() == digest
        report = reopened.last_recovery
        print(f"  replayed {report.replayed} logged commits; reopened digest "
              "matches; a tampered log raises TamperDetectedError")
        still_warm = DocumentStore(reopened.db).collection("shipments").find(
            "temperature_c", low=8.0, high=100.0
        )
        print("  shipments above 8°C after the reopen:",
              [doc_id for doc_id, _ in still_warm])
        assert still_warm == warm


if __name__ == "__main__":
    main()
