"""Healthcare records: immutable provenance for patient data.

The paper's Section 1 motivation: "health data needs to be kept for
the lifetime of a patient, and each diagnosis, lab test, prescription,
etc., is appended to the patient profile.  Disease and procedure
coding standards evolve over time, e.g., from ICD-9-CM to ICD-10."

This example shows:
- SQL tables over Spitz, with every statement sealed into the ledger;
- the ICD-9 -> ICD-10 coding migration as new *versions* (the old
  records stay queryable and verifiable forever);
- temporal queries (`AS OF BLOCK`) and per-row history;
- a hospital auditor verifying a record against the ledger digest;
- storage staying sub-linear in versions thanks to deduplication.

Run:  python examples/healthcare_records.py
"""

from repro import ClientVerifier, SpitzDatabase
from repro.core.query import SearchPredicate


def main() -> None:
    db = SpitzDatabase()

    # -- schema -------------------------------------------------------------
    db.sql(
        "CREATE TABLE records (id INT, patient STR, code STR, "
        "description STR, severity INT, PRIMARY KEY (id))"
    )

    # -- 2009: diagnoses recorded under ICD-9-CM ------------------------------
    icd9_rows = [
        (1, "patient-007", "ICD9-250.00", "diabetes mellitus type 2", 2),
        (2, "patient-007", "ICD9-401.9", "essential hypertension", 1),
        (3, "patient-042", "ICD9-493.90", "asthma unspecified", 1),
    ]
    for row in icd9_rows:
        db.sql(
            "INSERT INTO records (id, patient, code, description, severity)"
            f" VALUES ({row[0]}, '{row[1]}', '{row[2]}', '{row[3]}',"
            f" {row[4]})"
        )
    icd9_era = db.ledger.height - 1
    print(f"ICD-9 era sealed through block #{icd9_era}")

    # -- 2015: the ICD-10 migration -------------------------------------------
    # Immutability means the migration *appends* new versions; nothing
    # is rewritten in place.
    migrations = {
        "ICD9-250.00": "ICD10-E11.9",
        "ICD9-401.9": "ICD10-I10",
        "ICD9-493.90": "ICD10-J45.909",
    }
    for old, new in migrations.items():
        count = db.update(
            "records",
            {"code": new},
            (("code", SearchPredicate.eq(old)),),
        )
        print(f"  migrated {old} -> {new} ({count} rows)")

    # -- querying both eras ------------------------------------------------------
    print("\ncurrent codes for patient-007:")
    for row in db.sql(
        "SELECT id, code FROM records WHERE patient = 'patient-007'"
    ):
        print(f"  record {row['id']}: {row['code']}")

    print(f"\nas of block #{icd9_era} (pre-migration):")
    for row in db.sql(
        "SELECT id, code FROM records WHERE patient = 'patient-007' "
        f"AS OF BLOCK {icd9_era}"
    ):
        print(f"  record {row['id']}: {row['code']}")

    # -- per-record provenance ------------------------------------------------------
    print("\nfull provenance of record 1:")
    for height, state in db.row_history("records", 1):
        code = state["code"] if state else "(not yet / deleted)"
        print(f"  block #{height}: {code}")

    # -- analytics over the verified store ----------------------------------------
    print("\ncase counts by current code:")
    for row in db.sql(
        "SELECT code, COUNT(*) FROM records GROUP BY code"
    ):
        print(f"  {row['code']}: {row['count(*)']}")

    # -- the auditor's check ----------------------------------------------------------
    print("\nauditor verification:")
    auditor = ClientVerifier()
    auditor.trust(db.digest())
    rows, proofs = db.select_verified(
        "records", 1, 3, columns=("patient", "code", "severity")
    )
    digest = db.digest().chain_digest
    assert all(proof.verify(digest) for proof in proofs)
    for row in rows:
        print(f"  VERIFIED {row}")
    assert db.verify_chain()
    print("  full-chain audit passed")

    # -- storage behaviour ---------------------------------------------------------------
    report = db.ledger.storage_report()
    print(
        f"\nstorage: {report['blocks']:.0f} blocks, "
        f"{report['physical_bytes'] / 1024:.1f} KB physical, "
        f"dedup ratio {report['dedup_ratio']:.2f}x"
    )


if __name__ == "__main__":
    main()
