"""Verifiable federated analytics across multiple hospitals.

The paper's Section 7.2 sketch (Figure 9): "a few hospitals want to
have a more precise and comprehensive analysis of a disease.  The
integrity of the data and queries are important in these use cases."

Each hospital runs its own Spitz instance; an analyst aggregates a
statistic across all of them.  Every per-hospital contribution arrives
as a verified range read, so a hospital (or the channel) cannot skew
the aggregate without detection — and the final report cites the exact
ledger digests it was computed against.

Run:  python examples/federated_analytics.py
"""

from repro import ClientVerifier, SpitzDatabase, TamperDetectedError
from repro.crypto.hashing import short

HOSPITALS = ("st-marys", "city-general", "lakeside")


def _load_hospital(name: str, seed: int) -> SpitzDatabase:
    """Each hospital records (patient -> hba1c level) readings."""
    db = SpitzDatabase()
    base = seed * 37 % 23
    for i in range(60):
        level = 40 + (i * seed + base) % 60  # mmol/mol readings
        db.put(f"hba1c:patient-{i:03d}".encode(), str(level).encode())
    return db


def main() -> None:
    hospitals = {
        name: _load_hospital(name, seed)
        for seed, name in enumerate(HOSPITALS, start=3)
    }

    # The analyst pins each hospital's current digest (obtained out of
    # band — e.g. published to a regulator's bulletin board).
    verifiers = {}
    for name, db in hospitals.items():
        verifier = ClientVerifier()
        verifier.trust(db.digest())
        verifiers[name] = verifier

    # -- federated aggregate: mean HbA1c across all hospitals ------------------
    print("== federated query: mean HbA1c, verified per hospital ==")
    total, count = 0, 0
    citations = {}
    for name, db in hospitals.items():
        entries, proof = db.scan_verified(b"hba1c:", b"hba1c:\xff")
        verifiers[name].verify_or_raise(proof)  # hospital can't skew
        values = [int(value) for _key, value in entries]
        total += sum(values)
        count += len(values)
        digest = db.digest()
        citations[name] = short(digest.chain_digest)
        print(
            f"  {name}: n={len(values)}, "
            f"mean={sum(values) / len(values):.1f} .. VERIFIED"
        )
    print(f"  federated mean over {count} patients: {total / count:.2f}")
    print("  computed against digests:", citations)

    # -- a hospital tries to skew the result --------------------------------------
    print("\n== tamper attempt ==")
    target = hospitals["lakeside"]
    entries, proof = target.scan_verified(b"hba1c:", b"hba1c:\xff")
    import dataclasses

    # Drop the 10 highest readings from the claimed results.
    doctored = tuple(
        sorted(proof.range_proof.entries, key=lambda kv: int(kv[1]))[:-10]
    )
    forged_range = dataclasses.replace(
        proof.range_proof, entries=doctored
    )
    forged = dataclasses.replace(proof, range_proof=forged_range)
    try:
        verifiers["lakeside"].verify_or_raise(forged)
    except TamperDetectedError as error:
        print(f"  skewed contribution rejected: {error}")

    # -- confidentiality note -----------------------------------------------------
    print(
        "\nNote: integrity is what Spitz provides; cross-hospital\n"
        "confidentiality (Section 7.2's other requirement) would sit\n"
        "on top, e.g. via secure aggregation - out of scope here."
    )


if __name__ == "__main__":
    main()
