"""Integration designs for extending existing systems to a VDB
(paper Section 4, evaluated in Section 6.2.3).

- :mod:`~repro.integration.simnet` — the simulated network channel
  standing in for the wire between systems;
- :mod:`~repro.integration.nonintrusive` — Figure 3: an unmodified
  database plus a *separate* ledger database, every request crossing
  the channel;
- :mod:`~repro.integration.intrusive` — Figure 4: the ledger embedded
  in the database, paid for by a data migration.
"""

from repro.integration.intrusive import migrate_kvs_to_spitz
from repro.integration.nonintrusive import NonIntrusiveVDB
from repro.integration.simnet import Channel, NetworkStats

__all__ = [
    "Channel",
    "NetworkStats",
    "NonIntrusiveVDB",
    "migrate_kvs_to_spitz",
]
