"""Node serialization for the comparison-set indexes (MPT, MBT).

These indexes exist to be measured against the POS-tree; no client
verifier reaches them, so their nodes keep Python's own serialization.
(POS-tree nodes — the ones a verifier parses — have the strict struct
codec in :mod:`repro.indexes.siri`.)
"""

from __future__ import annotations

import io
import pickle


def encode_node(node: tuple) -> bytes:
    """Serialize an index node deterministically.

    Plain ``pickle.dumps`` memoizes repeated object references, so the
    byte output depends on object *identity* (two equal values that
    happen to be one object serialize differently from two equal
    copies) — fatal for content addressing.  ``fast`` mode disables
    the memo; nodes are acyclic trees of bytes/str/int/None, so no
    cycle risk exists.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.fast = True
    pickler.dump(node)
    return buffer.getvalue()


def decode_node(data: bytes) -> tuple:
    """Inverse of :func:`encode_node`."""
    return pickle.loads(data)
