"""Index structures: the SIRI family and access-path indexes.

SIRI (Structurally Invariant and Reusable Indexes) members are
authenticated indexes whose shape depends only on their *content*, so
two instances holding the same entries have the same root digest and
share nodes in the chunk store.  Spitz's ledger stores one SIRI
instance per block (Section 6.1 of the paper): the POS-Tree, also the
map of the ForkBase facade.  The Merkle Patricia Trie
(:mod:`~repro.indexes.mpt`) and the Merkle Bucket Tree
(:mod:`~repro.indexes.mbt`) are the SIRI comparison set; nothing in
the system uses them, so they are imported by module path.

The access-path indexes — B+-tree, skip list, radix tree, and the
inverted index built from the latter two — serve query processing
(Section 5: Index / Inverted Index).
"""

from repro.indexes.bplus import BPlusTree
from repro.indexes.inverted import InvertedIndex
from repro.indexes.pos_tree import PosTree
from repro.indexes.radix import RadixTree
from repro.indexes.siri import SiriIndex, SiriProof
from repro.indexes.skiplist import SkipList

__all__ = [
    "BPlusTree",
    "InvertedIndex",
    "PosTree",
    "RadixTree",
    "SiriIndex",
    "SiriProof",
    "SkipList",
]
