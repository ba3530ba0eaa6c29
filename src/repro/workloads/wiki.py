"""The Figure 1 workload: versioned wiki pages.

"Consider another example where an immutable database stores 10 WIKI
pages of 16 KB each initially.  We create a new version when updating
a page, while keeping the previous versions" (Section 1).  Figure 1
plots storage versus version count for a naive snapshot store and for
ForkBase with content-based deduplication.

Edits are *localized* — a contiguous slice of the page is rewritten —
which is what real page edits look like and what content-defined
chunking exploits.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Dict, List, Tuple

PAGE_COUNT = 10
PAGE_SIZE = 16 * 1024
#: Bytes each edit rewrites in place.
EDIT_SIZE = 512

_TEXT = (string.ascii_letters + string.digits + " .,\n").encode("ascii")


@dataclass(frozen=True)
class WikiEdit:
    """One page update: the page id and its full new content."""

    version: int
    page: str
    content: bytes


class WikiWorkload:
    """Deterministic page contents and an edit stream."""

    def __init__(self, pages: int = PAGE_COUNT, seed: int = 0):
        self._rng = random.Random(seed)
        self.pages: Dict[str, bytes] = {
            f"wiki/page-{i:02d}": self._random_text(PAGE_SIZE)
            for i in range(pages)
        }

    def _random_text(self, size: int) -> bytes:
        return bytes(self._rng.choice(_TEXT) for _ in range(size))

    def initial_pages(self) -> List[Tuple[str, bytes]]:
        """The version-1 content of every page."""
        return sorted(self.pages.items())

    def edits(self, versions: int) -> List[WikiEdit]:
        """One edit per version step (versions 2..versions).

        Each edit rewrites a random :data:`EDIT_SIZE` slice of a random
        page — the locality assumption behind Figure 1's dedup gains.
        """
        stream: List[WikiEdit] = []
        names = sorted(self.pages)
        for version in range(2, versions + 1):
            page = names[self._rng.randrange(len(names))]
            content = bytearray(self.pages[page])
            offset = self._rng.randrange(PAGE_SIZE - EDIT_SIZE)
            patch = self._random_text(EDIT_SIZE)
            content[offset:offset + len(patch)] = patch
            self.pages[page] = bytes(content)
            stream.append(
                WikiEdit(version=version, page=page, content=bytes(content))
            )
        return stream


def naive_storage_bytes(
    initial: List[Tuple[str, bytes]], edits: List[WikiEdit]
) -> int:
    """Bytes a snapshot-per-version store would hold (no dedup)."""
    return sum(len(content) for _page, content in initial) + sum(
        len(edit.content) for edit in edits
    )
