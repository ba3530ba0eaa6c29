"""Git-like version management over the chunk store.

ForkBase tracks every state of a dataset as a *commit*: a small object
naming a root address (the root of the facade's map, a
:class:`~repro.indexes.pos_tree.PosTree`), its parents, and metadata.
Branches are movable names for commits.  Because roots are content
addresses, a handle on any commit's state is O(1) and historical
versions cost only their deltas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.crypto.hashing import Digest, hash_value
from repro.errors import BranchNotFoundError, CommitNotFoundError

_commit_counter = itertools.count(1)


@dataclass(frozen=True)
class Commit:
    """One immutable version of a dataset."""

    commit_id: Digest
    root: Digest
    parents: Tuple[Digest, ...]
    message: str
    sequence: int

    @staticmethod
    def make(
        root: Digest, parents: Tuple[Digest, ...], message: str
    ) -> "Commit":
        sequence = next(_commit_counter)
        commit_id = hash_value(
            ("commit", bytes(root), tuple(bytes(p) for p in parents),
             message, sequence)
        )
        return Commit(
            commit_id=commit_id,
            root=root,
            parents=parents,
            message=message,
            sequence=sequence,
        )


class VersionManager:
    """Branches and the commit graph.

    The default branch is ``"master"`` (matching ForkBase's docs); it
    exists from construction with no commits.
    """

    DEFAULT_BRANCH = "master"

    def __init__(self) -> None:
        self._commits: Dict[Digest, Commit] = {}
        self._branches: Dict[str, Optional[Digest]] = {
            self.DEFAULT_BRANCH: None
        }

    # -- commits -------------------------------------------------------

    def commit(
        self,
        root: Digest,
        message: str = "",
        branch: str = DEFAULT_BRANCH,
    ) -> Commit:
        """Record ``root`` as the new head of ``branch``."""
        head = self.head(branch)
        parents = (head.commit_id,) if head is not None else ()
        commit = Commit.make(root=root, parents=parents, message=message)
        self._commits[commit.commit_id] = commit
        self._branches[branch] = commit.commit_id
        return commit

    def get(self, commit_id: Digest) -> Commit:
        try:
            return self._commits[commit_id]
        except KeyError:
            raise CommitNotFoundError(commit_id.hex()) from None

    def head(self, branch: str = DEFAULT_BRANCH) -> Optional[Commit]:
        """Latest commit of ``branch`` (None for a fresh branch)."""
        try:
            head_id = self._branches[branch]
        except KeyError:
            raise BranchNotFoundError(branch) from None
        return self._commits[head_id] if head_id is not None else None

    def log(self, branch: str = DEFAULT_BRANCH) -> Iterator[Commit]:
        """Walk first-parent history from the branch head, newest first."""
        commit = self.head(branch)
        while commit is not None:
            yield commit
            commit = (
                self._commits[commit.parents[0]] if commit.parents else None
            )

    def history_roots(self, branch: str = DEFAULT_BRANCH) -> List[Digest]:
        """Root addresses of every version on ``branch``, oldest first."""
        return [commit.root for commit in self.log(branch)][::-1]

    # -- branches ------------------------------------------------------

    def branches(self) -> List[str]:
        return sorted(self._branches)

    def create_branch(self, name: str, from_branch: str = DEFAULT_BRANCH) -> None:
        """Fork ``from_branch`` at its current head into ``name``."""
        head = self.head(from_branch)
        self._branches[name] = head.commit_id if head is not None else None

    def delete_branch(self, name: str) -> None:
        if name == self.DEFAULT_BRANCH:
            raise ValueError("cannot delete the default branch")
        if name not in self._branches:
            raise BranchNotFoundError(name)
        del self._branches[name]

    def merge_base(self, branch_a: str, branch_b: str) -> Optional[Commit]:
        """Nearest common ancestor of two branch heads (first-parent)."""
        ancestors_a = {
            commit.commit_id for commit in self.log(branch_a)
        }
        for commit in self.log(branch_b):
            if commit.commit_id in ancestors_a:
                return commit
        return None

    def __len__(self) -> int:
        return len(self._commits)
