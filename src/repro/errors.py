"""Exception hierarchy for the Spitz reproduction.

Every error raised by the library derives from :class:`SpitzError`, so a
caller can catch one type to handle any library failure.  Subclasses are
grouped by subsystem: storage, indexing, transactions, verification, and
query processing.
"""

from __future__ import annotations


class SpitzError(Exception):
    """Base class for every error raised by this library."""


class StorageError(SpitzError):
    """A failure inside the storage layer (ForkBase, chunk store)."""


class FormatVersionError(StorageError):
    """A snapshot or checkpoint was written in another snapshot layout."""


class ChunkNotFoundError(StorageError):
    """A content address was dereferenced but no chunk exists for it."""

    def __init__(self, address: str):
        super().__init__(f"no chunk stored at address {address!r}")
        self.address = address


class BranchNotFoundError(StorageError):
    """A named branch does not exist in the version manager."""

    def __init__(self, branch: str):
        super().__init__(f"unknown branch {branch!r}")
        self.branch = branch


class CommitNotFoundError(StorageError):
    """A commit id does not exist in the version graph."""

    def __init__(self, commit_id: str):
        super().__init__(f"unknown commit {commit_id!r}")
        self.commit_id = commit_id


class IndexError_(SpitzError):
    """A failure inside an index structure.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`; exported as ``IndexStructureError`` from the
    package root.
    """


IndexStructureError = IndexError_


class KeyNotFoundError(IndexError_):
    """A lookup key is absent from the index."""

    def __init__(self, key: object):
        super().__init__(f"key not found: {key!r}")
        self.key = key


class TransactionError(SpitzError):
    """A failure inside the transaction subsystem."""


class TransactionAborted(TransactionError):
    """The transaction was aborted (conflict, certification failure, ...)."""

    def __init__(self, txn_id: int, reason: str):
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class TransactionStateError(TransactionError):
    """An operation was attempted in an invalid transaction state."""


class DeadlockError(TransactionAborted):
    """The lock manager chose this transaction as a deadlock victim."""

    def __init__(self, txn_id: int):
        super().__init__(txn_id, "deadlock victim")


class TwoPhaseCommitError(TransactionError):
    """The 2PC coordinator could not complete the protocol."""


class VerificationError(SpitzError):
    """An integrity proof failed to verify.

    This is the error that signals *detected tampering*: the digest
    recomputed from a proof does not match the trusted digest.
    """


class ProofError(VerificationError):
    """A proof object is malformed or inconsistent with its claim."""


class TamperDetectedError(VerificationError):
    """Verification established that data or history was modified."""


class QueryError(SpitzError):
    """A failure while parsing or executing a query."""


class SqlSyntaxError(QueryError):
    """The SQL text could not be parsed."""

    def __init__(self, text: str, position: int, message: str):
        super().__init__(f"SQL syntax error at offset {position}: {message}")
        self.text = text
        self.position = position


class SchemaError(QueryError):
    """A statement referenced a missing table/column or violated a schema."""


class ClusterOverloadedError(SpitzError):
    """The cluster shed a request at admission because it is saturated.

    Raised synchronously by :meth:`~repro.core.node.MessageQueue.submit`
    when queue depth has exceeded the configured capacity for a
    sustained window.  The request was *not* accepted: nothing will be
    processed and nothing needs to be rolled back, so the call is safe
    to retry after backing off.  ``retry_after`` is the server's
    suggested backoff in seconds (clients may scale it with their own
    exponential schedule, as :class:`~repro.core.client.ClusterClient`
    does).
    """

    #: Always True: admission rejection happens before any work starts.
    retryable = True

    def __init__(self, depth: int, capacity: int, retry_after: float):
        super().__init__(
            f"cluster overloaded: queue depth {depth} has exceeded "
            f"capacity {capacity} for a sustained window; retry in "
            f"~{retry_after:.3f}s"
        )
        self.depth = depth
        self.capacity = capacity
        self.retry_after = retry_after


class RateLimitedError(ClusterOverloadedError):
    """The service edge rejected a request against its *per-client*
    token bucket (vs. the parent's cluster-wide admission rejection).

    Same client contract as the parent — nothing happened, back off
    ``retry_after`` seconds and resubmit — so retry loops written for
    :class:`ClusterOverloadedError` handle both without changes.
    """

    def __init__(self, retry_after: float, message: str = ""):
        SpitzError.__init__(
            self,
            message
            or f"rate limited at the service edge; retry in "
               f"~{retry_after:.3f}s",
        )
        self.depth = 0
        self.capacity = 0
        self.retry_after = retry_after


class ClusterStoppedError(SpitzError):
    """A request was submitted to a cluster that is shutting down.

    Raised synchronously by :meth:`~repro.core.node.MessageQueue.submit`
    once the queue is closed — the alternative (accepting the envelope
    and letting the client block until its timeout) is exactly the
    request-loss bug this error exists to prevent.
    """


class IntegrationError(SpitzError):
    """A failure in the non-intrusive / intrusive integration layer."""


class NetworkError(IntegrationError):
    """The simulated network channel rejected or lost a message."""
