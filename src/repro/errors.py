"""Exception hierarchy shared by every subsystem of the reproduction.

The original JCF/FMCAD coupling distinguished framework-level failures
(metadata, permissions, flows) from tool-level failures (a simulator run
that fails, a DRC violation).  We mirror that split so callers can react
to the same classes of error the 1995 prototype surfaced in its extra
consistency windows.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Storage integrity (cross-cutting: OMS payloads, staging, FMCAD files)
# ---------------------------------------------------------------------------


class IntegrityError(ReproError):
    """Stored bytes failed verification against their recorded checksum.

    Raised by every verified read path — blob materialization, staged
    file validation, FMCAD version files, ``.meta`` parsing, snapshot
    restore — instead of handing garbage to the caller.  ``location``
    identifies the damaged artifact, ``classification`` is one of the
    scrubber's damage classes (bit-rot, truncation, torn-write, ...).
    """

    def __init__(
        self,
        message: str,
        location: str = "",
        classification: str = "",
    ) -> None:
        super().__init__(message)
        self.location = location
        self.classification = classification


class QuarantinedError(IntegrityError):
    """A read hit a payload the scrubber has quarantined as unrepairable."""


# ---------------------------------------------------------------------------
# OMS database kernel
# ---------------------------------------------------------------------------


class OMSError(ReproError):
    """Base class for errors raised by the OMS object store."""


class SchemaError(OMSError):
    """A schema definition or schema lookup is invalid."""


class AttributeTypeError(OMSError):
    """An attribute value does not conform to its declared type."""


class UnknownObjectError(OMSError):
    """An object id does not resolve to a live object."""


class RelationshipError(OMSError):
    """A relationship operation violated its cardinality or endpoint types."""


class TransactionError(OMSError):
    """A transactional operation was used outside a valid transaction."""


class QueryError(OMSError):
    """A query primitive was used against data that violates its contract."""


class LockContentionError(OMSError):
    """A non-blocking lock acquisition found the lock already held.

    Raised by :class:`repro.oms.locks.LockManager` when a caller asked
    for ``blocking=False`` — the scheduler treats this as "the conflict
    graph missed an edge" and defers the run to a later wave instead of
    risking a wait that could deadlock against its commit ordering.
    """


class SnapshotIntegrityError(OMSError, IntegrityError):
    """A persisted snapshot failed its embedded checksum or would not parse.

    Inherits both :class:`OMSError` (existing snapshot handlers keep
    working) and :class:`IntegrityError` (the scrubber and verified
    readers treat it as a storage-integrity failure).
    """

    def __init__(self, message: str, location: str = "",
                 classification: str = "") -> None:
        OMSError.__init__(self, message)
        self.location = location
        self.classification = classification


class WALError(OMSError):
    """Write-ahead-log operation failed (append, checkpoint, replay)."""


class WALSyncError(WALError):
    """A WAL record was written but its fsync failed.

    The record is in the log file and may or may not reach the disk, so
    the commit is neither durable nor safely undone: the database stops
    (:meth:`~repro.oms.database.OMSDatabase.fail_stop`) instead of
    aborting it.
    """


class WALIntegrityError(WALError, IntegrityError):
    """A WAL record or checkpoint failed verification.

    Raised when damage sits *before* the log tail (a torn tail is
    expected after a crash and is silently dropped by recovery; damage
    in the middle of the log is at-rest corruption and must not be
    replayed).  Inherits :class:`IntegrityError` so the audit and
    scrubber layers classify it as storage damage.
    """

    def __init__(self, message: str, location: str = "",
                 classification: str = "") -> None:
        WALError.__init__(self, message)
        self.location = location
        self.classification = classification


class ClosedInterfaceError(OMSError):
    """Direct access to OMS internals was attempted.

    JCF 3.0's database has no public procedural interface; encapsulated
    tools must go through file-system staging (paper Section 2.1).  This
    error enforces that architectural property.
    """


# ---------------------------------------------------------------------------
# JCF framework (master)
# ---------------------------------------------------------------------------


class JCFError(ReproError):
    """Base class for errors raised by the JCF framework simulator."""


class ResourceError(JCFError):
    """A user, team or resource definition is invalid or unknown."""


class AuthorizationError(JCFError):
    """A user attempted an operation their team membership does not allow."""


class FlowError(JCFError):
    """A flow definition is structurally invalid (cycles, unknown steps)."""


class FlowOrderError(FlowError):
    """A tool invocation violated the fixed, prescribed flow order."""


class FlowFrozenError(FlowError):
    """An attempt was made to modify a flow after it was published.

    Paper Section 2.1: "Flows are fixed and cannot be modified, i.e., the
    user must follow the flow constraints."
    """


class FlowStuckError(FlowError):
    """A durable flow exhausted its robustness budget and dead-lettered.

    Raised by :mod:`repro.jcf.durable_flows` when an activity keeps
    failing past its retry budget (or per-activity timeout): the flow
    instance is parked in ``dead_letter`` state — visible to
    ``audit()`` and ``flows list`` — instead of wedging the queue.
    ``instance_oid`` names the parked flow instance so operators (and
    ``flows retry``) can find it.
    """

    def __init__(self, message: str, instance_oid: str = "",
                 activity: str = "") -> None:
        super().__init__(message)
        self.instance_oid = instance_oid
        self.activity = activity


class WorkspaceError(JCFError):
    """A workspace reservation or publication was invalid."""


class ReservationConflictError(WorkspaceError):
    """A cell version is already reserved in another private workspace."""


class VersioningError(JCFError):
    """Cell-version / variant bookkeeping was violated."""


class ConfigurationError(JCFError):
    """A configuration referenced incompatible or duplicate versions."""


class ProjectError(JCFError):
    """Project or cell structure operation failed."""


class CrossProjectSharingError(ProjectError):
    """Data sharing between projects was attempted.

    Paper Section 3.1: "Not yet possible in JCF or in the combined
    framework is data sharing between projects."
    """


# ---------------------------------------------------------------------------
# FMCAD framework (slave)
# ---------------------------------------------------------------------------


class FMCADError(ReproError):
    """Base class for errors raised by the FMCAD framework simulator."""


class LibraryError(FMCADError):
    """Library creation or lookup failed."""


class MetaFileError(FMCADError):
    """The library ``.meta`` file is corrupt, stale or inconsistent."""


class MetaIntegrityError(MetaFileError, IntegrityError):
    """A ``.meta`` file failed its whole-file checksum (torn write/rot).

    Inherits both :class:`MetaFileError` (existing ``.meta`` handlers
    keep working) and :class:`IntegrityError` (the scrubber and verified
    readers treat it as a storage-integrity failure).
    """

    def __init__(self, message: str, location: str = "",
                 classification: str = "") -> None:
        MetaFileError.__init__(self, message)
        self.location = location
        self.classification = classification


class CheckoutError(FMCADError):
    """Checkout/checkin protocol was violated (double checkout etc.)."""


class LockedError(CheckoutError):
    """A cellview is locked by another user's checkout."""


class ViewTypeError(FMCADError):
    """An unknown or incompatible viewtype was used."""


class PropertyError(FMCADError):
    """A property operation used an invalid name or value type."""


class ExtensionLanguageError(FMCADError):
    """The extension-language interpreter rejected a program."""


class MenuLockedError(FMCADError):
    """A menu point locked by the coupling consistency guard was invoked.

    Paper Section 2.4: extension-language procedures "lock menu points in
    order to prevent data inconsistency".
    """


class ITCError(FMCADError):
    """Inter-tool-communication routing failed."""


# ---------------------------------------------------------------------------
# Encapsulated design tools
# ---------------------------------------------------------------------------


class ToolError(ReproError):
    """Base class for errors raised by the encapsulated design tools."""


class SchematicError(ToolError):
    """Schematic entry model violation (dangling pin, duplicate net...)."""


class LayoutError(ToolError):
    """Layout geometry or hierarchy violation."""


class DRCError(LayoutError):
    """A design-rule check failed."""


class SimulationError(ToolError):
    """The digital simulator rejected a netlist or stimulus."""


# ---------------------------------------------------------------------------
# Coupling layer (the paper's contribution)
# ---------------------------------------------------------------------------


class CouplingError(ReproError):
    """Base class for errors raised by the hybrid JCF-FMCAD coupling."""


class MappingError(CouplingError):
    """The Table-1 data-model mapping could not be applied."""


class HierarchyError(CouplingError):
    """Design-hierarchy extraction or submission failed."""


class NonIsomorphicHierarchyError(HierarchyError):
    """Functional and physical hierarchies differ.

    JCF 3.0 does not support non-isomorphic hierarchies (paper Sections
    2.3 and 3.3); the hybrid framework must reject them unless the
    future-release extension is explicitly enabled.
    """


class ConsistencyError(CouplingError):
    """The consistency guard detected (or prevented) corrupt design state."""


class EncapsulationError(CouplingError):
    """A tool wrapper could not stage, launch or harvest a tool run."""


# ---------------------------------------------------------------------------
# Design server (multi-session front end)
# ---------------------------------------------------------------------------


class ServerError(ReproError):
    """Base class for errors raised by the design-server front end."""


class ProtocolError(ServerError):
    """A client frame violated the line-delimited JSON protocol.

    Covers undecodable lines, missing fields, unknown operations and
    unknown script names.  The server answers with an error frame and
    keeps the connection open; the request is never admitted.
    """


class SessionError(ServerError):
    """A session's user/team/project context is invalid.

    Raised at ``hello`` time (unknown user, user not a member of the
    team, team not assigned to the project) or when a request arrives
    before any ``hello`` established a session.
    """


class ServerOverloadError(ServerError):
    """The server refused a request to protect itself (fail fast).

    Raised by admission control when a shard's bounded queue is full,
    its token bucket is empty, or the server is draining for shutdown.
    Typed rejection is the backpressure contract: clients see an
    immediate, retryable error instead of unbounded queueing collapse.
    ``shard_id`` names the saturated shard, ``reason`` is one of
    ``queue-full`` / ``throttled`` / ``draining``, and
    ``retry_after_ms`` is advisory simulated backoff.
    """

    def __init__(
        self,
        message: str,
        shard_id: int = -1,
        reason: str = "",
        retry_after_ms: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.reason = reason
        self.retry_after_ms = retry_after_ms


class DeadlineExceededError(ServerError):
    """A request's deadline expired before its batch could commit.

    The request is answered instead of occupying a wave slot: expired at
    submission it is never admitted; expired while coalescing it is shed
    from the batch before ``run_many`` runs.  Nothing was committed, so
    the retry contract is simple — resubmit with a fresh deadline.
    ``retry_after_ms`` may legitimately be ``0.0`` ("retry now, the
    deadline was yours"); the wire layer must preserve that hint.
    """

    def __init__(
        self,
        message: str,
        shard_id: int = -1,
        retry_after_ms: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.retry_after_ms = retry_after_ms


class ShardUnavailableError(ServerError):
    """A shard is fenced by its circuit breaker (wedged or recovering).

    Healthy shards keep serving; requests routed to the fenced shard
    fail fast with this error instead of queueing behind a wedged
    executor.  ``state`` is the breaker state that refused the request
    (``open`` while cooling down, ``half-open`` while a recovery probe
    is in flight) and ``retry_after_ms`` hints when the next probe may
    be admitted.
    """

    def __init__(
        self,
        message: str,
        shard_id: int = -1,
        state: str = "open",
        retry_after_ms: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.state = state
        self.retry_after_ms = retry_after_ms


class LeaseError(ServerError):
    """Base class for checkout-lease protocol violations."""


class LeaseHeldError(LeaseError):
    """Another live session holds the lease on this (library, cell).

    The holder's lease must expire (or be released) before anyone else
    can acquire it; ``retry_after_ms`` is the time until that expiry.
    """

    def __init__(
        self,
        message: str,
        key: str = "",
        holder: str = "",
        retry_after_ms: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.key = key
        self.holder = holder
        self.retry_after_ms = retry_after_ms


class LeaseFencedError(LeaseError):
    """A commit presented a stale or expired fencing token.

    This is the zombie-session guard: a session whose lease expired (and
    was possibly re-granted to a successor with a higher token) cannot
    clobber the successor's work at commit time.  ``token`` is what the
    zombie presented, ``current`` the token the table holds now (``0``
    when the key has no live lease).
    """

    def __init__(
        self,
        message: str,
        key: str = "",
        token: int = 0,
        current: int = 0,
    ) -> None:
        super().__init__(message)
        self.key = key
        self.token = token
        self.current = current
