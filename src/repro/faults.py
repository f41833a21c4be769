"""Deterministic crash/transient fault injection for the coupling kernel.

The paper's value proposition is that the master/slave coupling keeps
JCF's design management and FMCAD's tool data *consistent* — which is
only credible if the protocol survives dying between its steps.  This
module provides the harness the crash-consistency suite drives:

* **Fault points** are named places woven through the coupled protocol
  (``checkout.after_checkin``, ``harvest.before_import``,
  ``staging.write``, ``blobs.intern``, ...).  Each call site invokes
  :func:`fault_point`, which is a single global load plus a ``None``
  check when no plan is active — ``bench_faults.py`` asserts the
  disabled overhead stays under 2% of a coupled run.
* A :class:`FaultPlan` is a deterministic schedule: rules that raise
  :class:`CrashFault` or :class:`TransientFault` on the *n*-th traversal
  of a fault point.  Seeded random plans (:meth:`FaultPlan.random_plan`)
  give reproducible chaos for the hypothesis suite.
* :class:`CrashFault` simulates the process dying at that instant: the
  protocol code deliberately performs **no** cleanup for it (open OMS
  transactions self-abort, which models the database's own crash
  recovery; everything else — tickets, sessions, staged files, FMCAD
  version files — stays broken until
  :class:`repro.core.recovery.CouplingRecovery` repairs it).
* :class:`TransientFault` simulates a recoverable glitch (NFS hiccup,
  tool license blip).  Retry boundaries call :func:`with_retries`, which
  retries with bounded exponential backoff charged to the simulated
  clock.
* **Corruption rules** (kind ``corrupt``) damage bytes *silently* at the
  registered :data:`CORRUPTION_POINTS` — places where payload bytes flow
  to storage call :func:`corruption_point` instead of
  :func:`fault_point` — modelling bit-rot, truncation and torn writes
  that land at rest undetected.  The storage integrity layer
  (:mod:`repro.integrity`) is what must catch them on read.

Not to be confused with :mod:`repro.tools.simulator.faults`, which
models stuck-at faults in simulated *circuits*; this module injects
faults into the *framework* itself.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import threading
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import ReproError

T = TypeVar("T")


class FaultError(ReproError):
    """Base class for injected faults."""


class CrashFault(FaultError):
    """Simulated process death: no application-level cleanup may run."""


class FailStop(CrashFault):
    """A real failure that left memory ahead of the durable state.

    Not injected: raised when committed in-memory changes can neither
    reach the log nor be undone (see
    :meth:`repro.oms.database.OMSDatabase.fail_stop`).  The process may
    not go on, so every layer handles it like a crash — nothing
    compensates, no commit group appends, the design server does not
    turn it into a retry — and only a reopen plus ``recover()`` make the
    framework usable again.
    """


class TransientFault(FaultError):
    """Simulated recoverable glitch: retry boundaries may retry it."""


class CorruptionFault(FaultError):
    """A corruption rule was scheduled where no bytes flow.

    Corruption is *silent* by design — :func:`corruption_point` damages
    the bytes passing through and the write continues, exactly like
    bit-rot or a torn write would.  Scheduling a corrupt rule at a plain
    :func:`fault_point` (which carries no data) is therefore a test-plan
    bug, and it fails loudly with this exception instead of silently
    never corrupting anything.
    """


KIND_CRASH = "crash"
KIND_TRANSIENT = "transient"
KIND_CORRUPT = "corrupt"

#: byte-damage modes a corruption rule can apply
MODE_FLIP = "flip"          # flip one bit (classic bit-rot)
MODE_TRUNCATE = "truncate"  # cut the tail off (interrupted write)
MODE_ZERO = "zero"          # zero a span (block-level loss / torn write)
CORRUPTION_MODES: Tuple[str, ...] = (MODE_FLIP, MODE_TRUNCATE, MODE_ZERO)

#: Every fault point woven through the production code, by subsystem.
#: ``FaultPlan`` validates rule names against this registry so a typo in
#: a test schedules a fault that can never fire loudly, not silently.
FAULT_POINTS: Tuple[str, ...] = (
    # coupled tool run (core/encapsulation.py)
    "run.after_start",        # activity started, no tool session yet
    "run.before_finish",      # outputs durable+tagged, derivation not recorded
    "harvest.after_checkout", # ticket held, nothing written
    "harvest.after_checkin",  # FMCAD version exists, OMS import pending
    "harvest.before_import",  # ditto; .meta is written at the end
    "harvest.after_import",   # OMS version created (uncommitted)
    "harvest.before_tag",     # cross-tags not placed; a scheduled run's
                              # transaction committed into its wave, an
                              # unscheduled run's not yet (nor its .meta)
    # scheduler wave (core/scheduler.py)
    "wave.before_meta",       # version files durable, no .meta names them
    # durable publication (oms/durable.py atomic_replace)
    "durable.before_rename",  # temp file durable, not renamed over its
                              # target (a library .meta snapshot rewrite)
    # FMCAD checkout protocol (fmcad/checkout.py)
    "checkout.after_grant",   # ticket registered, cellview locked
    "checkout.after_checkin", # version written, ticket still open
    # staging I/O (oms/storage.py)
    "staging.write",          # staged file written, not yet recorded
    "staging.import",         # import requested, database not yet written
    # payload interning (oms/blobs.py)
    "blobs.intern",
    # project exchange (core/exchange.py)
    "exchange.write",         # archive member about to be written
    "exchange.before_import", # manifest read, nothing imported yet
    # write-ahead log (oms/wal.py)
    "wal.append",             # commit record about to land in the log
    "wal.checkpoint",         # traversed at each checkpoint stage; see
                              # WriteAheadLog.checkpoint for the windows
    # durable flow orchestration (jcf/durable_flows.py, jcf/triggers.py)
    "flow.persist",           # flow-state transition about to commit
    "flow.resume",            # a persisted flow about to roll forward
    "flow.trigger",           # trigger event about to dispatch a flow
    # design-server network front end (server/design_server.py) and the
    # serving engine's dispatch seam (server/engine.py) — the hostile-
    # network chaos harness drives disconnect-mid-request, lost-response
    # and crash-mid-batch scenarios through these
    "net.accept",             # connection accepted, handler not started
    "net.read",               # one frame read off the socket
    "net.write",              # one response frame about to hit the wire
    "server.dispatch",        # a flushed batch about to run its wave
)

#: Corruption points: places where payload bytes flow to storage and an
#: active plan may silently damage them (:func:`corruption_point`).
#: Crash/transient rules may also be scheduled here — the traversal
#: counts the same — but corrupt rules are only valid at these points.
CORRUPTION_POINTS: Tuple[str, ...] = (
    "blobs.payload",          # bytes entering the content-addressed store
    "staging.file",           # payload written to a staging file
    "staging.reflink",        # staged bytes landed via a reflink clone
    "fmcad.version_file",     # design file written on checkin
    "fmcad.meta",             # serialized .meta about to land on disk
    "oms.snapshot",           # serialized OMS snapshot bytes
    "wal.record",             # encoded WAL record about to be appended
    "net.frame",              # inbound frame bytes crossing the server
)

_KNOWN_POINTS = frozenset(FAULT_POINTS) | frozenset(CORRUPTION_POINTS)
_CORRUPTION_ONLY = frozenset(CORRUPTION_POINTS)


@dataclasses.dataclass
class FaultRule:
    """Fire *kind* at *point*, starting on the ``on_hit``-th traversal.

    A transient rule fires ``times`` consecutive traversals (so
    ``times`` smaller than the retry budget exercises recovery-by-retry,
    and ``times`` >= the budget exercises retry exhaustion); a crash
    rule fires exactly once — the process is dead afterwards.  A corrupt
    rule fires ``times`` traversals like a transient, but instead of
    raising it silently damages the bytes flowing through the point in
    the given *mode* (``flip``/``truncate``/``zero``), deterministically
    per *seed*.
    """

    point: str
    kind: str
    on_hit: int = 1
    times: int = 1
    mode: str = MODE_FLIP
    seed: int = 0

    def __post_init__(self) -> None:
        if self.point not in _KNOWN_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; known points: "
                f"{sorted(_KNOWN_POINTS)}"
            )
        if self.kind not in (KIND_CRASH, KIND_TRANSIENT, KIND_CORRUPT):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == KIND_CORRUPT:
            if self.point not in _CORRUPTION_ONLY:
                raise ValueError(
                    f"corrupt rules need a corruption point (bytes must "
                    f"flow); {self.point!r} is not one of "
                    f"{sorted(_CORRUPTION_ONLY)}"
                )
            if self.mode not in CORRUPTION_MODES:
                raise ValueError(
                    f"unknown corruption mode {self.mode!r}; known modes: "
                    f"{list(CORRUPTION_MODES)}"
                )
        if self.on_hit < 1 or self.times < 1:
            raise ValueError("on_hit and times must be >= 1")

    def should_fire(self, hit: int) -> bool:
        if self.kind == KIND_CRASH:
            return hit == self.on_hit
        return self.on_hit <= hit < self.on_hit + self.times


class FaultPlan:
    """A deterministic schedule of faults over the registered points."""

    def __init__(self, rules: Sequence[FaultRule] = ()) -> None:
        self._rules: Dict[str, List[FaultRule]] = {}
        for rule in rules:
            self._rules.setdefault(rule.point, []).append(rule)
        #: traversal count per fault point (hits, fired or not)
        self.hits: Counter = Counter()
        #: chronological ``(point, kind, hit_number)`` firing log
        self.fired: List[Tuple[str, str, int]] = []
        #: scheduler workers traverse points concurrently; the decision
        #: "does hit N fire?" must be atomic per point
        self._lock = threading.Lock()

    # -- construction ------------------------------------------------------

    @classmethod
    def crash(cls, point: str, on_hit: int = 1) -> "FaultPlan":
        return cls([FaultRule(point, KIND_CRASH, on_hit)])

    @classmethod
    def transient(
        cls, point: str, on_hit: int = 1, times: int = 1
    ) -> "FaultPlan":
        return cls([FaultRule(point, KIND_TRANSIENT, on_hit, times)])

    @classmethod
    def corrupt(
        cls,
        point: str,
        mode: str = MODE_FLIP,
        on_hit: int = 1,
        times: int = 1,
        seed: int = 0,
    ) -> "FaultPlan":
        return cls([
            FaultRule(point, KIND_CORRUPT, on_hit, times, mode=mode,
                      seed=seed)
        ])

    @classmethod
    def random_plan(
        cls,
        seed: int,
        points: Sequence[str] = FAULT_POINTS,
        max_hit: int = 3,
        transient_probability: float = 0.0,
    ) -> "FaultPlan":
        """A seeded one-fault schedule: same seed, same schedule."""
        rng = random.Random(seed)
        point = rng.choice(list(points))
        on_hit = rng.randint(1, max_hit)
        if rng.random() < transient_probability:
            return cls.transient(point, on_hit, times=rng.randint(1, 2))
        return cls.crash(point, on_hit)

    @classmethod
    def random_corruption_plan(
        cls,
        seed: int,
        points: Sequence[str] = CORRUPTION_POINTS,
        max_hit: int = 3,
    ) -> "FaultPlan":
        """A seeded one-corruption schedule: same seed, same damage."""
        rng = random.Random(seed)
        return cls.corrupt(
            rng.choice(list(points)),
            mode=rng.choice(CORRUPTION_MODES),
            on_hit=rng.randint(1, max_hit),
            seed=rng.randrange(2 ** 31),
        )

    def add_crash(self, point: str, on_hit: int = 1) -> "FaultPlan":
        self._rules.setdefault(point, []).append(
            FaultRule(point, KIND_CRASH, on_hit)
        )
        return self

    def add_corrupt(
        self,
        point: str,
        mode: str = MODE_FLIP,
        on_hit: int = 1,
        times: int = 1,
        seed: int = 0,
    ) -> "FaultPlan":
        self._rules.setdefault(point, []).append(
            FaultRule(point, KIND_CORRUPT, on_hit, times, mode=mode,
                      seed=seed)
        )
        return self

    def add_transient(
        self, point: str, on_hit: int = 1, times: int = 1
    ) -> "FaultPlan":
        self._rules.setdefault(point, []).append(
            FaultRule(point, KIND_TRANSIENT, on_hit, times)
        )
        return self

    # -- firing ------------------------------------------------------------

    def _claim(self, point: str) -> Tuple[Optional[FaultRule], int]:
        """Count one traversal and decide atomically whether a rule fires."""
        with self._lock:
            self.hits[point] += 1
            count = self.hits[point]
            for rule in self._rules.get(point, ()):
                if rule.should_fire(count):
                    self.fired.append((point, rule.kind, count))
                    return rule, count
        return None, count

    def hit(self, point: str) -> None:
        """Record one traversal of *point*; raise if a rule schedules it.

        Thread-safe: the count-and-decide step runs under a lock so two
        concurrent traversals can never both claim the same hit number;
        the fault itself is raised outside the lock.
        """
        firing, count = self._claim(point)
        if firing is None:
            return
        if firing.kind == KIND_CRASH:
            raise CrashFault(f"injected crash at {point!r} (hit {count})")
        if firing.kind == KIND_CORRUPT:
            # corruption needs bytes to damage; a data-less traversal
            # cannot honour the rule, so the plan is broken — fail loudly
            raise CorruptionFault(
                f"corrupt rule scheduled at {point!r} but the traversal "
                "carries no bytes (use corruption_point at this call site)"
            )
        raise TransientFault(
            f"injected transient fault at {point!r} (hit {count})"
        )

    def hit_with_data(self, point: str, data: bytes) -> bytes:
        """Like :meth:`hit`, for traversals that carry payload bytes.

        Crash/transient rules raise exactly as at a plain fault point; a
        corrupt rule silently returns damaged bytes — the caller stores
        them none the wiser, which is the whole point.
        """
        firing, count = self._claim(point)
        if firing is None:
            return data
        if firing.kind == KIND_CRASH:
            raise CrashFault(f"injected crash at {point!r} (hit {count})")
        if firing.kind == KIND_TRANSIENT:
            raise TransientFault(
                f"injected transient fault at {point!r} (hit {count})"
            )
        # string seed: random.Random accepts no tuples, and the damage
        # must differ per (rule, point, traversal) while staying
        # reproducible for a given plan
        return damage_bytes(
            data, firing.mode, random.Random(f"{firing.seed}:{point}:{count}")
        )

    @property
    def crash_fired(self) -> bool:
        return any(kind == KIND_CRASH for _, kind, _ in self.fired)

    @property
    def corruption_fired(self) -> bool:
        return any(kind == KIND_CORRUPT for _, kind, _ in self.fired)

    @property
    def points(self) -> List[str]:
        return sorted(self._rules)


# -- activation ---------------------------------------------------------------

#: the active plan; ``None`` keeps every fault point a no-op check
_plan: Optional[FaultPlan] = None


def fault_point(name: str) -> None:
    """Traverse the named fault point.

    The disabled path is deliberately minimal — one module-global load
    and a ``None`` comparison — so leaving the points woven into hot
    paths (``blobs.intern``, staging writes) costs nothing measurable.
    """
    if _plan is not None:
        _plan.hit(name)


def corruption_point(name: str, data: bytes) -> bytes:
    """Traverse a corruption point, passing payload bytes through it.

    With no active plan this is the same one-load-one-check no-op as
    :func:`fault_point` — the bytes come back untouched by identity.
    Under a plan, crash/transient rules raise as usual and corrupt rules
    return deterministically damaged bytes that the caller writes to
    storage without noticing, modelling bit-rot, truncation and torn
    writes at rest.
    """
    if _plan is not None:
        return _plan.hit_with_data(name, data)
    return data


def damage_bytes(data: bytes, mode: str, rng: random.Random) -> bytes:
    """Deterministically damage *data* in *mode*; always changes bytes.

    ``flip`` inverts one random bit, ``truncate`` cuts the tail at a
    random offset, ``zero`` overwrites a random span with NULs.  Damage
    that would leave the bytes identical (zeroing an already-zero span,
    truncating nothing) falls back to a bit flip so an injected
    corruption can never silently be a no-op; empty payloads grow one
    poison byte, the only change an empty file can suffer short of
    deletion.
    """
    if mode not in CORRUPTION_MODES:
        raise ValueError(f"unknown corruption mode {mode!r}")
    if not data:
        return b"\x00"
    if mode == MODE_TRUNCATE:
        return data[: rng.randrange(len(data))]
    buffer = bytearray(data)
    if mode == MODE_ZERO:
        start = rng.randrange(len(buffer))
        span = rng.randint(1, min(64, len(buffer) - start))
        buffer[start:start + span] = b"\x00" * span
        if bytes(buffer) == data:  # span was already zero: force a change
            buffer[start] ^= 0xFF
        return bytes(buffer)
    index = rng.randrange(len(buffer))
    buffer[index] ^= 1 << rng.randrange(8)
    return bytes(buffer)


def active_plan() -> Optional[FaultPlan]:
    return _plan


def activate(plan: FaultPlan) -> None:
    global _plan
    _plan = plan


def deactivate() -> None:
    global _plan
    _plan = None


@contextlib.contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate *plan* for the duration of the block (always deactivates)."""
    activate(plan)
    try:
        yield plan
    finally:
        deactivate()


# -- retry boundary -----------------------------------------------------------

#: default retry budget at staging/tool retry boundaries
DEFAULT_RETRY_ATTEMPTS = 3


def with_retries(
    fn: Callable[[], T],
    clock=None,
    attempts: int = DEFAULT_RETRY_ATTEMPTS,
) -> T:
    """Run *fn*, retrying :class:`TransientFault` with bounded backoff.

    Backoff between attempts is charged to the simulated *clock* (when
    given) via :meth:`repro.clock.SimClock.charge_retry_backoff`, so a
    glitchy-but-recovering run shows up as latency, exactly like a real
    retry loop would.  :class:`CrashFault` (and everything else) passes
    straight through: a dead process does not retry.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    for attempt in range(attempts):
        try:
            return fn()
        except TransientFault:
            if attempt == attempts - 1:
                raise
            if clock is not None:
                clock.charge_retry_backoff(attempt)
    raise AssertionError("unreachable")  # pragma: no cover
