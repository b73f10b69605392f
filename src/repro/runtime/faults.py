"""Deterministic fault injection for cohort execution.

Models the failure modes a concrete-scalability simulation must cover
(OLYMPIA's dropout/straggler taxonomy) plus the adversarial transport
faults OLIVE's enclave must reject (corrupted and replayed
ciphertexts):

* **dropout** -- the client was securely sampled but never responds
  (battery, network loss);
* **straggler** -- the client responds after an injected delay drawn
  from an exponential (or fixed) distribution; delays beyond the
  runtime's per-client timeout are dropped without waiting;
* **corrupt** -- the ciphertext is tampered in transit, so enclave AE
  verification rejects it;
* **replay** -- the same ciphertext is delivered twice in one round;
  the enclave must accept exactly one copy;
* **transient worker failure** -- the execution substrate (not the
  client) fails a number of attempts before succeeding, exercising the
  runtime's retry-with-backoff path.

Every decision is a pure function of ``(entropy, round, client)``
through :mod:`repro.runtime.seeding`'s ``STREAM_FAULT`` stream, so a
fault plan is identical across chunkings and re-runs:
fault-path tests can replay a faulty round bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .seeding import STREAM_ENCLAVE, STREAM_FAULT, derive_rng


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection rates and shapes (all rates are per-client)."""

    dropout_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_delay_s: float = 0.02   # mean injected delay
    straggler_jitter: bool = True     # exponential around the mean when True
    corrupt_rate: float = 0.0
    replay_rate: float = 0.0
    transient_failure_rate: float = 0.0
    transient_failures: int = 1       # failing attempts per affected client

    def __post_init__(self) -> None:
        for name in ("dropout_rate", "straggler_rate", "corrupt_rate",
                     "replay_rate", "transient_failure_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.straggler_delay_s < 0:
            raise ValueError("straggler_delay_s must be >= 0")
        if self.transient_failures < 0:
            raise ValueError("transient_failures must be >= 0")

    @property
    def active(self) -> bool:
        """True when any fault mode has a non-zero rate."""
        return any((self.dropout_rate, self.straggler_rate,
                    self.corrupt_rate, self.replay_rate,
                    self.transient_failure_rate))


@dataclass(frozen=True)
class ClientFaultPlan:
    """The faults one ``(round, client)`` pair experiences."""

    dropped: bool = False
    delay_s: float = 0.0
    corrupt: bool = False
    replay: bool = False
    fail_attempts: int = 0

    @property
    def clean(self) -> bool:
        """True when this client runs fault-free."""
        return (not self.dropped and self.delay_s == 0.0
                and not self.corrupt and not self.replay
                and self.fail_attempts == 0)


CLEAN_PLAN = ClientFaultPlan()


class FaultInjector:
    """Draws one deterministic :class:`ClientFaultPlan` per (round, client).

    The draw order inside :meth:`plan` is fixed (dropout, straggler,
    delay, corrupt, replay, transient) so plans stay stable under
    config changes to unrelated rates only when derived rates change --
    the determinism contract is per-configuration, not cross-config.
    """

    def __init__(self, config: FaultConfig, entropy: int) -> None:
        self.config = config
        self.entropy = entropy

    def plan(self, round_index: int, client_id: int) -> ClientFaultPlan:
        """The fault plan for ``client_id`` in ``round_index``."""
        cfg = self.config
        if not cfg.active:
            return CLEAN_PLAN
        rng = derive_rng(self.entropy, STREAM_FAULT, round_index, client_id)
        dropped = rng.random() < cfg.dropout_rate
        straggler = rng.random() < cfg.straggler_rate
        delay = 0.0
        if straggler:
            delay = (float(rng.exponential(cfg.straggler_delay_s))
                     if cfg.straggler_jitter else cfg.straggler_delay_s)
        corrupt = rng.random() < cfg.corrupt_rate
        replay = rng.random() < cfg.replay_rate
        fail_attempts = (cfg.transient_failures
                         if rng.random() < cfg.transient_failure_rate else 0)
        return ClientFaultPlan(
            dropped=dropped, delay_s=delay, corrupt=corrupt,
            replay=replay, fail_attempts=fail_attempts,
        )


# ----------------------------------------------------------------------
# Server-side (enclave) faults: the sharded aggregation service
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EnclaveFaultConfig:
    """Fault rates for the aggregation service's own enclaves.

    The server-side counterpart of :class:`FaultConfig`: where client
    faults only ever *exclude* contributions, enclave faults attack the
    aggregation topology itself -- a leaf crashing mid-shard, a leaf
    machine dying outright (forcing failover to a sibling), a straggler
    leaf blowing its shard deadline, and the root enclave restarting
    between partial-aggregate combines.

    * ``leaf_crash_rate`` -- per ``(round, shard, attempt)``: the
      executing leaf crashes partway through its shard, losing all
      volatile state back to its last sealed checkpoint;
    * ``crash_fatal_rate`` -- a crash is fatal for the leaf *machine*
      (restart impossible; the shard fails over to a surviving leaf)
      rather than a process crash (restart in place);
    * ``leaf_straggler_rate`` / ``leaf_straggler_delay_s`` -- the
      attempt is delayed by an exponential draw around the mean;
      delays are adjudicated against the per-shard deadline
      *analytically* so decisions replay deterministically;
    * ``root_restart_rate`` -- per round: the root enclave restarts
      partway through combining sealed partials and recovers from its
      own checkpoint.
    """

    leaf_crash_rate: float = 0.0
    crash_fatal_rate: float = 0.5
    leaf_straggler_rate: float = 0.0
    leaf_straggler_delay_s: float = 0.05   # mean injected delay
    root_restart_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("leaf_crash_rate", "crash_fatal_rate",
                     "leaf_straggler_rate", "root_restart_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.leaf_straggler_delay_s < 0:
            raise ValueError("leaf_straggler_delay_s must be >= 0")

    @property
    def active(self) -> bool:
        """True when any enclave fault mode has a non-zero rate."""
        return any((self.leaf_crash_rate, self.leaf_straggler_rate,
                    self.root_restart_rate))


@dataclass(frozen=True)
class LeafFaultPlan:
    """Faults one ``(round, shard, attempt)`` execution experiences.

    ``crash_fraction`` positions the crash within the attempt's
    *remaining* work (the deliveries past the resume point), so a
    recovered attempt that crashes again still makes the progress its
    checkpoints sealed.
    """

    crash_fraction: float | None = None   # None: no crash this attempt
    fatal: bool = False                   # crash kills the leaf machine
    delay_s: float = 0.0

    @property
    def clean(self) -> bool:
        """True when this attempt runs fault-free."""
        return self.crash_fraction is None and self.delay_s == 0.0


@dataclass(frozen=True)
class RootFaultPlan:
    """The root enclave's faults for one round."""

    restart_fraction: float | None = None  # None: no restart this round


CLEAN_LEAF_PLAN = LeafFaultPlan()
CLEAN_ROOT_PLAN = RootFaultPlan()


class EnclaveFaultInjector:
    """Deterministic server-side fault plans on ``STREAM_ENCLAVE``.

    Leaf plans are keyed by ``(round, shard, attempt)`` -- the
    *shard*, not the executing leaf, so a failed-over shard draws the
    same fault sequence whichever sibling picks it up, and a replay of
    the same seed and config reproduces every crash, failover, and
    deadline miss bit-for-bit.  The draw order inside each plan is
    fixed (crash, fraction, fatal, straggler, delay).
    """

    #: Root plans use this shard slot (shard indices are < this).
    ROOT_KEY = 0xFFFF_FFFF

    def __init__(self, config: EnclaveFaultConfig, entropy: int) -> None:
        self.config = config
        self.entropy = int(entropy)

    def leaf_plan(self, round_index: int, shard_index: int,
                  attempt: int) -> LeafFaultPlan:
        """The fault plan for one execution attempt of one shard."""
        cfg = self.config
        if not cfg.active:
            return CLEAN_LEAF_PLAN
        rng = derive_rng(self.entropy, STREAM_ENCLAVE, round_index,
                         shard_index, attempt)
        crash = rng.random() < cfg.leaf_crash_rate
        crash_fraction = float(rng.random()) if crash else None
        fatal = crash and rng.random() < cfg.crash_fatal_rate
        straggler = rng.random() < cfg.leaf_straggler_rate
        delay = (float(rng.exponential(cfg.leaf_straggler_delay_s))
                 if straggler else 0.0)
        return LeafFaultPlan(crash_fraction=crash_fraction, fatal=fatal,
                             delay_s=delay)

    def root_plan(self, round_index: int) -> RootFaultPlan:
        """The root enclave's restart plan for one round."""
        cfg = self.config
        if cfg.root_restart_rate == 0.0:
            return CLEAN_ROOT_PLAN
        rng = derive_rng(self.entropy, STREAM_ENCLAVE, round_index,
                         self.ROOT_KEY, 0)
        if rng.random() < cfg.root_restart_rate:
            return RootFaultPlan(restart_fraction=float(rng.random()))
        return CLEAN_ROOT_PLAN
