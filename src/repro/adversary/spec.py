"""Declarative adversary specifications.

An :class:`AdversarySpec` is a frozen, hashable, picklable description of
everything an adversary may do to one protocol run:

* **message faults** — drop/delay/duplicate each sent message with a fixed
  rate, plus an explicit per-edge drop schedule ``(round, sender, port)``;
* **node faults** — crash-stop schedules: explicit ``(node, round)`` pairs
  ("fail before executing round r") and/or ``crash_count`` random victims
  crashing before a uniformly drawn round in ``[0, crash_by)``;
* **input faults** — adversarial initial-value assignments for agreement
  protocols (worst-case ties, evenly spread ones, shuffles, targeted bit
  flips);
* **adaptive faults** — traffic-conditioned strategies
  (:data:`ADAPTIVE_STRATEGIES`) whose fault decisions react to the
  per-round sends the engine feeds back through its observation callback:
  targeted-leader suppression/crash and reactive congestion drops;
* **eavesdropping** — per-directed-edge wiretaps (a Bernoulli tap rate
  and/or an explicit ``(sender, port)`` edge list) with a security
  ledger (edges tapped, messages read, first-compromise round) and
  optional in-transit interception (``eavesdrop_drop_rate``).

Being pure data, a spec can sit inside a frozen
:class:`~repro.runtime.scenario.Scenario`, travel to worker processes, and
participate in result-store cache keys.  All randomness is drawn from a
:class:`~repro.util.rng.RandomSource` derived per trial (or pinned with
``seed``), so the same spec + seed reproduces the same faults bit for bit on
either engine backend, whether it runs a protocol's array-native port or
its scalar twin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.rng import RandomSource

__all__ = [
    "ADAPTIVE_STRATEGIES",
    "AdversarySpec",
    "INPUT_SCHEDULES",
    "NULL_ADVERSARY",
]

#: Recognized agreement input-schedule names (None means the protocol's
#: default prefix-of-ones assignment).
INPUT_SCHEDULES = ("blocks", "spread", "tie", "shuffle")

#: Recognized adaptive (traffic-conditioned) strategy names.
#:
#: * ``"target-leader"`` — suppress the node whose cumulative outbound
#:   volume dominates: its sends are dropped at ``adaptive_rate``;
#: * ``"target-leader-crash"`` — one-shot variant: crash-stop the
#:   dominant sender before the next round instead of dropping;
#: * ``"congestion"`` — reactive loss: each message is dropped with
#:   probability ``adaptive_rate`` scaled by its directed edge's share of
#:   the heaviest observed edge load.
ADAPTIVE_STRATEGIES = ("target-leader", "target-leader-crash", "congestion")

#: Full ``parse`` grammar, echoed by every parse error so a mistyped
#: clause teaches the accepted language instead of a bare rejection.
_GRAMMAR = """\
accepted adversary grammar — comma-separated key=value clauses:
  drop=RATE             drop each sent message with probability RATE
  delay=RATE            delay each sent message with probability RATE
  delay-rounds=N        delayed messages arrive N rounds late (default 1)
  dup=RATE              duplicate each delivered message with probability RATE
  drop-edge=R:S:P       drop node S's port-P send in round R (repeatable)
  crash=N[@R]           crash N random nodes before rounds < R (default R=1)
  crash-node=V[@R]      crash node V before round R (default 0; repeatable)
  input=NAME            agreement inputs: blocks|spread|tie|shuffle
  flip=FRACTION         flip this fraction of assigned agreement inputs
  adaptive=STRATEGY     traffic-conditioned faults: target-leader|\
target-leader-crash|congestion
  adaptive-rate=RATE    intensity of the adaptive strategy (default 1.0)
  adaptive-after=N      observe N rounds before the strategy engages (default 1)
  eavesdrop=RATE|S:P[+S:P...]  tap each directed edge with probability RATE,
                        or tap exactly the listed sender:port edges
  eavesdrop-drop=RATE   intercept (drop) tapped messages with probability RATE
  seed=N                pin the adversary's random stream
example: drop=0.05,adaptive=target-leader,eavesdrop=0.2,eavesdrop-drop=0.5"""


@dataclass(frozen=True)
class AdversarySpec:
    """One adversary: message, node, and input fault policies.

    The null spec (all defaults) arms nothing and is treated everywhere as
    "no adversary", so passing ``AdversarySpec()`` is exactly equivalent to
    passing ``None``.
    """

    #: Probability that a sent message is silently discarded in transit.
    drop_rate: float = 0.0
    #: Probability that a sent message arrives ``delay_rounds`` rounds late.
    delay_rate: float = 0.0
    #: How late a delayed message arrives (>= 1 extra round).
    delay_rounds: int = 1
    #: Probability that a delivered message arrives twice.
    duplicate_rate: float = 0.0
    #: Explicit transit drops: ``(round, sender, port)`` triples.
    drop_schedule: tuple[tuple[int, int, int], ...] = ()
    #: Explicit crash-stop schedule: ``(node, round)`` — the node fails
    #: *before* executing the given round.
    crashes: tuple[tuple[int, int], ...] = ()
    #: Additionally crash this many uniformly random nodes ...
    crash_count: int = 0
    #: ... each before a round drawn uniformly from ``[0, crash_by)``.
    crash_by: int = 1
    #: Agreement input assignment: one of :data:`INPUT_SCHEDULES` or None.
    input_schedule: str | None = None
    #: Flip this fraction of the assigned inputs (adversary-chosen nodes).
    flip_fraction: float = 0.0
    #: Traffic-conditioned strategy: one of :data:`ADAPTIVE_STRATEGIES`
    #: or None.  Adaptive specs arm an
    #: :class:`~repro.adversary.adaptive.AdaptiveAdversary`, which the
    #: engine feeds each round's canonical sends before fault masks are
    #: drawn — decisions react to observed traffic, not a fixed seed plan.
    adaptive: str | None = None
    #: Intensity of the adaptive strategy: the drop probability applied to
    #: the targeted node's sends (``target-leader``) or the peak per-edge
    #: drop probability (``congestion``).
    adaptive_rate: float = 1.0
    #: Rounds of observation before the adaptive strategy engages (the
    #: default 1 makes the first faulted round genuinely *reactive*).
    adaptive_after: int = 1
    #: Tap each directed edge with this probability the first time it
    #: carries a message (Bernoulli per edge, not per message).
    eavesdrop_rate: float = 0.0
    #: Explicitly tapped directed edges as ``(sender, port)`` pairs.
    eavesdrop_edges: tuple[tuple[int, int], ...] = ()
    #: Interception: drop each message on a tapped edge with this
    #: probability (0 = passive wiretap that only reads).
    eavesdrop_drop_rate: float = 0.0
    #: Pin the adversary's random stream.  None (default) derives a fresh
    #: stream from the trial RNG, so trials see independent fault patterns
    #: while staying reproducible from the scenario seed.
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in ("drop_rate", "delay_rate", "duplicate_rate", "flip_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.delay_rounds < 1:
            raise ValueError(f"delay_rounds must be >= 1, got {self.delay_rounds}")
        if self.crash_count < 0:
            raise ValueError(f"crash_count must be >= 0, got {self.crash_count}")
        if self.crash_by < 1:
            raise ValueError(f"crash_by must be >= 1, got {self.crash_by}")
        if self.input_schedule is not None and self.input_schedule not in INPUT_SCHEDULES:
            raise ValueError(
                f"input_schedule must be one of {INPUT_SCHEDULES}, "
                f"got {self.input_schedule!r}"
            )
        for entry in self.drop_schedule:
            if len(entry) != 3 or any(x < 0 for x in entry):
                raise ValueError(
                    f"drop_schedule entries are (round, sender, port) triples "
                    f"of non-negative ints, got {entry!r}"
                )
        for entry in self.crashes:
            if len(entry) != 2 or any(x < 0 for x in entry):
                raise ValueError(
                    f"crashes entries are (node, round) pairs of non-negative "
                    f"ints, got {entry!r}"
                )
        for name in ("adaptive_rate", "eavesdrop_rate", "eavesdrop_drop_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.adaptive is not None and self.adaptive not in ADAPTIVE_STRATEGIES:
            raise ValueError(
                f"adaptive must be one of {ADAPTIVE_STRATEGIES}, "
                f"got {self.adaptive!r}"
            )
        if self.adaptive_after < 0:
            raise ValueError(
                f"adaptive_after must be >= 0, got {self.adaptive_after}"
            )
        for entry in self.eavesdrop_edges:
            if len(entry) != 2 or any(x < 0 for x in entry):
                raise ValueError(
                    f"eavesdrop_edges entries are (sender, port) pairs of "
                    f"non-negative ints, got {entry!r}"
                )
        if self.eavesdrop_drop_rate > 0 and not self.has_eavesdrop:
            raise ValueError(
                "eavesdrop_drop_rate needs a tap to intercept through: set "
                "eavesdrop_rate > 0 or list eavesdrop_edges"
            )

    # -- classification --------------------------------------------------------

    @property
    def has_message_faults(self) -> bool:
        return (
            self.drop_rate > 0
            or self.delay_rate > 0
            or self.duplicate_rate > 0
            or bool(self.drop_schedule)
            or self.adaptive_may_drop
        )

    @property
    def has_crashes(self) -> bool:
        return (
            self.crash_count > 0
            or bool(self.crashes)
            or self.adaptive == "target-leader-crash"
        )

    @property
    def has_input_faults(self) -> bool:
        return self.input_schedule is not None or self.flip_fraction > 0

    @property
    def has_eavesdrop(self) -> bool:
        """True when any directed edge may be tapped."""
        return self.eavesdrop_rate > 0 or bool(self.eavesdrop_edges)

    @property
    def has_adaptive(self) -> bool:
        """True when the spec needs the engine's observation callback."""
        return self.adaptive is not None or self.has_eavesdrop

    @property
    def adaptive_may_drop(self) -> bool:
        """True when an adaptive/eavesdrop clause can discard messages."""
        return (
            self.adaptive in ("target-leader", "congestion")
            and self.adaptive_rate > 0
        ) or (self.has_eavesdrop and self.eavesdrop_drop_rate > 0)

    @property
    def is_null(self) -> bool:
        """True when the spec arms nothing at all.

        A passive wiretap (``eavesdrop`` with no interception) is *not*
        null: it never perturbs the run, but it observes traffic and
        fills the security ledger.
        """
        return not (
            self.has_message_faults
            or self.has_crashes
            or self.has_input_faults
            or self.has_adaptive
        )

    def required_capabilities(self) -> set[str]:
        """Capability tags a protocol must declare to honour this spec.

        ``"faults"`` — engine-level message/crash faults; ``"inputs"`` —
        adversarial initial-value assignment; ``"adaptive"`` — the
        protocol runs on an engine path that feeds the observation
        callback (adaptive specs also imply ``"faults"``: they need the
        same arming seam even when purely eavesdropping).  Matches
        :attr:`~repro.runtime.registry.ProtocolSpec.supports`.
        """
        needed: set[str] = set()
        if self.has_message_faults or self.has_crashes:
            needed.add("faults")
        if self.has_input_faults:
            needed.add("inputs")
        if self.has_adaptive:
            needed.update(("adaptive", "faults"))
        return needed

    # -- derivation ------------------------------------------------------------

    def derive_rng(self, trial_rng: RandomSource) -> RandomSource:
        """The adversary's private random stream for one trial.

        With ``seed`` unset, a child of the trial RNG: every trial draws an
        independent (but seed-reproducible) fault pattern.  With ``seed``
        set, a fixed stream: every trial suffers the *same* fault pattern.
        """
        if self.seed is not None:
            return RandomSource(self.seed)
        return trial_rng.spawn()

    def arm(self, rng: RandomSource, n: int, max_rounds: int | None = None):
        """Instantiate runtime state for one run on an n-node network.

        Adaptive specs arm an
        :class:`~repro.adversary.adaptive.AdaptiveAdversary`; everything
        else arms the static :class:`~repro.adversary.armed.ArmedAdversary`.
        Passing the run's ``max_rounds`` validates the crash schedule
        immediately (a crash round at or past the budget warns that it can
        never fire); the engine repeats the check at ``run()`` either way.
        """
        if self.has_adaptive:
            from repro.adversary.adaptive import AdaptiveAdversary

            armed = AdaptiveAdversary(self, rng, n)
        else:
            from repro.adversary.armed import ArmedAdversary

            armed = ArmedAdversary(self, rng, n)
        if max_rounds is not None:
            armed.check_crash_horizon(max_rounds)
        return armed

    # -- identity / serialization ---------------------------------------------

    def key_dict(self) -> dict:
        """JSON-ready identity for result-store cache keys."""
        return {
            "drop_rate": self.drop_rate,
            "delay_rate": self.delay_rate,
            "delay_rounds": self.delay_rounds,
            "duplicate_rate": self.duplicate_rate,
            "drop_schedule": [list(e) for e in self.drop_schedule],
            "crashes": [list(e) for e in self.crashes],
            "crash_count": self.crash_count,
            "crash_by": self.crash_by,
            "input_schedule": self.input_schedule,
            "flip_fraction": self.flip_fraction,
            "adaptive": self.adaptive,
            "adaptive_rate": self.adaptive_rate,
            "adaptive_after": self.adaptive_after,
            "eavesdrop_rate": self.eavesdrop_rate,
            "eavesdrop_edges": [list(e) for e in self.eavesdrop_edges],
            "eavesdrop_drop_rate": self.eavesdrop_drop_rate,
            "seed": self.seed,
        }

    def describe(self) -> str:
        """Compact human-readable summary (CLI/table output)."""
        parts: list[str] = []
        if self.drop_rate:
            parts.append(f"drop={self.drop_rate:g}")
        if self.drop_schedule:
            parts.append(f"drop-edges={len(self.drop_schedule)}")
        if self.delay_rate:
            parts.append(f"delay={self.delay_rate:g}x{self.delay_rounds}")
        if self.duplicate_rate:
            parts.append(f"dup={self.duplicate_rate:g}")
        if self.crash_count:
            parts.append(f"crash={self.crash_count}@<{self.crash_by}")
        if self.crashes:
            parts.append(f"crash-nodes={len(self.crashes)}")
        if self.input_schedule is not None:
            parts.append(f"input={self.input_schedule}")
        if self.flip_fraction:
            parts.append(f"flip={self.flip_fraction:g}")
        if self.adaptive is not None:
            parts.append(f"adaptive={self.adaptive}")
            if self.adaptive_rate != 1.0:
                parts.append(f"adaptive-rate={self.adaptive_rate:g}")
            if self.adaptive_after != 1:
                parts.append(f"adaptive-after={self.adaptive_after}")
        if self.eavesdrop_rate:
            parts.append(f"eavesdrop={self.eavesdrop_rate:g}")
        if self.eavesdrop_edges:
            parts.append(f"eavesdrop-edges={len(self.eavesdrop_edges)}")
        if self.eavesdrop_drop_rate:
            parts.append(f"eavesdrop-drop={self.eavesdrop_drop_rate:g}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return ",".join(parts) if parts else "none"

    @staticmethod
    def parse_eavesdrop(value: str) -> dict:
        """Parse one ``eavesdrop=`` clause value into spec field updates.

        ``RATE`` (a float) taps each directed edge with that probability;
        ``S:P[+S:P...]`` taps exactly the listed ``sender:port`` edges.
        Shared by :meth:`parse` and the CLI's ``--eavesdrop`` shorthand.
        """
        if ":" in value:
            edges = []
            for pair in value.split("+"):
                sender, _, port = pair.partition(":")
                edges.append((int(sender), int(port)))
            return {"eavesdrop_edges": tuple(edges)}
        return {"eavesdrop_rate": float(value)}

    @classmethod
    def parse(cls, text: str | None) -> "AdversarySpec":
        """Parse the CLI's compact spec grammar into a spec.

        Comma-separated ``key=value`` clauses::

            drop=0.1,delay=0.05,delay-rounds=2,dup=0.01,
            crash=3@5,crash-node=7@2,drop-edge=1:0:3,
            input=tie,flip=0.1,adaptive=target-leader,adaptive-rate=0.5,
            eavesdrop=0.2,eavesdrop-drop=0.5,seed=42

        ``crash=N@R`` crashes N random nodes before rounds < R (``@R``
        optional, default 1); ``crash-node`` and ``drop-edge`` may repeat;
        ``eavesdrop`` takes either a per-edge tap rate or a ``+``-joined
        ``sender:port`` edge list.  Empty text or ``"none"`` parses to the
        null spec.  Every rejection echoes the full grammar.
        """
        if text is None or not text.strip() or text.strip() == "none":
            return cls()
        kwargs: dict = {}
        crashes: list[tuple[int, int]] = []
        drop_schedule: list[tuple[int, int, int]] = []
        for clause in text.split(","):
            clause = clause.strip()
            if not clause:
                continue
            if "=" not in clause:
                raise ValueError(
                    f"adversary clause {clause!r} is not key=value\n{_GRAMMAR}"
                )
            key, _, value = clause.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in (
                "drop", "delay", "delay-rounds", "dup", "crash",
                "crash-node", "drop-edge", "input", "flip", "adaptive",
                "adaptive-rate", "adaptive-after", "eavesdrop",
                "eavesdrop-drop", "seed",
            ):
                raise ValueError(f"unknown adversary key {key!r}\n{_GRAMMAR}")
            try:
                if key == "drop":
                    kwargs["drop_rate"] = float(value)
                elif key == "delay":
                    kwargs["delay_rate"] = float(value)
                elif key == "delay-rounds":
                    kwargs["delay_rounds"] = int(value)
                elif key == "dup":
                    kwargs["duplicate_rate"] = float(value)
                elif key == "crash":
                    count, _, by = value.partition("@")
                    kwargs["crash_count"] = int(count)
                    kwargs["crash_by"] = int(by) if by else 1
                elif key == "crash-node":
                    node, _, rnd = value.partition("@")
                    crashes.append((int(node), int(rnd) if rnd else 0))
                elif key == "drop-edge":
                    rnd, sender, port = value.split(":")
                    drop_schedule.append((int(rnd), int(sender), int(port)))
                elif key == "input":
                    kwargs["input_schedule"] = value
                elif key == "flip":
                    kwargs["flip_fraction"] = float(value)
                elif key == "adaptive":
                    kwargs["adaptive"] = value
                elif key == "adaptive-rate":
                    kwargs["adaptive_rate"] = float(value)
                elif key == "adaptive-after":
                    kwargs["adaptive_after"] = int(value)
                elif key == "eavesdrop":
                    kwargs.update(cls.parse_eavesdrop(value))
                elif key == "eavesdrop-drop":
                    kwargs["eavesdrop_drop_rate"] = float(value)
                else:
                    kwargs["seed"] = int(value)
            except ValueError:
                hints = {
                    "drop-edge": "ROUND:SENDER:PORT",
                    "eavesdrop": "a rate or SENDER:PORT[+SENDER:PORT...]",
                    "crash": "N[@R]",
                    "crash-node": "NODE[@ROUND]",
                }
                raise ValueError(
                    f"bad adversary clause {clause!r}: expected "
                    f"{hints.get(key, 'a number')}\n{_GRAMMAR}"
                ) from None
        if crashes:
            kwargs["crashes"] = tuple(crashes)
        if drop_schedule:
            kwargs["drop_schedule"] = tuple(drop_schedule)
        try:
            return cls(**kwargs)
        except ValueError as error:
            raise ValueError(f"{error}\n{_GRAMMAR}") from None

    def with_updates(self, **changes) -> "AdversarySpec":
        """A copy with some fields replaced (CLI flag merging)."""
        return replace(self, **changes)


#: The do-nothing adversary; equivalent to passing None everywhere.
NULL_ADVERSARY = AdversarySpec()
