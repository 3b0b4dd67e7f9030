"""NDA write-throttling policies (paper Section III-B).

NDA read transactions barely disturb the host, but NDA writes interleaved
with host reads force frequent write-to-read turnarounds on the shared rank
and degrade host performance.  Chopim throttles NDA writes with one of:

* **issue-if-idle** — no throttling beyond waiting for the rank to be idle
  (the aggressive baseline in Figure 12);
* **stochastic issue** — each write is issued with a configurable
  probability, trading NDA progress against host impact without any extra
  signaling;
* **next-rank prediction** — the host-side controller inhibits NDA writes to
  a rank while the oldest outstanding host request in that channel is a read
  to the same rank, requiring only a single early signal per decision.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol

from repro.utils.rng import DeterministicRng

#: Issue probability of the stochastic throttle when none is given (the
#: paper's 1/4 operating point in Figure 12).
DEFAULT_STOCHASTIC_PROBABILITY = 0.25


class _HostQueueView(Protocol):
    """The slice of the host memory controller the predictor may observe."""

    def oldest_pending_read_rank(self) -> Optional[int]: ...


class WriteThrottlePolicy:
    """Base class: decides whether an NDA write may issue this cycle."""

    name = "base"
    STATE = ()
    #: Whether the decision is a pure function of observable state (no RNG
    #: consumption).  Deterministic policies can be peeked by the event
    #: engine via :meth:`would_allow` without perturbing the simulation;
    #: non-deterministic ones force the engine to attempt the write on every
    #: issue-eligible cycle so the RNG stream matches the cycle-by-cycle
    #: baseline.
    deterministic = True

    def allow_write(self, channel: int, rank: int, now: int) -> bool:
        raise NotImplementedError

    def would_allow(self, channel: int, rank: int, now: int) -> bool:
        """Side-effect-free preview of :meth:`allow_write`.

        Only meaningful for deterministic policies; must not touch counters
        or RNG state.
        """
        raise NotImplementedError

    def note_decisions(self, allowed: int, inhibited: int) -> None:
        """Record decisions a burst plan embedded without calling
        :meth:`allow_write` (one per planned drain attempt, each equal to
        the plan-time :meth:`would_allow`).  Policies that count their
        decisions override this; only deterministic policies are planned.
        """

    def observe_host_issue(self, channel: int, rank: int, is_read: bool,
                           now: int) -> None:
        """Hook for policies that adapt to observed host traffic."""

    def describe(self) -> str:
        return self.name


class IssueIfIdlePolicy(WriteThrottlePolicy):
    """No write throttling: issue whenever the rank is idle from the host."""

    name = "issue_if_idle"

    def allow_write(self, channel: int, rank: int, now: int) -> bool:
        return True

    def would_allow(self, channel: int, rank: int, now: int) -> bool:
        return True


class StochasticIssuePolicy(WriteThrottlePolicy):
    """Issue each NDA write with a fixed probability (no signaling needed)."""

    name = "stochastic_issue"
    deterministic = False
    STATE = ("rng", "attempts", "allowed")
    DERIVED = ("probability",)

    def __init__(self, probability: float, rng: DeterministicRng) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        self.probability = probability
        self.rng = rng
        self.attempts = 0
        self.allowed = 0

    def allow_write(self, channel: int, rank: int, now: int) -> bool:
        self.attempts += 1
        allowed = self.rng.coin(self.probability)
        if allowed:
            self.allowed += 1
        return allowed

    def describe(self) -> str:
        return f"{self.name}(p={self.probability:g})"


class NextRankPredictionPolicy(WriteThrottlePolicy):
    """Inhibit NDA writes to the rank the host is about to read.

    The predictor examines the oldest outstanding request in the host
    controller's transaction queue for the rank's channel; if that request is
    a read targeting this rank, NDA writes to the rank are stalled
    (Section III-B).  The signal is communicated ahead of the host
    transaction (modelled as available in the same cycle).
    """

    name = "next_rank_prediction"
    STATE = ("inhibits", "checks")
    DERIVED = ("host_controllers",)

    def __init__(self, host_controllers: Dict[int, _HostQueueView]) -> None:
        self.host_controllers = host_controllers
        self.inhibits = 0
        self.checks = 0

    def allow_write(self, channel: int, rank: int, now: int) -> bool:
        self.checks += 1
        if not self.would_allow(channel, rank, now):
            self.inhibits += 1
            return False
        return True

    def would_allow(self, channel: int, rank: int, now: int) -> bool:
        controller = self.host_controllers.get(channel)
        if controller is None:
            return True
        predicted = controller.oldest_pending_read_rank()
        return predicted is None or predicted != rank

    def note_decisions(self, allowed: int, inhibited: int) -> None:
        self.checks += allowed + inhibited
        self.inhibits += inhibited

    def inhibit_rate(self) -> float:
        return self.inhibits / self.checks if self.checks else 0.0


def make_policy(name: str, rng: Optional[DeterministicRng] = None,
                probability: float = DEFAULT_STOCHASTIC_PROBABILITY,
                host_controllers: Optional[Dict[int, _HostQueueView]] = None,
                ) -> WriteThrottlePolicy:
    """Factory used by experiments: ``issue_if_idle``, ``stochastic``, ``next_rank``."""
    if name in ("issue_if_idle", "none"):
        return IssueIfIdlePolicy()
    if name in ("stochastic", "stochastic_issue"):
        if rng is None:
            raise ValueError("stochastic issue requires an rng")
        return StochasticIssuePolicy(probability, rng)
    if name in ("next_rank", "next_rank_prediction", "predict_next_rank"):
        return NextRankPredictionPolicy(host_controllers or {})
    raise ValueError(f"unknown throttle policy {name!r}")
