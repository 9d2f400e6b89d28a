"""Statistical diagnosis: step 7 of Lazy Diagnosis (§4.5).

Scores every pattern signature by its F1 across the gathered
executions: precision = fraction of executions exhibiting the pattern
that failed; recall = fraction of failing executions that exhibit it.
A pattern present in every failing execution and no successful one gets
F1 = 1.0 and is reported as the root cause.

Unlike cooperative-bug-isolation work the paper cites, there is no
sampling here: every failing execution contributes (Snorlax diagnoses
after a *single* failure), and successful executions are capped at 10x
the failing ones — the paper's empirically determined bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.checkpoints import checkpoint
from repro.core.patterns import PatternInstance, PatternSignature

SUCCESS_TRACE_CAP_FACTOR = 10
"""Max successful traces per failing trace (paper §5)."""


@dataclass
class ExecutionObservation:
    """One execution's pattern evidence."""

    label: str
    failing: bool
    signatures: set[PatternSignature] = field(default_factory=set)
    instances: dict[PatternSignature, PatternInstance] = field(default_factory=dict)


@dataclass
class ScoredPattern:
    signature: PatternSignature
    precision: float
    recall: float
    f1: float
    failing_support: int  # failing executions exhibiting the pattern
    success_support: int
    rank: int  # best type rank seen for this signature
    example: PatternInstance | None = None

    def __str__(self) -> str:
        return (
            f"{self.signature}  F1={self.f1:.3f} "
            f"(P={self.precision:.2f}, R={self.recall:.2f}, "
            f"fail {self.failing_support}, ok {self.success_support})"
        )


def observe(
    label: str, failing: bool, computation
) -> ExecutionObservation:
    obs = ExecutionObservation(label, failing)
    for inst in computation.patterns:
        obs.signatures.add(inst.signature)
        prev = obs.instances.get(inst.signature)
        if prev is None or inst.rank < prev.rank:
            obs.instances[inst.signature] = inst
    return obs


def observation_breakdown(
    observations: list[ExecutionObservation],
) -> dict[str, int]:
    """Span-attribute-sized digest of the step-7 evidence base."""
    failing = sum(1 for o in observations if o.failing)
    return {
        "observations": len(observations),
        "failing_observations": failing,
        "success_observations": len(observations) - failing,
        "distinct_signatures": len(
            {sig for o in observations for sig in o.signatures}
        ),
    }


def score_patterns(observations: list[ExecutionObservation]) -> list[ScoredPattern]:
    """F1-rank all signatures seen in any observation.

    Ties break toward better (lower) type rank — that is how type-based
    ranking reduces diagnosis latency without discarding candidates —
    then toward higher failing support.
    """
    failing_total = sum(1 for o in observations if o.failing)
    if failing_total == 0:
        return []
    all_sigs: set[PatternSignature] = set()
    for o in observations:
        all_sigs |= o.signatures
    scored: list[ScoredPattern] = []
    for sig in all_sigs:
        fail_support = sum(1 for o in observations if o.failing and sig in o.signatures)
        ok_support = sum(
            1 for o in observations if not o.failing and sig in o.signatures
        )
        present_total = fail_support + ok_support
        precision = fail_support / present_total if present_total else 0.0
        recall = fail_support / failing_total
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        # best_rank is the true minimum over every instance of this
        # signature; the example prefers failing runs (they carry the
        # real gaps), then better type rank, then an instance whose
        # dynamics are actually populated.
        witnessed = [
            (o, o.instances[sig]) for o in observations if sig in o.instances
        ]
        best_rank = min((inst.rank for _, inst in witnessed), default=0)
        example: PatternInstance | None = None
        if witnessed:
            _, example = min(
                witnessed,
                key=lambda pair: (
                    not pair[0].failing,
                    pair[1].rank,
                    not any(d is not None for d in pair[1].dynamics),
                ),
            )
        scored.append(
            ScoredPattern(
                sig, precision, recall, f1, fail_support, ok_support, best_rank, example
            )
        )
    # Ties break toward: (a) fewer events — a pair that explains the
    # failure beats a triple that merely embeds it (the UAF read has a
    # previous-iteration read before every free, making an RWR triple
    # exactly as correlated as the true WR pair); then (b) better type
    # rank; then (c) higher failing support.
    scored.sort(
        key=lambda s: (
            -s.f1,
            len(s.signature.events),
            s.rank,
            -s.failing_support,
            str(s.signature),
        )
    )
    checkpoint(
        "statistics.score_patterns", observations=observations, scored=scored
    )
    return scored


@dataclass
class StabilityStopRule:
    """Adaptive stopping for step-8 collection: stop once the evidence is
    statistically sufficient instead of at a fixed trace count.

    The paper collects a fixed ~10x successful traces per failure; its own
    F1 framing suggests a lazier rule: if the top-ranked pattern signature
    has not changed across ``window`` consecutive successful samples, more
    samples are overwhelmingly likely to re-rank nothing — stop.  The
    fixed ``success_traces_wanted`` count stays as the cap (and as the
    fallback mode when the rule is disabled), so adaptive collection can
    only ever gather *fewer* traces than the fixed policy, never more.

    ``evaluate`` maps the successful samples gathered so far to the
    current top signature (or ``None`` when no diagnosis emerges yet);
    it must be a pure function of the sample prefix, which makes the stop
    decision — and therefore the collected evidence — independent of the
    transport and of the wave size.
    """

    evaluate: Callable[[list], object]
    window: int = 3
    min_samples: int = 4
    satisfied: bool = False
    evaluations: int = 0
    _top: object = None
    _streak: int = 0

    def observe(self, samples: list) -> None:
        """Feed the successful-sample prefix after each consumed sample."""
        if self.satisfied:
            return
        # evaluations earlier than this can never complete a streak that
        # also satisfies the min-samples floor, so skip their cost
        first_useful = max(1, self.min_samples - self.window + 1)
        if len(samples) < first_useful:
            return
        top = self.evaluate(list(samples))
        self.evaluations += 1
        if top is not None and top == self._top:
            self._streak += 1
        else:
            self._streak = 1 if top is not None else 0
        self._top = top
        if (
            top is not None
            and self._streak >= self.window
            and len(samples) >= self.min_samples
        ):
            self.satisfied = True

    def lookahead(self) -> int:
        """How many more stable samples could satisfy the rule — the
        useful speculation depth for a batched transport."""
        if self.satisfied:
            return 0
        return max(1, self.window - self._streak)


def cap_successful(observations: list[ExecutionObservation]) -> list[ExecutionObservation]:
    """Apply the paper's 10x cap on successful executions."""
    failing = [o for o in observations if o.failing]
    ok = [o for o in observations if not o.failing]
    cap = SUCCESS_TRACE_CAP_FACTOR * max(1, len(failing))
    return failing + ok[:cap]
