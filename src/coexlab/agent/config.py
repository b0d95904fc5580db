"""Agent configuration knobs, all defaults surfaced in one place."""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..oracle import check_alpha
from ..strategy import finite_number


# count setting -> the least value it may take
_COUNT_FLOORS = dict.fromkeys((
    "query_period_slots", "tcp_query_period_rounds", "observer_window_frames",
    "window_frames", "tcp_observer_window_rounds", "demo_frames",
    "demo_rounds", "eval_frames", "eval_rounds", "asi_retries", "demo_k"), 1)
# a DYNAMIC demo switches its population half way through the window
_COUNT_FLOORS.update(convergence_periods=0, n_max=0, warmup_frames=0,
                     demo_frames=2, demo_rounds=2)


@dataclass(frozen=True)
class AgentConfig:
    """Every tunable of the learning pipeline.

    Count settings and ``alpha`` are range-checked on construction. The
    query period must also cover whole frames (``validate``); the online loop
    re-decides actions only at period boundaries.
    """

    # online decision cadence and convergence detection
    query_period_slots: int = 100          # T
    convergence_epsilon: float = 0.02      # per-entry action drift bound
    convergence_periods: int = 3           # consecutive stable periods
    # observer thresholds
    observer_window_frames: int = 100      # M
    rate_shift_delta: float = 0.1          # outcome-rate change trigger
    overuse_threshold: float = 0.9         # slot utilization flagged as owned
    # exploration written into generated strategies
    explore_epsilon: float = 0.0
    explore_sigma: float = 0.05
    tcp_explore_sigma: float = 0.0
    # escape from a converged-but-underperforming action
    escape_sigma: float = 0.1
    escape_ratio: float = 0.9
    # offline loop
    j_opt_fraction: float = 0.95
    mac_j_target: float = 6.0              # fallback when no oracle applies
    tcp_j_target: float = 1.5
    n_max: int = 5                         # refinement rounds
    asi_retries: int = 3                   # R, total materialization attempts
    demo_k: int = 8                        # sampled actions per demo scenario
    demo_frames: int = 100                 # action window per mac sample
    demo_rounds: int = 200                 # action window per tcp sample
    eval_frames: int = 1500                # evaluation episode length, mac
    eval_rounds: int = 1000                # evaluation episode length, tcp
    # metrics parameters
    alpha: float = 1.0
    window_frames: int = 100               # throughput smoothing window
    warmup_frames: int = 500               # excluded from error metrics
    # ranker placement
    ranker_offline: bool = True
    ranker_online: bool = False
    # tcp online cadence
    tcp_query_period_rounds: int = 100
    tcp_observer_window_rounds: int = 100

    def __post_init__(self) -> None:
        for name, least in _COUNT_FLOORS.items():
            if getattr(self, name) < least:
                raise ValueError(f"agent setting {name} must be >= {least}, "
                                 f"got {getattr(self, name)!r}")
        check_alpha(self.alpha)

    def validate(self, frame_len: int = 10) -> None:
        if self.query_period_slots % frame_len:
            raise ValueError(f"query_period_slots {self.query_period_slots} "
                             f"must cover whole {frame_len}-slot frames")


# annotated field type -> (what a value must be, the test it must pass)
_SETTING_TYPES = {
    "int": ("an integer",
            lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a finite number", finite_number),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
}


def checked_agent_settings(doc: object) -> dict:
    """``doc`` if it is a JSON object of known ``AgentConfig`` names whose
    values have the field's type (ints are not bools, floats are finite
    numbers, bools are bools); ``AgentConfig`` checks their ranges."""
    if not isinstance(doc, dict):
        raise ValueError("agent settings must be a JSON object")
    types = {f.name: f.type for f in fields(AgentConfig)}
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ValueError(f"unknown agent settings: {', '.join(unknown)}")
    for name, value in sorted(doc.items()):
        what, test = _SETTING_TYPES[types[name]]
        if not test(value):
            raise ValueError(
                f"agent setting {name} must be {what}, got {value!r}")
    return doc
