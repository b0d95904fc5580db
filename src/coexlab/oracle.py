"""Closed-form reference for populations of ALOHA, TDMA and externally
controlled nodes.

For these kinds the per-slot success probabilities factor into independent
Bernoulli terms, so expected throughputs have an exact closed form and the
best controlled policy can be found by coordinate ascent on the per-slot
transmission probabilities. Populations containing carrier-sensing or
backoff nodes have no such form and are rejected.

Caveat recorded with every solution: the reference optimizes within the
class of per-slot i.i.d. Bernoulli policies. Policies with cross-slot
memory are outside the search space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import UnsupportedPopulationError
from .mac import (CONTROLLED_KINDS, KIND_ALOHA, KIND_TDMA, MAC_FORMAT,
                  ScenarioSpec)
from .metrics import THROUGHPUT_SCALE, StepSeries
from .scenario import Timeline

POLICY_CLASS_CAVEAT = (
    "reference optimum searched over per-slot Bernoulli policies only; "
    "policies with cross-slot memory are not represented"
)

GRID_COARSE = 0.1
GRID_FINEST = 1e-3
MAX_SWEEPS = 40                  # per grid level
_FLOOR = 1e-12


@dataclass
class Population:
    """Node mix the closed form supports, in a fixed role order:
    controlled agents first, then ALOHA, then TDMA."""

    n_agents: int
    aloha_q: List[float]
    tdma_slots: List[Tuple[int, ...]]
    frame_len: int = 10


@dataclass
class OracleSolution:
    policies: List[List[float]]
    objective: float
    agent_throughputs: List[float]
    aloha_throughputs: List[float]
    tdma_throughputs: List[float]
    caveat: str = POLICY_CLASS_CAVEAT


def population_from_scenario(spec: ScenarioSpec,
                             live_ids: Sequence[int]) -> Population:
    """Build a Population from the live subset of a scenario.

    Raises UnsupportedPopulationError for node kinds without a closed form.
    """
    n_agents = 0
    aloha_q: List[float] = []
    tdma: List[Tuple[int, ...]] = []
    for nid in live_ids:
        cfg = spec.nodes[nid]
        if cfg.kind in CONTROLLED_KINDS:
            n_agents += 1
        elif cfg.kind == KIND_ALOHA:
            aloha_q.append(float(cfg.q))
        elif cfg.kind == KIND_TDMA:
            tdma.append(tuple(cfg.slots))
        else:
            raise UnsupportedPopulationError(
                f"node {nid} kind {cfg.kind!r} has no closed-form reference"
            )
    return Population(n_agents=n_agents, aloha_q=aloha_q, tdma_slots=tdma,
                      frame_len=spec.frame_len)


def expected_throughputs(policies: Sequence[Sequence[float]],
                         pop: Population) -> Tuple[List[float], List[float], List[float]]:
    """Exact expected success rate (successes per slot) for every node.

    ``policies`` holds one per-slot transmission probability vector per
    controlled agent, in the population's agent order.
    """
    if len(policies) != pop.n_agents:
        raise ValueError(
            f"expected {pop.n_agents} policies, got {len(policies)}"
        )
    for vec in policies:
        if len(vec) != pop.frame_len:
            raise ValueError("policy length must equal frame_len")
        for p in vec:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"policy prob {p} outside [0, 1]")

    L = pop.frame_len
    all_silent_aloha = 1.0
    for q in pop.aloha_q:
        all_silent_aloha *= (1.0 - q)

    owners_per_slot = [[] for _ in range(L)]
    for t_idx, slots in enumerate(pop.tdma_slots):
        for s in slots:
            owners_per_slot[s].append(t_idx)

    agents = [0.0] * pop.n_agents
    aloha = [0.0] * len(pop.aloha_q)
    tdma = [0.0] * len(pop.tdma_slots)

    for k in range(L):
        owners = owners_per_slot[k]
        agents_silent = 1.0
        for vec in policies:
            agents_silent *= (1.0 - vec[k])
        if not owners:
            for i, vec in enumerate(policies):
                others = 1.0
                for j, other in enumerate(policies):
                    if j != i:
                        others *= (1.0 - other[k])
                agents[i] += vec[k] * others * all_silent_aloha
            for a, q in enumerate(pop.aloha_q):
                others = 1.0
                for b, qb in enumerate(pop.aloha_q):
                    if b != a:
                        others *= (1.0 - qb)
                aloha[a] += q * others * agents_silent
        elif len(owners) == 1:
            tdma[owners[0]] += all_silent_aloha * agents_silent
        # two or more owners always collide in this slot

    return ([x / L for x in agents], [x / L for x in aloha],
            [x / L for x in tdma])


def _utility(x: float, alpha: float) -> float:
    scaled = max(x, _FLOOR) * THROUGHPUT_SCALE
    if alpha == 1.0:
        return math.log(scaled)
    return scaled ** (1.0 - alpha) / (1.0 - alpha)


def check_alpha(alpha: float) -> float:
    """``alpha`` if it is >= 0 and the utility of the floor rate, the
    floor raised to ``1 - alpha``, is finite at it."""
    try:
        usable = alpha >= 0.0 and math.isfinite(_utility(0.0, alpha))
    except OverflowError:
        usable = False
    if not usable:
        raise ValueError(f"alpha must be >= 0 and keep the utility of the "
                         f"{_FLOOR:g} rate floor finite, got {alpha}")
    return alpha


def fair_objective(values: Iterable[float], alpha: float = 1.0) -> float:
    """Alpha-fair welfare with zero rates floored rather than rejected.

    The solver and the agent-side reward both score throughput vectors
    that may legitimately contain zeros (a silent node), so this floors
    them at a tiny positive rate.
    """
    return sum(_utility(x, alpha) for x in values)


def _objective(policies: List[List[float]], pop: Population,
               alpha: float) -> float:
    agents, aloha, tdma = expected_throughputs(policies, pop)
    return fair_objective(agents + aloha + tdma, alpha)


def _free_slots(pop: Population) -> List[int]:
    owned = set()
    for slots in pop.tdma_slots:
        owned.update(slots)
    return [k for k in range(pop.frame_len) if k not in owned]


def _starting_points(pop: Population) -> List[List[List[float]]]:
    L = pop.frame_len
    free = set(_free_slots(pop))
    uniform = [[0.5] * L for _ in range(pop.n_agents)]
    ones_free = [
        [1.0 if k in free else 0.0 for k in range(L)]
        for _ in range(pop.n_agents)
    ]
    starts = [uniform, ones_free]
    if pop.n_agents > 1:
        partition = [[0.0] * L for _ in range(pop.n_agents)]
        for idx, k in enumerate(sorted(free)):
            partition[idx % pop.n_agents][k] = 1.0
        starts.append(partition)
    return starts


def _ascend(policies: List[List[float]], pop: Population,
            alpha: float) -> Tuple[List[List[float]], float]:
    """Cyclic coordinate ascent with a shrinking search grid.

    At the coarsest level every coordinate scans the full [0, 1] grid;
    afterwards only a neighborhood of the current value, since each
    coordinate section of the objective is unimodal.
    """
    best = _objective(policies, pop, alpha)
    step = GRID_COARSE
    while step >= GRID_FINEST:
        full_scan = step == GRID_COARSE
        for _ in range(MAX_SWEEPS):
            improved = False
            for i in range(pop.n_agents):
                for k in range(pop.frame_len):
                    current = policies[i][k]
                    if full_scan:
                        candidates = [j * step for j in
                                      range(int(round(1.0 / step)) + 1)]
                    else:
                        candidates = [
                            min(1.0, max(0.0, current + j * step))
                            for j in range(-3, 4) if j != 0
                        ]
                    for cand in candidates:
                        if cand == current:
                            continue
                        policies[i][k] = cand
                        val = _objective(policies, pop, alpha)
                        if val > best + 1e-12:
                            best = val
                            current = cand
                            improved = True
                        else:
                            policies[i][k] = current
            if not improved:
                break
        step /= 2.0
    return policies, best


def solve_aware(pop: Population, alpha: float = 1.0) -> OracleSolution:
    """Best per-slot Bernoulli policies for all controlled agents under the
    alpha-fair objective over every node's expected throughput. With no
    controlled agent the policies are empty and the throughputs those of
    the fixed nodes alone."""
    best_policies: List[List[float]] | None = None
    best_value = -math.inf
    for start in _starting_points(pop):
        candidate = [vec[:] for vec in start]
        candidate, value = _ascend(candidate, pop, alpha)
        # strict improvement keeps the earliest (most symmetric) start on ties
        if value > best_value + 1e-9:
            best_value = value
            best_policies = candidate
    assert best_policies is not None
    agents, aloha, tdma = expected_throughputs(best_policies, pop)
    return OracleSolution(
        policies=best_policies,
        objective=best_value,
        agent_throughputs=agents,
        aloha_throughputs=aloha,
        tdma_throughputs=tdma,
    )


@functools.lru_cache(maxsize=64)
def _solved(n_agents: int, aloha_q: Tuple[float, ...],
            tdma_slots: Tuple[Tuple[int, ...], ...], frame_len: int,
            alpha: float) -> OracleSolution:
    """``solve_aware`` once per population and alpha in this process: the
    offline J target and the run's reference ask for the same segments.
    Every caller shares the returned solution, so none may mutate it."""
    return solve_aware(Population(n_agents, list(aloha_q), list(tdma_slots),
                                  frame_len), alpha=alpha)


@dataclass
class ReferenceSegment:
    start_frame: int
    end_frame: int
    live_ids: Tuple[int, ...]
    solution: OracleSolution
    # node id -> expected throughput within this segment
    node_values: Dict[int, float] = field(default_factory=dict)


def aware_trajectory(spec: ScenarioSpec,
                     alpha: float = 1.0) -> Tuple[Dict[int, StepSeries], List[ReferenceSegment]]:
    """Piecewise-constant per-frame reference throughput for every node,
    one ``StepSeries`` per node id over the segments.

    Each population segment is solved independently; a node absent from a
    segment holds value 0 there.
    """
    segments_out = []
    segments = Timeline(MAC_FORMAT.lifetimes(spec.nodes)).stretches(
        0, spec.total_frames)
    # node id -> its value in each segment
    values = {nid: [0.0] * len(segments) for nid in range(len(spec.nodes))}
    for k, (start, end, live) in enumerate(segments):
        pop = population_from_scenario(spec, live)
        solution = _solved(pop.n_agents, tuple(pop.aloha_q),
                           tuple(pop.tdma_slots), pop.frame_len, alpha)
        # live ids in the population's role order: controlled, ALOHA, TDMA
        ordered = [nid for kinds in (CONTROLLED_KINDS, (KIND_ALOHA,),
                                     (KIND_TDMA,))
                   for nid in live if spec.nodes[nid].kind in kinds]
        seg = ReferenceSegment(
            start_frame=start, end_frame=end, live_ids=live,
            solution=solution, node_values=dict(zip(
                ordered, solution.agent_throughputs
                + solution.aloha_throughputs + solution.tdma_throughputs)))
        for nid, val in seg.node_values.items():
            values[nid][k] = val
        segments_out.append(seg)
    starts = [start for start, _, _ in segments]
    reference = {nid: StepSeries(starts, column, spec.total_frames)
                 for nid, column in values.items()}
    return reference, segments_out
