"""Experiment harnesses: the O-RU count sweep and the nodal fanout study."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .powermodel import ModelConfig, PowerBreakdown, per_user_watts
from .topology import (
    DEFAULT_DU_FANOUT_CAP,
    MAX_COUNT,
    NODE_ORDER,
    FanoutCase,
    Node,
    build_sweep_topology,
    from_fanout_case,
)

# Smallest O-RU count divisible by every built-in fanout chain (C-2/C-3/C-4
# need 10, C-5 needs 8).
DEFAULT_FANOUT_N_RU = 40
DEFAULT_USERS_PER_RU = 10


@dataclass(frozen=True)
class FanoutStudyRecord:
    """One evaluated (fanout case, BBP placement) cell of the fanout study."""

    case: str
    breakdown: PowerBreakdown


def _ordered_placements(placements: Iterable[Node]) -> list[Node]:
    """The distinct placements in depth order; an unknown one is rejected as ``evaluate`` does."""
    wanted = list(placements)
    for placement in wanted:
        if placement not in NODE_ORDER:
            raise ValueError(f"unknown BBP placement: {placement!r}")
    return [node for node in NODE_ORDER if node in wanted]


def sweep_orus(n_ru_range: Iterable[int], users_per_ru: int,
               placements: Iterable[Node], config: ModelConfig,
               du_fanout_cap: int = DEFAULT_DU_FANOUT_CAP) -> Iterator[tuple]:
    """Price every (n_ru, placement) pair over sweep topologies, yielding rows lazily.

    A row is ``(n_ru, placement, watts)``: the 11 ``per_user_watts`` of
    ``config.evaluate`` on that cell's ``build_sweep_topology``, bit for bit.
    Rows are ordered by (n_ru, placement depth) regardless of the input
    iteration order, so identical inputs produce identical streams; a
    ``range`` with a positive step is already in that order and is iterated
    as it is, without being held in memory. The call itself raises on an
    empty range and evaluates every placement at the first O-RU count, so a
    bad ``users_per_ru`` or ``du_fanout_cap``, or a config that fails for
    some placement, is raised before any row.
    """
    if isinstance(n_ru_range, range) and n_ru_range.step > 0:
        counts = n_ru_range
    else:
        counts = sorted(set(n_ru_range))
    if not counts:
        raise ValueError("n_ru_range must be non-empty")
    ordered = _ordered_placements(placements)
    first = build_sweep_topology(counts[0], users_per_ru, du_fanout_cap)
    for placement in ordered:
        config.evaluate(first, placement)  # and so caches the placement's plan on the config
    return _sweep_rows(counts, users_per_ru, ordered, config, du_fanout_cap)


def _sweep_rows(counts, users_per_ru, ordered, config, du_fanout_cap):
    """The rows of ``sweep_orus``, each count's from each placement's plan kernel directly."""
    plans = [(placement, config._plans[placement]) for placement in ordered]
    for n_ru in counts:
        # Topology's test of n_ru, for a count above the first, which checked the rest.
        if not (type(n_ru) is int and n_ru <= MAX_COUNT):
            build_sweep_topology(n_ru, users_per_ru, du_fanout_cap)  # raises its TopologyError
        n_du = -(-n_ru // du_fanout_cap)
        n_users = n_ru * users_per_ru
        ru_per_du = config._ru_per_du(n_ru, n_du, du_fanout_cap)
        for placement, plan in plans:
            nodes, segments = plan.kernel(n_ru, n_du, 1, 1, n_users, ru_per_du)
            watts = per_user_watts(nodes, segments, plan.ue_watts)
            if watts is None:  # evaluate prices the cell again and raises its overflow error
                config.evaluate(build_sweep_topology(n_ru, users_per_ru, du_fanout_cap), placement)
            yield n_ru, placement, watts


def fanout_study(cases: Sequence[FanoutCase], n_ru: int, users_per_ru: int,
                 placements: Iterable[Node], config: ModelConfig) -> list[FanoutStudyRecord]:
    """Evaluate every (fanout case, placement) pair at a fixed O-RU count.

    The O-RU placement is included for completeness; its breakdown carries no
    coverage-weighted term beyond the O-RU itself, so it repeats identically
    across cases.
    """
    ordered = _ordered_placements(placements)
    records = []
    for case in cases:
        topology = from_fanout_case(case, n_ru, users_per_ru)
        for placement in ordered:
            records.append(FanoutStudyRecord(case.label, config.evaluate(topology, placement)))
    return records
