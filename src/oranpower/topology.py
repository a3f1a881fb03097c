"""O-RAN aggregation hierarchy, nodal fanout cases, and per-segment modeling parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Union


class TopologyError(ValueError):
    """Structural topology problem (bad counts, non-divisible fanout)."""


# Upper bound on every count: the model mixes counts with floats, and a float
# holds every integer exactly only up to 2**53.
MAX_COUNT = 2**53


def _count_errors(counts: Mapping[str, object]) -> dict[str, str]:
    """An error for each count that is not an integer from 1 to ``MAX_COUNT``."""
    return {name: f"{name} must be an integer >= 1 and <= 2**53, got {count}"
            for name, count in counts.items()
            if not (isinstance(count, int) and 1 <= count <= MAX_COUNT)}


def check_counts(**counts: object) -> None:
    """Raise one ``TopologyError`` naming every count out of range and every inverted tier pair."""
    bad = _count_errors(counts)
    violations = list(bad.values())
    for wide, narrow in (("n_ru", "n_du"), ("n_du", "n_cu"), ("n_cu", "n_dc")):
        if {wide, narrow} <= counts.keys() - bad.keys() and counts[wide] < counts[narrow]:
            violations.append(f"{wide} >= {narrow} violated ({counts[wide]} < {counts[narrow]})")
    if violations:
        raise TopologyError("invalid topology: " + "; ".join(violations))


class Node(Enum):
    """Hierarchy tiers, in aggregation order from radio edge to data center."""

    ORU = "oru"
    ODU = "odu"
    OCU = "ocu"
    DC = "dc"

    __hash__ = object.__hash__  # exact for singletons compared by identity, and runs in C

    @property
    def depth(self) -> int:
        return NODE_ORDER.index(self)


NODE_ORDER: tuple[Node, ...] = (Node.ORU, Node.ODU, Node.OCU, Node.DC)


class Link(Enum):
    """Transport segments between consecutive hierarchy tiers."""

    FRONTHAUL = "fronthaul"
    MIDHAUL = "midhaul"
    BACKHAUL = "backhaul"

    __hash__ = object.__hash__  # as for Node

    @property
    def depth(self) -> int:
        return LINK_ORDER.index(self)


# Link i joins tier NODE_ORDER[i] to tier NODE_ORDER[i + 1].
LINK_ORDER: tuple[Link, ...] = (Link.FRONTHAUL, Link.MIDHAUL, Link.BACKHAUL)

Segment = Union[Node, Link]


@dataclass(frozen=True, init=False)
class Topology:
    """Node counts and user population of one aggregation tree.

    ``n_users`` is derived as ``n_ru * users_per_ru``. ``du_fanout_cap``
    records how many O-RUs each O-DU is provisioned to serve; ``None`` means
    O-DUs are sized for the O-RUs actually attached. Construction raises one
    ``TopologyError`` that lists every violated structural invariant; the cap
    is a count like the others.
    """

    n_ru: int
    n_du: int
    n_cu: int
    n_dc: int
    users_per_ru: int
    du_fanout_cap: int | None = None
    n_users: int = field(init=False)

    def __init__(self, n_ru: int, n_du: int, n_cu: int, n_dc: int, users_per_ru: int,
                 du_fanout_cap: int | None = None):
        # One test passes every valid tree of plain ints; check_counts lists what fails.
        if not (type(n_ru) is type(n_du) is type(n_cu) is type(n_dc) is type(users_per_ru) is int
                and MAX_COUNT >= n_ru >= n_du >= n_cu >= n_dc >= 1
                and MAX_COUNT >= users_per_ru >= 1
                and (du_fanout_cap is None
                     or type(du_fanout_cap) is int and MAX_COUNT >= du_fanout_cap >= 1)):
            cap = {} if du_fanout_cap is None else {"du_fanout_cap": du_fanout_cap}
            check_counts(n_ru=n_ru, n_du=n_du, n_cu=n_cu, n_dc=n_dc, users_per_ru=users_per_ru, **cap)
        self.__dict__.update(n_ru=n_ru, n_du=n_du, n_cu=n_cu, n_dc=n_dc,
                             users_per_ru=users_per_ru, du_fanout_cap=du_fanout_cap,
                             n_users=n_ru * users_per_ru)


@dataclass(frozen=True)
class SegmentParams:
    """Modeling parameters of one node tier or transport segment.

    ``sigma`` covers cooling/conversion/distribution overhead and ``alpha``
    the peak-versus-mean provisioning headroom. The coverage factor is not a
    parameter: tier i and link i share each instance of tier i among the
    users, so their factor is tier i's instance count over the user count.
    The hop counts give extra devices per segment beyond the built-in one
    switch and one WDM link (plus one router where ``gamma`` is 1).
    """

    segment: Segment
    sigma: float
    alpha: float
    hops_switch: int = 0
    hops_wdm: int = 0
    hops_router: int = 0
    gamma: int = 0

    def __post_init__(self):
        for name in ("sigma", "alpha"):
            factor = getattr(self, name)
            if not (math.isfinite(factor) and factor >= 1):
                raise TopologyError(
                    f"{self.segment.value}: {name} must be a finite number >= 1, got {factor}")
        if not math.isfinite(self.alpha * self.sigma):
            raise TopologyError(f"{self.segment.value}: alpha * sigma must be finite, "
                                f"got {self.alpha} * {self.sigma}")
        for name in ("hops_switch", "hops_wdm", "hops_router"):
            hops = getattr(self, name)
            if not (isinstance(hops, int) and 0 <= hops <= MAX_COUNT):
                raise TopologyError(f"{self.segment.value}: {name} must be an integer >= 0 and "
                                    f"<= 2**53, got {hops}")
        if self.gamma not in (0, 1):
            raise TopologyError(f"{self.segment.value}: gamma must be 0 or 1, got {self.gamma}")


# Built once and shared, as SegmentParams is frozen; callers get a new list or dict.
_DEFAULT_SEGMENT_MAP = {entry.segment: entry for entry in (
    SegmentParams(Node.ORU, sigma=1.0, alpha=5.0),
    SegmentParams(Node.ODU, sigma=2.0, alpha=5.0),
    SegmentParams(Node.OCU, sigma=2.0, alpha=5.0),
    SegmentParams(Node.DC, sigma=1.5, alpha=1.3),
    SegmentParams(Link.FRONTHAUL, sigma=2.0, alpha=5.0),
    SegmentParams(Link.MIDHAUL, sigma=2.0, alpha=5.0),
    SegmentParams(Link.BACKHAUL, sigma=1.5, alpha=2.0, gamma=1),
)}


def default_segment_params() -> list[SegmentParams]:
    """Default overhead and overprovisioning settings per segment.

    Routers participate on the backhaul only (gamma = 1 there); hop counts
    default to zero, i.e. one device of each class per segment.
    """
    return list(_DEFAULT_SEGMENT_MAP.values())


def segment_map(params: list[SegmentParams] | None = None) -> dict[Segment, SegmentParams]:
    """Key segment parameters by segment; defaults when ``params`` is omitted."""
    return dict(_DEFAULT_SEGMENT_MAP) if params is None else {entry.segment: entry for entry in params}


@dataclass(frozen=True)
class FanoutCase:
    """A nodal fanout configuration: the whole number of children per parent at each tier."""

    label: str
    du_fanout: int
    cu_fanout: int
    dc_fanout: int

    def __post_init__(self):
        errors = _count_errors({name: getattr(self, name)
                                for name in ("du_fanout", "cu_fanout", "dc_fanout")})
        if errors:
            raise TopologyError(f"{self.label}: " + "; ".join(errors.values()))


FANOUT_CASES: dict[str, FanoutCase] = {
    case.label: case
    for case in (
        FanoutCase("C-1", 1, 1, 1),
        FanoutCase("C-2", 1, 10, 1),
        FanoutCase("C-3", 1, 1, 10),
        FanoutCase("C-4", 10, 1, 1),
        FanoutCase("C-5", 2, 2, 2),
    )
}


def fanout_case(label: str) -> FanoutCase:
    try:
        return FANOUT_CASES[label]
    except KeyError:
        raise TopologyError(
            f"unknown fanout case {label!r}; expected one of {', '.join(FANOUT_CASES)}"
        ) from None


def build_sweep_topology(n_ru: int, users_per_ru: int, du_fanout_cap: int = 4) -> Topology:
    """Topology for the O-RU count sweep: one O-DU per ``du_fanout_cap`` O-RUs.

    Another O-DU is added whenever the O-RU count crosses a multiple of the
    cap; a single O-CU and a single DC aggregate the whole tree.
    """
    try:
        # n_du is the integer ceiling of n_ru / du_fanout_cap, exact at any count.
        return Topology(n_ru=n_ru, n_du=-(-n_ru // du_fanout_cap), n_cu=1, n_dc=1,
                        users_per_ru=users_per_ru, du_fanout_cap=du_fanout_cap)
    except (ArithmeticError, TypeError, ValueError):
        # Valid inputs give a valid tree: name the bad input, not the n_du derived from it.
        check_counts(n_ru=n_ru, users_per_ru=users_per_ru, du_fanout_cap=du_fanout_cap)
        raise


def _divide_exact(count: int, fanout: int, level: str, case: FanoutCase) -> int:
    quotient, remainder = divmod(count, fanout)
    if remainder:
        raise TopologyError(
            f"{case.label}: {count} nodes not divisible by {level} fanout {fanout}"
        )
    return quotient


def from_fanout_case(case: FanoutCase, n_ru: int, users_per_ru: int) -> Topology:
    """Topology whose successive node-count ratios match the fanout case exactly."""
    check_counts(n_ru=n_ru, users_per_ru=users_per_ru)
    n_du = _divide_exact(n_ru, case.du_fanout, "O-DU", case)
    n_cu = _divide_exact(n_du, case.cu_fanout, "O-CU", case)
    n_dc = _divide_exact(n_cu, case.dc_fanout, "DC", case)
    return Topology(
        n_ru=n_ru,
        n_du=n_du,
        n_cu=n_cu,
        n_dc=n_dc,
        users_per_ru=users_per_ru,
        du_fanout_cap=case.du_fanout,
    )
