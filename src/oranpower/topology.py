"""O-RAN aggregation hierarchy, nodal fanout cases, and per-segment modeling parameters."""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Union


class TopologyError(ValueError):
    """Structural topology problem (bad counts, non-divisible fanout)."""


# Upper bound on every count: the model mixes counts with floats, and a float
# holds every integer exactly only up to 2**53.
MAX_COUNT = 2**53


def count_error(name: str, value: object, low: int = 1) -> str | None:
    """None for an int, but no bool, from ``low`` to 2**53; else the error, naming ``name``."""
    if ((type(value) is int or isinstance(value, int) and not isinstance(value, bool))
            and low <= value <= MAX_COUNT):
        return None
    return f"{name} must be an integer >= {low} and <= 2**53, got {shown(value, str)}"


def is_finite(value: object) -> bool:
    """``math.isfinite(value)``, but False for no real number and for an int beyond a float."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def shown(value: object, text: Callable[[object], str] = repr) -> str:
    """``text(value)`` for an error message, or the size of an int too long for text."""
    try:
        return text(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        return f"an int of {value.bit_length()} bits"


class Record:
    """A frozen record whose fields are its ``vars``, stored in order by its ``__init__``.

    Equality, hash and repr read the fields in that order, as a frozen dataclass's do.
    ``__replace__(**changes)``, which ``copy.replace`` calls from Python 3.13, builds a
    new record through the constructor, so every check runs again.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __replace__(self, **changes):
        return type(self)(**{**vars(self), **changes})


def check_counts(**counts: object) -> None:
    """Raise one ``TopologyError`` naming every bad count, inverted tier pair and too small cap."""
    bad = {name: error for name, count in counts.items() if (error := count_error(name, count))}
    violations = list(bad.values())
    for wide, narrow in (("n_ru", "n_du"), ("n_du", "n_cu"), ("n_cu", "n_dc")):
        if {wide, narrow} <= counts.keys() - bad.keys() and counts[wide] < counts[narrow]:
            violations.append(f"{wide} >= {narrow} violated ({counts[wide]} < {counts[narrow]})")
    n_ru, n_du, cap = map(counts.get, ("n_ru", "n_du", "du_fanout_cap"))
    if {"n_ru", "n_du", "du_fanout_cap"} <= counts.keys() - bad.keys() and n_ru > n_du * cap:
        violations.append(f"n_ru <= n_du * du_fanout_cap violated ({n_ru} > {n_du} * {cap})")
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
        return _DEPTHS[self]


NODE_ORDER: tuple[Node, ...] = (Node.ORU, Node.ODU, Node.OCU, Node.DC)


class Link(Enum):
    """Transport segments between consecutive hierarchy tiers."""

    FRONTHAUL = "fronthaul"
    MIDHAUL = "midhaul"
    BACKHAUL = "backhaul"

    __hash__ = object.__hash__  # as for Node

    @property
    def depth(self) -> int:
        return _DEPTHS[self]


# Link i joins tier NODE_ORDER[i] to tier NODE_ORDER[i + 1].
LINK_ORDER: tuple[Link, ...] = (Link.FRONTHAUL, Link.MIDHAUL, Link.BACKHAUL)

Segment = Union[Node, Link]

# The position of each tier in NODE_ORDER and of each link in LINK_ORDER.
_DEPTHS: dict[Segment, int] = {segment: depth for order in (NODE_ORDER, LINK_ORDER)
                               for depth, segment in enumerate(order)}


class Topology(Record):
    """Node counts and user population of one aggregation tree.

    ``n_users`` is derived as ``n_ru * users_per_ru``. ``du_fanout_cap`` records how many
    O-RUs each O-DU is provisioned to serve, so ``n_ru <= n_du * du_fanout_cap``; ``None``
    means O-DUs are sized for the O-RUs actually attached. Construction raises one
    ``TopologyError`` that lists every violated structural invariant; the cap is a count
    like the others.
    """

    def __init__(self, n_ru: int, n_du: int, n_cu: int, n_dc: int, users_per_ru: int,
                 du_fanout_cap: int | None = None):
        # One test passes every valid tree of plain ints, and check_counts lists what fails.
        # A second copy of the count rule, kept for speed: 0.8 us a tree, check_counts alone 2.9.
        if not (type(n_ru) is type(n_du) is type(n_cu) is type(n_dc) is type(users_per_ru) is int
                and MAX_COUNT >= n_ru >= n_du >= n_cu >= n_dc >= 1
                and MAX_COUNT >= users_per_ru >= 1
                and (du_fanout_cap is None
                     or type(du_fanout_cap) is int and MAX_COUNT >= du_fanout_cap >= 1
                     and n_ru <= n_du * du_fanout_cap)):
            cap = {} if du_fanout_cap is None else {"du_fanout_cap": du_fanout_cap}
            check_counts(n_ru=n_ru, n_du=n_du, n_cu=n_cu, n_dc=n_dc, users_per_ru=users_per_ru, **cap)
        self.__dict__.update(n_ru=n_ru, n_du=n_du, n_cu=n_cu, n_dc=n_dc,
                             users_per_ru=users_per_ru, du_fanout_cap=du_fanout_cap,
                             n_users=n_ru * users_per_ru)

    def __replace__(self, **changes):
        fields = vars(self).copy()
        del fields["n_users"]  # derived again, so the constructor rejects it as a change
        fields.update(changes)
        return type(self)(**fields)


class SegmentParams(Record):
    """Modeling parameters of one node tier or transport segment.

    ``sigma`` covers cooling/conversion/distribution overhead and ``alpha``
    the peak-versus-mean provisioning headroom. The coverage factor is not a
    parameter: tier i and link i share each instance of tier i among the
    users, so their factor is tier i's instance count over the user count.
    The hop counts give extra devices per link beyond the built-in one
    switch and one WDM link (plus one router where ``gamma`` is 1); a tier
    takes only σ and α.
    """

    def __init__(self, segment: Segment, sigma: float, alpha: float, hops_switch: int = 0,
                 hops_wdm: int = 0, hops_router: int = 0, gamma: int = 0):
        # One check per field, in field order: the segment first, as later messages name it.
        if type(segment) is not Node and type(segment) is not Link:
            raise TopologyError(f"segment must be a Node or a Link, got {segment!r}")
        for name, factor in (("sigma", sigma), ("alpha", alpha)):
            if not (is_finite(factor) and factor >= 1):
                raise TopologyError(f"{segment.value}: {name} must be a finite number >= 1, "
                                    f"got {shown(factor)}")
        if not is_finite(alpha * sigma):
            raise TopologyError(f"{segment.value}: alpha * sigma must be finite, "
                                f"got {alpha} * {sigma}")
        for name, count in (("hops_switch", hops_switch), ("hops_wdm", hops_wdm),
                            ("hops_router", hops_router)):
            if error := count_error(name, count, 0):
                raise TopologyError(f"{segment.value}: {error}")
        if count_error("gamma", gamma, 0) or gamma > 1:  # not True, nor 1.0
            raise TopologyError(f"{segment.value}: gamma must be 0 or 1, got {shown(gamma, str)}")
        if type(segment) is Node and (hops_switch or hops_wdm or hops_router or gamma):
            links_only = {"hops_switch": hops_switch, "hops_wdm": hops_wdm,
                          "hops_router": hops_router, "gamma": gamma}
            name = next(name for name, value in links_only.items() if value)
            raise TopologyError(f"{segment.value}: {name} must be 0, as only links have hops "
                                f"and routers, got {links_only[name]}")
        self.__dict__.update(segment=segment, sigma=sigma, alpha=alpha, hops_switch=hops_switch,
                             hops_wdm=hops_wdm, hops_router=hops_router, gamma=gamma)


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


def segment_map() -> dict[Segment, SegmentParams]:
    """The default overhead and overprovisioning settings, keyed by segment.

    Routers participate on the backhaul only (gamma = 1 there); hop counts
    default to zero, i.e. one device of each class per segment.
    """
    return dict(_DEFAULT_SEGMENT_MAP)


class FanoutCase(Record):
    """A nodal fanout configuration: the whole number of children per parent at each tier."""

    def __init__(self, label: str, du_fanout: int, cu_fanout: int, dc_fanout: int):
        fanouts = {"du_fanout": du_fanout, "cu_fanout": cu_fanout, "dc_fanout": dc_fanout}
        errors = [error for name, count in fanouts.items() if (error := count_error(name, count))]
        if errors:
            raise TopologyError(f"{label}: " + "; ".join(errors))
        self.__dict__.update(label=label, **fanouts)


# O-RUs per O-DU in the sweep topology unless a caller sets the cap.
DEFAULT_DU_FANOUT_CAP = 4

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


def build_sweep_topology(n_ru: int, users_per_ru: int,
                         du_fanout_cap: int = DEFAULT_DU_FANOUT_CAP) -> Topology:
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
    try:
        n_du = _divide_exact(n_ru, case.du_fanout, "O-DU", case)
        n_cu = _divide_exact(n_du, case.cu_fanout, "O-CU", case)
        n_dc = _divide_exact(n_cu, case.dc_fanout, "DC", case)
        return Topology(n_ru=n_ru, n_du=n_du, n_cu=n_cu, n_dc=n_dc, users_per_ru=users_per_ru,
                        du_fanout_cap=case.du_fanout)
    except (ArithmeticError, TypeError, ValueError):
        # As in build_sweep_topology: a bad input is named before a count derived from it.
        check_counts(n_ru=n_ru, users_per_ru=users_per_ru)
        raise
