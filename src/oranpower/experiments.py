"""Experiment harnesses: the O-RU count sweep and the nodal fanout study."""

from __future__ import annotations

from itertools import chain, count, pairwise
from typing import Iterable, Iterator, Sequence

from .powermodel import ModelConfig, PowerOverflowError, run_loops
from .topology import (
    DEFAULT_DU_FANOUT_CAP,
    NODE_ORDER,
    FanoutCase,
    Node,
    build_sweep_topology,
    count_error,
    from_fanout_case,
)

# Smallest O-RU count divisible by every built-in fanout chain (C-2/C-3/C-4
# need 10, C-5 needs 8).
DEFAULT_FANOUT_N_RU = 40
DEFAULT_USERS_PER_RU = 10
# O-RU counts per call of a placement's sweep row loop: enough to spread each call's fixed
# cost, few enough that a chunk's rows stay small.
SWEEP_CHUNK = 256


def _bind(placements: Iterable[Node], config: ModelConfig, csv: bool) -> tuple[list, list]:
    """The distinct placements in depth order and the row loop of each, bound once through
    ``config._loop``, which rejects a placement that is not a ``Node`` as ``evaluate`` does."""
    bound = {}
    for placement in placements:
        if type(placement) is not Node or placement not in bound:
            bound[placement] = config._loop(placement, True, csv)
    ordered = [node for node in NODE_ORDER if node in bound]
    return ordered, [bound[node] for node in ordered]


def sweep_orus(n_ru_range: Iterable[int], users_per_ru: int,
               placements: Iterable[Node], config: ModelConfig,
               du_fanout_cap: int = DEFAULT_DU_FANOUT_CAP) -> Iterator[tuple]:
    """Price every (n_ru, placement) pair over sweep topologies, yielding rows lazily.

    A row is ``(n_ru, placement, watts)``: the 11 per-user figures, in ``cli.CSV_COLUMNS`` order,
    of ``config.evaluate`` on that cell's ``build_sweep_topology``, bit for bit.
    Rows are ordered by (n_ru, placement depth) regardless of the input
    iteration order, so identical inputs produce identical streams; a
    ``range`` with a positive step is already in that order and is read as
    it is, ``SWEEP_CHUNK`` counts at a time, without being held in memory.
    The call itself raises on an empty range, on any count, ``users_per_ru``
    or ``du_fanout_cap`` that ``build_sweep_topology`` rejects, and on a
    config that fails for some placement at the first O-RU count, before any row.
    """
    return chain.from_iterable(sweep_chunks(n_ru_range, users_per_ru, placements, config,
                                            du_fanout_cap))


def sweep_chunks(n_ru_range: Iterable[int], users_per_ru: int, placements: Iterable[Node],
                 config: ModelConfig, du_fanout_cap: int = DEFAULT_DU_FANOUT_CAP,
                 csv: bool = False) -> Iterator[list]:
    """The rows of ``sweep_orus``: a list for the first count, then one per ``SWEEP_CHUNK``.

    With ``csv``, each row is instead the CSV data line of n_ru, the
    placement's name and the 11 watts to 6 significant digits. ``run_loops``
    prices a chunk through each placement's row loop, bound once, from O-DU
    counts computed once for all placements. The call checks every count as
    ``build_sweep_topology`` does, a list's before sorting, and prices the
    first count's list. A cell that fails its row check ends the stream: the
    rows before it come first, unless it is at the first count, then its error.
    """
    if isinstance(n_ru_range, range) and n_ru_range.step > 0:
        counts = n_ru_range
        later = counts[-1:]  # a range holds ints, none above its last
    else:
        listed = list(n_ru_range)
        for n_ru in listed:  # each before sorting, which may not order it
            if count_error("n_ru", n_ru):
                build_sweep_topology(n_ru, users_per_ru, du_fanout_cap)  # raises its error
        counts, later = sorted(set(listed)), ()
    if not counts:
        raise ValueError("n_ru_range must be non-empty")
    ordered, loops = _bind(placements, config, csv)
    build_sweep_topology(counts[0], users_per_ru, du_fanout_cap)
    for n_ru in later:
        if count_error("n_ru", n_ru):
            build_sweep_topology(n_ru, users_per_ru, du_fanout_cap)  # raises its error
    chunks = _chunks(counts, users_per_ru, ordered, du_fanout_cap, loops)
    head = next(chunks)
    if len(head) < len(ordered):  # a cell of the first count failed: raise its error
        next(chunks)
    return chain([head], chunks)


def _chunks(counts, users_per_ru, ordered, du_fanout_cap, loops):
    """The lists of ``sweep_chunks``: each chunk's rows from every loop, in (n_ru, depth) order,
    up to the first cell that fails, whose error then ends the stream."""
    for start, end in pairwise(chain([0], count(1, SWEEP_CHUNK))):  # the first count alone
        chunk = counts[start:end]
        if not chunk:
            return
        n_dus = [-(-n_ru // du_fanout_cap) for n_ru in chunk]
        rows, error = run_loops(loops, ordered, chunk, n_dus, users_per_ru, du_fanout_cap, 1, 1)
        yield rows
        if error:
            raise error


def fanout_study(cases: Sequence[FanoutCase], n_ru: int, users_per_ru: int,
                 placements: Iterable[Node], config: ModelConfig) -> list[tuple]:
    """Price every (fanout case, placement) pair at a fixed O-RU count, in case order.

    A row is ``(case label, placement, watts)``, with ``watts`` as in ``sweep_orus``: those of
    ``config.evaluate`` on the case's ``from_fanout_case`` tree. Each placement's row loop is
    bound once; a cell that fails raises its ``PowerOverflowError``, prefixed with the case
    label. The O-RU placement has no coverage-weighted term beyond the O-RU itself, so it
    repeats identically across cases.
    """
    ordered, loops = _bind(placements, config, False)
    study = []
    for case in cases:
        tree = from_fanout_case(case, n_ru, users_per_ru)
        rows, error = run_loops(loops, ordered, (n_ru,), (tree.n_du,), users_per_ru,
                                tree.du_fanout_cap, tree.n_cu, tree.n_dc)
        if error:
            raise PowerOverflowError(f"{case.label}: {error}")
        study += [(case.label, placement, watts) for _, placement, watts in rows]
    return study
