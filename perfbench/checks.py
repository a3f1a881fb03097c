"""Output checks shared by the workloads, and a self-test of their sensitivity.

The CLI renders every power with 6 significant digits, so a printed value
matches the reference when it lies within half a unit of the 6th digit.
Run ``python3 perfbench/checks.py`` to see the self-test reject results
perturbed by one part in 10^5.
"""

from __future__ import annotations

import math

import reference as ref

POWER_COLUMNS = (
    "p_processing_w", "p_transmission_w", "p_total_w",
    "p_node_oru_w", "p_node_odu_w", "p_node_ocu_w", "p_node_dc_w",
    "p_seg_fronthaul_w", "p_seg_midhaul_w", "p_seg_backhaul_w", "p_ue_w",
)
# Headroom over half a 6th-digit unit for the last-bit differences between
# the package's and the reference's order of summation.
_SLACK = 1 + 1e-6


def half_unit(value: float) -> float:
    """Half a unit in the 6th significant digit of ``value``."""
    if value == 0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 5)


def matches(printed: str, expected: float) -> bool:
    """True when a 6-significant-digit rendering agrees with ``expected``."""
    try:
        value = float(printed)
    except ValueError:
        return False
    return math.isfinite(value) and abs(value - expected) <= half_unit(expected) * _SLACK


def total_is_sum(total: str, processing: str, transmission: str) -> bool:
    """P_T = P_pr + P_tr, within the rendering of all three printed values."""
    t, p, r = float(total), float(processing), float(transmission)
    if not all(math.isfinite(x) for x in (t, p, r)):
        return False
    return abs(t - (p + r)) <= (half_unit(t) + half_unit(p) + half_unit(r)) * _SLACK


def expected_columns(result: ref.Result) -> dict[str, float]:
    """The reference value of every power column of the CLI's CSV rows."""
    columns = {
        "p_processing_w": result.processing,
        "p_transmission_w": result.transmission,
        "p_total_w": result.total,
        "p_ue_w": result.ue,
    }
    columns.update({f"p_node_{node}_w": watts for node, watts in result.nodes.items()})
    columns.update({f"p_seg_{link}_w": watts for link, watts in result.segments.items()})
    return columns


def row_problems(row: dict[str, str], result: ref.Result, where: str) -> list[str]:
    """Mismatches between a parsed CSV row and the reference, one message each."""
    problems = []
    for column, expected in expected_columns(result).items():
        if column in row and not matches(row[column], expected):
            problems.append(f"{where}: {column} = {row[column]}, reference {expected:.9g}")
    if not total_is_sum(row["p_total_w"], row["p_processing_w"], row["p_transmission_w"]):
        problems.append(f"{where}: p_total_w != p_processing_w + p_transmission_w")
    return problems


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of CLI CSV output; ``#`` metadata lines are skipped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def selftest() -> list[str]:
    """Check that a result perturbed by one part in 10^5 is rejected.

    Each power column of a few reference cells is rendered as the CLI does,
    once as is and once scaled by 1 + 1e-5; the first must pass the row
    check and the second must fail it. Returns the failures; empty means the
    checks are sensitive enough.
    """
    failures = []
    model = ref.Model(sizing={**ref.Model().sizing, "servers": ref.Sizing(True)})
    cells = [(ref.sweep_topo(n_ru, 10, 4), placement)
             for n_ru in (1, 7, 100, 2501) for placement in ref.NODES]
    for topo, placement in cells:
        result = ref.per_user(model, topo, placement)
        clean = {column: format(value, ".6g") for column, value in expected_columns(result).items()}
        where = f"self-test n_ru={topo.n_ru} {placement}"
        failures += row_problems(clean, result, where)
        for column, value in expected_columns(result).items():
            perturbed = dict(clean, **{column: format(value * (1 + 1e-5), ".6g")})
            if not row_problems(perturbed, result, where):
                failures.append(f"{where}: {column} perturbed by 1e-5 was accepted")
    return failures


if __name__ == "__main__":
    import sys

    problems = selftest()
    for problem in problems:
        print(problem, file=sys.stderr)
    print("self-test failed" if problems else "self-test passed")
    sys.exit(1 if problems else 0)
