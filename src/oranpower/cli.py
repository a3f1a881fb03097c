"""Command-line surface: single evaluations, O-RU sweeps, and fanout studies as CSV."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from typing import Iterable, Sequence, TextIO

from .catalog import CatalogError, default_catalog
from .configfile import ConfigError, TopologyCounts, load_config
from .experiments import (
    DEFAULT_FANOUT_N_RU,
    DEFAULT_USERS_PER_RU,
    fanout_study,
    sweep_chunks,
)
from .powermodel import (
    ModelConfig,
    PowerBreakdown,
    PowerOverflowError,
    ProvisioningPolicy,
    TrafficModel,
)
from .topology import (
    DEFAULT_DU_FANOUT_CAP,
    LINK_ORDER,
    MAX_COUNT,
    NODE_ORDER,
    Node,
    TopologyError,
    build_sweep_topology,
    fanout_case,
    segment_map,
)

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE_ERROR = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command stopped by a closed pipe

# Frozen, so built once and shared by every call, like default_catalog().
_POLICIES = {
    "linear": ProvisioningPolicy.all_linear(),
    "quantized": ProvisioningPolicy.default(),
}
_TRAFFIC = TrafficModel()
_PLACEMENT_NAMES = {node: node.value for node in NODE_ORDER}  # a C-level lookup, unlike .value

CSV_COLUMNS = (
    "p_processing_w", "p_transmission_w", "p_total_w",
    "p_node_oru_w", "p_node_odu_w", "p_node_ocu_w", "p_node_dc_w",
    "p_seg_fronthaul_w", "p_seg_midhaul_w", "p_seg_backhaul_w", "p_ue_w",
)


def load_run_config(args) -> tuple[ModelConfig, TopologyCounts]:
    """The ``ModelConfig`` the flags ask for, with ``--config`` applied, and its topology counts."""
    config = ModelConfig(default_catalog(), segment_map(), _TRAFFIC, _POLICIES[args.policy],
                         provision_to_cap=not args.attached_load)
    if args.config is None:
        return config, TopologyCounts()
    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{args.config}: not UTF-8 text ({exc})") from None
    return load_config(text, config)


def _parse_placements(raw: str, parser: argparse.ArgumentParser) -> list[Node]:
    placements = []
    for token in raw.split(","):
        token = token.strip().lower()
        try:
            placements.append(Node(token))
        except ValueError:
            parser.error(f"invalid placement {token!r}; expected oru, odu, ocu, dc")
    return placements


def _emit(lines: Iterable[str], output: str | None, stdout: TextIO) -> int:
    """Write ``lines`` as they are produced, to ``output`` or to stdout; the exit status.

    When the reader of stdout goes away, writing stops with ``EXIT_BROKEN_PIPE`` and no
    message, and stdout's descriptor is pointed at the null device, so that the flush at
    interpreter exit has nothing to report either.
    """
    if output is None or output == "stdout":
        try:
            stdout.writelines(lines)
            stdout.flush()
        except BrokenPipeError:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, stdout.fileno())
            os.close(null)
            return EXIT_BROKEN_PIPE
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(lines)
    return EXIT_OK


def _topology_value(args, counts: TopologyCounts, name: str, default: int | None,
                    parser: argparse.ArgumentParser) -> int:
    """The ``--name`` flag, else the config's ``topology.name``, else ``default``."""
    for value in (getattr(args, name, None), getattr(counts, name), default):
        if value is not None:
            return value
    flag = "--" + name.replace("_", "-")
    parser.error(f"{flag} is required, as a flag or as topology.{name} in --config")


def _csv_lines(metadata: Sequence[tuple[str, object]], header: str,
               rows: Iterable[str]) -> Iterable[str]:
    """``# key = value`` metadata lines and the header row, then ``rows``, which end in newlines."""
    head = [f"# {key} = {value}\n" for key, value in metadata]
    head.append(header + "\n")
    return chain(head, rows)


def _render_eval_table(topology, policy_name: str, breakdown: PowerBreakdown) -> str:
    lines = [
        f"bbp placement : {breakdown.placement.value}",
        f"topology      : n_ru={topology.n_ru} n_du={topology.n_du} n_cu={topology.n_cu} "
        f"n_dc={topology.n_dc} users_per_ru={topology.users_per_ru} n_users={topology.n_users}",
        f"policy        : {policy_name}",
        "",
        "processing (W per user)",
    ]
    for node, watts in zip(NODE_ORDER, breakdown.nodes):
        lines.append(f"  {node.value:<10} {breakdown.branch(node):<7} {watts:.6g}")
    lines.append("transmission (W per user)")
    for link, watts in zip(LINK_ORDER, breakdown.segments):
        traffic_kind = "ecpri" if breakdown.branch(link) == "before" else "baseband"
        lines.append(f"  {link.value:<10} {traffic_kind:<8} {watts:.6g}")
    lines.append(f"  {'ue':<10} {'':<8} {breakdown.ue_watts:.6g}")
    lines.append("totals (W per user)")
    lines.append(f"  processing   {breakdown.processing_watts:.6g}")
    lines.append(f"  transmission {breakdown.transmission_watts:.6g}")
    lines.append(f"  total        {breakdown.total_watts:.6g}")
    return "\n".join(lines) + "\n"


def cmd_eval(args, parser: argparse.ArgumentParser, stdout: TextIO) -> int:
    config, counts = load_run_config(args)
    n_ru = _topology_value(args, counts, "n_ru", None, parser)
    users_per_ru = _topology_value(args, counts, "users_per_ru", None, parser)
    du_fanout_cap = _topology_value(args, counts, "du_fanout_cap", DEFAULT_DU_FANOUT_CAP, parser)
    placement = Node(args.bbp)
    if args.format == "table":
        topology = build_sweep_topology(n_ru, users_per_ru, du_fanout_cap)
        lines = [_render_eval_table(topology, args.policy, config.evaluate(topology, placement))]
    else:  # a one-count sweep, which evaluates its cell before the output is opened
        metadata = [("n_ru", n_ru), ("users_per_ru", users_per_ru), ("policy", args.policy),
                    ("du_fanout_cap", du_fanout_cap)]
        chunks = sweep_chunks([n_ru], users_per_ru, [placement], config, du_fanout_cap,
                              csv=True)
        lines = _csv_lines(metadata, "n_ru,placement," + ",".join(CSV_COLUMNS),
                           map("".join, chunks))
    return _emit(lines, args.output, stdout)


def cmd_sweep(args, parser: argparse.ArgumentParser, stdout: TextIO) -> int:
    if not 1 <= args.max_ru <= MAX_COUNT:
        parser.error(f"--max-ru must be >= 1 and <= 2**53, got {args.max_ru}")
    config, counts = load_run_config(args)
    if counts.n_ru is not None:
        raise ConfigError("topology.n_ru does not apply to sweep, which takes n_ru from 1 "
                          "to --max-ru")
    users_per_ru = _topology_value(args, counts, "users_per_ru", DEFAULT_USERS_PER_RU, parser)
    du_fanout_cap = _topology_value(args, counts, "du_fanout_cap", DEFAULT_DU_FANOUT_CAP, parser)
    placements = _parse_placements(args.placements, parser)
    chunks = sweep_chunks(range(1, args.max_ru + 1), users_per_ru, placements, config,
                          du_fanout_cap, csv=True)
    metadata = [
        ("max_ru", args.max_ru),
        ("users_per_ru", users_per_ru),
        ("policy", args.policy),
        ("du_fanout_cap", du_fanout_cap),
        ("n_cu", "1  (single-aggregation sweep convention)"),
        ("n_dc", "1  (single-aggregation sweep convention)"),
    ]
    return _emit(_csv_lines(metadata, "n_ru,placement," + ",".join(CSV_COLUMNS),
                            map("".join, chunks)), args.output, stdout)


def cmd_fanout(args, parser: argparse.ArgumentParser, stdout: TextIO) -> int:
    config, counts = load_run_config(args)
    if counts.du_fanout_cap is not None:
        raise ConfigError("topology.du_fanout_cap does not apply to fanout, where each case "
                          "sets its own O-DU fanout")
    users_per_ru = _topology_value(args, counts, "users_per_ru", DEFAULT_USERS_PER_RU, parser)
    n_ru = _topology_value(args, counts, "n_ru", DEFAULT_FANOUT_N_RU, parser)
    cases = [fanout_case(label.strip()) for label in args.cases.split(",")]
    placements = _parse_placements(args.placements, parser)
    records = fanout_study(cases, n_ru, users_per_ru, placements, config)
    metadata = [("n_ru", n_ru), ("users_per_ru", users_per_ru), ("policy", args.policy)]
    rows = ("%s,%s,%.6g,%.6g,%.6g\n" % (
        record.case, _PLACEMENT_NAMES[record.breakdown.placement],
        record.breakdown.processing_watts,
        record.breakdown.transmission_watts, record.breakdown.total_watts,
    ) for record in records)
    return _emit(_csv_lines(metadata, "case,placement,p_processing_w,p_transmission_w,"
                            "p_total_w", rows), args.output, stdout)


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads a plain command line straight from its action table.

    Plain: each token is an exact option string of this parser, either a ``store`` flag
    followed by one value that does not start with ``-`` or a ``store_true`` switch, and every
    required flag is given. Values go through their action's ``type`` and ``choices`` and the
    defaults are set as argparse sets them, so the namespace is argparse's. Any other command
    line, or ``namespace=None``, goes to argparse unchanged, which alone writes usage errors
    and help. The plain read uses argparse's private action table and value checks, so its
    equality with argparse is tested only on the Python versions the CI matrix runs.
    """

    def parse_known_args(self, args=None, namespace=None):
        try:
            parsed = self._parse_plain(args, namespace)
        except argparse.ArgumentError:  # a value argparse rejects, and reports itself
            parsed = None
        return parsed or super().parse_known_args(args, namespace)

    def _parse_plain(self, args, namespace):
        """``(namespace, [])`` for the plain command line ``args``; None, with ``namespace``
        untouched, for any other."""
        if args is None or namespace is None or self._mutually_exclusive_groups or self._defaults:
            return None
        given, i = {}, 0
        while i < len(args):
            action = self._option_string_actions.get(args[i])
            if type(action) is argparse._StoreTrueAction:
                given[action] = action.const
                i += 1
            elif (type(action) is argparse._StoreAction and action.nargs is None
                  and i + 1 < len(args) and not args[i + 1].startswith("-")):
                value = self._get_value(action, args[i + 1])
                self._check_value(action, value)
                given[action] = value  # a repeated flag keeps its last value
                i += 2
            else:
                return None
        attributes = []
        for action in self._actions:
            if action in given:
                attributes.append((action.dest, given[action]))
            elif action.required:
                return None
            elif (action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS
                  and not hasattr(namespace, action.dest)):
                default = action.default
                if isinstance(default, str) and action.type is not None:
                    default = self._get_value(action, default)
                attributes.append((action.dest, default))
        for dest, value in attributes:
            setattr(namespace, dest, value)
        return namespace, []


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key-value config file")
    parser.add_argument("--policy", choices=sorted(_POLICIES), default="quantized",
                        help="provisioning policy (default: quantized servers)")
    parser.add_argument("--output", default=None,
                        help="output path, or 'stdout' (default)")
    parser.add_argument("--attached-load", action="store_true",
                        help="size O-DUs for attached O-RUs instead of the fanout cap")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``subcommands`` maps names to parsers."""
    parser = _Parser(  # add_subparsers builds each subcommand's parser from the same class
        prog="oranpower",
        description="Per-user power for centralized O-RAN deployments under "
                    "different baseband-processing placements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one topology and placement")
    p_eval.add_argument("--n-ru", type=int, default=None,
                        help="number of O-RUs (required here or as topology.n_ru)")
    p_eval.add_argument("--users-per-ru", type=int, default=None,
                        help="users per O-RU (required here or as topology.users_per_ru)")
    p_eval.add_argument("--bbp", choices=[node.value for node in NODE_ORDER], required=True,
                        help="baseband-processing node")
    p_eval.add_argument("--format", choices=["table", "csv"], default="table")
    _add_common_flags(p_eval)

    p_sweep = sub.add_parser("sweep", help="sweep the O-RU count and emit CSV")
    p_sweep.add_argument("--max-ru", type=int, default=100, help="sweep n_ru from 1 to this")
    p_sweep.add_argument("--users-per-ru", type=int, default=None)
    p_sweep.add_argument("--placements", default="oru,odu,ocu,dc",
                         help="comma-separated subset of oru,odu,ocu,dc")
    _add_common_flags(p_sweep)

    p_fanout = sub.add_parser("fanout", help="evaluate the nodal fanout cases and emit CSV")
    p_fanout.add_argument("--cases", default="C-1,C-2,C-3,C-4,C-5",
                          help="comma-separated case labels")
    p_fanout.add_argument("--n-ru", type=int, default=None,
                          help=f"O-RU count (default {DEFAULT_FANOUT_N_RU})")
    p_fanout.add_argument("--users-per-ru", type=int, default=None)
    p_fanout.add_argument("--placements", default="oru,odu,ocu,dc")
    _add_common_flags(p_fanout)
    parser.subcommands = {"eval": p_eval, "sweep": p_sweep, "fanout": p_fanout}
    return parser


def main(argv: Sequence[str] | None = None, stdout: TextIO | None = None,
         stderr: TextIO | None = None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    subparser = parser.subcommands.get(argv[0]) if argv else None
    with redirect_stdout(stdout), redirect_stderr(stderr):  # argparse prints to sys.stdout/err
        try:
            # One pass: in parse_args the top-level parser scans each token before the subparser.
            args, extras = (subparser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
                            if subparser else parser.parse_known_args(argv))
            if extras:  # as parse_args reports them
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            # Looked up on each call, not stored in the parser that is built once, so a
            # replaced cmd_* function (a test double, a tracing wrapper) is the one called.
            handler = {"eval": cmd_eval, "sweep": cmd_sweep, "fanout": cmd_fanout}[args.command]
            # The subcommand's parser, so a usage error in the handler shows its usage.
            return handler(args, parser.subcommands[args.command], stdout)
        except SystemExit as exc:  # a usage error or --help, while parsing or in a handler
            return int(exc.code) if exc.code is not None else EXIT_OK
        except (ConfigError, CatalogError, TopologyError, PowerOverflowError, OSError) as exc:
            print(f"error: {exc}", file=stderr)
            return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
