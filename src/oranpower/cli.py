"""Command-line surface: single evaluations, O-RU sweeps, and fanout studies as CSV."""

from __future__ import annotations

import argparse
import functools
import os
import sys
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
    CSV_COLUMNS,
    CSV_HEADER,
    FIGURE,
    ModelConfig,
    PowerBreakdown,
    PowerOverflowError,
    ProvisioningPolicy,
    TrafficModel,
    segment_branch,
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

_FANOUT_HEADER = ",".join(("case", "placement", *CSV_COLUMNS[:3]))
_FANOUT_LINE = ",".join(("%s", "%s", *[FIGURE] * 3)) + "\n"


@functools.cache
def _base_config(policy: str, attached_load: bool) -> ModelConfig:
    """The config of ``--policy`` and ``--attached-load`` alone, frozen and so shared. It saves
    work only where ``main`` runs more than once in a process (a library caller, perfbench's
    ``whatif`` workload); an ``oranpower`` process builds it once either way."""
    return ModelConfig(default_catalog(), segment_map(), _TRAFFIC, _POLICIES[policy],
                       provision_to_cap=not attached_load)


def load_run_config(args) -> tuple[ModelConfig, TopologyCounts]:
    """The ``ModelConfig`` the flags ask for, with ``--config`` applied, and its topology counts."""
    config = _base_config(args.policy, args.attached_load)
    if args.config is None:
        return config, TopologyCounts()
    # One unbuffered read of the whole file; splitlines() ends lines as text mode would.
    with open(args.config, "rb", buffering=0) as handle:
        data = handle.read()
    try:  # a leading byte-order mark, which some editors write, is no part of the first key
        text = data.decode("utf-8").removeprefix("\ufeff")
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


@functools.cache
def _eval_template(placement: Node) -> str:
    """The ``eval`` table at BBP node ``placement``, as a ``%`` template of the topology's six
    counts, the policy name, and the breakdown's seven parts, UE watts and three totals."""
    tags = {segment: segment_branch(segment, placement) for segment in NODE_ORDER + LINK_ORDER}
    lines = [
        f"bbp placement : {placement.value}",
        "topology      : n_ru=%s n_du=%s n_cu=%s n_dc=%s users_per_ru=%s n_users=%s",
        "policy        : %s",
        "",
        "processing (W per user)",
        *(f"  {node.value:<10} {tags[node]:<7} {FIGURE}" for node in NODE_ORDER),
        "transmission (W per user)",
        *(f"  {link.value:<10} {'ecpri' if tags[link] == 'before' else 'baseband':<8} {FIGURE}"
          for link in LINK_ORDER),
        f"  {'ue':<10} {'':<8} {FIGURE}",
        "totals (W per user)",
        f"  processing   {FIGURE}",
        f"  transmission {FIGURE}",
        f"  total        {FIGURE}",
    ]
    return "\n".join(lines) + "\n"


def _render_eval_table(topology, policy_name: str, breakdown: PowerBreakdown) -> str:
    return _eval_template(breakdown.placement) % (
        topology.n_ru, topology.n_du, topology.n_cu, topology.n_dc, topology.users_per_ru,
        topology.n_users, policy_name, *breakdown.nodes, *breakdown.segments,
        breakdown.ue_watts, breakdown.processing_watts, breakdown.transmission_watts,
        breakdown.total_watts)


def cmd_eval(args, parser: argparse.ArgumentParser, stdout: TextIO) -> int:
    config, counts = load_run_config(args)
    n_ru = _topology_value(args, counts, "n_ru", None, parser)
    users_per_ru = _topology_value(args, counts, "users_per_ru", None, parser)
    du_fanout_cap = _topology_value(args, counts, "du_fanout_cap", DEFAULT_DU_FANOUT_CAP, parser)
    topology = build_sweep_topology(n_ru, users_per_ru, du_fanout_cap)
    breakdown = config.evaluate(topology, Node(args.bbp))  # before the output is opened
    if args.format == "table":
        lines = [_render_eval_table(topology, args.policy, breakdown)]
    else:
        metadata = [("n_ru", n_ru), ("users_per_ru", users_per_ru), ("policy", args.policy),
                    ("du_fanout_cap", du_fanout_cap)]
        lines = _csv_lines(metadata, CSV_HEADER, [breakdown.csv_line(n_ru)])
    return _emit(lines, args.output, stdout)


def cmd_sweep(args, parser: argparse.ArgumentParser, stdout: TextIO) -> int:
    if not 1 <= args.max_ru <= MAX_COUNT:  # the count rule again, as a usage error (exit 2)
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
    return _emit(_csv_lines(metadata, CSV_HEADER, map("".join, chunks)), args.output, stdout)


def cmd_fanout(args, parser: argparse.ArgumentParser, stdout: TextIO) -> int:
    config, counts = load_run_config(args)
    if counts.du_fanout_cap is not None:
        raise ConfigError("topology.du_fanout_cap does not apply to fanout, where each case "
                          "sets its own O-DU fanout")
    users_per_ru = _topology_value(args, counts, "users_per_ru", DEFAULT_USERS_PER_RU, parser)
    n_ru = _topology_value(args, counts, "n_ru", DEFAULT_FANOUT_N_RU, parser)
    cases = [fanout_case(label.strip()) for label in args.cases.split(",")]
    placements = _parse_placements(args.placements, parser)
    study = fanout_study(cases, n_ru, users_per_ru, placements, config)
    metadata = [("n_ru", n_ru), ("users_per_ru", users_per_ru), ("policy", args.policy)]
    rows = (_FANOUT_LINE % (label, placement.value, *watts[:3])
            for label, placement, watts in study)
    return _emit(_csv_lines(metadata, _FANOUT_HEADER, rows), args.output, stdout)


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads a plain command line straight from its action table.

    Plain: each token is an exact option string of this parser, either a ``store`` flag
    followed by one value that does not start with ``-`` or a ``store_true`` switch, and every
    required flag is given. Values go through their action's ``type`` and ``choices`` and
    each default is stored as it stands, as argparse stores it for ``build_parser``'s parsers,
    which have no exclusive groups, no ``set_defaults`` and no string default with a ``type``;
    so the namespace is argparse's. Any other command line, or ``namespace=None``, goes to
    argparse unchanged, which alone writes usage errors and help. The plain read uses
    argparse's private action table and value checks, so its equality with argparse is tested
    only on the Python versions the CI matrix runs.
    """

    def parse_known_args(self, args=None, namespace=None):
        try:
            parsed = self._parse_plain(args, namespace)
        except argparse.ArgumentError:  # a value argparse rejects, and reports itself
            parsed = None
        return parsed or super().parse_known_args(args, namespace)

    def _get_values(self, action, arg_strings):
        # "--flag=--" gives a store action the explicit value "--". Python 3.10 to 3.12 strip
        # it and store [], past type and choices; 3.13 reads "--" as the value, as here.
        if arg_strings == ["--"] and type(action) is argparse._StoreAction and action.nargs is None:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)

    def _parse_plain(self, args, namespace):
        """``(namespace, [])`` for the plain command line ``args``; None, with ``namespace``
        untouched, for any other."""
        if args is None or namespace is None:
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
                attributes.append((action.dest, action.default))
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
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, stderr  # argparse prints to sys.stdout/err
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
    finally:
        sys.stdout, sys.stderr = saved


if __name__ == "__main__":
    sys.exit(main())
