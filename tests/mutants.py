"""Known faults that the tests must catch, one row each: ``python tests/mutants.py``.

For each row, the script copies ``src/``, ``tests/``, ``pyproject.toml`` and
``README.md`` to a temporary directory, replaces the row's old text, which
must occur once in its file, and runs the row's pytest selection there against
the changed copy. A row is caught when the selection fails (pytest exit status
1) and survives when it passes; any other outcome is an error. Each distinct
selection first runs once on an unchanged copy, and a row whose selection
fails there is an error, never caught. Runs go two at a time, each its own
pytest process. The script prints a line per row, in table order, and exits 1
unless every row is caught. pytest does not collect it.
"""

import functools
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/oranpower, old text, new text, pytest selection)
MUTANTS = (
    ("snap of 1% of a unit at every size", "powermodel.py",
     "_SNAP_ULPS = 4\n_SNAP_UNITS = 2**-20\n", "_SNAP_ULPS = 2**60\n_SNAP_UNITS = 0.01\n",
     "tests/test_properties.py::TestOracleAgreement"
     "::test_a_ratio_just_above_a_whole_number_buys_the_next_unit"),
    ("user rate off by one part in 10**6", "powermodel.py",
     "/ SECONDS_PER_MONTH / GBPS_TO_BITS_PER_S\n",
     "/ SECONDS_PER_MONTH / GBPS_TO_BITS_PER_S * (1 + 1e-6)\n",
     "tests/test_experiments.py::TestBruteForceOracle::test_user_rate_terms_alone"),
    ("after-BBP links without the router", "powermodel.py",
     "for multiplier, ratio, _, _ in devices:", "for multiplier, ratio, _, _ in devices[:2]:",
     "tests/test_experiments.py::TestBruteForceOracle"),
    ("WDM hops ignored", "powermodel.py",
     "seg.hops_wdm + 1", "1",
     "tests/test_properties.py::TestOracleAgreement"),
    ("routers on the backhaul only", "powermodel.py",
     "                if seg.gamma:\n", "                if segment is LINK_ORDER[2]:\n",
     "tests/test_properties.py::TestOracleAgreement"),
    ("links priced with the next tier's count", "powermodel.py",
     "({_COUNTS[depth]} / n_users)", "({_COUNTS[depth + name.startswith('link')]} / n_users)",
     "tests/test_experiments.py::TestBruteForceOracle"),
    ("the BBP tier priced at the user rate, as the terms after it", "powermodel.py",
     "if depth < bbp or segment is placement:", "if depth < bbp:",
     "tests/test_experiments.py::TestBruteForceOracle"),
    ("term product regrouped", "powermodel.py",
     'f"s{i} * ({_COUNTS[depth]} / n_users) * "', 'f"s{i} * {_COUNTS[depth]} / n_users * "',
     "tests/test_golden.py::test_breakdown_floats_digest"),
    ("row loop holding transmission constant at depth 2", "powermodel.py",
     'if varying.isdisjoint(compile(expression, "<sum>", "eval").co_names):',
     'if varying.isdisjoint(compile(expression, "<sum>", "eval").co_names)'
     ' or (bbp, name) == (2, "transmission"):',
     "tests/test_golden.py::test_stdout_digest"),
    ("O-DUs sized for their O-RUs when provisioned to the cap", "powermodel.py",
     "capped = self.provision_to_cap and has_cap\n", "capped = False\n",
     "tests/test_experiments.py::TestBruteForceOracle::test_cap_provisioning_matches"),
    ("O-DU load and device sums hoisted when O-DUs are sized for their O-RUs", "powermodel.py",
     "hoisted = 1 if capped else 0\n", "hoisted = 1\n",
     "tests/test_golden.py::test_stdout_digest"),
    ("row check ignoring a total that is not finite", "powermodel.py",
     " and total < math.inf):", "):",
     "tests/test_experiments.py::TestSweepRows"
     "::test_a_later_count_that_overflows_raises_evaluates_error"),
    ("overflowing unit count priced as 0 units", "powermodel.py",
     "        return ratio\n", "        return 0\n",
     "tests/test_kernel.py::TestOneWayToFail"),
    ("rejected row returns links in reverse order", "powermodel.py",
     "    return {', '.join(_PARTS)}\n",
     "    return node0, node1, node2, node3, link2, link1, link0, ue_watts\n",
     "tests/test_powermodel.py::TestNonFiniteInputs::test_negative_part_rejected_naming_it"),
    ("overflow message to 5 digits", "powermodel.py",
     "{watts:.6g}", "{watts:.5g}",
     "tests/test_kernel.py::TestOneWayToFail"),
    ("bool accepted as an integer count", "topology.py",
     "isinstance(value, int) and not isinstance(value, bool))",
     "isinstance(value, int))",
     "tests/test_topology.py::TestValidate::test_bool_count_rejected"),
    ("any quantized value accepted", "powermodel.py",
     "if type(quantized) is not bool:", "if False:",
     "tests/test_powermodel.py::TestConfigParams::test_flags_must_be_bools"),
    ("gamma tested by equality alone", "topology.py",
     'if count_error("gamma", gamma, 0) or gamma > 1:', "if gamma not in (0, 1):",
     "tests/test_topology.py::TestSegmentParamsValidation::test_gamma_must_be_the_int_0_or_1"),
    ("plain command line read without the choices test", "cli.py",
     "                self._check_value(action, value)\n", "",
     "tests/test_cli.py::TestMain::test_main_parses_as_parse_args_does"),
    ("plain command line read with a value that starts with -", "cli.py",
     " and not args[i + 1].startswith(\"-\")):", "):",
     "tests/test_cli.py::TestMain::test_main_parses_as_parse_args_does"),
    ("the -- of --flag=-- stripped, as Python 3.10 to 3.12 do", "cli.py",
     'if arg_strings == ["--"] and', "if False and",
     "tests/test_cli.py::TestDoubleDashValue"),
    ("changed segments dropped when the ModelConfig is built", "configfile.py",
     "params = {segment: sections[segment] for segment in config.params}",
     "params = dict(config.params)",
     "tests/test_config.py::TestMatchesReference::test_table_keys_with_junk_lines"),
    ("config section built without its checks", "topology.py",
     "        return type(self)(**{**vars(self), **changes})\n",
     "        record = object.__new__(type(self))\n"
     "        record.__dict__.update({**vars(self), **changes})\n"
     "        return record\n",
     "tests/test_config.py::TestNanojoules::test_non_finite_and_negative_rejected_naming_the_key"),
    ("__replace__ skips the constructor", "topology.py",
     "        return type(self)(**{**vars(self), **changes})\n",
     "        record = object.__new__(type(self))\n"
     "        record.__dict__.update({**vars(self), **changes})\n"
     "        return record\n",
     "tests/test_powermodel.py::TestRecords::test_replace_derives_fields_again"),
    ("loop cache kept in vars", "powermodel.py",
     '    __slots__ = ("_loops",)\n', "",
     "tests/test_powermodel.py::TestReusedConfig"
     "::test_evaluating_changes_neither_equality_nor_replace"),
    ("dataclasses imported again", "topology.py",
     "import math\nfrom enum import Enum\n", "import dataclasses\nimport math\nfrom enum import Enum\n",
     "tests/test_cli.py::TestImportFootprint"),
    ("a range's last count not checked", "experiments.py",
     "later = counts[-1:]", "later = counts[:1]",
     "tests/test_experiments.py::TestSweepRows"
     "::test_a_range_whose_last_count_is_out_of_range_raises_topology_error"),
    ("a first count's rows yielded when a placement fails there", "experiments.py",
     "    if len(head) < len(ordered):", "    if False:",
     "tests/test_experiments.py::TestSweep::test_failing_placement_rejected_by_the_call"),
    ("a list's counts sorted before each is tested", "experiments.py",
     "for n_ru in listed:", "for n_ru in listed[:0]:",
     "tests/test_experiments.py::TestSweepRows"
     "::test_a_listed_count_that_does_not_sort_raises_topology_error"),
    ("rows in (depth, n_ru) order, each loop's rows in turn", "powermodel.py",
     "rows = [*chain.from_iterable(zip(*done))]", "rows = [*chain.from_iterable(done)]",
     "tests/test_experiments.py::TestSweep::test_cardinality_and_order"),
    ("SegmentParams without its alpha * sigma check", "topology.py",
     "        if not is_finite(alpha * sigma):\n", "        if False:\n",
     "tests/test_topology.py::TestSegmentParamsValidation::test_overflowing_alpha_sigma_rejected"),
    ("SegmentParams without its segment check", "topology.py",
     "        if type(segment) is not Node and type(segment) is not Link:\n", "        if False:\n",
     "tests/test_topology.py::TestSegmentParamsValidation::test_segment_must_be_a_node_or_link"),
    ("ServerSpec without its capacity product check", "catalog.py",
     "\n                or abs(server_capacity_gbps - expected) > _REL_TOL * expected):", "):",
     "tests/test_catalog.py::TestSpecValidation::test_server_capacity_consistency"),
    ("ServerSpec's power product converted to a float before it is tested", "catalog.py",
     "if not (is_finite(power) and math.isfinite(power / server_capacity_gbps)):",
     "if not math.isfinite(power / server_capacity_gbps):",
     "tests/test_catalog.py::TestSpecValidation"
     "::test_server_power_product_of_ints_beyond_a_float_rejected"),
    ("EquipmentCatalog accepting any spec", "catalog.py",
     "            if not isinstance(spec, kind):\n", "            if False:\n",
     "tests/test_catalog.py::TestSpecValidation::test_catalog_specs_checked"),
    ("ProvisioningPolicy accepting any class policy", "powermodel.py",
     "            if not isinstance(policy, ClassPolicy):\n", "            if False:\n",
     "tests/test_powermodel.py::TestComponents::test_policy_classes_checked"),
    ("ModelConfig accepting any catalog, traffic or policy", "powermodel.py",
     "            if not isinstance(value, kind):\n", "            if False:\n",
     "tests/test_powermodel.py::TestComponents::test_config_components_checked"),
    ("row check without the >= 0.0 clause on the DC tier", "powermodel.py",
     "node2 >= 0.0 and node3 >= 0.0 and link0", "node2 >= 0.0 and link0",
     "tests/test_powermodel.py::TestNonFiniteInputs::test_negative_part_rejected_naming_it"),
    ("build_sweep_topology without check_counts on its failure path", "topology.py",
     "        check_counts(n_ru=n_ru, users_per_ru=users_per_ru, du_fanout_cap=du_fanout_cap)\n",
     "", "tests/test_properties.py::TestSinglePassChecksMatchPerFieldChecks"
     "::test_sweep_topology_and_check_counts"),
    ("from_fanout_case without check_counts on its failure path", "topology.py",
     "        check_counts(n_ru=n_ru, users_per_ru=users_per_ru)\n", "",
     "tests/test_properties.py::TestSinglePassChecksMatchPerFieldChecks::test_fanout_topology"),
    ("ModelConfig without the test for unknown segments", "powermodel.py",
     "        if len(params) != len(_SEGMENTS):\n", "        if False:\n",
     "tests/test_powermodel.py::TestConfigParams::test_unknown_key_rejected"),
    ("Topology's one test admitting 2**53 + 1", "topology.py",
     "and MAX_COUNT >= n_ru >= n_du", "and MAX_COUNT + 1 >= n_ru >= n_du",
     "tests/test_topology.py::TestValidate::test_count_above_2_53_rejected"),
    ("Topology's one test without the cap's type test", "topology.py",
     "or type(du_fanout_cap) is int and MAX_COUNT", "or MAX_COUNT",
     "tests/test_topology.py::TestValidate::test_bad_fanout_cap_rejected"),
    ("a breakdown's CSV line with its processing and transmission swapped", "powermodel.py",
     "self.placement.value, self.processing_watts,\n                            self.transmission_watts,",
     "self.placement.value, self.transmission_watts,\n                            self.processing_watts,",
     "tests/test_experiments.py::TestSweep::test_a_breakdown_renders_the_csv_row_loops_line"),
    ("TopologyCounts accepting any count", "configfile.py",
     "            if count is not None and (error := count_error(name, count)):\n",
     "            if False:\n",
     "tests/test_config.py::TestTopologyCounts"),
    ("a sweep placement that is not a Node dropped instead of rejected", "experiments.py",
     "for placement in placements}", "for placement in placements if placement in NODE_ORDER}",
     "tests/test_experiments.py::TestSweep::test_unknown_placement_rejected_by_the_call"),
    ("the flags' base config rebuilt on each call", "cli.py",
     "@functools.cache\ndef _base_config", "def _base_config",
     "tests/test_cli.py::TestConfigHandling"
     "::test_flags_alone_share_one_config_per_policy_and_load"),
    ("a config file's byte-order mark read as part of its first key", "cli.py",
     '.removeprefix("\\ufeff")', "",
     "tests/test_cli.py::TestConfigHandling"
     "::test_config_with_a_byte_order_mark_reads_as_without"),
)


def run(selection, filename=None, old=None, new=None):
    """``"caught"``, ``"survived"`` or an error message, for ``selection`` run on a copy of the
    tree in which ``old`` is replaced by ``new`` in ``filename``, or on an unchanged copy when
    ``filename`` is None."""
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, Path(tmp, tree), ignore=ignore)
        for name in ("pyproject.toml", "README.md"):  # tests/test_config.py reads README.md
            shutil.copy(ROOT / name, tmp)
        if filename is not None:
            path = Path(tmp, "src", "oranpower", filename)
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                return f"error: the old text occurs {text.count(old)} times in {filename}"
            path.write_text(text.replace(old, new), encoding="utf-8")
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", selection],
            cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "caught"}.get(status, f"error: pytest exit status {status}")


def judge(row, baseline):
    """The row's result, given each selection's result on the unchanged tree, and its seconds."""
    name, filename, old, new, selection = row
    start = time.perf_counter()
    if baseline[selection] == "survived":
        result = run(selection, filename, old, new)
    elif baseline[selection] == "caught":
        result = "error: the selection fails on the unchanged tree"
    else:  # the unchanged run's own error
        result = baseline[selection]
    return result, time.perf_counter() - start


def main():
    # A selection that fails on the unchanged tree would read as catching every row.
    selections = list(dict.fromkeys(row[-1] for row in MUTANTS))
    caught = True
    # Each run waits on its own pytest process, so two threads keep two cores busy.
    with ThreadPoolExecutor(max_workers=2) as pool:
        baseline = dict(zip(selections, pool.map(run, selections)))
        results = pool.map(functools.partial(judge, baseline=baseline), MUTANTS)
        for (name, *_, selection), (result, seconds) in zip(MUTANTS, results):
            caught &= result == "caught"
            print(f"{result:9} {seconds:5.1f} s  {name}  [{selection}]", flush=True)
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
