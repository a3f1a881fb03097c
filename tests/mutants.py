"""Known faults that the tests must catch, one row each: ``python tests/mutants.py``.

For each row, the script copies ``src/``, ``tests/``, ``pyproject.toml`` and
``README.md`` to a temporary directory, replaces the row's old text, which
must occur once in its file, and runs the row's pytest selection there against
the changed copy. A row is caught when the selection fails (pytest exit status
1) and survives when it passes; any other outcome is an error. Each distinct
selection first runs once on an unchanged copy, and a row whose selection
fails there is an error, never caught. The script prints a line per row and
exits 1 unless every row is caught. pytest does not collect it.
"""

import shutil
import subprocess
import sys
import tempfile
import time
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
     "for multiplier, spec, _ in devices:", "for multiplier, spec, _ in devices[:2]:",
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
     "return isinstance(value, int) and not isinstance(value, bool)",
     "return isinstance(value, int)",
     "tests/test_topology.py::TestValidate::test_bool_count_rejected"),
    ("any quantized value accepted", "powermodel.py",
     "if type(self.quantized) is not bool:", "if False:",
     "tests/test_powermodel.py::TestConfigParams::test_flags_must_be_bools"),
    ("gamma tested by equality alone", "topology.py",
     "if not (is_integer(self.gamma) and self.gamma in (0, 1)):", "if self.gamma not in (0, 1):",
     "tests/test_topology.py::TestSegmentParamsValidation::test_gamma_must_be_the_int_0_or_1"),
    ("plain command line read without the choices test", "cli.py",
     "                self._check_value(action, value)\n", "",
     "tests/test_cli.py::TestMain::test_main_parses_as_parse_args_does"),
    ("plain command line read with a value that starts with -", "cli.py",
     " and not args[i + 1].startswith(\"-\")):", "):",
     "tests/test_cli.py::TestMain::test_main_parses_as_parse_args_does"),
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


def main():
    # A selection that fails on the unchanged tree would read as catching every row.
    selections = dict.fromkeys(row[-1] for row in MUTANTS)
    baseline = {selection: run(selection) for selection in selections}
    caught = True
    for name, filename, old, new, selection in MUTANTS:
        start = time.perf_counter()
        if baseline[selection] == "survived":
            result = run(selection, filename, old, new)
        elif baseline[selection] == "caught":
            result = "error: the selection fails on the unchanged tree"
        else:  # the unchanged run's own error
            result = baseline[selection]
        caught &= result == "caught"
        print(f"{result:9} {time.perf_counter() - start:5.1f} s  {name}  [{selection}]", flush=True)
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
