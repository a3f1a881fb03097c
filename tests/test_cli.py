"""CLI subcommands: flags, exit codes, CSV shape, config handling, determinism."""

import argparse
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oranpower import cli
from oranpower.cli import CSV_COLUMNS, build_parser, load_run_config, main
from oranpower.configfile import TopologyCounts, load_config
from oranpower.experiments import SWEEP_CHUNK
from oranpower.powermodel import ClassPolicy, ModelConfig, ProvisioningPolicy, TrafficModel
from oranpower.topology import NODE_ORDER, Node, build_sweep_topology

from model_helpers import replace
from test_kernel import catalogs, params


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def data_lines(csv_text):
    return [line for line in csv_text.splitlines() if line and not line.startswith("#")]


class TestEval:
    def test_dc_linear_total(self):
        code, out, _ = run_cli("eval", "--n-ru", "100", "--users-per-ru", "10",
                               "--bbp", "dc", "--policy", "linear")
        assert code == 0
        assert "total        93.2982" in out

    def test_oru_default_policy_total(self):
        code, out, _ = run_cli("eval", "--n-ru", "100", "--users-per-ru", "10", "--bbp", "oru")
        assert code == 0
        assert "total        159.501" in out

    def test_csv_format(self):
        code, out, _ = run_cli("eval", "--n-ru", "4", "--users-per-ru", "10",
                               "--bbp", "dc", "--format", "csv")
        assert code == 0
        comments = [line for line in out.splitlines() if line.startswith("#")]
        assert {"# n_ru = 4", "# users_per_ru = 10", "# policy = quantized"} <= set(comments)
        header, row = data_lines(out)
        assert header.startswith("n_ru,placement,p_processing_w,p_transmission_w,p_total_w")
        assert row.startswith("4,dc,")

    def test_invalid_placement_is_usage_error(self):
        code, _, _ = run_cli("eval", "--n-ru", "1", "--users-per-ru", "1", "--bbp", "xyz")
        assert code == 2

    def test_missing_required_flag_is_usage_error(self):
        code, _, err = run_cli("eval", "--bbp", "dc")
        assert code == 2
        assert "--n-ru" in err

    @pytest.mark.parametrize("argv,field", [
        (["eval", "--n-ru", "1" + "0" * 400, "--users-per-ru", "2", "--bbp", "dc"], "n_ru"),
        (["eval", "--n-ru", "4", "--users-per-ru", "1" + "0" * 400, "--bbp", "dc"],
         "users_per_ru"),
        (["fanout", "--n-ru", "1" + "0" * 400], "n_ru"),
    ])
    def test_count_beyond_float_range_is_data_error(self, argv, field):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and f"{field} must be an integer" in err

    def test_negative_zero_ue_energy_prints_zero(self, tmp_path):
        config = tmp_path / "zero.cfg"
        config.write_text("ue.energy_nj_per_bit = -0.0\n")
        argv = ["eval", "--n-ru", "4", "--users-per-ru", "2", "--bbp", "oru",
                "--config", str(config)]
        code, out, _ = run_cli(*argv, "--format", "csv")
        assert code == 0
        header, row = data_lines(out)
        assert dict(zip(header.split(","), row.split(",")))["p_ue_w"] == "0"
        assert "-0" not in row.split(",")
        code, out, _ = run_cli(*argv)
        assert code == 0
        assert "  ue                  0\n" in out and "-0" not in out.split()

    def test_topology_from_config(self, tmp_path):
        config = tmp_path / "override.cfg"
        config.write_text("topology.n_ru = 7\ntopology.users_per_ru = 3\n")
        code, out, _ = run_cli("eval", "--bbp", "dc", "--config", str(config))
        assert code == 0
        assert "n_ru=7 " in out and "users_per_ru=3 " in out
        code, out, _ = run_cli("eval", "--bbp", "dc", "--n-ru", "100", "--config", str(config))
        assert code == 0
        assert "n_ru=100 " in out and "users_per_ru=3 " in out


class TestSweep:
    def test_default_row_count(self):
        code, out, _ = run_cli("sweep")
        assert code == 0
        rows = data_lines(out)
        assert len(rows) == 401  # header + 100 n_ru values * 4 placements
        assert rows[0].startswith("n_ru,placement,")

    def test_sawtooth_rows(self):
        code, out, _ = run_cli("sweep", "--max-ru", "5", "--placements", "odu",
                               "--policy", "quantized")
        rows = data_lines(out)[1:]
        by_n = {int(line.split(",")[0]): float(line.split(",")[2]) for line in rows}
        assert by_n[4] <= by_n[5]

    def test_zero_max_ru_is_usage_error(self):
        code, _, _ = run_cli("sweep", "--max-ru", "0")
        assert code == 2

    def test_max_ru_above_2_53_is_usage_error(self):
        code, out, err = run_cli("sweep", "--max-ru", str(2**53 + 1))
        assert (code, out) == (2, "")
        assert "--max-ru must be >= 1 and <= 2**53" in err

    def test_metadata_comments_present(self):
        code, out, _ = run_cli("sweep", "--max-ru", "1")
        comments = [line for line in out.splitlines() if line.startswith("#")]
        assert any("users_per_ru" in line for line in comments)
        assert any("policy" in line for line in comments)

    def test_overflow_at_a_later_count_is_data_error(self, tmp_path):
        # Whole O-CU servers of 1e-10 Gbps at 5e294 W/Gbps: n_ru * 1.1e11 units of them are
        # priced within the float range up to 326 O-RUs and beyond it from 327, a count in
        # the second chunk.
        config = tmp_path / "tiny.cfg"
        config.write_text("edge_server.cores = 1\nedge_server.per_core_power_w = 5e284\n"
                          "edge_server.per_core_capacity_gbps = 1e-10\n"
                          "edge_server.server_capacity_gbps = 1e-10\n")
        code, out, err = run_cli("sweep", "--max-ru", "400", "--placements", "ocu",
                                 "--config", str(config))
        assert code == 1
        assert [line.split(",")[:2] for line in data_lines(out)[1:]] == [
            [str(n_ru), "ocu"] for n_ru in range(1, 327)]
        assert err.startswith("error: per-user power with BBP at ocu and n_ru=327 overflows")

    def test_repeat_runs_byte_identical(self):
        first = run_cli("sweep", "--max-ru", "30")
        second = run_cli("sweep", "--max-ru", "30")
        assert first == second


def reference_row(n_ru, breakdown):
    """A CSV data line with every one of its 11 power fields formatted on its own."""
    fields = (breakdown.processing_watts, breakdown.transmission_watts, breakdown.total_watts,
              *breakdown.nodes, *breakdown.segments, breakdown.ue_watts)
    return ",".join([str(n_ru), breakdown.placement.value] + ["%.6g" % x for x in fields])


class TestRowTemplates:
    """Sweep rows render per cell only the figures the row loop prices per cell; all must
    still be right.

    A model change that makes a figure the row loop prices once depend on n_ru fails here.
    """

    @given(catalog=catalogs(False), segments=params(False),
           servers=st.sampled_from([ClassPolicy.linear(), ClassPolicy.quantize(),
                                    ClassPolicy.quantize(0.3)]),
           links=st.sampled_from([ClassPolicy.linear(), ClassPolicy.quantize(7.0, 1)]),
           attached=st.booleans(),
           users_per_ru=st.integers(1, 64), cap=st.integers(1, 16), max_ru=st.integers(1, 60),
           placements=st.lists(st.sampled_from(NODE_ORDER), min_size=1, unique=True),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_match_per_field_rendering(self, catalog, segments, servers, links, attached,
                                            users_per_ru, cap, max_ru, placements, data):
        # Quantized links behind quantized servers priced per cell are priced per cell too.
        config = ModelConfig(catalog, segments, TrafficModel(),
                             ProvisioningPolicy(servers=servers, links=links),
                             provision_to_cap=not attached)
        flags = ["--users-per-ru", str(users_per_ru)]
        flags += ["--attached-load"] if attached else []
        # The drawn config itself, as no config key sets a link's gamma (routers on it).
        loaded = (config, TopologyCounts(du_fanout_cap=cap))
        n_ru = data.draw(st.integers(1, max_ru), label="n_ru")
        bbp = data.draw(st.sampled_from(placements), label="bbp")
        with mock.patch.object(cli, "load_run_config", return_value=loaded):
            sweep = run_cli("sweep", "--max-ru", str(max_ru), *flags,
                            "--placements", ",".join(node.value for node in placements))
            one = run_cli("eval", "--n-ru", str(n_ru), "--bbp", bbp.value, "--format", "csv",
                          *flags)
        ordered = [node for node in NODE_ORDER if node in placements]
        assert sweep[0] == 0 and sweep[2] == ""
        assert data_lines(sweep[1])[1:] == [
            reference_row(count, config.evaluate(build_sweep_topology(count, users_per_ru, cap),
                                                 node))
            for count in range(1, max_ru + 1) for node in ordered]
        breakdown = config.evaluate(build_sweep_topology(n_ru, users_per_ru, cap), bbp)
        assert one[0] == 0 and one[2] == ""
        assert data_lines(one[1])[1:] == [reference_row(n_ru, breakdown)]

    @pytest.mark.parametrize("flags", [[], ["--policy", "linear", "--attached-load"]])
    @pytest.mark.parametrize("max_ru", [1, SWEEP_CHUNK, SWEEP_CHUNK + 1, 2 * SWEEP_CHUNK + 3])
    def test_sweeps_across_chunk_boundaries(self, max_ru, flags):
        code, out, err = run_cli("sweep", "--max-ru", str(max_ru), "--users-per-ru", "3", *flags)
        config = ModelConfig.default(ProvisioningPolicy.all_linear() if flags else None)
        config = replace(config, provision_to_cap=not flags)
        assert (code, err) == (0, "")
        assert data_lines(out)[1:] == [
            reference_row(n_ru, config.evaluate(build_sweep_topology(n_ru, 3), node))
            for n_ru in range(1, max_ru + 1) for node in NODE_ORDER]


SRC = Path(__file__).resolve().parent.parent / "src"


class TestImportFootprint:
    def test_cli_loads_no_dataclasses_inspect_or_decimal(self):
        # Each would cost every cold call milliseconds of set-up; dataclasses alone pulls in
        # inspect, ast, dis and tokenize.
        code = ("import sys; before = set(sys.modules); import oranpower.cli; "
                "oranpower.cli.build_parser(); print(*sorted(set(sys.modules) - before))")
        loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(SRC)}, check=True).stdout
        assert "oranpower.cli" in loaded.split()
        assert {"dataclasses", "inspect", "decimal"}.isdisjoint(loaded.split())


class TestClosedOutput:
    def test_a_reader_that_stops_after_one_line_ends_the_run_quietly(self):
        argv = [sys.executable, "-m", "oranpower.cli", "sweep", "--max-ru", "100000"]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as process:
            first = process.stdout.readline()
            process.stdout.close()
            err = process.stderr.read()
            code = process.wait(timeout=120)
        assert first == b"# max_ru = 100000\n"
        assert (code, err) == (cli.EXIT_BROKEN_PIPE, b"")
        assert code not in (cli.EXIT_OK, cli.EXIT_DATA_ERROR, cli.EXIT_USAGE_ERROR)

    def test_an_output_file_that_cannot_be_opened_is_data_error(self, tmp_path):
        code, out, err = run_cli("sweep", "--max-ru", "3", "--output", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(tmp_path) in err


class TestFanout:
    def test_default_row_count(self):
        code, out, _ = run_cli("fanout")
        assert code == 0
        rows = data_lines(out)
        assert len(rows) == 21  # header + 5 cases * 4 placements
        assert rows[0] == "case,placement,p_processing_w,p_transmission_w,p_total_w"

    def test_oru_rows_identical_across_cases(self):
        _, out, _ = run_cli("fanout")
        oru_rows = [line.split(",", 1)[1] for line in data_lines(out)[1:]
                    if line.split(",")[1] == "oru"]
        assert len(oru_rows) == 5
        assert len(set(oru_rows)) == 1

    def test_divisibility_error_names_case(self):
        code, _, err = run_cli("fanout", "--cases", "C-4", "--n-ru", "7")
        assert code == 1
        assert "C-4" in err

    def test_unknown_case_is_data_error(self):
        code, _, err = run_cli("fanout", "--cases", "C-9")
        assert code == 1
        assert "C-9" in err


class TestConfigHandling:
    def test_config_file_is_load_config_applied_to_the_flags_config(self, tmp_path):
        text = ("radio.power_w = 150\ndc_server.cores = 10\ndc_server.server_capacity_gbps = 2.5\n"
                "ue.energy_nj_per_bit = 30\nsegment.odu.sigma = 3\n"
                "segment.backhaul.hops_wdm = 2\ntopology.n_ru = 24\ntopology.users_per_ru = 6\n"
                "topology.du_fanout_cap = 3\n")
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli("eval", "--bbp", "odu", "--policy", "linear", "--attached-load",
                                 "--format", "csv", "--config", str(path))
        assert (code, err) == (0, "")
        flags_config = replace(ModelConfig.default(ProvisioningPolicy.all_linear()),
                               provision_to_cap=False)
        config, counts = load_config(text, flags_config)
        assert counts == TopologyCounts(24, 6, 3)
        breakdown = config.evaluate(build_sweep_topology(24, 6, 3), Node.ODU)
        row = reference_row(24, breakdown)
        assert out.endswith("n_ru,placement," + ",".join(CSV_COLUMNS) + "\n" + row + "\n")

    def test_flags_alone_share_one_config_per_policy_and_load(self, tmp_path):
        def load(policy, attached, *flags):
            argv = ["eval", "--bbp", "dc", "--policy", policy, *flags]
            return load_run_config(build_parser().parse_args(
                argv + (["--attached-load"] if attached else [])))[0]

        keys = [(policy, attached) for policy in ("linear", "quantized")
                for attached in (False, True)]
        shared = {key: load(*key) for key in keys}
        assert len({id(config) for config in shared.values()}) == len(keys)
        path = tmp_path / "run.cfg"
        path.write_text("segment.odu.sigma = 3\nradio.power_w = 150\n")
        for policy, attached in keys:
            config = shared[policy, attached]
            assert load(policy, attached) is config
            topology = build_sweep_topology(24, 6)
            for node in NODE_ORDER:  # binds the shared config's loops
                config.evaluate(topology, node)
            loaded = load(policy, attached, "--config", str(path))
            assert loaded is not config and loaded.params[Node.ODU].sigma == 3.0
            fresh = ModelConfig.default(ProvisioningPolicy.all_linear() if policy == "linear"
                                        else ProvisioningPolicy.default())
            fresh = replace(fresh, provision_to_cap=not attached)
            assert config == fresh and repr(config) == repr(fresh)
            assert [config.evaluate(topology, node) for node in NODE_ORDER] == [
                fresh.evaluate(topology, node) for node in NODE_ORDER]

    def test_fronthaul_and_midhaul_router_hops_change_nothing(self, tmp_path):
        argv = ["eval", "--n-ru", "100", "--users-per-ru", "10", "--bbp", "dc", "--format", "csv"]
        config = tmp_path / "routers.cfg"
        config.write_text("segment.fronthaul.hops_router = 3\nsegment.midhaul.hops_router = 2\n")
        without = run_cli(*argv)
        assert without[0] == 0 and run_cli(*argv, "--config", str(config)) == without

    def test_catalog_override(self, tmp_path):
        config = tmp_path / "override.cfg"
        config.write_text("radio.power_w = 220\n")
        base = run_cli("eval", "--n-ru", "10", "--users-per-ru", "10", "--bbp", "dc",
                       "--policy", "linear")
        tweaked = run_cli("eval", "--n-ru", "10", "--users-per-ru", "10", "--bbp", "dc",
                          "--policy", "linear", "--config", str(config))
        assert base[0] == tweaked[0] == 0
        assert base[1] != tweaked[1]

    def test_segment_override_changes_output(self, tmp_path):
        config = tmp_path / "override.cfg"
        config.write_text("segment.backhaul.hops_router = 3\n")
        base = run_cli("eval", "--n-ru", "10", "--users-per-ru", "10", "--bbp", "dc")
        tweaked = run_cli("eval", "--n-ru", "10", "--users-per-ru", "10", "--bbp", "dc",
                          "--config", str(config))
        assert tweaked[0] == 0
        assert base[1] != tweaked[1]

    def test_topology_override_supplies_fanout_default(self, tmp_path):
        config = tmp_path / "override.cfg"
        config.write_text("topology.n_ru = 80\n")
        code, out, _ = run_cli("fanout", "--cases", "C-5", "--config", str(config))
        assert code == 0
        assert "# n_ru = 80" in out

    @pytest.mark.parametrize("argv,key", [
        (["sweep", "--max-ru", "3"], "topology.n_ru"),
        (["fanout", "--cases", "C-5", "--n-ru", "40"], "topology.du_fanout_cap"),
    ])
    def test_topology_key_the_subcommand_cannot_honour(self, tmp_path, argv, key):
        config = tmp_path / "override.cfg"
        config.write_text(f"{key} = 2\n")
        code, out, err = run_cli(*argv, "--config", str(config))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("key", [
        "router.power_w", "core_switch.capacity_gbps", "access_switch.power_w",
        "wdm_link.capacity_gbps", "radio.power_w", "radio.capacity_gbps",
        "edge_server.per_core_power_w", "edge_server.per_core_capacity_gbps",
        "dc_server.server_capacity_gbps", "ue.energy_nj_per_bit",
    ])
    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_catalog_error_names_key_and_says_finite(self, tmp_path, key, value):
        config = tmp_path / "override.cfg"
        config.write_text(f"{key} = {value}\n")
        code, out, err = run_cli("eval", "--n-ru", "4", "--users-per-ru", "2", "--bbp", "dc",
                                 "--config", str(config))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and key in err and "finite" in err

    def test_server_cores_error_names_key(self, tmp_path):
        config = tmp_path / "override.cfg"
        config.write_text("dc_server.cores = 0\n")
        code, _, err = run_cli("eval", "--n-ru", "4", "--users-per-ru", "2", "--bbp", "dc",
                               "--config", str(config))
        assert code == 1
        assert "dc_server.cores" in err

    @pytest.mark.parametrize("config_text,message", [
        ("segment.oru.sigma = 1e308\n", "alpha * sigma must be finite"),
        ("radio.power_w = 1e300\nradio.capacity_gbps = 1e-10\n", "radio.capacity_gbps"),
        ("segment.oru.sigma = 1e200\nradio.power_w = 1e200\n", "overflows a float"),
    ])
    @pytest.mark.parametrize("argv", [
        ["sweep", "--max-ru", "5"],
        ["fanout"],
        ["eval", "--n-ru", "4", "--users-per-ru", "2", "--bbp", "dc"],
    ])
    def test_overflow_is_data_error_and_leaves_output_untouched(self, tmp_path, argv,
                                                               config_text, message):
        config = tmp_path / "override.cfg"
        config.write_text(config_text)
        output = tmp_path / "out.csv"
        output.write_text("earlier output\n")
        code, out, err = run_cli(*argv, "--config", str(config), "--output", str(output))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and message in err
        assert output.read_text() == "earlier output\n"

    def test_overflowing_unit_count_is_data_error(self, tmp_path):
        # 44 Gbps of DC load over 1e-307 Gbps servers is more units than a float holds
        config = tmp_path / "override.cfg"
        config.write_text("dc_server.cores = 1\ndc_server.per_core_power_w = 1e-307\n"
                          "dc_server.per_core_capacity_gbps = 1e-307\n"
                          "dc_server.server_capacity_gbps = 1e-307\n")
        code, out, err = run_cli("eval", "--n-ru", "4", "--users-per-ru", "2", "--bbp", "dc",
                                 "--config", str(config))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "dc = inf" in err

    def test_undecodable_config_is_data_error(self, tmp_path):
        config = tmp_path / "override.cfg"
        config.write_bytes(b"radio.power_w = 1\xff\n")
        code, out, err = run_cli("eval", "--n-ru", "4", "--users-per-ru", "2", "--bbp", "dc",
                                 "--config", str(config))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and str(config) in err

    def test_config_with_a_byte_order_mark_reads_as_without(self, tmp_path):
        # An editor may start a UTF-8 file with U+FEFF; it is no part of the first key.
        text = b"radio.power_w = 150\nsegment.odu.sigma = 3\ntopology.users_per_ru = 8\n"
        argv = ["eval", "--n-ru", "40", "--bbp", "odu", "--format", "csv", "--config"]
        outcomes = []
        for name, data in (("plain.cfg", text), ("bom.cfg", b"\xef\xbb\xbf" + text)):
            (tmp_path / name).write_bytes(data)
            outcomes.append(run_cli(*argv, str(tmp_path / name)))
        assert outcomes[0][0] == 0 and outcomes[1] == outcomes[0]

    # Hop counts are read only for links, so a node's hop key is unknown.
    @pytest.mark.parametrize("key", ["nonsense.key"] + [
        f"segment.{node}.{field}" for node in ("oru", "odu", "ocu", "dc")
        for field in ("hops_switch", "hops_wdm", "hops_router")])
    def test_unknown_key_is_data_error(self, tmp_path, key):
        config = tmp_path / "override.cfg"
        config.write_text(f"{key} = 1\n")
        code, _, err = run_cli("eval", "--n-ru", "1", "--users-per-ru", "1", "--bbp", "dc",
                               "--config", str(config))
        assert code == 1
        assert key in err

    @pytest.mark.parametrize("argv,key", [
        (["eval", "--n-ru", "100", "--users-per-ru", "10", "--bbp", "dc"], "segment.oru.sigma"),
        (["fanout"], "segment.backhaul.alpha"),
    ])
    def test_infinite_segment_factor_is_data_error(self, tmp_path, argv, key):
        config = tmp_path / "override.cfg"
        config.write_text(f"{key} = inf\n")
        code, out, err = run_cli(*argv, "--config", str(config))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and key.rsplit(".", 1)[1] in err

    def test_duplicate_key_is_data_error_on_the_given_stderr(self, tmp_path, capsys):
        config = tmp_path / "override.cfg"
        config.write_text("radio.power_w = 100\nradio.power_w = 120\n")
        code, out, err = run_cli("eval", "--n-ru", "4", "--users-per-ru", "2", "--bbp", "dc",
                                 "--config", str(config))
        assert (code, out) == (1, "")
        assert "line 2: duplicate key 'radio.power_w', already set on line 1" in err
        assert capsys.readouterr().err == ""

    def test_missing_config_file_is_data_error(self):
        code, _, err = run_cli("sweep", "--config", "/does/not/exist.cfg")
        assert code == 1
        assert err

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli("sweep", "--max-ru", "2", "--output", str(target))
        assert code == 0
        assert out == ""
        assert len(data_lines(target.read_text())) == 9

    def test_attached_load_changes_partial_du_rows(self):
        capped = run_cli("eval", "--n-ru", "3", "--users-per-ru", "10", "--bbp", "odu")
        attached = run_cli("eval", "--n-ru", "3", "--users-per-ru", "10", "--bbp", "odu",
                           "--attached-load")
        assert capped[1] != attached[1]


def parse_args_outcome(argv):
    """Exit code, stdout, stderr and Namespace of ``build_parser().parse_args(argv)``.

    Every parser runs argparse's own ``parse_known_args``, never the plain-command-line read
    of ``cli._Parser``, so this is the reference that read is held to.
    """
    out, err = io.StringIO(), io.StringIO()
    args = None
    with redirect_stdout(out), redirect_stderr(err), mock.patch.object(
            cli._Parser, "parse_known_args", argparse.ArgumentParser.parse_known_args):
        try:
            args, code = build_parser().parse_args(argv), 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), args


# Values for a flag: each of its choices, integers, and forms that a plain read must leave to
# argparse or that argparse's own type and choices checks reject.
_ODD_VALUES = ["", " 5", "1e3", "4.0", "0x10", "-5", "-1", "-", "--", "-h", "--bbp", "x.cfg",
               "xyz", "DC", "dc", "csv", "linear", "C-1,C-3", "oru,dc", "2**53", "1" + "0" * 30]


def _flag_value(draw, action):
    """One of ``action``'s values in four draws, else a value from ``_ODD_VALUES``."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(_ODD_VALUES))
    if action.choices:
        return draw(st.sampled_from(action.choices))
    if action.type is int:
        return str(draw(st.integers(-3, 10**6)))
    return draw(st.sampled_from(["x.cfg", "out.csv", "stdout", "oru,dc", "C-1,C-2"]))


@st.composite
def _subcommand_argv(draw):
    """A subcommand and tokens built from its parser's option strings.

    Half of the command lines give each required flag and then only whole flags, each with one
    value or none (a switch): the form a plain read takes, unless a value is odd. The others
    also take abbreviations, ``--flag=value``, lone flags with missing values and loose tokens.
    """
    name = draw(st.sampled_from(sorted(build_parser().subcommands)))
    parser = build_parser().subcommands[name]
    table = parser._option_string_actions
    whole = draw(st.booleans())
    argv = [name]
    if whole:
        for action in parser._actions:
            if action.required:
                argv += [action.option_strings[0], _flag_value(draw, action)]
    options = sorted(option for option in table
                     if not whole or table[option].dest is not argparse.SUPPRESS)  # not -h
    for _ in range(draw(st.integers(0, 6))):
        option = draw(st.sampled_from(options))
        kind = "pair" if whole else draw(st.sampled_from(
            ["pair", "pair", "alone", "prefix", "equals", "loose"]))
        if kind == "pair" and table[option].nargs == 0:
            argv.append(option)
        elif kind == "pair":  # a repeated flag arises when the same option is drawn twice
            argv += [option, _flag_value(draw, table[option])]
        elif kind == "alone":  # a switch, or a flag whose value is missing
            argv.append(option)
        elif kind == "prefix":
            argv.append(option[:draw(st.integers(2, max(2, len(option) - 1)))])
        elif kind == "equals":
            argv.append(f"{option}={_flag_value(draw, table[option])}")
        else:
            argv.append(draw(st.sampled_from(["--", "-h", "extra", "--bogus", "-x"])))
    return argv


_ARGVS = st.one_of(_subcommand_argv(), st.lists(
    st.sampled_from(["-h", "--help", "ev", "eval", "sweep", "--bbp", "dc", "-x", "--"]),
    max_size=3))


class TestMain:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    @given(argv=_ARGVS)
    @example(argv=[])
    @example(argv=["-h"])
    @example(argv=["--help"])
    @example(argv=["ev"])
    @example(argv=["eval", "-h"])
    @example(argv=["eval", "--n-ru", "4", "--users-per-ru", "2", "--bbp", "dc", "extra"])
    @example(argv=["eval", "--n-ru", "4", "--users", "2", "--bbp", "dc"])
    @example(argv=["sweep", "--max-ru=3"])
    @example(argv=["fanout", "--n-ru", "40", "--", "x"])
    @example(argv=["eval", "--n-ru", "4", "--n-ru", "5", "--users-per-ru", "2", "--bbp", "odu"])
    @example(argv=["fanout", "-h", "--bogus"])
    @example(argv=["eval", "--n-ru", "4", "--users-per-ru", "2", "--bbp", "xyz"])
    @example(argv=["eval", "--bbp", "dc", "--config", "-h"])
    @example(argv=["sweep", "--max-ru", " 5", "--attached-load", "--policy", "linear"])
    @settings(max_examples=300, deadline=None)
    def test_main_parses_as_parse_args_does(self, argv):
        """``main``'s namespace, exit status and output equal argparse's for any command line.

        The handlers are replaced, so no drawn command runs.
        """
        seen = []

        def handler(args, parser, stdout):
            seen.append(args)
            return 0

        with mock.patch.multiple(cli, cmd_eval=handler, cmd_sweep=handler, cmd_fanout=handler):
            code, out, err = run_cli(*argv)
        assert (code, out, err, seen[0] if seen else None) == parse_args_outcome(argv)

    @pytest.mark.parametrize("argv,expected_code,out_text,err_text", [
        (["eval", "--n-ru", "4"], 2, "", "the following arguments are required: --bbp"),
        (["eval", "--bbp", "dc"], 2, "", "--n-ru is required"),
        (["sweep", "--max-ru", "0"], 2, "", "--max-ru must be >= 1"),
        (["fanout", "--placements", "xyz"], 2, "", "invalid placement 'xyz'"),
        (["sweep", "--help"], 0, "usage: oranpower sweep", ""),
    ])
    def test_usage_errors_and_help_go_to_the_given_streams(self, capsys, argv, expected_code,
                                                           out_text, err_text):
        code, out, err = run_cli(*argv)
        assert code == expected_code
        assert out_text in out and bool(out) == bool(out_text)
        assert err_text in err and bool(err) == bool(err_text)
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--max-ru", "0"], "--max-ru must be >= 1"),
        (["eval", "--bbp", "dc"], "--n-ru is required"),
        (["fanout", "--placements", "xyz"], "invalid placement 'xyz'"),
    ])
    def test_usage_error_in_a_handler_shows_the_subcommand_usage(self, argv, message):
        code, _, err = run_cli(*argv)
        assert code == 2
        assert err.startswith(f"usage: oranpower {argv[0]} [-h]")
        assert f"\noranpower {argv[0]}: error: {message}" in err

    def test_reused_parser_after_usage_error(self):
        code, _, err = run_cli("eval", "--bbp", "xyz")
        assert code == 2
        assert "--bbp" in err
        assert run_cli("eval", "--n-ru", "100", "--users-per-ru", "10", "--bbp", "dc",
                       "--policy", "linear") == run_cli("eval", "--n-ru", "100",
                                                        "--users-per-ru", "10", "--bbp", "dc",
                                                        "--policy", "linear")
        assert run_cli("sweep", "--max-ru", "0")[0] == 2

    def test_replaced_handler_is_called(self, monkeypatch):
        from oranpower import cli

        build_parser()
        monkeypatch.setattr(cli, "cmd_eval", lambda args, parser, stdout: 7)
        assert run_cli("eval", "--n-ru", "4", "--users-per-ru", "2", "--bbp", "dc")[0] == 7

    def test_plain_value_error_is_not_a_data_error(self, monkeypatch):
        def broken(self, topology, placement):
            raise ValueError("a fault in the model")

        monkeypatch.setattr(ModelConfig, "evaluate", broken)
        with pytest.raises(ValueError, match="a fault in the model"):
            main(["eval", "--n-ru", "4", "--users-per-ru", "2", "--bbp", "dc"],
                 stdout=io.StringIO(), stderr=io.StringIO())


STORE_FLAGS = [(command, option) for command, parser in build_parser().subcommands.items()
               for action in parser._actions if type(action) is argparse._StoreAction
               for option in action.option_strings]


class TestDoubleDashValue:
    """``--flag=--`` gives a ``store`` flag the value ``--`` on every Python, as 3.13 does; 3.10
    to 3.12 strip it and store ``[]``, which no flag's type or choices would then test."""

    BASE = {"eval": ["--n-ru", "4", "--users-per-ru", "2", "--bbp", "dc"], "sweep": [],
            "fanout": []}

    @pytest.mark.parametrize("command, flag", STORE_FLAGS)
    def test_every_store_flag_ends_without_a_traceback(self, tmp_path, monkeypatch, command,
                                                       flag):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(command, *self.BASE[command], f"{flag}=--")
        assert "Traceback" not in err
        if flag == "--output":  # "--" names a file, and the run writes it
            assert (code, out, err) == (0, "", "") and (tmp_path / "--").read_text()
        else:
            assert code in (1, 2) and "'--'" in err

    def test_max_ru(self):
        code, out, err = run_cli("sweep", "--max-ru=--")
        assert (code, out) == (2, "")
        assert err.endswith("oranpower sweep: error: argument --max-ru: invalid int value: '--'\n")


class TestPlainRead:
    """Which command lines a subcommand's parser reads itself and which go to argparse; the
    property in ``TestMain`` checks that the outcome is argparse's either way."""

    @staticmethod
    def parse(argv, namespace=True):
        """``parse_known_args`` of ``argv[0]``'s parser, as ``main`` calls it, and how many
        times argparse's own ``parse_known_args`` ran; a usage error or help ends as ``None``."""
        parser = build_parser().subcommands[argv[0]]
        original = argparse.ArgumentParser.parse_known_args
        with mock.patch.object(argparse.ArgumentParser, "parse_known_args", autospec=True,
                               side_effect=original) as spy, \
                redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                result = parser.parse_known_args(
                    argv[1:], argparse.Namespace(command=argv[0]) if namespace else None)
            except SystemExit:
                result = None
        return result, spy.call_count

    @pytest.mark.parametrize("argv", [
        ["eval", "--n-ru", "100", "--users-per-ru", "10", "--bbp", "dc"],
        ["eval", "--bbp", "oru", "--format", "csv", "--policy", "linear", "--attached-load",
         "--config", "run.cfg", "--output", "out.csv", "--n-ru", "7", "--users-per-ru", "3"],
        ["eval", "--n-ru", "4", "--n-ru", "5", "--users-per-ru", "2", "--bbp", "odu"],
        ["sweep", "--max-ru", "300", "--placements", "odu,dc"],
        ["fanout", "--cases", "C-1,C-3", "--n-ru", "40", "--placements", "oru"],
        ["fanout"],
    ])
    def test_a_plain_command_line_is_read_from_the_action_table(self, argv):
        result, argparse_calls = self.parse(argv)
        assert argparse_calls == 0
        assert result == (parse_args_outcome(argv)[3], [])

    @pytest.mark.parametrize("argv", [
        ["eval", "--n-ru", "4", "--users", "2", "--bbp", "dc"],  # an abbreviation
        ["eval", "--n-ru", "4", "--users-per-ru=2", "--bbp", "dc"],
        ["eval", "--bbp", "dc", "--bogus"],
        ["eval", "--bbp", "dc", "-h"],
        ["eval", "--bbp", "dc", "extra"],
        ["fanout", "--", "--n-ru", "40"],
        ["fanout", "--n-ru"],  # a missing value
        ["fanout", "--n-ru", "-40"],
        ["fanout", "--n-ru", "4x"],  # rejected by the flag's type
        ["eval", "--bbp", "xyz"],  # outside the flag's choices
        ["eval", "--n-ru", "4"],  # a required flag missing
    ])
    def test_any_other_command_line_goes_to_argparse(self, argv):
        assert self.parse(argv)[1] == 1

    def test_a_call_without_a_namespace_goes_to_argparse(self):
        result, argparse_calls = self.parse(["sweep", "--max-ru", "3"], namespace=False)
        assert argparse_calls == 1
        assert result[0].max_ru == 3
