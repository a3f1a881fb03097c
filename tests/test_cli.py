"""CLI subcommands: flags, exit codes, CSV shape, config handling, determinism."""

import io
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oranpower import cli
from oranpower.cli import build_parser, main
from oranpower.experiments import sweep_orus
from oranpower.powermodel import ModelConfig, ProvisioningPolicy, TrafficModel
from oranpower.topology import NODE_ORDER, build_sweep_topology

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
    """Sweep rows render only the columns that vary with n_ru; all must still be right.

    A model change that makes a column the row templates hold constant depend on
    n_ru fails here.
    """

    @given(catalog=catalogs(False), segments=params(False),
           policy=st.sampled_from(["linear", "quantized"]), attached=st.booleans(),
           users_per_ru=st.integers(1, 64), cap=st.integers(1, 16), max_ru=st.integers(1, 60),
           placements=st.lists(st.sampled_from(NODE_ORDER), min_size=1, unique=True),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_match_per_field_rendering(self, catalog, segments, policy, attached,
                                            users_per_ru, cap, max_ru, placements, data):
        config = ModelConfig(catalog, segments, TrafficModel(),
                             ProvisioningPolicy.all_linear() if policy == "linear"
                             else ProvisioningPolicy.default(), provision_to_cap=not attached)
        flags = ["--users-per-ru", str(users_per_ru), "--policy", policy]
        flags += ["--attached-load"] if attached else []
        # Drawn in-process, as no config key sets a link's gamma (routers on it).
        run = cli.RunConfig(catalog=catalog, params=segments, du_fanout_cap=cap)
        n_ru = data.draw(st.integers(1, max_ru), label="n_ru")
        bbp = data.draw(st.sampled_from(placements), label="bbp")
        with mock.patch.object(cli, "load_run_config", return_value=run):
            sweep = run_cli("sweep", "--max-ru", str(max_ru), *flags,
                            "--placements", ",".join(node.value for node in placements))
            one = run_cli("eval", "--n-ru", str(n_ru), "--bbp", bbp.value, "--format", "csv",
                          *flags)
        records = sweep_orus(range(1, max_ru + 1), users_per_ru, placements, config,
                             du_fanout_cap=cap)
        assert sweep[0] == 0 and sweep[2] == ""
        assert data_lines(sweep[1])[1:] == [reference_row(record.n_ru, record.breakdown)
                                            for record in records]
        breakdown = config.evaluate(build_sweep_topology(n_ru, users_per_ru, cap), bbp)
        assert one[0] == 0 and one[2] == ""
        assert data_lines(one[1])[1:] == [reference_row(n_ru, breakdown)]


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
        assert err.startswith("error:") and "44.0 Gbps of load in units of 1e-307 Gbps" in err

    def test_undecodable_config_is_data_error(self, tmp_path):
        config = tmp_path / "override.cfg"
        config.write_bytes(b"radio.power_w = 1\xff\n")
        code, out, err = run_cli("eval", "--n-ru", "4", "--users-per-ru", "2", "--bbp", "dc",
                                 "--config", str(config))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and str(config) in err

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
    """Exit code, stdout, stderr and Namespace of ``build_parser().parse_args(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    args = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args, code = build_parser().parse_args(argv), 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), args


class TestMain:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["ev"], ["eval", "-h"],
        ["eval", "--n-ru", "4", "--users-per-ru", "2", "--bbp", "dc", "extra"],
        ["eval", "--n-ru", "4", "--users", "2", "--bbp", "dc"],
        ["sweep", "--max-ru=3"],
        ["fanout", "--n-ru", "40", "--", "x"],
        ["eval", "--n-ru", "4", "--n-ru", "5", "--users-per-ru", "2", "--bbp", "odu"],
        ["fanout", "-h", "--bogus"],
    ])
    def test_main_parses_as_parse_args_does(self, monkeypatch, argv):
        from oranpower import cli

        seen = []
        for name in ("cmd_eval", "cmd_sweep", "cmd_fanout"):
            monkeypatch.setattr(cli, name, lambda args, parser, stdout: seen.append(args) or 0)
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
