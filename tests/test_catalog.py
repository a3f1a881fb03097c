"""Catalog defaults, spec invariants, and catalog keys applied by ``load_config``."""

import re

import pytest

from oranpower.catalog import (
    CatalogError,
    EquipmentSpec,
    ServerSpec,
    default_catalog,
    energy_per_capacity,
)
from oranpower.cli import build_parser, load_run_config
from oranpower.configfile import ConfigError, TopologyCounts, load_config
from oranpower.powermodel import ModelConfig

from model_helpers import replace


def rel_equal(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def load_catalog(text):
    """The catalog of the default config with ``text`` applied to it."""
    return load_config(text, ModelConfig.default())[0].catalog


class TestDefaults:
    def test_transport_equipment_ratings(self):
        cat = default_catalog()
        assert (cat.router.rated_power_w, cat.router.capacity_gbps) == (172.0, 3200.0)
        assert (cat.core_switch.rated_power_w, cat.core_switch.capacity_gbps) == (3000.0, 25600.0)
        assert (cat.access_switch.rated_power_w, cat.access_switch.capacity_gbps) == (86.7, 480.0)
        assert (cat.wdm_link.rated_power_w, cat.wdm_link.capacity_gbps) == (4265.0, 9600.0)
        assert (cat.radio.rated_power_w, cat.radio.capacity_gbps) == (110.0, 22.0)

    def test_server_ratings(self):
        cat = default_catalog()
        assert cat.edge_server.cores == 4
        assert cat.edge_server.per_core_power_w == 6.0
        assert cat.edge_server.server_capacity_gbps == 1.0
        assert cat.dc_server.cores == 20
        assert cat.dc_server.per_core_power_w == 5.5
        assert cat.dc_server.server_capacity_gbps == 5.0
        assert cat.ue_energy_j_per_bit == 25e-9

    def test_server_energy_per_capacity(self):
        cat = default_catalog()
        assert rel_equal(energy_per_capacity(cat.edge_server), 24.0)  # 4*6 W over 1 Gbps
        assert rel_equal(energy_per_capacity(cat.dc_server), 22.0)    # 20*5.5 W over 5 Gbps

    def test_one_shared_instance(self):
        assert default_catalog() is default_catalog()

    def test_overrides_leave_the_default_unchanged(self, tmp_path):
        before, config = replace(default_catalog()), ModelConfig.default()
        loaded, _ = load_config("radio.power_w = 99\nue.energy_nj_per_bit = 7\n", config)
        assert loaded.catalog.radio.rated_power_w == 99
        path = tmp_path / "override.cfg"
        path.write_text("dc_server.cores = 40\ndc_server.server_capacity_gbps = 10\n")
        args = build_parser().parse_args(["eval", "--bbp", "dc", "--config", str(path)])
        assert load_run_config(args)[0].catalog.dc_server.cores == 40
        assert default_catalog() == before and config == ModelConfig.default()
        assert default_catalog().dc_server.cores == 20


class TestEnergyPerCapacity:
    def test_core_switch_ratio(self):
        assert energy_per_capacity(default_catalog().core_switch) == 3000.0 / 25600.0

    def test_radio_ratio(self):
        assert energy_per_capacity(default_catalog().radio) == 5.0

    def test_zero_capacity_rejected(self):
        with pytest.raises(CatalogError):
            EquipmentSpec("broken", 100.0, 0.0)


class TestSpecValidation:
    def test_negative_power_rejected(self):
        with pytest.raises(CatalogError):
            EquipmentSpec("broken", -1.0, 10.0)

    def test_server_capacity_consistency(self):
        with pytest.raises(CatalogError, match="server_capacity_gbps"):
            ServerSpec(cores=3, per_core_power_w=6.0, per_core_capacity_gbps=0.25,
                       server_capacity_gbps=1.0)

    def test_server_capacity_product_must_not_overflow(self):
        with pytest.raises(CatalogError, match="server_capacity_gbps must equal"):
            ServerSpec(cores=2**53, per_core_power_w=1.0, per_core_capacity_gbps=1e300,
                       server_capacity_gbps=1.0)

    def test_server_capacity_product_of_ints_beyond_a_float_rejected(self):
        with pytest.raises(CatalogError, match="server_capacity_gbps must equal"):
            ServerSpec(cores=2**53, per_core_power_w=1.0, per_core_capacity_gbps=10**300,
                       server_capacity_gbps=1.0)

    def test_server_power_product_of_ints_beyond_a_float_rejected(self):
        message = ("server: cores * per_core_power_w / server_capacity_gbps must be finite, "
                   f"got 2 * {10**308} / 1.0")
        with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
            ServerSpec(cores=2, per_core_power_w=10**308, per_core_capacity_gbps=0.5,
                       server_capacity_gbps=1.0)

    def test_server_cores_must_be_positive_int(self):
        with pytest.raises(CatalogError):
            ServerSpec(cores=0, per_core_power_w=6.0, per_core_capacity_gbps=0.25,
                       server_capacity_gbps=0.0)
        with pytest.raises(CatalogError, match=r"cores must be an integer >= 1 and <= 2\*\*53"):
            ServerSpec(cores=10**400, per_core_power_w=6.0, per_core_capacity_gbps=0.25,
                       server_capacity_gbps=1.0)

    def test_overflowing_ratio_rejected(self):
        with pytest.raises(CatalogError, match="rated_power_w / capacity_gbps must be finite"):
            EquipmentSpec("radio", 1e300, 1e-10)
        with pytest.raises(CatalogError, match="per_core_power_w / server_capacity_gbps"):
            ServerSpec(cores=4, per_core_power_w=1e308, per_core_capacity_gbps=0.25,
                       server_capacity_gbps=1.0)

    @pytest.mark.parametrize("field,kind", [("radio", "EquipmentSpec"),
                                            ("router", "EquipmentSpec"),
                                            ("edge_server", "ServerSpec"),
                                            ("dc_server", "ServerSpec")])
    def test_catalog_specs_checked(self, field, kind):
        # A server in a device's place, or a device in a server's, is as wrong as None.
        other = "radio" if kind == "ServerSpec" else "dc_server"
        for value in (None, getattr(default_catalog(), other)):
            message = f"{field} must be of type {kind}, got {value!r}"
            with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
                replace(default_catalog(), **{field: value})

    def test_per_core_ratio_matches_server_ratio(self):
        for server in (default_catalog().edge_server, default_catalog().dc_server):
            per_core = server.per_core_power_w / server.per_core_capacity_gbps
            assert rel_equal(per_core, energy_per_capacity(server))


class TestLoadConfig:
    def test_empty_text_gives_defaults(self):
        assert load_catalog("") == default_catalog()
        assert load_config("", ModelConfig.default()) == (ModelConfig.default(), TopologyCounts())

    def test_comments_and_blanks_ignored(self):
        text = "\n# just a comment\n   \nrouter.power_w = 172  # inline\n"
        assert load_catalog(text) == default_catalog()

    def test_single_override(self):
        cat = load_catalog("router.power_w = 200")
        assert cat.router.rated_power_w == 200.0
        assert cat.router.capacity_gbps == 3200.0
        assert cat.core_switch == default_catalog().core_switch

    def test_invariant_violation_reported(self):
        with pytest.raises(CatalogError, match="server_capacity_gbps"):
            load_catalog("edge_server.cores = 3")

    def test_rejected_value_names_key_and_line(self):
        with pytest.raises(CatalogError, match="line 2: router.power_w = inf: .* finite"):
            load_catalog("core_switch.power_w = 10\nrouter.power_w = inf")

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="router.colour"):
            load_catalog("router.colour = blue")

    def test_non_numeric_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            load_catalog("router.power_w = 200\nrouter.capacity_gbps = fast")

    def test_duplicate_key_rejected_naming_both_lines(self):
        with pytest.raises(ConfigError, match="line 3: duplicate key 'router.power_w', "
                                              "already set on line 1"):
            load_catalog("router.power_w = 200\nradio.power_w = 1\nrouter.power_w = 300")

    def test_ue_energy_in_nanojoules(self):
        cat = load_catalog("ue.energy_nj_per_bit = 50")
        assert rel_equal(cat.ue_energy_j_per_bit, 50e-9)

