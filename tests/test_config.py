"""The config-key table and ``load_config``: exact integer keys, the fields no key sets, the
README key list, fuzzed config text, and agreement with the replace-per-section reference."""

import inspect
import math
import re
from decimal import Decimal
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from model_helpers import reference_load_config, replace

from oranpower.catalog import CatalogError, EquipmentSpec, default_catalog
from oranpower.configfile import CONFIG_KEYS, ConfigError, TopologyCounts, load_config
from oranpower.powermodel import ModelConfig, ProvisioningPolicy, TrafficModel
from oranpower.topology import Link, Node, Record, TopologyError, segment_map

README = Path(__file__).resolve().parent.parent / "README.md"
INPUT_ERRORS = (ConfigError, CatalogError, TopologyError)


def readme_config_block():
    section = README.read_text(encoding="utf-8").split("## Config file", 1)[1]
    return section.split("```ini\n", 1)[1].split("```", 1)[0]


def load(text):
    """The default config with ``text`` applied, and the text's topology counts."""
    return load_config(text, ModelConfig.default())


class TestIntegerKeys:
    @pytest.mark.parametrize("key", ["segment.backhaul.hops_switch", "topology.n_ru"])
    def test_read_exactly(self, key):
        # As a float, 2**53 + 1 rounds to 2**53, which the bound accepts.
        with pytest.raises(INPUT_ERRORS, match=rf"line 1: {key} = 9007199254740993: .*<= 2\*\*53"):
            load(f"{key} = 9007199254740993\n")
        assert load(f"{key} = 9007199254740992\n") is not None

    def test_whole_float_literals(self):
        config, counts = load("segment.backhaul.hops_switch = 4.0\ntopology.n_ru = 1e3\n")
        assert config.params[Link.BACKHAUL].hops_switch == 4
        assert counts.n_ru == 1000 and isinstance(counts.n_ru, int)


class TestTopologyCounts:
    @pytest.mark.parametrize("value", [0, True, "a", 2**53 + 1])
    @pytest.mark.parametrize("field", ["n_ru", "users_per_ru", "du_fanout_cap"])
    def test_a_bad_count_is_rejected_naming_its_field(self, field, value):
        message = f"{field} must be an integer >= 1 and <= 2**53, got {value}"
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            TopologyCounts(**{field: value})

    def test_fields_checked_in_order(self):
        with pytest.raises(TopologyError, match="^n_ru must be an integer"):
            TopologyCounts(n_ru=0, users_per_ru="a", du_fanout_cap=-1)

    def test_a_config_file_count_is_rejected_naming_its_line_and_field(self):
        with pytest.raises(TopologyError) as info:
            load("topology.n_ru = 0\n")
        assert "line 1: topology.n_ru = 0" in str(info.value)
        assert "n_ru must be an integer >= 1 and <= 2**53, got 0" in str(info.value)


class TestLoadConfig:
    def test_keeps_the_fields_no_key_sets(self):
        config = ModelConfig(default_catalog(), segment_map(), TrafficModel(1.0, 2.0),
                             ProvisioningPolicy.all_linear(), provision_to_cap=False)
        loaded, counts = load_config("router.power_w = 200\nsegment.odu.sigma = 3\n"
                                     "topology.users_per_ru = 8\n", config)
        params = {**segment_map(), Node.ODU: replace(segment_map()[Node.ODU], sigma=3.0)}
        catalog = replace(default_catalog(), router=EquipmentSpec("router", 200.0, 3200.0))
        assert loaded == replace(config, catalog=catalog, params=params)
        assert counts == TopologyCounts(users_per_ru=8)
        assert config.catalog is default_catalog() and config.params == segment_map()


class TestReadme:
    def test_config_block_lists_every_key(self):
        block = readme_config_block()
        keys = {line.split("=", 1)[0].strip() for line in block.splitlines()
                if line.split("#", 1)[0].strip()}
        assert keys == set(CONFIG_KEYS)
        assert load(block)[1] == TopologyCounts(40, 10, 4)

    def test_config_block_loads_the_defaults_exactly(self):
        # ue.energy_nj_per_bit = 25 is 2.5e-08 J, not 25 * 1e-9 == 2.5000000000000002e-08.
        assert load(readme_config_block())[0] == ModelConfig.default()


def decimal_nanojoules(text):
    """A number literal in nJ as the nearest double in J, through ``Decimal``: the literal's
    digits, their exponent lowered by 9, rounded once."""
    value = float(text)
    if not value or not math.isfinite(value):
        return value
    sign, digits, exponent = Decimal(text).as_tuple()
    return float(Decimal((sign, digits, exponent - 9)))


DIGITS = st.lists(st.text("0123456789", min_size=1, max_size=12), min_size=1,
                  max_size=3).map("_".join)


@st.composite
def number_literals(draw):
    """Float literals: a sign, digits with underscores, a point anywhere, and an exponent
    that may carry a sign and leading zeros."""
    whole, fraction = draw(st.one_of(
        st.tuples(DIGITS, st.just(None)),
        st.tuples(DIGITS, st.one_of(st.just(""), DIGITS)),
        st.tuples(st.just(""), DIGITS)))
    text = draw(st.sampled_from(["", "+", "-"])) + whole
    if fraction is not None:
        text += "." + fraction
    if draw(st.booleans()):
        text += (draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
                 + "0" * draw(st.integers(0, 30)) + str(draw(st.integers(0, 400))))
    return text


class TestNanojoules:
    @given(text=number_literals())
    @example(text="1e" + "0" * 5000 + "7")
    @example(text="-0.0e-0")
    def test_reader_matches_a_decimal_reference(self, text):
        # repr tells -0.0 from 0.0; the reader shifts the literal's exponent with no Decimal.
        reader = CONFIG_KEYS["ue.energy_nj_per_bit"][2]
        assert repr(reader(text)) == repr(decimal_nanojoules(text))

    @given(whole=st.text("0123456789", min_size=1, max_size=30),
           fraction=st.one_of(st.none(), st.text("0123456789", max_size=30)))
    def test_nearest_double_to_the_written_value(self, whole, fraction):
        text = whole if fraction is None else f"{whole}.{fraction}"
        loaded = load(f"ue.energy_nj_per_bit = {text}\n")[0].catalog.ue_energy_j_per_bit
        assert loaded == float(text + "e-9")

    @pytest.mark.parametrize("text, joules", [("2.5e1", 2.5e-08), ("25E+0", 2.5e-08),
                                              ("1e-400", 0.0), ("3e300", 3e291),
                                              pytest.param("1e" + "0" * 5000, 1e-09,
                                                           id="5000-digit-exponent"),
                                              ("0e99999999999999999999", 0.0),
                                              ("1e-99999999999999999999", 0.0)])
    def test_written_exponents(self, text, joules):
        assert load(f"ue.energy_nj_per_bit = {text}\n")[0].catalog.ue_energy_j_per_bit == joules

    @pytest.mark.parametrize("text", ["inf", "nan", "-1", "1e400"])
    def test_non_finite_and_negative_rejected_naming_the_key(self, text):
        with pytest.raises(CatalogError, match=rf"^line 1: ue.energy_nj_per_bit = {text}: "):
            load(f"ue.energy_nj_per_bit = {text}\n")


def numbers(value):
    """Every int and float inside a loaded config and counts: their records, maps and tuples."""
    if isinstance(value, Record):
        for item in vars(value).values():
            yield from numbers(item)
    elif isinstance(value, Mapping):
        for item in value.values():
            yield from numbers(item)
    elif isinstance(value, tuple):
        for item in value:
            yield from numbers(item)
    elif isinstance(value, (int, float)):
        yield value


EXTREMES = ["nan", "-inf", "1e400", "-0.0", "4.0", "1e3", "2.5", "0x10", "1_000", "-1",
            "9007199254740993", "1" + "0" * 400, "1" + "0" * 5000]

VALUE_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(-10**400, 10**400).map(str),
    st.sampled_from(EXTREMES),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12),
).filter(lambda text: "#" not in text and text.strip() and text.splitlines() == [text])

TABLE_LINES = st.lists(st.tuples(st.sampled_from(sorted(CONFIG_KEYS)), VALUE_TEXT),
                       max_size=8, unique_by=lambda line: line[0])

def check_loaded(loaded):
    for number in numbers(loaded):
        if isinstance(number, float):
            assert math.isfinite(number)
        else:
            assert 0 <= number <= 2**53


def check_lines(lines):
    """Load ``key = value`` lines: a valid config, or an input error naming a key and its line."""
    try:
        loaded = load("".join(f"{key} = {value}\n" for key, value in lines))
    except INPUT_ERRORS as exc:
        named = [f"line {lineno}: {key} = " for lineno, (key, _) in enumerate(lines, start=1)]
        assert any(where in str(exc) for where in named), str(exc)
        return
    check_loaded(loaded)


class TestFuzzedConfig:
    @given(text=st.text(st.characters(blacklist_categories=("Cs",)), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_text(self, text):
        try:
            loaded = load(text)
        except INPUT_ERRORS:
            return
        check_loaded(loaded)

    @given(lines=TABLE_LINES)
    @settings(max_examples=200, deadline=None)
    def test_table_keys_with_arbitrary_values(self, lines):
        check_lines(lines)

    def test_every_key_with_extreme_values(self):
        for key in CONFIG_KEYS:
            for value in EXTREMES:
                check_lines([(key, value)])


# Lines that are no table entry, or one that collides: comments, blanks, syntax errors,
# unknown keys, and a known key with a fixed value (a duplicate if the table sets it too).
JUNK_LINES = st.one_of(
    st.sampled_from(["", "   ", "# comment", "\t# indented comment", "no equals sign",
                     "= 5", "nodot = 1", "radio.power_w =", "segment.oru.beta = 2",
                     "topology.n_du = 3", "radio.power_w = 120  # trailing comment",
                     "segment.odu.sigma = 0.5", "ue.energy_nj_per_bit = -1", "=", "#=x",
                     "radio.power_w = 1 = 2", "\u00a0# after a no-break space",
                     "segment.odu.sigma\u2003=\u20033", "topology.n_ru = 4\r", " . = 1"]),
    st.sampled_from(sorted(CONFIG_KEYS)).map(lambda key: f"{key} = 2"),
)


@st.composite
def table_text_with_junk(draw):
    lines = [f"{key} = {value}" for key, value in draw(TABLE_LINES)]
    for junk in draw(st.lists(JUNK_LINES, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines) + "\n"


BASE_CONFIGS = (ModelConfig.default(),
                ModelConfig(default_catalog(), segment_map(), TrafficModel(1.0, 2.0),
                            ProvisioningPolicy.all_linear(), provision_to_cap=False))


def outcome(loader, text, config):
    """The loaded pair with its repr, which tells -0.0 from 0.0 and 4 from 4.0; or the error's
    type and message."""
    try:
        loaded = loader(text, config)
    except Exception as exc:  # any error, compared by type and message
        return type(exc), str(exc)
    return loaded, repr(loaded)


def check_matches_reference(text, config):
    assert outcome(load_config, text, config) == outcome(reference_load_config, text, config)


class TestMatchesReference:
    """``load_config`` gives the reference's results and errors: type, message and precedence."""

    @given(text=st.text(st.characters(blacklist_categories=("Cs",)), max_size=200),
           config=st.sampled_from(BASE_CONFIGS))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_text(self, text, config):
        check_matches_reference(text, config)

    @given(text=table_text_with_junk(), config=st.sampled_from(BASE_CONFIGS))
    @settings(max_examples=300, deadline=None)
    @example(text="ue.energy_nj_per_bit = -1\nradio.power_w = 0\n", config=BASE_CONFIGS[0])
    @example(text="ue.energy_nj_per_bit = 7\nrouter.power_w = 1\n", config=BASE_CONFIGS[1])
    @example(text="radio.power_w = 99\nsegment.odu.sigma = 3\n", config=BASE_CONFIGS[1])
    @example(text="segment.odu.sigma = 0.5\nsegment.odu.alpha = x\n", config=BASE_CONFIGS[0])
    @example(text="topology.n_ru = 0\nnodot = 1\n", config=BASE_CONFIGS[0])
    def test_table_keys_with_junk_lines(self, text, config):
        check_matches_reference(text, config)

    @pytest.mark.parametrize("text", [
        "", "# only a comment\n\n",
        "topology.n_ru = 40\ntopology.users_per_ru = 10\ntopology.du_fanout_cap = 4\n",
        "ue.energy_nj_per_bit = 7\n",
    ], ids=["empty", "comment", "topology-only", "ue-only"])
    @pytest.mark.parametrize("config", BASE_CONFIGS, ids=["default", "linear"])
    def test_files_that_change_one_part_or_none(self, text, config):
        check_matches_reference(text, config)

    def test_each_section_holds_only_its_init_fields(self):
        # load_config replaces a section through __replace__, which passes its vars to its
        # constructor by name, so they must be exactly its init parameters.
        config = BASE_CONFIGS[0]
        specs = [value for value in vars(config.catalog).values() if isinstance(value, Record)]
        sections = [TopologyCounts(), config.catalog, *specs, *config.params.values()]
        assert len(specs) == 7
        for section in sections:
            assert list(vars(section)) == list(inspect.signature(type(section)).parameters)
