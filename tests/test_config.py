"""The config-key table: exact integer keys, the README key list, and fuzzed config text."""

import math
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oranpower.catalog import CatalogError
from oranpower.cli import load_run_config
from oranpower.configfile import CONFIG_KEYS, ConfigError
from oranpower.topology import Link, TopologyError

README = Path(__file__).resolve().parent.parent / "README.md"
INPUT_ERRORS = (ConfigError, CatalogError, TopologyError)


def readme_config_block():
    section = README.read_text(encoding="utf-8").split("## Config file", 1)[1]
    return section.split("```ini\n", 1)[1].split("```", 1)[0]


def load(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return load_run_config(str(path))


class TestIntegerKeys:
    @pytest.mark.parametrize("key", ["segment.backhaul.hops_switch", "topology.n_ru"])
    def test_read_exactly(self, tmp_path, key):
        # As a float, 2**53 + 1 rounds to 2**53, which the bound accepts.
        with pytest.raises(INPUT_ERRORS, match=rf"line 1: {key} = 9007199254740993: .*<= 2\*\*53"):
            load(tmp_path, f"{key} = 9007199254740993\n")
        assert load(tmp_path, f"{key} = 9007199254740992\n") is not None

    def test_whole_float_literals(self, tmp_path):
        run = load(tmp_path, "segment.backhaul.hops_switch = 4.0\ntopology.n_ru = 1e3\n")
        assert run.params[Link.BACKHAUL].hops_switch == 4
        assert run.n_ru == 1000 and isinstance(run.n_ru, int)


class TestReadme:
    def test_config_block_lists_every_key(self, tmp_path):
        block = readme_config_block()
        keys = {line.split("=", 1)[0].strip() for line in block.splitlines()
                if line.split("#", 1)[0].strip()}
        assert keys == set(CONFIG_KEYS)
        load(tmp_path, block)


def numbers(value):
    """Every int and float inside a run config's dataclasses and maps."""
    if is_dataclass(value):
        for field in fields(value):
            yield from numbers(getattr(value, field.name))
    elif isinstance(value, Mapping):
        for item in value.values():
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

@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def check_loaded(run):
    for number in numbers(run):
        if isinstance(number, float):
            assert math.isfinite(number)
        else:
            assert 0 <= number <= 2**53


def check_lines(config_dir, lines):
    """Load ``key = value`` lines: a valid config, or an input error naming a key and its line."""
    try:
        run = load(config_dir, "".join(f"{key} = {value}\n" for key, value in lines))
    except INPUT_ERRORS as exc:
        named = [f"line {lineno}: {key} = " for lineno, (key, _) in enumerate(lines, start=1)]
        assert any(where in str(exc) for where in named), str(exc)
        return
    check_loaded(run)


class TestFuzzedConfig:
    @given(text=st.text(st.characters(blacklist_categories=("Cs",)), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_text(self, config_dir, text):
        try:
            run = load(config_dir, text)
        except INPUT_ERRORS:
            return
        check_loaded(run)

    @given(lines=TABLE_LINES)
    @settings(max_examples=200, deadline=None)
    def test_table_keys_with_arbitrary_values(self, config_dir, lines):
        check_lines(config_dir, lines)

    def test_every_key_with_extreme_values(self, config_dir):
        for key in CONFIG_KEYS:
            for value in EXTREMES:
                check_lines(config_dir, [(key, value)])
