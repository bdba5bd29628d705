"""Config file parsing, overrides, and validation."""

from pathlib import Path

import pytest

from eyeball_jedi.config import RunConfig, apply_overrides, load_config
from eyeball_jedi.errors import ConfigError


def write_conf(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadConfig:
    def test_full_file(self, tmp_path):
        path = write_conf(
            tmp_path,
            "\n".join(
                [
                    "# comment line",
                    "population = population.csv",
                    "country_users = users.csv",
                    "capitals = capitals.csv",
                    "probes = probes.json",
                    "traceroutes = traces.ndjson",
                    "prefix2as = prefix2as.csv",
                    "geo = geo.csv",
                    "out_dir = out",
                    "country = de",
                    "cumulative_cap = 0.9",
                    "per_as_floor = 0.02",
                    "http_base_url = https://atlas.example.net/api",
                    "rate_limit = 2.5",
                    "credential_env = ATLAS_KEY",
                    "measurement_ids = 11, 22,33",
                    "",
                ]
            ),
        )
        config = load_config(path)
        assert config.population == (tmp_path / "population.csv").resolve()
        assert config.out_dir == (tmp_path / "out").resolve()
        assert config.country == "DE"
        assert config.cumulative_cap == 0.9
        assert config.per_as_floor == 0.02
        assert config.http_base_url == "https://atlas.example.net/api"
        assert config.rate_limit == 2.5
        assert config.credential_env == "ATLAS_KEY"
        assert config.measurement_ids == (11, 22, 33)

    def test_defaults(self, tmp_path):
        config = load_config(write_conf(tmp_path, "population = p.csv\n"))
        assert config.country is None
        assert config.cumulative_cap == 0.95
        assert config.per_as_floor == 0.01
        assert config.rate_limit == 4.0
        assert config.out_dir == Path("out")
        assert config.measurement_ids == ()

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        config = load_config(write_conf(sub, "population = ../data.csv\n"))
        assert config.population == (tmp_path / "data.csv").resolve()

    def test_absolute_path_kept(self, tmp_path):
        config = load_config(write_conf(tmp_path, "population = /data/pop.csv\n"))
        assert config.population == Path("/data/pop.csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.conf")

    def test_unknown_key_with_location(self, tmp_path):
        path = write_conf(tmp_path, "population = p.csv\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r"run\.conf:2.*bogus"):
            load_config(path)

    def test_bad_float_with_location(self, tmp_path):
        path = write_conf(tmp_path, "cumulative_cap = lots\n")
        with pytest.raises(ConfigError, match=r"run\.conf:1"):
            load_config(path)

    def test_bad_measurement_id(self, tmp_path):
        path = write_conf(tmp_path, "measurement_ids = 1,two\n")
        with pytest.raises(ConfigError, match=r"run\.conf:1"):
            load_config(path)

    def test_line_without_equals(self, tmp_path):
        path = write_conf(tmp_path, "just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(path)


class TestValidateThresholds:
    @pytest.mark.parametrize("cap", [0.0, -0.1, 1.5])
    def test_bad_cap(self, cap):
        with pytest.raises(ConfigError, match="cumulative_cap"):
            RunConfig(cumulative_cap=cap).validate_thresholds()

    @pytest.mark.parametrize("floor", [0.0, -0.1, -0.5, 1.01])
    def test_bad_floor(self, floor):
        with pytest.raises(ConfigError, match="per_as_floor"):
            RunConfig(per_as_floor=floor).validate_thresholds()

    def test_bad_rate(self):
        with pytest.raises(ConfigError, match="rate_limit"):
            RunConfig(rate_limit=0.0).validate_thresholds()

    def test_defaults_pass(self):
        RunConfig().validate_thresholds()

    def test_boundary_values_pass(self):
        RunConfig(cumulative_cap=1.0, per_as_floor=1.0).validate_thresholds()


class TestRequireInputs:
    def test_unset_input_named(self):
        with pytest.raises(ConfigError, match="population"):
            RunConfig().require_inputs("population")

    def test_missing_file_named(self, tmp_path):
        config = RunConfig(population=tmp_path / "nope.csv")
        with pytest.raises(ConfigError, match="nope.csv"):
            config.require_inputs("population")

    def test_present_file_passes(self, tmp_path):
        data = tmp_path / "pop.csv"
        data.write_text("country,asn,fraction_percent\n")
        RunConfig(population=data).require_inputs("population")


class TestApplyOverrides:
    def test_country_override_uppercased(self):
        config = apply_overrides(RunConfig(country="XX"), country="de")
        assert config.country == "DE"

    def test_all_countries_clears_country(self):
        config = apply_overrides(RunConfig(country="XX"), all_countries=True)
        assert config.country is None

    def test_out_dir_and_thresholds(self):
        config = apply_overrides(
            RunConfig(), out_dir="elsewhere", cumulative_cap=0.9, per_as_floor=0.05
        )
        assert config.out_dir == Path("elsewhere")
        assert config.cumulative_cap == 0.9
        assert config.per_as_floor == 0.05

    def test_no_overrides_returns_same_config(self):
        config = RunConfig(country="XX")
        assert apply_overrides(config) is config


class TestApiKey:
    def test_reads_named_environment_variable(self, monkeypatch):
        monkeypatch.setenv("MY_ATLAS_KEY", "hunter2")
        assert RunConfig(credential_env="MY_ATLAS_KEY").api_key() == "hunter2"

    def test_unset_variable_gives_none(self, monkeypatch):
        monkeypatch.delenv("MY_ATLAS_KEY", raising=False)
        assert RunConfig(credential_env="MY_ATLAS_KEY").api_key() is None

    def test_no_credential_env_gives_none(self):
        assert RunConfig().api_key() is None
