"""Tests of the typed option enums and their shared coercion/CLI helper."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.core.errors import ModelError
from repro.experiments.config import ExperimentConfig
from repro.options import OnOff, SolverBackendChoice, enum_option


class TestOnOff:
    def test_members_are_their_spelling(self):
        assert OnOff.ON == "on"
        assert str(OnOff.OFF) == "off"
        assert f"{OnOff.ON}" == "on"
        assert json.dumps({"k": OnOff.ON}) == '{"k": "on"}'

    def test_truthiness_follows_the_toggle(self):
        assert bool(OnOff.ON) is True
        assert bool(OnOff.OFF) is False  # a plain StrEnum would be truthy!

    def test_coerce_canonical_and_member(self):
        assert OnOff.coerce("on") is OnOff.ON
        assert OnOff.coerce("OFF") is OnOff.OFF
        assert OnOff.coerce(OnOff.ON) is OnOff.ON
        assert OnOff.coerce(True) is OnOff.ON
        assert OnOff.coerce(False) is OnOff.OFF

    @pytest.mark.parametrize(
        "legacy,expected",
        [("true", OnOff.ON), ("yes", OnOff.ON), ("1", OnOff.ON),
         ("false", OnOff.OFF), ("no", OnOff.OFF), ("disabled", OnOff.OFF)],
    )
    def test_legacy_spellings_warn(self, legacy, expected):
        with pytest.warns(DeprecationWarning, match="deprecated"):
            assert OnOff.coerce(legacy, param="--state-bank") is expected

    def test_invalid_value_names_choices(self):
        with pytest.raises(ValueError, match="'on', 'off'"):
            OnOff.coerce("maybe", param="--speculate")


class TestOtherEnums:
    def test_solver_backend_choices(self):
        assert SolverBackendChoice.coerce("auto") is SolverBackendChoice.AUTO
        with pytest.warns(DeprecationWarning):
            assert SolverBackendChoice.coerce("linprog") is SolverBackendChoice.SCIPY
        with pytest.raises(ValueError):
            SolverBackendChoice.coerce("cplex")


class TestEnumOption:
    def build(self):
        parser = argparse.ArgumentParser()
        parser.add_argument("--toggle", **enum_option(OnOff, OnOff.OFF,
                                                      param="--toggle"))
        return parser

    def test_parses_canonical_value(self):
        args = self.build().parse_args(["--toggle", "on"])
        assert args.toggle is OnOff.ON

    def test_default_is_a_member(self):
        assert self.build().parse_args([]).toggle is OnOff.OFF

    def test_legacy_value_warns_but_parses(self):
        with pytest.warns(DeprecationWarning):
            args = self.build().parse_args(["--toggle", "yes"])
        assert args.toggle is OnOff.ON

    def test_invalid_value_errors_out(self):
        with pytest.raises(SystemExit):
            self.build().parse_args(["--toggle", "sideways"])


class TestExperimentConfigNormalization:
    def make(self, **kwargs):
        return ExperimentConfig(
            name="t", n_clusters=2, n_databanks=2, availability=0.6,
            density=1.0, **kwargs
        )

    def test_defaults_are_enum_members(self):
        config = self.make()
        assert config.solver_backend is SolverBackendChoice.AUTO
        assert config.state_bank is OnOff.ON
        assert config.speculation is OnOff.OFF

    def test_strings_and_bools_normalize(self):
        config = self.make(solver_backend="scipy", state_bank=False,
                           speculation="on")
        assert config.solver_backend is SolverBackendChoice.SCIPY
        assert config.state_bank is OnOff.OFF
        assert config.speculation is OnOff.ON

    def test_invalid_toggle_is_a_model_error(self):
        with pytest.raises(ModelError):
            self.make(solver_backend="gurobi")
        with pytest.raises(ModelError):
            self.make(state_bank="sometimes")

    def test_as_dict_keeps_the_journal_schema_primitives(self):
        config = self.make(state_bank="off", speculation=True)
        data = config.as_dict()
        assert data["solver_backend"] == "auto"
        assert data["state_bank"] is False
        assert data["speculation"] is True

    def test_scheduler_options_emit_plain_types(self):
        options = self.make(state_bank="off").scheduler_options_for("online")
        assert options["state_bank"] is False
        assert options["speculate"] is False
        assert isinstance(options["solver_backend"], str)

