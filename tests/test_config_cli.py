"""Configuration and CLI tests: defaults and overrides, unit conversions,
preset wiring, the four subcommands, their output files, and the exit-code
contract (0 ok, 2 config problem, 3 infeasible under --strict, 4 internal)."""

from __future__ import annotations

import copy
import json
import math
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from resplan import cli, harness, solvers
from resplan.config import (
    DEFAULTS,
    PRESET_NAMES,
    build_scenario,
    build_sweep_axis,
    default_profile,
    effective_yaml,
    load_config,
    preset_text,
    sweep_variants,
)
from resplan.errors import ConfigError, ParseError
from resplan.harness import CSV_COLUMNS, SWEEP_KINDS, format_value, summarize
from resplan.objective import default_latency_ref
from resplan.profile import SAFE_LOADER, load_profile

FAST = [
    "--set", "solver.population_size=8",
    "--set", "solver.generations=2",
    "--set", "fleet.devices=3",
    "--set", "fleet.compute_gmults=[10.0, 10.0]",
    "--set", "scenario.lam=1.0",
    "--set", "scenario.rounds=2",
]


class TestLoadConfig:
    def test_defaults_round_trip(self):
        cfg = load_config()
        assert cfg == DEFAULTS
        assert cfg is not DEFAULTS
        cfg["fleet"]["devices"] = 3
        assert DEFAULTS["fleet"]["devices"] == 10

    def test_document_merge_and_yaml_text(self):
        cfg = load_config({"fleet": {"devices": 4}})
        assert cfg["fleet"]["devices"] == 4
        assert cfg["fleet"]["memory_mb"] == [100.0, 200.0]
        cfg2 = load_config("scenario:\n  lam: 2.5\n")
        assert cfg2["scenario"]["lam"] == 2.5

    def test_file_paths_are_read(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("label: from-file\n", encoding="utf-8")
        assert load_config(str(p))["label"] == "from-file"
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "missing.yaml"))

    def test_unknown_keys_are_errors(self):
        with pytest.raises(ConfigError, match="unknown config key 'fleets'"):
            load_config({"fleets": {}})
        with pytest.raises(ConfigError, match="fleet.capacity"):
            load_config({"fleet": {"capacity": 3}})

    def test_sweep_section_validation(self):
        cfg = load_config({"sweep": {"axis": "energy", "values": [0.5, 1.0]}})
        assert cfg["sweep"] == {"axis": "energy", "values": [0.5, 1.0]}
        with pytest.raises(ConfigError, match="unknown sweep keys"):
            load_config({"sweep": {"axis": "energy", "values": [1], "step": 2}})
        with pytest.raises(ConfigError, match="both"):
            load_config({"sweep": {"axis": "energy"}})

    def test_overrides_parse_yaml_values(self):
        cfg = load_config(None, overrides=(
            "solver.generations=50",
            "weights.alpha=0.6",
            "fleet.memory_mb=[10, 20]",
            "sweep.axis=lam",
            "sweep.values=[1.0, 2.0]",
        ))
        assert cfg["solver"]["generations"] == 50
        assert cfg["weights"]["alpha"] == 0.6
        assert cfg["fleet"]["memory_mb"] == [10, 20]
        assert cfg["sweep"] == {"axis": "lam", "values": [1.0, 2.0]}

    def test_overrides_merge_like_a_document(self):
        # The last assignment to a key wins; a whole section merges over the
        # loaded one, and so does a sweep section.
        cfg = load_config({"sweep": {"axis": "energy", "values": [1.0]}}, overrides=(
            "fleet.devices=3", "fleet={devices: 4}", "fleet.memory_mb=[5]",
            "sweep.values=[2.0]",
        ))
        assert cfg == load_config({"fleet": {"devices": 4, "memory_mb": [5]},
                                   "sweep": {"axis": "energy", "values": [2.0]}})

    def test_override_errors(self):
        with pytest.raises(ConfigError, match="key=value"):
            load_config(None, overrides=("solver.generations",))
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(None, overrides=("solver.speed=2",))
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(None, overrides=("turbo=1",))

    def test_seed_argument_wins_last(self):
        cfg = load_config(None, overrides=("scenario.seed=5",), seed=9)
        assert cfg["scenario"]["seed"] == 9

    def test_effective_yaml_round_trips(self):
        cfg = load_config({"sweep": {"axis": "energy", "values": [0.5, 1.0]}},
                          overrides=("solver.elite=2",))
        assert yaml.safe_load(effective_yaml(cfg)) == cfg

    def test_a_list_held_under_two_keys_is_copied_not_aliased(self):
        # One list object under three keys, from a dict and from YAML
        # anchors: the effective YAML writes each out, with no anchor (&) or
        # alias (*), and reloads to an equal config that shares nothing with
        # the document.
        shared = [0.5, 1.0]
        doc = {"fleet": {"memory_mb": shared, "energy_j": shared},
               "sweep": {"axis": "energy", "values": shared}}
        text = ("fleet: {memory_mb: &v [0.5, 1.0], energy_j: *v}\n"
                "sweep: {axis: energy, values: *v}\n")
        for cfg in (load_config(doc), load_config(text)):
            out = effective_yaml(cfg)
            assert "&" not in out and "*" not in out
            assert load_config(out) == cfg == load_config(doc)
            assert cfg["fleet"]["memory_mb"] is not cfg["fleet"]["energy_j"]
            assert cfg["sweep"]["values"] is not shared

    def test_a_list_held_twice_in_one_value_is_written_twice(self):
        # One list held twice inside one sweep value survives the copy as
        # one object; the effective YAML still writes it out twice.
        cfg = load_config("sweep: {axis: weights, values: [&w [0.5, 0.5], *w]}")
        assert cfg["sweep"]["values"][0] is cfg["sweep"]["values"][1]
        out = effective_yaml(cfg)
        assert "&" not in out and "*" not in out
        assert out.count("- 0.5") == 4
        assert load_config(out) == cfg


class TestBuildScenario:
    def test_unit_conversions(self):
        sc = build_scenario(load_config())
        assert sc.fleet.n_devices == 10
        np.testing.assert_allclose(sc.fleet.memory_caps[:2], [100e6, 200e6])
        np.testing.assert_allclose(sc.fleet.compute_caps[:2], [1.4e9, 2.8e9])
        np.testing.assert_allclose(sc.fleet.mult_rates[:2], [1.4e9, 2.8e9])
        assert sc.rate_lo == 7.2e6 and sc.rate_hi == 72.2e6
        assert sc.energy.p_compute == 8.0 and sc.energy.p_transmit == 10.0
        assert sc.lam == 3.0 and sc.rounds == 10 and sc.seed == 0
        # The default GA budget, read from GaConfig: CLI and library agree.
        assert (sc.ga.population_size, sc.ga.generations, sc.ga.elite) == (200, 40, 1)
        assert sc.ga == solvers.GaConfig(seed=sc.seed)
        assert sc.exact_limits == solvers.ExactLimits()

    def test_the_quoted_default_budget_is_the_real_one(self):
        # The README and the GaConfig docstring quote the default budget;
        # a change to it must change both quotes.
        ga = solvers.GaConfig()
        p, g, elite = ga.population_size, ga.generations, ga.elite
        readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
        quoted = re.findall(r"(\d+) individuals for (\d+) generations \(([\d,]+) evaluations "
                            r"a round\)", readme)
        assert quoted == [(str(p), str(g), f"{p + g * (p - elite):,}")]
        doc = " ".join(solvers.GaConfig.__doc__.split())
        quoted = re.findall(r"(\d+) \+ (\d+) x (\d+) = ([\d,]+) evaluations a round", doc)
        assert quoted == [(str(p), str(g), str(p - elite), f"{p + g * (p - elite):,}")]

    def test_latency_reference_defaults_to_the_worst_case(self):
        sc = build_scenario(load_config())
        assert sc.weights.latency_ref == pytest.approx(
            default_latency_ref(sc.graph, sc.fleet, sc.rate_lo))
        explicit = build_scenario(load_config(
            {"weights": {"latency_ref_s": 12.5}}))
        assert explicit.weights.latency_ref == 12.5

    def test_profile_path_is_loaded_and_checked(self, tmp_path):
        from resplan.profile import save_profile

        p = tmp_path / "prof.yaml"
        save_profile(default_profile(), p)
        sc = build_scenario(load_config({"profile": {"path": str(p)}}))
        assert sc.profile.baseline == 0.9473

        bad = tmp_path / "short.yaml"
        bad.write_text("source_label: t\nbaseline: 0.9\nn_blocks: 5\n",
                       encoding="utf-8")
        with pytest.raises(ConfigError, match="blocks"):
            build_scenario(load_config({"profile": {"path": str(bad)}}))

    def test_invalid_values_become_config_errors(self):
        with pytest.raises(ConfigError):
            build_scenario(load_config({"solver": {"kind": "annealing"}}))
        with pytest.raises(ConfigError):
            build_scenario(load_config({"fleet": {"devices": 0}}))
        with pytest.raises(ConfigError):
            build_scenario(load_config({"model": {"memory_mode": "disk"}}))
        with pytest.raises(ConfigError):
            build_scenario(load_config({"fleet": {"energy_j": [0.0]}}))

    @pytest.mark.parametrize("key", [
        "fleet.devices", "solver.population_size", "solver.generations",
        "solver.elite", "solver.max_candidates",
        "scenario.rounds", "scenario.seed", "model.input_side", "model.weight_bytes",
    ])
    @pytest.mark.parametrize("value", [True, 2.5, "1e2", math.nan, math.inf])
    def test_integer_keys_reject_booleans_and_fractions(self, key, value):
        section, leaf = key.split(".")
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            build_scenario(load_config({section: {leaf: value}}))

    @pytest.mark.parametrize("key", [
        "fleet.memory_mb", "fleet.compute_gmults", "fleet.energy_j",
        "fleet.rate_gmults_per_s", "network.rate_lo_mbps", "network.rate_hi_mbps",
        "energy.p_compute_w", "energy.p_transmit_w", "weights.alpha", "weights.beta",
        "weights.accuracy_threshold", "weights.latency_ref_s", "scenario.lam",
    ])
    @pytest.mark.parametrize("value", [True, "abc"])
    def test_real_keys_reject_booleans_and_non_numbers(self, key, value):
        section, leaf = key.split(".")
        with pytest.raises(ConfigError, match=f"{key} must be a number"):
            build_scenario(load_config({section: {leaf: value}}))

    def test_real_keys_take_numeric_strings(self):
        sc = build_scenario(load_config({"scenario": {"lam": "2.5"},
                                         "fleet": {"energy_j": ["900", 1000]}}))
        assert sc.lam == 2.5 and sc.fleet.energy_caps[0] == 900.0

    def test_integer_keys_take_integral_floats(self):
        sc = build_scenario(load_config({"fleet": {"devices": 6.0},
                                         "solver": {"population_size": 50.0}}))
        assert sc.fleet.n_devices == 6 and sc.ga.population_size == 50

    def test_memory_mode_flows_to_the_scenario(self):
        sc = build_scenario(load_config({"model": {"memory_mode": "weights"}}))
        assert sc.memory_mode == "weights"

    def test_graph_and_shipped_profile_are_built_once_and_shared(self, tmp_path):
        from resplan.profile import save_profile

        first, again = build_scenario(load_config()), build_scenario(load_config())
        assert first.graph is again.graph and first.profile is again.profile
        with pytest.raises(TypeError):
            first.profile.entries[frozenset({3})] = first.profile.entries[frozenset()]
        assert first.profile.accuracy_for({3}) == 0.9
        # A profile.path file is read on every build, so an edit shows.
        p = tmp_path / "prof.yaml"
        save_profile(default_profile(), p)
        cfg = load_config({"profile": {"path": str(p)}})
        assert build_scenario(cfg).profile.accuracy_for({3}) == 0.9
        text = p.read_text(encoding="utf-8")
        edited = text.replace("- drop: [3]\n    accuracy: 0.9\n",
                              "- drop: [3]\n    accuracy: 0.85\n")
        assert edited != text
        p.write_text(edited, encoding="utf-8")
        assert build_scenario(cfg).profile.accuracy_for({3}) == 0.85

    @pytest.mark.parametrize("label,text", [
        ("run-7", "run-7"), (7, "7"), (2.5, "2.5"), (None, "None"), (True, "True"),
    ])
    def test_scalar_labels_keep_their_text(self, label, text):
        assert build_scenario(load_config({"label": label})).label == text

    @pytest.mark.parametrize("label", [{"x": 3}, ["a", "b"], []])
    def test_mapping_and_list_labels_are_config_errors(self, label):
        with pytest.raises(ConfigError, match="label must be text"):
            build_scenario(load_config({"label": label}))


class TestBuildSweepAxis:
    def test_absent_sweep_is_none(self):
        assert build_sweep_axis(load_config()) is None

    def test_axis_kinds_and_weight_pairs(self):
        axis = build_sweep_axis(load_config(
            {"sweep": {"axis": "weights",
                       "values": [[1.0, 0.0], [0.5, 0.5]]}}))
        assert axis.kind == "weights"
        assert axis.values == ((1.0, 0.0), (0.5, 0.5))
        with pytest.raises(ConfigError, match="sweep.axis must be one of"):
            build_sweep_axis(load_config(
                {"sweep": {"axis": "latency", "values": [1]}}))
        with pytest.raises(ConfigError, match="list"):
            build_sweep_axis(load_config(
                {"sweep": {"axis": "energy", "values": 3}}))


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_builds_a_sweep_scenario(self, name):
        cfg = load_config(preset_text(name))
        scenario = build_scenario(cfg)
        axis = build_sweep_axis(cfg)
        assert axis is not None
        assert len(axis.values) == 3
        assert scenario.weights.accuracy_threshold == 0.8
        assert scenario.rounds == 10

    def test_unknown_preset_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_text("sweep_latency")


class TestYamlLoader:
    """resplan parses every input document with ``profile.SAFE_LOADER``:
    libyaml's parser where PyYAML has it, with ``safe_load``'s semantics."""

    def documents(self):
        package = resources.files("resplan")
        yield "default config", effective_yaml(load_config())
        for name in PRESET_NAMES:
            yield name, preset_text(name)
        yield "profile", package.joinpath("data/synthetic_default.yaml").read_text(
            encoding="utf-8")

    def test_libyaml_is_used_when_present(self):
        want = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert SAFE_LOADER.__bases__ == (want,)

    @pytest.mark.parametrize("text", ["1e3", "1.0e3", "1E-3", "-2.5e+2", "+.5e1", "7e0",
                                      "1.0e+22"])
    def test_exponent_forms_are_floats(self, text):
        assert yaml.load(text, Loader=SAFE_LOADER) == float(text)

    @pytest.mark.parametrize("text,want", [("1e", "1e"), ("e3", "e3"), ("1e3x", "1e3x"),
                                           ("1e3.5", "1e3.5"), ("09", "09"), ("12", 12),
                                           ("0x1e3", 0x1E3), ("1.5", 1.5)])
    def test_other_scalars_resolve_as_before(self, text, want):
        got = yaml.load(text, Loader=SAFE_LOADER)
        assert got == want and type(got) is type(want)
        assert got == yaml.safe_load(text)

    def test_exponent_overrides_build(self, tmp_path):
        sets = ("solver.max_candidates=1e22", "solver.generations=2e1",
                "fleet.energy_j=1e3", "energy.p_compute_w=5E-1")
        sc = build_scenario(load_config(overrides=sets))
        assert sc.exact_limits.max_candidates == 10 ** 22
        assert sc.ga.generations == 20
        assert (sc.fleet.energy_caps == 1e3).all()
        assert sc.energy.p_compute == 0.5
        doc = "fleet: {energy_j: 1.0e3}\nsolver: {max_candidates: 1e18}"
        sc = build_scenario(load_config(doc))
        assert (sc.fleet.energy_caps == 1e3).all()
        assert sc.exact_limits.max_candidates == 10 ** 18
        rc = cli.main(["model", "--set", "fleet.energy_j=1e3", "--output",
                       str(tmp_path / "model.csv")])
        assert rc == 0

    def test_text_that_reads_as_a_number_is_written_quoted(self):
        cfg = load_config({"label": "1e3"})
        text = effective_yaml(cfg)
        assert "label: '1e3'" in text
        assert load_config(text)["label"] == "1e3"
        cfg = load_config(overrides=("solver.max_candidates=1e18",))
        assert effective_yaml(load_config(effective_yaml(cfg))) == effective_yaml(cfg)

    def test_shipped_documents_load_equal_under_both_loaders(self):
        for name, text in self.documents():
            doc = yaml.load(text, Loader=SAFE_LOADER)
            assert isinstance(doc, dict), name
            assert doc == yaml.load(text, Loader=yaml.SafeLoader), name

    def test_malformed_documents_are_still_named_errors(self, capsys, tmp_path):
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config("fleet: {devices: [3\n")
        rc = cli.main(["solve", "--requests", "1", "--set", "fleet.memory_mb=[1, 2",
                       "--output", str(tmp_path / "x.json")])
        assert rc == 2
        assert "fleet.memory_mb=[1, 2" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()
        with pytest.raises(ParseError, match="not valid YAML"):
            load_profile("source_label: t\nbaseline: [0.9\n")


def _numeric_leaves(node, path=""):
    """Dotted keys of the default config whose value is a number, a list of
    numbers, or a number left unset (None)."""
    for key, value in node.items():
        here = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _numeric_leaves(value, here)
        elif value is None or isinstance(value, (int, float, list)):
            if not isinstance(value, bool) and here not in ("profile.path", "sweep"):
                yield here


NUMERIC_KEYS = tuple(_numeric_leaves(DEFAULTS))

# The name an error may use for a key: the scenario object's field that the
# key feeds, where that differs from the key's last part.
FIELD_NAMES = {
    "fleet.memory_mb": "memory_cap", "fleet.compute_gmults": "compute_cap",
    "fleet.energy_j": "energy_cap", "fleet.rate_gmults_per_s": "mult_rate",
    "network.rate_lo_mbps": "rate_lo", "network.rate_hi_mbps": "rate_hi",
    "energy.p_compute_w": "p_compute", "energy.p_transmit_w": "p_transmit",
    "weights.latency_ref_s": "latency_ref", "model.input_side": "input size",
}

# Values no key should take quietly, plus a range per key where most values
# are valid; the upper ends keep a built scenario small enough to run.
SPECIAL = (math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5, True, False, 1e300, 10 ** 30,
           "abc")
USUAL = {
    "model.input_side": (16, 256), "model.weight_bytes": (1, 8), "fleet.devices": (1, 12),
    "solver.elite": (0, 3), "scenario.lam": (0.0, 6.0), "scenario.seed": (0, 1000),
    "weights.alpha": (0.0, 1.0), "weights.beta": (0.0, 1.0),
    "weights.accuracy_threshold": (0.0, 1.0),
}


def _default(key):
    section, leaf = key.split(".")
    return DEFAULTS[section][leaf]


def _values(key):
    default = _default(key)
    scale = max(default) if isinstance(default, list) else default or 1.0
    lo, hi = USUAL.get(key, (0, 4 * scale) if isinstance(scale, int) else (0.0, 4.0 * scale))
    usual = st.integers(lo, hi) if isinstance(lo, int) else st.floats(lo, hi)
    one = st.one_of(st.sampled_from(SPECIAL), usual)
    if isinstance(default, list):
        return st.one_of(one, st.lists(one, min_size=1, max_size=2))
    return one


_DRAWS = st.lists(st.sampled_from(NUMERIC_KEYS).flatmap(
    lambda key: st.tuples(st.just(key), _values(key))), min_size=1, max_size=3)

# The keys whose value is text, and values of every YAML kind for them.
STRING_KEYS = ("label", "model.memory_mode", "solver.kind")
_TEXT_VALUES = st.one_of(
    st.sampled_from(("inputs", "weights", "both", "ga", "exact", "", "GA")),
    st.text(max_size=6), st.none(), st.booleans(), st.integers(), st.floats(),
    st.lists(st.text(max_size=3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))

# A key that takes one value, given a list of one or two of its values.
SCALAR_KEYS = STRING_KEYS + tuple(
    key for key in NUMERIC_KEYS if not isinstance(_default(key), list))
_LIST_DRAWS = st.sampled_from(SCALAR_KEYS).flatmap(lambda key: st.tuples(
    st.just(key), st.lists(_TEXT_VALUES if key in STRING_KEYS else _values(key),
                           min_size=1, max_size=2)))

# Sweep sections: each axis and an unknown one, with values of the kind the
# axis takes (an (alpha, beta) pair, else a multiplier or a rate) or not;
# and sections missing a key or holding a scalar for values.
def _sweep_values(axis):
    usual = (st.floats(0.0, 1.0).map(lambda a: [a, 1.0 - a]) if axis == "weights"
             else st.floats(0.0, 4.0))
    return st.lists(st.one_of(usual, st.sampled_from(SPECIAL + ([0.5], [0.1, 0.2, 0.3]))),
                    min_size=1, max_size=2)


_SWEEPS = st.one_of(
    st.sampled_from(SWEEP_KINDS + ("bogus",)).flatmap(lambda axis: st.fixed_dictionaries(
        {"axis": st.just(axis), "values": _sweep_values(axis)})),
    st.fixed_dictionaries({}, optional={"axis": st.sampled_from(SWEEP_KINDS + ("", None)),
                                        "values": st.sampled_from(SPECIAL + ([],))}))

# The budget every scenario that builds is run at, whatever was drawn.
RUN_BUDGET = (("solver.population_size", 4), ("solver.generations", 2),
              ("scenario.rounds", 1))


def _document(pairs):
    doc = {}
    for key, value in pairs:
        *section, leaf = key.split(".")
        (doc.setdefault(section[0], {}) if section else doc)[leaf] = value
    return doc


def assert_names_a_key(exc, keys):
    names = {k for key in keys for k in (key, key.rpartition(".")[2], FIELD_NAMES.get(key))}
    assert any(name and name in str(exc) for name in names), (str(exc), keys)


def assert_solved_rounds_finite(out, command):
    """Each round row of a run's output is an error round, every metric NaN,
    or has finite metrics; the latter are as many as the rounds solved."""
    if command == "simulate":
        rows = (out / "rounds.csv").read_text().splitlines()[1:]
        solved = json.loads((out / "summary.json").read_text())["solved_rounds"]
    else:  # a sweep's rows lead with the variant label, which may hold commas
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        summary = (out / "summary.csv").read_text().splitlines()
        at = summary[0].split(",").index("solved_rounds") - len(summary[0].split(","))
        solved = sum(int(line.split(",")[at]) for line in summary[1:])
    metrics = [[float(v) for v in row.split(",")[-len(CSV_COLUMNS) + 1:-1]] for row in rows]
    assert all(all(map(math.isfinite, m)) or all(map(math.isnan, m)) for m in metrics), rows
    assert sum(all(map(math.isfinite, m)) for m in metrics) == solved, rows


class TestConfigSpace:
    """Every value of a config key, numeric or text, a list given for a key
    that takes one value, and every sweep section: each either builds a
    scenario that runs to exit 0 or 3 with finite metrics on each solved
    round, or is a ConfigError that names the key."""

    def builds(self, doc, keys, command):
        try:
            cfg = load_config(doc)
            scenario = build_scenario(cfg)
            if command == "sweep":
                axis = build_sweep_axis(cfg)
                if axis is None:
                    raise ConfigError("sweep command needs a 'sweep' section")
                sweep_variants(scenario, axis)
        except ConfigError as exc:
            assert_names_a_key(exc, keys)
            return False
        return True

    def runs_or_names_a_key(self, tmp_path, capsys, pairs, command="simulate"):
        keys = {key for key, _value in pairs}
        if not self.builds(_document(pairs), keys, command):
            return
        doc = _document(pairs + list(RUN_BUDGET))
        if not self.builds(doc, keys | {key for key, _value in RUN_BUDGET}, command):
            return
        out = tmp_path / "out"
        config = tmp_path / "cfg.yaml"
        config.write_text(effective_yaml(doc), encoding="utf-8")
        rc = cli.main([command, "--config", str(config), "--output-dir", str(out)])
        capsys.readouterr()
        assert rc in (0, 3)
        if rc == 0:
            assert_solved_rounds_finite(out, command)

    @settings(max_examples=150, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pairs=_DRAWS)
    @example(pairs=[("scenario.seed", -1)])  # exited 4: SeedSequence refused it
    @example(pairs=[("fleet.devices", 1e300)])  # exited 4: formatting the byte count
    @example(pairs=[("solver.population_size", 10 ** 30)])  # tournament draws over the bound
    def test_numeric_keys_build_or_name_the_key(self, tmp_path, capsys, pairs):
        self.runs_or_names_a_key(tmp_path, capsys, pairs)

    @settings(max_examples=100, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(STRING_KEYS), value=_TEXT_VALUES)
    @example(key="solver.kind", value="exact")  # every round too large: error rows
    def test_text_keys_run_or_name_the_key(self, tmp_path, capsys, key, value):
        self.runs_or_names_a_key(tmp_path, capsys, [(key, value)])

    @settings(max_examples=100, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pair=_LIST_DRAWS)
    @example(pair=("fleet.devices", [3]))
    @example(pair=("scenario.lam", [1.0, 2.0]))
    def test_lists_for_scalar_keys_run_or_name_the_key(self, tmp_path, capsys, pair):
        self.runs_or_names_a_key(tmp_path, capsys, [pair])

    @settings(max_examples=100, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(section=_SWEEPS)
    @example(section={"axis": "lam", "values": [0.0, 4.0]})  # an empty round, a full one
    @example(section={"axis": "weights", "values": [[1.0, 0.0], [0.0, 1.0]]})
    @example(section={"axis": "energy", "values": []})
    @example(section={"axis": "energy", "values": [1.0], "bogus": 3})
    @example(section=None)  # no sweep: the command needs one
    @example(section=3)
    @example(section=[1, 2])
    def test_sweep_sections_run_or_name_the_key(self, tmp_path, capsys, section):
        self.runs_or_names_a_key(tmp_path, capsys, [("sweep", section)], command="sweep")


class TestStringKeys:
    """Every value of a text config key either builds a scenario, which
    keeps a label's text as ``str`` gives it, or is a ConfigError that names
    the key."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(key=st.sampled_from(STRING_KEYS), value=_TEXT_VALUES)
    @example(key="label", value={"x": 3})  # exited 0: str() took the mapping
    @example(key="label", value=["a"])  # exited 0 as well
    @example(key="model.memory_mode", value=["inputs"])
    @example(key="solver.kind", value={"ga": 1})
    def test_text_keys_build_or_name_the_key(self, key, value):
        try:
            sc = build_scenario(load_config(_document([(key, value)])))
        except ConfigError as exc:
            assert_names_a_key(exc, {key})
            return
        assert not isinstance(value, (dict, list))
        if key == "label":
            assert sc.label == str(value)


def _dotted_keys(node, path=""):
    for key, value in node.items():
        here = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _dotted_keys(value, here)
        else:
            yield here


SECTIONS = tuple(key for key, value in DEFAULTS.items() if isinstance(value, dict))

# Every dotted key of the defaults, the sweep's two keys, an unknown leaf
# under each section and under sweep, and each whole section.
OVERRIDE_KEYS = (tuple(_dotted_keys(DEFAULTS)) + ("sweep.axis", "sweep.values")
                 + tuple(f"{section}.bogus" for section in SECTIONS + ("sweep",))
                 + SECTIONS)
OVERRIDE_VALUES = (None, 0, 3, -1, 2.5, math.nan, math.inf, True, "abc", "energy",
                   "weights", [0.5, 1.0], {"devices": 3},
                   {"axis": "energy", "values": [2.0]})


def _disjoint(pairs):
    """No key is another's key or a section holding it: each pair is one
    unambiguous place in a document."""
    keys = [key for key, _value in pairs]
    return not any(a == b or b.startswith(a + ".")
                   for i, a in enumerate(keys) for j, b in enumerate(keys) if i != j)


class TestOverridesMatchDocuments:
    """A ``--set key=value`` override and the same key in a document either
    load to the same config, which builds or is a ConfigError naming a key,
    or both raise a ConfigError naming a key.  The effective config of each
    one that loads reloads to itself."""

    def load(self, source, overrides, keys):
        try:
            return load_config(source, overrides)
        except ConfigError as exc:
            assert_names_a_key(exc, keys)
            return None

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(pairs=st.lists(st.tuples(st.sampled_from(OVERRIDE_KEYS),
                                    st.sampled_from(OVERRIDE_VALUES)),
                          min_size=1, max_size=3).filter(_disjoint))
    @example(pairs=[("sweep.axis", "energy"), ("sweep.values", [0.5, 1.0]),
                    ("sweep.bogus", 3)])  # the override loaded, the document did not
    @example(pairs=[("fleet", {"devices": 3})])  # the override replaced the section
    @example(pairs=[("sweep.axis", "weights"), ("sweep.values", [0.5, 1.0])])
    def test_override_and_document_agree(self, pairs):
        keys = {key for key, _value in pairs}
        doc: dict = {}
        for key, value in pairs:
            *sections, leaf = key.split(".")
            node = doc
            for section in sections:
                node = node.setdefault(section, {})
            node[leaf] = copy.deepcopy(value)  # as a parsed document holds it
        overrides = [f"{key}={yaml.safe_dump(value, default_flow_style=True)}"
                     for key, value in pairs]
        by_doc = self.load(doc, (), keys)
        by_set = self.load(None, overrides, keys)
        assert (by_doc is None) == (by_set is None)
        if by_doc is None:
            return
        text = effective_yaml(by_doc)
        assert effective_yaml(by_set) == text  # so both build the same scenario
        assert effective_yaml(load_config(text)) == text
        try:
            build_scenario(by_doc)
            build_sweep_axis(by_doc)
        except ConfigError as exc:
            assert_names_a_key(exc, keys)


class TestCliModel:
    def test_writes_the_block_table(self, capsys):
        rc = cli.main(["model"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("block_id,stage,kind,droppable")
        assert len(out) == 18
        first = out[1].split(",")
        assert first[:4] == ["1", "1", "stem", "0"]
        assert first[7] == "118013952"

    def test_writes_to_a_file(self, tmp_path):
        target = tmp_path / "model.csv"
        rc = cli.main(["model", "--output", str(target)])
        assert rc == 0
        assert len(target.read_text(encoding="utf-8").splitlines()) == 18


class TestCliSolve:
    def test_json_document_and_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["solve", "--requests", "2", "--output"]
        assert cli.main(argv + [str(a)] + FAST) == 0
        assert cli.main(argv + [str(b)] + FAST) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text(encoding="utf-8"))
        assert doc["n_requests"] == 2
        assert doc["solver"] == "ga"
        assert "report" not in doc
        assert len(doc["hosts"]) == 2 and len(doc["hosts"][0]) == 17

    def test_explain_includes_the_feasibility_report(self, capsys):
        rc = cli.main(["solve", "--requests", "1", "--explain"] + FAST)
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "report" in doc
        assert set(doc["report"]) >= {"feasible", "violations", "memory_margin"}

    def test_strict_infeasible_exits_three(self, capsys, tmp_path):
        rc = cli.main([
            "solve", "--requests", "4", "--strict",
            "--output", str(tmp_path / "x.json"),
            "--set", "fleet.devices=2",
            "--set", "solver.population_size=8",
            "--set", "solver.generations=2",
        ])
        assert rc == 3

    def test_a_round_is_the_round_simulate_plans(self, tmp_path, capsys, monkeypatch):
        # Seed 39's rounds 0-2 draw 0, 3 and 8 requests; the default fleet's
        # compute provably cannot serve 8, so round 2 is an error round.
        sets = ["--seed", "39", "--set", "scenario.rounds=3",
                "--set", "solver.population_size=8", "--set", "solver.generations=2"]
        results = []

        def recording_run_scenario(*args, **kwargs):
            results.append(harness.run_scenario(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run_scenario", recording_run_scenario)
        assert cli.main(["simulate", "--output-dir", str(tmp_path / "sim")] + sets) == 0
        rows = (tmp_path / "sim" / "rounds.csv").read_text(encoding="utf-8").splitlines()
        records = results[0].records
        assert [r.n_requests for r in records] == [0, 3, 8]
        assert [r.error is None for r in records] == [True, True, False]
        capsys.readouterr()
        for k, (row, record) in enumerate(zip(rows[1:], records)):
            out = tmp_path / f"round{k}.json"
            rc = cli.main(["solve", "--round", str(k), "--output", str(out)] + sets)
            if record.error is not None:
                assert rc == 3
                reason = record.error.split(": ", 1)[1]
                assert capsys.readouterr().err == f"infeasible: {reason}\n"
                continue
            assert rc == 0
            doc = json.loads(out.read_text(encoding="utf-8"))
            assert doc["n_requests"] == record.n_requests
            cells = dict(zip(CSV_COLUMNS, row.split(",")))
            for column, key in (("objective", "objective"), ("total_latency_s", "total_latency_s"),
                                ("avg_accuracy", "accuracy"), ("feasible", "feasible")):
                assert format_value(doc[key]) == cells[column], column

    def test_negative_requests_rejected(self, capsys):
        rc = cli.main(["solve", "--requests", "-1"] + FAST)
        assert rc == 2

    def test_model_and_solve_leave_stdout_open(self, capsys):
        # "--output -" writes to stdout without closing it, so a second
        # command in the same process writes there again.
        for argv in (["model"], ["solve", "--requests", "1"] + FAST):
            assert cli.main(argv) == 0
            first = capsys.readouterr().out
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == first != ""


class TestCliSimulate:
    def test_writes_rounds_summary_and_config(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = cli.main(["simulate", "--output-dir", str(out)] + FAST)
        assert rc == 0
        rounds = (out / "rounds.csv").read_text(encoding="utf-8").splitlines()
        assert rounds[0] == ("round,avg_accuracy,total_latency_s,"
                             "shared_data_bits,total_computation_mults,"
                             "total_energy_j,objective,feasible")
        assert len(rounds) == 3
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["rounds"] == 2
        eff = yaml.safe_load((out / "effective_config.yaml").read_text(
            encoding="utf-8"))
        assert eff["solver"]["population_size"] == 8
        assert "files in" in capsys.readouterr().out

    @pytest.mark.parametrize("overrides,rounds", [
        (["scenario.rounds=0"], 0),
        # Every round errors: two devices cannot compute one request.
        (["fleet.devices=2", "fleet.compute_gmults=[0.1, 0.1]", "scenario.rounds=2"], 2),
    ])
    def test_summary_json_is_strict_without_a_solved_round(self, tmp_path, capsys,
                                                           overrides, rounds):
        def reject(token):
            raise ValueError(f"summary.json holds {token}")

        out = tmp_path / "sim"
        sets = [a for o in overrides for a in ("--set", o)]
        assert cli.main(["simulate", "--output-dir", str(out)] + sets) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"),
                             parse_constant=reject)
        assert summary["rounds"] == rounds and summary["solved_rounds"] == 0
        means = [k for k in summary if k.startswith("mean_")]
        assert len(means) == 6 and all(summary[k] is None for k in means)
        # rounds.csv keeps its nan cells.
        rows = (out / "rounds.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == rounds and all(",nan," in row for row in rows)

    def test_reruns_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--output-dir", str(out_a)] + FAST)
        cli.main(["simulate", "--output-dir", str(out_b)] + FAST)
        for name in ("rounds.csv", "summary.json", "effective_config.yaml"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_output_dir_falls_back_to_the_environment(self, tmp_path,
                                                      monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("RESPLAN_OUTPUT_DIR", str(target))
        rc = cli.main(["simulate"] + FAST)
        assert rc == 0
        assert (target / "rounds.csv").exists()

    def test_strict_mode_exits_three_on_a_bad_round(self, tmp_path, capsys):
        rc = cli.main([
            "simulate", "--strict", "--output-dir", str(tmp_path / "s"),
            "--set", "fleet.memory_mb=[0.001, 0.001]",
            "--set", "scenario.lam=6.0",
            "--set", "scenario.rounds=2",
            "--set", "solver.population_size=8",
            "--set", "solver.generations=2",
        ])
        assert rc == 3
        assert "infeasible" in capsys.readouterr().err


class TestCliSweep:
    def test_writes_variant_rows_and_summary(self, tmp_path, capsys):
        out = tmp_path / "sw"
        rc = cli.main([
            "sweep", "--output-dir", str(out),
            "--set", "sweep.axis=energy",
            "--set", "sweep.values=[0.5, 1.0]",
        ] + FAST)
        assert rc == 0
        rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0].startswith("variant,round,")
        assert len(rows) == 1 + 2 * 2
        assert rows[1].startswith("energy_x0.5,")
        assert rows[3].startswith("energy_x1,")
        summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert summary[0].startswith("variant,rounds,solved_rounds")
        assert len(summary) == 3

    def test_summary_columns_are_summarize_keys(self, tmp_path, capsys, monkeypatch):
        results = []

        def recording_sweep(*args, **kwargs):
            results.extend(harness.sweep(*args, **kwargs))
            return tuple(results)

        monkeypatch.setattr(cli, "sweep", recording_sweep)
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--output-dir", str(out), "--set", "sweep.axis=energy",
                         "--set", "sweep.values=[0.5, 1.0]"] + FAST) == 0
        rows = [line.split(",") for line in
                (out / "summary.csv").read_text(encoding="utf-8").splitlines()]
        assert len(results) == 2 and len(rows) == 3
        keys = list(summarize(results[0].records))
        assert rows[0] == ["variant", *keys]
        for row, res in zip(rows[1:], results):
            summary = summarize(res.records)
            assert row == [res.label] + [format_value(summary[k]) for k in keys]

    def test_sweep_without_a_sweep_section_is_a_config_error(self, tmp_path,
                                                             capsys):
        rc = cli.main(["sweep", "--output-dir", str(tmp_path / "x")] + FAST)
        assert rc == 2
        assert "sweep" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_config_key_exits_two(self, capsys):
        rc = cli.main(["model", "--set", "fleet.capacity=1"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_provable_infeasibility_exits_three(self, capsys, tmp_path):
        rc = cli.main([
            "solve", "--requests", "1",
            "--output", str(tmp_path / "x.json"),
            "--set", "fleet.memory_mb=[0.001, 0.001]",
            "--set", "solver.population_size=8",
            "--set", "solver.generations=2",
        ])
        assert rc == 3
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("override,field", [
        ("weights.alpha=.nan", "alpha"),
        ("weights.latency_ref_s=.inf", "latency_ref"),
    ])
    def test_non_finite_weights_exit_two(self, capsys, tmp_path, override, field):
        rc = cli.main(["solve", "--requests", "1", "--set", override,
                       "--output", str(tmp_path / "x.json")])
        assert rc == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("override,field", [
        ("fleet.energy_j=.nan", "energy_cap"),
        ("fleet.memory_mb=.nan", "memory_cap"),
        ("energy.p_compute_w=.nan", "p_compute"),
        ("network.rate_hi_mbps=.inf", "rate_hi=inf"),
        ("network.rate_lo_mbps=.nan", "rate_lo=nan"),
    ])
    def test_non_finite_fleet_energy_and_rates_exit_two(self, capsys, tmp_path,
                                                        override, field):
        rc = cli.main(["solve", "--requests", "1", "--set", override,
                       "--output", str(tmp_path / "x.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert field in err
        assert "latency_ref" not in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("override,field", [
        ("scenario.lam=.nan", "lam"),
        ("scenario.lam=.inf", "lam"),
    ])
    def test_non_finite_arrival_rate_exits_two(self, capsys, tmp_path, override, field):
        rc = cli.main(["solve", "--requests", "1", "--set", override,
                       "--output", str(tmp_path / "x.json")])
        assert rc == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("axis,values", [
        ("energy", "[.nan]"), ("rate", "[.inf]"), ("lam", "[1.0, .inf]"),
        ("weights", "[[.nan, 0.5]]"),
    ])
    def test_non_finite_sweep_values_exit_two(self, capsys, tmp_path, axis, values):
        rc = cli.main(["sweep", "--set", f"sweep.axis={axis}",
                       "--set", f"sweep.values={values}",
                       "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"{axis} sweep values must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("values", ["[[-1, 0.5]]", "[[0.5, -0.5]]", "[[0.3, 0.3]]"])
    def test_negative_or_unnormalized_sweep_weights_exit_two(self, capsys, tmp_path,
                                                             values):
        rc = cli.main(["sweep", "--set", "sweep.axis=weights",
                       "--set", f"sweep.values={values}",
                       "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "weights sweep values must be >= 0 and sum to 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args,field", [
        (["solve", "--set", "scenario.lam=1e300"], "lam must be <="),
        (["solve", "--set", "scenario.lam=9.3e18", "--requests", "1"], "lam must be <="),
        (["sweep", "--set", "sweep.axis=lam", "--set", "sweep.values=[1e300]"],
         "lam sweep values must be <="),
    ])
    def test_arrival_rate_over_the_poisson_ceiling_exits_two(self, capsys, tmp_path,
                                                              args, field):
        out = ["--output", str(tmp_path / "x.json")] if args[0] == "solve" else [
            "--output-dir", str(tmp_path / "out")]
        rc = cli.main(args + out)
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", [
        "solver.population_size=2.5", "fleet.devices=10.9", "solver.generations=3.7",
        "fleet.devices=true", "solver.population_size=25e-1", "scenario.rounds=2.5",
    ])
    def test_non_integer_counts_exit_two(self, capsys, tmp_path, override):
        rc = cli.main(["solve", "--requests", "1", "--set", override,
                       "--output", str(tmp_path / "x.json")])
        assert rc == 2
        assert f"{override.partition('=')[0]} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("key", ["crossover_rate", "mutation_rate",
                                     "tournament_size", "penalty_weight"])
    @pytest.mark.parametrize("via", ["document", "set"])
    def test_fixed_ga_heuristics_are_unknown_keys(self, capsys, tmp_path, key, via):
        if via == "set":
            source = ["--set", f"solver.{key}=1"]
        else:
            config = tmp_path / "cfg.yaml"
            config.write_text(f"solver:\n  {key}: 1\n", encoding="utf-8")
            source = ["--config", str(config)]
        rc = cli.main(["solve", "--requests", "1", "--output", str(tmp_path / "x.json")]
                      + source)
        assert rc == 2
        assert f"unknown config key 'solver.{key}'" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("args,field", [
        (["--round", "-1"], "--round must be >= 0"),
        (["--set", "profile.path=/nonexistent/profile.yaml"], "profile.path"),
        (["--set", "profile.path=no-such-profile"], "profile.path"),
        (["--config", "no-such-config"], "cannot read --config 'no-such-config'"),
        (["--set", "energy.p_compute_w=true"], "energy.p_compute_w must be a number"),
        (["--set", "fleet.memory_mb=[true, 200]"], "fleet.memory_mb must be a number"),
        (["--set", "energy.p_compute_w=abc"], "energy.p_compute_w must be a number"),
        (["--set", "solver.population_size=30000000", "--set", "fleet.devices=1"],
         "population_size=30000000 draws"),
        (["--set", "label={x: 3}"], "label must be text"),
        (["--set", "label=[a, b]"], "label must be text"),
    ])
    def test_bad_values_exit_two_naming_them(self, capsys, tmp_path, args, field):
        rc = cli.main(["solve", "--requests", "1", "--output", str(tmp_path / "x.json")]
                      + args)
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_files_without_a_yaml_suffix_are_read(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "myconf").write_text("sweep: {axis: energy, values: [1.0]}\n",
                                         encoding="utf-8")
        (tmp_path / "myprofile.txt").write_text(
            resources.files("resplan").joinpath("data/synthetic_default.yaml").read_text(
                encoding="utf-8"), encoding="utf-8")
        rc = cli.main(["sweep", "--config", "myconf", "--set", "profile.path=myprofile.txt",
                       "--output-dir", "out"] + FAST)
        assert rc == 0, capsys.readouterr().err
        assert (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1].startswith(
            "energy_x1,")

    @pytest.mark.parametrize("option", ["--config", "profile.path"])
    def test_a_file_that_is_not_text_exits_two_naming_the_option(self, capsys, tmp_path,
                                                                  option):
        binary = tmp_path / "binary"
        binary.write_bytes(b"\xb4\xff\x00")
        source = (["--config", str(binary)] if option == "--config"
                  else ["--set", f"profile.path={binary}"])
        rc = cli.main(["solve", "--requests", "1", "--output", str(tmp_path / "x.json")]
                      + source)
        assert rc == 2
        assert f"cannot read {option}" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("override,message", [
        ("sweep.valuez=[1, 2]", "unknown sweep keys: ['valuez']"),
        ("sweep.extra=3", "unknown sweep keys: ['extra']"),
        ("sweep.axis=energy", "sweep needs both 'axis' and 'values'"),
    ])
    def test_sweep_overrides_are_checked_as_a_document_is(self, capsys, tmp_path,
                                                          override, message):
        rc = cli.main(["simulate", "--set", override, "--output-dir", str(tmp_path / "out")]
                      + FAST)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axis,field", [
        ("energy", "energy_cap"), ("compute", "compute_cap"), ("rate", "mult_rate"),
    ])
    def test_sweep_multiplier_that_overflows_a_budget_exits_two(self, capsys, tmp_path,
                                                                axis, field):
        rc = cli.main(["sweep", "--set", f"sweep.axis={axis}",
                       "--set", "sweep.values=[1.0, 1e308]",
                       "--output-dir", str(tmp_path / "out")] + FAST)
        assert rc == 2
        err = capsys.readouterr().err
        assert "sweep.values entry 1e+308" in err and f"{field} must be finite" in err
        assert not (tmp_path / "out").exists()

    def test_fleet_over_the_memory_bound_exits_two(self, capsys, tmp_path, monkeypatch):
        # A per-round array bound that 11 devices meet and 12 do not.
        assert solvers.round_bytes(11) < solvers.round_bytes(12)
        monkeypatch.setattr(solvers, "MEMORY_BOUND", solvers.round_bytes(12) - 1)
        assert build_scenario(load_config({"fleet": {"devices": 11}})).fleet.n_devices == 11
        with pytest.raises(ConfigError, match="fleet.devices=12 needs"):
            build_scenario(load_config({"fleet": {"devices": 12}}))
        rc = cli.main(["solve", "--requests", "1", "--set", "fleet.devices=12",
                       "--output", str(tmp_path / "x.json")])
        assert rc == 2
        assert "fleet.devices=12 needs" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_internal_errors_exit_four(self, capsys, monkeypatch):
        def boom(args, cfg, scenario):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(cli.COMMANDS, "model", boom)
        rc = cli.main(["model"])
        assert rc == 4
        assert "RuntimeError: synthetic failure" in capsys.readouterr().err

    def test_preset_and_config_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["model", "--preset", "sweep_weights", "--config", "x.yaml"])

    @pytest.mark.parametrize("argv,option", [
        (["simulate", "--output", "-"], "--output"),
        (["sweep", "--output", "-", "--set", "sweep.axis=energy",
          "--set", "sweep.values=[1.0]"], "--output"),
        (["solve", "--requests", "1", "--out", "x.json"], "--out"),
        (["model", "--pre", "sweep_weights"], "--pre"),
        (["--hel", "model"], "--hel"),
    ])
    def test_abbreviated_options_exit_two_and_write_nothing(self, capsys, tmp_path,
                                                            monkeypatch, argv, option):
        # A prefix match would read simulate's "--output -" as "--output-dir -"
        # and write its files into a directory named "-".
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("RESPLAN_OUTPUT_DIR", raising=False)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + FAST)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
