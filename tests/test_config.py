import pytest

from aqc_shield import config
from aqc_shield.config import (
    ConfigError,
    ExperimentConfig,
    apply_override,
    load_config,
    load_sweep,
    loads_config,
    parse_terms,
    serialize_config,
)

MINIMAL = """
[model]
n = 4
j = 0.1

[protocol]
tau = 0.25
cycles = 4
"""

SCALING = """
[model]
n = 4
j = 0.1

[protocol]
zeta = 1.0
epsilon1 = 1.5
epsilon2 = 0.5
"""


class TestParsing:
    def test_minimal_with_defaults(self):
        cfg = loads_config(MINIMAL)
        assert cfg.model.n == 4
        assert cfg.model.preset == "universal-2local"
        assert cfg.model.code is True
        assert cfg.model.seed == 1234
        assert cfg.protocol.tau == 0.25
        assert cfg.protocol.w is None
        assert cfg.run.tolerance == 1e-10
        assert cfg.output.out_dir == "out"

    def test_scaling_rule_config(self):
        cfg = loads_config(SCALING)
        assert cfg.protocol.uses_scaling_rule

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="model.flavor"):
            loads_config("[model]\nflavor = strange\n[protocol]\ntau = 1\ncycles = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="bogus"):
            loads_config(MINIMAL + "\n[bogus]\nx = 1\n")

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="model.code"):
            loads_config("[model]\ncode = maybe\n[protocol]\ntau = 1\ncycles = 1\n")

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match="model.n"):
            loads_config("[model]\nn = 2.5\n[protocol]\ntau = 1\ncycles = 1\n")

    def test_parse_error_reported(self):
        with pytest.raises(ConfigError, match="parse error"):
            loads_config("[model\nn = 4\n")

    def test_comments_allowed(self):
        cfg = loads_config("[protocol]\ntau = 0.5  # pulse interval\ncycles = 2\n")
        assert cfg.protocol.tau == 0.5


    def test_field_types_resolved(self):
        # the coercion type of every key, with "X | None" resolved to X
        types = {name: config._field_types(cls) for name, cls in config._SECTIONS.items()}
        assert types == {
            "model": {"n": int, "n_b": int, "code": bool, "preset": str, "h0": str,
                      "h1": str, "schedule": str, "delta0": float, "j": float,
                      "beta_b": float, "e_p": float, "penalty_during_pulse": bool,
                      "seed": int},
            "protocol": {"group": str, "tau": float, "w": float, "cycles": int,
                         "total_time": float, "zeta": float, "z": float,
                         "epsilon1": float, "epsilon2": float, "c_tau": float,
                         "c_w": float},
            "run": {"r": int, "tolerance": float, "bath_state": str, "alpha": float},
            "output": {"out_dir": str, "prefix": str},
        }


class TestValidation:
    def test_explicit_and_scaling_exclusive(self):
        text = MINIMAL + "zeta = 1.0\nepsilon1 = 1.5\nepsilon2 = 0.5\n"
        with pytest.raises(ConfigError, match="mixes explicit"):
            loads_config(text)

    def test_cycles_and_total_time_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            loads_config("[protocol]\ntau = 0.5\ncycles = 2\ntotal_time = 4\n")
        with pytest.raises(ConfigError, match="exactly one"):
            loads_config("[protocol]\ntau = 0.5\n")

    def test_penalty_needs_code_and_mod4(self):
        with pytest.raises(ConfigError, match="encoded"):
            loads_config("[model]\ncode = false\ne_p = 1\npreset = universal-2local\n"
                         "[protocol]\ntau = 1\ncycles = 1\n")
        with pytest.raises(ConfigError, match="mod 4"):
            loads_config("[model]\nn = 6\ne_p = 1\n[protocol]\ntau = 1\ncycles = 1\n")

    def test_code_requires_even_n(self):
        with pytest.raises(ConfigError, match="even"):
            loads_config("[model]\nn = 5\n[protocol]\ntau = 1\ncycles = 1\n")

    def test_preset_and_terms_exclusive(self):
        with pytest.raises(ConfigError, match="exclusive"):
            loads_config("[model]\nh0 = -1 XI\nh1 = -1 ZI\n"
                         "[protocol]\ntau = 1\ncycles = 1\n")

    def test_explicit_terms_config(self):
        # an empty preset value clears the default so explicit lists apply
        cfg = loads_config(
            "[model]\nn = 4\ncode = true\npreset =\nh0 = -1.0 XI; -1.0 IX\nh1 = -1.0 ZZ\n"
            "[protocol]\ntau = 0.5\ncycles = 2\n"
        )
        assert cfg.model.preset is None
        assert cfg.model.h0 == "-1.0 XI; -1.0 IX"

    def test_dense_cap(self):
        with pytest.raises(ConfigError, match="cap"):
            loads_config("[model]\nn = 10\nn_b = 4\n[protocol]\ntau = 1\ncycles = 1\n")

    def test_negative_bath_norm_rejected(self):
        with pytest.raises(ConfigError, match="model.beta_b must be nonnegative"):
            loads_config(MINIMAL.replace("j = 0.1", "j = 0.1\nbeta_b = -1"))

    def test_negative_alpha_rejected(self):
        assert loads_config(MINIMAL + "\n[run]\nalpha = 0\n").run.alpha == 0.0
        with pytest.raises(ConfigError, match="run.alpha must be nonnegative"):
            loads_config(MINIMAL + "\n[run]\nalpha = -2\n")

    def test_bath_state_choices(self):
        with pytest.raises(ConfigError, match="bath_state"):
            loads_config(MINIMAL + "\n[run]\nbath_state = warm\n")

    def test_tolerance_above_trusted_range_rejected(self):
        assert loads_config(MINIMAL + "\n[run]\ntolerance = 1e-3\n").run.tolerance == 1e-3
        with pytest.raises(ConfigError, match="at most 0.001: above it the integrator"):
            loads_config(MINIMAL + "\n[run]\ntolerance = 2e-3\n")


class TestTermLists:
    def test_good_terms(self):
        terms = parse_terms("-1.0 XI; 0.5 ZZ", 2, "model.h0")
        assert len(terms) == 2
        assert terms[0][0] == -1.0
        assert terms[0][1].letters == "XI"

    def test_bad_coefficient(self):
        with pytest.raises(ConfigError, match="coefficient"):
            parse_terms("abc XI", 2, "model.h0")

    def test_wrong_length(self):
        with pytest.raises(ConfigError, match="expected 3"):
            parse_terms("1.0 XI", 3, "model.h0")

    def test_bad_shape(self):
        with pytest.raises(ConfigError, match="coefficient letters"):
            parse_terms("1.0", 2, "model.h0")


class TestRoundTrip:
    def test_serialize_load_identity(self):
        cfg = loads_config(MINIMAL)
        again = loads_config(serialize_config(cfg))
        assert again == cfg

    def test_roundtrip_with_overrides(self):
        cfg = loads_config(MINIMAL)
        cfg.model.e_p = 0.5
        cfg.model.n_b = 2
        cfg.run.bath_state = "ground"
        again = loads_config(serialize_config(cfg))
        assert again == cfg


class TestSweep:
    def test_axes_parse(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(MINIMAL + "\n[sweep]\nmodel.j = 0.05, 0.1\nprotocol.tau = 0.5, 0.25\n")
        sweep = load_sweep(str(path))
        assert [axis for axis, _ in sweep.axes] == ["model.j", "protocol.tau"]
        assert sweep.axes[0][1] == [0.05, 0.1]

    def test_missing_section(self, tmp_path):
        path = tmp_path / "nosweep.cfg"
        path.write_text(MINIMAL)
        with pytest.raises(ConfigError, match="sweep"):
            load_sweep(str(path))

    def test_bad_axis_path(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL + "\n[sweep]\nmodel.nope = 1, 2\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_sweep(str(path))

    def test_non_numeric_axis(self, tmp_path):
        path = tmp_path / "bad2.cfg"
        path.write_text(MINIMAL + "\n[sweep]\nmodel.preset = 1, 2\n")
        with pytest.raises(ConfigError, match="not numeric"):
            load_sweep(str(path))

    def test_non_numeric_axis_value(self, tmp_path):
        path = tmp_path / "bad4.cfg"
        path.write_text(MINIMAL + "\n[sweep]\nmodel.j = 0.1, abc\n")
        with pytest.raises(ConfigError, match=r"model\.j.*'abc'"):
            load_sweep(str(path))

    def test_empty_axis(self, tmp_path):
        path = tmp_path / "bad3.cfg"
        path.write_text(MINIMAL + "\n[sweep]\nmodel.j = ,\n")
        with pytest.raises(ConfigError, match="no values"):
            load_sweep(str(path))

    def test_apply_override_copies(self):
        cfg = loads_config(MINIMAL)
        other = apply_override(cfg, "model.j", 0.2)
        assert cfg.model.j == 0.1
        assert other.model.j == 0.2
        with pytest.raises(ConfigError, match="integer"):
            apply_override(cfg, "model.n_b", 1.5)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(MINIMAL)
    cfg = load_config(str(path))
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.model.n == 4
