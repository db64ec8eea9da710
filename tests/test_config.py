import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from iabsim.channel import ChannelParams, RadioConfig
from iabsim.cli import main
from iabsim.config import WBF_PRESETS, config_document, parse_config
from iabsim.errors import ConfigError
from iabsim.geometry import MAX_EXPECTED_NODES, Region
from iabsim.policy import PolicyKind, WbfConfig, WbfKind, _wbf_label
from iabsim.simulate import PolicySpec, SimConfig, run_campaign

# The largest mean numpy's Poisson sampler accepts (int64 max - 10 sqrt(int64 max)).
POISSON_MAX_MEAN = float(np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max))
# Every numeric key of a config document: (key, dataclass, field, integer)
NUMBER_FIELDS = [
    ("deployment.lambda_g", SimConfig, "lambda_g", False),
    ("deployment.p_w", SimConfig, "p_w", False),
    ("deployment.lambda_ue", SimConfig, "lambda_ue", False),
    ("deployment.region_width_m", Region, "width_m", False),
    ("deployment.region_height_m", Region, "height_m", False),
    ("radio.B_hz", RadioConfig, "bandwidth_hz", False),
    ("radio.ptx_dbm", RadioConfig, "tx_power_dbm", False),
    ("radio.nf_db", RadioConfig, "noise_figure_db", False),
    ("radio.M", RadioConfig, "array_elements", True),
    ("radio.S", RadioConfig, "sectors", True),
    ("radio.gamma_th_db", RadioConfig, "snr_threshold_db", False),
    *((f"channel.{f.name}", ChannelParams, f.name, False) for f in dataclasses.fields(ChannelParams)),
    ("wbf.n_ht", WbfConfig, "n_ht", True),
    ("wbf.k", WbfConfig, "k", False),
    ("wbf.gamma", WbfConfig, "gamma", False),
    ("wbf.gamma_gap_db", WbfConfig, "gamma_gap_db", False),
    ("wbf.gamma_h_db", WbfConfig, "gamma_h_db", False),
    ("run.repetitions", SimConfig, "repetitions", True),
    ("run.master_seed", SimConfig, "master_seed", True),
    ("run.max_hops", SimConfig, "max_hops", True),
]
# The keys that are not numbers: (key, dataclass, field, document value, parsed value)
OTHER_FIELDS = [
    ("run.oracle", SimConfig, "oracle_enabled", True, True),
    ("wbf.kind", WbfConfig, "kind", "polynomial", WbfKind.POLYNOMIAL),
]
README = Path(__file__).resolve().parents[1] / "README.md"
# 401 digits: beyond the float range, within the digit limit of int() and of the JSON parser
BIG = 10**400
BAD_NUMBERS = [
    pytest.param(key, cls, field, value, id=f"{key}={value}")
    for key, cls, field, integer in NUMBER_FIELDS
    for value in (math.nan, math.inf, -math.inf, *((2.5,) if integer else ()))
] + [
    pytest.param(key, cls, field, sign * BIG, id=f"{key}={sign * 10}**400")
    for key, cls, field, integer in NUMBER_FIELDS
    if not integer
    for sign in (1, -1)
]


class TestDefaults:
    def test_empty_document_gives_reference_parameters(self):
        cfg = parse_config({})
        assert cfg.lambda_g == 30.0
        assert cfg.p_w == 0.3
        assert cfg.radio.array_elements == 64
        assert cfg.radio.sectors == 3
        assert cfg.radio.bandwidth_hz == 400e6
        assert cfg.radio.tx_power_dbm == 30.0
        assert cfg.radio.noise_figure_db == 5.0
        assert cfg.radio.snr_threshold_db == 5.0
        assert [s.kind for s in cfg.policies] == [
            PolicyKind.HQF, PolicyKind.WF, PolicyKind.PA, PolicyKind.MLR,
        ]

    def test_empty_text_document(self):
        cfg = parse_config("{}")
        assert cfg.lambda_g == 30.0

    def test_file_source(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"deployment": {"lambda_g": 60.0}}))
        assert parse_config(str(path)).lambda_g == 60.0


class TestPresets:
    def test_aggressive_exp_expansion(self):
        wbf = WBF_PRESETS["aggressive_exp"]
        assert wbf.kind == WbfKind.EXPONENTIAL
        assert (wbf.n_ht, wbf.gamma, wbf.gamma_gap_db, wbf.gamma_h_db) == (1, 3.0, 15.0, 2.0)

    def test_conservative_exp_expansion(self):
        wbf = WBF_PRESETS["conservative_exp"]
        assert (wbf.n_ht, wbf.gamma, wbf.gamma_gap_db, wbf.gamma_h_db) == (6, 1.5, 5.0, 2.0)

    def test_aggressive_poly_expansion(self):
        wbf = WBF_PRESETS["aggressive_poly"]
        assert wbf.kind == WbfKind.POLYNOMIAL
        assert (wbf.n_ht, wbf.k, wbf.gamma_gap_db, wbf.gamma_h_db) == (1, 3.0, 15.0, 2.0)

    def test_conservative_poly_expansion(self):
        wbf = WBF_PRESETS["conservative_poly"]
        assert (wbf.n_ht, wbf.k, wbf.gamma_gap_db, wbf.gamma_h_db) == (6, 1.0, 5.0, 2.0)

    def test_preset_by_name_in_policy(self):
        cfg = parse_config({"policies": [{"policy": "HQF", "wbf": "aggressive_exp"}]})
        spec = cfg.policies[0]
        assert spec.wbf == WBF_PRESETS["aggressive_exp"]
        assert spec.label == "HQF_aggressive_exp"


class TestAutoLabels:
    def test_huge_gap_gets_a_legal_label(self):
        # ':g' prints 1e+06, and '+' is not a label character
        wbf = {"kind": "exponential", "n_ht": 1, "gamma": 1.0, "gamma_gap_db": 1e6}
        doc = {"policies": [{"policy": "HQF", "wbf": wbf}]}
        assert parse_config(doc).policies[0].label == "HQF_exp_nht1_g1_gap1000000.0_h2"

    def test_numbers_that_print_alike_get_distinct_labels(self):
        doc = {"policies": [{"policy": "HQF", "wbf": {"kind": "polynomial", "k": k}} for k in (1.0000001, 1.0000002)]}
        assert [p.label for p in parse_config(doc).policies] == [
            "HQF_poly_nht6_k1.0000001_gap5_h2",
            "HQF_poly_nht6_k1.0000002_gap5_h2",
        ]

    def test_exact_short_labels_and_presets_unchanged(self):
        doc = {
            "policies": [
                {
                    "policy": "PA",
                    "wbf": {"kind": "exponential", "n_ht": 3, "gamma": 2.5, "gamma_gap_db": 0.125, "gamma_h_db": 0},
                },
                {
                    "policy": "MLR",
                    "wbf": {"kind": "polynomial", "n_ht": 1, "k": 3.0, "gamma_gap_db": 15.0, "gamma_h_db": 2.0},
                },
                {"policy": "WF", "wbf": {"kind": "polynomial", "k": 1e-05, "gamma_gap_db": 123456}},
            ]
        }
        assert [p.label for p in parse_config(doc).policies] == [
            "PA_exp_nht3_g2.5_gap0.125_h0",
            "MLR_aggressive_poly",
            "WF_poly_nht6_k1e-05_gap123456_h2",
        ]

    def test_a_spec_built_without_a_label_gets_the_parsed_label(self):
        entries = [
            "HQF",
            {"policy": "HQF", "wbf": "aggressive_poly"},
            {"policy": "WF", "wbf": "conservative_exp"},
            {"policy": "PA", "wbf": {"kind": "exponential", "n_ht": 3, "gamma": 2.5, "gamma_gap_db": 0.125}},
            {"policy": "MLR", "wbf": {"kind": "polynomial", "k": 1e-05, "gamma_gap_db": 1e6}},
        ]
        parsed = parse_config({"policies": entries}).policies
        built = SimConfig(policies=tuple(PolicySpec(spec.kind, spec.wbf) for spec in parsed)).policies
        assert built == parsed
        assert [spec.label for spec in built][:2] == ["HQF", "HQF_aggressive_poly"]

    def test_labels_are_legal_and_tell_every_number_apart(self):
        rng = np.random.default_rng(12)
        values = np.concatenate(
            [
                10.0 ** rng.uniform(-300, 300, 300),
                rng.uniform(1.0, 1.0 + 1e-12, 100),
                rng.integers(0, 10**9, 100).astype(float),
                [0.0, 1e-320, 5e-324, 1.7976931348623157e308, 1e16, 1e6, 123456.0, 1234567.0],
            ]
        ).tolist()
        seen = {}
        for value in values:
            wbf = WbfConfig(WbfKind.POLYNOMIAL, n_ht=2, k=max(value, 5e-324), gamma_gap_db=value, gamma_h_db=value)
            label = _wbf_label(wbf)
            assert re.fullmatch(r"[A-Za-z0-9._-]+", label), label
            assert seen.setdefault(label, wbf) == wbf, label


class TestBiasOverflow:
    @pytest.mark.parametrize(
        "wbf",
        [
            {"kind": "polynomial", "n_ht": 1, "k": 2000},
            {"kind": "exponential", "gamma": 1e200},
            {"kind": "polynomial", "n_ht": 1, "k": 2.0, "gamma_gap_db": 1e308},
        ],
    )
    def test_refused_naming_the_policy_and_key(self, tmp_path, capsys, wbf):
        doc = {"policies": ["WF", {"policy": "HQF", "wbf": wbf, "label": "hot"}], "run": {"repetitions": 2}}
        with pytest.raises(ConfigError, match=r"policy 'hot'.*'wbf'.*run\.max_hops = 30"):
            parse_config(doc)
        path = tmp_path / "hot.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "'hot'" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_bias_finite_below_max_hops_is_accepted(self):
        # 2 ** 2000 overflows, so the bias is finite after 0 and 1 hops only
        wbf = WbfConfig(WbfKind.POLYNOMIAL, n_ht=1, k=2000.0)
        spec = PolicySpec(PolicyKind.HQF, wbf, "steep")
        assert SimConfig(policies=(spec,), max_hops=2).max_hops == 2
        with pytest.raises(ConfigError, match="steep"):
            SimConfig(policies=(spec,), max_hops=3)

    def test_huge_max_hops_with_an_unbiased_policy_is_accepted(self):
        assert SimConfig(max_hops=10**300).max_hops == 10**300
        with pytest.raises(ConfigError, match=r"policy 'HQF_conservative_exp'"):
            parse_config({"policies": [{"policy": "HQF", "wbf": "conservative_exp"}], "run": {"max_hops": 10**300}})


class TestValidation:
    def test_gamma_below_one_names_the_rule(self):
        doc = {"policies": [{"policy": "HQF", "wbf": {"kind": "exponential", "gamma": 0.5}}]}
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(doc)

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="lambda_gg"):
            parse_config({"deployment": {"lambda_gg": 30}})

    def test_unknown_top_level_section(self):
        with pytest.raises(ConfigError, match="extras"):
            parse_config({"extras": {}})

    def test_unknown_wbf_key(self):
        doc = {"policies": [{"policy": "HQF", "wbf": {"kind": "polynomial", "slope": 2}}]}
        with pytest.raises(ConfigError, match="slope"):
            parse_config(doc)

    def test_p_w_out_of_range(self):
        with pytest.raises(ConfigError, match="p_w"):
            parse_config({"deployment": {"p_w": 1.5}})

    def test_unknown_policy_name(self):
        with pytest.raises(ConfigError, match="XYZ"):
            parse_config({"policies": ["XYZ"]})

    def test_unknown_preset_name(self):
        with pytest.raises(ConfigError, match="spicy"):
            parse_config({"policies": [{"policy": "HQF", "wbf": "spicy"}]})

    def test_non_square_array(self):
        with pytest.raises(ConfigError, match="perfect square"):
            parse_config({"radio": {"M": 48}})

    def test_reserved_label(self):
        with pytest.raises(ConfigError, match="oracle"):
            parse_config({"policies": [{"policy": "HQF", "label": "oracle"}]})

    @pytest.mark.parametrize(
        "label, oracle, message",
        [("oracle", True, "must not be 'oracle'"), ("../x", False, "may only contain"), ("x\n", False, "may only contain")],
        ids=["oracle", "path", "newline"],
    )
    def test_label_refused_on_the_dataclass(self, label, oracle, message):
        """Python-built configs meet the label rules too: an 'oracle' policy's paths would be
        overwritten by the oracle's, and a label with '/' would name a file outside the output."""
        policies = (PolicySpec(PolicyKind.HQF), PolicySpec(PolicyKind.WF, label=label))
        with pytest.raises(ConfigError, match=re.escape(f"'policies[1].label' {message}")):
            SimConfig(policies=policies, oracle_enabled=oracle)

    def test_duplicate_labels(self):
        with pytest.raises(ConfigError, match="unique"):
            parse_config({"policies": ["HQF", "HQF"]})

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="lambda_g"):
            parse_config({"deployment": {"lambda_g": "many"}})

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    @pytest.mark.parametrize("section", ["deployment", "radio", "channel", "run"])
    @pytest.mark.parametrize("value", [5, [], None, "x"])
    def test_section_that_is_not_an_object_names_it(self, section, value):
        with pytest.raises(ConfigError, match=f"'{section}' must be a JSON object"):
            parse_config({section: value})

    def test_integer_literal_past_the_digit_limit(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config('{"run": {"master_seed": 1%s}}' % ("0" * 5000))

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "section,key", [("deployment", "lambda_g"), ("radio", "gamma_th_db"), ("channel", "los_sigma_db")]
    )
    def test_non_finite_value_names_the_key(self, section, key, text):
        # JSON text so the parser's NaN/Infinity literals are what arrives
        with pytest.raises(ConfigError, match=rf"{section}\.{key} must be finite"):
            parse_config('{"%s": {"%s": %s}}' % (section, key, text))

    @pytest.mark.parametrize(
        "doc,key",
        [
            ({"run": {"repetitions": 2.9}}, "run.repetitions"),
            ({"run": {"max_hops": 3.5}}, "run.max_hops"),
            ({"run": {"master_seed": 1.5}}, "run.master_seed"),
            ({"radio": {"M": 64.9}}, "radio.M"),
            ({"radio": {"S": 2.5}}, "radio.S"),
            ({"policies": [{"policy": "HQF", "wbf": {"kind": "polynomial", "n_ht": 1.5}}]}, "wbf.n_ht"),
        ],
    )
    def test_non_integral_integer_key_names_the_key(self, doc, key):
        with pytest.raises(ConfigError, match=rf"{key} must be an integer"):
            parse_config(doc)

    def test_integral_float_accepted_for_integer_key(self):
        cfg = parse_config({"run": {"repetitions": 12.0}, "radio": {"M": 256.0}})
        assert cfg.repetitions == 12 and isinstance(cfg.repetitions, int)
        assert cfg.radio.array_elements == 256 and isinstance(cfg.radio.array_elements, int)

    def test_negative_master_seed(self):
        with pytest.raises(ConfigError, match="master_seed"):
            parse_config({"run": {"master_seed": -1}})

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"radio": {"fc_ghz": 28}}, "radio.fc_ghz"),
            ({"channel": {"floor_gain_dbi": -10}}, "channel.floor_gain_dbi"),
        ],
    )
    def test_removed_key_is_unknown(self, doc, key):
        with pytest.raises(ConfigError, match=rf"unknown key '{key}'"):
            parse_config(doc)


class TestFieldTypes:
    """Each config dataclass refuses a field of the wrong type, naming its key: unchecked, a
    policy would run as another kind, a bias as another shape, a string or a bool would count
    as True or as 1, or a traceback would be all a user saw."""

    @pytest.mark.parametrize(
        "build, key",
        [
            pytest.param(lambda: SimConfig(policies=(PolicySpec("WF", label="wf"),)), "'policies[0].kind'", id="kind"),
            pytest.param(lambda: SimConfig(policies=(PolicySpec("WF"),)), "'policies[0].kind'", id="kind_no_label"),
            pytest.param(lambda: SimConfig(policies=(PolicySpec(PolicyKind.HQF, "none"),)), "'policies[0].wbf'", id="wbf"),
            pytest.param(lambda: WbfConfig(kind="polynomial"), "wbf.kind must be one of", id="wbf_kind"),
            pytest.param(lambda: SimConfig(oracle_enabled="no"), "run.oracle must be a bool", id="oracle"),
            pytest.param(lambda: SimConfig(repetitions=True), "run.repetitions must be a number", id="repetitions"),
            pytest.param(lambda: SimConfig(lambda_g="30"), "deployment.lambda_g must be a number", id="lambda_g"),
            pytest.param(lambda: SimConfig(region="x"), "region must be a Region", id="region"),
            pytest.param(lambda: SimConfig(radio=None), "radio must be a RadioConfig", id="radio"),
            pytest.param(lambda: SimConfig(policies=("HQF",)), "'policies[0]' must be a PolicySpec", id="policy"),
        ],
    )
    def test_refused_naming_the_key(self, build, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            build()

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"run": {"oracle": "no"}}, "run.oracle must be a bool"),
            ({"run": {"repetitions": True}}, "run.repetitions must be a number"),
            ({"deployment": {"lambda_g": "30"}}, "deployment.lambda_g must be a number"),
            ({"policies": [{"policy": "HQF", "wbf": {"kind": "cubic"}}]}, "wbf.kind must be one of"),
        ],
    )
    def test_documents_are_refused_alike(self, doc, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(doc)

    def test_a_float_field_holds_a_float(self):
        cfg = SimConfig(lambda_g=60, radio=RadioConfig(tx_power_dbm=np.float64(20)))
        assert type(cfg.lambda_g) is float and type(cfg.radio.tx_power_dbm) is float
        assert cfg == parse_config({"deployment": {"lambda_g": 60}, "radio": {"ptx_dbm": 20}})


# An integral value of each integer key that differs from its default
INTEGER_VALUES = {"radio.M": 16, "radio.S": 4, "wbf.n_ht": 2, "run.repetitions": 2, "run.master_seed": 7, "run.max_hops": 5}


def _campaign_bytes(cfg) -> list[bytes]:
    """The bytes of every per-repetition array of the campaign of ``cfg``."""
    res = run_campaign(cfg)
    arrays = [part[label] for part in (res.outcome, res.hop_count, res.bottleneck_db) for label in res.labels]
    return [a.tobytes() for a in arrays + [res.oracle_outcome, res.oracle_bottleneck_db]]


class TestIntegralFloats:
    @pytest.mark.parametrize(
        "key, cls, field", [pytest.param(key, cls, field, id=key) for key, cls, field, integer in NUMBER_FIELDS if integer]
    )
    def test_integer_field_holds_an_int_on_every_path(self, key, cls, field):
        """An integral float for an integer key is held as the int a document parses it to, however
        the config is built, and its campaign runs as the int's does."""
        value = INTEGER_VALUES[key]
        section, name = key.split(".")
        wbf = {"kind": "polynomial", "n_ht": 1, "k": 1.0}
        base = {"policies": [{"policy": "HQF", "label": "poly", "wbf": wbf}], "run": {"repetitions": 2, "oracle": True}}
        doc = json.loads(json.dumps(base))
        if section == "wbf":
            doc["policies"][0]["wbf"][name] = float(value)
        else:
            doc.setdefault(section, {})[name] = float(value)
        parsed, default = parse_config(doc), parse_config(base)
        built = _with_field(default, cls, field, float(value))
        for cfg in (parsed, built):
            part = {SimConfig: cfg, RadioConfig: cfg.radio, WbfConfig: cfg.policies[0].wbf}[cls]
            held = getattr(part, field)
            assert type(held) is int and held == value
        assert built == parsed
        assert _campaign_bytes(built) == _campaign_bytes(_with_field(default, cls, field, value))


class TestBadNumbers:
    """Non-finite and fractional values are rejected where each dataclass is built."""

    @pytest.mark.parametrize("key, cls, field, value", BAD_NUMBERS)
    def test_rejected_by_dataclass_document_and_cli(self, tmp_path, capsys, key, cls, field, value):
        with pytest.raises(ConfigError, match=re.escape(key)):
            cls(**{field: value})
        section, name = key.split(".")
        if section == "wbf":
            doc = {"policies": [{"policy": "HQF", "wbf": {"kind": "polynomial", name: value}}]}
        else:
            doc = {section: {name: value}}
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity literals, which the parser reads back
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["run.master_seed", "run.max_hops"])
    def test_integer_past_the_print_limit_names_the_key(self, key):
        """Python prints no int of more than 4300 digits; the message gives its size instead."""
        huge = -(10**5000)
        name = key.split(".")[1]
        with pytest.raises(ConfigError, match=re.escape(key) + r" must be >= \d, got a negative integer of 16610 bits"):
            SimConfig(**{name: huge})
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config({"run": {name: huge}})

    @pytest.mark.parametrize("key", ["run.master_seed", "run.max_hops"])
    def test_positive_integer_past_the_print_limit_names_the_key(self, key):
        """Once accepted, such an int crashed ``json.dumps`` of the config echo in ``summary.json``."""
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if not limit:
            pytest.skip("this Python prints ints of any length")
        name = key.split(".")[1]
        for huge in (10**5000, 10**limit):
            message = re.escape(key) + rf" must have at most {limit} decimal digits"
            with pytest.raises(ConfigError, match=message):
                SimConfig(**{name: huge})
            with pytest.raises(ConfigError, match=re.escape(key)):
                parse_config({"run": {name: huge}})
        longest = 10**limit - 1
        cfg = SimConfig(**{name: longest})
        assert getattr(parse_config(json.loads(json.dumps(config_document(cfg)))), name) == longest

    def test_integer_seed_beyond_float_range_runs(self, tmp_path):
        assert SimConfig(master_seed=BIG).master_seed == BIG
        cfg = parse_config({"run": {"master_seed": BIG}})
        assert cfg.master_seed == BIG
        assert parse_config(json.loads(json.dumps(config_document(cfg)))) == cfg
        path = tmp_path / "seed.json"
        path.write_text(json.dumps({"run": {"master_seed": BIG, "repetitions": 2}}))
        for args in (["--seed", str(BIG), "--reps", "2"], ["--config", str(path)]):
            out = tmp_path / args[0].strip("-")
            assert main([*args, "--out", str(out)]) == 0
            metadata = json.loads((out / "summary.json").read_text())["metadata"]
            assert metadata["master_seed"] == BIG
            assert parse_config(metadata["config"]).master_seed == BIG

    @pytest.mark.parametrize(
        "deployment, key",
        [
            ({"lambda_g": 1e19}, "deployment.lambda_g"),
            ({"lambda_ue": 1e19}, "deployment.lambda_ue"),
            ({"lambda_g": 1e-3, "lambda_ue": 1e19}, "deployment.lambda_ue"),
            ({"region_width_m": 1e200, "region_height_m": 1e200}, "deployment.lambda_g"),
            ({"lambda_g": float(np.nextafter(POISSON_MAX_MEAN, np.inf))}, "deployment.lambda_g"),
        ],
        ids=["lambda_g", "lambda_ue", "lambda_ue_with_sparse_gnbs", "region_area_inf", "lambda_g_one_ulp_over"],
    )
    def test_expected_count_beyond_the_poisson_sampler(self, tmp_path, capsys, deployment, key):
        """Refused when the config is built, before any draw: numpy's Poisson sampler
        raises a bare ValueError past its largest mean."""
        region = Region(deployment.get("region_width_m", 1000.0), deployment.get("region_height_m", 1000.0))
        densities = {name: deployment[name] for name in ("lambda_g", "lambda_ue") if name in deployment}
        with pytest.raises(ConfigError, match=re.escape(key) + r".* expected nodes"):
            SimConfig(region=region, **densities)
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config({"deployment": deployment})
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"deployment": deployment}))
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["lambda_g", "lambda_ue"])
    def test_count_beyond_the_cap_is_refused_before_allocation(self, tmp_path, capsys, key):
        """1e13 per km2 once ended in a 72.8 TiB allocation; it is refused with the key and the count."""
        with pytest.raises(ConfigError, match=rf"deployment\.{key} times the region area gives 1e\+13 expected nodes"):
            SimConfig(**{key: 1e13})
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"deployment": {key: 1e13}}))
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"deployment.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_count_at_the_cap_is_accepted(self):
        region = Region(2000.0, 500.0)  # 1 km2
        assert SimConfig(lambda_g=MAX_EXPECTED_NODES, lambda_ue=MAX_EXPECTED_NODES, region=region).lambda_g == 1e6
        over = float(np.nextafter(MAX_EXPECTED_NODES, np.inf))
        for key in ("lambda_g", "lambda_ue"):
            with pytest.raises(ConfigError, match=rf"deployment\.{key}"):
                SimConfig(region=region, **{key: over})
        assert MAX_EXPECTED_NODES < POISSON_MAX_MEAN


class TestRoundTrip:
    def test_parse_echo_parse_is_fixed_point(self):
        doc = {
            "deployment": {"lambda_g": 60.0, "p_w": 0.1},
            "radio": {"M": 256, "gamma_th_db": 4.0},
            "channel": {"fading_sigma_db": 2.0},
            "policies": [
                "WF",
                {"policy": "HQF", "wbf": "aggressive_poly"},
                {"policy": "PA", "wbf": {"kind": "exponential", "gamma": 2.0}, "label": "pa_custom"},
            ],
            "run": {"repetitions": 17, "master_seed": 99, "oracle": True},
        }
        cfg = parse_config(doc)
        echo = config_document(cfg)
        cfg2 = parse_config(echo)
        assert cfg2 == cfg
        assert config_document(cfg2) == echo

    def test_echo_of_defaults_round_trips(self):
        cfg = parse_config({})
        assert parse_config(config_document(cfg)) == cfg

    def test_echo_survives_json_serialization(self):
        cfg = parse_config({"deployment": {"lambda_g": 33.3}})
        text = json.dumps(config_document(cfg))
        assert parse_config(text) == cfg


def _mapped_cases():
    """(key, dataclass, field, document value, parsed value): a valid value other than the default."""
    defaults = parse_config({})
    owner = {SimConfig: defaults, Region: defaults.region, RadioConfig: defaults.radio,
             ChannelParams: defaults.channel, WbfConfig: WbfConfig()}
    for key, cls, field, integer in NUMBER_FIELDS:
        default = getattr(owner[cls], field)
        value = default * 4 if integer else default + 0.25  # M stays a perfect square, p_w below 1
        yield pytest.param(key, cls, field, value, value, id=key)
    for key, cls, field, value, parsed in OTHER_FIELDS:
        yield pytest.param(key, cls, field, value, parsed, id=key)


def _with_field(cfg, cls, field, value):
    """``cfg`` with ``field`` of its ``cls`` part (of its only policy's bias for WbfConfig) set to ``value``."""
    if cls is SimConfig:
        return dataclasses.replace(cfg, **{field: value})
    if cls is WbfConfig:
        (spec,) = cfg.policies
        return dataclasses.replace(cfg, policies=(dataclasses.replace(spec, wbf=dataclasses.replace(spec.wbf, **{field: value})),))
    part = {Region: "region", RadioConfig: "radio", ChannelParams: "channel"}[cls]
    return dataclasses.replace(cfg, **{part: dataclasses.replace(getattr(cfg, part), **{field: value})})


def _table_keys():
    """{section: names} of every key of NUMBER_FIELDS and OTHER_FIELDS."""
    table = {}
    for key, *_ in NUMBER_FIELDS + OTHER_FIELDS:
        section, name = key.split(".")
        table.setdefault(section, set()).add(name)
    return table


class TestKeyMapping:
    """Each document key sets its own field and is echoed at its own place (NUMBER_FIELDS is the schema)."""

    @pytest.mark.parametrize("key, cls, field, value, parsed", _mapped_cases())
    def test_key_sets_only_its_field_and_is_echoed(self, key, cls, field, value, parsed):
        section, name = key.split(".")
        if section == "wbf":
            base = {"policies": [{"policy": "HQF", "label": "fixed"}]}
            doc = {"policies": [{"policy": "HQF", "label": "fixed", "wbf": {name: value}}]}
        else:
            base, doc = {}, {section: {name: value}}
        cfg, default = parse_config(doc), parse_config(base)
        assert cfg != default
        assert cfg == _with_field(default, cls, field, parsed)
        echo = config_document(cfg)
        echoed = echo["policies"][0]["wbf"][name] if section == "wbf" else echo[section][name]
        assert echoed == value and type(echoed) is type(value)

    def test_echo_holds_every_key_of_the_table(self):
        table = _table_keys()
        echo = config_document(parse_config({}))
        assert set(echo) == set(table) - {"wbf"} | {"policies"}
        for section in ("deployment", "radio", "channel", "run"):
            assert set(echo[section]) == table[section], section
        assert set(echo["policies"][0]) == {"policy", "wbf", "label"}
        assert set(echo["policies"][0]["wbf"]) == table["wbf"]


class TestReadme:
    def test_example_parses_and_names_every_section_key(self):
        block = re.search(r"## Configuration file.*?```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        doc = json.loads(block.group(1))
        parse_config(doc)
        table = _table_keys()
        for section in ("deployment", "radio", "channel", "run"):
            assert set(doc[section]) == table[section], section
