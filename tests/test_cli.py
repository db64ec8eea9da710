import json
import math
from pathlib import Path

import pytest

from iabsim import __version__
from iabsim.cli import ResultBundle, _apply_overrides, _build_parser, main, write_results
from iabsim.config import config_document, parse_config
from iabsim.simulate import EmpiricalCdf, aggregate, run_campaign


def run_cli(argv):
    return main(argv)


def read_bytes(path):
    return path.read_bytes()


class TestWriteResults:
    def make_bundle(self, reps=12, seed=3, policies=("HQF", "WF")):
        cfg = parse_config({"policies": list(policies), "run": {"repetitions": reps, "master_seed": seed}})
        summary = aggregate(cfg, run_campaign(cfg))
        return ResultBundle(config_document(cfg), cfg.master_seed, "0.1.0", summary)

    def test_file_count_two_policies(self, tmp_path):
        bundle = self.make_bundle()
        written = write_results(bundle, tmp_path)
        names = sorted(p.name for p in written)
        assert names == [
            "HQF_hops_cdf.csv",
            "HQF_snr_cdf.csv",
            "WF_hops_cdf.csv",
            "WF_snr_cdf.csv",
            "summary.json",
        ]

    def test_singleton_cdf_exact_bytes(self, tmp_path):
        # one success with 2 hops must produce exactly "2,1.000000"
        bundle = self.make_bundle(policies=("HQF",))
        bundle.summary.policies["HQF"].hops_cdf = EmpiricalCdf([2])
        write_results(bundle, tmp_path)
        text = (tmp_path / "HQF_hops_cdf.csv").read_text()
        assert text.splitlines()[0] == "value,cdf"
        assert text.splitlines()[1] == "2,1.000000"
        assert text.endswith("\n") and "\r" not in text

    def test_csv_parses_back_to_valid_cdf(self, tmp_path):
        bundle = self.make_bundle(reps=40)
        write_results(bundle, tmp_path)
        for path in tmp_path.glob("*_cdf.csv"):
            lines = path.read_text().splitlines()
            assert lines[0] == "value,cdf"
            rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
            if not rows:
                continue  # a policy without successes ships an empty table
            values = [r[0] for r in rows]
            probs = [r[1] for r in rows]
            assert values == sorted(values)
            assert all(b >= a for a, b in zip(probs, probs[1:]))
            assert math.isclose(probs[-1], 1.0, abs_tol=5e-7)  # 6-decimal formatting

    def test_rewrite_is_byte_identical(self, tmp_path):
        bundle = self.make_bundle()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        write_results(bundle, out_a)
        write_results(bundle, out_b)
        for path_a in out_a.iterdir():
            assert read_bytes(path_a) == read_bytes(out_b / path_a.name)

    def test_failed_table_write_leaves_no_summary(self, tmp_path, monkeypatch):
        bundle = self.make_bundle()
        write_results(bundle, tmp_path)  # an earlier run's summary.json is on disk
        real_write_text = Path.write_text
        csv_writes = []

        def failing_write_text(path, *args, **kwargs):
            if ".csv" in path.name:
                csv_writes.append(path.name)
                if len(csv_writes) == 2:
                    raise OSError("disk full")
            return real_write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing_write_text)
        with pytest.raises(OSError, match="disk full"):
            write_results(bundle, tmp_path)
        monkeypatch.undo()
        assert not (tmp_path / "summary.json").exists()
        assert not list(tmp_path.glob(".*.tmp"))
        write_results(bundle, tmp_path)
        assert (tmp_path / "summary.json").exists()

    def test_rewrite_with_fewer_policies_drops_old_tables(self, tmp_path):
        write_results(self.make_bundle(policies=("HQF", "MLR")), tmp_path)
        written = write_results(self.make_bundle(policies=("HQF",)), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in written)
        assert sorted(p.name for p in written) == ["HQF_hops_cdf.csv", "HQF_snr_cdf.csv", "summary.json"]

    def test_summary_embeds_reproducible_config(self, tmp_path):
        bundle = self.make_bundle()
        write_results(bundle, tmp_path)
        doc = json.loads((tmp_path / "summary.json").read_text())
        cfg = parse_config(doc["metadata"]["config"])
        assert config_document(cfg) == bundle.config_doc
        assert doc["metadata"]["master_seed"] == 3
        assert doc["metadata"]["stream_schema"] == 2
        for policy_doc in doc["policies"].values():
            assert 0.0 <= policy_doc["failure_probability"] <= 1.0


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


class TestSummaryBytes:
    """summary.json is, to the byte, ``json.dumps(doc, indent=2)`` of a document that holds the
    statistics and no CDF rows; each CDF is written once, as its CSV table of ``EmpiricalCdf.steps()``
    at 6 digits (the header alone when a policy never succeeded)."""

    @staticmethod
    def bundle(doc, reps):
        doc = json.loads(json.dumps(doc))
        doc["run"]["repetitions"] = reps
        cfg = parse_config(doc)
        return ResultBundle(config_document(cfg), cfg.master_seed, __version__, aggregate(cfg, run_campaign(cfg)))

    CASES = {
        # PA never succeeds within two hops here, HQF and WF do
        "empty_cdf": ({"policies": ["HQF", "WF", "PA"], "run": {"master_seed": 1, "max_hops": 2}}, 3),
        "desk": (json.loads((WORKLOADS / "desk.json").read_text()), 40),
        "nomlr120": (json.loads((WORKLOADS / "nomlr120.json").read_text()), 40),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_summary_is_the_indented_dump_of_its_document(self, case, tmp_path):
        bundle = self.bundle(*self.CASES[case])
        write_results(bundle, tmp_path)
        text = (tmp_path / "summary.json").read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        assert doc["metadata"]["version"] == __version__
        sizes = []
        for label, s in bundle.summary.policies.items():
            assert not {"hops_cdf", "snr_cdf"} & set(doc["policies"][label]), label
            for table, cdf in (("hops_cdf", s.hops_cdf), ("snr_cdf", s.snr_cdf)):
                rows = [] if cdf is None else list(zip(*(steps.tolist() for steps in cdf.steps())))
                csv = (tmp_path / f"{label}_{table}.csv").read_text().splitlines()
                assert csv == ["value,cdf"] + [f"{v:.6g},{p:.6f}" for v, p in rows], (label, table)
                sizes.append(len(rows))
        assert max(sizes) > 1 and (case != "empty_cdf" or min(sizes) == 0)


class TestMain:
    def test_deterministic_outputs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--reps", "50", "--seed", "7", "--policies", "HQF,WF", "--oracle"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        for path_a in sorted(a.iterdir()):
            assert read_bytes(path_a) == read_bytes(b / path_a.name)
        assert "wrote" in capsys.readouterr().out

    def test_four_policies_four_rows(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["--reps", "10", "--seed", "1", "--policies", "HQF,WF,PA,MLR", "--out", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert sorted(doc["policies"]) == ["HQF", "MLR", "PA", "WF"]

    def test_unknown_policy_lists_valid_names(self, tmp_path, capsys):
        code = run_cli(["--policies", "HQF,BOGUS", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        for name in ("HQF", "WF", "PA", "MLR"):
            assert name in err

    def test_invalid_config_value_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"deployment": {"p_w": 2.0}}))
        assert run_cli(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "p_w" in capsys.readouterr().err

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        assert run_cli(["--seed", "-1", "--reps", "2", "--out", str(tmp_path / "o")]) == 1
        assert "master_seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_1(self, tmp_path, capsys, workers):
        assert run_cli(["--workers", workers, "--reps", "2", "--out", str(tmp_path / "o")]) == 1
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_nan_config_value_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"deployment": {"lambda_g": NaN}}')
        assert run_cli(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "deployment.lambda_g" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"radio": {"fc_ghz": 28}}, "radio.fc_ghz"),
            ({"channel": {"floor_gain_dbi": -10}}, "channel.floor_gain_dbi"),
        ],
    )
    def test_removed_config_key_exits_1(self, tmp_path, capsys, doc, key):
        cfg_path = tmp_path / "old.json"
        cfg_path.write_text(json.dumps(doc))
        assert run_cli(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["los_sigma_db", "nlos_sigma_db", "fading_sigma_db", "los_decay_per_m"])
    def test_negative_channel_spread_or_decay_exits_1(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"channel": {key: -3}}))
        assert run_cli(["--config", str(cfg_path), "--reps", "2", "--out", str(tmp_path / "o")]) == 1
        assert f"channel.{key} must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_fractional_repetitions_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"run": {"repetitions": 2.9}}))
        assert run_cli(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "run.repetitions" in capsys.readouterr().err

    def test_unsampleable_density_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "sparse.json"
        cfg_path.write_text(json.dumps({"deployment": {"lambda_g": 1e-4}, "run": {"repetitions": 1}}))
        with pytest.warns(UserWarning):
            code = run_cli(["--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "deployment.lambda_g" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = run_cli(["--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "results"
        blocker.write_text("a file, not a directory")
        code = run_cli(["--reps", "2", "--out", str(blocker)])
        assert code == 2

    def test_preset_wbf_applies_to_policies(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli([
            "--reps", "10", "--seed", "4", "--policies", "HQF",
            "--preset-wbf", "aggressive_exp", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "summary.json").read_text())
        assert list(doc["policies"]) == ["HQF_aggressive_exp"]
        wbf_doc = doc["metadata"]["config"]["policies"][0]["wbf"]
        assert wbf_doc["kind"] == "exponential"
        assert wbf_doc["gamma"] == 3.0

    @pytest.mark.parametrize(
        "preset, labels",
        [
            ("conservative_poly", ["HQF_conservative_poly", "WF_conservative_poly"]),
            ("NONE", ["HQF", "WF"]),
            (None, ["HQF", "WF"]),
        ],
    )
    def test_policy_flags_equal_the_config_document(self, preset, labels):
        flags = ["--policies", "HQF, wf"] + ([] if preset is None else ["--preset-wbf", preset])
        from_flags = _apply_overrides(parse_config({}), _build_parser().parse_args(flags))
        entries = [{"policy": name} if preset is None else {"policy": name, "wbf": preset} for name in ("HQF", "WF")]
        assert from_flags == parse_config({"policies": entries})
        assert [p.label for p in from_flags.policies] == labels

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--policies", ","], "--policies"),
            (["--policies", "HQF", "--preset-wbf", "bogus"], "bogus"),
            (["--preset-wbf", "none"], "--policies"),
        ],
    )
    def test_bad_policy_flags_exit_1(self, tmp_path, capsys, flags, named):
        assert run_cli(flags + ["--out", str(tmp_path / "o")]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_file_not_utf8_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(b"\xff\xfe{}")
        assert run_cli(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [5, []])
    def test_config_section_not_an_object_exits_1(self, tmp_path, capsys, value):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"deployment": value}))
        assert run_cli(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'deployment'" in err

    def test_unknown_flag_exits_1(self, capsys):
        assert run_cli(["--bogus-flag"]) == 1

    def test_config_file_drives_run(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "policies": [{"policy": "WF", "wbf": "conservative_poly"}],
                    "run": {"repetitions": 8, "master_seed": 11},
                }
            )
        )
        out = tmp_path / "o"
        assert run_cli(["--config", str(cfg_path), "--out", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert list(doc["policies"]) == ["WF_conservative_poly"]
        assert doc["policies"]["WF_conservative_poly"]["repetitions"] == 8

    def test_config_file_named_like_json_text_drives_run(self, tmp_path, monkeypatch):
        """A relative path starting with '{' names a file, not a JSON document."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "{a}.json").write_text(json.dumps({"run": {"repetitions": 3, "master_seed": 2}}))
        assert run_cli(["--config", "{a}.json", "--out", "o"]) == 0
        doc = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert doc["metadata"]["config"]["run"]["repetitions"] == 3

    def test_mlr_rate_past_the_float_range_completes(self, tmp_path, capsys):
        """A wired bias of 4000 dB puts 10 ** (snr / 10) past the largest float; the run still ends cleanly."""
        cfg_path = tmp_path / "huge_bias.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "policies": [{"policy": "MLR", "wbf": {"kind": "polynomial", "gamma_gap_db": 0, "gamma_h_db": 4000}}],
                    "run": {"repetitions": 20},
                }
            )
        )
        out = tmp_path / "o"
        assert run_cli(["--config", str(cfg_path), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads((out / "summary.json").read_text())
        (summary,) = doc["policies"].values()
        assert summary["repetitions"] == 20
