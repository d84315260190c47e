"""Tests for the command-line interface."""

import configparser
import json
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.lsm import SystemConfig


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tune_command_parses_workload(self):
        args = build_parser().parse_args(
            ["tune", "--workload", "0.25", "0.25", "0.25", "0.25", "--rho", "0.5"]
        )
        assert args.rho == 0.5
        assert args.workload == [0.25, 0.25, 0.25, 0.25]

    def test_compare_command_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.expected_index == 11
        assert args.rho == 0.25


class TestCommands:
    def test_workloads_command_lists_table2(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "w0" in out and "w14" in out
        assert "trimodal" in out

    def test_tune_command_outputs_json(self, capsys):
        code = main(
            ["tune", "--workload", "0.25", "0.25", "0.25", "0.25", "--rho", "0.5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "nominal" in payload
        assert "robust" in payload
        assert payload["rho"] == 0.5

    def test_tune_command_without_uncertainty(self, capsys):
        code = main(["tune", "--workload", "0.1", "0.1", "0.1", "0.7", "--rho", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "nominal" in payload
        assert "robust" not in payload

    def test_compare_command_runs_small_simulation(self, capsys):
        code = main(
            ["compare", "--expected-index", "11", "--rho", "0.5", "--num-entries", "4000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nominal" in out and "robust" in out
        assert "I/O reduction" in out


class TestInstall:
    def test_setup_declares_the_command_and_its_dependency(self, tmp_path):
        """What `pip install -e .` installs: the documented `repro-endure`
        command and numpy, the one runtime dependency."""
        subprocess.run(
            [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(tmp_path)],
            cwd=pathlib.Path(__file__).parents[1],
            check=True,
            capture_output=True,
        )
        (egg_info,) = tmp_path.glob("*.egg-info")
        entry_points = configparser.ConfigParser()
        entry_points.read(egg_info / "entry_points.txt")
        assert entry_points["console_scripts"]["repro-endure"] == "repro.cli:main"
        assert (egg_info / "requires.txt").read_text().split() == ["numpy"]


class TestFractionValidation:
    """Every [0, 1] fraction knob dies at the parser with a usage error.

    These used to be plain ``type=float``: an out-of-range value sailed
    through argparse and surfaced (if at all) as a downstream traceback or a
    silently nonsensical trace mix.
    """

    _TUNE = ["tune", "--workload", "0.25", "0.25", "0.25", "0.25", "--rho", "0"]

    def test_tune_help_states_the_default_long_range_selectivity(self, capsys):
        """The help names the value ``tune`` falls back to: the system's."""
        with pytest.raises(SystemExit) as excinfo:
            main(["tune", "--help"])
        assert excinfo.value.code == 0
        default = SystemConfig().long_range_selectivity
        assert f"built-in {default:g})" in " ".join(capsys.readouterr().out.split())

    def test_tune_help_names_every_policy_of_all(self, capsys):
        """``--policy all`` is every policy, not the classic pair plus one."""
        with pytest.raises(SystemExit) as excinfo:
            main(["tune", "--help"])
        assert excinfo.value.code == 0
        assert (
            "'all' = leveling, tiering, lazy-leveling, 1-leveling, fluid)"
            in " ".join(capsys.readouterr().out.split())
        )

    @pytest.mark.parametrize("value", ["1.5", "-0.1", "two"])
    def test_tune_rejects_bad_long_range_fraction(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(self._TUNE + ["--long-range-fraction", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--long-range-fraction" in err
        assert "fraction in [0, 1]" in err or "expected a number" in err

    @pytest.mark.parametrize("value", ["0", "1.5", "-0.2"])
    def test_tune_rejects_bad_long_range_selectivity(self, capsys, value):
        """Selectivity is a share of all entries; zero would make long scans
        degenerate, so the accepted interval is half-open."""
        with pytest.raises(SystemExit) as excinfo:
            main(self._TUNE + ["--long-range-selectivity", value])
        assert excinfo.value.code == 2
        assert "fraction in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1.01", "-1"])
    def test_compare_rejects_bad_long_range_fraction(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--long-range-fraction", value])
        assert excinfo.value.code == 2
        assert "fraction in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "online"])
    @pytest.mark.parametrize("value", ["2", "-0.5"])
    def test_rejects_bad_update_fraction(self, capsys, command, value):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--update-fraction", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--update-fraction" in err
        assert "fraction in [0, 1]" in err

    @pytest.mark.parametrize("command", ["compare", "online"])
    def test_rejects_negative_update_skew(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--update-skew", "-1.0"])
        assert excinfo.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_boundary_fractions_parse(self):
        args = build_parser().parse_args(
            ["compare", "--long-range-fraction", "1.0", "--update-fraction", "0"]
        )
        assert args.long_range_fraction == 1.0
        assert args.update_fraction == 0.0


class TestRadiusAndIndexValidation:
    """``--rho`` / ``--retune-rho`` / ``--expected-index`` die at the parser.

    They used to be plain ``float`` / ``int``: a negative radius surfaced as a
    ``RobustTuner`` traceback (or, on ``tune``, silently dropped the robust
    tuning), index 99 as an ``IndexError`` and index -1 silently as w14.
    """

    _TUNE = ["tune", "--workload", "0.25", "0.25", "0.25", "0.25"]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (_TUNE + ["--rho", "-1"], "non-negative"),
            (["table", "--rho", "-0.5"], "non-negative"),
            (["compare", "--rho", "-0.5"], "non-negative"),
            (["online", "--rho", "-0.5"], "non-negative"),
            (["online", "--retune-rho", "-1"], "non-negative"),
            # A non-positive size used to reach ``SystemConfig`` and die there.
            (_TUNE + ["--num-entries", "-5"], "a positive integer"),
            (["compare", "--num-entries", "0"], "a positive integer"),
        ],
    )
    def test_rejects_a_negative_radius_or_size(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["compare", "online"])
    @pytest.mark.parametrize("value", ["99", "15", "-1", "1.5"])
    def test_rejects_an_expected_index_off_table_2(self, capsys, command, value):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--expected-index", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--expected-index" in err
        assert "Table 2 index in 0..14" in err or "expected an integer" in err

    def test_boundary_values_parse(self):
        parser = build_parser()
        assert parser.parse_args(["compare", "--expected-index", "0"]).expected_index == 0
        assert parser.parse_args(["online", "--expected-index", "14"]).expected_index == 14
        assert parser.parse_args(["compare", "--rho", "0"]).rho == 0.0


class TestBackendFlag:
    def test_compare_backend_defaults_to_simulated(self):
        args = build_parser().parse_args(["compare"])
        assert args.backend == "simulated"
        assert args.data_dir is None

    def test_compare_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--backend", "rocksdb"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_compare_runs_on_the_persistent_backend(self, capsys, tmp_path):
        """End to end: the comparison measured on real SSTable files reports
        the same table structure as the simulated run (the counters are
        byte-identical across backends by construction)."""
        code = main(
            ["compare", "--expected-index", "2", "--num-entries", "4000",
             "--seed", "7", "--backend", "persistent",
             "--data-dir", str(tmp_path / "trees")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "I/O reduction" in out
        # The user-chosen data dir keeps the tree files for inspection.
        manifests = list((tmp_path / "trees").glob("tree-*/MANIFEST.json"))
        assert manifests


class TestPolicyFlag:
    def test_tune_accepts_lazy_leveling(self, capsys):
        code = main(
            [
                "tune",
                "--workload", "0.45", "0.05", "0.0", "0.5",
                "--rho", "0",
                "--policy", "lazy-leveling",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policies"] == ["lazy-leveling"]
        assert payload["nominal"]["policy"] == "lazy-leveling"

    def test_tune_policy_all_searches_every_policy(self, capsys):
        code = main(
            ["tune", "--workload", "0.25", "0.25", "0.25", "0.25", "--rho", "0",
             "--policy", "all"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policies"] == [
            "leveling", "tiering", "lazy-leveling", "1-leveling", "fluid"
        ]

    def test_tune_policy_classic_matches_the_paper_pair(self, capsys):
        code = main(
            ["tune", "--workload", "0.25", "0.25", "0.25", "0.25", "--rho", "0",
             "--policy", "classic"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policies"] == ["leveling", "tiering"]

    def test_tune_num_entries_scales_the_system(self, capsys):
        code = main(
            ["tune", "--workload", "0.25", "0.25", "0.25", "0.25", "--rho", "0",
             "--num-entries", "1000000"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_entries"] == 1000000

    def test_tune_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["tune", "--workload", "0.25", "0.25", "0.25", "0.25",
                 "--policy", "fifo"]
            )

    def test_tune_defaults_to_the_classic_policy_pair(self, capsys):
        code = main(["tune", "--workload", "0.25", "0.25", "0.25", "0.25", "--rho", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policies"] == ["leveling", "tiering"]


def _run_main(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


#: A fluid tune invocation for pinned ``--k-bounds`` vectors: any non-empty
#: vector is accepted, levels deeper than it reusing its last element.
_KBOUNDS_TUNE_ARGS = [
    "tune", "--workload", "0.1", "0.3", "0.1", "0.5",
    "--rho", "0", "--policy", "fluid", "--num-entries", "100000",
]


class TestKBoundsFlag:
    """--k-bounds parsing and validation: every malformation dies at the
    parser with a usage error, matching the validated-knob convention."""

    def test_pinned_vector_round_trips_to_json(self, capsys):
        out = _run_main(
            capsys, _KBOUNDS_TUNE_ARGS + ["--k-bounds", "4,2,1,1,1"]
        )
        payload = json.loads(out)
        assert payload["nominal"]["policy"] == "fluid"
        assert payload["nominal"]["k_bounds"] == [4.0, 2.0, 1.0, 1.0, 1.0]
        assert payload["nominal"]["z_bound"] == 1.0
        assert "k_bound" not in payload["nominal"]

    def test_pinned_vector_with_z_bound(self, capsys):
        out = _run_main(
            capsys,
            _KBOUNDS_TUNE_ARGS + ["--k-bounds", "4,2,1,1,1,1", "--z-bound", "2"],
        )
        assert json.loads(out)["nominal"]["z_bound"] == 2.0

    def test_pinned_vector_of_any_length_is_deployed_as_given(self, capsys):
        """The level count is only known after the solve; a short vector
        extends by its last element, for the nominal and the robust solve
        alike."""
        out = _run_main(
            capsys,
            [a if a != "0" else "0.25" for a in _KBOUNDS_TUNE_ARGS]
            + ["--k-bounds", "4,2,1"],
        )
        payload = json.loads(out)
        assert payload["nominal"]["k_bounds"] == [4.0, 2.0, 1.0]
        assert payload["robust"]["k_bounds"] == [4.0, 2.0, 1.0]

    def test_rejects_empty_value(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(_KBOUNDS_TUNE_ARGS + ["--k-bounds", ""])
        assert excinfo.value.code == 2
        assert "empty value" in capsys.readouterr().err

    def test_rejects_empty_entry(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(_KBOUNDS_TUNE_ARGS + ["--k-bounds", "4,,1"])
        assert excinfo.value.code == 2
        assert "empty entry" in capsys.readouterr().err

    def test_rejects_non_numeric_entries(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(_KBOUNDS_TUNE_ARGS + ["--k-bounds", "4,two,1"])
        assert excinfo.value.code == 2
        assert "expected a number" in capsys.readouterr().err

    def test_rejects_bounds_below_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(_KBOUNDS_TUNE_ARGS + ["--k-bounds", "4,0.5,1"])
        assert excinfo.value.code == 2
        assert "at least 1" in capsys.readouterr().err

    def test_rejects_k_bounds_without_fluid_policy(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["tune", "--workload", "0.25", "0.25", "0.25", "0.25",
                 "--rho", "0", "--k-bounds", "4,2,1"]
            )
        assert excinfo.value.code == 2
        assert "--policy fluid" in capsys.readouterr().err

    def test_rejects_k_bounds_combined_with_k_vector_search(self, capsys):
        """A pinned vector and an automatic vector search contradict each
        other (the search would rewrite the pin); the CLI refuses both."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                _KBOUNDS_TUNE_ARGS
                + ["--k-bounds", "4,2,1,1,1", "--k-vector-search"]
            )
        assert excinfo.value.code == 2
        assert "--k-vector-search" in capsys.readouterr().err

    def test_rejects_z_bound_without_k_bounds(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(_KBOUNDS_TUNE_ARGS + ["--z-bound", "2"])
        assert excinfo.value.code == 2
        assert "--z-bound" in capsys.readouterr().err

    def test_rejects_sub_unit_z_bound(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                _KBOUNDS_TUNE_ARGS + ["--k-bounds", "4,2", "--z-bound", "0"]
            )
        assert excinfo.value.code == 2
        assert "at least 1" in capsys.readouterr().err

    def test_k_vector_search_flag_tunes_a_vector(self, capsys):
        out = _run_main(
            capsys,
            ["tune", "--workload", "0.05", "0.25", "0.05", "0.65",
             "--rho", "0", "--policy", "fluid",
             "--long-range-fraction", "0.3", "--k-vector-search"],
        )
        payload = json.loads(out)
        assert payload["nominal"]["policy"] == "fluid"
        # The vector search surfaced a per-level (non-uniform) ladder here.
        assert "k_bounds" in payload["nominal"]

    def test_k_vector_search_is_byte_identical(self, capsys):
        argv = [
            "tune", "--workload", "0.05", "0.25", "0.05", "0.65",
            "--rho", "0.25", "--policy", "fluid",
            "--long-range-fraction", "0.3", "--k-vector-search",
        ]
        assert _run_main(capsys, argv) == _run_main(capsys, argv)


#: Tiny, fast settings shared by the online-command tests.
_ONLINE_SMOKE_ARGS = [
    "online",
    "--num-entries", "3000",
    "--queries-per-workload", "150",
    "--sessions-per-phase", "2",
    "--window", "200",
    "--check-interval", "50",
    "--min-observations", "100",
    "--cooldown", "400",
    "--confirm-checks", "2",
    "--seed", "7",
]


class TestOnlineCommand:
    def test_online_defaults_parse(self):
        args = build_parser().parse_args(["online"])
        assert args.expected_index == 11
        assert args.phases == ["read", "write"]
        assert args.mode == "nominal"
        assert args.threshold is None
        assert args.migration == "full"
        assert not args.rho_adaptive

    def test_online_rejects_unknown_phase(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["online", "--phases", "compaction"])

    def test_online_rejects_unknown_migration_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["online", "--migration", "eventually"])

    def test_online_runs_a_tiny_drifting_sequence(self, capsys):
        out = _run_main(capsys, _ONLINE_SMOKE_ARGS)
        assert "nominal" in out and "adaptive" in out
        assert "phase-read" in out and "phase-write" in out
        assert "mean I/Os per query" in out

    def test_online_emits_machine_readable_json(self, capsys):
        payload = json.loads(_run_main(capsys, _ONLINE_SMOKE_ARGS + ["--json"]))
        assert set(payload) == {
            "expected_workload", "rho", "observed_divergence", "tunings",
            "final_tuning", "sessions", "events", "variants", "summary",
        }
        assert {"nominal", "robust", "phase-read", "phase-write"} <= set(
            payload["tunings"]
        )
        for session in payload["sessions"]:
            assert "adaptive" in session["system_ios"]

    def test_online_runs_with_incremental_migration_and_adaptive_rho(self, capsys):
        payload = json.loads(_run_main(
            capsys,
            _ONLINE_SMOKE_ARGS + [
                "--migration", "incremental",
                "--migration-step-ops", "64",
                "--migration-step-pages", "16",
                "--mode", "robust",
                "--rho-adaptive",
                "--json",
            ],
        ))
        for event in payload["events"]:
            if event["migrated"]:
                assert event["migration_steps"] >= 1
            assert "rho" in event["decision"]

    def test_online_rejects_rho_adaptive_without_robust_mode(self, capsys):
        """--rho-adaptive would silently widen a ball no nominal tuning
        covers; the CLI refuses the combination outright."""
        with pytest.raises(SystemExit) as excinfo:
            main(["online", "--rho-adaptive", "--mode", "nominal"])
        assert excinfo.value.code == 2
        assert "rho_adaptive requires mode='robust'" in capsys.readouterr().err

    def test_online_accepts_large_retune_rho_without_adaptivity(self):
        """A radius above the adaptive cap must not crash a non-adaptive
        run (the cap only bounds the *widening*)."""
        from repro.lsm import simulator_system
        from repro.online import AdaptiveTuner, OnlineConfig

        config = OnlineConfig(rho=5.0, mode="robust")
        tuner = AdaptiveTuner(simulator_system(1_000), config)
        assert tuner.effective_rho(10.0) == 5.0  # not adaptive: unwidened

    def test_online_rejects_negative_volatility_gain(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["online", "--volatility-gain", "-1"])
        assert "must be non-negative" in capsys.readouterr().err


class TestOnlineKnobValidation:
    """Bad knob values die at the parser with a clear usage error, not a
    downstream traceback."""

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--window", "0"),
            ("--window", "-5"),
            ("--confirm-checks", "0"),
            ("--cooldown", "-1"),
            ("--check-interval", "0"),
            ("--migration-step-ops", "0"),
            ("--migration-step-pages", "-3"),
            ("--queries-per-workload", "0"),
            ("--sessions-per-phase", "0"),
            ("--horizon", "0"),
            ("--min-observations", "-1"),
            # Unbounded until the flag took its bound from the field.
            ("--threshold", "-1"),
        ],
    )
    def test_rejects_out_of_range_values(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["online", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "integer" in err or "non-negative" in err

    def test_a_cross_field_rule_is_a_usage_error_too(self, capsys):
        """The starvation bound may not undercut the step cadence: the config
        rejects the pair, the CLI reports it like any single bad value."""
        with pytest.raises(SystemExit) as excinfo:
            main(["online", "--admission", "queue-depth",
                  "--admission-starvation-ops", "10"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "starvation_ops must be at least step_ops" in err
        assert "Traceback" not in err

    def test_rejects_non_integer_values(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["online", "--window", "many"])
        assert "expected an integer" in capsys.readouterr().err

    def test_boundary_values_parse(self):
        args = build_parser().parse_args(
            ["online", "--confirm-checks", "1", "--cooldown", "0", "--window", "1"]
        )
        assert args.confirm_checks == 1
        assert args.cooldown == 0
        assert args.window == 1


class TestSeedFlag:
    def test_compare_same_seed_is_reproducible(self, capsys):
        argv = [
            "compare", "--expected-index", "11", "--rho", "0.5",
            "--num-entries", "3000", "--seed", "123", "--json",
        ]
        first = _run_main(capsys, argv)
        second = _run_main(capsys, argv)
        assert first == second

    def test_online_same_seed_is_reproducible(self, capsys):
        first = _run_main(capsys, _ONLINE_SMOKE_ARGS + ["--json"])
        second = _run_main(capsys, _ONLINE_SMOKE_ARGS + ["--json"])
        assert first == second

    @pytest.mark.parametrize("migration", ["full", "incremental"])
    def test_online_seed_is_byte_identical_under_both_migration_modes(
        self, capsys, migration
    ):
        """`online --seed N --json` twice -> byte-identical output whichever
        migration executor runs (the incremental plan included)."""
        argv = _ONLINE_SMOKE_ARGS + [
            "--migration", migration,
            "--migration-step-ops", "64",
            "--json",
        ]
        first = _run_main(capsys, argv)
        second = _run_main(capsys, argv)
        assert first == second

    def test_tune_fluid_is_byte_identical(self, capsys):
        """`tune` twice -> byte-identical JSON, fluid search space included
        (the (K, Z) sweep and the polish are deterministic)."""
        argv = [
            "tune", "--workload", "0.1", "0.3", "0.1", "0.5",
            "--rho", "0.25", "--policy", "fluid",
            "--long-range-fraction", "0.3",
        ]
        first = _run_main(capsys, argv)
        second = _run_main(capsys, argv)
        assert first == second
        payload = json.loads(first)
        assert payload["nominal"]["policy"] == "fluid"
        assert {"k_bound", "z_bound"} <= set(payload["nominal"])
        assert {"k_bound", "z_bound"} <= set(payload["robust"])

    def test_tune_takes_no_seed(self, capsys):
        """The tuners are deterministic, so `tune` has no `--seed` to ignore."""
        with pytest.raises(SystemExit) as excinfo:
            main(["tune", "--workload", "0.25", "0.25", "0.25", "0.25", "--seed", "7"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --seed 7" in err
        assert "Traceback" not in err

    def test_compare_fluid_same_seed_is_byte_identical(self, capsys):
        """`compare --seed N` twice -> byte-identical JSON for a fluid tuning
        deployed on the simulator with a mixed short/long range trace."""
        argv = [
            "compare", "--expected-index", "11", "--rho", "0.25",
            "--num-entries", "3000", "--policy", "fluid",
            "--long-range-fraction", "0.4", "--long-scan-keys", "128",
            "--seed", "31", "--json",
        ]
        first = _run_main(capsys, argv)
        second = _run_main(capsys, argv)
        assert first == second
        payload = json.loads(first)
        assert payload["tunings"]["nominal"]["policy"] == "fluid"
        assert payload["expected_workload"]["long_range_fraction"] == 0.4


class TestCompareJson:
    def test_compare_emits_machine_readable_json(self, capsys):
        code = main(
            ["compare", "--expected-index", "11", "--rho", "0.5",
             "--num-entries", "3000", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "expected_workload", "rho", "observed_divergence",
            "tunings", "sessions", "summary",
        }
        assert set(payload["tunings"]) == {"nominal", "robust"}
        assert payload["sessions"], "at least one session measurement"
        for session in payload["sessions"]:
            assert set(session["system_ios"]) == {"nominal", "robust"}


class TestBatchExecutionFlags:
    def test_max_batch_ops_default(self):
        args = build_parser().parse_args(["compare"])
        assert args.max_batch_ops == 4_096

    def test_max_batch_ops_parses(self):
        args = build_parser().parse_args(["online", "--max-batch-ops", "128"])
        assert args.max_batch_ops == 128

    def test_max_batch_ops_rejects_non_positive(self):
        for bad in ("0", "-4", "1.5"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["compare", "--max-batch-ops", bad])

    def test_compare_output_does_not_depend_on_the_batch_bound(self, capsys):
        """One read per span (the scalar ``get`` path) prints the same JSON."""
        argv = ["compare", "--num-entries", "4000", "--seed", "3", "--json"]
        assert main(argv) == 0
        batched = json.loads(capsys.readouterr().out)
        assert main(argv + ["--max-batch-ops", "1"]) == 0
        scalar = json.loads(capsys.readouterr().out)
        assert batched == scalar


class TestServingFlags:
    """--num-shards on compare, --admission on online."""

    def test_defaults(self):
        assert build_parser().parse_args(["compare"]).num_shards == 1
        args = build_parser().parse_args(["online"])
        assert args.admission == "fixed"
        assert args.admission_max_backlog == 256
        assert args.admission_starvation_ops == 4096
        assert args.admission_idle_steps == 8

    def test_num_shards_rejects_non_positive(self):
        for bad in ("0", "-2", "1.5"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["compare", "--num-shards", bad])

    def test_online_rejects_unknown_admission(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["online", "--admission", "eager"])

    def test_compare_with_shards_prints_the_fleet_table(self, capsys):
        out = _run_main(
            capsys,
            ["compare", "--expected-index", "11", "--num-entries", "4000",
             "--seed", "7", "--num-shards", "2"],
        )
        assert "shards=2" in out
        assert "fleet io/q" in out
        assert "wall-clock critical-path=" in out

    def test_compare_with_shards_emits_json(self, capsys):
        payload = json.loads(_run_main(
            capsys,
            ["compare", "--expected-index", "11", "--num-entries", "4000",
             "--seed", "7", "--num-shards", "2", "--json"],
        ))
        unsharded = json.loads(_run_main(
            capsys,
            ["compare", "--expected-index", "11", "--num-entries", "4000",
             "--seed", "7", "--json"],
        ))
        assert set(payload) == set(unsharded) | {"num_shards", "results"}
        assert set(payload["tunings"]) == {"nominal", "robust"}
        assert payload["num_shards"] == 2
        for result in payload["results"].values():
            assert len(result["shard_ios"]) == 2
            assert {"p50", "p95", "worst"} <= set(result["shard_percentiles"])

    def test_online_runs_under_queue_depth_admission(self, capsys):
        payload = json.loads(_run_main(
            capsys,
            _ONLINE_SMOKE_ARGS + [
                "--migration", "incremental",
                "--migration-step-ops", "64",
                "--migration-step-pages", "16",
                "--admission", "queue-depth",
                "--admission-max-backlog", "32",
                "--admission-starvation-ops", "512",
                "--admission-idle-steps", "4",
                "--json",
            ],
        ))
        assert "sessions" in payload and "events" in payload
