"""Tests for the experiment and scenario command-line interfaces."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

import repro.server.cli as serving_cli
from repro.analysis.cli import EXPERIMENTS, SERVING_COMMANDS, build_parser, main, run_experiments
from repro.scenarios.cli import build_parser as build_scenarios_parser
from repro.scenarios import ScenarioSpec
from repro.scenarios.registry import _REGISTRY, register


class TestRunExperiments:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_experiments(["fig99"])

    def test_runs_small_experiment_and_writes_report(self, tmp_path):
        reports = run_experiments(["fig06"], seed=1, output_dir=tmp_path)
        assert len(reports) == 1
        assert "Figure 6" in reports[0]
        assert (tmp_path / "fig06.txt").exists()


class TestMain:
    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "fig02" in output
        assert "table1" in output

    def test_no_arguments_is_an_error(self, capsys):
        assert main([]) == 2

    def test_named_experiment_prints_report(self, capsys):
        assert main(["fig06", "--seed", "1"]) == 0
        assert "Figure 6" in capsys.readouterr().out


ROOT = Path(__file__).resolve().parents[1]


def _documented_commands():
    """Every ``repro ...`` / ``python -m repro.analysis.cli ...`` command line
    in README.md's code blocks and the serving CLI's docstring, as argv
    after the program name."""
    readme = ROOT.joinpath("README.md").read_text()
    texts = re.findall(r"```[a-z]*\n(.*?)```", readme, re.S)
    texts.append(serving_cli.__doc__)
    commands = []
    for text in texts:
        for line in text.replace("\\\n", " ").splitlines():
            # Leading environment assignments, then the program name.
            command = re.match(
                r"\s*(?:[A-Z_]+=\S*\s+)*(?:python -m repro\.analysis\.cli|repro)\s(.*)", line
            )
            if command:
                words = shlex.split(command.group(1), comments=True)
                commands.append(words[:-1] if words[-1:] == ["&"] else words)
    return commands


class TestDocumentedCommands:
    def test_the_documented_commands_cover_every_group(self):
        groups = {argv[0] for argv in _documented_commands()}
        assert {"scenarios", "fig05", "serve", "query", "serve-daemon", "load", "gateway"} <= groups

    @pytest.mark.parametrize("argv", _documented_commands(), ids=" ".join)
    def test_every_documented_command_parses(self, argv):
        # The dispatch of ``main``, parsing only: nothing runs.
        if argv[0] == "scenarios":
            build_scenarios_parser().parse_args(argv[1:])
        elif argv[0] in SERVING_COMMANDS:
            serving_cli.build_parser().parse_args(argv)
        else:
            args = build_parser().parse_args(argv)
            assert set(args.experiments) <= set(EXPERIMENTS)

    def test_an_option_after_its_subcommand_is_refused(self, capsys):
        # What the README's workload replay said before: ``--index``
        # belongs to ``query``, not to ``workload``.
        with pytest.raises(SystemExit) as exit_info:
            serving_cli.build_parser().parse_args(
                "query --snapshot s.json workload --index vptree".split()
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --index vptree" in capsys.readouterr().err


@pytest.fixture()
def tiny_scenario():
    """Register a fast throwaway scenario and clean it up afterwards."""
    name = "cli-test-tiny"

    def factory() -> ScenarioSpec:
        payload = ScenarioSpec(
            name=name, mode="replay", preset="mp", duration_s=120.0, seed=1
        ).to_dict()
        payload["network"] = {**payload["network"], "nodes": 6}
        return ScenarioSpec.from_dict(payload)

    register(name, factory)
    try:
        yield name
    finally:
        _REGISTRY.pop(name, None)


class TestScenariosCommandGroup:
    def test_list_shows_registered_scenarios(self, capsys):
        assert main(["scenarios", "list"]) == 0
        output = capsys.readouterr().out
        assert "fig07-drift" in output
        assert "planetlab-churn-30pct" in output

    def test_run_prints_summary_and_writes_json(self, capsys, tmp_path, tiny_scenario):
        output_path = tmp_path / "results.json"
        assert (
            main(["scenarios", "run", tiny_scenario, "--output", str(output_path)]) == 0
        )
        assert tiny_scenario in capsys.readouterr().out
        payload = json.loads(output_path.read_text())
        assert payload[0]["name"] == tiny_scenario
        assert "median_of_median_application_error" in payload[0]["metrics"]

    def test_run_unknown_scenario_is_an_error(self, capsys):
        assert main(["scenarios", "run", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_sweep_expands_and_caches(self, capsys, tmp_path, tiny_scenario):
        cache_dir = tmp_path / "cache"
        args = [
            "scenarios",
            "sweep",
            tiny_scenario,
            "--set",
            "history=2,4",
            "--cache",
            str(cache_dir),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "2 cell(s)" in first
        assert f"{tiny_scenario}[history=2]" in first
        assert main(args) == 0
        assert "2 cache hit(s)" in capsys.readouterr().out

    def test_sweep_check_serial_reports_byte_identical(
        self, capsys, tmp_path, tiny_scenario
    ):
        bench_path = tmp_path / "bench.json"
        args = [
            "scenarios",
            "sweep",
            tiny_scenario,
            "--set",
            "history=2,4",
            "--check-serial",
            "--bench-json",
            str(bench_path),
        ]
        assert main(args) == 0
        assert "byte-identical: True" in capsys.readouterr().out
        record = json.loads(bench_path.read_text())
        assert record["byte_identical"] is True
        assert record["cells"] == 2

    def test_sweep_boolean_axis_parses_real_booleans(self, capsys, tiny_scenario):
        # 'false' must become False, not a truthy string (which would
        # silently enable the flag in every cell).
        assert (
            main(["scenarios", "sweep", tiny_scenario, "--set", "noiseless=true,false"])
            == 0
        )
        out = capsys.readouterr().out
        assert f"{tiny_scenario}[noiseless=True]" in out
        assert f"{tiny_scenario}[noiseless=False]" in out

    def test_sweep_duplicate_axis_is_an_error(self, capsys, tiny_scenario):
        args = [
            "scenarios", "sweep", tiny_scenario,
            "--set", "history=2", "--set", "history=4",
        ]
        assert main(args) == 2
        assert "given more than once" in capsys.readouterr().err

    def test_sweep_bad_axis_value_is_a_readable_error(self, capsys, tiny_scenario):
        args = ["scenarios", "sweep", tiny_scenario, "--set", "history=zebra"]
        assert main(args) == 2
        assert "coordinate configuration invalid" in capsys.readouterr().err

    def test_run_backend_override_and_profile(self, capsys, tmp_path):
        profile_path = tmp_path / "profile.json"
        canonical_path = tmp_path / "canonical.json"
        args = [
            "scenarios", "run", "vectorized-strict-small",
            "--profile", str(profile_path),
            "--canonical-output", str(canonical_path),
        ]
        assert main(args) == 0
        assert "profiled" in capsys.readouterr().out
        phases = json.loads(profile_path.read_text())["vectorized-strict-small"]
        for key in ("sample_s", "filter_s", "update_s", "heuristic_s", "ticks"):
            assert key in phases
        canonical = json.loads(canonical_path.read_text())
        assert canonical["results"][0]["metrics"]["strict_equivalence"] == 1.0

    def test_run_backend_override_rejects_invalid_combination(self, capsys):
        args = ["scenarios", "run", "fig07-drift", "--backend", "vectorized"]
        assert main(args) == 2
        assert "requires mode='simulate'" in capsys.readouterr().err

    def test_canonical_output_is_stable_across_worker_counts(
        self, capsys, tmp_path, tiny_scenario
    ):
        paths = []
        for workers in ("1", "2"):
            path = tmp_path / f"canonical-w{workers}.json"
            args = [
                "scenarios", "run", tiny_scenario,
                "--workers", workers, "--canonical-output", str(path),
            ]
            assert main(args) == 0
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_check_serial_reruns_uncached_for_fair_comparison(
        self, capsys, tmp_path, tiny_scenario
    ):
        cache_dir = tmp_path / "cache"
        base_args = [
            "scenarios", "sweep", tiny_scenario,
            "--set", "history=2,4", "--cache", str(cache_dir),
        ]
        assert main(base_args) == 0
        capsys.readouterr()
        assert main([*base_args, "--check-serial"]) == 0
        out = capsys.readouterr().out
        assert "re-running uncached" in out
        assert "byte-identical: True" in out
