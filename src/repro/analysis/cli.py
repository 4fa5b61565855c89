"""Command-line entry point for experiments, scenarios and serving (``repro``).

Usage::

    python -m repro.analysis.cli --list
    python -m repro.analysis.cli fig05 table1
    python -m repro.analysis.cli --all
    python -m repro.analysis.cli fig13 --output results/
    python -m repro.analysis.cli scenarios list
    python -m repro.analysis.cli scenarios sweep knn-overlay --set window=16,32
    python -m repro.analysis.cli serve mesh-replay --out snapshot.json
    python -m repro.analysis.cli query --snapshot snapshot.json knn host-0003
    python -m repro.analysis.cli serve-daemon --snapshot snapshot.json --port 9917
    python -m repro.analysis.cli load --port 9917 --count 5000 --mix mixed
    python -m repro.analysis.cli health --port 9917 --sections relative_error
    python -m repro.analysis.cli gateway --config gateway.json --port 8080

Each experiment prints its paper-style report to stdout; ``--output DIR``
additionally writes one ``<experiment>.txt`` file per experiment so runs
can be archived and diffed.  The command name picks one of three groups:
``scenarios`` (see :mod:`repro.scenarios.cli`) lists and executes
declarative scenarios on the sharded engine; the serving commands
(:data:`SERVING_COMMANDS`, see :mod:`repro.server.cli`) serve coordinates
in-process, over TCP and over HTTP and query, load-test and watch them;
anything else names experiments.  With the package installed, the console
script ``repro`` exposes the same interface (``repro scenarios sweep ...``,
``repro serve ...``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis import experiments as experiment_package
from repro.analysis.experiments import EXPERIMENTS

__all__ = ["main", "run_experiments"]

#: Commands routed to the serving command tree, :mod:`repro.server.cli`.
SERVING_COMMANDS = (
    "serve", "query", "serve-daemon", "gateway", "load", "metrics", "health", "watch",
)

#: Maps experiment id to its module (for format_report access).
_MODULES = {
    "fig02": experiment_package.fig02_raw_histogram,
    "fig03": experiment_package.fig03_single_link,
    "fig04": experiment_package.fig04_history_size,
    "fig05": experiment_package.fig05_filter_cdfs,
    "table1": experiment_package.table1_ewma,
    "fig06": experiment_package.fig06_confidence,
    "fig07": experiment_package.fig07_drift,
    "fig08": experiment_package.fig08_threshold_sweep,
    "fig09": experiment_package.fig09_window_sweep,
    "fig10": experiment_package.fig10_heuristic_compare,
    "fig11": experiment_package.fig11_app_vs_raw,
    "fig12": experiment_package.fig12_app_centroid,
    "fig13": experiment_package.fig13_deployment_cdfs,
    "fig14": experiment_package.fig14_timeseries,
}


def run_experiments(
    names: Sequence[str],
    *,
    seed: int = 0,
    output_dir: Optional[Path] = None,
) -> List[str]:
    """Run the named experiments and return their formatted reports."""
    reports: List[str] = []
    for name in names:
        if name not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise ValueError(f"unknown experiment {name!r}; known: {known}")
        module = _MODULES[name]
        started = time.time()
        result = module.run(seed=seed)
        report = module.format_report(result)
        elapsed = time.time() - started
        header = f"=== {name} (completed in {elapsed:.1f}s) ==="
        full_report = f"{header}\n{report}\n"
        reports.append(full_report)
        if output_dir is not None:
            output_dir.mkdir(parents=True, exist_ok=True)
            (output_dir / f"{name}.txt").write_text(full_report)
    return reports


def build_parser() -> argparse.ArgumentParser:
    """The experiment parser: everything but the scenario and serving groups."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the paper's figures and tables from the reproduction "
            "('repro fig05 table1'), or drive declarative scenarios "
            "('repro scenarios list|run|sweep ...')."
        ),
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids (e.g. fig05 table1)")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument("--output", type=Path, default=None, help="directory for report files")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "scenarios":
        # The scenario command group has its own parser; everything after
        # the group name belongs to it.
        from repro.scenarios.cli import main as scenarios_main

        return scenarios_main(argv[1:])
    if argv and argv[0] in SERVING_COMMANDS:
        # The serving command tree (one parser, one error policy) keeps
        # the command name: its parser dispatches on it.
        from repro.server.cli import main as serving_main

        return serving_main(argv)

    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(EXPERIMENTS):
            doc = (_MODULES[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name:8s} {doc}")
        return 0

    names = sorted(EXPERIMENTS) if args.all else list(args.experiments)
    if not names:
        parser.print_usage()
        print("error: name at least one experiment, or pass --all / --list", file=sys.stderr)
        return 2

    for report in run_experiments(names, seed=args.seed, output_dir=args.output):
        print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
