"""Command line interface: model table, one-shot solve, simulation, sweeps.

Exit codes: 0 success, 2 configuration problems, 3 provable infeasibility
(or any infeasible round under --strict), 4 unexpected internal errors.
All output files are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import pathlib
import sys
import traceback

from . import config as config_mod
from .errors import (
    ConfigError,
    EmptyFeasibleSet,
    InfeasibleInstance,
    InstanceTooLarge,
    ParseError,
    ValidationError,
)
# Unused here; benchmark/layers.py wraps these names until ROADMAP item 2.
from .fleet import sample_rates, sample_requests  # noqa: F401
from .graph import compute_load, memory_load, output_bits
from .harness import CSV_COLUMNS, format_value, run_scenario, solve_round, sweep
from .solvers import _keep_freed_heap
# Unused here; benchmark/layers.py wraps these names until ROADMAP item 2.
from .solvers import solve_exact, solve_ga  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # No parser takes an abbreviated option: a prefix would read simulate's
    # ``--output -`` (the stdout spelling of model and solve) as
    # ``--output-dir -`` and write into a directory named "-".
    parser = argparse.ArgumentParser(
        prog="resplan",
        description="Placement optimizer and round simulator for distributed "
                    "residual-network inference on constrained device fleets.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        src = p.add_mutually_exclusive_group()
        src.add_argument("--config", help="YAML scenario file")
        src.add_argument("--preset", choices=config_mod.PRESET_NAMES,
                         help="packaged scenario preset")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config key, e.g. solver.generations=50")
        p.add_argument("--seed", type=int, default=None,
                       help="override scenario.seed")
        p.add_argument("--strict", action="store_true",
                       help="fail (exit 3) instead of reporting infeasible results")

    p_model = sub.add_parser("model", help="per-block memory/compute/output table",
                             allow_abbrev=False)
    common(p_model)
    p_model.add_argument("--output", default="-", help="CSV path, or - for stdout")

    p_solve = sub.add_parser("solve", help="solve a single round and print JSON",
                             allow_abbrev=False)
    common(p_solve)
    p_solve.add_argument("--requests", type=int, default=None,
                         help="fixed request count (default: Poisson draw)")
    p_solve.add_argument("--round", type=int, default=0, dest="round_index",
                         help="round index used for seeding (default 0)")
    p_solve.add_argument("--explain", action="store_true",
                         help="include the per-constraint feasibility report")
    p_solve.add_argument("--output", default="-", help="JSON path, or - for stdout")

    p_sim = sub.add_parser("simulate", help="run all rounds and write rounds.csv",
                           allow_abbrev=False)
    common(p_sim)
    p_sim.add_argument("--output-dir", default=None,
                       help="directory for rounds.csv, summary.json, "
                            "effective_config.yaml (default $RESPLAN_OUTPUT_DIR or ./resplan_out)")

    p_sweep = sub.add_parser("sweep", help="run the configured sweep and write CSVs",
                             allow_abbrev=False)
    common(p_sweep)
    p_sweep.add_argument("--output-dir", default=None,
                         help="directory for sweep.csv, summary.csv, "
                              "effective_config.yaml (default $RESPLAN_OUTPUT_DIR or ./resplan_out)")

    return parser


def _load(args):
    """The config and the scenario built from it, once for every command."""
    source = None if args.config is None else pathlib.Path(args.config)
    if args.preset:
        source = config_mod.preset_text(args.preset)
    cfg = config_mod.load_config(source, overrides=args.overrides, seed=args.seed)
    return cfg, config_mod.build_scenario(cfg)


@contextlib.contextmanager
def _output(path: str):
    """``--output`` opened for writing; ``-`` is stdout, which stays open."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as fh:
        yield fh


def _write_rounds(args, cfg, csv_name: str, run):
    """Write effective_config.yaml, then one CSV row per round as
    ``run(on_record)`` reports it; sweep.csv leads with the variant label.

    Returns the output directory and what ``run`` returned.
    """
    out_dir = args.output_dir or os.environ.get("RESPLAN_OUTPUT_DIR") or "resplan_out"
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "effective_config.yaml"), "w",
              encoding="utf-8") as fh:
        fh.write(config_mod.effective_yaml(cfg))

    labelled = csv_name == "sweep.csv"
    with open(os.path.join(out_dir, csv_name), "w", encoding="utf-8") as fh:
        fh.write(",".join(("variant",) * labelled + CSV_COLUMNS) + "\n")

        def on_record(label, record):
            cells = [label] * labelled + [format_value(v) for v in record.csv_row()]
            fh.write(",".join(cells) + "\n")
            fh.flush()

        return out_dir, run(on_record)


def cmd_model(args, cfg, scenario) -> int:
    graph = scenario.graph
    columns = ("block_id", "stage", "kind", "droppable", "memory_inputs_bytes",
               "memory_weights_bytes", "memory_both_bytes", "compute_mults",
               "output_bits")
    with _output(args.output) as fh:
        fh.write(",".join(columns) + "\n")
        for b in graph.blocks:
            row = (
                b.block_id, b.stage, b.kind, int(b.droppable),
                memory_load(b, "inputs", graph.weight_bytes),
                memory_load(b, "weights", graph.weight_bytes),
                memory_load(b, "both", graph.weight_bytes),
                compute_load(b),
                output_bits(b, graph.weight_bytes),
            )
            fh.write(",".join(str(v) for v in row) + "\n")
    return EXIT_OK


def cmd_solve(args, cfg, scenario) -> int:
    for flag, value in (("--requests", args.requests), ("--round", args.round_index)):
        if value is not None and value < 0:
            raise ConfigError(f"{flag} must be >= 0")
    _n_requests, result, error = solve_round(scenario, args.round_index, args.requests)
    if error is not None:
        raise error

    doc = result.as_dict()
    if not args.explain:
        doc.pop("report")
    with _output(args.output) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if args.strict and not result.feasible:
        print("solve: best assignment violates constraints (strict mode)",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_simulate(args, cfg, scenario) -> int:
    out_dir, result = _write_rounds(
        args, cfg, "rounds.csv",
        lambda on_record: run_scenario(scenario, strict=args.strict, on_record=on_record))

    # Strict JSON: a mean over no solved round is null, not NaN.
    summary = dict(result.summary)
    if not summary["solved_rounds"]:
        summary.update((key, None) for key in summary if key.startswith("mean_"))
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n")
    print(f"simulate: {summary['rounds']} rounds, "
          f"{summary['feasible_rounds']} feasible, files in {out_dir}")
    return EXIT_OK


def cmd_sweep(args, cfg, scenario) -> int:
    axis = config_mod.build_sweep_axis(cfg)
    if axis is None:
        raise ConfigError("sweep command needs a 'sweep' section in the config")
    variants = config_mod.sweep_variants(scenario, axis)
    out_dir, results = _write_rounds(
        args, cfg, "sweep.csv",
        lambda on_record: sweep(variants, strict=args.strict, on_record=on_record))

    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(("variant", *results[0].summary)) + "\n")
        for res in results:
            cells = [res.label] + [format_value(v) for v in res.summary.values()]
            fh.write(",".join(cells) + "\n")
    print(f"sweep: {len(results)} variants, files in {out_dir}")
    return EXIT_OK


COMMANDS = {
    "model": cmd_model,
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args, *_load(args))
    except (ConfigError, ParseError, ValidationError, InstanceTooLarge) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleInstance, EmptyFeasibleSet) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception:  # pragma: no cover - safety net
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
