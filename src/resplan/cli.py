"""Command line interface: model table, one-shot solve, simulation, sweeps.

Exit codes: 0 success, 2 configuration problems, 3 provable infeasibility
(or any infeasible round under --strict), 4 unexpected internal errors.
All output files are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import pathlib
import sys
import traceback
from dataclasses import replace

from . import config as config_mod
from .errors import (
    ConfigError,
    EmptyFeasibleSet,
    InfeasibleInstance,
    InstanceTooLarge,
    ParseError,
    ValidationError,
)
from .fleet import sample_rates, sample_requests
from .graph import compute_load, memory_load, output_bits
from .harness import CSV_COLUMNS, format_value, round_seeds, run_scenario, sweep
from .solvers import solve_exact, solve_ga

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4

SUMMARY_COLUMNS = (
    "variant",
    "rounds",
    "solved_rounds",
    "feasible_rounds",
    "total_requests",
    "mean_accuracy",
    "mean_latency_s",
    "mean_shared_data_bits",
    "mean_computation_mults",
    "mean_energy_j",
    "mean_objective",
)


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


def _load(args) -> dict:
    source = None if args.config is None else pathlib.Path(args.config)
    if args.preset:
        source = config_mod.preset_text(args.preset)
    return config_mod.load_config(source, overrides=args.overrides, seed=args.seed)


def _out_dir(args) -> str:
    path = args.output_dir or os.environ.get("RESPLAN_OUTPUT_DIR") or "resplan_out"
    os.makedirs(path, exist_ok=True)
    return path


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def cmd_model(args) -> int:
    cfg = _load(args)
    scenario = config_mod.build_scenario(cfg)
    graph = scenario.graph
    columns = ("block_id", "stage", "kind", "droppable", "memory_inputs_bytes",
               "memory_weights_bytes", "memory_both_bytes", "compute_mults",
               "output_bits")
    fh, close = _open_out(args.output)
    try:
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
    finally:
        if close:
            fh.close()
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _load(args)
    scenario = config_mod.build_scenario(cfg)
    for flag, value in (("--requests", args.requests), ("--round", args.round_index)):
        if value is not None and value < 0:
            raise ConfigError(f"{flag} must be >= 0")
    req_rng, rate_rng, solver_seed = round_seeds(scenario.seed, args.round_index)
    if args.requests is not None:
        n_requests = args.requests
    else:
        n_requests = sample_requests(scenario.lam, req_rng, args.round_index).count
    rates = sample_rates(scenario.fleet.n_devices, scenario.rate_lo, scenario.rate_hi,
                         rate_rng, round_index=args.round_index)

    if scenario.solver == "exact":
        result = solve_exact(scenario.graph, scenario.fleet, rates, scenario.profile,
                             scenario.weights, scenario.energy, n_requests,
                             limits=scenario.exact_limits,
                             memory_mode=scenario.memory_mode)
    else:
        result = solve_ga(scenario.graph, scenario.fleet, rates, scenario.profile,
                          scenario.weights, scenario.energy, n_requests,
                          config=replace(scenario.ga, seed=solver_seed),
                          memory_mode=scenario.memory_mode)

    doc = result.as_dict()
    if not args.explain:
        doc.pop("report")
    fh, close = _open_out(args.output)
    try:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    finally:
        if close:
            fh.close()
    if args.strict and not result.feasible:
        print("solve: best assignment violates constraints (strict mode)",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    scenario = config_mod.build_scenario(cfg)
    out_dir = _out_dir(args)

    with open(os.path.join(out_dir, "effective_config.yaml"), "w",
              encoding="utf-8") as fh:
        fh.write(config_mod.effective_yaml(cfg))

    rounds_path = os.path.join(out_dir, "rounds.csv")
    with open(rounds_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")

        def on_record(_label, record):
            fh.write(",".join(format_value(v) for v in record.csv_row()) + "\n")
            fh.flush()

        result = run_scenario(scenario, strict=args.strict, on_record=on_record)

    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result.summary, indent=2, sort_keys=True) + "\n")
    print(f"simulate: {result.summary['rounds']} rounds, "
          f"{result.summary['feasible_rounds']} feasible, files in {out_dir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    scenario = config_mod.build_scenario(cfg)
    axis = config_mod.build_sweep_axis(cfg)
    if axis is None:
        raise ConfigError("sweep command needs a 'sweep' section in the config")
    variants = config_mod.sweep_variants(scenario, axis)
    out_dir = _out_dir(args)

    with open(os.path.join(out_dir, "effective_config.yaml"), "w",
              encoding="utf-8") as fh:
        fh.write(config_mod.effective_yaml(cfg))

    sweep_path = os.path.join(out_dir, "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(("variant",) + CSV_COLUMNS) + "\n")

        def on_record(label, record):
            cells = [label] + [format_value(v) for v in record.csv_row()]
            fh.write(",".join(cells) + "\n")
            fh.flush()

        results = sweep(variants, strict=args.strict, on_record=on_record)

    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for res in results:
            cells = [res.label] + [format_value(res.summary[c])
                                   for c in SUMMARY_COLUMNS[1:]]
            fh.write(",".join(cells) + "\n")
    print(f"sweep: {len(results)} variants, files in {out_dir}")
    return EXIT_OK


COMMANDS = {
    "model": cmd_model,
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


@functools.cache
def _keep_freed_heap() -> None:
    """Have glibc keep up to 4 MB of freed heap instead of returning it.

    The solvers allocate and free a few hundred KB of array temporaries per
    GA generation.  By default glibc hands a free heap top over 128 KB back
    to the kernel, and when the temporaries happen to sit at the top, every
    generation faults them in again: about 80,000 page faults and 6% of the
    time of a default ``simulate`` (2-core Xeon), in some processes and not
    in others, as the heap layout falls.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return  # not glibc
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-2, 4 << 20)  # M_TOP_PAD: free top kept after a trim
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD: smaller blocks use the heap


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
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
