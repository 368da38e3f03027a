"""Command-line interface: quick reports from the terminal.

Usage::

    python -m repro nodes                 # the built-in node library
    python -m repro node 65nm             # one node's full parameter set
    python -m repro scorecard             # the end-of-road table
    python -m repro leakage               # Tab B leakage fractions
    python -m repro figures               # index of figure benchmarks
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import List, Optional


def _print_table(rows, columns=None) -> None:
    if not rows:
        print("(no rows)")
        return
    columns = columns or list(rows[0].keys())
    header = " | ".join(f"{c:>18}" for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            cells.append(f"{value:>18.5g}" if isinstance(value, float)
                         else f"{value!s:>18}")
        print(" | ".join(cells))


def cmd_nodes(_args) -> int:
    from .technology import all_nodes
    rows = []
    for node in all_nodes():
        row = {"node": node.name}
        row.update(node.summary())
        rows.append(row)
    _print_table(rows, columns=["node", "vdd_V", "vth_V", "tox_nm",
                                "wire_pitch_nm", "overdrive_V",
                                "sigma_vt_min_mV", "body_factor"])
    return 0


def _nodes(names: Optional[str]):
    """The nodes a comma-separated ``--nodes`` value lists, resolved
    before any of them runs; every node only when the flag is absent."""
    from .technology import all_nodes, get_node
    if names is None:
        return all_nodes()
    return [get_node(name) for name in names.split(",")]


def cmd_node(args) -> int:
    from .technology import get_node
    node = get_node(args.name)
    print(node)
    for key, value in node.summary().items():
        print(f"  {key:>22}: {value:.5g}")
    return 0


def cmd_scorecard(args) -> int:
    from .core import end_of_road_table
    from .technology import all_nodes
    rows = end_of_road_table(all_nodes(),
                             operating_temperature=args.temperature)
    _print_table(rows, columns=["node", "fo4_ps", "leakage_fraction",
                                "wc_energy_penalty", "analog_power_rel",
                                "sync_region_mm", "body_bias_mV",
                                "benefit_vs_prev"])
    return 0


def cmd_leakage(args) -> int:
    from .digital import leakage_fraction_trend
    from .technology import all_nodes
    hot = [node.at_temperature(args.temperature)
           for node in all_nodes()]
    rows = leakage_fraction_trend(hot, n_gates=args.gates,
                                  frequency=args.frequency)
    _print_table(rows)
    return 0


def cmd_report(args) -> int:
    from .core.report import generate_report, write_report
    if args.output:
        write_report(args.output,
                     operating_temperature=args.temperature)
        print(f"report written to {args.output}")
    else:
        generate_report(stream=sys.stdout,
                        operating_temperature=args.temperature)
    return 0


def _exec_policy_and_chaos(args):
    """(RetryPolicy, ChaosPlan | None) from the shared exec flags."""
    from .exec import ChaosPlan, ChaosSpec, RetryPolicy
    from .exec.chaos import check_fault_rates
    policy = RetryPolicy(max_retries=args.retries,
                         timeout_s=args.timeout,
                         backoff_initial_s=args.backoff)
    # The rates are checked even when no --chaos-seed arms them.
    check_fault_rates(args.chaos_crash, args.chaos_hang,
                      args.chaos_poison)
    chaos = None
    if args.chaos_seed is not None:
        chaos = ChaosPlan(
            ChaosSpec(seed=args.chaos_seed,
                      crash_rate=args.chaos_crash,
                      hang_rate=args.chaos_hang,
                      poison_rate=args.chaos_poison),
            policy=policy)
    return policy, chaos


def _run_workload(workload, args):
    """Run one workload through the sharded executor (CLI flags)."""
    from .exec import run_sharded
    policy, chaos = _exec_policy_and_chaos(args)
    return run_sharded(workload, n_shards=args.shards,
                       policy=policy, backend=args.backend,
                       checkpoint=args.checkpoint,
                       resume=args.resume, chaos=chaos,
                       strict=args.strict)


def _print_partial(partial) -> None:
    """Degraded-mode output: honest coverage, no fake full rows."""
    print(f"warning: {partial.summary()}", file=sys.stderr)
    row = dict(partial.statistics)
    if partial.yield_bounds:
        wilson = partial.yield_bounds["wilson"]
        exact = partial.yield_bounds["clopper_pearson"]
        row.update({"wilson_low": wilson.lower,
                    "wilson_high": wilson.upper,
                    "exact_low": exact.lower,
                    "exact_high": exact.upper})
    _print_table([row])


def cmd_yield(args) -> int:
    from .exec import (PartialResult, YieldWorkload,
                       clopper_pearson_interval, wilson_interval)
    workload = YieldWorkload(
        node_name=args.node, metric=args.metric, limit=args.limit,
        n_dies=args.dies, seed=args.seed)
    result = _run_workload(workload, args)
    if isinstance(result, PartialResult):
        _print_partial(result)
        return 0
    value = result.value
    wilson = wilson_interval(value.n_pass, value.n_samples)
    exact = clopper_pearson_interval(value.n_pass, value.n_samples)
    _print_table([{
        "node": args.node,
        "metric": args.metric,
        "n_dies": float(value.n_samples),
        "yield_fraction": value.yield_fraction,
        "wilson_low": wilson.lower,
        "wilson_high": wilson.upper,
        "exact_low": exact.lower,
        "exact_high": exact.upper,
    }])
    return 0


def cmd_chain_yield(args) -> int:
    from .exec import ChainSignoffWorkload, PartialResult
    rows = []
    for name in [node.name for node in _nodes(args.nodes)]:
        workload = ChainSignoffWorkload(
            node_name=name, n_dies=args.dies, seed=args.seed,
            dnl_limit=args.dnl_limit, inl_limit=args.inl_limit,
            enob_min=args.enob_min)
        result = _run_workload(workload, args)
        if isinstance(result, PartialResult):
            _print_partial(result)
        else:
            rows.append(result.value)
    if rows:
        _print_table(rows, columns=["node", "yield_fraction",
                                    "enob_mean", "enob_min",
                                    "dnl_worst_lsb", "inl_worst_lsb",
                                    "n_dies"])
    return 0


def cmd_soc_noise(args) -> int:
    from .exec import PartialResult, SocNoiseWorkload
    workload = SocNoiseWorkload(
        node_name=args.node, target_gates=args.gates,
        n_blocks=args.blocks, n_cycles=args.cycles,
        frequency=args.frequency, seed=args.seed,
        event_budget=args.event_budget)
    result = _run_workload(workload, args)
    if isinstance(result, PartialResult):
        _print_partial(result)
        return 0
    _print_table([result.value])
    return 0


def cmd_electrothermal(args) -> int:
    import numpy as np
    from .robust import check_count, check_positive
    from .thermal import electrothermal_rth_sweep
    rth_points = check_count("rth_points", args.rth_points)
    check_positive("rth_min", args.rth_min)
    check_positive("rth_max", args.rth_max)
    nodes = _nodes(args.nodes)
    rth_values = np.geomspace(args.rth_min, args.rth_max, rth_points)
    rows = electrothermal_rth_sweep(
        nodes, rth_values, n_gates=args.gates,
        frequency=args.frequency)
    _print_table(rows, columns=["node", "rth_K_per_W", "junction_K",
                                "leakage_W", "feedback_amplification",
                                "converged", "runaway", "n_iterations"])
    return 0


def cmd_figures(_args) -> int:
    index = [
        ("fig01", "subthreshold I(V_GS, V_DS) with DIBL (eq. 1)"),
        ("fig02", "dopant atoms vs channel length"),
        ("fig03", "MC source/drain dopant placement -> L_eff"),
        ("fig04", "V_T variation vs gate delay"),
        ("fig05", "max wire length for 20% clock skew"),
        ("fig06", "thermal/mismatch limits + ADC survey (eq. 4)"),
        ("fig07", "analog power vs node at fixed spec (eq. 5)"),
        ("fig08", "AMGIE/LAYLA detector front-end synthesis"),
        ("fig09", "VCO FM spurs from substrate noise"),
        ("fig10", "SWAN vs reference substrate noise accuracy"),
        ("tab_scaling_laws", "full-scaling consequences (Tab A)"),
        ("tab_leakage_fraction", "leakage fraction per node (Tab B)"),
        ("tab_worstcase_energy", "worst-case sizing penalty (Tab C)"),
        ("tab_body_bias", "VTCMOS effectiveness (Tab D)"),
        ("abl_*", "ablations: substrate mitigation, leakage shootout,"
                  " materials, GALS/energy optimum, calibration/masks"),
    ]
    print("Figure benchmarks (run: pytest benchmarks/test_<id>*.py "
          "--benchmark-only -s):")
    for name, description in index:
        print(f"  {name:>22}: {description}")
    return 0


def _add_exec_args(parser) -> None:
    """The sharded-execution flags shared by MC subcommands."""
    group = parser.add_argument_group("sharded execution")
    group.add_argument("--shards", type=int, default=1,
                       help="split the run into N fault-tolerant "
                            "shards (default 1; fixed-seed yields are "
                            "bit-identical for any N, soc-noise "
                            "waveforms to round-off)")
    group.add_argument("--timeout", type=float, default=None,
                       help="per-shard attempt timeout [s]")
    group.add_argument("--retries", type=int, default=2,
                       help="retries per shard (same stream replays)")
    group.add_argument("--backoff", type=float, default=0.05,
                       help="initial retry back-off [s] (doubles, "
                            "bounded)")
    group.add_argument("--backend", choices=("serial", "process"),
                       default="serial",
                       help="run shards in-process or in worker "
                            "processes")
    group.add_argument("--checkpoint", default=None,
                       help="JSON file recording completed shards")
    group.add_argument("--resume", action="store_true",
                       help="load completed shards from --checkpoint "
                            "instead of re-running them")
    group.add_argument("--chaos-seed", type=int, default=None,
                       help="inject a seeded crash/hang/poison fault "
                            "schedule (testing the fault tolerance)")
    group.add_argument("--chaos-crash", type=float, default=0.2,
                       help="per-attempt injected crash rate")
    group.add_argument("--chaos-hang", type=float, default=0.1,
                       help="per-attempt injected hang rate")
    group.add_argument("--chaos-poison", type=float, default=0.2,
                       help="per-attempt poisoned-payload rate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="65 nm CMOS 'end of the road?' analysis toolkit")
    parser.add_argument(
        "--strict", action="store_true",
        help="treat model-domain warnings (e.g. out-of-calibration "
             "temperatures) as errors")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("nodes", help="list the built-in technology nodes"
                   ).set_defaults(func=cmd_nodes)

    node_parser = sub.add_parser("node", help="show one node in detail")
    node_parser.add_argument("name", help="e.g. 65nm")
    node_parser.set_defaults(func=cmd_node)

    score_parser = sub.add_parser(
        "scorecard", help="the end-of-the-road table")
    score_parser.add_argument("--temperature", type=float,
                              default=358.0, help="junction K")
    score_parser.set_defaults(func=cmd_scorecard)

    leak_parser = sub.add_parser(
        "leakage", help="leakage fraction per node (Tab B)")
    leak_parser.add_argument("--gates", type=int, default=1_000_000)
    leak_parser.add_argument("--frequency", type=float, default=1e9)
    leak_parser.add_argument("--temperature", type=float, default=358.0)
    leak_parser.set_defaults(func=cmd_leakage)

    report_parser = sub.add_parser(
        "report", help="full markdown reproduction report")
    report_parser.add_argument("--output", default=None,
                               help="write to a file instead of stdout")
    report_parser.add_argument("--temperature", type=float,
                               default=358.0)
    report_parser.set_defaults(func=cmd_report)

    chain_parser = sub.add_parser(
        "chain-yield",
        help="DAC -> SC filter -> ADC sign-off yield vs node")
    chain_parser.add_argument("--dies", type=int, default=64,
                              help="Monte Carlo dies per node")
    chain_parser.add_argument("--seed", type=int, default=0)
    chain_parser.add_argument("--nodes", default=None,
                              help="comma-separated, e.g. 130nm,65nm")
    chain_parser.add_argument("--dnl-limit", type=float, default=0.5,
                              help="max |DNL| [LSB]")
    chain_parser.add_argument("--inl-limit", type=float, default=1.0,
                              help="max |INL| [LSB]")
    chain_parser.add_argument("--enob-min", type=float, default=None,
                              help="ENOB floor (default n_bits - 1.5)")
    _add_exec_args(chain_parser)
    chain_parser.set_defaults(func=cmd_chain_yield)

    yield_parser = sub.add_parser(
        "yield",
        help="sharded Monte Carlo yield of one node with binomial "
             "confidence bounds")
    yield_parser.add_argument("--node", default="65nm")
    yield_parser.add_argument("--metric", default="vth-shift",
                              help="named DieBatch metric (see "
                                   "repro.exec.YIELD_METRICS)")
    yield_parser.add_argument("--limit", type=float, default=0.03,
                              help="pass/fail limit on the metric")
    yield_parser.add_argument("--dies", type=int, default=500)
    yield_parser.add_argument("--seed", type=int, default=0)
    _add_exec_args(yield_parser)
    yield_parser.set_defaults(func=cmd_yield)

    soc_parser = sub.add_parser(
        "soc-noise",
        help="SoC-scale activity -> substrate noise via the compiled "
             "event engine")
    soc_parser.add_argument("--node", default="65nm")
    soc_parser.add_argument("--gates", type=int, default=20_000,
                            help="target gate count")
    soc_parser.add_argument("--blocks", type=int, default=8,
                            help="clock-gated blocks")
    soc_parser.add_argument("--cycles", type=int, default=10)
    soc_parser.add_argument("--frequency", type=float, default=50e6)
    soc_parser.add_argument("--seed", type=int, default=0)
    soc_parser.add_argument("--event-budget", type=int,
                            default=10_000_000)
    _add_exec_args(soc_parser)
    soc_parser.set_defaults(func=cmd_soc_noise)

    et_parser = sub.add_parser(
        "electrothermal",
        help="junction temperature / runaway across a nodes x Rth "
             "grid (batched electrothermal solver)")
    et_parser.add_argument("--nodes", default=None,
                           help="comma-separated, e.g. 130nm,65nm")
    et_parser.add_argument("--rth-min", type=float, default=1.0,
                           help="smallest package resistance [K/W]")
    et_parser.add_argument("--rth-max", type=float, default=100.0,
                           help="largest package resistance [K/W]")
    et_parser.add_argument("--rth-points", type=int, default=5)
    et_parser.add_argument("--gates", type=int, default=1_000_000)
    et_parser.add_argument("--frequency", type=float, default=1e9)
    et_parser.set_defaults(func=cmd_electrothermal)

    sub.add_parser("figures", help="index of figure benchmarks"
                   ).set_defaults(func=cmd_figures)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Model-boundary failures (:class:`~repro.robust.ReproError`) exit
    with a one-line ``error:`` message and status 1 -- never a
    traceback.  ``--strict`` additionally promotes
    :class:`~repro.robust.ReproWarning` (out-of-calibration inputs,
    non-converged sweep points) to errors.  A closed stdout (``repro
    nodes | head -1`` once ``head`` has exited) ends the run with
    status 1 and nothing on stderr, as the ``signal`` module docs
    advise for SIGPIPE.
    """
    from .robust import ReproError, ReproWarning
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            if args.strict:
                warnings.simplefilter("error", category=ReproWarning)
            try:
                status = args.func(args)
            except ReproError as error:
                print(f"error: {error}", file=sys.stderr)
                status = 1
            except ReproWarning as warning:
                print(f"error (strict): {warning}", file=sys.stderr)
                status = 1
        # A closed stdout must fail here, not in the flush at exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
