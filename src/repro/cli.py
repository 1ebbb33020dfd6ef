"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``partition <structure>``
    Evaluate every partitioning strategy for one core structure (or a
    custom ``WORDSxBITS[xPORTS]`` geometry) on every stack.

``frequencies``
    Print the derived Table 11 frequencies.

``table <n>`` / ``figure <n>``
    Regenerate one paper table (1-8, 11) or figure (2, 6-10).

``report``
    Regenerate every table and figure, model vs paper; the multicore
    figures run ``3 x --uops`` micro-ops.

``list``
    Enumerate the registered design points (by group), tables and figures.

``sweep <points>``
    Evaluate any design points end-to-end (frequency, CPI, power,
    peak temperature): comma-separated registered names and/or paths to
    JSON files declaring custom :class:`~repro.design.point.DesignPoint`
    specs.

``validate``
    Compare every golden artifact (tables, figures, design points,
    trace digests) against a live rebuild and report drift.
    ``--update`` re-blesses goldens, ``--only table11,figure6`` selects
    artifacts, ``--deep`` adds the differential oracles,
    ``--report PATH`` writes the drift report as JSON.

``explore <space.json>``
    Search a declarative design space (:class:`~repro.design.space.SpaceSpec`):
    lazy cartesian/random expansion, chunked evaluation through the
    batched kernel, crash-safe resume from an append-only JSONL store
    (``--store PATH``), and ``--pareto`` for the frequency / energy /
    peak-temperature frontier.

``serve``
    Run the long-lived sweep service: an asyncio HTTP front end over
    the persistent worker pool and the shared result cache.  ``POST
    /sweep``, ``POST /points`` and ``POST /validate`` answer with run
    manifests; ``GET /healthz`` / ``GET /stats`` are the probes.
    ``--port 0`` binds an ephemeral port (printed on startup).

``manycore <scenario>``
    Evaluate a heterogeneous tile-grid scenario
    (:class:`~repro.design.grid.TileGrid`): a registered scenario name
    (``repro manycore mixed-4x4``) or a JSON grid file, run across the
    parallel suite on the mesh NoC with per-tile energy and one
    chip-level thermal solve.
"""

from __future__ import annotations

import argparse
import re
import sys

from repro import engine
from repro.core.structures import structures_by_name
from repro.obs import (
    attach_section,
    build_manifest,
    metrics_path,
    run_record,
    write_manifest,
)
from repro.experiments import figures as figmod
from repro.experiments import tables as tabmod
from repro.experiments.tables import print_rows
from repro.partition.planner import evaluate_strategies
from repro.partition.strategies import evaluate_2d, reduction_report
from repro.sram.array import ArrayGeometry
from repro.tech.process import stack_m3d_hetero, stack_m3d_iso, stack_tsv3d


def _parse_geometry(spec: str) -> ArrayGeometry:
    """Parse "RF" (a Table 9 structure) or "256x64", "256x64x8" etc."""
    known = structures_by_name()
    if spec in known:
        return known[spec]
    match = re.fullmatch(r"(\d+)x(\d+)(?:x(\d+))?", spec)
    if not match:
        raise SystemExit(
            f"unknown structure {spec!r}; use one of {sorted(known)} "
            f"or WORDSxBITS[xPORTS]"
        )
    words, bits = int(match.group(1)), int(match.group(2))
    ports = int(match.group(3) or 1)
    read_ports = max(1, (2 * ports) // 3)
    return ArrayGeometry(
        spec, words=words, bits=bits,
        read_ports=read_ports, write_ports=ports - read_ports,
    )


def cmd_partition(args: argparse.Namespace) -> None:
    geometry = _parse_geometry(args.structure)
    baseline = evaluate_2d(geometry)
    print(
        f"{geometry.name}: {geometry.words}x{geometry.bits}b, "
        f"{geometry.ports} ports; 2D access "
        f"{baseline.metrics.access_time * 1e12:.0f} ps"
    )
    for stack, asym in (
        (stack_m3d_iso(), False),
        (stack_m3d_hetero(), True),
        (stack_tsv3d(), False),
    ):
        for name, result in evaluate_strategies(
            geometry, stack, asymmetric=asym
        ).items():
            report = reduction_report(baseline, result)
            print(f"  {stack.name:<8} {report.as_row()}")


def cmd_frequencies(args: argparse.Namespace) -> None:
    print_rows("Table 11: derived frequencies", tabmod.table11())


def cmd_table(args: argparse.Namespace) -> None:
    dispatch = {
        "1": lambda: print_rows("Table 1", tabmod.table1()),
        "2": lambda: print_rows("Table 2", tabmod.table2()),
        "3": lambda: print_rows("Table 3", tabmod.table3()),
        "4": lambda: print_rows("Table 4", tabmod.table4()),
        "5": lambda: print_rows("Table 5", tabmod.table5()),
        "6": lambda: (
            print_rows("Table 6 (M3D)", tabmod.table6("M3D")),
            print_rows("Table 6 (TSV3D)", tabmod.table6("TSV3D")),
        ),
        "8": lambda: print_rows("Table 8", tabmod.table8()),
        "11": lambda: print_rows("Table 11", tabmod.table11()),
    }
    if args.number not in dispatch:
        raise SystemExit(f"no table {args.number}; choose {sorted(dispatch)}")
    dispatch[args.number]()


def cmd_figure(args: argparse.Namespace) -> None:
    dispatch = {
        "2": lambda: print_rows("Figure 2", [tabmod.figure2()]),
        "6": lambda: figmod.figure6(args.uops).print(),
        "7": lambda: figmod.figure7(args.uops).print(),
        "8": lambda: figmod.figure8(args.uops).print(),
        "9": lambda: figmod.figure9(args.uops * 3).print(),
        "10": lambda: figmod.figure10(args.uops * 3).print(),
    }
    if args.number not in dispatch:
        raise SystemExit(f"no figure {args.number}; choose {sorted(dispatch)}")
    dispatch[args.number]()


def cmd_report(args: argparse.Namespace) -> None:
    from repro.experiments.runner import run_figures, run_tables

    run_tables()
    run_figures(args.uops, args.uops * 3)


#: Paper artefacts the CLI can regenerate (cf. cmd_table / cmd_figure).
TABLE_NUMBERS = ("1", "2", "3", "4", "5", "6", "8", "11")
FIGURE_NUMBERS = ("2", "6", "7", "8", "9", "10")


def cmd_list(args: argparse.Namespace) -> None:
    from repro.design.registry import registered_points, registry_groups

    print("Design points:")
    for group in registry_groups():
        print(f"  [{group}]")
        for point in registered_points(group):
            cores = (f"{point.num_cores} cores" if point.num_cores > 1
                     else "1 core")
            print(f"    {point.name:<14} {point.stack:<6} "
                  f"{point.partition:<10} {cores:<8} {point.description}")
    print("\nTables:  " + " ".join(TABLE_NUMBERS))
    print("Figures: " + " ".join(FIGURE_NUMBERS))
    print("\nSweep any subset: repro sweep <name>[,<name>|,<specs.json>...]")


def cmd_sweep(args: argparse.Namespace) -> None:
    from repro.design import evaluate_points, print_sweep_summary
    from repro.design.point import load_points
    from repro.design.registry import get_point

    points = []
    for token in args.points.split(","):
        token = token.strip()
        if not token:
            continue
        if token.endswith(".json"):
            points.extend(load_points(token))
        else:
            try:
                points.append(get_point(token))
            except KeyError as exc:
                raise SystemExit(exc.args[0])
    if not points:
        raise SystemExit("no design points requested")
    evaluations = evaluate_points(points, uops=args.uops)
    for evaluation in evaluations:
        evaluation.print()
    print_sweep_summary(evaluations)


def cmd_validate(args: argparse.Namespace) -> None:
    from repro.golden import (
        BuildParams,
        UnknownArtifactError,
        print_report,
        run_validation,
    )

    only = None
    if args.only:
        only = [token.strip() for token in args.only.split(",")
                if token.strip()]
    params = BuildParams(uops=args.uops, multicore_uops=args.uops * 3)
    try:
        report = run_validation(
            only=only,
            update=args.update,
            deep=args.deep,
            goldens_dir=args.goldens,
            params=params,
            report_path=args.report,
        )
    except UnknownArtifactError as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc))
    print_report(report)
    if report["status"] == "fail":
        raise SystemExit(1)


def cmd_explore(args: argparse.Namespace) -> None:
    from repro.design.space import SpaceError, load_space
    from repro.explore import explore, print_frontier

    try:
        space = load_space(args.space)
    except (OSError, SpaceError) as exc:
        raise SystemExit(f"cannot load space: {exc}")

    def progress(update):
        print(f"  chunk {update['chunk']}: "
              f"{update['evaluated']} evaluated, "
              f"{update['skipped']} resumed, "
              f"{update['duplicates']} duplicates "
              f"({update['total_points']} points walked)")

    size = space.cartesian_size()
    extent = space.samples if size is None else size
    print(f"exploring {space.name} ({space.kind}, {extent} points"
          + (f", limit {args.limit}" if args.limit else "") + ")")
    try:
        report = explore(
            space,
            store_path=args.store,
            chunk_size=args.chunk,
            in_flight=args.in_flight,
            uops=args.uops,
            apps=args.apps,
            grid=args.grid,
            limit=args.limit,
            progress=progress,
        )
    except SpaceError as exc:
        raise SystemExit(str(exc))
    summary = report.as_dict()
    print(f"\n{summary['space']}: {summary['unique_points']} unique of "
          f"{summary['total_points']} points; {summary['evaluated']} "
          f"evaluated, {summary['skipped']} resumed from store, "
          f"{summary['duplicates']} duplicates "
          f"({summary['chunks']} chunks, {summary['seconds']:.1f}s)")
    if args.store:
        print(f"store: {args.store}")
    if args.pareto:
        print_frontier(report.frontier)
    else:
        print(f"pareto frontier: {len(report.frontier)} points "
              f"(rerun with --pareto to print)")


def cmd_serve(args: argparse.Namespace) -> None:
    from repro.serve import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
    )
    server.start()
    print(f"serving on http://{server.host}:{server.port} "
          f"(queue {server.queue_size}; "
          f"POST /shutdown or Ctrl-C to stop)", flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:
        print("draining...", flush=True)
        server.stop(drain=True)
    attach_section("serve", server.serve_section())
    snapshot = server.stats.snapshot()
    print(f"served {snapshot['requests']} requests "
          f"({snapshot['errors']} errors, {snapshot['rejected']} rejected)")


def cmd_manycore(args: argparse.Namespace) -> None:
    import time

    from repro.design.grid import GridError, load_grid
    from repro.experiments.manycore import (
        evaluate_manycore,
        get_scenario,
        scenario_names,
    )
    token = args.scenario
    if token.endswith(".json"):
        try:
            grid = load_grid(token)
        except (OSError, GridError) as exc:
            raise SystemExit(f"cannot load grid: {exc}")
    else:
        try:
            grid = get_scenario(token)
        except KeyError:
            raise SystemExit(
                f"unknown scenario {token!r}; registered scenarios: "
                f"{', '.join(scenario_names())} (or pass a grid JSON file)"
            )
    start = time.perf_counter()
    try:
        report = evaluate_manycore(
            grid,
            total_uops=args.uops * 3,
            base_grid=args.grid,
            apps=args.apps,
        )
    except GridError as exc:
        raise SystemExit(str(exc))
    seconds = time.perf_counter() - start
    report.print()
    noc = report.resolved.noc
    attach_section("manycore", {
        "scenario": grid.name,
        "rows": grid.rows,
        "cols": grid.cols,
        "tiles": grid.num_tiles,
        "apps": len(report.apps),
        "folded_tiles": noc.folded_tiles,
        "injection_rate": noc.injection_rate,
        "noc_latency": noc.average_latency,
        "contention_cycles": noc.contention_cycles,
        "dropped_phases": sum(
            result.dropped_phases for result in report.results.values()
        ),
        "max_peak_c": max(report.peak_c.values()),
        "thermal_grid": report.thermal_grid,
        "seconds": seconds,
    })


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--uops", type=int, default=8000,
                        help="measured micro-ops per simulated run")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for simulation sweeps "
                             "(1 = serial; results are identical either "
                             "way); $REPRO_JOBS sets the default, else 1")
    parser.add_argument("--cache-dir", default=None,
                        help="persist simulation results here; a warm cache "
                             "skips every simulation on the next run; "
                             "$REPRO_CACHE_DIR sets the default")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write a schema-versioned run manifest (JSON) "
                             "here; $REPRO_METRICS sets the default")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help_text, *positionals):
        p = sub.add_parser(name, help=help_text)
        for positional, help_line in positionals:
            p.add_argument(positional, help=help_line)
        # Accept --metrics-out after the subcommand too; SUPPRESS keeps a
        # value parsed before the subcommand from being clobbered by the
        # subparser's default.
        p.add_argument("--metrics-out", default=argparse.SUPPRESS,
                       metavar="PATH", help=argparse.SUPPRESS)
        p.set_defaults(func=func)
        return p

    add_command("partition", cmd_partition, "partition one structure",
                ("structure", "RF/IQ/... or WORDSxBITS[xPORTS]"))
    add_command("frequencies", cmd_frequencies,
                "derived Table 11 frequencies")
    add_command("table", cmd_table, "regenerate one paper table",
                ("number", "table number"))
    add_command("figure", cmd_figure, "regenerate one paper figure",
                ("number", "figure number"))
    add_command("report", cmd_report, "regenerate everything")
    add_command("list", cmd_list,
                "list registered design points, tables and figures")
    add_command("sweep", cmd_sweep,
                "evaluate design points end-to-end",
                ("points", "comma-separated registered names and/or "
                           "paths to JSON DesignPoint spec files"))
    validate_parser = add_command(
        "validate", cmd_validate,
        "compare golden artifacts against a live rebuild")
    validate_parser.add_argument(
        "--update", action="store_true",
        help="re-bless the requested goldens instead of comparing")
    validate_parser.add_argument(
        "--deep", action="store_true",
        help="also run the differential oracles (kernel vs scalar core, "
             "serial vs parallel sweep, cycle vs interval model)")
    validate_parser.add_argument(
        "--only", default=None, metavar="NAMES",
        help="comma-separated artifact names (e.g. table11,figure6,points)")
    validate_parser.add_argument(
        "--goldens", default=None, metavar="DIR",
        help="goldens directory (default: <repo>/goldens, or $REPRO_GOLDENS)")
    validate_parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the structured drift report as JSON here")
    explore_parser = add_command(
        "explore", cmd_explore, "search a declarative design space",
        ("space", "path to a SpaceSpec JSON file"))
    explore_parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="append-only JSONL result store; rerunning with the same "
             "store resumes instead of re-evaluating")
    explore_parser.add_argument(
        "--chunk", type=int, default=64, metavar="N",
        help="points per evaluation chunk (default 64)")
    explore_parser.add_argument(
        "--in-flight", type=int, default=2, metavar="K",
        help="chunks submitted to the worker pool at once (default 2; "
             "1 = fully serial expand/evaluate/commit; commits stay in "
             "order, so the store is byte-identical for any K)")
    explore_parser.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="stop after the first N points of the expansion")
    explore_parser.add_argument(
        "--apps", type=int, default=None, metavar="N",
        help="applications per suite (default: all)")
    explore_parser.add_argument(
        "--grid", type=int, default=8, metavar="N",
        help="thermal grid resolution (default 8)")
    explore_parser.add_argument(
        "--pareto", action="store_true",
        help="print the frequency/energy/peak-temperature Pareto frontier")
    serve_parser = add_command(
        "serve", cmd_serve,
        "run the long-lived sweep service (HTTP JSON API)")
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)")
    serve_parser.add_argument(
        "--port", type=int, default=8023,
        help="bind port (default 8023; 0 = ephemeral, printed on startup)")
    serve_parser.add_argument(
        "--queue-size", type=int, default=32, metavar="N",
        help="bounded request queue; a full queue answers 429 (default 32)")
    manycore_parser = add_command(
        "manycore", cmd_manycore,
        "evaluate a heterogeneous tile-grid scenario",
        ("scenario", "registered scenario name (see repro manycore --help) "
                     "or path to a TileGrid JSON file"))
    manycore_parser.add_argument(
        "--apps", type=int, default=None, metavar="N",
        help="parallel applications to run (default: all 15)")
    manycore_parser.add_argument(
        "--grid", type=int, default=12, metavar="N",
        help="per-core thermal grid resolution before mesh scaling "
             "(default 12)")

    raw = list(argv if argv is not None else sys.argv[1:])
    # Convenience spellings: "figure6" == "figure 6", "table11" == "table 11".
    # Only the token that *selects* the subcommand may be expanded: once a
    # subcommand is on the line (or the token is the value of a
    # value-taking global option), later tokens like "--only figure6" are
    # arguments and must pass through untouched.
    command_names = set(sub.choices)
    value_options = {"--uops", "--jobs", "--cache-dir", "--metrics-out"}
    tokens = []
    seen_command = False
    expect_value = False
    for token in raw:
        if not seen_command and not expect_value:
            match = re.fullmatch(r"(figure|table)(\d+)", token)
            if match:
                tokens.extend([match.group(1), match.group(2)])
                seen_command = True
                continue
            if token in command_names:
                seen_command = True
            elif token in value_options:
                expect_value = True
        else:
            expect_value = False
        tokens.append(token)

    args = parser.parse_args(tokens)
    if args.jobs is not None or args.cache_dir is not None:
        # Replacing the engine drops its in-memory layer, so only do it
        # when the invocation sets a flag; a flag not given keeps its
        # environment default.
        jobs, cache_dir = engine.default_settings()
        engine.configure(
            jobs=jobs if args.jobs is None else args.jobs,
            cache_dir=cache_dir if args.cache_dir is None else args.cache_dir,
        )
    with run_record() as record:
        try:
            args.func(args)
        finally:
            # Written even when the command fails (e.g. validate found
            # drift): CI uploads the manifest with the embedded drift
            # report.
            destination = metrics_path(getattr(args, "metrics_out", None))
            if destination:
                write_manifest(
                    build_manifest("repro " + " ".join(raw), record),
                    destination,
                )
                print(f"wrote manifest {destination}")


if __name__ == "__main__":
    main()
