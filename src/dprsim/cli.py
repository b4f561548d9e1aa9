"""Command-line entry point.

Subcommands: ``run`` and ``attack`` execute a scenario (from a file, a golden
name or ``--golden``) and write its run directory (the key files,
``metrics.json`` and ``record.json``, which holds every per-slot trace);
``goldens`` lists, dumps or executes the pinned scenarios; ``sweep`` runs a
parameter sweep; ``report`` recomputes the metric summary from a stored run
record.

Exit codes: 0 success, 1 usage/config error, 2 runtime error, 3 a
countermeasure alarm was raised.  The output root defaults to the
``DPRSIM_OUT_ROOT`` environment variable (else the working directory).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .config import ConfigError, ScenarioConfig, scenario_from_dict
from .goldens import GOLDENS, golden_config_dict
from .record import RECORD_FORMAT
from .report import MetricsSummary, emit_outputs, load_record, summarize
from .scenario import load_config, run_golden, run_scenario, sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_ALARM = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse exits 2 by default; we want 1
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="dprsim", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    def add_common(p: _Parser) -> None:
        p.add_argument("--config", help="scenario file path, or the name of a pinned golden scenario")
        p.add_argument("--golden", help="name of a pinned golden scenario")
        p.add_argument("--out", help="output directory (default: under DPRSIM_OUT_ROOT)")
        p.add_argument("--seed", type=int, help="override the config seed")

    run_p = sub.add_parser("run", help="execute a scenario and write its outputs")
    add_common(run_p)
    attack_p = sub.add_parser("attack", help="like run, but requires the scenario to carry an attack")
    add_common(attack_p)

    sweep_p = sub.add_parser("sweep", help="run a scenario once per value of a numeric parameter")
    add_common(sweep_p)
    sweep_p.add_argument("--param", required=True, help="dotted config path, e.g. detector.p_always")
    sweep_p.add_argument("--values", required=True, help="comma-separated numeric values")

    report_p = sub.add_parser("report", help="recompute the metric summary from a stored record")
    report_p.add_argument(
        "--record",
        required=True,
        help=f"path to a run directory's record.json, a {RECORD_FORMAT} file (its layout: dprsim.record.RunRecord)",
    )

    goldens_p = sub.add_parser("goldens", help="list, dump or execute the pinned scenarios")
    goldens_p.add_argument("--run", metavar="NAME", help="execute one golden")
    goldens_p.add_argument("--run-all", action="store_true", help="execute every golden")
    goldens_p.add_argument("--dump", metavar="NAME", help="print one golden config as a scenario document")
    goldens_p.add_argument("--out", help="output directory root for executed goldens")
    goldens_p.add_argument("--seed", type=int, help="override the config seed")
    return parser


def _out_root() -> Path:
    return Path(os.environ.get("DPRSIM_OUT_ROOT", "."))


def _golden(name: str) -> dict:
    """The pinned scenario document of ``name``; an unknown name is a usage error."""
    try:
        return golden_config_dict(name)
    except KeyError as exc:  # its message names the golden and the available ones
        raise _UsageError(exc.args[0]) from None


def _resolve_config(args) -> ScenarioConfig:
    if args.golden and args.config:
        raise _UsageError("give either --config or --golden, not both")
    if args.golden:
        return scenario_from_dict(_golden(args.golden))
    if not args.config:
        raise _UsageError("a scenario is required: --config PATH|NAME or --golden NAME")
    path = Path(args.config)
    if path.exists():
        return load_config(path.read_text(encoding="utf-8"))
    if args.config in GOLDENS:
        return scenario_from_dict(golden_config_dict(args.config))
    raise _UsageError(f"no such file or golden scenario: {args.config}")


def _emit(record, outdir: Path) -> MetricsSummary:
    """Write a run directory; returns its ``metrics.json``, read back rather than summarized again."""
    emit_outputs(record, outdir)
    return MetricsSummary.from_dict(json.loads((outdir / "metrics.json").read_text(encoding="utf-8")))


def _emit_and_report(record, outdir: Path) -> None:
    m = _emit(record, outdir)
    print(f"wrote {outdir}")
    qber = "n/a" if m.qber is None else f"{m.qber:.6f}"
    print(f"protocol={m.protocol} sifted={m.sifted_length} qber={qber}")
    if m.visibility_overall is not None:
        print(f"visibility_overall={m.visibility_overall:.6f}")
    if m.capture_fraction is not None:
        print(f"attack capture_fraction={m.capture_fraction:.6f}")
    if m.bob_record_equals_eve_readings is not None:
        print(f"bob_record_equals_eve_readings={m.bob_record_equals_eve_readings}")
    for name, fired in sorted(m.alarms.items()):
        if fired:
            print(f"ALARM: {name}")


def _cmd_run(args, require_attack: bool) -> int:
    cfg = _resolve_config(args)
    if require_attack and cfg.attack.kind == "none":
        raise _UsageError("the attack subcommand needs a scenario with an attack section")
    record = run_scenario(cfg, seed=args.seed)
    name = cfg.golden_name or cfg.protocol
    outdir = Path(args.out) if args.out else _out_root() / f"dprsim-{name}"
    _emit_and_report(record, outdir)
    return EXIT_ALARM if record.any_alarm else EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise _UsageError(f"--values must be comma-separated numbers: {exc}")
    if not values:
        raise _UsageError("--values is empty")
    records = sweep(cfg, args.param, values)
    outdir = Path(args.out) if args.out else _out_root() / "dprsim-sweep"
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    any_alarm = False
    for i, record in enumerate(records):
        m = _emit(record, outdir / f"point_{i:03d}")
        value = record.config  # the value the point ran with: an int for an integer parameter
        for key in args.param.split("."):
            value = value[key]
        rows.append({"index": i, "value": value, "qber": m.qber, "capture_fraction": m.capture_fraction,
                     "visibility_overall": m.visibility_overall, "alarms": m.alarms,
                     "feasibility": m.feasibility})
        any_alarm = any_alarm or record.any_alarm
    (outdir / "sweep.json").write_text(
        json.dumps({"param": args.param, "points": rows}, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {outdir} ({len(records)} points)")
    return EXIT_ALARM if any_alarm else EXIT_OK


def _cmd_report(args) -> int:
    try:
        record = load_record(args.record)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read record {args.record}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(summarize(record).to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_goldens(args) -> int:
    if args.dump:
        import yaml  # loaded only to write a document

        print(yaml.safe_dump(_golden(args.dump), sort_keys=True), end="")
        return EXIT_OK
    names = [args.run] if args.run else (list(GOLDENS) if args.run_all else None)
    if names is None:
        for name, entry in GOLDENS.items():
            print(f"{name}: {entry['description']}")
        return EXIT_OK
    status = EXIT_OK
    for name in names:
        if name not in GOLDENS:
            raise _UsageError(f"unknown golden {name!r}; available: {', '.join(GOLDENS)}")
        record = run_golden(name, seed=args.seed)
        outdir = Path(args.out) / name if args.out else _out_root() / f"dprsim-{name}"
        _emit_and_report(record, outdir)
        if record.any_alarm:
            status = EXIT_ALARM
    return status


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        if args.command == "run":
            return _cmd_run(args, require_attack=False)
        if args.command == "attack":
            return _cmd_run(args, require_attack=True)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "goldens":
            return _cmd_goldens(args)
        raise _UsageError(f"unknown subcommand {args.command!r}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("run 'dprsim --help' for usage", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failure in an otherwise valid run
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
