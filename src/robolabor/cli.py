"""Command line interface.

Subcommands: ``simulate`` runs scenarios and writes result files,
``calibrate`` solves one parameter against a published target,
``sensitivity`` runs the one-at-a-time analysis, ``validate`` checks a
config and touches nothing.

Each command imports only the modules it runs. Every command loads its
config, and so ``config``, ``core``, ``engine``, ``errors`` and ``sectors``,
which this module imports at its top. A command looks the other names it
calls up on this module when it starts; this module's ``__getattr__``
(PEP 562) takes any public name of the package from the package, which
imports the name's module on first use. The package's ``_EXPORTS`` is the
one list of those names, and each module's ``__all__`` is its entry. So
``simulate`` adds ``report``, ``sensitivity`` adds ``sensitivity`` and
``report``, ``calibrate`` adds ``calibrate``, and ``validate`` adds
nothing. A name wrapped on this module, as a tracer does, is called as
wrapped: that is why names resolve here rather than in each command.

Exit codes: 0 success, 1 config validation failure, 2 domain or solver
error, 64 usage error. Human-readable diagnostics go to stderr; data goes
to the output files and stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .config import load_config
from .engine import run_scenario
from .errors import ModelError, ValidationError

__all__ = ["cli_dispatch", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

def __getattr__(name):
    # any of the package's public names: the ones the commands import on their
    # first call, and bisect, solve_tfp_level and the implied_* names, which no
    # command calls but perfbench/spans.py wraps here when it traces a CLI run
    package = sys.modules[__package__]
    if name not in package._MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(package, name)  # the package imports its module
    globals()[name] = value
    return value


def _late(*names):
    """The values of ``names`` as this module holds them, imported on first use."""
    module = sys.modules[__name__]
    return [getattr(module, name) for name in names]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse failures through our exit-code policy
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage().rstrip()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="robolabor",
                     description="Scenario engine for robotics-driven labor "
                                 "substitution in small open economies.")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run scenarios and write result files")
    simulate.add_argument("--config", default="default",
                          help="config file path, or 'default' for the bundled dataset")
    simulate.add_argument("--scenario", default=None,
                          help="run only this scenario (default: all)")
    simulate.add_argument("--out", default=None,
                          help="output directory (default: config output.directory)")
    simulate.add_argument("--format", choices=("csv", "json", "both"), default=None,
                          help="file formats (default: config output.formats)")
    simulate.set_defaults(func=_cmd_simulate)

    calibrate = sub.add_parser("calibrate",
                               help="solve one parameter against a target outcome")
    calibrate.add_argument("--config", default="default")
    calibrate.add_argument("--target", required=True, metavar="NAME=VALUE",
                           help="target metric and its value")
    calibrate.add_argument("--solve", required=True, metavar="PARAMETER",
                           help="parameter to solve for")
    calibrate.add_argument("--scenario", default="baseline",
                           help="scenario supplying the shock context (default: baseline)")
    calibrate.set_defaults(func=_cmd_calibrate)

    sensitivity = sub.add_parser("sensitivity",
                                 help="one-at-a-time perturbation analysis")
    sensitivity.add_argument("--config", default="default")
    sensitivity.add_argument("--scenario", required=True)
    sensitivity.add_argument("--perturb", type=float, default=10.0, metavar="PCT",
                             help="perturbation size in percent (default: 10)")
    sensitivity.add_argument("--out", default=None,
                             help="also write sensitivity.csv to this directory")
    sensitivity.set_defaults(func=_cmd_sensitivity)

    validate = sub.add_parser("validate", help="check a config file and write nothing")
    validate.add_argument("--config", default="default")
    validate.set_defaults(func=_cmd_validate)

    return parser


def _cmd_simulate(args) -> int:
    build_output_bundle, summary_table, write_outputs = _late(
        "build_output_bundle", "summary_table", "write_outputs")
    config = load_config(args.config)
    scenarios = config.scenarios if args.scenario is None else [config.scenario(args.scenario)]
    results = [run_scenario(s, config.params, config.initial_state,
                            config.baseline, config.sectors)
               for s in scenarios]
    bundle = build_output_bundle(config, results)
    if args.format is None:
        formats = config.output.formats
    elif args.format == "both":
        formats = ("csv", "json")
    else:
        formats = (args.format,)
    directory = args.out if args.out is not None else config.output.directory
    manifest = write_outputs(bundle, directory, formats)
    print(summary_table(results))
    for path in manifest:
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _parse_target(text: str) -> tuple[str, float]:
    name, sep, raw = text.partition("=")
    if not sep:
        raise _UsageError(f"--target expects NAME=VALUE, got {text!r}")
    try:
        value = float(raw)
    except ValueError:
        raise _UsageError(f"--target value must be a number, got {raw!r}") from None
    return name.strip(), value


def _cmd_calibrate(args) -> int:
    SUPPORTED_PAIRS, calibrate_scenario = _late("SUPPORTED_PAIRS", "calibrate_scenario")
    config = load_config(args.config)
    target_name, target_value = _parse_target(args.target)
    scenario = config.scenario(args.scenario)
    if (target_name, args.solve) not in SUPPORTED_PAIRS:
        pairs = ", ".join(f"{target}->{parameter}" for target, parameter in SUPPORTED_PAIRS)
        raise _UsageError(f"cannot solve {args.solve!r} from target {target_name!r}; "
                          f"supported: {pairs}")
    report = calibrate_scenario(scenario, config.params, config.initial_state,
                                target_name, target_value, args.solve)
    print(f"solved {args.solve} = {report.value:.6g} against {target_name}={target_value:g} "
          f"(scenario {scenario.name})", file=sys.stderr)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def _cmd_sensitivity(args) -> int:
    default_specs, one_at_a_time, write_sensitivity_csv = _late(
        "default_specs", "one_at_a_time", "write_sensitivity_csv")
    config = load_config(args.config)
    scenario = config.scenario(args.scenario)
    if not 0 <= args.perturb < 100:
        raise _UsageError(f"--perturb must lie in [0, 100), got {args.perturb:g}")
    specs = default_specs(args.perturb / 100.0)
    records = one_at_a_time(scenario, config.params, config.initial_state,
                            config.baseline, specs, config.sectors)
    print(f"{'parameter':<16} {'metric':<16} {'low':>14} {'base':>14} {'high':>14} {'swing':>14}")
    for record in records:
        line = (f"{record.parameter:<16} {record.metric:<16} "
                f"{record.low_result:>14.6g} {record.baseline_result:>14.6g} "
                f"{record.high_result:>14.6g} {record.swing:>14.6g}")
        if record.error:
            line += f"  [{record.error}]"
        print(line)
    if args.out is not None:
        path = write_sensitivity_csv(records, args.out)
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    print(f"config OK: dataset_version {config.dataset_version}, "
          f"{len(config.scenarios)} scenarios, {len(config.sectors)} sectors",
          file=sys.stderr)
    return EXIT_OK


def cli_dispatch(argv: Sequence[str]) -> int:
    """Parse arguments, run the subcommand, map errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
