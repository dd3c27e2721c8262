"""Command line interface.

Subcommands: ``cover``, ``tree build``, ``optimize``, ``validate-upper``,
``validate-lower``, ``validate-lemmas``.  Exit codes: 0 success,
1 a validation claim failed, 2 usage or config error, an unreadable file
or too little memory, 3 numeric error.
"""

from __future__ import annotations

import argparse
import sys

from . import chaining, harness, metric
from .errors import (ArgumentError, CapacityError, InternalError, NumericError,
                     ParseError)
from .harness import ExperimentConfig


# flag -> the ExperimentConfig field it sets; the field's default gives its type and default
_TREE_FLAGS = {"--schedule": "schedule", "--u": "u", "--shift": "shift"}
_OPTIMIZE_FLAGS = {"--kernel": "kernel", "--u": "u", "--a": "a", "--eta2": "eta2",
                   "--t": "t_max", "--depth-rule": "depth_rule", "--schedule": "schedule",
                   "--seed": "seed_base"}


def _config(args, flags: dict[str, str], **fixed) -> ExperimentConfig:
    """The config the parsed ``flags`` and the ``fixed`` fields describe."""
    return ExperimentConfig(**fixed, **{name: getattr(args, name) for name in flags.values()})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chainopt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cover", help="compute a greedy or exact epsilon-cover")
    p.add_argument("--space", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--mode", default="greedy")
    p.add_argument("--out", required=True)

    tree_p = sub.add_parser("tree", help="discretization tree commands")
    tree_sub = tree_p.add_subparsers(dest="tree_command", required=True)
    tree_build = tree_sub.add_parser("build", help="build (and prune) a tree")
    optimize = sub.add_parser("optimize", help="run one optimization on a sampled objective")
    for p, flags in ((tree_build, _TREE_FLAGS), (optimize, _OPTIMIZE_FLAGS)):
        p.add_argument("--space", required=True)
        for flag, name in flags.items():
            default = getattr(ExperimentConfig, name)
            p.add_argument(flag, dest=name, type=type(default), default=default)
        p.add_argument("--out", required=True)

    for name in ("validate-upper", "validate-lower", "validate-lemmas"):
        p = sub.add_parser(name, help=f"run the {name.split('-')[1]} validation suite")
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
    return parser


def _cmd_cover(args) -> int:
    covers = {"greedy": metric.greedy_cover, "exact": metric.brute_force_min_cover}
    if args.mode not in covers:
        raise ArgumentError(f"mode must be one of {tuple(covers)}, got {args.mode!r}")
    space = metric.load_space(args.space)
    cover = covers[args.mode](space, args.epsilon)
    metric.write_cover_csv(cover, args.out)
    print(f"{len(cover)} centers at radius {args.epsilon:g} -> {args.out}")
    return 0


def _cmd_tree_build(args) -> int:
    config = _config(args, _TREE_FLAGS)
    tree = chaining.build_tree(metric.load_space(args.space), config.schedule, config.shift,
                               config.u)
    chaining.write_tree(tree, args.out)
    print(f"tree with {int(tree.alive.sum())} nodes, depth {tree.max_depth}, "
          f"restarts {tree.restart_count} -> {args.out}")
    return 0


def _cmd_optimize(args) -> int:
    config = _config(args, _OPTIMIZE_FLAGS, space=f"file:{args.space}", replicates=1)
    record = harness.run_replicates(config)[0][0]
    record.to_csv(args.out)
    last = record.cum_regret[-1] if len(record) else 0.0
    print(f"{len(record)} iterations, final cumulative regret {last:.6g} -> {args.out}")
    return 0


def _cmd_validate(args) -> int:
    config = harness.parse_config(args.config)
    report = getattr(harness, args.command.replace("-", "_"))(config)
    for c in report.claims:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.claim}: rate {c.rate:.6g} vs bound {c.bound:.6g} "
              f"(+/- 3se {3 * c.se:.3g}) over {c.trials} trials"
              + (f" [{c.note}]" if c.note else ""))
    for key, val in report.extras.items():
        print(f"  {key} = {val:.6g}")
    if args.out:
        report.write_csv(args.out)
    return 0 if report.all_pass else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    run = {"cover": _cmd_cover, "tree": _cmd_tree_build,
           "optimize": _cmd_optimize}.get(args.command, _cmd_validate)
    try:
        return run(args)
    except (ParseError, ArgumentError, CapacityError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except (NumericError, InternalError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
