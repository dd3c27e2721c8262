"""Command line interface.

Subcommands: ``cover``, ``tree build``, ``optimize``, ``validate-upper``,
``validate-lower``, ``validate-lemmas``.  Exit codes: 0 success,
1 a validation claim failed, 2 usage or config error or an unreadable
file, 3 numeric error.
"""

from __future__ import annotations

import argparse
import sys

from . import chaining, harness, metric
from .bandit import OptimizerConfig, run_gp_ucb
from .errors import (ArgumentError, CapacityError, InternalError, NumericError,
                     ParseError)
from .gp import parse_kernel, sample_prior


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chainopt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cover", help="compute a greedy or exact epsilon-cover")
    p.add_argument("--space", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--mode", choices=("greedy", "exact"), default="greedy")
    p.add_argument("--out", required=True)

    tree_p = sub.add_parser("tree", help="discretization tree commands")
    tree_sub = tree_p.add_subparsers(dest="tree_command", required=True)
    p = tree_sub.add_parser("build", help="build (and prune) a tree")
    p.add_argument("--space", required=True)
    p.add_argument("--schedule", choices=("geometric", "entropy"),
                   default=OptimizerConfig.schedule)
    p.add_argument("--u", type=float, default=OptimizerConfig.u)
    p.add_argument("--shift", type=int, default=OptimizerConfig.shift)
    p.add_argument("--out", required=True)

    p = sub.add_parser("optimize", help="run one optimization on a sampled objective")
    p.add_argument("--space", required=True)
    p.add_argument("--kernel", default="se:ls=1.0")
    p.add_argument("--u", type=float, default=OptimizerConfig.u)
    p.add_argument("--a", type=float, default=OptimizerConfig.a)
    p.add_argument("--eta2", type=float, default=OptimizerConfig.eta2)
    p.add_argument("--t", type=int, default=OptimizerConfig.t_max)
    p.add_argument("--depth-rule", choices=("halflog2", "omega"),
                   default=OptimizerConfig.depth_rule)
    p.add_argument("--schedule", choices=("geometric", "entropy"),
                   default=OptimizerConfig.schedule)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    for name in ("validate-upper", "validate-lower", "validate-lemmas"):
        p = sub.add_parser(name, help=f"run the {name.split('-')[1]} validation suite")
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
    return parser


def _cmd_cover(args) -> int:
    space = metric.load_space(args.space)
    if args.mode == "greedy":
        cover = metric.greedy_cover(space, args.epsilon)
    else:
        cover = metric.brute_force_min_cover(space, args.epsilon)
    metric.write_cover_csv(cover, args.out)
    print(f"{len(cover)} centers at radius {args.epsilon:g} -> {args.out}")
    return 0


def _cmd_tree_build(args) -> int:
    space = metric.load_space(args.space)
    tree = chaining.build_tree(space, args.schedule, args.shift, args.u)
    check = chaining.validate_tree(tree)
    if not check.ok:
        raise InternalError("tree validation failed: " + "; ".join(check.errors))
    chaining.write_tree(tree, args.out)
    print(f"tree with {int(tree.alive.sum())} nodes, depth {tree.max_depth}, "
          f"restarts {tree.restart_count} -> {args.out}")
    return 0


def _cmd_optimize(args) -> int:
    space = metric.load_space(args.space)
    if space.coords is None:
        raise ArgumentError("optimize needs a coordinate-backed space file")
    if args.seed < 0:
        raise ArgumentError("seed must be nonnegative")
    kernel = parse_kernel(args.kernel)
    config = OptimizerConfig(u=args.u, a=args.a, eta2=args.eta2, t_max=args.t,
                             depth_rule=args.depth_rule, schedule=args.schedule)
    truth = sample_prior(kernel, space.coords, [args.seed, 0])
    record = run_gp_ucb(space, kernel, config, truth, seed=[args.seed, 1])
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "cover":
            return _cmd_cover(args)
        if args.command == "tree":
            return _cmd_tree_build(args)
        if args.command == "optimize":
            return _cmd_optimize(args)
        if args.command.startswith("validate-"):
            return _cmd_validate(args)
        parser.error(f"unknown command {args.command!r}")
    except (ParseError, ArgumentError, CapacityError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, InternalError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
