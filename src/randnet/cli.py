"""randnet command line: train, bench, stats, sweep.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

import argparse
import logging
import sys

from .config import ConfigError, load_config
from .data import DataFormatError
from .harness import run_bench, run_stats, run_sweep, run_train
from .ranking import Q_TABLE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="randnet",
        description="Randomization-based neural network benchmark harness.")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one model at fixed hyperparameters")
    train.add_argument("--config", required=True)
    train.add_argument("--dataset", required=True)
    train.add_argument("--method", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--seed", type=int, default=None)

    bench = sub.add_parser("bench", help="grid search every dataset x method cell")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out", required=True)
    bench.add_argument("--resume", action="store_true",
                       help="skip cells recorded in the run manifest")
    bench.add_argument("--parallel", type=int, default=None,
                       help="override the config's parallelism degree")

    stats = sub.add_parser("stats", help="rank report from a results CSV")
    stats.add_argument("--results", required=True)
    stats.add_argument("--out", required=True)
    stats.add_argument("--alpha", type=float, default=0.05)

    sweep = sub.add_parser("sweep", help="sensitivity sweep over chosen axes")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--dataset", required=True)
    sweep.add_argument("--method", required=True)
    sweep.add_argument("--axes", required=True,
                       help="comma-separated subset of L,N,C,nu")
    sweep.add_argument("--out", required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s")
    try:
        if args.command == "train":
            cfg = load_config(args.config)
            if args.seed is not None and args.seed < 0:
                raise ConfigError(f"--seed must be at least 0, got {args.seed}")
            model_path, res = run_train(cfg, args.dataset, args.method,
                                        args.out, seed=args.seed)
            print(f"model: {model_path}")
            print(f"test accuracy: {res.test_accuracy:.4f}")
        elif args.command == "bench":
            cfg = load_config(args.config)
            if args.parallel is not None:
                if args.parallel < 1:
                    raise ConfigError(
                        f"--parallel must be at least 1, got {args.parallel}")
                cfg.parallelism = args.parallel
            results = run_bench(cfg, args.out, resume=args.resume)
            print(f"results: {results}")
        elif args.command == "stats":
            if args.alpha not in Q_TABLE:
                raise ConfigError(f"--alpha must be one of {sorted(Q_TABLE)}, got {args.alpha}")
            out = run_stats(args.results, args.out, alpha=args.alpha)
            stats = out["stats"]
            dof1, dof2 = stats["dof"]
            print(f"chi2 = {stats['chi2']:.4f}")
            print(f"F = {stats['f_value']:.4f} with dof ({dof1}, {dof2}); "
                  f"critical {stats['f_critical']:.4f} at alpha {stats['alpha']}")
            print(f"CD = {stats['cd']:.4f}")
            print(f"report: {out['report']}")
        else:
            cfg = load_config(args.config)
            axes = tuple(a.strip() for a in args.axes.split(",") if a.strip())
            path = run_sweep(cfg, args.dataset, args.method, axes, args.out)
            print(f"sweep: {path}")
    except (ConfigError, DataFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
