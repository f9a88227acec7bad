"""Command-line front end.

Subcommands:
  run        run a full experiment from a JSON config
  solve      hindsight dual of a market and a realized sequence
  gen-market synthesize and save a market instance
  sample     draw an item sequence from a saved input model
  summarize  aggregate a per-path metrics CSV into mean/stderr curves

Exit codes: 0 success; 2 on a ConfigError, with one line `config error: ...`
on stderr; 3 on a NoConvergence of a required solve, with one line
`numerical failure: ...`. Any other exception is a bug and propagates.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS thread unless the environment says otherwise, set before numpy
# loads: more bought no wall time here, and a busy neighbour cost tenfold
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .eg import hindsight_solution, require_converged, required_solve, solution_to_dict
from .errors import ConfigError, NoConvergence
from .harness import (
    config_from_dict,
    generate_market,
    read_paths_csv,
    run_experiment,
    summarize,
    write_aggregate_csv,
)
from .inputs import model_from_dict, sample_sequence
from .market import market_from_dict, market_to_dict, read_json, sequence_from_dict, sequence_to_dict


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairpace", description="Online fair allocation via paced auctions"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--paths", type=int, default=None, help="override the path count")
    p_run.add_argument("--threads", type=int, default=1, help="worker processes")

    p_solve = sub.add_parser("solve", help="solve the hindsight dual")
    p_solve.add_argument("--market", required=True, help="market instance JSON")
    p_solve.add_argument("--sequence", required=True, help="item sequence JSON")
    p_solve.add_argument("--delta0", type=float, default=1.0)
    p_solve.add_argument("--tol", type=float, default=1e-8)
    p_solve.add_argument("--out", default=None, help="write the solution JSON here")

    p_gen = sub.add_parser("gen-market", help="synthesize a market instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--rank", type=int, default=10)
    p_gen.add_argument("--noise", type=float, default=0.1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="write the market JSON here")

    p_sample = sub.add_parser("sample", help="draw an item sequence from a model")
    p_sample.add_argument("--model", required=True, help="input model JSON")
    p_sample.add_argument("--t", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0, help="path seed")
    p_sample.add_argument("--out", required=True, help="write the sequence JSON here")

    p_sum = sub.add_parser("summarize", help="aggregate a per-path metrics CSV")
    p_sum.add_argument("--paths-csv", required=True)
    p_sum.add_argument("--out", required=True, help="write the aggregate CSV here")
    return parser


def _cmd_run(args) -> int:
    doc = read_json(args.config, "config")
    overrides = {"base_seed": args.seed, "paths": args.paths}
    if isinstance(doc, dict):
        doc.update((key, value) for key, value in overrides.items() if value is not None)
    config = config_from_dict(doc, base_dir=Path(args.config).parent)
    target = args.out or config.out_dir
    if target is not None:
        _check_out_dir(target, directory=True)
    report = run_experiment(config, threads=args.threads, out_dir=target)
    terminal = report.terminal()
    for name in sorted(terminal):
        entry = terminal[name]
        err = "" if entry["stderr"] is None else f" +- {entry['stderr']:.3g}"
        print(f"{name}: {entry['mean']:.6g}{err}")
    return 0


def _cmd_solve(args) -> int:
    instance = market_from_dict(read_json(args.market, "market"))
    seq = sequence_from_dict(read_json(args.sequence, "sequence"))
    with required_solve():
        solution = hindsight_solution(instance, seq, delta0=args.delta0, tol=args.tol)
    doc = json.dumps(solution_to_dict(solution), indent=2)
    if args.out:
        Path(args.out).write_text(doc)
    else:
        print(doc)
    require_converged(solution, "hindsight solve failed")
    return 0


def _cmd_gen_market(args) -> int:
    instance = generate_market(
        n=args.n, m=args.m, rank=args.rank, noise=args.noise, seed=args.seed
    )
    Path(args.out).write_text(json.dumps(market_to_dict(instance)))
    return 0


def _cmd_sample(args) -> int:
    model = model_from_dict(read_json(args.model, "model"))
    seq = sample_sequence(model, args.t, args.seed)
    Path(args.out).write_text(json.dumps(sequence_to_dict(seq)))
    return 0


def _cmd_summarize(args) -> int:
    series_list = read_paths_csv(args.paths_csv)
    report = summarize(series_list)
    write_aggregate_csv(args.out, series_list[0].metadata["model"] or "unknown", report)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "solve": _cmd_solve,
    "gen-market": _cmd_gen_market,
    "sample": _cmd_sample,
    "summarize": _cmd_summarize,
}


def _check_out_dir(out, directory: bool = False) -> None:
    """Refuse an output path that cannot be written, before any work is done.

    An output file needs an existing directory and must not be one itself.
    A run's output directory is created with its parents, so the nearest of
    them that exists must be a directory.
    """
    path = Path(out)
    if directory:
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"output directory {out!r} cannot be made: {str(existing)!r} is a file")
        return
    if not path.parent.is_dir():
        raise ConfigError(f"output directory {str(path.parent)!r} does not exist")
    if path.is_dir():
        raise ConfigError(f"output file {out!r} is a directory")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # `run --out` names a directory, which the run creates; _cmd_run
        # checks it once the config, which may name it too, is read
        if args.command != "run" and args.out is not None:
            _check_out_dir(args.out)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NoConvergence as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
