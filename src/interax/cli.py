"""Command-line surface: generate games, compute indices, verify, analyze.

Subcommands:
  game emit         write a built-in game as a tabular or Mobius JSON file
  index             compute shapley / stv / sii values for one game
  verify axioms     run the five axiom checks around a game
  verify taylor     check the truncated-expansion identity
  analyze majority  sweep the majority game's total interaction over n
  analyze crosses   tabulate the two indices on the stock comparison games
  aggregate         rank subsets by mean attribution across game files

Exit codes: 0 success, 1 domain error (bad file, size guard, protocol
failure), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from contextlib import contextmanager

from . import analysis, axioms, games, indices, multilinear, sampling
from .games import EvaluationError, Game
from .indices import IndexResult


# ---------------------------------------------------------------------------
# Builtin game specs:  name:key=value,...   e.g.  unanimity:n=5,set=0-2
# ---------------------------------------------------------------------------

def parse_player_list(text: str) -> list[int]:
    """Player ids as '+'-joined tokens, each an id or an a-b range."""
    ids: list[int] = []
    for token in text.split("+"):
        token = token.strip()
        if "-" in token:
            lo, hi = token.split("-", 1)
            ids.extend(range(int(lo), int(hi) + 1))
        elif token:
            ids.append(int(token))
    if not ids:
        raise ValueError(f"empty player list {text!r}")
    return ids


# builtin name -> (constructor, a parser for each of its options, in call order)
BUILTINS = {
    "unanimity": (games.make_unanimity, {"n": int, "set": parse_player_list}),
    "interaction": (games.make_interaction,
                    {"n": int, "set": parse_player_list, "c": float}),
    "majority": (games.make_majority, {"n": int}),
    "linear-crosses": (games.make_linear_crosses, {"c": float}),
    "product": (games.make_product, {"n": int}),
}


def parse_builtin(spec: str) -> Game:
    """Build a game from a spec string like 'linear-crosses:c=3'."""
    name, _, rest = spec.partition(":")
    name = name.strip()
    options: dict[str, str] = {}
    if rest:
        for pair in rest.split(","):
            key, eq, value = pair.partition("=")
            if not eq:
                raise ValueError(f"bad builtin option {pair!r} in {spec!r}")
            options[key.strip()] = value.strip()
    if name not in BUILTINS:
        raise ValueError(f"unknown builtin game {name!r} (have: {', '.join(BUILTINS)})")
    make, parsers = BUILTINS[name]
    missing = [k for k in parsers if k not in options]
    if missing:
        raise ValueError(f"builtin {name!r} needs option(s): {missing}")
    extra = [k for k in options if k not in parsers]
    if extra:
        raise ValueError(f"builtin {name!r} got unknown option(s): {extra}")
    return make(*(parse(options[key]) for key, parse in parsers.items()))


def _add_source_options(parser: argparse.ArgumentParser):
    src = parser.add_argument_group("game source (choose one)")
    src.add_argument("--builtin", metavar="SPEC",
                     help="builtin spec, e.g. majority:n=5 or unanimity:n=5,set=0-2")
    src.add_argument("--tabular", metavar="PATH", help="dense tabular JSON game")
    src.add_argument("--mobius", metavar="PATH", help="sparse Mobius JSON game")
    src.add_argument("--external", metavar="CMD",
                     help="command for a child evaluator speaking the line protocol")
    src.add_argument("--n", type=int, default=None,
                     help="player count (required with --external)")


@contextmanager
def _load_source(args):
    """The game the source options name; an external child is closed on exit."""
    picked = [opt for opt in ("builtin", "tabular", "mobius", "external")
              if getattr(args, opt)]
    if len(picked) != 1:
        raise ValueError("exactly one of --builtin/--tabular/--mobius/--external "
                         "must be given")
    if args.builtin:
        yield parse_builtin(args.builtin)
    elif args.tabular:
        yield games.load_tabular(args.tabular)
    elif args.mobius:
        yield games.load_mobius(args.mobius)
    elif args.n is None:
        raise ValueError("--external needs --n (the player count)")
    else:
        with games.attach_external(args.external, args.n) as game:
            yield game


def _resolve_seed(args) -> tuple[int, bool]:
    if args.seed is not None:
        return args.seed, False
    return secrets.randbits(32), True


def _write_output(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _result_text(result: IndexResult, fmt: str) -> str:
    if fmt == "csv":
        return result.to_csv()
    if fmt == "json":
        return json.dumps(result.to_json_document(), indent=2) + "\n"
    lines = [f"method={result.method} k={result.k}"]
    for key in sorted(result.meta):
        if result.meta[key] is not None:
            lines.append(f"  {key}={result.meta[key]}")
    lines.append(f"{'set':>16}  {'size':>4}  value")
    for pset, val in result.sorted_items():
        ids = " ".join(str(i) for i in pset.members())
        lines.append(f"{ids:>16}  {pset.size:>4}  {val:.12g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_game_emit(args) -> int:
    game = parse_builtin(args.builtin)
    if args.format == "tabular":
        doc = games.tabular_document(game)
    else:
        from .calculus import mobius_transform
        expansion = mobius_transform(game)
        doc = games.mobius_document(game.n, dict(expansion.coefficients))
    _write_output(json.dumps(doc) + "\n", args.out)
    return 0


def _cmd_index(args) -> int:
    with _load_source(args) as game:
        if args.restrict:
            keep = parse_player_list(args.restrict)
            restricted = indices.restrict_players(game, keep, args.fill)
            kept = restricted.params["kept"]
            result = _compute_index(restricted, args)
            result = indices.relabel_result(result, kept, game.n)
            result.meta["fill"] = args.fill
        else:
            result = _compute_index(game, args)
        _write_output(_result_text(result, args.format), args.out)
        return 0


def _compute_index(game: Game, args) -> IndexResult:
    if args.main_effects and args.method != "sii":
        raise ValueError("--main-effects only applies to --method sii")
    if args.method == "sii":
        if args.mode != "exact":
            raise ValueError("sii supports only --mode exact")
        if args.main_effects:
            if args.k != 2:
                raise ValueError("--main-effects is defined for --k 2 only")
            return indices.sii_main_effects(game)
        return indices.sii_index(game, args.k)

    # shapley is the order-1 Taylor index under every backend
    k = 1 if args.method == "shapley" else args.k
    if args.mode == "exact":
        result = indices.stv_exact(game, k)
    elif args.mode == "oracle":
        result = indices.stv_permutation_oracle(game, k)
    else:
        seed, auto = _resolve_seed(args)
        if auto:
            print(f"seed auto-chosen: {seed}", file=sys.stderr)
        if args.mode == "sample":
            if args.samples is not None:
                plan = sampling.SamplingPlan.from_samples(args.samples, seed)
            else:
                if args.epsilon is None or args.delta is None:
                    raise ValueError("--mode sample needs --samples or "
                                     "--epsilon and --delta")
                plan = sampling.SamplingPlan.from_error_budget(
                    args.epsilon, args.delta, seed, range_bound=args.range)
            result = sampling.stv_sampled(game, k, plan)
        elif args.mode == "mom":
            if args.groups is None or args.per_group is None:
                raise ValueError("--mode mom needs --groups and --per-group")
            result = sampling.stv_sampled_mom(game, k, args.groups,
                                              args.per_group, seed)
        else:
            raise ValueError(f"unknown mode {args.mode!r}")
    if args.method == "shapley":
        result = IndexResult("shapley", 1, result.values, result.meta)
    return result


def _cmd_verify_axioms(args) -> int:
    with _load_source(args) as game:
        seed, auto = _resolve_seed(args)
        checks = axioms.run_axiom_checks(game, args.k, seed)
    print(f"axiom checks for k={args.k}, seed={seed}"
          + (" (auto-chosen)" if auto else ""))
    ok = True
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        ok = ok and check.passed
        print(f"  {status}  {check.name}: {check.detail}")
    return 0 if ok else 1


def _cmd_verify_taylor(args) -> int:
    with _load_source(args) as game:
        report = multilinear.taylor_identity_check(game, args.k,
                                                   remainder_mode=args.mode)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}  k={report.k} remainder={report.remainder_mode}")
    print(f"  lhs  (grand span)      = {report.lhs!r}")
    print(f"  rhs  (expansion)       = {report.rhs!r}")
    print(f"    lower-order total    = {report.lower_order_total!r}")
    print(f"    remainder total      = {report.remainder_total!r}")
    print(f"  |lhs - rhs| = {report.abs_error:.3e} (tol {report.tolerance:.3e})")
    return 0 if report.passed else 1


def _cmd_analyze_majority(args) -> int:
    rows = analysis.majority_sweep(args.min_n, args.max_n)
    csv_text = analysis.sweep_to_csv(rows)
    _write_output(csv_text, args.out)
    if args.gnuplot:
        script = analysis.sweep_gnuplot_script(args.out or "majority_sweep.csv")
        with open(args.gnuplot, "w", encoding="utf-8") as fh:
            fh.write(script)
    return 0


def _cmd_analyze_crosses(args) -> int:
    report = analysis.cross_comparison(args.c, max_product_n=args.max_n)
    _write_output(report.to_csv(), args.out)
    return 0


def _cmd_aggregate(args) -> int:
    loaded = [games.load_game(path) for path in args.games]
    seed, auto = _resolve_seed(args)
    plan = None
    if args.samples is not None:
        plan = sampling.SamplingPlan.from_samples(args.samples, seed)
        if auto:
            print(f"seed auto-chosen: {seed}", file=sys.stderr)
    ranking = analysis.aggregate_crosses(loaded, args.k, args.aggregation,
                                         plan=plan)
    _write_output(ranking.to_csv(), args.out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interax",
        description="Shapley, Shapley-Taylor, and Shapley interaction indices "
                    "on set functions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_game = sub.add_parser("game", help="game file utilities")
    game_sub = p_game.add_subparsers(dest="game_command", required=True)
    p_emit = game_sub.add_parser("emit", help="write a builtin game to JSON")
    p_emit.add_argument("--builtin", required=True, metavar="SPEC")
    p_emit.add_argument("--format", choices=["tabular", "mobius"],
                        default="tabular")
    p_emit.add_argument("--out", metavar="PATH")
    p_emit.set_defaults(func=_cmd_game_emit)

    p_index = sub.add_parser("index", help="compute attribution values")
    _add_source_options(p_index)
    p_index.add_argument("--method", choices=["shapley", "stv", "sii"],
                         default="stv")
    p_index.add_argument("--k", type=int, default=2, help="order of explanation")
    p_index.add_argument("--mode", choices=["exact", "oracle", "sample", "mom"],
                         default="exact")
    p_index.add_argument("--main-effects", action="store_true",
                         help="with --method sii --k 2: efficiency-restoring "
                              "main effects plus pairs")
    p_index.add_argument("--epsilon", type=float)
    p_index.add_argument("--delta", type=float)
    p_index.add_argument("--range", type=float,
                         help="bound on derivative magnitude for the sample bound")
    p_index.add_argument("--samples", type=int)
    p_index.add_argument("--groups", type=int)
    p_index.add_argument("--per-group", type=int, dest="per_group")
    p_index.add_argument("--seed", type=int)
    p_index.add_argument("--restrict", metavar="PLAYERS",
                         help="compute on the induced game over these players")
    p_index.add_argument("--fill", choices=["baseline", "grand"],
                         default="baseline")
    p_index.add_argument("--format", choices=["csv", "json", "table"],
                         default="table")
    p_index.add_argument("--out", metavar="PATH")
    # accepted for old scripts and ignored: sampling is serial
    p_index.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    p_index.set_defaults(func=_cmd_index)

    p_verify = sub.add_parser("verify", help="axiom and identity checks")
    verify_sub = p_verify.add_subparsers(dest="verify_command", required=True)
    p_axioms = verify_sub.add_parser("axioms", help="five axiom checks")
    _add_source_options(p_axioms)
    p_axioms.add_argument("--k", type=int, default=2)
    p_axioms.add_argument("--seed", type=int)
    p_axioms.set_defaults(func=_cmd_verify_axioms)
    p_taylor = verify_sub.add_parser("taylor", help="expansion identity check")
    _add_source_options(p_taylor)
    p_taylor.add_argument("--k", type=int, default=2)
    p_taylor.add_argument("--mode", choices=["analytic", "quadrature"],
                          default="analytic")
    p_taylor.set_defaults(func=_cmd_verify_taylor)

    p_analyze = sub.add_parser("analyze", help="stock comparative analyses")
    analyze_sub = p_analyze.add_subparsers(dest="analyze_command", required=True)
    p_major = analyze_sub.add_parser("majority",
                                     help="total-interaction sweep of majority games")
    p_major.add_argument("--min-n", type=int, default=3, dest="min_n")
    p_major.add_argument("--max-n", type=int, default=12, dest="max_n")
    p_major.add_argument("--out", metavar="PATH")
    p_major.add_argument("--gnuplot", metavar="PATH",
                         help="also write a gnuplot script here")
    p_major.set_defaults(func=_cmd_analyze_majority)
    p_crosses = analyze_sub.add_parser("crosses",
                                       help="index comparison on stock games")
    p_crosses.add_argument("--c", type=float, default=3.0)
    p_crosses.add_argument("--max-n", type=int, default=10, dest="max_n")
    p_crosses.add_argument("--out", metavar="PATH")
    p_crosses.set_defaults(func=_cmd_analyze_crosses)

    p_agg = sub.add_parser("aggregate",
                           help="rank subsets across a collection of game files")
    p_agg.add_argument("--games", nargs="+", required=True, metavar="PATH")
    p_agg.add_argument("--k", type=int, default=2)
    p_agg.add_argument("--aggregation", choices=["mean", "mean-abs"],
                       default="mean")
    p_agg.add_argument("--samples", type=int,
                       help="sample instead of exact computation")
    p_agg.add_argument("--seed", type=int)
    p_agg.add_argument("--out", metavar="PATH")
    p_agg.set_defaults(func=_cmd_aggregate)

    return parser


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, EvaluationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():  # console-script entry point
    raise SystemExit(run())


if __name__ == "__main__":
    main()
