"""Command-line front end.

Subcommands: mine, rank, score, eval, sweep, gen. Exit codes: 0 success,
1 usage, 2 I/O or parse failure, 3 mining guard tripped, 4 schema
fingerprint mismatch, 130 interrupted (Ctrl-C). Diagnostics go to stderr;
data files and stdout carry only the declared formats, so cron jobs can
branch on the code and pipe the output.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import time
from fractions import Fraction

from .errors import AlertFpError, PatternExplosionError, SchemaMismatchError
from .evaluate import (
    SyntheticSpec,
    gen_synthetic,
    locate_attacks,
    reduction,
    resolve_attack_selectors,
    sweep,
    write_attack_ids,
    write_sweep_report,
)
from .ingest import (
    check_delimiter,
    load_schema,
    parse_log,
    write_log,
    write_rejects,
    write_schema,
)
from .miner import DEFAULT_PATTERN_CAP, MiningConfig, mine
from .scorer import ScoreConfig, rank, read_ranked, top_candidates, write_ranked
from .store import ClassifierModel, load_model, save_model, score_new
from .textio import atomic_write, open_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_GUARD = 3
EXIT_SCHEMA = 4
EXIT_INTERRUPTED = 130  # as a shell reports a command ended by SIGINT


class _Parser(argparse.ArgumentParser):
    build = None  # adds a command's options, once argparse dispatches to it

    def error(self, message):  # argparse would exit with code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        if self.build is not None:
            build, self.build = self.build, None
            build(self)
        return super().parse_known_args(args, namespace)


# Argument types reject bad values before any input is read or output
# written; argparse reports ArgumentTypeError as a usage error (exit 1).


def _parse_minisupport(text: str):
    text = text.strip()
    try:
        value = Fraction(text[:-1]) / 100 if text.endswith("%") else int(text)
        MiningConfig(minisupport=value)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a count N >= 1 or a percentage P% with 0 < P <= 100, got {text!r}"
        ) from None
    return value


def _parse_minisupport_list(text: str):
    values = [_parse_minisupport(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of N or P%")
    return values


def _parse_positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _parse_max_patterns(text: str):
    if text.strip().lower() in ("off", "none", "0"):
        return None
    return _parse_positive_int(text)


def _parse_top_p(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0 < value <= 100:  # also rejects nan
        raise argparse.ArgumentTypeError(
            f"expected a percentage P with 0 < P <= 100, got {text!r}"
        )
    return value


def _parse_delimiter(text: str) -> str:
    try:
        return check_delimiter(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """The whole command line. Each command names its handler (`run`) and
    its own parser (`parser`), whose usage line a usage error found after
    parsing prints, and each path option says where it is added whether
    the command reads its file (`reads`) or writes it (`writes`), in the
    order declared. A command's options are added only when argparse
    dispatches to it, so a call builds one command's options, not all
    six."""
    parser = _Parser(prog="alertfp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        def register(build):
            p = sub.add_parser(name, help=help)
            p.set_defaults(run=run, reads=(), writes=(), parser=p)
            p.build = build
            return build

        return register

    def path(p, role, flag, **kwargs):
        dest = p.add_argument(flag, **kwargs).dest
        p.set_defaults(**{role: p.get_default(role) + (dest,)})

    def add_common_io(p):
        path(p, "reads", "--input", required=True, help="alert log file")
        path(p, "reads", "--schema", required=True, help="schema config file")
        p.add_argument(
            "--delimiter", type=_parse_delimiter, default="\t", help="field delimiter (default tab)"
        )
        path(p, "writes", "--rejects-out", help="write rejected lines report here")

    def add_guard(p):
        p.add_argument(
            "--max-patterns",
            type=_parse_max_patterns,
            default=DEFAULT_PATTERN_CAP,
            help="pattern explosion guard; 'off' disables (default %(default)s)",
        )

    def add_mining(p):
        p.add_argument(
            "--minisupport",
            type=_parse_minisupport,
            default=MiningConfig.minisupport,
            help="absolute count N or percentage P%% (default %(default)s)",
        )
        add_guard(p)

    def add_scoring(p):
        p.add_argument("--score", choices=("simple", "fpof"), default=ScoreConfig.metric)
        p.add_argument(
            "--top-p", type=_parse_top_p, default=None, help="write top P%% candidate tids"
        )
        path(p, "writes", "--candidates-out", help="candidate-set output path")

    @command("mine", _cmd_mine, "mine a log into a classifier model")
    def mine_options(p):
        path(p, "writes", "--out", required=True, help="model output path")
        add_common_io(p)
        add_mining(p)
        p.add_argument("--emit-tidlists", action="store_true", help="store tidlists for audit")

    @command("rank", _cmd_rank, "mine and rank a log in one pass")
    def rank_options(p):
        path(p, "writes", "--out", required=True, help="ranked output path")
        add_common_io(p)
        add_mining(p)
        add_scoring(p)

    @command("score", _cmd_score, "rank new alerts against a stored model")
    def score_options(p):
        path(p, "writes", "--out", required=True)
        add_common_io(p)
        add_scoring(p)
        path(p, "reads", "--model", required=True)
        p.add_argument(
            "--force-schema", action="store_true", help="score despite a fingerprint mismatch"
        )

    @command("eval", _cmd_eval, "attack placement and reduction of a ranked file")
    def eval_options(p):
        path(p, "reads", "--ranked", required=True)
        path(
            p, "reads", "--attacks", required=True, help="attack-id file (tid or field=value per line)"
        )
        path(p, "reads", "--input", help="original log, needed for field=value selectors")
        path(p, "reads", "--schema", help="schema config, needed for field=value selectors")
        p.add_argument(
            "--delimiter", type=_parse_delimiter, help="field delimiter of --input (default tab)"
        )
        path(p, "writes", "--rejects-out", help="write --input's rejected lines report here")

    @command("sweep", _cmd_sweep, "mine/rank/evaluate across minisupport values")
    def sweep_options(p):
        path(p, "writes", "--out", required=True, help="sweep report path")
        add_common_io(p)
        p.add_argument(
            "--minisupport",
            type=_parse_minisupport_list,
            required=True,
            help="comma-separated list, each N or P%%",
        )
        path(p, "reads", "--attacks", required=True)
        add_guard(p)

    @command("gen", _cmd_gen, "generate a seeded synthetic log with planted attacks")
    def gen_options(p):
        p.add_argument("--records", type=_parse_positive_int, required=True)
        p.add_argument(
            "--attacks", type=_parse_positive_int, default=SyntheticSpec.n_attack, dest="n_attack"
        )
        p.add_argument(
            "--profiles", type=_parse_positive_int, default=SyntheticSpec.routine_profiles
        )
        p.add_argument("--seed", type=int, required=True)
        path(p, "writes", "--out", required=True, help="log output path")
        path(p, "writes", "--attacks-out", required=True, help="attack-id output path")
        path(p, "writes", "--schema-out", help="also write the generator's schema config")

    return parser


def main(argv=None) -> int:
    try:
        args, extras = build_parser().parse_known_args(argv)
        error = args.parser.error  # the dispatched command's usage, not the top level's
        if extras:
            error(f"unrecognized arguments: {' '.join(extras)}")
        if args.command == "gen":  # a limit between two counts is a usage error too
            try:
                args.spec = SyntheticSpec(args.records, args.n_attack, args.profiles, args.seed)
            except AlertFpError as exc:  # every limit but the profiles' is the attacks'
                flag, got = "--attacks", args.n_attack
                if "profiles" in str(exc):
                    flag, got = "--profiles", args.profiles
                error(f"argument {flag}: {exc} (got {got})")
        if args.command == "eval":
            if (args.input is None) != (args.schema is None):
                error("eval takes --input and --schema together, or neither")
            for attr in ("delimiter", "rejects_out"):
                if args.input is None and getattr(args, attr) is not None:
                    error(f"eval takes {_option(attr)} only with --input")
            if args.delimiter is None:
                args.delimiter = "\t"
        if "top_p" in args:  # rank and score
            if args.top_p is not None:
                args.candidates_out = args.candidates_out or f"{args.out}.candidates"
            elif args.candidates_out is not None:
                error(f"{args.command} takes --candidates-out only with --top-p")
        clash = _same_file_clash(args)
        if clash:
            error(clash)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        return args.run(args)
    except PatternExplosionError as exc:
        print(f"alertfp: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except SchemaMismatchError as exc:
        print(f"alertfp: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (AlertFpError, OSError) as exc:
        print(f"alertfp: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:  # an output being written was already removed
        print("alertfp: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def _same_file_clash(args) -> str | None:
    """Name two path options of the command that would clobber each other:
    an output that is the same file as an input or as another output, in
    the order build_parser declares them, so `--out` is named first. An
    output that is a device or a pipe (`/dev/stdout` on a terminal or a
    pipe, `/dev/null`) replaces no file, so it clashes with nothing."""

    def given(attrs):
        paths = [(attr, getattr(args, attr)) for attr in attrs]
        return [(attr, path, _identity(path)) for attr, path in paths if path is not None]

    inputs = given(args.reads)
    outputs = [output for output in given(args.writes) if output[2] is not None]
    for k, (attr, path, identity) in enumerate(outputs):
        for other, other_path, other_identity in inputs + outputs[:k]:
            if identity == other_identity:
                return (
                    f"{_option(attr)} {path!r} is the same file as {_option(other)} {other_path!r}"
                )
    return None


def _option(attr: str) -> str:
    return "--" + attr.replace("_", "-")


def _identity(path: str) -> tuple | None:
    """What tells path's file apart from others: for a file that exists,
    links followed, its (device, inode), which os.path.samefile compares
    and which catches hard links too; for one that does not, its
    os.path.realpath. None for a device or a pipe."""
    try:
        st = os.stat(path)
    except OSError:
        return ("path", os.path.realpath(path))
    if not stat.S_ISREG(st.st_mode):
        return None
    return (st.st_dev, st.st_ino)


def _load_inputs(args):
    schema = load_schema(args.schema)
    result = parse_log(args.input, schema, args.delimiter)
    if result.rejects:
        print(f"alertfp: rejected {len(result.rejects)} line(s)", file=sys.stderr)
    if args.rejects_out:  # empty on a clean run, so no earlier report is left
        write_rejects(args.rejects_out, result.rejects)
    return schema, result.dataset


def _mining_config(args) -> MiningConfig:
    return MiningConfig(minisupport=args.minisupport, max_patterns=args.max_patterns)


def _cmd_mine(args) -> int:
    schema, dataset = _load_inputs(args)
    config = _mining_config(args)
    started = time.perf_counter()
    fps = mine(dataset, config)
    elapsed = time.perf_counter() - started
    model = ClassifierModel.from_pattern_set(
        fps, schema, include_tidlists=args.emit_tidlists
    )
    save_model(model, args.out)
    print(
        f"alertfp: mined {fps.count} patterns from {dataset.n} alerts "
        f"in {elapsed:.2f}s (minisupport {fps.minisupport_abs})",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_rank(args) -> int:
    _, dataset = _load_inputs(args)
    config = _mining_config(args)
    score_config = ScoreConfig(metric=args.score)
    started = time.perf_counter()
    fps = mine(dataset, config)
    ranked = rank(dataset, fps, score_config)
    elapsed = time.perf_counter() - started
    write_ranked(args.out, ranked, dataset, args.score, args.delimiter)
    _write_candidates(args, ranked)
    print(
        f"alertfp: ranked {dataset.n} alerts against {fps.count} patterns "
        f"in {elapsed:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_score(args) -> int:
    _, dataset = _load_inputs(args)
    model = load_model(args.model)
    score_config = ScoreConfig(metric=args.score)
    ranked = score_new(dataset, model, score_config, force_schema=args.force_schema)
    write_ranked(args.out, ranked, dataset, args.score, args.delimiter)
    _write_candidates(args, ranked)
    print(
        f"alertfp: scored {dataset.n} alerts against {model.pattern_count} "
        f"stored patterns (trained on {model.n_train})",
        file=sys.stderr,
    )
    return EXIT_OK


def _write_candidates(args, ranked) -> None:
    if args.top_p is None:
        return
    tids = top_candidates(ranked, args.top_p)
    write_attack_ids(args.candidates_out, tids)
    print(f"alertfp: wrote {len(tids)} candidate tid(s) to {args.candidates_out}", file=sys.stderr)


def _read_attack_file(args, dataset=None) -> set[int]:
    with open_text(args.attacks) as stream:
        return resolve_attack_selectors(stream, dataset)


def _cmd_eval(args) -> int:
    ranked_file = read_ranked(args.ranked)
    dataset = None
    if args.input is not None:
        _, dataset = _load_inputs(args)
    attack_tids = _read_attack_file(args, dataset)
    ranks = locate_attacks(ranked_file.rows, attack_tids)
    worst = max(ranks)
    print(f"n={ranked_file.n} attacks={len(ranks)}")
    print("attack_ranks=" + ",".join(str(r) for r in ranks))
    print(f"last_attack_rank={worst}")
    print(f"reduction={reduction(ranked_file.n, worst):.3f}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    _, dataset = _load_inputs(args)
    attack_tids = _read_attack_file(args, dataset)
    rows = sweep(
        dataset, args.minisupport, attack_tids, MiningConfig(max_patterns=args.max_patterns)
    )
    write_sweep_report(args.out, rows)
    failures = sum(1 for r in rows if r.error)
    print(
        f"alertfp: swept {len(rows)} threshold(s), {failures} failed", file=sys.stderr
    )
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = args.spec
    dataset, attack_tids = gen_synthetic(spec)
    with atomic_write(args.out) as out:
        out.write(
            f"# alertfp-gen v1 records={spec.n_records} attacks={spec.n_attack} "
            f"profiles={spec.routine_profiles} seed={spec.seed}\n"
        )
        write_log(out, dataset)
    write_attack_ids(args.attacks_out, attack_tids)
    if args.schema_out:
        write_schema(args.schema_out, dataset.schema)
    print(
        f"alertfp: wrote {dataset.n} records ({len(attack_tids)} attacks) to {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
