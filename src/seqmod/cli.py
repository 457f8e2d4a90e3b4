"""Command line entry points.

    seqmod prove FILE [options]     search for a proof of a problem file
    seqmod conformance THEORY       exercise a backend against the
                                    constraint-algebra laws

Exit codes for prove: 0 proved, 1 exhausted, 2 bad input (a bad
option, an unreadable or non-UTF-8 file, a parse error, input nested
too deeply, or an ill-formed goal), 3 resource limit hit (the --nodes
budget or a backend's size cap), 4 internal error (any other exception
during search or audit).  Neither the --check audit nor --output json
causes "input nested too deeply": both take a proof of any depth the
search reaches.
Conformance exits 0 when every law holds, 1 otherwise, and 2 on a bad
option.  A reader that closes stdout early leaves either exit code
unchanged.
Set SEQMOD_LOG=debug (or info, warning) for progress logging on stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import frontend
from .kernel import IllFormed, SearchConfig
from .terms import DomainError, SortError

EXIT_PROVED = 0
EXIT_EXHAUSTED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _setup_logging() -> None:
    level = os.environ.get("SEQMOD_LOG", "").strip()
    if level:
        logging.basicConfig(
            stream=sys.stderr,
            level=getattr(logging, level.upper(), logging.INFO),
            format="%(name)s: %(message)s",
        )


def _count(text: str) -> int:
    """argparse type for budgets and counts: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("expected a non-negative integer, got %s" % text)
    return value


def _cases(text: str) -> int:
    """argparse type for --cases: a positive integer, as zero cases check nothing."""
    if _count(text) == 0:
        raise argparse.ArgumentTypeError("expected a positive integer, got %s" % text)
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmod",
        description="proof search for quantified problems over constraint backends",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="search for a proof of a problem file")
    p.add_argument("file", help="problem file")
    p.add_argument("--calculus", choices=("di", "sdi"), default="sdi",
                   help="constraint-producing (di) or constraint-refining (sdi) search")
    p.add_argument("--theory", choices=("fol", "enum", "lra"), default="fol")
    p.add_argument("--order", choices=("left", "right", "random"), default="left",
                   help="which conjunct is explored first")
    p.add_argument("--seed", type=int, default=0, help="seed for --order random")
    p.add_argument("--max-exists", type=_count, default=4,
                   help="expansion cap per existential occurrence")
    p.add_argument("--pulls", type=_count, default=32,
                   help="closure attempts per leaf")
    p.add_argument("--nodes", type=_count, default=10000,
                   help="total rule applications")
    p.add_argument("--depth", type=_count, default=3,
                   help="ground term depth ceiling for the enum theory")
    p.add_argument("--check", action="store_true",
                   help="audit the proof and rebuild a ground instance")
    p.add_argument("--output", choices=("text", "json"), default="text")

    c = sub.add_parser("conformance", help="check a backend against the constraint laws")
    c.add_argument("theory", choices=("fol", "enum", "lra"))
    c.add_argument("--cases", type=_cases, default=200, help="cases per law")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def _print(text: str) -> None:
    """Print a report; a reader that closes stdout early does not change
    the exit code."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; with stdout on devnull that
        # flush cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_prove(args: argparse.Namespace) -> int:
    try:
        with open(args.file, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    name = os.path.splitext(os.path.basename(args.file))[0]
    cfg = SearchConfig(
        calculus=args.calculus,
        order=args.order,
        seed=args.seed,
        max_exists=args.max_exists,
        pulls=args.pulls,
        nodes=args.nodes,
    )
    try:
        problem = frontend.parse_problem(text, name)
    except (frontend.ParseError, SortError, DomainError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_INPUT
    try:
        report = frontend.run(problem, args.theory, cfg, depth=args.depth,
                              check=args.check)
        # Rendered here, so an error while rendering is not exit 1 ("exhausted").
        text = report.to_json() if args.output == "json" else report.to_text()
    except IllFormed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a crash must not look like bad input or "exhausted"
        message = " ".join(str(exc).split())
        print("internal error: %s: %s" % (type(exc).__name__, message), file=sys.stderr)
        return EXIT_INTERNAL
    _print(text)
    if report.check is not None and not (
            report.check["proof"] and report.check["reconstruction"]):
        print("warning: proof audit failed", file=sys.stderr)
    if report.outcome == "proved":
        return EXIT_PROVED
    if report.outcome == "exhausted":
        return EXIT_EXHAUSTED
    return EXIT_RESOURCE


def _cmd_conformance(args: argparse.Namespace) -> int:
    from . import harness  # here, so that a prove run does not load it

    result = harness.run_conformance(args.theory, cases=args.cases, seed=args.seed)
    _print(harness.report_json(result) if args.output == "json" else harness.report_text(result))
    return 0 if result.ok else 1


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    if args.command == "prove":
        return _cmd_prove(args)
    return _cmd_conformance(args)


if __name__ == "__main__":
    sys.exit(main())
