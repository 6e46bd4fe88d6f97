"""Command-line front end.

Exit codes: 0 success, 1 domain failure (validation violations, an
unresolved evaluation or a knot code ``conway`` refuses, distinguished by
the printed code), 2 I/O, parse or configuration errors.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
import time

from .alexander import alexander_at_t_squared, conway, is_classical
from .constructions import artin_spin, knot_code, table_knot, twin_closure
from .diagram import (
    DiagramError,
    ParseError,
    parse as parse_diagram,
    serialize,
    validate,
)
from .laurent import LaurentError, LaurentPoly
from .skein import ConfigError, SkeinConfig, evaluate, export_trace

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _load_diagram(path: str):
    return parse_diagram(_read_input(path))


def cmd_validate(args) -> int:
    d = parse_diagram(_read_input(args.path), strict=False)
    report = validate(d)
    for v in report.violations:
        print(f"{v.code}: {v.message} @ {v.location}")
    if report.ok:
        print("ok")
        return EXIT_OK
    return EXIT_DOMAIN


def _skein_config(args) -> SkeinConfig:
    if args.trace_out is not None and args.trace is None:
        raise ConfigError("--trace-out needs --trace json or --trace dot")
    multiplier = (LaurentPoly.parse(args.multiplier)
                  if args.multiplier is not None else None)
    return SkeinConfig(multiplier=multiplier, depth_budget=args.depth,
                       emit_trace=args.trace is not None,
                       use_memo=not args.no_memo)


def _check_output_path(path: str) -> None:
    """Refuse, before any work, an output path whose directory is missing or
    not a directory, or that is a directory itself, with the error open()
    would give; nothing is created or truncated."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        parent = os.stat(os.path.dirname(path) or ".")
    except OSError as e:
        raise type(e)(e.errno, e.strerror, path) from None
    if not stat.S_ISDIR(parent.st_mode):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                 path)


def cmd_invariant(args) -> int:
    d = _load_diagram(args.path)
    cfg = _skein_config(args)
    if args.trace_out:
        _check_output_path(args.trace_out)
    t0 = time.perf_counter()
    result = evaluate(d, cfg)
    elapsed = (time.perf_counter() - t0) * 1000
    # render everything and write the trace file first: a value too long
    # to print, or a trace file that cannot be written, prints nothing
    value = (result.value.render() if result.resolved
             else f"unresolved: {result.unresolved_reason}")
    text = export_trace(result, args.trace) if args.trace is not None else None
    if args.trace_out:  # refused without --trace, so text is set
        with open(args.trace_out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    stats = result.stats
    print(f"stats: nodes={stats.nodes_expanded} memo_hits={stats.memo_hits} "
          f"max_depth={stats.max_depth} elapsed_ms={elapsed:.1f}",
          file=sys.stderr)
    print(value)
    if text is not None and not args.trace_out:
        print(text)
    return EXIT_OK if result.resolved else EXIT_DOMAIN


def cmd_conway(args) -> int:
    code = (table_knot(args.knot) if args.knot is not None
            else knot_code(_load_diagram(args.path)))
    if not is_classical(code):
        raise DiagramError("the knot code is not classical (its surface has "
                           "positive genus), so its Conway value is not an "
                           "invariant")
    print(conway(code).render("z"))
    print(alexander_at_t_squared(code).render("u"))
    return EXIT_OK


def cmd_spin(args) -> int:
    if args.knot is not None:
        code = table_knot(args.knot)
        try:
            out = artin_spin(code, cut_at=args.cut or 0)
        except DiagramError as exc:
            raise ConfigError(str(exc)) from None
    elif args.cut is not None:
        raise ConfigError("--cut applies only to --knot NAME")
    else:
        out = twin_closure(_load_diagram(args.path))
    text = serialize(out) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_corpus(args) -> int:
    # imported here, not with the module: the corpus pulls in every test
    # helper, and no other command needs them
    from .acceptance import run_all
    cases = run_all()
    width = max(len(c.name) for c in cases)
    all_ok = True
    for c in cases:
        status = "PASS" if c.ok else "FAIL"
        all_ok &= c.ok
        print(f"{status}  {c.name:<{width}}  {c.elapsed_ms:9.1f} ms  {c.detail}")
    print("result:", "PASS" if all_ok else "FAIL")
    return EXIT_OK if all_ok else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twinskein",
        description="Skein-calculus invariants of ribbon twins and 2-knots "
                    "presented as welded Gauss codes.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a diagram file")
    p.add_argument("path", help="diagram file ('-' for stdin)")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("invariant",
                       help="evaluate the twin invariant or 2-knot polynomial")
    p.add_argument("path", help="diagram file ('-' for stdin)")
    p.add_argument("--multiplier", default=None,
                   help="skein multiplier as polynomial text (default t - t^-1)")
    p.add_argument("--depth", type=int, default=64,
                   help="depth budget (1 to 256)")
    p.add_argument("--trace", choices=("json", "dot"), default=None,
                   help="emit the resolution tree")
    p.add_argument("--trace-out", default=None,
                   help="write the trace to a file instead of stdout")
    p.add_argument("--no-memo", action="store_true",
                   help="disable memoization")
    p.set_defaults(fn=cmd_invariant)

    # argparse leaves a positional in a mutually exclusive group out of the
    # group's brackets, so the usage line of conway and spin is written out
    p = sub.add_parser("conway", usage="%(prog)s [-h] (PATH | --knot NAME)",
                       help="classical Conway/Alexander oracle")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("path", nargs="?", default=None, metavar="PATH",
                        help="knot file ('-' for stdin)")
    source.add_argument("--knot", default=None, metavar="NAME",
                        help="bundled table knot name")
    p.set_defaults(fn=cmd_conway)

    p = sub.add_parser("spin", help="build a twin diagram",
                       usage="%(prog)s [-h] (PATH | --knot NAME) [--cut N] "
                             "[--out PATH]")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("path", nargs="?", default=None, metavar="PATH",
                        help="two-knot file, closed into a twin "
                             "('-' for stdin)")
    source.add_argument("--knot", default=None, metavar="NAME",
                        help="bundled knot name, Artin-spun into a twin")
    p.add_argument("--cut", type=int, default=None, metavar="N",
                   help="cut position of the spun knot's code")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output path (default stdout)")
    p.set_defaults(fn=cmd_spin)

    p = sub.add_parser("corpus", help="run the bundled acceptance corpus")
    p.set_defaults(fn=cmd_corpus)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, UnicodeDecodeError, LaurentError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
