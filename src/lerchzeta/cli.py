"""Command-line front end.

Subcommands:

  eval        evaluate one zeta value (split-sum, oracle, or reflection route)
  fecheck     residual scan of the functional equations -> CSV
  afescan     split-sum vs oracle deviations against the error envelope -> CSV
  calibrate   measure envelope constants and write the calibration file
  meansquare  mean-square experiment ladder -> CSV

Every CSV has a JSON mirror via --format json.  Output is byte-deterministic
for identical flags except for the leading timestamp comment, which --no-meta
suppresses.  Rows are written as they are computed, so no table is held
whole: afescan's memory does not grow with the number of heights.  A new or
plain --out file is written under a temporary name beside it and moved into
place only when the command succeeds; a failed command leaves no file, and a
file already at the path untouched.  Any other --out target (a symlink, a
device, a FIFO, a file with other hard links) is written through as rows
arrive, as stdout is: a failure after the first row leaves part of a table
there, and only the exit code and the error line on stderr mark it.  Exit
codes: 0 success, 2 bad flags or domain errors, 3 when --strict is set and
any emitted point is flagged unreliable (or a scan point fails its bound).
The CLI keeps no copy of a library rule: the routes refuse a non-rational
alpha or lambda, and afe.scan_grid checks every afescan height up front.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import stat
import sys
import time
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable, Iterator, TextIO

from . import afe, funceq, meansquare
from .errors import ConfigError, DomainError
from .oracles import lerch_via_hurwitz
from .params import as_unit_fraction, check_unit

__all__ = ["main"]


def _parse_fraction(text: str, name: str) -> Fraction:
    """Parse "p/q" or a decimal as an exact Fraction in (0, 1]; a route that
    needs it rational applies params.as_unit_fraction itself."""
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"cannot parse {name}={text!r} as p/q or decimal")
    return check_unit(frac, name)


def _parse_split(spec: str, t: float) -> afe.AfeSplit:
    if spec in ("balanced", "meansquare", "meanSquare"):
        return afe.choose_split(t, "balanced" if spec == "balanced" else "meanSquare")
    pieces = [p.split("=", 1) for p in spec.split(",")]
    parts = dict(p for p in pieces if len(p) == 2)
    if len(parts) != len(pieces) or set(parts) - {"x", "y"}:
        raise DomainError(f"bad --split {spec!r}: use balanced, meansquare, "
                          f"or x=...[,y=...]")
    try:
        x, y = (float(parts[k]) if k in parts else None for k in "xy")
        if x is None:
            x = abs(t) / (2.0 * math.pi * y)
        elif y is None:
            y = abs(t) / (2.0 * math.pi * x)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"bad --split {spec!r}: x and y must be positive "
                          f"numbers") from None
    return afe.AfeSplit(x, y)


def _meta_line(args) -> str | None:
    if args.no_meta:
        return None
    return f"lerchzeta {args.command} {time.strftime('%Y-%m-%dT%H:%M:%S%z')}"


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written, before any work is done:
    also one that names no file (empty, a directory, or ending in a path
    separator)."""
    if path == "-":
        return
    if not os.path.basename(path) or os.path.isdir(path):
        raise ConfigError(f"cannot write {path!r}: it names no file")
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ConfigError(f"cannot write {path}: no directory {folder}")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise ConfigError(f"cannot write {path}: permission denied")


def _replaceable(path: str) -> bool:
    """Whether a finished --out table may be moved onto path: when nothing
    is there, or a plain file of one link that this process owns, in a
    writable directory.  Anything else (a symlink, so also /dev/stdout and
    /dev/fd/N; a device such as /dev/null; a FIFO; a hard-linked or foreign
    file; a read-only directory) is written through instead, so that a
    rename never replaces what the path stands for."""
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        return True
    return (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
            and st.st_uid == os.geteuid()
            and os.access(os.path.dirname(os.path.abspath(path)), os.W_OK))


@contextlib.contextmanager
def _destination(path: str) -> Iterator[TextIO]:
    """stdout for "-".  For a path that is _replaceable, a new temporary
    file beside it, moved onto it with os.replace (keeping the mode of a
    file already there) when the block ends, and deleted when it raises: a
    failed command leaves no file and no temporary, and a file already
    there untouched.  Any other path is opened and written through, as
    stdout is, so a failure can leave part of a table in it."""
    if path == "-":
        yield sys.stdout
        return
    if not _replaceable(path):
        with open(path, "w", encoding="ascii") as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="ascii")
    try:
        with fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(args, rows: Iterable[dict]) -> None:
    """Write rows as CSV or as their JSON mirror, each row as it arrives, so
    no table is held whole.  The CSV columns are the first row's keys except
    ``reliable``; a column whose first value is a float is written with
    %.17g, any other with str.  The JSON is, byte for byte,
    json.dumps({"records": rows[, "meta": meta]}, indent=2) plus a newline.
    Nothing is written before the first row exists."""
    meta = _meta_line(args)
    rows = iter(rows)
    head = list(islice(rows, 1))
    with _destination(args.out) as out:
        if args.format == "json":
            out.write('{\n  "records": [')
            sep = "\n    "
            for row in chain(head, rows):
                # a record of the whole document sits 4 spaces further in
                out.write(sep + json.dumps(row, indent=2)
                          .replace("\n", "\n    "))
                sep = ",\n    "
            out.write("\n  ]" if head else "]")
            if meta:
                out.write(f',\n  "meta": {json.dumps(meta)}')
            out.write("\n}\n")
            return
        if meta:
            out.write(f"# {meta}\n")
        cols = [c for c in head[0] if c != "reliable"]
        out.write(",".join(cols) + "\n")
        line = ",".join(f"%({c}).17g" if isinstance(head[0][c], float)
                        else f"%({c})s" for c in cols) + "\n"
        for row in chain(head, rows):
            out.write(line % row)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    s = complex(args.sigma, args.t)
    alpha = _parse_fraction(args.alpha, "alpha")
    lam = _parse_fraction(args.lam, "lambda")

    if args.method == "oracle":
        res = lerch_via_hurwitz(s, float(alpha), lam)
    elif args.method == "fe":
        res = funceq.fe_rhs(s, alpha, lam)
    else:
        try:
            as_unit_fraction(alpha)
            as_unit_fraction(lam)
        except DomainError:
            print("warning: irrational parameter, no oracle cross-check applies",
                  file=sys.stderr)
        split = _parse_split(args.split, args.t)
        a, l = float(alpha), float(lam)
        res = afe.afe_eval(afe.kind_for(a, l), s, a, l, split)

    record = {
        "sigma": args.sigma, "t": args.t, "alpha": args.alpha, "lambda": args.lam,
        "method": args.method, "re": res.value.real, "im": res.value.imag,
        "error_estimate": res.error_estimate, "main_terms": res.main_terms,
        "dual_terms": res.dual_terms, "reliable": res.reliable,
    }
    if args.format == "json":
        print(json.dumps(record, indent=2))
    else:
        print(f"value = {res.value.real:.17g} {res.value.imag:+.17g}i")
        print(f"error_estimate = {res.error_estimate:.6g}")
        print(f"terms = {res.main_terms} main + {res.dual_terms} dual")
        print(f"method = {args.method}  reliable = {res.reliable}")
    if args.strict and not res.reliable:
        return 3
    return 0


# ---------------------------------------------------------------------------
# fecheck
# ---------------------------------------------------------------------------

def _cmd_fecheck(args) -> int:
    _check_out(args.out)
    kinds = afe.KINDS if args.kind == "all" else (args.kind,)
    records = []
    for kind in kinds:
        records.extend(funceq.fe_residual_scan(kind, funceq.default_fe_grid(kind)))
    records.sort(key=lambda r: r.residual, reverse=True)
    rows = [{"sigma": r.s.real, "t": r.s.imag,
             "alpha_num": r.alpha.numerator, "alpha_den": r.alpha.denominator,
             "lambda_num": r.lam.numerator, "lambda_den": r.lam.denominator,
             "residual": r.residual, "reliable": r.reliable} for r in records]
    _emit(args, rows)
    worst = max((r.residual for r in records), default=0.0)
    print(f"fecheck: {len(records)} points, max_residual = {worst:.3e}",
          file=sys.stderr)
    if args.strict and any(not r.reliable for r in records):
        return 3
    return 0


# ---------------------------------------------------------------------------
# afescan
# ---------------------------------------------------------------------------

_SCAN_T = (80.0, 120.0, 300.0, 700.0)


def _cmd_afescan(args) -> int:
    _check_out(args.out)
    kinds = afe.KINDS if args.kind == "all" else (args.kind,)
    heights = args.t or list(_SCAN_T)
    cfits = {kind: afe.get_cfit(kind) for kind in kinds}
    # scan_grid checks every height now: a bad one exits 2 before any byte
    grids = {kind: afe.scan_grid(kind, heights, afe.split_shapes)
             for kind in kinds}
    summary = {}

    def rows():
        for kind in kinds:
            count, worst, above = 0, 0.0, 0
            for pt, err, env in afe.envelope_scan(kind, grids[kind]):
                ratio = err / env
                count += 1
                worst = max(worst, ratio)
                above += ratio > cfits[kind]
                yield {"kind": kind, "sigma": pt.sigma, "t": pt.t,
                       "split": pt.shape, "x": pt.split.x, "y": pt.split.y,
                       "alpha_num": pt.alpha.numerator,
                       "alpha_den": pt.alpha.denominator,
                       "lambda_num": pt.lam.numerator,
                       "lambda_den": pt.lam.denominator,
                       "abs_err": err, "envelope": env, "ratio": ratio}
            summary[kind] = count, worst, above

    _emit(args, rows())
    failed = 0
    for kind, (count, worst, above) in summary.items():
        failed += above
        print(f"afescan[{kind}]: {count} points, max ratio = {worst:.4f}, "
              f"C_fit = {cfits[kind]:.4f}", file=sys.stderr)
    if args.strict and failed:
        return 3
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def _cmd_calibrate(args) -> int:
    _check_out(args.out)
    kinds = afe.KINDS if args.kind == "all" else (args.kind,)
    values = dict(afe.DEFAULT_CFIT)
    for kind in kinds:
        values[kind] = afe.envelope_fit(kind, afe.default_calibration_grid(kind))
        print(f"{kind} = {values[kind]:.17g}")
    if args.out != "-":
        afe.write_calibration(args.out, values)
        print(f"calibration written to {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# meansquare
# ---------------------------------------------------------------------------

def _cmd_meansquare(args) -> int:
    _check_out(args.out)
    records = meansquare.mean_square_ladder(
        args.T, _parse_fraction(args.alpha, "alpha"),
        _parse_fraction(args.lam, "lambda"), step=args.step,
        method=args.method, checkpoints=args.checkpoints or None)
    rows = [{"T": r.T, "alpha": r.alpha, "lambda": r.lam,
             "integral": r.integral_value, "main_term": r.main_term,
             "residual": r.residual, "quad_err": r.quadrature_error_estimate,
             "method": r.method, "step": r.step, "reliable": r.reliable}
            for r in records]
    _emit(args, rows)
    if len(records) >= 4:
        fit = meansquare.fit_residual_exponent(
            [r.T for r in records], [r.residual for r in records],
            [r.quadrature_error_estimate for r in records])
        print(f"meansquare: fitted residual exponent = {fit.exponent:.4f} "
              f"(constant {fit.constant:.4g}"
              f"{', degenerate' if fit.degenerate else ''})", file=sys.stderr)
    if args.strict and any(not r.reliable for r in records):
        return 3
    return 0


# ---------------------------------------------------------------------------

def _add_common(sp) -> None:
    sp.add_argument("--out", default="-", help="output path ('-' = stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--no-meta", action="store_true",
                    help="suppress the timestamp comment line")
    sp.add_argument("--strict", action="store_true",
                    help="exit 3 if any point is flagged unreliable")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lerchzeta",
        description="Split-sum evaluation and verification for the Hurwitz "
                    "and Lerch zeta-functions")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate one value")
    sp.add_argument("--sigma", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--alpha", default="1")
    sp.add_argument("--lambda", dest="lam", default="1")
    sp.add_argument("--method", choices=("afe", "oracle", "fe"), default="afe")
    sp.add_argument("--split", default="balanced",
                    help="balanced | meansquare | x=...[,y=...]")
    # eval prints one value to stdout: no --out or --no-meta
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--strict", action="store_true",
                    help="exit 3 if the value is flagged unreliable")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("fecheck", help="functional-equation residual scan")
    sp.add_argument("--kind", choices=afe.KINDS + ("all",), default="all")
    _add_common(sp)
    sp.set_defaults(func=_cmd_fecheck)

    sp = sub.add_parser("afescan", help="split-sum deviation vs envelope scan")
    sp.add_argument("--kind", choices=afe.KINDS + ("all",), default="all")
    sp.add_argument("--t", type=float, action="append",
                    help="height (repeatable; default 80,120,300,700)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_afescan)

    sp = sub.add_parser("calibrate", help="measure envelope constants")
    sp.add_argument("--kind", choices=afe.KINDS + ("all",), default="all")
    sp.add_argument("--out", default="afe_calibration.txt")
    sp.set_defaults(func=_cmd_calibrate)

    sp = sub.add_parser("meansquare", help="mean-square experiment")
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--alpha", default="1")
    sp.add_argument("--lambda", dest="lam", default="1")
    sp.add_argument("--step", type=float,
                    help="grid spacing <= step/2 (default 0.02 for afe and "
                         "partialSum, 0.08 for oracle)")
    sp.add_argument("--method", choices=meansquare.METHODS, default="afe")
    sp.add_argument("--checkpoints", type=float, action="append",
                    help="checkpoint T (repeatable; default geometric ladder)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_meansquare)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DomainError, ConfigError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
