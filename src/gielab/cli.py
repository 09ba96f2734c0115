"""Command-line front end: compute single points, sweep grids, run verification.

Exit codes: 0 success, 1 usage error, 2 a --strict point outside the proven
validity domain, 3 output I/O error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys

from .config import DEFAULT_GRID, GridConfig
from .errors import GielabError
from .gie import gie_closed_form, gie_numeric, verified_domain
from .renyi2 import gr2_of_family
from .states import FAMILY_PARAMS, make_family
from .verify import run_suite

CSV_HEADER = ["family", "a", "b", "kx", "kp", "gie_closed_nats", "gie_numeric_nats", "gr2_nats", "gap", "verified", "eve_optimum"]

_PARAM_FLAGS = sorted({name for names in FAMILY_PARAMS.values() for name in names})  # a, b, k, kp, r
RANGE_STEP_SLACK = 1e-9  # a range keeps its stop value when (stop - start) / step falls this short of a whole count


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(value, ".17g")


def _family_tokens(args) -> dict:
    """The family's flags and their values; every other parameter flag must be absent."""
    names = FAMILY_PARAMS[args.family.replace("-", "_")]
    given = [name for name in _PARAM_FLAGS if getattr(args, name) is not None]
    if set(given) != set(names):
        got = " ".join(f"--{name}" for name in given) or "none"
        raise GielabError(f"family {args.family} takes --{' --'.join(names)}, got {got}")
    return {name: getattr(args, name) for name in names}


def _run_point(family: str, values: dict, args, grid_cfg: GridConfig, trace_path: str | None = None) -> dict:
    fam = make_family(family.replace("-", "_"), **values)
    closed = gie_closed_form(fam)
    record = {
        "family": family,
        "a": fam.std.a,
        "b": fam.std.b,
        "kx": fam.std.kx,
        "kp": fam.std.kp,
        "gie_closed_nats": closed,
        "gie_numeric_nats": None,
        "gr2_nats": None,
        "gap": None,
        "verified": verified_domain(fam),
        "eve_optimum": "",
        "trace_path": None,
    }
    if args.numeric:
        res = gie_numeric(fam, grid_cfg)
        record["gie_numeric_nats"] = res.numeric
        record["eve_optimum"] = res.eve_optimum
        record["verified"] = res.verified
        if trace_path:
            entries = [
                {"params": [x if math.isfinite(x) else "inf" for x in params], "value": value}
                for params, value in res.optimizer_trace
            ]
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(entries, fh, indent=1)
            record["trace_path"] = trace_path
    if args.with_gr2:
        gr2 = gr2_of_family(fam)
        record["gr2_nats"] = gr2
        record["gap"] = abs(closed - gr2)
    return record


def _to_bits(record: dict) -> dict:
    out = dict(record)
    for key in ("gie_closed_nats", "gie_numeric_nats", "gr2_nats", "gap"):
        if out.get(key) is not None:
            out[key] = out[key] / math.log(2.0)
    return out


def _number(text: str, token: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise GielabError(f"--{name} {token!r} is not a number, start:stop:step or a+/-offset") from None


def _parse_range(token: str, bound: dict, name: str):
    """A parameter token: scalar, start:stop:step range, or a +/- offset of a."""
    if ":" in token:
        parts = token.split(":")
        if len(parts) != 3:
            raise GielabError(f"--{name} {token!r}: a range is start:stop:step")
        start, stop, step = (_number(part, token, name) for part in parts)
        if not (math.isfinite(start) and math.isfinite(stop) and step > 0):
            raise GielabError(f"range {token!r} needs finite ends and a positive step")
        if stop < start:
            return []  # empty range: header-only output
        count = int(math.floor((stop - start) / step + RANGE_STEP_SLACK)) + 1
        return [start + i * step for i in range(count)]
    if name != "a" and (token.startswith("a+") or token.startswith("a-")):
        bound[name] = _number(token[1:], token, name)
        return ["derived"]
    return [_number(token, token, name)]


def cmd_compute(args) -> int:
    grid_cfg = GridConfig(points=args.grid)
    values = _family_tokens(args)
    if args.out and not args.numeric:
        raise GielabError("--out writes the optimizer trace, so it needs --numeric")
    try:
        record = _run_point(args.family, values, args, grid_cfg, trace_path=args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    if args.strict and not record["verified"]:
        print("error: point lies outside the proven validity domain (--strict)", file=sys.stderr)
        return 2
    print(json.dumps(_to_bits(record) if args.bits else record))
    return 0


def _csv_row(record: dict) -> list[str]:
    row = [record.get("family", "")]
    for key in ("a", "b", "kx", "kp", "gie_closed_nats", "gie_numeric_nats", "gr2_nats", "gap"):
        value = record.get(key)
        row.append(_fmt(value) if isinstance(value, (int, float)) else "")
    row.append(str(bool(record.get("verified"))).lower())
    row.append(record.get("eve_optimum", ""))
    return row


def cmd_sweep(args) -> int:
    grid_cfg = GridConfig(points=args.grid)
    bound: dict = {}
    axes = {name: _parse_range(token, bound, name) for name, token in _family_tokens(args).items()}
    if bound and "a" not in axes:
        raise GielabError(f"an a+/-offset for --{' --'.join(bound)} needs --a, which family {args.family} does not take")

    def records():
        for point in itertools.product(*axes.values()):
            values = dict(zip(axes, point))
            for name, offset in bound.items():
                values[name] = values["a"] + offset
            try:
                record = _run_point(args.family, values, args, grid_cfg)
                if args.bits:
                    record = _to_bits(record)
            except GielabError as exc:
                record = {
                    "family": args.family,
                    "a": values.get("a"),
                    "b": values.get("b"),
                    "verified": False,
                    "eve_optimum": f"error: {exc}",
                }
            yield record

    try:  # --out is opened before the first point, and each row is written as it is computed
        fh = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
        try:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for record in records():
                writer.writerow(_csv_row(record))
        finally:
            if args.out:
                fh.close()
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_verify(args) -> int:
    checks = run_suite(args.suite, None if args.grid is None else GridConfig(points=args.grid))
    failed = [c for c in checks if not c.passed]
    for check in checks:
        print(check.line())
    if failed:
        print(f"{len(failed)} of {len(checks)} checks failed", file=sys.stderr)
        return 4
    print(f"all {len(checks)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gielab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p, sweep=False):
        p.add_argument("--family", required=True, choices=sorted(tag.replace("_", "-") for tag in FAMILY_PARAMS))
        for name in _PARAM_FLAGS:
            if sweep:
                p.add_argument(f"--{name}", type=str, default=None, help="scalar, start:stop:step, or a+/-offset")
            else:
                p.add_argument(f"--{name}", type=float, default=None)
        p.add_argument("--with-gr2", action="store_true")
        p.add_argument("--numeric", action="store_true")
        p.add_argument("--grid", type=int, default=DEFAULT_GRID.points, metavar="N")
        p.add_argument("--bits", action="store_true")

    p_compute = sub.add_parser("compute", help="compute a single point, JSON on stdout")
    add_params(p_compute)
    p_compute.add_argument("--strict", action="store_true")
    p_compute.add_argument("--out", type=str, default=None, metavar="PATH",
                           help="write the optimizer trace here (with --numeric)")
    p_compute.set_defaults(func=cmd_compute)

    p_sweep = sub.add_parser("sweep", help="sweep parameter ranges into CSV")
    add_params(p_sweep, sweep=True)
    p_sweep.add_argument("--out", type=str, default=None, metavar="PATH")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("suite", choices=["fast", "full"], nargs="?", default="fast")
    p_verify.add_argument("--grid", type=int, default=None, metavar="N")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except GielabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
