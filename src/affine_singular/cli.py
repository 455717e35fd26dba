"""Command line front end.

Subcommands:

    alg info          dump a structure table (basis, brackets, form)
    singular verify   annihilation check for a determinant vector
    singular factor   the symbolic-level lowering-factor identity
    zhu project       projection of the determinant vector onto U(g)
    zhu phi           oscillator image of the finite determinant power
    classify sp6      the sp_6 top-level classification (alias: exc6)

Every check prints a report; --json emits it as canonical JSON.  The
singular and zhu commands all run through cmd_check: each names its check
and, for singular verify/factor, a cache name.  Those reports are cached on
disk keyed by the full parameter set, so repeated runs are byte-stable;
corrupted or stale cache records are ignored with a warning.

Each command imports the modules it needs when it runs: a warm singular
verify or factor loads only this module, cache, serialize and spec.
Invalid input, such as an oversized algebra or more than
category_o.MAX_CONTROLS controls, exits with code 2 and a message.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from . import __version__
from . import cache as cache_mod
from .serialize import canonical_json
from .spec import DeterminantSpec, format_rational, parse_rational


def _versions() -> dict:
    return {"package": __version__, "cache_format": cache_mod.FORMAT_VERSION}


def _report_obj(report) -> dict:
    obj = report.to_obj()
    obj["versions"] = _versions()
    return obj


def _render_report(obj) -> list:
    lines = ["%s  %s" % ("PASS" if obj["verdict"] else "FAIL", obj["claim"])]
    params = obj.get("parameters") or {}
    if params:
        lines.append("  parameters: " + ", ".join("%s=%s" % kv for kv in sorted(params.items())))
    witness = obj.get("witness")
    if witness:
        for key in sorted(witness):
            lines.append("  witness %s: %s" % (key, witness[key]))
    for note in obj.get("notes", []):
        lines.append("  note: " + note)
    details = obj.get("details")
    if details:
        for key in sorted(details):
            value = details[key]
            if isinstance(value, (str, int, bool)):
                lines.append("  %s: %s" % (key, value))
    lines.append("  timing: %d ms" % obj.get("timing_ms", 0))
    return lines


def _emit(args, obj, text_lines=None) -> None:
    if args.json:
        sys.stdout.write(canonical_json(obj))
    else:
        for line in text_lines if text_lines is not None else _render_report(obj):
            print(line)


def _parse_level(args, spec):
    """The level of singular verify: None for --symbolic, else a rational."""
    if args.symbolic:
        return None
    if args.level is None:
        return spec.level
    try:
        return parse_rational(args.level)
    except (ValueError, ZeroDivisionError):
        raise ValueError("--level expects a rational p/q, got %r" % args.level) from None


def _cached_report(args, key, compute):
    """Fetch the report payload from cache or compute and store it.

    A record that cannot be written costs only the cache: the report is
    still returned, and a warning naming the path goes to stderr.
    """
    directory = args.cache_dir or cache_mod.default_cache_dir()
    warnings = []
    obj = None
    if not args.no_cache:
        obj, warnings = cache_mod.cache_get(directory, key)
    if obj is None:
        obj = _report_obj(compute())
        if not args.no_cache:
            try:
                cache_mod.cache_put(directory, key, obj)
            except OSError as exc:
                print("warning: cache record not written to %s: %s"
                      % (cache_mod.cache_path(directory, key), exc.strerror or exc),
                      file=sys.stderr)
    if warnings:
        # the warning is about this run's cache read, so it is printed but never stored
        obj = dict(obj, notes=obj.get("notes", []) + warnings)
    return obj


def cmd_alg_info(args) -> int:
    from .liealg import build_algebra

    table = build_algebra(args.type, args.rank)
    if args.json:
        texts = [table.text(n) for n in range(table.dimension)]
        obj = {
            "algebra": "%s_%d" % (table.kind, table.rank),
            "dimension": table.dimension,
            "basis": [
                {"text": text,
                 "weight": [format_rational(c) for c in weight],
                 "block": block}
                for text, weight, block in zip(texts, table.weights, table.blocks)
            ],
            "brackets": [
                {"pair": [texts[a], texts[b]],
                 "value": [[texts[z], format_rational(c)] for z, c in terms]}
                for a, b, terms in table.nonzero_brackets()
            ],
            "form": [
                {"pair": [texts[a], texts[b]], "value": format_rational(value)}
                for a, b, value in table.nonzero_form()
            ],
            "versions": _versions(),
        }
        _emit(args, obj)
    else:
        for line in table.info_lines():
            print(line)
    return 0


def cmd_check(args) -> int:
    """Run the check that the subcommand names, "module.function", on the
    spec of args; singular verify also passes its level.  A subcommand
    with a cache name reads and writes its report through the cache."""
    spec = DeterminantSpec(args.type, args.rank, args.m, args.n)
    options = {"level": _parse_level(args, spec)} if "symbolic" in args else {}

    def compute():
        module, name = args.check.rsplit(".", 1)
        return getattr(import_module("." + module, __package__), name)(spec, **options)

    if args.cache is None:
        obj = _report_obj(compute())
    else:
        level = options.get("level")
        key = {
            "command": args.cache,
            "kind": spec.kind, "rank": spec.rank, "m": spec.m, "n": spec.n,
            "level": "symbolic" if level is None else format_rational(level),
        }
        obj = _cached_report(args, key, compute)
    _emit(args, obj)
    return 0 if obj["verdict"] else 1


def cmd_classify(args) -> int:
    from .category_o import classify_sp6

    report = classify_sp6(seed=args.seed, controls=args.controls)
    obj = _report_obj(report)
    if args.json:
        _emit(args, obj)
    else:
        lines = _render_report(obj)
        details = obj.get("details", {})
        for entry in details.get("lines", []):
            lines.append("  line %-16s weight (%s)  vanishes: %s" % (
                entry["line"], ", ".join(entry["finite_weight"]), entry["all_polynomials_vanish"]))
        for entry in details.get("points", []):
            lines.append("  point %-22s weight (%s)  vanishes: %s" % (
                entry["weight"], ", ".join(entry["finite_weight"]), entry["all_polynomials_vanish"]))
        ok = sum(1 for c in details.get("negative_controls", []) if c["violates"])
        lines.append("  off-locus controls violating a polynomial: %d/%d" % (
            ok, len(details.get("negative_controls", []))))
        _emit(args, obj, lines)
    return 0 if obj["verdict"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affine-singular",
        description="Exact checks for determinant singular vectors in vacuum modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a canonical JSON report")

    algebra = argparse.ArgumentParser(add_help=False)
    algebra.add_argument("--type", choices=("C", "A"), required=True, help="algebra family")
    algebra.add_argument("--rank", type=int, required=True, help="rank l")

    sized = argparse.ArgumentParser(add_help=False, parents=[algebra])
    sized.add_argument("-m", type=int, required=True, help="matrix size")
    sized.add_argument("-n", type=int, default=1, help="determinant power")

    caching = argparse.ArgumentParser(add_help=False)
    caching.add_argument("--cache-dir", default=None,
                         help="cache directory (default: AFFINE_SINGULAR_CACHE or ~/.cache/affine-singular)")
    caching.add_argument("--no-cache", action="store_true", help="bypass the on-disk cache")

    alg = sub.add_parser("alg", help="structure table commands").add_subparsers(
        dest="subcommand", required=True)
    p = alg.add_parser("info", parents=[common, algebra], help="dump basis, brackets and form")
    p.set_defaults(func=cmd_alg_info)

    singular = sub.add_parser("singular", help="determinant vector checks").add_subparsers(
        dest="subcommand", required=True)
    p = singular.add_parser("verify", parents=[common, sized, caching],
                            help="annihilation check at a numeric level")
    level = p.add_mutually_exclusive_group()
    level.add_argument("--level", default=None, help="rational level override, e.g. -1/2")
    level.add_argument("--symbolic", action="store_true", help="keep the level symbolic")
    p.set_defaults(func=cmd_check, check="determinants.verify_singular", cache="singular-verify")
    p = singular.add_parser("factor", parents=[common, sized, caching],
                            help="symbolic lowering-factor identity")
    p.set_defaults(func=cmd_check, check="determinants.lowering_factor_check", cache="singular-factor")

    zhu_cmd = sub.add_parser("zhu", help="projection to U(g) and the oscillator image").add_subparsers(
        dest="subcommand", required=True)
    p = zhu_cmd.add_parser("project", parents=[common, sized],
                           help="determinant vector projects onto the finite determinant power")
    p.set_defaults(func=cmd_check, check="zhu.verify_zhu_generator", cache=None)
    p = zhu_cmd.add_parser("phi", parents=[common, sized],
                           help="oscillator image of the finite determinant power")
    p.set_defaults(func=cmd_check, check="zhu.verify_weyl_vanishing", cache=None)

    classify = sub.add_parser("classify", help="highest weight classifications").add_subparsers(
        dest="subcommand", required=True)
    for name in ("sp6", "exc6"):
        p = classify.add_parser(name, parents=[common],
                                help="sp_6 top-level classification" + ("" if name == "sp6" else " (alias)"))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--controls", type=int, default=20)
        p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a negative level such as -1/2 as an option: glue it to its flag
    for t in reversed(range(1, len(argv))):
        if argv[t - 1] == "--level" and argv[t][:1] == "-" and argv[t][1:2].isdigit():
            argv[t - 1:t + 1] = ["--level=" + argv[t]]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
