"""Command-line front end.

Exit codes: 0 success / consistent, 1 a check failed (audit, comparison, or
certificate), 2 usage error, 141 stdout was closed before the report was
written (128 + SIGPIPE, as a shell reports a process killed by SIGPIPE).
Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bigness as big
from . import catalog, fpgroup, vankampen
from .arrangement import Arrangement

USAGE_ERROR = 2
CHECK_FAILED = 1
STDOUT_CLOSED = 141
OVERRIDE_SCOPE = "--ztilde-override applies only to raw presentations and bmf"


def _die(msg: str) -> int:
    print(msg, file=sys.stderr)
    return USAGE_ERROR


def _battery_from(args) -> tuple[str, ...]:
    """The --targets comma list, checked by `fpgroup.battery_names`; its
    ValueError is a usage error."""
    raw = getattr(args, "targets", None)
    if raw is None:
        return fpgroup.battery_names()
    return fpgroup.battery_names(tuple(t.strip() for t in raw.split(",") if t.strip()))


def _bmf(arrangement: Arrangement, args) -> catalog.BMF:
    """The factorization with the override file applied; an override error
    names the file."""
    path = args.ztilde_override
    if not path:
        return arrangement.bmf()
    try:
        with open(path) as fh:
            overrides = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read override file {path!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"override file {path!r} is not valid JSON: {exc}") from None
    try:
        return arrangement.bmf(overrides)
    except ValueError as exc:
        raise ValueError(f"override file {path!r}: {exc}") from None


def _raw_presentation(arrangement: Arrangement, args) -> vankampen.Presentation:
    return vankampen.raw_presentation(_bmf(arrangement, args), projective=not args.affine)


def _presentation_for(args) -> vankampen.Presentation:
    arrangement = Arrangement(args.family, args.n, args.m)
    if getattr(args, "paper", False):
        if args.ztilde_override:
            raise ValueError(f"{OVERRIDE_SCOPE}, not to the stated (--paper) presentation")
        return arrangement.stated(projective=not args.affine)
    return _raw_presentation(arrangement, args)


def cmd_bmf(args) -> int:
    bmf = _bmf(Arrangement(args.family, args.n, args.m), args)
    report = catalog.audit(bmf)
    if args.json:
        print(json.dumps({"bmf": catalog.bmf_to_json(bmf),
                          "audit": report.to_json()}, indent=2))
    else:
        print(f"family {bmf.family} n={bmf.n} m={bmf.m}: "
              f"{len(bmf.factors)} factors on {bmf.strand_count} strands")
        for f in bmf.factors:
            star = " (provisional)" if f.provisional else ""
            print(f"  [{f.sing_type.name.lower():9}] {f.origin}{star}")
        print(f"exponent sum {report.exponent_sum} "
              f"(expected {report.expected_exponent_sum}); counts {report.counts}")
        for c in report.checks:
            print(f"  check {c.name}: {'ok' if c.passed else 'FAIL'} {c.detail}")
        if report.provisional_factors:
            print("provisional (tilde) factors:",
                  "; ".join(report.provisional_factors), file=sys.stderr)
    return 0 if report.passed else CHECK_FAILED


def cmd_present(args) -> int:
    p = _presentation_for(args)
    if args.json:
        print(json.dumps(vankampen.presentation_to_json(p), indent=2))
    else:
        print(vankampen.presentation_text(p))
    return 0


def cmd_abelianize(args) -> int:
    p = _presentation_for(args)
    result = fpgroup.abelianization(p)
    out = {"free_rank": result.rank_free, "torsion": list(result.torsion),
           "invariant_factors": list(result.diagonal)}
    if args.json:
        print(json.dumps(out))
    else:
        print(f"free rank {result.rank_free}, torsion {list(result.torsion) or 'none'}")
    return 0


def cmd_fingerprint(args) -> int:
    battery = _battery_from(args)
    p = _presentation_for(args)
    fp = fpgroup.fingerprint(p, battery)
    if args.json:
        print(json.dumps(fp.to_json()))
    else:
        for name, count in fp.counts.items():
            print(f"{name}: {count}")
        for name in fp.skipped:
            print(f"{name}: skipped (too many generators)", file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    battery = _battery_from(args)
    arrangement = Arrangement(args.family, args.n, args.m)
    raw = _raw_presentation(arrangement, args)
    paper = arrangement.stated(projective=not args.affine)
    report = fpgroup.compare(raw, paper, battery)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        for name, (a, b) in report.per_target.items():
            print(f"{name}: raw {a} vs stated {b}")
        print(report.verdict)
    return 0 if report.consistent else CHECK_FAILED


def cmd_bigness(args) -> int:
    if args.ztilde_override:
        return _die(f"{OVERRIDE_SCOPE}, not to bigness (it certifies the stated presentation)")
    cert = Arrangement(args.family, args.n, args.m).certificate()
    report = big.certify_certificate(cert)
    if args.json:
        print(json.dumps(dict(cert.to_json(), checks=report.to_json()["checks"],
                              passed=report.passed), indent=2))
    else:
        for c in report.checks:
            print(f"{c.name}: {'ok' if c.passed else 'FAIL'} {c.detail}")
        print("certificate", "passes" if report.passed else "FAILS")
    return 0 if report.passed else CHECK_FAILED


def _add_common(sub):
    sub.add_argument("family", help="arrangement family: C or T")
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--m", type=int, default=None)
    sub.add_argument("--json", action="store_true")
    sub.add_argument("--ztilde-override", metavar="FILE",
                     help="JSON file mapping factor origins to conjugator lists")


def _add_presentation_flags(sub):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--raw", action="store_true",
                       help="raw van Kampen presentation (default)")
    group.add_argument("--paper", action="store_true",
                       help="the stated simplified presentation")
    sub.add_argument("--affine", action="store_true",
                     help="affine group (default is projective)")
    sub.add_argument("--projective", action="store_true",
                     help="projective group (the default; kept for clarity)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conicline",
        description="Braid monodromy factorizations of tangent conic-line "
                    "arrangements and their fundamental groups")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("bmf", help="emit a factorization and its audit")
    _add_common(s)
    s.set_defaults(func=cmd_bmf)

    for name, fn in (("present", cmd_present), ("abelianize", cmd_abelianize),
                     ("fingerprint", cmd_fingerprint)):
        s = subs.add_parser(name)
        _add_common(s)
        _add_presentation_flags(s)
        if name == "fingerprint":
            s.add_argument("--targets", help="comma-separated battery, e.g. S3,A4")
        s.set_defaults(func=fn)

    s = subs.add_parser("compare", help="raw vs stated presentation fingerprints")
    _add_common(s)
    s.add_argument("--affine", action="store_true")
    s.add_argument("--targets", help="comma-separated battery, e.g. S3,A4")
    s.set_defaults(func=cmd_compare)

    s = subs.add_parser("bigness", help="build and verify a bigness certificate")
    _add_common(s)
    s.set_defaults(func=cmd_bigness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "affine"):
        args.affine = False
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away. Point stdout at devnull so that the flush at
        # interpreter exit cannot raise again (the recipe of the `signal`
        # module documentation, "Note on SIGPIPE").
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return STDOUT_CLOSED
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else USAGE_ERROR
    except ValueError as exc:
        return _die(str(exc))


if __name__ == "__main__":
    sys.exit(main())
