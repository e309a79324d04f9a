"""Command-line surface: the package's one front end.

Subcommands: classify, sample, dual, det, cohomology, kron check,
kron window, verify.  Every report, error documents included, is one
schema-versioned JSON document in canonical encoding, written by `_emit`
(`sample` and `dual` without --out print the presentation file).  Exit
codes: 0 success, 1 malformed input or a usage error (--help exits 0),
2 contract violation (off-table profile / non-semistable cokernel /
non-injective or non-square matrix / failed criterion, with the offending
data in the report), 3 budget exceeded (a file, Kronecker module or
cohomology table past its budget); each package error names its own as
`exit_code`.  `verify` runs at DEFAULT_SEED, as its criteria are frozen.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BudgetExceededError,
    InvalidPresentationError,
    NotInjectiveError,
    NotSemistable,
    NotSquareError,
    ProfileNotInTable,
    SexticStrataError,
)
from .fields import parse_field
from .kronecker import KroneckerModule, is_semistable, polarization_windows
from .presentation import (
    Presentation,
    dumps,
    fitting_determinant,
    h0,
    h1,
    hilbert_polynomial,
    is_injective,
    load,
    save,
    dual as dual_presentation,
)
from .sampler import SampleRequest, sample
from .strata import StratumLabel, classification_report
from .verify import DEFAULT_SEED, SUITES, run_suite

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_CONTRACT = 2
MAX_TABLE_ROWS = 1024  # cohomology rows; 10^5 rows took 0.6 s and 70 MB at peak


def _emit(doc: dict) -> None:
    """Print one report, stamped with the schema version, as canonical JSON."""
    print(json.dumps({"schema_version": 1, **doc}, sort_keys=True, separators=(",", ":")))


def _write(P: Presentation, out, kind: str, **fields) -> int:
    """Save P to `out` and report it, or print P's file text when `out` is unset."""
    if out:
        save(P, out)
        _emit({"kind": kind, "written": out, **fields})
    else:
        sys.stdout.write(dumps(P))
    return EXIT_OK


def _load_presentation(path: str) -> Presentation:
    try:
        return load(path)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise InvalidPresentationError([f"malformed presentation file: {exc}"]) from exc


def cmd_classify(args) -> int:
    P = _load_presentation(args.file)
    try:
        report = classification_report(P)
    except (ProfileNotInTable, NotInjectiveError, NotSquareError) as exc:
        doc = {
            "kind": "classification_error",
            "error": type(exc).__name__,
            "message": str(exc),
        }
        if isinstance(exc, ProfileNotInTable):
            doc["profile"] = list(exc.profile)
            doc["hilbert"] = exc.hilbert
        if isinstance(exc, NotSemistable):
            doc["violations"] = exc.violations
        _emit(doc)
        return EXIT_CONTRACT
    _emit(report)
    return EXIT_OK


def cmd_sample(args) -> int:
    field = parse_field(args.field)
    label = StratumLabel(args.stratum)
    P = sample(SampleRequest(label, field, args.seed))
    return _write(P, args.out, "sample", metadata=P.metadata)


def cmd_dual(args) -> int:
    P = _load_presentation(args.file)
    return _write(dual_presentation(P), args.out, "dual")


def cmd_det(args) -> int:
    P = _load_presentation(args.file)
    det = fitting_determinant(P)
    _emit({"kind": "determinant", "degree": det.degree, "form": det.to_encoding(),
           "pretty": det.pretty()})
    return EXIT_OK


def cmd_cohomology(args) -> int:
    if args.tmax - args.tmin >= MAX_TABLE_ROWS:
        raise BudgetExceededError(f"{args.tmax - args.tmin + 1} rows are past the table budget {MAX_TABLE_ROWS}")
    P = _load_presentation(args.file)
    # h0 and h1 assume det != 0; checked once here, not on every twist.
    if not is_injective(P):
        raise NotInjectiveError("matrix has det = 0; the cokernel is not one-dimensional")
    hp = hilbert_polynomial(P)
    rows = []
    for t in range(args.tmin, args.tmax + 1):
        a, b = h0(P, t), h1(P, t)
        rows.append({"t": t, "h0": a, "h1": b, "chi": a - b})
    _emit({"kind": "cohomology_table", "hilbert": list(hp), "rows": rows})
    return EXIT_OK


def cmd_kron_check(args) -> int:
    P = _load_presentation(args.file)
    K = KroneckerModule(P.matrix)
    res = is_semistable(K)
    doc = {
        "kind": "kronecker_check",
        "mode": res.mode,
        "verdict": res.verdict,
        "checked": res.checked,
        "budget": res.budget,
    }
    if res.witness is not None:
        doc["witness"] = res.witness.report(P.field)
    _emit(doc)
    return EXIT_OK


def cmd_kron_window(args) -> int:
    _emit({"kind": "polarization_windows", **polarization_windows()})
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    passed = sum(r.passed for r in results)
    _emit({
        "kind": "verification",
        "suite": args.suite,
        "seed": DEFAULT_SEED,
        "passed": passed,
        "total": len(results),
        "criteria": {
            str(r.number): {"name": r.name, "passed": r.passed, "details": r.details,
                            "seconds": round(r.seconds, 3)}
            for r in results
        },
    })
    return EXIT_OK if passed == len(results) else EXIT_CONTRACT


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # to main's error document and exit 1, not argparse's exit 2
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="sextic-strata",
        description="Exact classification of degree-6 Euler-characteristic-1 plane sheaf presentations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a presentation file into its stratum")
    p.add_argument("file")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("sample", help="sample a presentation of a stratum")
    p.add_argument("--stratum", required=True, choices=[l.value for l in StratumLabel])
    p.add_argument("--field", default="p:101", help="'p:<prime>' or 'rational'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("dual", help="dual presentation (twists t -> -2-t, transpose)")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("det", help="determinant of the presentation matrix")
    p.add_argument("file")
    p.set_defaults(fn=cmd_det)

    p = sub.add_parser("cohomology", help="table of h0, h1, chi over a twist range")
    p.add_argument("file")
    p.add_argument("--tmin", type=int, default=-3)
    p.add_argument("--tmax", type=int, default=3)
    p.set_defaults(fn=cmd_cohomology)

    kron = sub.add_parser("kron", help="Kronecker module operations")
    ksub = kron.add_subparsers(dest="kron_command", required=True)
    p = ksub.add_parser("check", help="semistability of an all-linear matrix")
    p.add_argument("file")
    p.set_defaults(fn=cmd_kron_check)
    p = ksub.add_parser("window", help="exact polarization windows")
    p.set_defaults(fn=cmd_kron_window)

    p = sub.add_parser("verify", help="run acceptance suites")
    p.add_argument("--suite", choices=sorted(SUITES), default="all")
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (SexticStrataError, OSError, ValueError) as exc:
        _emit({"kind": "error", "error": type(exc).__name__, "message": str(exc)})
        return exc.exit_code if isinstance(exc, SexticStrataError) else EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
