"""Command-line surface: the package's one front end.

Subcommands: classify, sample, dual, det, cohomology, kron check,
kron window, verify.  Every report, error documents included, is one
schema-versioned JSON document in canonical encoding, written by `_emit`;
--human renders it as text.  Exit codes: 0 success, 1 malformed input
or a usage error (--help exits 0), 2 contract violation (off-table profile / non-semistable cokernel /
non-injective or non-square matrix / failed criterion, with the offending
data in the report), 3 budget exceeded; each package error names its own
as `exit_code`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
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


def _emit(doc: dict, human: bool) -> None:
    """Print one report, stamped with the schema version: canonical JSON,
    or text under --human."""
    doc = {"schema_version": 1, **doc}
    if human:
        print(_render(doc))
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _render(doc: dict, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render(value, indent + 1))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


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
        _emit(doc, args.human)
        return EXIT_CONTRACT
    _emit(report, args.human)
    return EXIT_OK


def cmd_sample(args) -> int:
    field = parse_field(args.field)
    label = StratumLabel(args.stratum)
    P = sample(SampleRequest(label, field, args.seed))
    if args.out:
        save(P, args.out)
        _emit({"kind": "sample", "written": args.out, "metadata": P.metadata}, args.human)
    else:
        sys.stdout.write(dumps(P))
    return EXIT_OK


def cmd_dual(args) -> int:
    P = _load_presentation(args.file)
    G = dual_presentation(P)
    if args.out:
        save(G, args.out)
        _emit({"kind": "dual", "written": args.out}, args.human)
    else:
        sys.stdout.write(dumps(G))
    return EXIT_OK


def cmd_det(args) -> int:
    P = _load_presentation(args.file)
    det = fitting_determinant(P)
    _emit({"kind": "determinant", "degree": det.degree, "form": det.to_encoding(),
           "pretty": det.pretty()}, args.human)
    return EXIT_OK


def cmd_cohomology(args) -> int:
    P = _load_presentation(args.file)
    # h0 and h1 assume det != 0; checked once here, not on every twist.
    if not is_injective(P):
        raise NotInjectiveError("matrix has det = 0; the cokernel is not one-dimensional")
    hp = hilbert_polynomial(P)
    rows = []
    for t in range(args.tmin, args.tmax + 1):
        a, b = h0(P, t), h1(P, t)
        rows.append({"t": t, "h0": a, "h1": b, "chi": a - b})
    _emit({"kind": "cohomology_table", "hilbert": list(hp), "rows": rows}, args.human)
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
    _emit(doc, args.human)
    return EXIT_OK


def cmd_kron_window(args) -> int:
    _emit({"kind": "polarization_windows", **polarization_windows()}, args.human)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed)
    passed = sum(r.passed for r in results)
    _emit(
        {
            "kind": "verification",
            "suite": args.suite,
            "seed": args.seed,
            "passed": passed,
            "total": len(results),
            "criteria": {
                str(r.number): {"name": r.name, "passed": r.passed, "details": r.details,
                                "seconds": round(r.seconds, 3)}
                for r in results
            },
        },
        args.human,
    )
    return EXIT_OK if passed == len(results) else EXIT_CONTRACT


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # to main's error document and exit 1, not argparse's exit 2
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="sextic-strata",
        description="Exact classification of degree-6 Euler-characteristic-1 plane sheaf presentations.",
    )
    ap.add_argument("--human", action="store_true", help="render reports as text instead of JSON")
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
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = argparse.Namespace(human=False)  # what a usage error is rendered with
    try:
        build_parser().parse_args(argv, namespace=args)
        return args.fn(args)
    except (SexticStrataError, OSError, ValueError) as exc:
        _emit({"kind": "error", "error": type(exc).__name__, "message": str(exc)}, args.human)
        return exc.exit_code if isinstance(exc, SexticStrataError) else EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
