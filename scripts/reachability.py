"""Fail on any function under src/ that no command-line entry point reaches.

Runs the CLI in one process under sys.setprofile:

* sample, classify, det, dual and cohomology for every stratum over
  GF(2), GF(3), GF(101), GF(2^31 - 1), GF(2^31 + 11) and Q;
* kron check on one semistable GF(3) module and on a GF(101) and a Q
  module, each with a destabilizing (3, 2) zero block (verdict unstable);
* classify on a conic O(-2) -> O over GF(101), which must exit 2: its
  Hilbert polynomial 2m+1 is not in the table;
* kron check on a 9 x 9 GF(101) module, cohomology of a sample at
  twists 0 to 10^9 and classify on a file of 65 x 65 empty cells, which
  must exit 3: each is past its budget (module entries, table rows and
  load cells);
* kron window and verify --suite all;
* one usage error, a removed option, which must exit 1.

The hook is installed before the package is imported, so what runs at
import counts as reached.  The probe files are written outside the hook,
and every functools.lru_cache of the package is emptied after them, so
no cached call made there hides a function from the commands.  Every function or method defined in the
package that no call reached, and that is neither a dunder (a protocol
hook such as __repr__, __hash__, an immutability guard or an error
constructor, which Python calls and no entry point needs to) nor listed
in ALLOWED, is printed and makes the exit code 1.  So does an ALLOWED
entry that was reached after all or names no function, which keeps the
list short and true, and so does any command that exits with another
code than the one listed for it (0 for all but the conic, the three
budget probes and the usage error): a failing command reaches the code
of its failure, not the code it names.
Run from the repository root:

    PYTHONPATH=src python scripts/reachability.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import io
import json
import sys
import tempfile
import time
from pathlib import Path
from types import CodeType

FIELDS = ("p:2", "p:3", "p:101", "p:2147483647", "p:2147483659", "rational")

# Functions no entry point reaches, each with the reason it stays.
ALLOWED = {
    "sextic_strata.forms.Form.coeffs": "read by perfbench/workloads.py and tests/conftest.py",
    "sextic_strata.linalg.ScalarMatrix.shape": "read by ScalarMatrix.__eq__",
    "sextic_strata.strata.classify": "called by the README example and the tests; "
                                     "the CLI and verify read strata.decide",
    "sextic_strata.strata.classification_report": "called by perfbench/workloads.py (classify-f101) and "
                                                  "the tests; CLI classify prints strata.decide's report",
}


def package_functions() -> dict:
    """(file, first line, name) -> dotted name of every function in the
    package that is not a lambda, a comprehension or a dunder."""
    found = {}

    def walk(code: CodeType, module: str) -> None:
        for const in code.co_consts:
            if isinstance(const, CodeType):
                name = const.co_name
                # class bodies have no CO_NEWLOCALS flag
                if (const.co_flags & inspect.CO_NEWLOCALS and not name.startswith("<")
                        and not (name.startswith("__") and name.endswith("__"))):
                    found[(const.co_filename, const.co_firstlineno, name)] = f"{module}.{const.co_qualname}"
                walk(const, module)

    root = Path(importlib.util.find_spec("sextic_strata").origin).resolve().parent
    for path in sorted(root.glob("*.py")):
        module = "sextic_strata" if path.stem == "__init__" else f"sextic_strata.{path.stem}"
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module)
    return found


def probe_files(tmp: Path) -> dict:
    """Presentation files beyond the samples: one semistable GF(3) module,
    a GF(101) and a Q module with a destabilizing (3, 2) zero block, a
    9 x 9 GF(101) module past the Kronecker module budget, a conic
    O(-2) -> O over GF(101), whose Hilbert polynomial 2m+1 keeps it out of
    the table, and 65 x 65 empty cells of degree -1, past the load cell
    budget."""
    from sextic_strata.fields import GF, QQ
    from sextic_strata.forms import Form, variables
    from sextic_strata.polymatrix import PolyMatrix
    from sextic_strata.presentation import Presentation, dumps
    from sextic_strata.rng import SplitMix64
    from sextic_strata.sampler import random_form

    F3, F101 = GF(3), GF(101)
    X, Y, Z = variables(F3)
    z = Form.zero(F3, 1)
    files = {"semistable": Presentation((-2, -2), (-1, -1, -1), PolyMatrix(F3, [[X, z], [Y, X], [Z, Y]]))}
    for name, field in (("unstable", F101), ("unstable_qq", QQ)):
        rng = SplitMix64(9)
        rows = [[Form.zero(field, 1) if i >= 2 and j < 3 else random_form(field, 1, rng) for j in range(5)]
                for i in range(4)]
        files[name] = Presentation((-2,) * 5, (-1,) * 4, PolyMatrix(field, rows))
    rng = SplitMix64(9)
    rows = [[random_form(F101, 1, rng) for _ in range(9)] for _ in range(9)]
    files["past_budget"] = Presentation((-2,) * 9, (-1,) * 9, PolyMatrix(F101, rows))
    conic = Form(F101, 2, {(2, 0, 0): 1, (0, 1, 1): 1})
    files["conic"] = Presentation((-2,), (0,), PolyMatrix(F101, [[conic]]))
    paths = {}
    for name, P in files.items():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(dumps(P), encoding="utf-8")
    n = 65
    paths["many_cells"] = tmp / "many_cells.json"
    paths["many_cells"].write_text(json.dumps({
        "format_version": 1, "field": {"kind": "prime", "p": 101},
        "source_twists": [0] * n, "target_twists": [-1] * n,
        "matrix": [[[] for _ in range(n)] for _ in range(n)]}), encoding="utf-8")
    return paths


def clear_caches() -> None:
    """Empty every functools.lru_cache of the package, so that a call made
    before the hook runs (writing the probe files) cannot leave a cached
    function's body unrun under it."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "sextic_strata":
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def commands(tmp: Path, probes: dict):
    """(argv, expected exit code) of every command the script runs."""
    from sextic_strata.strata import StratumLabel

    for field in FIELDS:
        for label in StratumLabel:
            path = tmp / f"{field.replace(':', '')}_{label.value}.json"
            yield ["sample", "--stratum", label.value, "--field", field, "--seed", "1", "--out", str(path)], 0
            for command in ("classify", "det", "dual", "cohomology"):
                yield [command, str(path)], 0
    for name in ("semistable", "unstable", "unstable_qq"):
        yield ["kron", "check", str(probes[name])], 0
    yield ["classify", str(probes["conic"])], 2
    yield ["kron", "check", str(probes["past_budget"])], 3
    yield ["cohomology", str(tmp / "p101_X0.json"), "--tmin", "0", "--tmax", "1000000000"], 3
    yield ["classify", str(probes["many_cells"])], 3
    yield ["kron", "window"], 0
    yield ["kron", "window", "--grid", "700"], 1
    yield ["verify", "--suite", "all"], 0


def main() -> int:
    functions = package_functions()
    reached_codes = {}

    def hook(frame, event, arg):
        if event == "call":
            reached_codes[id(frame.f_code)] = frame.f_code

    @contextlib.contextmanager
    def profiled():
        sys.setprofile(hook)
        try:
            yield
        finally:
            sys.setprofile(None)

    failed = []
    t0 = time.perf_counter()
    # The package is imported here and in the helpers, never at the top, so
    # that its import-time calls run under the hook.
    with profiled():
        from sextic_strata import cli
    with tempfile.TemporaryDirectory() as tmp:
        probes = probe_files(Path(tmp))
        clear_caches()
        for argv, expected in commands(Path(tmp), probes):
            out = io.StringIO()
            with profiled(), contextlib.redirect_stdout(out):
                code = cli.main(argv)
            if argv[0] == "verify":
                print(out.getvalue(), end="")
            line = f"exit {code}: {' '.join(a if '/' not in a else Path(a).name for a in argv)}"
            print(line)
            if code != expected:
                failed.append(line)
    reached = {functions[key] for key in ((c.co_filename, c.co_firstlineno, c.co_name)
                                          for c in reached_codes.values()) if key in functions}
    unreached = sorted(set(functions.values()) - reached - ALLOWED.keys())
    stale = sorted(name for name in ALLOWED if name in reached or name not in functions.values())
    for name in unreached:
        print(f"unreached: {name}")
    for name in stale:
        print(f"allowlisted but reached or missing: {name}")
    for line in failed:
        print(f"failed: {line}")
    print(f"{len(reached)} of {len(functions)} functions reached, {len(ALLOWED)} allowlisted, "
          f"{len(unreached)} unreached, {len(stale)} stale entries, {len(failed)} failed commands; "
          f"{time.perf_counter() - t0:.1f}s")
    return 1 if unreached or stale or failed else 0


if __name__ == "__main__":
    sys.exit(main())
