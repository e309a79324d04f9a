"""The four benchmark workloads: inputs, timed round, checks, digest material.

Each workload's unit of work is a round of fixed composition: the list of
item calls that `calls` returns.  Inputs of round k come from SplitMix64
streams derived from (seed, k) only, so a run is reproducible whatever the
round count.  Only the item calls are timed; input generation, correctness
checks and digest material are not.

The package is reached through module attributes at call time
(`ss.classification_report`, ...) so that the tracer's wrappers apply.
"""

from __future__ import annotations

import hashlib
import json

import sextic_strata as ss
from sextic_strata.rng import SplitMix64, derive_seed

F101 = ss.GF(101)
F3 = ss.GF(3)
F2 = ss.GF(2)
LABELS = list(ss.StratumLabel)
T_RANGE = range(-5, 6)
BLOCK_DIMS = ((1, 0), (2, 1), (3, 2), (4, 3))
X1_MATRICES_PER_ROUND = 32
MODULES_PER_ROUND = 2 + len(BLOCK_DIMS)


class Failure:
    """An item that raised; counted as failed by the checks."""

    def __init__(self, exc: Exception):
        self.message = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Failure({self.message})"


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr).encode()


def fingerprint(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# inputs shared by classify-f101 and cohomology-f101
# ---------------------------------------------------------------------------


def torus_image(P, rng):
    """P under a random element of the diagonal torus acting on rows,
    columns and the coordinates X, Y, Z.

    The torus lies in Aut(source) x Aut(target) x GL3, so the image keeps
    the twist shape, every zero cell (normal position) and every matrix
    condition, and its cokernel is isomorphic to P's: same stratum and same
    cohomology, with different coefficients.
    """
    p = P.field.p
    rows = [1 + rng.next_below(p - 1) for _ in P.target]
    cols = [1 + rng.next_below(p - 1) for _ in P.source]
    vx, vy, vz = (1 + rng.next_below(p - 1) for _ in range(3))
    entries = []
    for i, r in enumerate(rows):
        row = []
        for j, c in enumerate(cols):
            f = P.matrix.entry(i, j)
            coeffs = {
                e: a * r * c * pow(vx, e[0], p) * pow(vy, e[1], p) * pow(vz, e[2], p)
                for e, a in f.coeffs.items()
            }
            row.append(ss.Form(P.field, f.degree, coeffs) if coeffs else ss.Form.zero(P.field, f.degree))
        entries.append(row)
    return ss.Presentation(P.source, P.target, ss.PolyMatrix(P.field, entries))


class PresentationRounds:
    """Round k: one presentation text per stratum, distinct in every round.

    Set-up samples BASE_ROUNDS presentations per stratum; round k takes
    base round k mod BASE_ROUNDS through a fresh torus element.
    """

    BASE_ROUNDS = 6
    def __init__(self, seed: int):
        self.seed = seed
        self.base = [
            [
                ss.sample(ss.SampleRequest(label, F101, derive_seed(seed, 1000 * b + li)))
                for li, label in enumerate(LABELS)
            ]
            for b in range(self.BASE_ROUNDS)
        ]

    def inputs(self, k: int):
        rng = SplitMix64(derive_seed(self.seed, 1_000_000 + k))
        texts = [ss.dumps(torus_image(P, rng)) for P in self.base[k % self.BASE_ROUNDS]]
        return texts, texts


class ClassifyF101(PresentationRounds):
    """loads + classification_report on one presentation of each stratum."""

    name = "classify-f101"

    @staticmethod
    def _item(text):
        return ss.classification_report(ss.loads(text))

    def calls(self, texts):
        return [(self._item, t) for t in texts]

    def check(self, texts, reports):
        bad = []
        for label, rep in zip(LABELS, reports):
            if isinstance(rep, Failure):
                bad.append(f"{label.value}: {rep.message}")
            elif (
                rep["label"] != label.value
                or tuple(rep["profile"]) != ss.EXPECTED_PROFILES[label]
                or rep["hilbert"] != [6, 1]
                or rep["violations"] != []
            ):
                bad.append(f"{label.value}: wrong report {rep}")
        return bad

    def record(self, reports):
        return canonical(reports)


class CohomologyF101(PresentationRounds):
    """loads + h0, h1 at t in [-5, 5] on one presentation of each stratum."""

    name = "cohomology-f101"

    @staticmethod
    def _item(text):
        P = ss.loads(text)
        return [(ss.h0(P, t), ss.h1(P, t)) for t in T_RANGE]

    def calls(self, texts):
        return [(self._item, t) for t in texts]

    def check(self, texts, tables):
        bad = []
        for label, table in zip(LABELS, tables):
            if isinstance(table, Failure):
                bad.append(f"{label.value}: {table.message}")
            elif any(a - b != 6 * t + 1 for t, (a, b) in zip(T_RANGE, table)):
                bad.append(f"{label.value}: h0 - h1 != 6t + 1 in {table}")
        return bad

    def record(self, tables):
        return canonical(tables)


# ---------------------------------------------------------------------------
# sample-f101
# ---------------------------------------------------------------------------


class SampleF101:
    """sample() once per stratum, every request with a fresh seed."""

    name = "sample-f101"

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, k: int):
        round_seed = derive_seed(self.seed, 2_000_000 + k)
        requests = [
            ss.SampleRequest(label, F101, derive_seed(round_seed, li))
            for li, label in enumerate(LABELS)
        ]
        return requests, [f"{r.label.value}:{r.seed}" for r in requests]

    @staticmethod
    def _item(request):
        return ss.sample(request)

    def calls(self, requests):
        return [(self._item, r) for r in requests]

    def check(self, requests, samples):
        bad = []
        for req, P in zip(requests, samples):
            label = req.label
            if isinstance(P, Failure):
                bad.append(f"{label.value}: {P.message}")
                continue
            violations = ss.validate_shape(P, label)
            if violations:
                bad.append(f"{label.value} seed {req.seed}: {violations}")
            elif ss.classify(P) is not label:
                bad.append(f"{label.value} seed {req.seed}: classified elsewhere")
        return bad

    def record(self, samples):
        return b"".join(
            P.message.encode() if isinstance(P, Failure) else ss.dumps(P).encode()
            for P in samples
        )


# ---------------------------------------------------------------------------
# oracle-smallfield
# ---------------------------------------------------------------------------


def random_module(field, n, m, rng, block=None):
    """An n x m module of random linear forms; zero on the (s, t) block
    rows >= t, columns < s when `block` is given (criterion 7's forms)."""
    entries = []
    for i in range(n):
        row = []
        for j in range(m):
            if block is not None and i >= block[1] and j < block[0]:
                row.append(ss.Form.zero(field, 1))
            else:
                row.append(ss.random_form(field, 1, rng))
        entries.append(row)
    return ss.KroneckerModule(ss.PolyMatrix(field, entries))


def random_x1(rng):
    src, tgt = ss.SHAPES[ss.StratumLabel.X1]
    entries = [[ss.random_form(F2, d - s, rng) for s in src] for d in tgt]
    return ss.Presentation(src, tgt, ss.PolyMatrix(F2, entries))


def matrix_key(M) -> str:
    return json.dumps([[M.entry(i, j).to_encoding() for j in range(M.ncols)] for i in range(M.nrows)])


def _exact_check(K):
    res = ss.is_semistable(K, mode="exact_smallfield")
    verified = res.witness is not None and ss.verify_witness(K, res.witness)
    return res, verified


def _x1_check(P):
    return ss.x1_patterns(P), ss.orbit_patterns(P)


class OracleSmallfield:
    """Exact F_3 Kronecker enumeration and the F_2 orbit oracle.

    A round: one random 4x5 and one random 3x2 module over F_3, the four
    block-form modules of criterion 7 (every unstable verdict's witness
    re-checked by verify_witness), and X1_MATRICES_PER_ROUND random F_2 X1
    matrices through both x1_patterns and orbit_patterns.
    """

    name = "oracle-smallfield"

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, k: int):
        rng = SplitMix64(derive_seed(self.seed, 3_000_000 + k))
        modules = [random_module(F3, 4, 5, rng), random_module(F3, 3, 2, rng)]
        modules += [random_module(F3, 4, 5, rng, block=dims) for dims in BLOCK_DIMS]
        x1s = [random_x1(rng) for _ in range(X1_MATRICES_PER_ROUND)]
        keys = [matrix_key(K.matrix) for K in modules] + [matrix_key(P.matrix) for P in x1s]
        return (modules, x1s), keys

    def calls(self, inputs):
        modules, x1s = inputs
        return [(_exact_check, K) for K in modules] + [(_x1_check, P) for P in x1s]

    def check(self, inputs, outputs):
        verdicts, patterns = outputs[:MODULES_PER_ROUND], outputs[MODULES_PER_ROUND:]
        bad = []
        for idx, out in enumerate(verdicts):
            if isinstance(out, Failure):
                bad.append(f"module {idx}: {out.message}")
                continue
            res, verified = out
            if res.verdict == "unstable" and not verified:
                bad.append(f"module {idx}: witness fails verify_witness")
            if idx < 2:
                if res.verdict not in ("semistable", "unstable"):
                    bad.append(f"module {idx}: verdict {res.verdict}")
                continue
            dims = BLOCK_DIMS[idx - 2]
            w = res.witness
            if res.verdict != "unstable":
                bad.append(f"block module {dims}: verdict {res.verdict}")
            elif (w.dim_S, w.dim_T) != dims and w.dim_S >= dims[0]:
                # A smaller destabilizing subspace comes first in the
                # enumeration order; any other witness is a wrong answer.
                bad.append(f"block module {dims}: witness dims ({w.dim_S},{w.dim_T})")
        for idx, out in enumerate(patterns):
            if isinstance(out, Failure):
                bad.append(f"X1 matrix {idx}: {out.message}")
            elif out[0] != out[1]:
                bad.append(f"X1 matrix {idx}: fast {sorted(out[0])} != oracle {sorted(out[1])}")
        return bad

    def record(self, outputs):
        verdicts, patterns = outputs[:MODULES_PER_ROUND], outputs[MODULES_PER_ROUND:]
        out = []
        for v in verdicts:
            if isinstance(v, Failure):
                out.append(v.message)
            else:
                res, verified = v
                witness = res.witness.report(F3) if res.witness else None
                out.append([res.verdict, res.checked, witness, verified])
        for pat in patterns:
            if isinstance(pat, Failure):
                out.append(pat.message)
            else:
                out.append([sorted(p.value for p in pat[0]), sorted(p.value for p in pat[1])])
        return canonical(out)


WORKLOADS = {w.name: w for w in (ClassifyF101, SampleF101, CohomologyF101, OracleSmallfield)}
