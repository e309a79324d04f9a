"""Ground-truth orbit search for the X1 forbidden patterns over F_2.

The X1 shape is a 3 x 3 matrix phi with cell degrees

    [2 1 1]
    [3 2 2]        acted on by  (g, h) in Aut(O(-3)+2O(-2)) x Aut(O(-1)+2O).
    [3 2 2]

Over F_2 the group is finite: g = (g11=1, G2 in GL2(F2), u21, u31 in V*)
has 6 * 8 * 8 = 384 elements, likewise h = (h11=1, H2, v21, v31), for
147456 pairs in total.  phi is equivalent to a forbidden pattern iff some
pair carries it onto the pattern's zero cells.  This module decides that
by exhausting the group, with no use of the derived linear-algebra
characterizations; it is the oracle those characterizations are tested
against.

Forms are packed into bitmasks over the frozen monomial order, so a row
or column operation is a table lookup plus XOR.  The fast path enumerates,
for each pattern, the group coordinates its zero cells actually involve
(the remaining coordinates act trivially on those cells, so the factored
product covers all 147456 pairs); the bruteforce path really loops over
all 384 x 384 pairs and builds the whole sandwich, and exists to validate
the fast path.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

import numpy as np

from .forms import Form, monomial_basis, monomial_index
from .presentation import Presentation
from .strata import SHAPES, PatternId, StratumLabel

# zero cells of each forbidden pattern, 0-indexed
PATTERN_CELLS: Dict[PatternId, Tuple[Tuple[int, int], ...]] = {
    PatternId.P1: ((0, 1), (0, 2)),
    PatternId.P2: ((0, 2), (1, 2)),
    PatternId.P3: ((2, 1), (2, 2)),
    PatternId.P4: ((0, 0), (0, 1)),
}


def _build_mul_table(da: int, db: int) -> np.ndarray:
    """Bitmask multiplication table S^da x S^db -> S^(da+db) over F_2."""
    ba, bb = monomial_basis(da), monomial_basis(db)
    idx = monomial_index(da + db)
    table = np.zeros((1 << len(ba), 1 << len(bb)), dtype=np.int64)
    for ma in range(1 << len(ba)):
        for mb in range(1 << len(bb)):
            acc = 0
            for i in range(len(ba)):
                if not (ma >> i) & 1:
                    continue
                for j in range(len(bb)):
                    if not (mb >> j) & 1:
                        continue
                    e = tuple(x + y for x, y in zip(ba[i], bb[j]))
                    acc ^= 1 << idx[e]
            table[ma, mb] = acc
    return table


MUL11 = _build_mul_table(1, 1)   # 8 x 8
MUL12 = _build_mul_table(1, 2)   # 8 x 64

GL2_F2: Tuple[Tuple[int, int, int, int], ...] = tuple(
    (a, b, c, d)
    for a in (0, 1)
    for b in (0, 1)
    for c in (0, 1)
    for d in (0, 1)
    if (a * d - b * c) % 2 == 1
)


def _pack(f: Form) -> int:
    """Bit k set iff the F_2 coefficient of monomial k is 1."""
    return sum(1 << k for k in f.array.nonzero()[0].tolist())


def _extract_masks(P: Presentation) -> Dict[Tuple[int, int], int]:
    # The constructor holds every nonzero cell to the degree grid of the
    # twists, so the X1 twists fix the cell degrees drawn above.
    src, tgt = SHAPES[StratumLabel.X1]
    if P.source != src or P.target != tgt:
        raise ValueError(f"not the X1 twist shape: {P.source} -> {P.target}")
    if P.field.kind != "prime" or P.field.p != 2:
        raise ValueError("orbit oracle requires the field F_2")
    return {(i, j): _pack(P.matrix.entry(i, j)) for i in range(3) for j in range(3)}


def _g_side_arrays(masks):
    """Per-G2 column mixes of the l and q blocks (int64 arrays of length 6)."""
    l1, l2 = masks[(0, 1)], masks[(0, 2)]
    q11, q12 = masks[(1, 1)], masks[(1, 2)]
    q21, q22 = masks[(2, 1)], masks[(2, 2)]
    L2 = np.array([(a and l1) ^ (c and l2) for a, b, c, d in GL2_F2], dtype=np.int64)
    L3 = np.array([(b and l1) ^ (d and l2) for a, b, c, d in GL2_F2], dtype=np.int64)
    A2 = np.array([(a and q11) ^ (c and q12) for a, b, c, d in GL2_F2], dtype=np.int64)
    A3 = np.array([(b and q11) ^ (d and q12) for a, b, c, d in GL2_F2], dtype=np.int64)
    B2 = np.array([(a and q21) ^ (c and q22) for a, b, c, d in GL2_F2], dtype=np.int64)
    B3 = np.array([(b and q21) ^ (d and q22) for a, b, c, d in GL2_F2], dtype=np.int64)
    return L2, L3, A2, A3, B2, B3


def orbit_pattern_oracle(P: Presentation, pattern: PatternId) -> bool:
    """True iff some group pair carries the matrix onto the pattern's zero cells.

    Exhaustive over the full automorphism group over F_2; vectorized over
    the group coordinates that the pattern's cells depend on.
    """
    masks = _extract_masks(P)
    L2, L3, A2, A3, B2, B3 = _g_side_arrays(masks)
    h22 = np.array([h[0] for h in GL2_F2], dtype=np.int64)
    h23 = np.array([h[1] for h in GL2_F2], dtype=np.int64)
    h32 = np.array([h[2] for h in GL2_F2], dtype=np.int64)
    h33 = np.array([h[3] for h in GL2_F2], dtype=np.int64)
    v = np.arange(8, dtype=np.int64)

    if pattern is PatternId.P1:
        # cells (0,1), (0,2) depend only on G2
        return bool(np.any((L2 == 0) & (L3 == 0)))

    if pattern is PatternId.P4:
        # cell (0,0) over (u21, u31); cell (0,1) over G2
        q = masks[(0, 0)]
        l1, l2 = masks[(0, 1)], masks[(0, 2)]
        cell00 = q ^ MUL11[v, l1][:, None] ^ MUL11[v, l2][None, :]
        return bool(np.any(cell00 == 0) and np.any(L2 == 0))

    if pattern is PatternId.P2:
        # cell (0,2) = L3[i]; cell (1,2) = v21*L3[i] + h22*A3[i] + h23*B3[i]
        cell12 = (
            MUL11[v[None, None, :], L3[:, None, None]]
            ^ (h22[None, :, None] * A3[:, None, None])
            ^ (h23[None, :, None] * B3[:, None, None])
        )
        ok = (L3[:, None, None] == 0) & (cell12 == 0)
        return bool(np.any(ok))

    if pattern is PatternId.P3:
        # cells (2,1), (2,2) over (G2, H2 row, v31)
        cell21 = (
            MUL11[v[None, None, :], L2[:, None, None]]
            ^ (h32[None, :, None] * A2[:, None, None])
            ^ (h33[None, :, None] * B2[:, None, None])
        )
        cell22 = (
            MUL11[v[None, None, :], L3[:, None, None]]
            ^ (h32[None, :, None] * A3[:, None, None])
            ^ (h33[None, :, None] * B3[:, None, None])
        )
        return bool(np.any((cell21 == 0) & (cell22 == 0)))

    raise ValueError(f"unknown pattern {pattern!r}")


def orbit_patterns(P: Presentation) -> Set[PatternId]:
    return {p for p in PatternId if orbit_pattern_oracle(P, p)}


def orbit_patterns_bruteforce(P: Presentation) -> Set[PatternId]:
    """All patterns reachable, by plainly looping over all 147456 pairs.

    Builds the complete sandwich h*phi*g for every pair and inspects the
    zero cells.  Slow; used to validate the vectorized oracle.
    """
    masks = _extract_masks(P)
    mul11 = MUL11.tolist()
    mul12 = MUL12.tolist()
    remaining = set(PatternId)
    found: Set[PatternId] = set()

    phi = [[masks[(i, j)] for j in range(3)] for i in range(3)]
    us = range(8)

    for (a, b, c, d) in GL2_F2:
        for u21 in us:
            m11_u21 = mul11[u21]
            m12_u21 = mul12[u21]
            for u31 in us:
                m11_u31 = mul11[u31]
                m12_u31 = mul12[u31]
                # phi * g
                pg = [
                    [
                        phi[0][0] ^ m11_u21[phi[0][1]] ^ m11_u31[phi[0][2]],
                        (a and phi[0][1]) ^ (c and phi[0][2]),
                        (b and phi[0][1]) ^ (d and phi[0][2]),
                    ],
                    [
                        phi[1][0] ^ m12_u21[phi[1][1]] ^ m12_u31[phi[1][2]],
                        (a and phi[1][1]) ^ (c and phi[1][2]),
                        (b and phi[1][1]) ^ (d and phi[1][2]),
                    ],
                    [
                        phi[2][0] ^ m12_u21[phi[2][1]] ^ m12_u31[phi[2][2]],
                        (a and phi[2][1]) ^ (c and phi[2][2]),
                        (b and phi[2][1]) ^ (d and phi[2][2]),
                    ],
                ]
                for (h22, h23, h32, h33) in GL2_F2:
                    for v21 in us:
                        row1 = [
                            mul12[v21][pg[0][0]] ^ (h22 and pg[1][0]) ^ (h23 and pg[2][0]),
                            mul11[v21][pg[0][1]] ^ (h22 and pg[1][1]) ^ (h23 and pg[2][1]),
                            mul11[v21][pg[0][2]] ^ (h22 and pg[1][2]) ^ (h23 and pg[2][2]),
                        ]
                        for v31 in us:
                            row2 = [
                                mul12[v31][pg[0][0]] ^ (h32 and pg[1][0]) ^ (h33 and pg[2][0]),
                                mul11[v31][pg[0][1]] ^ (h32 and pg[1][1]) ^ (h33 and pg[2][1]),
                                mul11[v31][pg[0][2]] ^ (h32 and pg[1][2]) ^ (h33 and pg[2][2]),
                            ]
                            sandwich = (pg[0], row1, row2)
                            for pat in tuple(remaining):
                                if all(
                                    sandwich[i][j] == 0
                                    for (i, j) in PATTERN_CELLS[pat]
                                ):
                                    found.add(pat)
                                    remaining.discard(pat)
                            if not remaining:
                                return found
    return found
