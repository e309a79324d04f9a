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
or column operation is a table lookup plus XOR.  `orbit_patterns` walks
the six G2 once on Python ints and, for each pattern, searches only the
group coordinates its zero cells actually involve, as set lookups (the
remaining coordinates act trivially on those cells, so the factored
search covers all 147456 pairs).  The tests check it against a plain
loop over all 384 x 384 pairs that builds the whole sandwich.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

import numpy as np

from .forms import Form, monomial_basis, monomial_index
from .presentation import Presentation
from .strata import SHAPES, PatternId, StratumLabel


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

GL2_F2: Tuple[Tuple[int, int, int, int], ...] = tuple(
    (a, b, c, d)
    for a in (0, 1)
    for b in (0, 1)
    for c in (0, 1)
    for d in (0, 1)
    if (a * d - b * c) % 2 == 1
)
# MUL11 as lists of Python ints, row u holding the products u * v
_MUL = MUL11.tolist()


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


def orbit_patterns(P: Presentation) -> Set[PatternId]:
    """The forbidden patterns some group pair carries the matrix onto.

    Exhaustive over the full automorphism group over F_2, in one loop over
    the six G2 on Python ints.  G2 mixes the columns of the l and q
    blocks into L2, L3, A2, A3, B2, B3, and the row (h, k) of H2 that
    reaches a cell runs over the three nonzero rows of F_2^2:

    P1: L2 = L3 = 0.
    P2: L3 = 0 (cell (0,2)), and cell (1,2) = v21*L3 + h*A3 + k*B3 = 0.
    P3: h*A2 + k*B2 = v31*L2 and h*A3 + k*B3 = v31*L3 for some one-form v31.
    P4: some L2 = 0 (cell (0,1)), and cell (0,0) = q + u21*l1 + u31*l2 = 0
        for some one-forms u21, u31.
    """
    masks = _extract_masks(P)
    q, l1, l2 = masks[(0, 0)], masks[(0, 1)], masks[(0, 2)]
    q11, q12, q21, q22 = masks[(1, 1)], masks[(1, 2)], masks[(2, 1)], masks[(2, 2)]
    found: Set[PatternId] = set()
    L2_vanishes = False
    for a, b, c, d in GL2_F2:
        L2, L3 = a * l1 ^ c * l2, b * l1 ^ d * l2
        A2, A3 = a * q11 ^ c * q12, b * q11 ^ d * q12
        B2, B3 = a * q21 ^ c * q22, b * q21 ^ d * q22
        rows = ((A2, A3), (B2, B3), (A2 ^ B2, A3 ^ B3))  # h*(A2, A3) + k*(B2, B3)
        L2_vanishes |= L2 == 0
        if L2 == L3 == 0:
            found.add(PatternId.P1)
        if L3 == 0 and any(x3 == 0 for _, x3 in rows):
            found.add(PatternId.P2)
        spans = {(_MUL[v][L2], _MUL[v][L3]) for v in range(8)}
        if any(row in spans for row in rows):
            found.add(PatternId.P3)
    if L2_vanishes:
        multiples = {_MUL[v][l2] for v in range(8)}
        if any(q ^ _MUL[u][l1] in multiples for u in range(8)):
            found.add(PatternId.P4)
    return found
