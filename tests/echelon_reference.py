"""The image builder's two passes as they read a row slot by slot, as an
oracle for the tests: `zlinalg.echelon_from_rows` must pick, replay and
add exactly the same rows as these, and return the same echelon.

Pass 1 reduces each row modulo 2 against full rows keyed by their pivot,
one (index, coefficient) pair at a time.  Pass 2 sums a * P << shift over
a row's pairs, from a table of (shift, P) per coordinate made from the
reduced replay.  A row is added exactly when its remainder is not 0 or
reaches a coordinate outside the table.
"""

from cubehom.zlinalg import (
    Echelon,
    SignedRows,
    axpy,
    echelon_from_rows,
    merge,
    replay,
)


def _gf2_add(rows, holders, pairs):
    """Reduce the pairs modulo 2 against `rows` ({pivot: full row}) and
    admit the residue; True iff it was not 0."""
    rest = 0
    for k, v in pairs:
        if k >= 0 and v & 1:
            rest ^= 1 << k
            row = rows.get(k)
            if row is not None:
                rest ^= row
    if not rest:
        return False
    low = rest & -rest
    pivot = low.bit_length() - 1
    hit = holders.pop(pivot, 0)
    mask = hit
    while mask:
        bit = mask & -mask
        rows[bit.bit_length() - 1] ^= rest
        mask ^= bit
    others = rest ^ low
    while others:
        bit = others & -others
        k = bit.bit_length() - 1
        holders[k] = holders.get(k, 0) ^ hit ^ low
        others ^= bit
    rows[pivot] = rest
    return True


def _certificate(ech, norm):
    """Reduce `ech` (unit pivots) in place and return {coordinate: (shift,
    P)}, P the packed vector from its lowest lane on."""
    basis, pivots = ech.rows, ech.pivots
    where = {j: k for k, j in enumerate(pivots)}
    for k in range(len(basis) - 1, -1, -1):
        row = basis[k]
        for j in [j for j in row if j in where and j != pivots[k]]:
            unit = basis[where[j]]
            axpy(row, -row[j] * unit[j], unit)
    lane = {j: i for i, j in enumerate(sorted(
        {j for row in basis for j in row if j not in where}))}
    big = max((abs(v) for row in basis for v in row.values()), default=0)
    width = (norm * big).bit_length()
    table = {j: (width * i, 1) for j, i in lane.items()}
    for row, j in zip(basis, pivots):
        vec = {lane[i]: v for i, v in row.items() if i in lane}
        lo = min(vec, default=0)
        p = sum(v << width * (k - lo) for k, v in vec.items())
        table[j] = width * lo, -p * row[j]
    return table


def reference_echelon(rows, ncols):
    """`echelon_from_rows` with both passes read slot by slot."""
    if isinstance(rows, SignedRows):
        read, signs, size, exact = rows.read, rows.signs, len, merge

        def items(r):
            return zip(r, signs)
    else:
        rows = rows if callable(rows) else list(rows)
        read = rows if callable(rows) else rows.__iter__
        items, exact = dict.items, dict

        def size(r):
            return sum(map(abs, r.values()))
    gf2, holders, picked, norm = {}, {}, [], 0
    for r in read():
        norm = max(norm, size(r))
        if _gf2_add(gf2, holders, items(r)):
            picked.append(exact(items(r)))
    ech = Echelon(ncols)
    replay(ech, picked)
    table = _certificate(ech, norm) if ech.has_unit_pivots() else {}
    table[-1] = 0, 0
    for r in read():
        try:
            acc = 0
            for j, a in items(r):
                shift, p = table[j]
                acc += a * p << shift
            if not acc:
                continue
        except KeyError:
            pass
        ech.add(exact(items(r)))
    return ech


def _traced(build, rows, ncols):
    """(the echelon `build` returns, the vectors it added exactly)."""
    added, add = [], Echelon.add
    Echelon.add = lambda ech, vec: added.append(dict(vec)) or add(ech, vec)
    try:
        ech = build(rows, ncols)
    finally:
        Echelon.add = add
    return ech, added


def assert_same_passes(rows, ncols):
    """`echelon_from_rows` adds the reference's rows exactly, in its order,
    and returns its echelon; returns (that echelon, the number of exact
    adds)."""
    got, got_adds = _traced(echelon_from_rows, rows, ncols)
    want, want_adds = _traced(reference_echelon, rows, ncols)
    assert (got.rows, got.pivots) == (want.rows, want.pivots)
    assert got_adds == want_adds
    return got, len(got_adds)
