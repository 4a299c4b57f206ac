"""Exact linear solving over F_{p^m}, for the basis-expansion test oracle.

The library expands by exact ad chains (cohomology.basis_expand); only
cohomology.basis_expand_oracle solves linear systems, as an independent
route.  Systems arrive as sparse columns and go, for every field, through
one sparse Gauss-Jordan elimination over FieldElem entries.
"""

from __future__ import annotations

from .scalars import FieldParams


def solve(params: FieldParams, cols: list[dict], rhs: dict):
    """Solve sum_c x_c cols[c] = rhs over the field; a solution or None.

    Each column and the right side map row keys to FieldElem; the rows are
    the union of their keys, in no particular order.  Free variables are
    set to zero.  None means the system is inconsistent.
    """
    index: dict = {}
    for col in cols:
        for key in col:
            index.setdefault(key, len(index))
    for key in rhs:
        index.setdefault(key, len(index))
    rows: list[dict] = [{} for _ in index]
    for c, col in enumerate(cols):
        for key, v in col.items():
            rows[index[key]][c] = v
    ncols = len(cols)
    for key, v in rhs.items():
        rows[index[key]][ncols] = v
    return _solve_generic(params, rows, ncols)


def _solve_generic(params: FieldParams, rows: list[dict], ncols: int):
    """Sparse Gauss-Jordan over FieldElem entries; rows are modified in place.

    Each row maps a column to its nonzero entry, column ncols being the
    right side.  The pivot for a column is the shortest row still free, which
    keeps fill-in low on the very sparse expansion systems.
    """
    where: dict = {}
    for r, row in enumerate(rows):
        for c in row:
            where.setdefault(c, set()).add(r)
    free = set(range(len(rows)))
    pivots = {}
    for c in range(ncols):
        cands = [r for r in where.get(c, ()) if r in free]
        if not cands:
            continue
        pr = min(cands, key=lambda r: (len(rows[r]), r))
        free.discard(pr)
        inv = rows[pr][c].inverse()
        prow = {k: v * inv for k, v in rows[pr].items()}
        rows[pr] = prow
        for r in where[c] - {pr}:
            row = rows[r]
            f = row[c]
            for k, v in prow.items():
                s = row.get(k)
                s = -(f * v) if s is None else s - f * v
                if s:
                    if k not in row:
                        where.setdefault(k, set()).add(r)
                    row[k] = s
                elif k in row:
                    del row[k]
                    where[k].discard(r)
        pivots[c] = pr
    # a free row is zero in every column, so it only constrains the right side
    if any(rows[r].get(ncols) for r in free):
        return None
    return [rows[pivots[c]].get(ncols, params.zero) if c in pivots else params.zero
            for c in range(ncols)]
