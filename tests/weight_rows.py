"""Weight rows in the forms tests state them: `WeightMatrix` from and to
{area_id: {bts_id: weight}} rows, one padded pixel row as {bts_id:
weight}, and padded pixel rows as CSR triples, in row order or with each
row's entries sorted by column."""

import numpy as np

from covmap.mapping import PixelWeights, WeightMatrix


def weight_matrix(scheme: str, area_ids: list[str], rows: dict[str, dict[str, float]]):
    """The matrix whose covered areas hold `rows`; other areas get no coverage."""
    unknown = set(rows) - set(area_ids)
    if unknown:
        raise ValueError(f"rows for areas outside area_ids: {sorted(unknown)}")
    bts_ids = sorted({b for row in rows.values() for b in row})
    col_of = {b: j for j, b in enumerate(bts_ids)}
    indptr, col, w = [0], [], []
    for aid in area_ids:
        for b, v in sorted(rows.get(aid, {}).items()):
            col.append(col_of[b])
            w.append(v)
        indptr.append(len(col))
    return WeightMatrix(scheme, area_ids, bts_ids, indptr, col, w)


def rows_of(wm: WeightMatrix) -> dict[str, dict[str, float]]:
    """The covered areas' rows, in area order."""
    return {aid: wm.row(aid) for aid in wm.covered_ids}


def pixel_row(pw: PixelWeights, i: int) -> dict[str, float]:
    """Pixel row i of `pw` as {bts_id: weight}, 1 for a one-hot row."""
    cols = pw.col[i][pw.col[i] >= 0].tolist()
    w = [1.0] * len(cols) if pw.w is None else pw.w[i, :len(cols)].tolist()
    return {pw.bts_ids[c]: v for c, v in zip(cols, w)}


def _padded_layout(col, w) -> tuple[np.ndarray, np.ndarray]:
    """Per padded row its entry count, and the mask of its entry slots.
    Asserts the layout: each row's entries first, each column at most
    once, then -1 pads, with weight 0 where `w` is given."""
    entry = col >= 0
    lens = np.count_nonzero(entry, axis=1)
    slot = np.arange(col.shape[1]) < lens[:, None]
    assert np.array_equal(entry, slot) and np.all(col[~slot] == -1)
    assert w is None or np.all(w[~slot] == 0)
    ordered = np.sort(col, axis=1)
    assert not np.any((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0))
    return lens, slot


def entries_by_column(col, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Padded rows (col, w) as (counts, col, w) with each row's entries
    sorted by column: the CSR form with ascending columns that the idw
    selector once returned, in the dtypes given.  Asserts the padded
    layout as `pixel_csr` does."""
    lens, slot = _padded_layout(col, w)
    rows = np.repeat(np.arange(lens.size), lens)
    order = np.lexsort((col[slot], rows))
    return lens.astype(np.int64), col[slot][order], w[slot][order]


def pixel_csr(pw: PixelWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`pw`'s rows as CSR (indptr, col, w) in row order: int64 columns and
    float64 weights, 1 for one-hot rows.  Asserts the padded layout on
    the way: each row's entries first, each column at most once, then -1
    pads, with weight 0."""
    lens, slot = _padded_layout(pw.col, pw.w)
    w = np.ones(pw.col.shape) if pw.w is None else pw.w
    indptr = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    return indptr, pw.col[slot].astype(np.int64), w[slot].astype(np.float64)
