"""Weight rows in the forms tests state them: `WeightMatrix` from and to
{area_id: {bts_id: weight}} rows, and padded `PixelWeights` from and to
the CSR triple (indptr, col, w)."""

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


def pixel_weights(scheme, pixel_ids, bts_ids, counts, col, w, width=None) -> PixelWeights:
    """Padded rows holding `counts[i]` entries of the row-major (col, w)
    each, `width` wide (by default the longest row)."""
    counts = np.asarray(counts, dtype=np.int64)
    width = int(counts.max(initial=0)) if width is None else width
    slot = np.arange(width) < counts[:, None]
    rows_col = np.full(slot.shape, -1, dtype=np.int64)
    rows_w = np.zeros(slot.shape)
    rows_col[slot], rows_w[slot] = col, w
    return PixelWeights(scheme, pixel_ids, list(bts_ids), rows_col, rows_w)


def pixel_csr(pw: PixelWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`pw`'s rows as CSR (indptr, col, w): int64 columns and float64
    weights, 1 for one-hot rows.  Asserts the padded layout on the way:
    each row's entries first, then -1 pads, with weight 0."""
    entry = pw.col >= 0
    lens = np.count_nonzero(entry, axis=1)
    slot = np.arange(pw.col.shape[1]) < lens[:, None]
    assert np.array_equal(entry, slot) and np.all(pw.col[~slot] == -1)
    w = np.ones(pw.col.shape) if pw.w is None else pw.w
    assert pw.w is None or np.all(w[~slot] == 0)
    indptr = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    return indptr, pw.col[slot].astype(np.int64), w[slot].astype(np.float64)
