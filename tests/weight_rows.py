"""`WeightMatrix` from and to {area_id: {bts_id: weight}} rows, for tests
that state weights as literals."""

from covmap.mapping import WeightMatrix


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
