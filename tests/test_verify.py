import numpy as np
import pytest

from coordsim import verify


def _direct_mi_grid(w0, w1, a, b):
    """The grid oracle's MI as the direct sum over the four cells of
    m ln(m / (row col)), each cell below 1e-300 skipped; a and b are 2-d
    grids."""
    cells = ((w0 * (1 - a), w0, 0), (w0 * a, w0, 1),
             (w1 * (1 - b), w1, 0), (w1 * b, w1, 1))
    cols = (w0 * (1 - a) + w1 * (1 - b), w0 * a + w1 * b)
    out = np.zeros_like(a)
    for m, row_mass, col_idx in cells:
        mask = m > 1e-300
        contrib = np.zeros_like(a)
        contrib[mask] = m[mask] * np.log(m[mask] / (row_mass * cols[col_idx][mask]))
        out += contrib
    return np.maximum(out, 0.0)


@pytest.mark.parametrize("a_ticks, b_ticks", [
    (np.linspace(0.0, 1.0, 201), np.linspace(0.0, 1.0, 201)),
    (np.clip(np.arange(0.347 - 3e-3, 0.347 + 3e-3 + 5e-5, 1e-4), 0.0, 1.0),
     np.clip(np.arange(0.9985 - 3e-3, 0.9985 + 3e-3 + 5e-5, 1e-4), 0.0, 1.0)),
    (np.array([0.0, 1e-5, 0.5, 1.0 - 1e-5, 1.0]), np.linspace(0.0, 1.0, 7)),
])
def test_grid_tables_equal_the_direct_sum(a_ticks, b_ticks):
    queries, _ = verify._ac7_queries(4)
    a, b = np.meshgrid(a_ticks, b_ticks, indexing="ij")
    for query in queries:
        mi, cmi, tv = verify._binary_grid_tables(query, a_ticks, b_ticks)
        pxh = query.p0.probs @ query.obs_channel.rows
        want_cmi = sum(query.p0.probs[x] * _direct_mi_grid(*query.obs_channel.rows[x], a, b)
                       for x in range(2))
        assert mi.shape == cmi.shape == tv.shape == a.shape
        assert np.abs(mi - _direct_mi_grid(pxh[0], pxh[1], a, b)).max() <= 1e-12
        assert np.abs(cmi - want_cmi).max() <= 1e-12


def test_masked_argmin_takes_the_least_feasible_entry():
    table = np.array([[0.5, 0.1], [0.3, 0.2]])
    tv = np.array([[0.0, 0.4], [0.1, 0.0]])
    assert verify._masked_argmin(table, tv, 0.1) == (0.2, (1, 1))
    assert verify._masked_argmin(table, tv, 0.5) == (0.1, (0, 1))
    assert verify._masked_argmin(table, tv + 1.0, 0.5) == (None, None)
