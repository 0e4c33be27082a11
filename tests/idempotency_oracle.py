"""Reference check of idempotency: reduce every entry of ebar^2 - ebar.

`orbit.nc_orbit` certifies ebar^2 = ebar through the Hankel lemma and never
forms ebar^2.  This oracle forms it and reduces all N^4 entries modulo the
orbit ideal, at the degree the entries reach, so the two routes can be
compared where both run: for N = 2 the entries have degree 4.
"""

from braidorbit.orbit import OrbitIdealReducer
from braidorbit.rea import NCPoly, nc_matmul, power_sum_element, relation_space


def entrywise_residuals(hs, profile, ebar, targets):
    """(reduction degree, nonzero residuals of the entries of ebar^2 - ebar)
    modulo the orbit ideal that fixes p_k at targets[k - 1]."""
    square = nc_matmul(ebar, ebar)
    entries = [x - y for sq_row, row in zip(square, ebar) for x, y in zip(sq_row, row)]
    degree = max(2, max(x.max_degree() for x in entries))
    gens = [power_sum_element(k, hs) - NCPoly.const(hs.N, hs.table, t)
            for k, t in enumerate(targets, 1)]
    rs = (relation_space(hs, "mrea", profile.h) if profile.is_mrea
          else relation_space(hs, "minus"))
    reducer = OrbitIdealReducer(rs, gens, degree)
    residuals = [reducer.reduce(x) for x in entries]
    return degree, [r for r in residuals if not r.is_zero()]
