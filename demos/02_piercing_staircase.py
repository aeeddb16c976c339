"""Walkthrough: piercing crosses with one point per axis.

Shows the piercing sweep on a small instance, then the minimal families
where piercing fails but every deletion restores it.
"""

from coverpierce import (
    Cross,
    Interval,
    PiercingInstance,
    QueryCounter,
    build_envelopes,
    check_minimality,
    gen_staircase_minimal,
    oracle_piercing,
    solve_piercing,
)

# Two crosses on a 10x10 rank grid.  A point pair (x, y) pierces a cross
# when x lies in its horizontal arm or y lies in its vertical arm.
dom = Interval(0, 9)
instance = PiercingInstance(dom, dom, [
    Cross(Interval(0, 3), Interval(5, 9)),
    Cross(Interval(4, 9), Interval(0, 2)),
])
verdict = solve_piercing(instance, QueryCounter())
print("pierceable:", verdict.pierceable, " witness:", verdict.witness)

# Per x, the crosses whose horizontal arm excludes x confine y, and the
# sweep takes the tightest of those bounds.  The four corner step functions
# hold the same bounds split by corner: arm right of x (a > x) or left of it
# (b < x), bound from above (d) or below (c).
env = build_envelopes(instance)
for name, fn in [("f_nw", env.f_nw), ("f_ne", env.f_ne),
                 ("g_sw", env.g_sw), ("g_se", env.g_se)]:
    print(name, "breakpoints", fn.breakpoints, "values", fn.values)

# Minimal non-pierceable family: no piercing pair exists, yet deleting
# any single cross makes one appear.
family = gen_staircase_minimal(6)
print("\nminimal family, N=6, domain", (family.xdomain.lo, family.xdomain.hi))
for cr in family.crosses:
    print("  h", (cr.h.lo, cr.h.hi), " v", (cr.v.lo, cr.v.hi))
rep = check_minimality(family)
print("full family pierceable:", rep.full_family_pierceable)
print("each deletion pierceable:", rep.each_deletion_pierceable)
print("minimal non-pierceable:", rep.is_minimal_nonpierceable)

# The grid oracle agrees with the sweep on the full family.
print("oracle verdict:", oracle_piercing(family).pierceable)
