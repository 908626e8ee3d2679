"""The four case families as plain data.

A family is one classical group pair.  The families differ only in the
hand-written data below, and every layer reads it from the family's
CaseSpec instead of branching on a family name.  What follows from this
data is not written here: hodge.CaseMotives reads the centre r off the
tensor motive's weight and takes the quadratic twist exactly when the
motives live over Q, ggpcheck.run_case reduces modulo sqrt(Q*) exactly
over E, the orthogonal formulas of periodring read M's rank, and
rootsys.case_groups builds the groups H in G from the factors.  get(name,
n) is the one place that looks a family up and checks n.
"""

from fractions import Fraction


class CaseSpec:
 """One family's data; the fields marked (n) are functions of n.

 name           family name
 m(n)           predicted power of 2*pi*i in the full cancellation
 e              power of the central value (2 where it is a square), and so
                of the Deligne period in the condensate
 over_e         whether the standard motives live over the quadratic field
 targets(n)     closed-form pi exponents of the four computed columns
 factors(n)     {"M"/"N": (pairing, rank)}: the standard motive of a factor
                of G's dual group, of that pairing ("linear", "orthogonal"
                or "symplectic") and rank
 """

 __slots__ = ("name", "m", "e", "over_e", "targets", "factors")

 def __init__(self, **fields):
  for k, v in fields.items():
   setattr(self, k, v)


def _targets(dk, dg, rho, ad):
 return {"compact_volume_ratio": Fraction(dk),
         "discriminant_ratio": Fraction(dg),
         "rho_at_center": Fraction(rho),
         "adjoint_at_zero": Fraction(ad)}


def _linear_targets(dk, dg, n):
 return _targets(dk, dg, -Fraction(2, 3) * n * (n + 1) * (n + 2),
                 -Fraction(1, 3) * n * (n + 1) * (2 * n + 1))


def _linear_factors(n):
 return {"M": ("linear", n), "N": ("linear", n + 1)}


PGL_Q = CaseSpec(
    name="pgl-q", m=lambda n: n * (n + 1), e=2, over_e=False,
    targets=lambda n: _linear_targets(2 * n - 2 * (n // 2),
                                      2 * ((n // 2) - n), n),
    factors=_linear_factors)

PGL_E = CaseSpec(
    name="pgl-e", m=lambda n: n * (n + 1), e=2, over_e=True,
    targets=lambda n: _linear_targets(n - 1, 1 - n, n),
    factors=_linear_factors)

SO_EVEN = CaseSpec(
    name="so-even", m=lambda n: 2 * n * n, e=1, over_e=True,
    targets=lambda n: _targets(
        n, -n,
        -Fraction(1, 3) * (2 * n - 1) * 2 * n * (2 * n + 1) - n * (n + 1),
        -Fraction(8, 3) * (n - 1) * n * (n + 1) + n * n - 3 * n),
    factors=lambda n: {"M": ("orthogonal", 2 * n),
                       "N": ("symplectic", 2 * n)})

SO_ODD = CaseSpec(
    name="so-odd", m=lambda n: 2 * n * (n + 1), e=1, over_e=True,
    targets=lambda n: _targets(
        n + 1, -(n + 1),
        -Fraction(1, 3) * 2 * n * (2 * n + 1) * (2 * n + 2) - n * (n + 1),
        -Fraction(4, 3) * n * (n + 1) * (2 * n + 1) + n * (n + 1)),
    factors=lambda n: {"M": ("orthogonal", 2 * n + 2),
                       "N": ("symplectic", 2 * n)})

SPECS = {s.name: s for s in (PGL_Q, PGL_E, SO_EVEN, SO_ODD)}
CASES = tuple(SPECS)


def get(name, n):
 """The CaseSpec of a family name, after checking n >= 1."""
 spec = SPECS.get(name)
 if spec is None:
  raise ValueError("unknown case: %r" % (name,))
 if n < 1:
  raise ValueError("n must be positive")
 return spec
