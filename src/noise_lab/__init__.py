"""noise-lab: exact verification of finite noise-type Boolean algebras.

Builds finite product probability spaces over independent cells, realizes
the Boolean algebra of cell sets with its commuting conditioning
projections, and checks the chaos-decomposition, spectral and
regular-open-set identities of that setting with exact rational arithmetic.
"""

__version__ = "0.1.0"
