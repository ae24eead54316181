"""epwcalc: exact-arithmetic invariants of EPW cubes and the fixed locus
of their antisymplectic involution.

Everything is computed over Q (or with Laurent polynomials in the BBF
square q of the polarization); no floats anywhere.  Each name is bound
in the submodule that defines it: import it from there
(``epwcalc.hodge_ring``, ``epwcalc.lagrangian``, ...).
"""

__version__ = "0.1.0"
