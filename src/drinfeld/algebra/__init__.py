from .field import FiniteField, Residue, check_size, finite_field, residue_ring
from .poly import (Pol, parse_pol, monics_of_degree, polys_below_degree,
                   monics_up_to_degree, factor_squarefree_monic,
                   is_irreducible, irreducible_monics, parse_int_coeffs, power)
from .ratfunc import RF
from .quotient import QuotientRing, REl, row_echelon
from .binom import lucas_binomial

__all__ = [
    "FiniteField", "finite_field", "Residue", "residue_ring", "Pol",
    "parse_pol", "monics_of_degree", "polys_below_degree",
    "monics_up_to_degree", "factor_squarefree_monic", "is_irreducible",
    "irreducible_monics", "RF", "QuotientRing", "REl", "row_echelon",
    "lucas_binomial", "power", "parse_int_coeffs", "check_size",
]
