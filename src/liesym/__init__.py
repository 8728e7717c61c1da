"""Lie point-symmetry toolkit for a fifth-order (3+1)-dimensional KdV-type equation."""

from .expr import (
    Add, EvalDomainError, Expr, ExprError, Fun, Jet, Mul, Pow, Rat,
    ResourceLimitError, Sym, Ufunc, add, differentiate, fun, jet, mul, pow_,
    rat, substitute, to_text,
)
from .normal import NF, as_expr, canonical, equivalent, is_zero, normalize
from .parse import ParseContext, ParseError, parse
from .numeric import eval_numeric
from .jets import (
    PDE, VectorField, load_pde, prolongation_coefficient, restrict_on_shell,
    symmetry_condition, total_derivative,
)
from .detsys import (
    DeterminingSystem, SymmetryBasis, check_membership,
    extract_determining, solve_poly_ansatz,
)
from .liealg import commutator_table, jacobi_check, lie_bracket, reference_basis
from .flows import exponentiate, transform_solution, verify_group_action
from .verify import check_reduction, ode_residual, residual, verify_catalog
from .weierstrass import weierstrass_jet, weierstrass_p, weierstrass_zeta

__all__ = [name for name in dir() if not name.startswith("_")]
