"""Exact Gelfand-Tsetlin tableau modules for gl(n).

Finite standard, generic and one-singular module families with exact
rational arithmetic, closed-form subalgebra actions, and the window-based
structure analysis (subquotient bases, separation, irreducibility
verdicts).
"""

from .ratcalc import Jet, Rat, rf_d_pair, rf_from_linear_factors
from .tableau import (
    BaseVector,
    Classification,
    Family,
    Kind,
    Shift,
    TabKey,
    canonicalize,
    classify,
    distance,
    is_standard,
    singular_triple,
    tau,
)
from .action import (
    ModVec,
    NotStandard,
    act_e,
    act_gamma,
    apply_casimir_pbw,
    apply_e,
    coeff_e,
    gamma_dvbar,
    gamma_eval,
)
from .structure import (
    HypothesisViolated,
    SeparatorRecipe,
    Verdict,
    Window,
    basis_I_window,
    basis_Ik_window,
    basis_N_window,
    basis_key,
    irreducibility_verdict,
    omega_k_plus,
    omega_plus,
    reach_closure,
    reach_components,
    reach_graph,
    reach_scan,
    separator,
)

__version__ = "0.1.0"
