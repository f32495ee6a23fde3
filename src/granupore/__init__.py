"""Non-isochoric granular rheology with pore-gas fluidization.

A numpy/scipy toolkit for threshold granular constitutive laws written as a
yield function Z(phi, I) and a dilatancy function f(phi, p, I): built-in
Drucker-Prager and mu(I) families (with and without dilatancy angles), a
quadrature route deriving f from any Z, numerical verification of the
dissipation / consistency / stability / equilibrium conditions, the
extended spectral symbol of the fluidized system, and desk-scale box and
column simulators.
"""

__version__ = "0.1.0"

from .materials import (
    EquilibriumLaw,
    FlowState,
    GasParams,
    MaterialParams,
    air,
    angle_from_div_u,
    div_u_from_angle,
    glass_beads,
    i_eq,
    inertial_number,
    phi_eq,
    phi_eq_prime,
    viscous_number,
)
from .gas import (
    CustomStateLaw,
    EnthalpyH,
    IdealGasLaw,
    darcy_fluid_velocity,
    drag_beta,
    enthalpy_from_statelaw,
    enthalpy_ideal,
    permeability_kappa,
    pf_from_rho,
    rho_from_pf,
    state_law_from_csv,
)
from .rheology import (
    DerivedNumeric,
    DruckerPrager,
    DruckerPragerDilatant,
    Isochoric,
    LinearCombination,
    MuI,
    MuIDilatant,
    PowerLaw,
    RouxRadjai,
    beta_exponent,
    build_model,
    derive_f_numeric,
    dilatancy_angle_dp,
    dilatancy_angle_mui,
    div_u,
    friction_mu,
    friction_mu_prime,
    mui_angle_primitive,
    mui_shear_factor,
)
from .conditions import (
    ConditionReport,
    GridSpec,
    check_c2,
    check_c3,
    check_dissipation,
    check_equilibrium_signs,
    dissipation_density,
    residual_c1,
    standard_grid,
    sweep,
)
from .stability import (
    ExtendedSymbol,
    WellPosednessVerdict,
    assemble_extended_symbol,
    classify,
    extended_spectrum_property,
    pore_diffusivity,
    spectral_union_matches,
)
from .simulate import (
    BoxState,
    ColumnState,
    EnergyLedger,
    Forcing,
    column_cfl_dt,
    constant_forcing,
    energy_ledger,
    gas_content,
    piecewise_constant_forcing,
    random_forcing,
    run_box,
    run_column,
    step_box,
    step_column,
    uniform_column,
)
