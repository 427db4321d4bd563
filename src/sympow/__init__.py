"""Exact chain complexes and homology of symmetric powers of surfaces.

The package builds the cellular chain complexes of symmetric powers of a
closed genus-g surface and of their universal covers, as based free modules
over the Laurent group ring of the deck group, and computes their homology
by three independent routes: integer Smith normal form on finite covers,
generic rank over random unit specializations, and combinatorial Betti
counting.  Verification suites machine-check the homological statements the
construction rests on.
"""

from .groupring import (
    GroupRingElement,
    LaurentRing,
    UnitSpecialization,
    finite_quotient,
    surface_ring,
    wedge_ring,
)
from .dga import (
    DgaContext,
    DgaElement,
    boundary,
    dga_mul,
    lambda_element,
    sigma_element,
    surface_context,
    wedge_context,
)
from .complexes import (
    BasedFreeModule,
    ChainComplex,
    SparseRingMatrix,
    build_cover_complex,
    build_Q_complex,
    build_wedge_complex,
    export_json,
    export_text,
)
from .homology import (
    HomologyReport,
    KernelBasis,
    SnfResult,
    betti_symmetric_power,
    euler_characteristic,
    generic_homology,
    generic_rank,
    integer_homology,
    kernel_basis,
    smith_normal_form,
)
from .verify import (
    VerifyReport,
    run_suite,
    verify_dga_suite,
    verify_lemma_cohomology,
    verify_lemma_q,
    verify_lemma_torus,
    verify_mattuck,
    verify_nonfg_witness,
    verify_theorem_main,
)

__version__ = "0.1.0"
