"""spokeseq: exact spectral-sequence calculator for spoke-graded rings over F_p.

Modules:
    errors       coded EngineError classes, one per kind of failure
    concurrency  the one map over independent per-degree work items
    fp           exact sparse linear algebra over prime fields
    grading      the m + n@ degree lattice and tri-gradings
    algebra      presented graded-commutative algebras and monomial bases
    hfp          closed-form homotopy of the point ring (all variants)
    hopf         Hopf algebroids, comodules, axiom checks, Weyl combinatorics
    cobar        cobar complexes and Ext tables (two independent routes)
    mayss        the May spectral sequence and the completeness verdict
    crosscheck   the paper's cross-checks, run by the tests and no command
    charts       deterministic SVG chart emission
    cli          command-line driver
"""

__version__ = "0.1.0"
