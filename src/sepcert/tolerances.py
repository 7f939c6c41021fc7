"""The tolerance policy: every threshold that decides a verdict, validates
an input, or judges a certificate or a self-check.

Verdicts are sign tests on semidefinite optima, so each one rests on a
few of these numbers.  Uses that share a meaning share a name; the
comparison (strict or not) and the scale a value is taken against stay
at the use.  Only GAP_TOL and FEAS_TOL can be overridden, through
sdp.SolverTolerances (the --tol-gap and --tol-feas options); the rest
are fixed.  Loop controls of the interior-point iteration and of the
product-state descent, which steer a loop rather than decide anything,
live with their loops.
"""

# -- inputs ---------------------------------------------------------------

# Hermiticity: allowed deviation of M - M^dag, relative to max(1, size of M)
HERMITIAN = 1e-12
# an imaginary part (or a dropped direction's real part) this small is zero
ZERO_PART = 1e-13
# PSD slack: how far a state's trace may miss 1, or an eigenvalue dip below 0
PSD_SLACK = 1e-10
# negative state eigenvalues above -QUIET_CLIP are left alone, not clipped
QUIET_CLIP = 1e-13
# a sweep point at most this fraction of a step past --to still counts
SWEEP_SLACK = 1e-9

# -- solver ---------------------------------------------------------------

# default relative duality gap at which the interior-point loop converges
GAP_TOL = 1e-8
# default primal and dual residual at which the interior-point loop converges
FEAS_TOL = 1e-9
# residuals at which an unconverged iterate is still usable for a verdict
USABLE_RESIDUAL = 1e-8
# relative duality gap at which an unconverged iterate is still usable
USABLE_GAP = 1e-6
# interior-point iterations before the solver gives up
MAX_ITER = 200

# -- verdicts and certificates -------------------------------------------

# refusal band: smaller margins are marginal; certificates must clear it
REFUSAL_BAND = 1e-7
# how far a dual certificate may dip below 0 or violate its trace constraints
CERT_TOL = 1e-8
# a product value below -VIOLATION refutes; a state value below it is detected
VIOLATION = 1e-9
# re-check of an extension: swap, trace-down and eigenvalue deviation allowed
RECHECK = 1e-7
# the two decomposability programs must agree to this, relative to max(1, |Z|)
DECOMPOSE_AGREEMENT = 1e-6
# a decomposition dual block of smaller trace falls back to the state side
DUAL_TRACE_FLOOR = 1e-6
# edge-state ranks count singular values above this fraction of the largest
EDGE_RANK_CUTOFF = 1e-7
# positive definite: smallest eigenvalue above this times max(1, the largest)
POSITIVE_DEFINITE = 1e-12
# a map whose identity image has a smaller mean eigenvalue annihilates it
UNITAL_ZERO = 1e-14

# -- self-checks ----------------------------------------------------------

# residual allowed in an identity the code checks on its own output
SELF_CHECK = 1e-9
# trace-down rank: singular values above this fraction of the largest count
RANK_CUTOFF = 1e-10
# largest trace-down coefficient allowed between the two parity sectors
PARITY_LEAK = 1e-10
