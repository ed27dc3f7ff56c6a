// Preconditioned conjugate gradients with the paper's per-iteration
// communication structure: one halo-1 exchange of the search direction,
// one of the preconditioned residual, and two global sums (Section 4:
// "the iterative solver requires an exchange to be applied to two fields
// at every solver iteration ... Two global sum operations are required
// at every solver iteration").
//
// One loop serves both elliptic systems: the 2-D surface pressure of the
// hydrostatic DS phase and, outside the hydrostatic limit, the 3-D
// non-hydrostatic pressure (same shape, level-deep halo strips -- which
// is why the paper's climate runs stay hydrostatic; see
// bench_ablation_nonhydro).  The operator owns its preconditioner.  All
// dot products are reduced through Comm::global_sum, so every rank sees
// bitwise-identical convergence decisions.
#pragma once

#include <stdexcept>
#include <string>

#include "comm/comm.hpp"
#include "gcm/elliptic.hpp"
#include "gcm/elliptic3.hpp"

namespace hyades::gcm {

// Thrown when a residual norm turns non-finite mid-solve: NaNs in the
// state (e.g. garbled data that somehow slipped past the CRC/reliability
// layer) or a genuinely diverging solve.  Aborting with a diagnostic
// beats silently iterating on garbage until max_iter.  Collective-safe:
// the residual comes from a global sum, so every rank throws together.
struct SolverDivergence : std::runtime_error {
  SolverDivergence(const char* solver, int at_iteration, double rr)
      : std::runtime_error(std::string(solver) +
                           ": non-finite residual at iteration " +
                           std::to_string(at_iteration) + " (<r,r> = " +
                           std::to_string(rr) + ")"),
        iteration(at_iteration),
        residual_sq(rr) {}
  int iteration;
  double residual_sq;
};

struct CgResult {
  int iterations = 0;
  double residual = 0.0;       // sqrt(<r, r>) at exit
  bool converged = false;
  double flops = 0.0;          // local flops spent in the solve
};

// Solves L p = b in-place (p holds the initial guess, typically the
// previous step's pressure) to sqrt(<r, r>) <= tol * sqrt(<b, b>).  b must
// satisfy the compatibility condition (its global sum is ~0); the
// constant null-space component of p is left untouched by CG.  Each
// iteration is recorded as a "ds_cg_iter" span when the rank traces.
CgResult cg_solve(comm::Comm& comm, const Decomp& dec,
                  const EllipticOperator& op, const Array2D<double>& b,
                  Array2D<double>& p, double tol, int max_iter);
CgResult cg_solve(comm::Comm& comm, const Decomp& dec,
                  const EllipticOperator3& op, const Array3D<double>& b,
                  Array3D<double>& p, double tol, int max_iter);

}  // namespace hyades::gcm
