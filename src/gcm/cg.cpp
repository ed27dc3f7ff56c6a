#include "gcm/cg.hpp"

#include <cmath>

#include "cluster/trace.hpp"
#include "gcm/halo.hpp"

namespace hyades::gcm {

namespace {
// Interior dot product in a fixed (i, j) order so the local partial sum
// is deterministic.
double dot_interior(const Decomp& dec, const Array2D<double>& a,
                    const Array2D<double>& b) {
  double s = 0.0;
  for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
    for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
      s += a(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) *
           b(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
    }
  }
  return s;
}

void axpy_interior(const Decomp& dec, double alpha, const Array2D<double>& x,
                   Array2D<double>& y) {
  for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
    for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
      y(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) +=
          alpha * x(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
    }
  }
}

void xpay_interior(const Decomp& dec, const Array2D<double>& x, double beta,
                   Array2D<double>& y) {
  for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
    for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
      auto& yy = y(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
      yy = x(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) +
           beta * yy;
    }
  }
}
}  // namespace

CgResult cg_solve(comm::Comm& comm, const Decomp& dec,
                  const EllipticOperator& op, const Array2D<double>& b,
                  Array2D<double>& p, double tol, int max_iter,
                  CgPrecond precond) {
  const auto apply_precond = [&](const Array2D<double>& rr,
                                 Array2D<double>& zz) {
    return precond == CgPrecond::kJacobi ? op.precondition_jacobi(rr, zz)
                                         : op.precondition(rr, zz);
  };
  CgResult res;
  const auto ex = static_cast<std::size_t>(dec.ext_x());
  const auto ey = static_cast<std::size_t>(dec.ext_y());
  const double cells = static_cast<double>(dec.snx) * dec.sny;

  Array2D<double> r(ex, ey, 0.0), z(ex, ey, 0.0), d(ex, ey, 0.0),
      q(ex, ey, 0.0);

  // r = b - L p  (the initial guess usually carries the previous step's
  // pressure, which shortens the solve considerably).
  exchange2d(comm, dec, p, 1);
  res.flops += op.apply(p, q);
  for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
    for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
      r(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          b(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) -
          q(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
    }
  }
  res.flops += cells;

  res.flops += apply_precond(r, z);
  d = z;
  double rz = comm.global_sum(dot_interior(dec, r, z));
  res.flops += 2.0 * cells;
  res.rhs_norm = std::sqrt(std::max(
      comm.global_sum(dot_interior(dec, b, b)), 0.0));
  const double target =
      tol * std::max(res.rhs_norm, 1e-300);

  double rr = comm.global_sum(dot_interior(dec, r, r));
  res.flops += 2.0 * cells;
  if (!std::isfinite(rr) || !std::isfinite(rz)) {
    throw SolverDivergence("cg_solve", 0, rr);
  }
  if (std::sqrt(rr) <= target) {
    res.converged = true;
    res.residual = std::sqrt(rr);
    return res;
  }

  // Per-iteration solver spans: each covers the iteration's virtual-time
  // interval (dominated by its exchange + two global sums; the arithmetic
  // is flop-counted here but clock-charged at the end of the DS) with the
  // iteration's flops as counter payload.  Recording never touches the
  // clock, so tracing leaves solver timing bit-identical.
  cluster::Tracer* tracer = comm.ctx().tracer();
  const auto record_iter = [&](Microseconds t_it, double fl0) {
    if (tracer == nullptr) return;
    cluster::SpanCounters ctr;
    ctr.flops = res.flops - fl0;
    ctr.cg_iterations = 1;
    tracer->record("ds_cg_iter", cluster::SpanCat::kSolver, t_it,
                   comm.ctx().clock().now(), ctr);
  };

  for (int it = 0; it < max_iter; ++it) {
    const Microseconds t_it = comm.ctx().clock().now();
    const double fl_it0 = res.flops;
    // The paper's per-iteration communication: one exchange...
    exchange2d(comm, dec, d, 1);
    res.flops += op.apply(d, q);
    // ...and two global sums.
    const double dq = comm.global_sum(dot_interior(dec, d, q));
    res.flops += 2.0 * cells;
    if (dq <= 0.0) break;  // L is SPD on the wet subspace; dq==0 => done
    const double alpha = rz / dq;
    axpy_interior(dec, alpha, d, p);
    axpy_interior(dec, -alpha, q, r);
    res.flops += 4.0 * cells;

    res.flops += apply_precond(r, z);
    // The paper's solver applies the exchange to *two* fields per
    // iteration (Eq. 9); the second refreshes the preconditioned
    // residual's halo, which stencil preconditioners (and the original
    // implementation) require.
    exchange2d(comm, dec, z, 1);
    double rz_new, rr_new;
    {
      // Fused into one butterfly payload; still costed (and counted) as
      // the paper's two global sums.
      std::vector<double> sums{dot_interior(dec, r, z),
                               dot_interior(dec, r, r)};
      res.flops += 4.0 * cells;
      comm.global_sum(sums);
      rz_new = sums[0];
      rr_new = sums[1];
    }
    if (!std::isfinite(rr_new) || !std::isfinite(rz_new)) {
      throw SolverDivergence("cg_solve", it + 1, rr_new);
    }
    res.iterations = it + 1;
    if (std::sqrt(rr_new) <= target) {
      res.converged = true;
      res.residual = std::sqrt(rr_new);
      record_iter(t_it, fl_it0);
      return res;
    }
    const double beta = rz_new / rz;
    rz = rz_new;
    xpay_interior(dec, z, beta, d);
    res.flops += 2.0 * cells;
    res.residual = std::sqrt(rr_new);
    record_iter(t_it, fl_it0);
  }
  return res;
}

}  // namespace hyades::gcm
