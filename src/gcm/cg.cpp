#include "gcm/cg.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "cluster/trace.hpp"
#include "gcm/halo.hpp"

namespace hyades::gcm {

namespace {

// The per-dimension pieces of the one PCG loop below: values per (i, j)
// column and the halo-1 exchange.
std::size_t depth(const Array2D<double>&) { return 1; }
std::size_t depth(const Array3D<double>& f) { return f.nz(); }

void exchange(comm::Comm& comm, const Decomp& dec, Array2D<double>& f) {
  exchange2d(comm, dec, f, 1);
}
void exchange(comm::Comm& comm, const Decomp& dec, Array3D<double>& f) {
  exchange3d(comm, dec, f, 1);
}

template <typename Field>
double interior_cells(const Decomp& dec, const Field& f) {
  return static_cast<double>(dec.snx) * dec.sny *
         static_cast<double>(depth(f));
}

// Calls fn(offset, length) for each i-row of the tile interior: the
// row's j cells of a 2-D field, or its (j, k) cells of a 3-D one, are one
// contiguous run.  The runs come in (i, j, k) order, so local partial
// sums are deterministic.
template <typename Field, typename Fn>
void for_each_row(const Decomp& dec, const Field& f, Fn&& fn) {
  const std::size_t dz = depth(f);
  const auto h = static_cast<std::size_t>(dec.halo);
  const std::size_t len = static_cast<std::size_t>(dec.sny) * dz;
  for (std::size_t i = h; i < h + static_cast<std::size_t>(dec.snx); ++i) {
    fn((i * f.ny() + h) * dz, len);
  }
}

template <typename Field>
double dot_interior(const Decomp& dec, const Field& a, const Field& b) {
  double s = 0.0;
  for_each_row(dec, a, [&](std::size_t o, std::size_t n) {
    const double* x = a.data() + o;
    const double* y = b.data() + o;
    for (std::size_t m = 0; m < n; ++m) s += x[m] * y[m];
  });
  return s;
}

// y += alpha * x over the interior.
template <typename Field>
void axpy_interior(const Decomp& dec, double alpha, const Field& x,
                   Field& y) {
  for_each_row(dec, x, [&](std::size_t o, std::size_t n) {
    const double* xs = x.data() + o;
    double* ys = y.data() + o;
    for (std::size_t m = 0; m < n; ++m) ys[m] += alpha * xs[m];
  });
}

// y = x + beta * y over the interior.
template <typename Field>
void xpay_interior(const Decomp& dec, const Field& x, double beta,
                   Field& y) {
  for_each_row(dec, x, [&](std::size_t o, std::size_t n) {
    const double* xs = x.data() + o;
    double* ys = y.data() + o;
    for (std::size_t m = 0; m < n; ++m) ys[m] = xs[m] + beta * ys[m];
  });
}

template <typename Op, typename Field>
CgResult pcg(comm::Comm& comm, const Decomp& dec, const Op& op,
             const Field& b, Field& p, double tol, int max_iter) {
  CgResult res;
  const double cells = interior_cells(dec, b);
  Field r = b, z = b, d = b, q = b;
  for (Field* f : {&r, &z, &d, &q}) f->fill(0.0);

  // r = b - L p  (the initial guess usually carries the previous step's
  // pressure, which shortens the solve considerably).
  exchange(comm, dec, p);
  res.flops += op.apply(p, q);
  for_each_row(dec, b, [&](std::size_t o, std::size_t n) {
    for (std::size_t m = o; m < o + n; ++m) {
      r.data()[m] = b.data()[m] - q.data()[m];
    }
  });
  res.flops += cells;

  res.flops += op.precondition(r, z);
  d = z;
  double rz = comm.global_sum(dot_interior(dec, r, z));
  res.flops += 2.0 * cells;
  const double bb = comm.global_sum(dot_interior(dec, b, b));
  const double target = tol * std::max(std::sqrt(std::max(bb, 0.0)), 1e-300);

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
    exchange(comm, dec, d);
    res.flops += op.apply(d, q);
    // ...and two global sums.
    const double dq = comm.global_sum(dot_interior(dec, d, q));
    res.flops += 2.0 * cells;
    if (dq <= 0.0) break;  // L is SPD on the wet subspace; dq==0 => done
    const double alpha = rz / dq;
    axpy_interior(dec, alpha, d, p);
    axpy_interior(dec, -alpha, q, r);
    res.flops += 4.0 * cells;

    res.flops += op.precondition(r, z);
    // The paper's solver applies the exchange to *two* fields per
    // iteration (Eq. 9); the second refreshes the preconditioned
    // residual's halo, which stencil preconditioners (and the original
    // implementation) require.
    exchange(comm, dec, z);
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

}  // namespace

CgResult cg_solve(comm::Comm& comm, const Decomp& dec,
                  const EllipticOperator& op, const Array2D<double>& b,
                  Array2D<double>& p, double tol, int max_iter) {
  return pcg(comm, dec, op, b, p, tol, max_iter);
}

CgResult cg_solve(comm::Comm& comm, const Decomp& dec,
                  const EllipticOperator3& op, const Array3D<double>& b,
                  Array3D<double>& p, double tol, int max_iter) {
  CgResult res = pcg(comm, dec, op, b, p, tol, max_iter);
  // The 3-D solve also bills its <b, b> sum.
  res.flops += 2.0 * interior_cells(dec, b);
  return res;
}

}  // namespace hyades::gcm
