// Tile-local tridiagonal line solves for the elliptic preconditioners:
// the zonal and meridional lines of the 2-D operator and the vertical
// columns of the 3-D one.
//
// A line is n cells `stride` doubles apart.  Cell s has diagonal diag[s]
// and couples to its predecessor through w[s] and to its successor
// through w[s + 1] (off-diagonals -w, as in L = -A); the last cell's
// successor coupling is dropped, so couplings out of the line stay on
// the diagonal only.  A dry cell (diag <= 0) is a decoupled identity row
// where the recurrence restarts.
#pragma once

#include <algorithm>
#include <cstddef>

namespace hyades::gcm::tridiag {

// Thomas factors: cp = normalized super-diagonal, inv = 1 / pivot
// (both 0 on dry cells).
inline void factor(const double* diag, const double* w, double* cp,
                   double* inv, int n, std::size_t stride) {
  double prev_cp = 0.0;
  bool have_prev = false;
  for (int s = 0; s < n; ++s) {
    const std::size_t o = static_cast<std::size_t>(s) * stride;
    const double b = diag[o];
    if (b <= 0) {
      cp[o] = 0.0;
      inv[o] = 0.0;
      have_prev = false;
      continue;
    }
    const double a = have_prev ? -w[o] : 0.0;
    const double c = s + 1 < n ? -w[o + stride] : 0.0;
    // Guard against an exactly-singular block (a fully isolated wet line
    // would make the factor a pure Neumann tridiagonal).
    const double denom =
        std::max(b - a * (have_prev ? prev_cp : 0.0), 1e-12 * b);
    inv[o] = 1.0 / denom;
    cp[o] = c / denom;
    prev_cp = cp[o];
    have_prev = true;
  }
}

// z = M^-1 r on one line (z = 0 on dry cells).  Returns flops.
inline double solve(const double* diag, const double* w, const double* cp,
                    const double* inv, const double* r, double* z, int n,
                    std::size_t stride) {
  double flops = 0;
  bool have_prev = false;
  double prev_z = 0.0;
  for (int s = 0; s < n; ++s) {
    const std::size_t o = static_cast<std::size_t>(s) * stride;
    if (diag[o] <= 0) {
      z[o] = 0.0;
      have_prev = false;
      continue;
    }
    const double a = have_prev ? -w[o] : 0.0;
    z[o] = (r[o] - a * prev_z) * inv[o];
    prev_z = z[o];
    have_prev = true;
    flops += 3.0;
  }
  bool have_next = false;
  double next_z = 0.0;
  for (int s = n - 1; s >= 0; --s) {
    const std::size_t o = static_cast<std::size_t>(s) * stride;
    if (diag[o] <= 0) {
      have_next = false;
      continue;
    }
    if (have_next) {
      z[o] -= cp[o] * next_z;
      flops += 2.0;
    }
    next_z = z[o];
    have_next = true;
  }
  return flops;
}

}  // namespace hyades::gcm::tridiag
