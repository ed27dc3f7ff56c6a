#include "gcm/elliptic.hpp"

#include "gcm/tridiag.hpp"

namespace hyades::gcm {

EllipticOperator::EllipticOperator(const ModelConfig& cfg, const Decomp& dec,
                                   const TileGrid& grid)
    : dec_(dec), jacobi_(cfg.cg_jacobi) {
  const int ex = dec.ext_x();
  const int ey = dec.ext_y();
  for (Array2D<double>* a :
       {&wW_, &wS_, &diag_, &cp_, &inv_, &cpy_, &invy_}) {
    *a = Array2D<double>(static_cast<std::size_t>(ex),
                         static_cast<std::size_t>(ey), 0.0);
  }

  // Face depths H_f = sum_k hFac_f dz_k; the same face fractions used by
  // the velocity correction, which makes the projection exact.
  for (int i = 0; i < ex; ++i) {
    for (int j = 0; j < ey; ++j) {
      double hw = 0.0, hs = 0.0;
      for (int k = 0; k < cfg.nz; ++k) {
        hw += grid.hFacW(static_cast<std::size_t>(i),
                         static_cast<std::size_t>(j),
                         static_cast<std::size_t>(k)) *
              grid.dzf[static_cast<std::size_t>(k)];
        hs += grid.hFacS(static_cast<std::size_t>(i),
                         static_cast<std::size_t>(j),
                         static_cast<std::size_t>(k)) *
              grid.dzf[static_cast<std::size_t>(k)];
      }
      wW_(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          hw * grid.dyC / grid.dxC[static_cast<std::size_t>(j)];
      wS_(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          hs * grid.dxS[static_cast<std::size_t>(j)] / grid.dyC;
    }
  }

  for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
    for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
      const auto si = static_cast<std::size_t>(i);
      const auto sj = static_cast<std::size_t>(j);
      if (grid.depth(si, sj) <= 0) continue;  // land column
      diag_(si, sj) = wW_(si, sj) + wW_(si + 1, sj) + wS_(si, sj) +
                      wS_(si, sj + 1);
    }
  }
  ybuf_.assign(static_cast<std::size_t>(dec.sny), 0.0);

  // Line factors: zonal lines run along i (stride ey), meridional lines
  // along j.
  const auto h = static_cast<std::size_t>(dec.halo);
  for (std::size_t j = h; j < h + static_cast<std::size_t>(dec.sny); ++j) {
    tridiag::factor(&diag_(h, j), &wW_(h, j), &cp_(h, j), &inv_(h, j),
                    dec.snx, static_cast<std::size_t>(ey));
  }
  for (std::size_t i = h; i < h + static_cast<std::size_t>(dec.snx); ++i) {
    tridiag::factor(&diag_(i, h), &wS_(i, h), &cpy_(i, h), &invy_(i, h),
                    dec.sny, 1);
  }
}

double EllipticOperator::apply(const Array2D<double>& p,
                               Array2D<double>& out) const {
  double flops = 0;
  for (int i = dec_.halo; i < dec_.halo + dec_.snx; ++i) {
    for (int j = dec_.halo; j < dec_.halo + dec_.sny; ++j) {
      const auto si = static_cast<std::size_t>(i);
      const auto sj = static_cast<std::size_t>(j);
      if (diag_(si, sj) <= 0) {
        out(si, sj) = 0.0;
        continue;
      }
      // L = -A: diag * p_c - sum w_f p_nb.
      out(si, sj) = diag_(si, sj) * p(si, sj) -
                    wW_(si, sj) * p(si - 1, sj) -
                    wW_(si + 1, sj) * p(si + 1, sj) -
                    wS_(si, sj) * p(si, sj - 1) -
                    wS_(si, sj + 1) * p(si, sj + 1);
      flops += 9.0;
    }
  }
  return flops;
}

double EllipticOperator::precondition(const Array2D<double>& r,
                                      Array2D<double>& z) const {
  if (jacobi_) return precondition_jacobi(r, z);
  // Thomas solves per line in both directions (restarting at land
  // breaks, where rows are decoupled identity blocks), averaged.
  double flops = 0;
  const auto ey = static_cast<std::size_t>(dec_.ext_y());
  const auto h = static_cast<std::size_t>(dec_.halo);
  const auto snx = static_cast<std::size_t>(dec_.snx);
  const auto sny = static_cast<std::size_t>(dec_.sny);

  // ---- zonal pass: z holds Mx^-1 r -------------------------------------
  for (std::size_t j = h; j < h + sny; ++j) {
    flops += tridiag::solve(&diag_(h, j), &wW_(h, j), &cp_(h, j), &inv_(h, j),
                            &r(h, j), &z(h, j), dec_.snx, ey);
  }

  // ---- meridional pass, averaged: z = (Mx^-1 r + My^-1 r) / 2 ----------
  for (std::size_t i = h; i < h + snx; ++i) {
    flops += tridiag::solve(&diag_(i, h), &wS_(i, h), &cpy_(i, h),
                            &invy_(i, h), &r(i, h), ybuf_.data(), dec_.sny,
                            1);
    for (std::size_t j = h; j < h + sny; ++j) {
      if (diag_(i, j) <= 0) continue;
      z(i, j) = 0.5 * (z(i, j) + ybuf_[j - h]);
      flops += 2.0;
    }
  }
  return flops;
}

double EllipticOperator::precondition_jacobi(const Array2D<double>& r,
                                             Array2D<double>& z) const {
  double flops = 0;
  for (int i = dec_.halo; i < dec_.halo + dec_.snx; ++i) {
    for (int j = dec_.halo; j < dec_.halo + dec_.sny; ++j) {
      const auto si = static_cast<std::size_t>(i);
      const auto sj = static_cast<std::size_t>(j);
      z(si, sj) = diag_(si, sj) > 0 ? r(si, sj) / diag_(si, sj) : 0.0;
      flops += 1.0;
    }
  }
  return flops;
}

}  // namespace hyades::gcm
