#include "gcm/elliptic3.hpp"

#include "gcm/tridiag.hpp"

namespace hyades::gcm {

namespace {
inline double at(const Array3D<double>& f, int i, int j, int k) {
  return f(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
           static_cast<std::size_t>(k));
}
inline double& at(Array3D<double>& f, int i, int j, int k) {
  return f(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
           static_cast<std::size_t>(k));
}
}  // namespace

EllipticOperator3::EllipticOperator3(const ModelConfig& cfg, const Decomp& dec,
                                     const TileGrid& grid)
    : cfg_(cfg), dec_(dec) {
  const auto ex = static_cast<std::size_t>(dec.ext_x());
  const auto ey = static_cast<std::size_t>(dec.ext_y());
  const auto ez = static_cast<std::size_t>(cfg.nz);
  for (Array3D<double>* a : {&wW_, &wS_, &wT_, &diag_, &cp_, &inv_}) {
    *a = Array3D<double>(ex, ey, ez, 0.0);
  }

  // Face weights (the same geometry the velocity correction uses, which
  // makes the 3-D projection exact).
  for (int i = 0; i < dec.ext_x(); ++i) {
    for (int j = 0; j < dec.ext_y(); ++j) {
      const auto sj = static_cast<std::size_t>(j);
      for (int k = 0; k < cfg.nz; ++k) {
        const double dz = grid.dzf[static_cast<std::size_t>(k)];
        at(wW_, i, j, k) = grid.hFacW(static_cast<std::size_t>(i), sj,
                                      static_cast<std::size_t>(k)) *
                           grid.dyC * dz / grid.dxC[sj];
        at(wS_, i, j, k) = grid.hFacS(static_cast<std::size_t>(i), sj,
                                      static_cast<std::size_t>(k)) *
                           grid.dxS[sj] * dz / grid.dyC;
        if (k > 0 &&
            grid.hFacC(static_cast<std::size_t>(i), sj,
                       static_cast<std::size_t>(k)) > 0 &&
            grid.hFacC(static_cast<std::size_t>(i), sj,
                       static_cast<std::size_t>(k - 1)) > 0) {
          const double dzc = grid.zC[static_cast<std::size_t>(k)] -
                             grid.zC[static_cast<std::size_t>(k - 1)];
          at(wT_, i, j, k) = grid.rAc[sj] / dzc;
        }
      }
    }
  }

  const int h = dec.halo;
  for (int i = h; i < h + dec.snx; ++i) {
    for (int j = h; j < h + dec.sny; ++j) {
      for (int k = 0; k < cfg.nz; ++k) {
        if (grid.hFacC(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                       static_cast<std::size_t>(k)) <= 0) {
          continue;
        }
        const double below = (k + 1 < cfg.nz) ? at(wT_, i, j, k + 1) : 0.0;
        at(diag_, i, j, k) = at(wW_, i, j, k) + at(wW_, i + 1, j, k) +
                             at(wS_, i, j, k) + at(wS_, i, j + 1, k) +
                             at(wT_, i, j, k) + below;
      }
    }
  }

  // Thomas factors of the column tridiagonal (full diagonal kept, so M
  // remains SPD even where columns decouple).
  for (int i = h; i < h + dec.snx; ++i) {
    for (int j = h; j < h + dec.sny; ++j) {
      const auto si = static_cast<std::size_t>(i);
      const auto sj = static_cast<std::size_t>(j);
      tridiag::factor(diag_.column(si, sj), wT_.column(si, sj),
                      cp_.column(si, sj), inv_.column(si, sj), cfg.nz, 1);
    }
  }
}

double EllipticOperator3::apply(const Array3D<double>& p,
                                Array3D<double>& out) const {
  double flops = 0;
  const int h = dec_.halo;
  const int nz = cfg_.nz;
  for (int i = h; i < h + dec_.snx; ++i) {
    for (int j = h; j < h + dec_.sny; ++j) {
      for (int k = 0; k < nz; ++k) {
        const double d = at(diag_, i, j, k);
        if (d <= 0) {
          at(out, i, j, k) = 0.0;
          continue;
        }
        double acc = d * at(p, i, j, k);
        acc -= at(wW_, i, j, k) * at(p, i - 1, j, k);
        acc -= at(wW_, i + 1, j, k) * at(p, i + 1, j, k);
        acc -= at(wS_, i, j, k) * at(p, i, j - 1, k);
        acc -= at(wS_, i, j + 1, k) * at(p, i, j + 1, k);
        if (k > 0) acc -= at(wT_, i, j, k) * at(p, i, j, k - 1);
        if (k + 1 < nz) acc -= at(wT_, i, j, k + 1) * at(p, i, j, k + 1);
        at(out, i, j, k) = acc;
        flops += 13.0;
      }
    }
  }
  return flops;
}

double EllipticOperator3::precondition(const Array3D<double>& r,
                                       Array3D<double>& z) const {
  double flops = 0;
  const int h = dec_.halo;
  for (int i = h; i < h + dec_.snx; ++i) {
    for (int j = h; j < h + dec_.sny; ++j) {
      const auto si = static_cast<std::size_t>(i);
      const auto sj = static_cast<std::size_t>(j);
      flops += tridiag::solve(diag_.column(si, sj), wT_.column(si, sj),
                              cp_.column(si, sj), inv_.column(si, sj),
                              r.column(si, sj), z.column(si, sj), cfg_.nz, 1);
    }
  }
  return flops;
}

}  // namespace hyades::gcm
