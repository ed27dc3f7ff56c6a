#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "gcm/cg.hpp"
#include "gcm/elliptic.hpp"
#include "gcm/elliptic3.hpp"
#include "gcm/halo.hpp"
#include "support/rng.hpp"
#include "tests/gcm/gcm_test_util.hpp"

namespace hyades::gcm {
namespace {

using testing::run_ranks;
using testing::small_ocean;

Array2D<double> field(const Decomp& dec, double init = 0.0) {
  return Array2D<double>(static_cast<std::size_t>(dec.ext_x()),
                         static_cast<std::size_t>(dec.ext_y()), init);
}

void fill_random_interior(const Decomp& dec, const TileGrid& grid,
                          Array2D<double>& f, std::uint64_t seed) {
  SplitMix64 rng(seed);
  for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
    for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
      if (grid.depth(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) >
          0) {
        f(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
            rng.next_in(-1.0, 1.0);
      }
    }
  }
}

Array3D<double> field3(const Decomp& dec, int nz) {
  return Array3D<double>(static_cast<std::size_t>(dec.ext_x()),
                         static_cast<std::size_t>(dec.ext_y()),
                         static_cast<std::size_t>(nz), 0.0);
}

double dot(const Decomp& dec, const Array2D<double>& a,
           const Array2D<double>& b) {
  double s = 0;
  for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
    for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
      s += a(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) *
           b(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
    }
  }
  return s;
}

TEST(Elliptic, ConstantIsInNullSpace) {
  const ModelConfig cfg = small_ocean(1, 1);
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, 0);
    const TileGrid grid(cfg, dec);
    const EllipticOperator op(cfg, dec, grid);
    Array2D<double> p = field(dec, 3.7);
    Array2D<double> out = field(dec);
    exchange2d(comm, dec, p, 1);
    op.apply(p, out);
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        EXPECT_NEAR(out(static_cast<std::size_t>(i),
                        static_cast<std::size_t>(j)),
                    0.0, 1e-6)
            << i << "," << j;
      }
    }
  });
}

TEST(Elliptic, SymmetricAndPositiveSemidefinite) {
  ModelConfig cfg = small_ocean(1, 1);
  cfg.topography = ModelConfig::Topography::kRidge;  // nontrivial H
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, 0);
    const TileGrid grid(cfg, dec);
    const EllipticOperator op(cfg, dec, grid);
    Array2D<double> p = field(dec), q = field(dec);
    fill_random_interior(dec, grid, p, 11);
    fill_random_interior(dec, grid, q, 22);
    Array2D<double> Lp = field(dec), Lq = field(dec);
    exchange2d(comm, dec, p, 1);
    exchange2d(comm, dec, q, 1);
    op.apply(p, Lp);
    op.apply(q, Lq);
    // <Lp, q> == <p, Lq> (symmetry across the periodic seam included).
    EXPECT_NEAR(dot(dec, Lp, q), dot(dec, p, Lq),
                1e-9 * std::abs(dot(dec, Lp, q)) + 1e-6);
    // <Lp, p> >= 0.
    EXPECT_GE(dot(dec, Lp, p), -1e-9);
  });
}

TEST(Elliptic, DiagonalPositiveOnWetZeroOnLand) {
  ModelConfig cfg = small_ocean(1, 1);
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.topography = ModelConfig::Topography::kContinents;
  cfg.validate();
  run_ranks(1, [&](cluster::RankContext&, comm::Comm&) {
    const Decomp dec(cfg, 0);
    const TileGrid grid(cfg, dec);
    const EllipticOperator op(cfg, dec, grid);
    int wet = 0, dry = 0;
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        const bool is_wet = grid.depth(static_cast<std::size_t>(i),
                                       static_cast<std::size_t>(j)) > 0;
        if (is_wet) {
          EXPECT_GT(op.diagonal()(static_cast<std::size_t>(i),
                                  static_cast<std::size_t>(j)),
                    0.0);
          ++wet;
        } else {
          EXPECT_EQ(op.diagonal()(static_cast<std::size_t>(i),
                                  static_cast<std::size_t>(j)),
                    0.0);
          ++dry;
        }
      }
    }
    EXPECT_GT(wet, 0);
    EXPECT_GT(dry, 0);
  });
}

TEST(Cg, SolvesManufacturedProblem) {
  const ModelConfig cfg = small_ocean(2, 2);
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, comm.group_rank());
    const TileGrid grid(cfg, dec);
    const EllipticOperator op(cfg, dec, grid);
    // Build b = L p_true for a random p_true; then solve from zero.
    Array2D<double> p_true = field(dec);
    fill_random_interior(dec, grid, p_true,
                         static_cast<std::uint64_t>(100 + comm.group_rank()));
    Array2D<double> b = field(dec);
    exchange2d(comm, dec, p_true, 1);
    op.apply(p_true, b);

    Array2D<double> p = field(dec);
    const CgResult res = cg_solve(comm, dec, op, b, p, 1e-10, 2000);
    EXPECT_TRUE(res.converged);
    EXPECT_GT(res.iterations, 0);

    // p and p_true may differ by a constant: compare after removing the
    // mean difference (computed globally).
    std::vector<double> sums{0.0, 0.0};
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        if (!op.is_wet(i, j)) continue;
        sums[0] += p(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) -
                   p_true(static_cast<std::size_t>(i),
                          static_cast<std::size_t>(j));
        sums[1] += 1.0;
      }
    }
    comm.global_sum(sums);
    const double shift = sums[0] / sums[1];
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        if (!op.is_wet(i, j)) continue;
        EXPECT_NEAR(p(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) -
                        shift,
                    p_true(static_cast<std::size_t>(i),
                           static_cast<std::size_t>(j)),
                    1e-5);
      }
    }
  });
}

TEST(Cg, ZeroRhsConvergesImmediately) {
  const ModelConfig cfg = small_ocean(1, 1);
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, 0);
    const TileGrid grid(cfg, dec);
    const EllipticOperator op(cfg, dec, grid);
    Array2D<double> b = field(dec), p = field(dec);
    const CgResult res = cg_solve(comm, dec, op, b, p, 1e-8, 100);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, 0);

    // The 3-D operator through the same loop: <b, b> = 0 hits the
    // tolerance floor, which still returns before the first iteration.
    const EllipticOperator3 op3(cfg, dec, grid);
    Array3D<double> b3 = field3(dec, cfg.nz), p3 = field3(dec, cfg.nz);
    const CgResult res3 = cg_solve(comm, dec, op3, b3, p3, 1e-8, 100);
    EXPECT_TRUE(res3.converged);
    EXPECT_EQ(res3.iterations, 0);
  });
}

TEST(Cg, WarmStartNeedsFewerIterations) {
  const ModelConfig cfg = small_ocean(2, 2);
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, comm.group_rank());
    const TileGrid grid(cfg, dec);
    const EllipticOperator op(cfg, dec, grid);
    Array2D<double> p_true = field(dec);
    fill_random_interior(dec, grid, p_true,
                         static_cast<std::uint64_t>(500 + comm.group_rank()));
    Array2D<double> b = field(dec);
    exchange2d(comm, dec, p_true, 1);
    op.apply(p_true, b);

    Array2D<double> cold = field(dec);
    const int cold_iters =
        cg_solve(comm, dec, op, b, cold, 1e-10, 2000).iterations;

    Array2D<double> warm = cold;  // restart from the converged answer
    const int warm_iters =
        cg_solve(comm, dec, op, b, warm, 1e-10, 2000).iterations;
    EXPECT_LT(warm_iters, cold_iters / 4 + 1);
  });
}

TEST(Cg, IterationCountsIdenticalOnAllRanks) {
  const ModelConfig cfg = small_ocean(2, 2);
  run_ranks(4, [&](cluster::RankContext& ctx, comm::Comm& comm) {
    const Decomp dec(cfg, comm.group_rank());
    const TileGrid grid(cfg, dec);
    const EllipticOperator op(cfg, dec, grid);
    Array2D<double> b = field(dec);
    fill_random_interior(dec, grid, b,
                         static_cast<std::uint64_t>(7 + comm.group_rank()));
    // Make b compatible: subtract the global mean over wet cells.
    std::vector<double> sums{0.0, 0.0};
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        sums[0] += b(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
        sums[1] += 1.0;
      }
    }
    comm.global_sum(sums);
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        b(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) -=
            sums[0] / sums[1];
      }
    }
    Array2D<double> p = field(dec);
    const CgResult res = cg_solve(comm, dec, op, b, p, 1e-8, 2000);
    // Convergence decisions flow through bitwise-identical global sums;
    // cross-check by summing the iteration counts.
    const double total = comm.global_sum(static_cast<double>(res.iterations));
    EXPECT_DOUBLE_EQ(total, 4.0 * res.iterations);
    (void)ctx;
  });
}

// ---- golden pins ------------------------------------------------------
//
// Every virtual output of a solve -- iteration count, final residual,
// per-rank flops (which the virtual clock charges) and the solution bits
// -- pinned exactly for the three solver configurations the model runs:
// the 2-D line preconditioner, the 2-D Jacobi ablation, and the 3-D
// non-hydrostatic operator, on 2x2 ranks over ridge topography (which
// varies the depth and dries the deepest levels under the crest).  A
// fourth case runs the line preconditioner over continents, whose land
// breaks restart the line recurrences mid-tile.  A changed flop count or
// summation order anywhere in the loop shows up here even when the
// printed benches round it away.

std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

template <typename Field>
std::uint64_t fnv1a(const Field& f) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double v : f) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char c : bytes) {
      h = (h ^ c) * 0x100000001b3ull;
    }
  }
  return h;
}

struct Pinned {
  int iterations = 0;
  double residual = 0.0;
  bool converged = false;
  std::vector<double> flops = std::vector<double>(4);         // by rank
  std::vector<std::uint64_t> digest = std::vector<std::uint64_t>(4);
};

enum class PinCase { kLine, kJacobi, k3d, kLineOverLand };

// Solves L p = L p_true from p = 0 on every rank; each rank writes only
// its own slots.
Pinned solve_pinned(PinCase c) {
  ModelConfig cfg = small_ocean(2, 2);
  cfg.topography = ModelConfig::Topography::kRidge;
  if (c == PinCase::kLineOverLand) {
    cfg.nx = 32;
    cfg.ny = 16;
    cfg.topography = ModelConfig::Topography::kContinents;
  }
  cfg.cg_jacobi = c == PinCase::kJacobi;
  cfg.validate();
  Pinned out;
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    const int rank = comm.group_rank();
    const auto seed = static_cast<std::uint64_t>(900 + rank);
    const Decomp dec(cfg, rank);
    const TileGrid grid(cfg, dec);
    CgResult res;
    std::uint64_t digest = 0;
    if (c == PinCase::k3d) {
      const EllipticOperator3 op(cfg, dec, grid);
      SplitMix64 rng(seed);
      Array3D<double> p_true = field3(dec, cfg.nz);
      for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
        for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
          for (int k = 0; k < cfg.nz; ++k) {
            if (!op.is_wet(i, j, k)) continue;
            p_true(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                   static_cast<std::size_t>(k)) = rng.next_in(-1.0, 1.0);
          }
        }
      }
      Array3D<double> b = field3(dec, cfg.nz), p = field3(dec, cfg.nz);
      exchange3d(comm, dec, p_true, 1);
      op.apply(p_true, b);
      res = cg_solve(comm, dec, op, b, p, 1e-10, 500);
      digest = fnv1a(p);
    } else {
      const EllipticOperator op(cfg, dec, grid);
      Array2D<double> p_true = field(dec);
      fill_random_interior(dec, grid, p_true, seed);
      Array2D<double> b = field(dec), p = field(dec);
      exchange2d(comm, dec, p_true, 1);
      op.apply(p_true, b);
      res = cg_solve(comm, dec, op, b, p, 1e-10, 2000);
      digest = fnv1a(p);
    }
    out.flops[static_cast<std::size_t>(rank)] = res.flops;
    out.digest[static_cast<std::size_t>(rank)] = digest;
    if (rank == 0) {
      out.iterations = res.iterations;
      out.residual = res.residual;
      out.converged = res.converged;
    }
  });
  return out;
}

void expect_pinned(const Pinned& got, int iterations, double residual,
                   const std::vector<double>& flops,
                   const std::vector<std::uint64_t>& digest) {
  EXPECT_TRUE(got.converged);
  EXPECT_EQ(got.iterations, iterations);
  EXPECT_EQ(hex(got.residual), hex(residual));
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(hex(got.flops[r]), hex(flops[r])) << "rank " << r;
    EXPECT_EQ(got.digest[r], digest[r])
        << "rank " << r << " digest 0x" << std::hex << got.digest[r];
  }
}

TEST(CgPinned, LinePreconditioner2d) {
  expect_pinned(solve_pinned(PinCase::kLine), 38, 0x1.4420b4a4fb7b2p-18,
                {0x1.383p+15, 0x1.383p+15, 0x1.383p+15, 0x1.383p+15},
                {0x1aede3d6b9ce259full, 0xde996f848fb51ee9ull,
                 0xb4f427460c00390bull, 0xd42897361e9cd9c0ull});
}

TEST(CgPinned, Jacobi2d) {
  expect_pinned(solve_pinned(PinCase::kJacobi), 59, 0x1.07cc486695d3bp-17,
                {0x1.47cp+15, 0x1.47cp+15, 0x1.47cp+15, 0x1.47cp+15},
                {0x3efaf9c9ef9bb1c9ull, 0xc4b13a13d82b4950ull,
                 0x4cfe5b53e91895faull, 0x5c7a9d7924595325ull});
}

TEST(CgPinned, LinePreconditionerOverLand2d) {
  expect_pinned(solve_pinned(PinCase::kLineOverLand), 67, 0x1.43ee1652f853cp-16,
                {0x1.d31cp+17, 0x1.d31cp+17, 0x1.d31cp+17, 0x1.d31cp+17},
                {0xebe5736353b8703aull, 0xfe062f80543461e8ull,
                 0x841cc9f33ebac71dull, 0x8c56ead9deeb6475ull});
}

TEST(CgPinned, NonHydrostatic3d) {
  expect_pinned(solve_pinned(PinCase::k3d), 27, 0x1.0352dd901c8b6p+2,
                {0x1.91ap+16, 0x1.91ap+16, 0x1.91ap+16, 0x1.91ap+16},
                {0x60ccffce5b3f9c40ull, 0xd6fd295ef311a66eull,
                 0x44500848da7518a0ull, 0x1b69d7bfd3505766ull});
}

}  // namespace
}  // namespace hyades::gcm
