#include <gtest/gtest.h>

#include <stdexcept>

#include "gcm/halo.hpp"
#include "tests/gcm/gcm_test_util.hpp"

namespace hyades::gcm {
namespace {

using testing::run_ranks;
using testing::small_ocean;

// Encode global coordinates into a value so halo contents can be checked
// against the function directly (periodic in x).
double coded(const ModelConfig& cfg, int gi, int gj, int k) {
  const int wi = ((gi % cfg.nx) + cfg.nx) % cfg.nx;
  return wi * 10000.0 + gj * 100.0 + k;
}

TEST(Halo, Exchange3DFillsHalosIncludingCorners) {
  const ModelConfig cfg = small_ocean(2, 2, /*halo=*/2);
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, comm.group_rank());
    Array3D<double> f(static_cast<std::size_t>(dec.ext_x()),
                      static_cast<std::size_t>(dec.ext_y()),
                      static_cast<std::size_t>(cfg.nz), -999.0);
    // Fill the interior with the coded global value.
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        for (int k = 0; k < cfg.nz; ++k) {
          f(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
            static_cast<std::size_t>(k)) =
              coded(cfg, dec.global_i(i), dec.global_j(j), k);
        }
      }
    }
    exchange3d(comm, dec, f, dec.halo);
    // Every halo cell that maps to a real global cell must now hold the
    // coded value -- including the corners.
    for (int i = 0; i < dec.ext_x(); ++i) {
      for (int j = 0; j < dec.ext_y(); ++j) {
        const int gj = dec.global_j(j);
        if (gj < 0 || gj >= cfg.ny) continue;  // beyond the walls
        for (int k = 0; k < cfg.nz; ++k) {
          ASSERT_DOUBLE_EQ(f(static_cast<std::size_t>(i),
                             static_cast<std::size_t>(j),
                             static_cast<std::size_t>(k)),
                           coded(cfg, dec.global_i(i), gj, k))
              << "rank " << comm.group_rank() << " (" << i << "," << j << ","
              << k << ")";
        }
      }
    }
  });
}

TEST(Halo, Exchange3DPartialWidth) {
  const ModelConfig cfg = small_ocean(2, 2, /*halo=*/3);
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, comm.group_rank());
    Array3D<double> f(static_cast<std::size_t>(dec.ext_x()),
                      static_cast<std::size_t>(dec.ext_y()),
                      static_cast<std::size_t>(cfg.nz), -999.0);
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        for (int k = 0; k < cfg.nz; ++k) {
          f(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
            static_cast<std::size_t>(k)) =
              coded(cfg, dec.global_i(i), dec.global_j(j), k);
        }
      }
    }
    exchange3d(comm, dec, f, 1);  // width-1 exchange, as in the DS phase
    // The innermost halo ring is filled; the outer rings stay untouched.
    const int h = dec.halo;
    ASSERT_DOUBLE_EQ(f(static_cast<std::size_t>(h - 1),
                       static_cast<std::size_t>(h), 0),
                     coded(cfg, dec.global_i(h - 1), dec.global_j(h), 0));
    ASSERT_DOUBLE_EQ(
        f(static_cast<std::size_t>(h - 2), static_cast<std::size_t>(h), 0),
        -999.0);
  });
}

TEST(Halo, Exchange2DPeriodicWrapSingleTile) {
  const ModelConfig cfg = small_ocean(1, 1, /*halo=*/2);
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, 0);
    Array2D<double> f(static_cast<std::size_t>(dec.ext_x()),
                      static_cast<std::size_t>(dec.ext_y()), -1.0);
    for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
      for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
        f(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
            coded(cfg, dec.global_i(i), dec.global_j(j), 0);
      }
    }
    exchange2d(comm, dec, f, 2);
    // West halo must hold the wrapped east edge.
    for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
      EXPECT_DOUBLE_EQ(
          f(static_cast<std::size_t>(dec.halo - 1),
            static_cast<std::size_t>(j)),
          coded(cfg, cfg.nx - 1, dec.global_j(j), 0));
      EXPECT_DOUBLE_EQ(
          f(static_cast<std::size_t>(dec.halo + dec.snx),
            static_cast<std::size_t>(j)),
          coded(cfg, 0, dec.global_j(j), 0));
    }
  });
}

// Interior cells hold the coded global value; every halo cell holds
// -999 so an unfilled cell stands out.
Array3D<double> coded_field(const ModelConfig& cfg, const Decomp& dec) {
  Array3D<double> f(static_cast<std::size_t>(dec.ext_x()),
                    static_cast<std::size_t>(dec.ext_y()),
                    static_cast<std::size_t>(cfg.nz), -999.0);
  for (int i = dec.halo; i < dec.halo + dec.snx; ++i) {
    for (int j = dec.halo; j < dec.halo + dec.sny; ++j) {
      for (int k = 0; k < cfg.nz; ++k) {
        f(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
          static_cast<std::size_t>(k)) =
            coded(cfg, dec.global_i(i), dec.global_j(j), k);
      }
    }
  }
  return f;
}

// The split-phase exchange fills exactly the cells exchange3d fills,
// corners included, at full and at partial width.
TEST(Halo, SplitPhaseMatchesExchange3D) {
  const ModelConfig cfg = small_ocean(2, 2, /*halo=*/3);
  for (const int width : {3, 1}) {
    run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
      const Decomp dec(cfg, comm.group_rank());
      Array3D<double> blocking = coded_field(cfg, dec);
      Array3D<double> split = coded_field(cfg, dec);
      exchange3d(comm, dec, blocking, width);
      HaloExchange3 hx(comm, dec, split, width);
      hx.start();
      hx.progress();
      hx.finish();
      for (int i = 0; i < dec.ext_x(); ++i) {
        for (int j = 0; j < dec.ext_y(); ++j) {
          for (int k = 0; k < cfg.nz; ++k) {
            const auto at = [&](const Array3D<double>& f) {
              return f(static_cast<std::size_t>(i),
                       static_cast<std::size_t>(j),
                       static_cast<std::size_t>(k));
            };
            ASSERT_EQ(at(split), at(blocking))
                << "width " << width << " rank " << comm.group_rank()
                << " (" << i << "," << j << "," << k << ")";
          }
        }
      }
      // The innermost corner cell (diagonal neighbour's data) is filled
      // wherever it maps to a real cell, and nothing past `width` is.
      const auto h = static_cast<std::size_t>(dec.halo);
      const int gj = dec.global_j(dec.halo - 1);
      if (gj >= 0 && gj < cfg.ny) {
        EXPECT_EQ(split(h - 1, h - 1, 0),
                  coded(cfg, dec.global_i(dec.halo - 1), gj, 0));
      }
      if (width < dec.halo) {
        EXPECT_EQ(split(h - static_cast<std::size_t>(width) - 1, h, 0),
                  -999.0);
      }
    });
  }
}

// start/progress/finish must run in that order, once each.
TEST(Halo, SplitPhaseOutOfOrderThrows) {
  const ModelConfig cfg = small_ocean(1, 1, /*halo=*/2);
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, 0);
    Array3D<double> f = coded_field(cfg, dec);
    HaloExchange3 hx(comm, dec, f, 2);
    EXPECT_THROW(hx.progress(), std::logic_error);
    EXPECT_THROW(hx.finish(), std::logic_error);
    hx.start();
    EXPECT_THROW(hx.start(), std::logic_error);
    EXPECT_THROW(hx.finish(), std::logic_error);
    hx.progress();
    EXPECT_THROW(hx.progress(), std::logic_error);
    EXPECT_THROW(hx.start(), std::logic_error);
    hx.finish();
    EXPECT_THROW(hx.finish(), std::logic_error);
    EXPECT_THROW(hx.start(), std::logic_error);
    EXPECT_THROW(HaloExchange3(comm, dec, f, 3), std::invalid_argument);
  });
}

TEST(Halo, RejectsBadWidth) {
  const ModelConfig cfg = small_ocean(1, 1, /*halo=*/2);
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    const Decomp dec(cfg, 0);
    Array2D<double> f(static_cast<std::size_t>(dec.ext_x()),
                      static_cast<std::size_t>(dec.ext_y()), 0.0);
    EXPECT_THROW(exchange2d(comm, dec, f, 0), std::invalid_argument);
    EXPECT_THROW(exchange2d(comm, dec, f, 3), std::invalid_argument);
  });
}

}  // namespace
}  // namespace hyades::gcm
