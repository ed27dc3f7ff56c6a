#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "net/arctic_model.hpp"
#include "support/stats.hpp"

namespace hyades::comm {
namespace {

using cluster::MachineConfig;
using cluster::RankContext;
using cluster::Runtime;

MachineConfig machine(const net::Interconnect& net, int smps, int ppp) {
  MachineConfig cfg;
  cfg.smp_count = smps;
  cfg.procs_per_smp = ppp;
  cfg.interconnect = &net;
  return cfg;
}

TEST(GlobalSum, CorrectAcrossShapes) {
  const net::ArcticModel net;
  for (auto [smps, ppp] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 2}, {2, 1}, {4, 2}, {8, 2}, {16, 1}}) {
    Runtime rt(machine(net, smps, ppp));
    const double expected = smps * ppp * (smps * ppp + 1) / 2.0;
    rt.run([&](RankContext& ctx) {
      Comm comm(ctx);
      const double s = comm.global_sum(ctx.rank() + 1.0);
      EXPECT_DOUBLE_EQ(s, expected) << "shape " << smps << "x" << ppp;
    });
  }
}

TEST(GlobalSum, BitwiseIdenticalEverywhere) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 8, 2));
  std::mutex mu;
  std::vector<double> results;
  rt.run([&](RankContext& ctx) {
    Comm comm(ctx);
    // Values chosen so different addition orders would differ in the last
    // bits if the implementation were order-dependent per rank.
    const double mine = 1.0 + 1e-15 * ctx.rank() * 3.7;
    const double s = comm.global_sum(mine);
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(s);
  });
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]);  // exact bitwise equality
  }
}

TEST(GlobalSum, VectorVariant) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 4, 2));
  rt.run([&](RankContext& ctx) {
    Comm comm(ctx);
    std::vector<double> v{1.0, static_cast<double>(ctx.rank())};
    comm.global_sum(v);
    EXPECT_DOUBLE_EQ(v[0], 8.0);
    EXPECT_DOUBLE_EQ(v[1], 28.0);
  });
}

TEST(GlobalMax, Correct) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 4, 2));
  rt.run([&](RankContext& ctx) {
    Comm comm(ctx);
    EXPECT_DOUBLE_EQ(comm.global_max(static_cast<double>(ctx.rank() % 5)),
                     4.0);
    EXPECT_DOUBLE_EQ(comm.global_max(-1.0 - ctx.rank()), -1.0);
  });
}

// Section 4.2: "measured latencies for 2-way, 4-way, 8-way and 16-way
// global sums are 4.0, 8.3, 12.8 and 18.2 usec".
TEST(GlobalSum, SingleProcessorLatenciesMatchPaper) {
  const net::ArcticModel net;
  const double paper[] = {4.0, 8.3, 12.8, 18.2};
  for (int i = 0; i < 4; ++i) {
    const int nodes = 2 << i;
    Runtime rt(machine(net, nodes, 1));
    rt.run([&](RankContext& ctx) {
      Comm comm(ctx);
      (void)comm.global_sum(1.0);
    });
    EXPECT_LT(relative_error(rt.max_clock(), paper[i]), 0.10)
        << nodes << "-way measured-analog " << rt.max_clock();
  }
}

// Section 4.2: "on our two-way SMPs, the measured latencies for 2x2-way,
// 2x4-way, 2x8-way and 2x16-way global sums are 4.8, 9.1, 13.5, 19.5".
TEST(GlobalSum, MixModeLatenciesMatchPaper) {
  const net::ArcticModel net;
  const double paper[] = {4.8, 9.1, 13.5, 19.5};
  for (int i = 0; i < 4; ++i) {
    const int smps = 2 << i;
    Runtime rt(machine(net, smps, 2));
    rt.run([&](RankContext& ctx) {
      Comm comm(ctx);
      (void)comm.global_sum(1.0);
    });
    EXPECT_LT(relative_error(rt.max_clock(), paper[i]), 0.10)
        << "2x" << smps << "-way measured-analog " << rt.max_clock();
  }
}

TEST(GlobalSum, LeastSquaresFitNearPaper) {
  // tgsum = 4.67 * log2(N) - 0.95 (Section 4.2).
  const net::ArcticModel net;
  std::vector<double> xs, ys;
  for (int i = 0; i < 4; ++i) {
    const int nodes = 2 << i;
    Runtime rt(machine(net, nodes, 1));
    rt.run([&](RankContext& ctx) {
      Comm comm(ctx);
      (void)comm.global_sum(1.0);
    });
    xs.push_back(i + 1.0);
    ys.push_back(rt.max_clock());
  }
  const LinearFit fit = least_squares(xs, ys);
  EXPECT_LT(relative_error(fit.slope, 4.67), 0.10);
  EXPECT_GT(fit.r2, 0.98);
}

TEST(GlobalSum, TimingDeterministic) {
  const net::ArcticModel net;
  auto run_once = [&] {
    Runtime rt(machine(net, 8, 2));
    rt.run([&](RankContext& ctx) {
      Comm comm(ctx);
      for (int i = 0; i < 5; ++i) (void)comm.global_sum(1.0);
    });
    return rt.final_clocks();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(GlobalSum, SubGroupCommunicators) {
  // Coupled-run layout: two groups of 4 SMPs each sum independently.
  const net::ArcticModel net;
  Runtime rt(machine(net, 8, 2));
  rt.run([&](RankContext& ctx) {
    const int half = ctx.nranks() / 2;
    const int base = ctx.rank() < half ? 0 : half;
    Comm comm(ctx, base, half);
    EXPECT_EQ(comm.group_size(), half);
    const double s = comm.global_sum(1.0);
    EXPECT_DOUBLE_EQ(s, half);
  });
}

TEST(GlobalSum, GroupMustBeAligned) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 4, 2));
  EXPECT_THROW(rt.run([](RankContext& ctx) { Comm comm(ctx, 1, 4); }),
               std::invalid_argument);
  EXPECT_THROW(rt.run([](RankContext& ctx) { Comm comm(ctx, 0, 6); }),
               std::invalid_argument);
}

TEST(Barrier, CompletesAndCostsLikeGsum) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 8, 2));
  rt.run([&](RankContext& ctx) {
    Comm comm(ctx);
    comm.barrier();
  });
  // A 16-processor barrier ~ its global sum: well under the >50 us the
  // paper reports for the HPVM equivalent (Section 6).
  EXPECT_LT(rt.max_clock(), 20.0);
  EXPECT_GT(rt.max_clock(), 10.0);
}

// Barrier, global sum and global max run one reduction schedule (SMP
// combine, fold, butterfly, fold-back, distribution) and cost the same.
// Their completion clocks are pinned bit for bit on a power-of-two
// machine and on two fold shapes, from aligned clocks and from skewed
// ones (skew exercises the partner-wait path); `last`/`first` are the
// latest and earliest final rank clocks.
TEST(ReductionSchedule, CompletionClocksPinned) {
  const net::ArcticModel net;
  struct Pin {
    int smps, ppp;
    Microseconds aligned, skewed_last, skewed_first;
  };
  const Pin pins[] = {
      {8, 2, 0x1.b570a3d70a3d7p+3, 0x1.fc7ae147ae147p+3, 0x1.fc7ae147ae147p+3},
      {6, 1, 0x1.22e147ae147aep+4, 0x1.4666666666666p+4, 0x1.ec7ae147ae147p+3},
      {3, 2, 0x1.97ae147ae147bp+3, 0x1.deb851eb851ebp+3, 0x1.5c28f5c28f5c2p+3},
  };
  const char* const names[] = {"barrier", "global_sum", "global_max"};
  for (const Pin& pin : pins) {
    for (int op = 0; op < 3; ++op) {
      for (const bool skew : {false, true}) {
        Runtime rt(machine(net, pin.smps, pin.ppp));
        rt.run([&](RankContext& ctx) {
          Comm comm(ctx);
          if (skew) ctx.clock().advance(0.37 * ((ctx.rank() * 5) % 7));
          if (op == 0) comm.barrier();
          if (op == 1) (void)comm.global_sum(ctx.rank() + 1.0);
          if (op == 2) (void)comm.global_max(ctx.rank() + 1.0);
        });
        const std::vector<Microseconds>& fc = rt.final_clocks();
        const std::string where = std::string(names[op]) + " on " +
                                  std::to_string(pin.smps) + "x" +
                                  std::to_string(pin.ppp) +
                                  (skew ? " skewed" : " aligned");
        if (skew) {
          EXPECT_EQ(*std::max_element(fc.begin(), fc.end()), pin.skewed_last)
              << where;
          EXPECT_EQ(*std::min_element(fc.begin(), fc.end()), pin.skewed_first)
              << where;
        } else {
          EXPECT_EQ(rt.max_clock(), pin.aligned) << where;
        }
      }
    }
  }
}

// Figure 8: the butterfly's per-round partial sums.  Reconstructed here
// at the runtime level (8 nodes, values d_i = 10^i) so the communication
// pattern itself is validated, not just the final sum.
TEST(Butterfly, Figure8PartialSums) {
  const net::ArcticModel net;
  Runtime rt(machine(net, 8, 1));
  rt.run([&](RankContext& ctx) {
    double v = std::pow(10.0, ctx.rank());
    for (int round = 0; round < 3; ++round) {
      const int partner = ctx.rank() ^ (1 << round);
      ctx.send_raw(partner, 500 + round, {v}, ctx.clock().now());
      v += ctx.recv_raw(partner, 500 + round).data[0];
      // After round i, every node holds the sum over the group of nodes
      // whose ids differ only in the lowest i+1 bits (Figure 8).
      const int group = ctx.rank() & ~((2 << round) - 1);
      double expected = 0;
      for (int n = group; n < group + (2 << round); ++n) {
        expected += std::pow(10.0, n);
      }
      EXPECT_DOUBLE_EQ(v, expected)
          << "rank " << ctx.rank() << " round " << round;
    }
  });
}

}  // namespace
}  // namespace hyades::comm
