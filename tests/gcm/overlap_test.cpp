// Compute/communication overlap in the PS (ModelConfig::overlap_comm).
//
// Two regression surfaces:
//   1. overlap_comm = off must reproduce the seed StepStats *exactly* --
//      the blocking exchange and global sum run the classic synchronous
//      schedules, and the interior/rim kernel split must not move a
//      single flop or microsecond.  Golden hexfloat values below were
//      captured from the pre-split tree on all four topography presets.
//   2. overlap_comm = on must leave the model state bitwise identical
//      (the refactor only re-orders *where* cells are computed, never
//      the per-cell arithmetic) while recovering exchange time.
#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "gcm/model.hpp"
#include "net/arctic_model.hpp"
#include "net/ethernet.hpp"

namespace hyades::gcm {
namespace {

struct RankStats {
  double tps = 0, exch = 0, tds = 0, ps = 0, ds = 0;
  int ni = 0;
};

struct GoldenCase {
  ModelConfig::Topography topo;
  double max_clock;
  RankStats rank[4];
};

// Captured from the seed (blocking-only) implementation: 2 SMPs x 2
// procs, ArcticModel, ocean 16x8x4, px=py=2, halo=2, dt=400,
// visc_h=1e6, diff_h=1e5, stats of the third step.
const GoldenCase kGolden[] = {
    {ModelConfig::Topography::kFlat,
     0x1.36f5a4c55a4c7p+13,
     {{0x1.8093294532974p+10, 0x1.3f91d7a91d8p+9, 0x1.60d55555555f8p+10,
       0x1.5f3cp+15, 0x1.d37p+13, 10},
      {0x1.8093294532974p+10, 0x1.3f91d7a91d8p+9, 0x1.60d55555555f8p+10,
       0x1.5f3cp+15, 0x1.d37p+13, 10},
      {0x1.85d3dc013dc2cp+10, 0x1.3679a3879a3d8p+9, 0x1.5b94a2994a34p+10,
       0x1.6e8cp+15, 0x1.d13p+13, 10},
      {0x1.85d3dc013dc2cp+10, 0x1.3679a3879a3d8p+9, 0x1.5b94a2994a34p+10,
       0x1.6e8cp+15, 0x1.d13p+13, 10}}},
    {ModelConfig::Topography::kRidge,
     0x1.82ff97bcf97adp+13,
     {{0x1.75a35fe235f7p+10, 0x1.3fa2e8ba2e7dp+9, 0x1.39e03b9403c2cp+11,
       0x1.4e18p+15, 0x1.78d8p+14, 19},
      {0x1.74613dc013d48p+10, 0x1.3f91d7a91d6cp+9, 0x1.3a814ca514d4p+11,
       0x1.4c2ep+15, 0x1.78f8p+14, 19},
      {0x1.7a625db625d4p+10, 0x1.36822c1022b2p+9, 0x1.3780bcaa0bd4p+11,
       0x1.5ca4p+15, 0x1.77c8p+14, 19},
      {0x1.79203b9403b2p+10, 0x1.36711aff11a1p+9, 0x1.3821cdbb1ce5p+11,
       0x1.5abap+15, 0x1.77e8p+14, 19}}},
    {ModelConfig::Topography::kContinents,
     0x1.7dbabacd6bab7p+13,
     {{0x1.4a3403b94034p+10, 0x1.4b7c8253c816p+9, 0x1.25e8c6980c728p+11,
       0x1.00f8p+15, 0x1.2064p+14, 18},
      {0x1.4e3470f34708p+10, 0x1.3f91d7a91d6cp+9, 0x1.23c6f6616f6fp+11,
       0x1.1088p+15, 0x1.35cp+14, 18},
      {0x1.4c61f07c1f01p+10, 0x1.422009ee0091p+9, 0x1.24d1d0369d0c4p+11,
       0x1.0bbp+15, 0x1.1fc4p+14, 18},
      {0x1.50e4129e4123p+10, 0x1.363de7cbde6fp+9, 0x1.226f258bf2618p+11,
       0x1.1c04p+15, 0x1.351p+14, 18}}},
    {ModelConfig::Topography::kBasin,
     0x1.5c7fed61bed6ap+13,
     {{0x1.4f2b7b30b7b5p+10, 0x1.3f91d7a91d7ep+9, 0x1.0ad138c913948p+11,
       0x1.120ap+15, 0x1.2d3p+14, 16},
      {0x1.544736ec73708p+10, 0x1.3fd61bed61c2p+9, 0x1.08435aeb35b6cp+11,
       0x1.19dp+15, 0x1.2cbp+14, 16},
      {0x1.52655a4c55a68p+10, 0x1.36578165781ap+9, 0x1.0934493b449bcp+11,
       0x1.1e4ap+15, 0x1.2c5p+14, 16},
      {0x1.578116081162p+10, 0x1.369bc5a9bc5ep+9, 0x1.06a66b5d66bdcp+11,
       0x1.261p+15, 0x1.2bdp+14, 16}}},
};

ModelConfig golden_cfg(ModelConfig::Topography topo, bool overlap) {
  ModelConfig cfg;
  cfg.isomorph = Isomorph::kOcean;
  cfg.nx = 16;
  cfg.ny = 8;
  cfg.nz = 4;
  cfg.px = 2;
  cfg.py = 2;
  cfg.halo = 2;
  cfg.dt = 400.0;
  cfg.visc_h = 1.0e6;
  cfg.diff_h = 1.0e5;
  cfg.topography = topo;
  cfg.overlap_comm = overlap;
  cfg.validate();
  return cfg;
}

TEST(OverlapOff, ReproducesSeedStepStatsExactly) {
  const net::ArcticModel net;
  for (const GoldenCase& gc : kGolden) {
    cluster::MachineConfig mc;
    mc.smp_count = 2;
    mc.procs_per_smp = 2;
    mc.interconnect = &net;
    cluster::Runtime rt(mc);
    const ModelConfig cfg = golden_cfg(gc.topo, false);
    std::mutex mu;
    rt.run([&](cluster::RankContext& ctx) {
      comm::Comm comm(ctx);
      Model m(cfg, comm);
      m.initialize();
      StepStats st{};
      for (int s = 0; s < 3; ++s) st = m.step();
      std::lock_guard<std::mutex> lock(mu);
      const RankStats& g = gc.rank[ctx.rank()];
      // EXPECT_EQ on doubles: the refactored blocking path must be
      // bit-identical to the seed, not merely close.
      EXPECT_EQ(st.tps_us, g.tps) << "rank " << ctx.rank();
      EXPECT_EQ(st.tps_exch_us, g.exch) << "rank " << ctx.rank();
      EXPECT_EQ(st.tds_us, g.tds) << "rank " << ctx.rank();
      EXPECT_EQ(st.ps_flops, g.ps) << "rank " << ctx.rank();
      EXPECT_EQ(st.ds_flops, g.ds) << "rank " << ctx.rank();
      EXPECT_EQ(st.cg_iterations, g.ni) << "rank " << ctx.rank();
      // Off mode never reports the overlap-only observables.
      EXPECT_EQ(st.tps_interior_us, 0.0);
      EXPECT_EQ(st.overlap_us, 0.0);
      EXPECT_EQ(ctx.accounting().overlap_us, 0.0);
    });
    EXPECT_EQ(rt.max_clock(), gc.max_clock);
  }
}

struct RunOut {
  StepStats st{};
  double max_clock = 0;
  std::vector<double> state;
};

void run_model(bool overlap, const net::Interconnect& net,
               std::array<RunOut, 4>& out) {
  cluster::MachineConfig mc;
  mc.smp_count = 2;
  mc.procs_per_smp = 2;
  mc.interconnect = &net;
  cluster::Runtime rt(mc);
  ModelConfig cfg = golden_cfg(ModelConfig::Topography::kRidge, overlap);
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.validate();
  std::mutex mu;
  rt.run([&](cluster::RankContext& ctx) {
    comm::Comm comm(ctx);
    Model m(cfg, comm);
    m.initialize();
    StepStats st{};
    for (int s = 0; s < 3; ++s) st = m.step();
    std::lock_guard<std::mutex> lock(mu);
    RunOut& o = out[static_cast<std::size_t>(ctx.rank())];
    o.st = st;
    o.max_clock = ctx.clock().now();
    const State& state = m.state();
    for (const Array3D<double>* f :
         {&state.u, &state.v, &state.w, &state.theta, &state.salt}) {
      const std::size_t n = f->nx() * f->ny() * f->nz();
      o.state.insert(o.state.end(), f->data(), f->data() + n);
    }
  });
}

// The interior/rim split changes only *when* cells are computed, never
// the arithmetic: all five state fields must be bitwise identical after
// three steps with overlap on vs off, on both interconnects.
TEST(Overlap, StateBitwiseIdenticalOnAndOff) {
  const net::ArcticModel arctic;
  const net::EthernetModel fe = net::fast_ethernet();
  const net::Interconnect* nets[] = {&arctic, &fe};
  for (const net::Interconnect* net : nets) {
    std::array<RunOut, 4> off, on;
    run_model(false, *net, off);
    run_model(true, *net, on);
    for (int r = 0; r < 4; ++r) {
      ASSERT_EQ(off[static_cast<std::size_t>(r)].state,
                on[static_cast<std::size_t>(r)].state)
          << "rank " << r;
      EXPECT_EQ(off[static_cast<std::size_t>(r)].st.cg_iterations,
                on[static_cast<std::size_t>(r)].st.cg_iterations);
    }
  }
}

// On Fast Ethernet -- exchange-dominated -- overlap must actually hide
// communication: overlap_us > 0, a shorter PS, and a shorter run.
TEST(Overlap, HidesExchangeTimeOnEthernet) {
  const net::EthernetModel fe = net::fast_ethernet();
  std::array<RunOut, 4> off, on;
  run_model(false, fe, off);
  run_model(true, fe, on);
  for (int r = 0; r < 4; ++r) {
    const RunOut& o = off[static_cast<std::size_t>(r)];
    const RunOut& n = on[static_cast<std::size_t>(r)];
    EXPECT_GT(n.st.overlap_us, 0.0) << "rank " << r;
    EXPECT_GT(n.st.tps_interior_us, 0.0) << "rank " << r;
    EXPECT_LT(n.st.tps_us, o.st.tps_us) << "rank " << r;
    EXPECT_LT(n.max_clock, o.max_clock) << "rank " << r;
    // overlap_us is credited per collective, so the five concurrent
    // exchanges may each count the same hidden wall-clock window; the
    // total is still bounded by five times the blocking PS.
    EXPECT_LT(n.st.overlap_us, 5.0 * o.st.tps_us);
  }
}

}  // namespace
}  // namespace hyades::gcm
