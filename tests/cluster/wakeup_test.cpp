// Event-driven blocking receive: a blocked rank wakes on a message, bus
// poison, its peer's exit or quiescence -- never on a host-clock
// timeout -- and Runtime::run surfaces the root cause, not a peer's
// collateral error.  Every case here finishes in milliseconds; the
// `wakeup_suite` ctest entry runs them under a 10 s timeout, so a
// real-time wait creeping back into the transport fails CI.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/fault.hpp"
#include "cluster/runtime.hpp"
#include "comm/reliable.hpp"
#include "net/arctic_model.hpp"

namespace hyades::cluster {
namespace {

MachineConfig machine(const net::Interconnect& net, int smps, int ppp,
                      const FaultPlan* plan = nullptr) {
  MachineConfig cfg;
  cfg.smp_count = smps;
  cfg.procs_per_smp = ppp;
  cfg.interconnect = &net;
  cfg.faults = plan;
  return cfg;
}

// Rank k throws while every other rank blocks on it: off-SMP ranks in a
// receive from k (PeerExited), k's SMP sibling in the SMP barrier
// (BarrierAborted).  The root cause must surface at every rank index,
// including when collateral errors land on lower ranks.
TEST(Wakeup, RootCauseWinsAtEveryRankIndex) {
  const net::ArcticModel net;
  for (const int ppp : {1, 2}) {
    for (int k = 0; k < 4; ++k) {
      Runtime rt(machine(net, 4 / ppp, ppp));
      EXPECT_THROW(rt.run([&](RankContext& ctx) {
                     if (ctx.rank() == k) {
                       throw std::logic_error("root cause on rank " +
                                              std::to_string(k));
                     }
                     if (ctx.smp() == ctx.smp_of(k)) {
                       ctx.smp_sync();
                     } else {
                       (void)ctx.recv_raw(k, 1);
                     }
                   }),
                   std::logic_error)
          << "ppp " << ppp << " k " << k;
    }
  }
}

// Rank 0 waits on rank 1 and rank 1 on rank 0: every live rank is
// waiting, so each throws DeadlockError at once naming both edges,
// sorted by rank.
void expect_two_rank_deadlock(const FaultPlan* plan) {
  const net::ArcticModel net;
  // Repeat: the error text must not depend on which rank parks last.
  for (int trial = 0; trial < 10; ++trial) {
    Runtime rt(machine(net, 2, 1, plan));
    try {
      rt.run([&](RankContext& ctx) {
        const int peer = 1 - ctx.rank();
        const int tag = 5 + ctx.rank();
        if (plan == nullptr) {
          (void)ctx.recv_raw(peer, tag);
        } else {
          comm::Reliable rel(ctx);
          (void)rel.recv(peer, tag);
        }
      });
      FAIL() << "expected DeadlockError";
    } catch (const DeadlockError& e) {
      ASSERT_EQ(e.edges.size(), 2u);
      EXPECT_EQ(e.edges[0].rank, 0);
      EXPECT_EQ(e.edges[0].from, 1);
      EXPECT_EQ(e.edges[0].tag, 5);
      EXPECT_EQ(e.edges[1].rank, 1);
      EXPECT_EQ(e.edges[1].from, 0);
      EXPECT_EQ(e.edges[1].tag, 6);
      EXPECT_STREQ(e.what(),
                   "deadlock: every live rank is waiting (rank 0 <- rank 1 "
                   "tag 5, rank 1 <- rank 0 tag 6)");
    }
  }
}

TEST(Wakeup, TwoRankReceiveCycleIsADeadlock) {
  expect_two_rank_deadlock(nullptr);
}

TEST(Wakeup, TwoRankReceiveCycleIsADeadlockUnderArmedPlan) {
  // The plan's only kill lies far past the run, so no kill explains
  // the silence and the fault-mode receive reports the deadlock too.
  FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/1, /*at_us=*/1e15, /*epoch=*/0});
  expect_two_rank_deadlock(&plan);
}

// A live but permanently blocked peer on a doomed board: rank 0 waits
// on rank 2, whose board is scheduled to die but which is itself alive
// and blocked (waiting on rank 0, before its kill time); both SMP
// siblings wait in their barriers.  Nobody exits, nobody sends -- at
// quiescence rank 0 asks the plan once more and escalates to the
// plan-pure verdict.
TEST(Wakeup, QuiescenceEscalatesLiveBlockedPeerOnDoomedBoard) {
  const net::ArcticModel net;
  FaultPlan plan;
  plan.node_kills.push_back({/*rank=*/2, /*at_us=*/100.0, /*epoch=*/0});
  Runtime rt(machine(net, 2, 2, &plan));
  try {
    rt.run([&](RankContext& ctx) {
      comm::Reliable rel(ctx);
      switch (ctx.rank()) {
        case 0:
          (void)rel.recv(2, 7);
          break;
        case 2:
          (void)rel.recv(0, 8);
          break;
        default:
          ctx.smp_sync();
          break;
      }
    });
    FAIL() << "expected NodeDownError";
  } catch (const NodeDownError& e) {
    EXPECT_EQ(e.verdict.rank, 2);
    EXPECT_EQ(e.verdict.epoch, 0);
    EXPECT_DOUBLE_EQ(e.verdict.detected_us,
                     100.0 + plan.heartbeat_deadline_us);
  }
}

}  // namespace
}  // namespace hyades::cluster
