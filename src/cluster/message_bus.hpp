// Functional transport between ranks: real data moves through in-memory
// mailboxes; virtual-time semantics ride on the `stamp_us` field that the
// comm library computes from the interconnect model.
//
// Matching is by (source, tag) with FIFO order per pair, mirroring
// Arctic's FIFO guarantee for messages on the same path.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "cluster/fault.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"
#include "support/units.hpp"

namespace hyades::cluster {

struct Message {
  int src = -1;
  int tag = 0;
  std::vector<double> data;
  Microseconds stamp_us = 0;  // sender-computed arrival time

  // Reliability protocol metadata (comm/reliable.hpp).  A raw send
  // leaves the defaults: serial 0, attempt 0, no CRC error, no recovery
  // cost -- so the fault-free path is unchanged.
  std::uint64_t serial = 0;     // per (src -> dst) transfer sequence number
  int attempt = 0;              // 0 = first transmission
  bool crc_error = false;       // the endpoint's 1-bit CRC status
  Microseconds recovery_us = 0;  // stamp delay caused by retransmits
  Microseconds reroute_us = 0;   // stamp delay from a dead-link route-around

  // Arrival time the transfer would have had without faults; callers
  // attributing wait time use this so recovery and reroute cost land in
  // their own buckets, not in imbalance.
  [[nodiscard]] Microseconds clean_stamp() const {
    return stamp_us - recovery_us - reroute_us;
  }
};

// An error a rank raises only because some other rank stopped: it
// never names the root cause of a failed run, so Runtime::run surfaces
// it only when no rank raised anything else.
struct CollateralError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// A blocking receive found its queue empty after the sending rank's
// body had returned or thrown: no message can ever arrive.
struct PeerExited : CollateralError {
  PeerExited(int on_rank, int from_rank, int wait_tag);
  int rank, from, tag;
};

// One rank's blocking wait at the moment the bus went quiescent.
struct WaitEdge {
  int rank = -1;
  int from = -1;  // -1: the rank waits in its SMP barrier
  int tag = 0;
};

// Every live rank was waiting -- in a receive or in its SMP barrier --
// so no send could ever happen.  `edges` lists each waiter's wait-for
// edge sorted by rank, so the error never depends on thread order.
struct DeadlockError : CollateralError {
  explicit DeadlockError(std::vector<WaitEdge> wait_edges);
  std::vector<WaitEdge> edges;
};

class MessageBus {
 public:
  explicit MessageBus(int nranks);

  void send(int to, Message m);

  // Block until a message from (from, tag) is available for `me`.  The
  // wait has no real-time limit; it ends on one of four events:
  //   * a message arrives on the (from, tag) queue -- returned;
  //   * the bus is poisoned -- throws NodeDownError;
  //   * `from` has exited (mark_exited) and its queue is empty -- throws
  //     PeerExited;
  //   * every live rank is waiting (quiescence) -- throws DeadlockError.
  Message recv(int me, int from, int tag);

  // The same wait, but peer exit and quiescence are returned as the
  // error recv() would throw, so a caller holding a fault plan can ask
  // it whether a scheduled kill explains the silence first.  With
  // `wake_on_exit` false an exited peer does not end the wait (the
  // caller already asked about it); only a message, poison or
  // quiescence does.
  using Waited = std::variant<Message, PeerExited, DeadlockError>;
  Waited wait(int me, int from, int tag, bool wake_on_exit);

  // Non-blocking probe (for tests).
  [[nodiscard]] bool poll(int me, int from, int tag);

  // ---- NodeDown poison -------------------------------------------------
  // Declaring a verdict poisons the bus: every subsequent send, recv or
  // wait on any rank throws NodeDownError carrying the verdict, and
  // ranks blocked in recv or wait wake immediately.  That turns one rank's
  // detection into a prompt collective abort of the epoch without any
  // real-time timeouts.  First verdict wins; later declarations are
  // ignored (every survivor derives the identical plan-pure verdict
  // anyway).
  void declare_down(const NodeDownVerdict& verdict);
  [[nodiscard]] bool down() const {
    return down_.load(std::memory_order_acquire);
  }
  [[nodiscard]] NodeDownVerdict down_verdict() const;
  // Clear the poison before relaunching the next epoch.  Queued mail
  // from the aborted epoch is left in place: the epoch number woven
  // into message tags (RankContext) makes it unmatchable dead letters.
  void reset_down();

  // ---- liveness ----------------------------------------------------------
  // Runtime::run brackets every rank body: begin_run() marks all ranks
  // live and clears quiescence; mark_exited(r) records that rank r's
  // body returned or threw, waking receivers waiting on r.
  void begin_run();
  void mark_exited(int rank);
  // A wait outside the bus (the SMP barrier) counts toward quiescence.
  // park() is called by the waiter, unpark() by whoever releases it --
  // never by the waiter itself -- so a released rank is not counted as
  // waiting while it is still waking up.
  void park(int rank);
  void unpark(int rank);

 private:
  struct Mailbox {
    support::Mutex mu;
    support::CondVar cv;
    std::map<std::pair<int, int>, std::deque<Message>> queues GUARDED_BY(mu);
    // The (from, tag) key its rank is parked on, if any.  Lets send()
    // skip the park lock unless it may be releasing the receiver.
    std::optional<std::pair<int, int>> parked_on GUARDED_BY(mu);
  };
  struct Waiter {
    bool parked = false;
    int from = -1;  // -1: parked in an SMP barrier
    int tag = 0;
    bool wake_on_exit = false;
  };

  void park_locked(int rank, const Waiter& w) REQUIRES(park_mu_);
  void unpark_locked(int rank) REQUIRES(park_mu_);
  // Quiescence check after a park or an exit: if every live rank is
  // parked, record the wait-for edges and release every bus waiter.
  // Returns true when it fired; the caller then calls wake_all() once
  // it holds no mailbox lock.
  bool check_quiescent_locked() REQUIRES(park_mu_);
  bool parked(int rank) const;
  void wake(int rank);
  void wake_all();

  std::vector<std::unique_ptr<Mailbox>> boxes_;
  std::atomic<bool> down_{false};
  mutable support::Mutex verdict_mu_;
  NodeDownVerdict verdict_ GUARDED_BY(verdict_mu_);

  // Lock order: an SMP barrier's mutex, then one mailbox's mu, then
  // park_mu_.  No thread holds two mailbox locks at once: a wait that
  // detects quiescence releases its own before wake_all().
  mutable support::Mutex park_mu_;
  std::vector<Waiter> waiters_ GUARDED_BY(park_mu_);
  std::vector<char> exited_ GUARDED_BY(park_mu_);
  int live_ GUARDED_BY(park_mu_) = 0;
  int parked_ GUARDED_BY(park_mu_) = 0;
  bool quiescent_ GUARDED_BY(park_mu_) = false;
  std::vector<WaitEdge> deadlock_edges_ GUARDED_BY(park_mu_);
};

}  // namespace hyades::cluster
