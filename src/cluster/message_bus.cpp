#include "cluster/message_bus.hpp"

#include <stdexcept>

namespace hyades::cluster {

namespace {
std::string describe_deadlock(const std::vector<WaitEdge>& edges) {
  std::string s = "deadlock: every live rank is waiting (";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const WaitEdge& e = edges[i];
    if (i > 0) s += ", ";
    s += "rank " + std::to_string(e.rank) + " <- ";
    s += e.from < 0 ? std::string("SMP barrier")
                    : "rank " + std::to_string(e.from) + " tag " +
                          std::to_string(e.tag);
  }
  return s + ")";
}
}  // namespace

PeerExited::PeerExited(int on_rank, int from_rank, int wait_tag)
    : CollateralError("MessageBus::recv: rank " + std::to_string(on_rank) +
                      " waits on rank " + std::to_string(from_rank) +
                      " tag " + std::to_string(wait_tag) +
                      ", which exited with nothing queued"),
      rank(on_rank), from(from_rank), tag(wait_tag) {}

DeadlockError::DeadlockError(std::vector<WaitEdge> wait_edges)
    : CollateralError(describe_deadlock(wait_edges)),
      edges(std::move(wait_edges)) {}

MessageBus::MessageBus(int nranks) {
  if (nranks < 1) throw std::invalid_argument("MessageBus: nranks < 1");
  boxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>());
  }
  begin_run();
}

void MessageBus::send(int to, Message m) {
  if (down()) throw NodeDownError(down_verdict());
  Mailbox& box = *boxes_.at(static_cast<std::size_t>(to));
  bool released = false;
  {
    support::MutexLock lock(box.mu);
    const std::pair<int, int> key{m.src, m.tag};
    box.queues[key].push_back(std::move(m));
    if (box.parked_on == key) {
      support::MutexLock p(park_mu_);
      if (waiters_[static_cast<std::size_t>(to)].parked) {
        unpark_locked(to);
        released = true;
      }
    }
  }
  if (released) box.cv.notify_all();
}

Message MessageBus::recv(int me, int from, int tag) {
  Waited got = wait(me, from, tag, /*wake_on_exit=*/true);
  if (auto* m = std::get_if<Message>(&got)) return std::move(*m);
  if (auto* gone = std::get_if<PeerExited>(&got)) throw std::move(*gone);
  throw std::get<DeadlockError>(std::move(got));
}

MessageBus::Waited MessageBus::wait(int me, int from, int tag,
                                    bool wake_on_exit) {
  Mailbox& box = *boxes_.at(static_cast<std::size_t>(me));
  std::optional<DeadlockError> quiesced;  // this wait made the bus quiescent
  {
    support::MutexLock lock(box.mu);
    auto& q = box.queues[{from, tag}];
    for (;;) {
      if (down()) throw NodeDownError(down_verdict());
      if (!q.empty()) {
        Message m = std::move(q.front());
        q.pop_front();
        return Waited(std::move(m));
      }
      {
        support::MutexLock p(park_mu_);
        if (quiescent_) return Waited(DeadlockError(deadlock_edges_));
        if (wake_on_exit && exited_[static_cast<std::size_t>(from)] != 0) {
          return Waited(PeerExited(me, from, tag));
        }
        park_locked(me, Waiter{true, from, tag, wake_on_exit});
        if (check_quiescent_locked()) quiesced.emplace(deadlock_edges_);
      }
      if (quiesced) break;
      // Every wake event unparks this rank under park_mu_ (a sender, an
      // exiting peer, quiescence) or poisons the bus, then takes this
      // mailbox's lock before notifying, so no wake-up is lost.
      box.parked_on = std::pair<int, int>{from, tag};
      box.cv.wait(box.mu, [&] {
        box.mu.assert_held();
        return !parked(me) || down();
      });
      box.parked_on.reset();
      support::MutexLock p(park_mu_);
      if (waiters_[static_cast<std::size_t>(me)].parked) unpark_locked(me);
    }
  }
  wake_all();  // outside the mailbox lock
  return Waited(std::move(*quiesced));
}

void MessageBus::declare_down(const NodeDownVerdict& verdict) {
  {
    support::MutexLock lock(verdict_mu_);
    if (down_.load(std::memory_order_relaxed)) return;  // first verdict wins
    verdict_ = verdict;
    down_.store(true, std::memory_order_release);
  }
  // Wake every rank blocked in recv so the abort is prompt.
  wake_all();
}

NodeDownVerdict MessageBus::down_verdict() const {
  support::MutexLock lock(verdict_mu_);
  return verdict_;
}

void MessageBus::reset_down() {
  support::MutexLock lock(verdict_mu_);
  verdict_ = NodeDownVerdict{};
  down_.store(false, std::memory_order_release);
}

bool MessageBus::poll(int me, int from, int tag) {
  Mailbox& box = *boxes_.at(static_cast<std::size_t>(me));
  support::MutexLock lock(box.mu);
  auto it = box.queues.find({from, tag});
  return it != box.queues.end() && !it->second.empty();
}

void MessageBus::begin_run() {
  support::MutexLock p(park_mu_);
  waiters_.assign(boxes_.size(), Waiter{});
  exited_.assign(boxes_.size(), 0);
  live_ = static_cast<int>(boxes_.size());
  parked_ = 0;
  quiescent_ = false;
  deadlock_edges_.clear();
}

void MessageBus::mark_exited(int rank) {
  std::vector<int> released;
  bool quiesced = false;
  {
    support::MutexLock p(park_mu_);
    exited_.at(static_cast<std::size_t>(rank)) = 1;
    --live_;
    for (int r = 0; r < static_cast<int>(waiters_.size()); ++r) {
      const Waiter& w = waiters_[static_cast<std::size_t>(r)];
      if (w.parked && w.wake_on_exit && w.from == rank) {
        unpark_locked(r);
        released.push_back(r);
      }
    }
    quiesced = check_quiescent_locked();
  }
  if (quiesced) {
    wake_all();
    return;
  }
  for (int r : released) wake(r);
}

void MessageBus::park(int rank) {
  bool quiesced = false;
  {
    support::MutexLock p(park_mu_);
    park_locked(rank, Waiter{true, -1, 0, false});
    quiesced = check_quiescent_locked();
  }
  if (quiesced) wake_all();
}

void MessageBus::unpark(int rank) {
  support::MutexLock p(park_mu_);
  if (waiters_.at(static_cast<std::size_t>(rank)).parked) unpark_locked(rank);
}

void MessageBus::park_locked(int rank, const Waiter& w) {
  waiters_.at(static_cast<std::size_t>(rank)) = w;
  ++parked_;
}

void MessageBus::unpark_locked(int rank) {
  waiters_[static_cast<std::size_t>(rank)].parked = false;
  --parked_;
}

bool MessageBus::check_quiescent_locked() {
  if (quiescent_ || parked_ == 0 || parked_ != live_) return false;
  quiescent_ = true;
  deadlock_edges_.clear();
  for (int r = 0; r < static_cast<int>(waiters_.size()); ++r) {
    const Waiter& w = waiters_[static_cast<std::size_t>(r)];
    if (!w.parked) continue;
    deadlock_edges_.push_back(WaitEdge{r, w.from, w.tag});
    // Barrier waiters stay parked: a bus waiter's unwind aborts their
    // barrier when its rank exits.
    if (w.from >= 0) unpark_locked(r);
  }
  return true;
}

bool MessageBus::parked(int rank) const {
  support::MutexLock p(park_mu_);
  return waiters_[static_cast<std::size_t>(rank)].parked;
}

void MessageBus::wake(int rank) {
  Mailbox& box = *boxes_[static_cast<std::size_t>(rank)];
  // Taking the lock orders this wake after a waiter's predicate check.
  { support::MutexLock lock(box.mu); }
  box.cv.notify_all();
}

void MessageBus::wake_all() {
  for (int r = 0; r < static_cast<int>(boxes_.size()); ++r) wake(r);
}

}  // namespace hyades::cluster
