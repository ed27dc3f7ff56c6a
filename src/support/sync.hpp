// Annotated synchronization primitives for the cluster runtime.
//
// Thin wrappers over std::mutex / std::condition_variable_any that carry
// the Clang thread-safety capability attributes (support/
// thread_annotations.hpp).  libstdc++'s own types are un-annotated, so
// guarding a field with a raw std::mutex is invisible to
// `-Wthread-safety`; guarding it with support::Mutex lets a Clang build
// reject any access that does not provably hold the lock.
//
// Zero-overhead by construction: every method is an inline forward to
// the std primitive, and the attributes vanish on non-Clang compilers.
#pragma once

#include <condition_variable>
#include <mutex>

#include "support/thread_annotations.hpp"

namespace hyades::support {

// A standard exclusive mutex, annotated as a capability.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // Declare (to the analysis) that this thread holds the mutex.  Only
  // for contexts that provably run under the lock but that the analysis
  // cannot see into -- e.g. the first line of a CondVar predicate.
  void assert_held() const ASSERT_CAPABILITY() {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII guard (the annotated equivalent of std::lock_guard).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable that waits directly on a support::Mutex.
//
// Built on condition_variable_any (which accepts any BasicLockable), so
// callers keep the annotated mutex type through the wait and the
// analysis sees the REQUIRES contract: the mutex must be held to call
// wait*(), and is held again when it returns.  The transient
// unlock/relock inside std::condition_variable_any is invisible to the
// analysis, which is exactly the fiction thread-safety analysis expects
// of a condition wait (same treatment as Abseil's CondVar).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  template <typename Predicate>
  void wait(Mutex& mu, Predicate pred) REQUIRES(mu) {
    cv_.wait(mu, pred);
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace hyades::support
