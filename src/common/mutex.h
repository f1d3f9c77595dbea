// Annotated synchronization primitives for state that worker threads may
// share (run-level sharding, core/run_shard.h, runs whole simulations on
// concurrent workers).
//
//  * Mutex / MutexLock — std::mutex wrapped with the clang thread-safety
//    capability annotations, so `STELLAR_GUARDED_BY(mu_)` members are
//    machine-checked on clang builds. Used today by the obs layer
//    (MetricsRegistry / Tracer), whose counters may be driven from worker
//    threads in the threaded TSan smoke.
//
//  * SingleOwner — a *virtual* capability for state that is deliberately
//    NOT locked: the one thread driving a simulation owns it outright.
//    `assert_held()` tells the static analysis the capability is held,
//    and in audit builds additionally enforces the discipline at runtime:
//    the first thread to touch the object claims it, and any access from
//    another thread aborts with a diagnostic. This is how the
//    Simulator, AuditRegistry, FaultInjector and FaultTelemetry document
//    "shard-local, no locks" in a way TSan and -Wthread-safety can check.
//
// This header sits in src/common and must not depend on src/check, so the
// runtime tripwire reports via fprintf+abort rather than STELLAR_CHECK.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/thread_annotations.h"

#ifndef STELLAR_AUDIT_ENABLED
#define STELLAR_AUDIT_ENABLED 0
#endif

namespace stellar {

/// std::mutex with capability annotations. Non-reentrant.
class STELLAR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() STELLAR_ACQUIRE() { mu_.lock(); }
  void unlock() STELLAR_RELEASE() { mu_.unlock(); }
  bool try_lock() STELLAR_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock for Mutex (the only way hot paths should take one).
class STELLAR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) STELLAR_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() STELLAR_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Virtual capability: exactly one thread may touch the guarded state,
/// and it never blocks — there is no lock to take. Annotate members with
/// STELLAR_GUARDED_BY(owner_), private helpers with
/// STELLAR_REQUIRES(owner_), and open every public entry point with
/// owner_.assert_held().
///
/// Audit builds enforce the claim at runtime (first toucher owns; a second
/// thread aborts). Release builds compile assert_held() to nothing.
class STELLAR_CAPABILITY("single-owner") SingleOwner {
 public:
  SingleOwner() = default;
  SingleOwner(const SingleOwner&) = delete;
  SingleOwner& operator=(const SingleOwner&) = delete;

  void assert_held() const STELLAR_ASSERT_CAPABILITY() {
#if STELLAR_AUDIT_ENABLED
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id owner = owner_.load(std::memory_order_relaxed);
    if (owner == std::thread::id{}) {
      // First access claims ownership; CAS so two racing claimants cannot
      // both win (the loser trips the check below).
      if (owner_.compare_exchange_strong(owner, self,
                                         std::memory_order_acq_rel)) {
        return;
      }
    }
    if (owner != self &&
        owner_.load(std::memory_order_acquire) != self) {
      std::fprintf(stderr,
                   "stellar: SingleOwner violation — state owned by one "
                   "thread was accessed from another (single-owner state "
                   "never moves between threads).\n");
      std::abort();
    }
#endif
  }

 private:
#if STELLAR_AUDIT_ENABLED
  mutable std::atomic<std::thread::id> owner_{};
#endif
};

}  // namespace stellar
