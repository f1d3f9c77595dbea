// Clang thread-safety annotation macros (absl style, STELLAR_ prefix).
//
// These annotate the locking contract of shared state so clang's
// -Wthread-safety analysis checks it at compile time; the repo's clang CI
// gate (tools/ci_checks.sh) promotes the whole diagnostic group to an
// error. On compilers without the attribute (gcc builds in this container)
// every macro expands to nothing, so annotations are free to apply
// everywhere.
//
// Each simulation runs on one thread; run-level sharding
// (core/run_shard.h) runs whole simulations on concurrent workers. The
// annotations document which state those threads may share and under which
// capability, so the locking discipline is machine-checked rather than
// debugged after a flaky soak.
// docs/STATIC_ANALYSIS.md covers the conventions; src/common/mutex.h has
// the annotated Mutex / MutexLock / SingleOwner capability types.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#define STELLAR_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define STELLAR_THREAD_ANNOTATION(x)
#endif

/// Class attribute: instances are capabilities (lockable / ownable).
#define STELLAR_CAPABILITY(name) \
  STELLAR_THREAD_ANNOTATION(capability(name))

/// Class attribute: RAII object that acquires a capability in its
/// constructor and releases it in its destructor.
#define STELLAR_SCOPED_CAPABILITY \
  STELLAR_THREAD_ANNOTATION(scoped_lockable)

/// Data member attribute: access requires holding `x`.
#define STELLAR_GUARDED_BY(x) STELLAR_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member attribute: the *pointee* is guarded by `x`.
#define STELLAR_PT_GUARDED_BY(x) STELLAR_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function attribute: caller must hold the capability (exclusively).
#define STELLAR_REQUIRES(...) \
  STELLAR_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function attribute: caller must hold the capability (shared).
#define STELLAR_REQUIRES_SHARED(...) \
  STELLAR_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function attribute: acquires the capability (exclusively).
#define STELLAR_ACQUIRE(...) \
  STELLAR_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function attribute: acquires the capability (shared).
#define STELLAR_ACQUIRE_SHARED(...) \
  STELLAR_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function attribute: releases the capability.
#define STELLAR_RELEASE(...) \
  STELLAR_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attribute: releases a shared hold of the capability.
#define STELLAR_RELEASE_SHARED(...) \
  STELLAR_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Function attribute: acquires the capability iff the return value is
/// `b` (e.g. try_lock).
#define STELLAR_TRY_ACQUIRE(b, ...) \
  STELLAR_THREAD_ANNOTATION(try_acquire_capability(b, __VA_ARGS__))

/// Function attribute: caller must NOT hold the capability (deadlock guard).
#define STELLAR_EXCLUDES(...) \
  STELLAR_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function attribute: the analysis treats the capability as held after the
/// call returns (runtime-checked assertion points, e.g.
/// SingleOwner::assert_held).
#define STELLAR_ASSERT_CAPABILITY(...) \
  STELLAR_THREAD_ANNOTATION(assert_capability(__VA_ARGS__))

/// Function attribute: returns a reference to the named capability.
#define STELLAR_RETURN_CAPABILITY(x) \
  STELLAR_THREAD_ANNOTATION(lock_returned(x))

/// Function attribute: opt this function out of the analysis (rare; justify
/// at the use site).
#define STELLAR_NO_THREAD_SAFETY_ANALYSIS \
  STELLAR_THREAD_ANNOTATION(no_thread_safety_analysis)
