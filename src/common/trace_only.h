// STELLAR_TRACE_ONLY(...): code that exists only in traced builds.
//
// -DSTELLAR_TRACE=OFF (the bench preset and perf/'s timed build) defines
// STELLAR_TRACE_ENABLED=0, and every statement or member wrapped in this
// macro disappears from the build, mirroring STELLAR_AUDIT. The obs probe
// call sites (obs/obs.h) and typed work counters such as the Simulator's
// use it, so a bench build pays nothing for either.
#pragma once

#ifndef STELLAR_TRACE_ENABLED
#define STELLAR_TRACE_ENABLED 0
#endif

#if STELLAR_TRACE_ENABLED
#define STELLAR_TRACE_ONLY(...) __VA_ARGS__
#else
#define STELLAR_TRACE_ONLY(...)
#endif
