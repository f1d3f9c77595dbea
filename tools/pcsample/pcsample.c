// SIGPROF PC sampler, loaded with LD_PRELOAD into an unmodified binary.
//
//   cc -O2 -shared -fPIC -o libpcsample.so tools/pcsample/pcsample.c
//   PCSAMPLE_OUT=prof.txt PCSAMPLE_US=250 LD_PRELOAD=./libpcsample.so prog
//
// Every PCSAMPLE_US microseconds of CPU time (default 250) the handler
// records the interrupted PC. At exit the process writes PCSAMPLE_OUT
// (default pcsample.out): its /proc/self/maps, a "--" line, then one hex PC
// per line. tools/pcsample/resolve.py turns that into named functions.
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long pcs[MAX_SAMPLES];
static volatile sig_atomic_t n_pcs;

static void on_prof(int sig, siginfo_t* info, void* ctx) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = ctx;
  if (n_pcs >= MAX_SAMPLES) return;
#if defined(__x86_64__)
  pcs[n_pcs++] = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  pcs[n_pcs++] = (unsigned long)uc->uc_mcontext.pc;
#endif
}

__attribute__((constructor)) static void pcsample_start(void) {
  const char* us = getenv("PCSAMPLE_US");
  const long period = us ? atol(us) : 250;
  struct sigaction sa = {0};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it = {{0, period}, {0, period}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void pcsample_stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char* path = getenv("PCSAMPLE_OUT");
  FILE* out = fopen(path ? path : "pcsample.out", "w");
  FILE* maps = fopen("/proc/self/maps", "r");
  if (!out || !maps) return;
  char line[4096];
  while (fgets(line, sizeof line, maps)) fputs(line, out);
  fclose(maps);
  fputs("--\n", out);
  for (sig_atomic_t i = 0; i < n_pcs; ++i) fprintf(out, "%lx\n", pcs[i]);
  fclose(out);
}
