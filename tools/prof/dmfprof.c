/* Sampling profiler for a host with neither perf nor valgrind: an
 * LD_PRELOAD shim. ITIMER_PROF raises SIGPROF every 4 ms of CPU time
 * the process uses (250 Hz); the handler stores the interrupted
 * instruction pointer into a preallocated array and does nothing
 * else. At exit the samples go to $DMFPROF_OUT (default dmfprof.out),
 * one hex address per line, followed by /proc/self/maps so that
 * report.py can rebase them. x86-64 Linux only. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 20) /* 70 minutes of CPU at 250 Hz */
static unsigned long samples[MAX_SAMPLES];
static size_t taken;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    size_t at = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (at < MAX_SAMPLES)
        samples[at] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("DMFPROF_OUT");
    FILE *out = fopen(path ? path : "dmfprof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    size_t n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (size_t i = 0; i < n; i++)
        fprintf(out, "%lx\n", samples[i]);
    fputs("maps\n", out);
    for (int c; (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    fclose(maps);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {0};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 4000}, {0, 4000}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}
