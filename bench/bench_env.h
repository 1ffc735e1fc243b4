// Host-environment stamp and rep statistic shared by every BENCH_*.json
// writer.
//
// Perf numbers are only comparable against numbers from the same class of
// machine, so each result file records where it was produced: the CPU count
// the C++ runtime sees (what the scaling arms actually had to work with)
// and the kernel/arch triple from uname.  Readers diffing two BENCH files
// can tell at a glance whether a regression is code or hardware.
#pragma once

#include <sys/utsname.h>

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

namespace simurgh {

// Emits the environment stanza as comma-terminated JSON fields; callers
// place it right after the opening '{' of their result object.
inline void bench_env_fields(std::FILE* out) {
  utsname u{};
  const bool have = ::uname(&u) == 0;
  std::fprintf(out,
               "  \"hardware_concurrency\": %u,\n"
               "  \"host_sysname\": \"%s\",\n"
               "  \"host_release\": \"%s\",\n"
               "  \"host_machine\": \"%s\",\n",
               std::thread::hardware_concurrency(),
               have ? u.sysname : "unknown", have ? u.release : "unknown",
               have ? u.machine : "unknown");
}

// Median across reps — the gating statistic every BENCH_*.json uses (a
// best-of-reps min rewards one lucky scheduling window; the median is what
// a re-run actually reproduces).  Even counts take the upper middle.
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace simurgh
