// Data-path microbenchmark: real wall-clock cost of the hot file I/O loop
// through the public core::Process API — 4 KB appends (the Fig. 6 append
// shape), 4 KB overwrites, 4 KB reads of a deliberately fragmented file
// (spill-chain extent resolution), and a multi-thread append sweep (the
// Fig. 7 DWAL shape, private files).  Alongside time, the persist counters
// (nvmm::persist_stats) report flushed lines and fences per operation so the
// flush-coalescing work is observable, not just inferable.
//
// Run FROM THE REPO ROOT; writes BENCH_datapath.json to the cwd.  Runs
// under the SIMURGH_NVMM_OPTANE wall-clock timing model by default (see
// nvmm/persist.h) so fences cost modeled media time; set it to 0 for raw
// emulated-DRAM numbers.
//
// A/B against a pre-change build: run the same bench on the old tree, save
// its JSON, and point SIMURGH_BENCH_BASELINE_JSON at it — the new run then
// embeds the baseline numbers, computes speedups, and exits nonzero when the
// acceptance bars miss (>= 2x single-thread 4 KB append, fewer flushed
// lines per write, multi-thread scaling no worse).  Without a baseline the
// bench reports absolute numbers and exits 0.
//
// SIMURGH_BENCH_SMOKE=1 shrinks every loop to a handful of iterations and
// always exits 0 (the bench-smoke ctest label uses this to keep the binary
// from bit-rotting without paying bench runtime).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "core/fs.h"
#include "harness/runner.h"

using namespace simurgh;

namespace {

using Clock = std::chrono::steady_clock;

double ns_per_op(Clock::time_point a, Clock::time_point b, std::uint64_t n) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count() /
         static_cast<double>(n);
}

struct PersistDelta {
  double lines_per_op = 0;
  double fences_per_op = 0;
};

// Runs fn() once and reports the persist-counter deltas per `ops`.
template <typename Fn>
PersistDelta count_persists(std::uint64_t ops, Fn&& fn) {
  auto& ps = nvmm::persist_stats();
  const std::uint64_t l0 = ps.flushed_lines.load(std::memory_order_relaxed);
  const std::uint64_t f0 = ps.fences.load(std::memory_order_relaxed);
  fn();
  PersistDelta d;
  d.lines_per_op =
      static_cast<double>(ps.flushed_lines.load(std::memory_order_relaxed) -
                          l0) /
      static_cast<double>(ops);
  d.fences_per_op =
      static_cast<double>(ps.fences.load(std::memory_order_relaxed) - f0) /
      static_cast<double>(ops);
  return d;
}

struct World {
  std::unique_ptr<nvmm::Device> dev, shm;
  std::unique_ptr<core::FileSystem> fs;
  std::unique_ptr<core::Process> proc;

  World() {
    dev = std::make_unique<nvmm::Device>(768ull << 20);
    shm = std::make_unique<nvmm::Device>(16ull << 20);
    fs = core::FileSystem::format(*dev, *shm);
    proc = fs->open_process(1000, 1000);
  }
};

// One rep of the single-thread 4 KB append loop on a fresh file.
double run_append(core::Process& p, const std::string& path,
                  const char* block, std::uint64_t ops) {
  auto fd = p.open(path, core::kOpenCreate | core::kOpenWrite |
                             core::kOpenAppend);
  SIMURGH_CHECK(fd.is_ok());
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i)
    SIMURGH_CHECK(p.write(*fd, block, 4096).is_ok());
  const auto t1 = Clock::now();
  SIMURGH_CHECK(p.close(*fd).is_ok());
  SIMURGH_CHECK(p.unlink(path).is_ok());
  return ns_per_op(t0, t1, ops);
}

// One rep of sequential 4 KB overwrites of a preallocated file.
double run_overwrite(core::Process& p, int fd, const char* block,
                     std::uint64_t file_blocks, std::uint64_t ops) {
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i)
    SIMURGH_CHECK(
        p.pwrite(fd, block, 4096, (i % file_blocks) * 4096).is_ok());
  return ns_per_op(t0, Clock::now(), ops);
}

// One rep of sequential 4 KB reads.
double run_read(core::Process& p, int fd, char* buf,
                std::uint64_t file_blocks, std::uint64_t ops) {
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i)
    SIMURGH_CHECK(p.pread(fd, buf, 4096, (i % file_blocks) * 4096).is_ok());
  return ns_per_op(t0, Clock::now(), ops);
}

// Multi-thread append: T threads, private files, `ops` appends each.
// Returns aggregate ns per op (wall time * threads / total ops would hide
// contention; wall/op_total is the throughput view the paper plots).
double run_append_mt(core::FileSystem& fs, int threads, std::uint64_t ops,
                     const char* block) {
  std::vector<std::unique_ptr<core::Process>> procs;
  std::vector<int> fds(threads);
  for (int t = 0; t < threads; ++t) {
    procs.push_back(fs.open_process(1000, 1000));
    const std::string path = "/mt" + std::to_string(t);
    auto fd = procs[t]->open(path, core::kOpenCreate | core::kOpenWrite |
                                       core::kOpenAppend);
    SIMURGH_CHECK(fd.is_ok());
    fds[t] = *fd;
  }
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> ts;
  const auto worker = [&](int t) {
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {
    }
    for (std::uint64_t i = 0; i < ops; ++i)
      SIMURGH_CHECK(procs[t]->write(fds[t], block, 4096).is_ok());
  };
  for (int t = 0; t < threads; ++t) ts.emplace_back(worker, t);
  while (ready.load() != threads) {
  }
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : ts) th.join();
  const auto t1 = Clock::now();
  for (int t = 0; t < threads; ++t) {
    SIMURGH_CHECK(procs[t]->close(fds[t]).is_ok());
    SIMURGH_CHECK(procs[t]->unlink("/mt" + std::to_string(t)).is_ok());
  }
  return ns_per_op(t0, t1, ops * static_cast<std::uint64_t>(threads));
}

}  // namespace

int main() {
  // Same modeled testbed as bench_writebehind (persist.h): fences pay
  // Optane-shaped media latency/bandwidth, the device is prefaulted like a
  // DAX mapping.  Keeps this bench's strict numbers comparable with the
  // write-behind bench's strict arm.  SIMURGH_NVMM_OPTANE=0 overrides.
  setenv("SIMURGH_NVMM_OPTANE", "1", 0);
  const bool smoke = bench::bench_smoke();
  const std::uint64_t ops = smoke ? 64 : 8192;
  const std::uint64_t mt_ops = smoke ? 64 : 2048;
  const int reps = smoke ? 1 : 5;
  const std::vector<int> mt_threads = smoke ? std::vector<int>{1, 2}
                                            : std::vector<int>{1, 2, 4, 8};

  std::vector<char> block(4096, 'x');
  std::vector<char> rbuf(4096);

  World w;
  core::Process& p = *w.proc;

  // --- single-thread 4 KB append (fresh file per rep, median-of-reps) ---
  std::vector<double> append_reps;
  for (int r = 0; r < reps; ++r)
    append_reps.push_back(run_append(p, "/app", block.data(), ops));
  const double append_ns = median(append_reps);
  const PersistDelta append_pd = count_persists(
      ops, [&] { run_append(p, "/app", block.data(), ops); });

  // --- single-thread 4 KB overwrite of a 32 MB file ---
  const std::uint64_t file_blocks = smoke ? 8 : 8192;
  auto ofd = p.open("/ovw", core::kOpenCreate | core::kOpenWrite |
                                core::kOpenRead);
  SIMURGH_CHECK(ofd.is_ok());
  for (std::uint64_t b = 0; b < file_blocks; ++b)
    SIMURGH_CHECK(p.pwrite(*ofd, block.data(), 4096, b * 4096).is_ok());
  std::vector<double> ovw_reps;
  for (int r = 0; r < reps; ++r)
    ovw_reps.push_back(run_overwrite(p, *ofd, block.data(), file_blocks, ops));
  const double ovw_ns = median(ovw_reps);
  const PersistDelta ovw_pd = count_persists(ops, [&] {
    run_overwrite(p, *ofd, block.data(), file_blocks, ops);
  });

  // --- sequential 4 KB read of that (contiguous) file ---
  std::vector<double> read_seq_reps;
  for (int r = 0; r < reps; ++r)
    read_seq_reps.push_back(run_read(p, *ofd, rbuf.data(), file_blocks, ops));
  const double read_seq_ns = median(read_seq_reps);

  // --- fragmented-file read: interleave 1-block appends to two files so
  // their extents alternate and the extent map degenerates to one extent
  // per block (a long spill chain) ---
  const std::uint64_t frag_blocks = smoke ? 16 : 2048;
  auto fa = p.open("/fragA", core::kOpenCreate | core::kOpenWrite |
                                 core::kOpenRead | core::kOpenAppend);
  auto fb = p.open("/fragB", core::kOpenCreate | core::kOpenWrite |
                                 core::kOpenAppend);
  SIMURGH_CHECK(fa.is_ok());
  SIMURGH_CHECK(fb.is_ok());
  for (std::uint64_t b = 0; b < frag_blocks; ++b) {
    SIMURGH_CHECK(p.write(*fa, block.data(), 4096).is_ok());
    SIMURGH_CHECK(p.write(*fb, block.data(), 4096).is_ok());
  }
  std::vector<double> read_frag_reps;
  for (int r = 0; r < reps; ++r)
    read_frag_reps.push_back(run_read(p, *fa, rbuf.data(), frag_blocks, ops));
  const double read_frag_ns = median(read_frag_reps);

  // --- multi-thread append sweep ---
  std::vector<double> mt_ns;
  for (int t : mt_threads) {
    std::vector<double> mt_reps;
    for (int r = 0; r < std::max(1, reps - 2); ++r)
      mt_reps.push_back(run_append_mt(*w.fs, t, mt_ops, block.data()));
    mt_ns.push_back(median(mt_reps));
  }

  std::printf("4KB append  (1 thread):  %8.0f ns/op  (%.1f lines, %.1f "
              "fences per op)\n",
              append_ns, append_pd.lines_per_op, append_pd.fences_per_op);
  std::printf("4KB ovwrite (1 thread):  %8.0f ns/op  (%.1f lines, %.1f "
              "fences per op)\n",
              ovw_ns, ovw_pd.lines_per_op, ovw_pd.fences_per_op);
  std::printf("4KB read    seq:         %8.0f ns/op\n", read_seq_ns);
  std::printf("4KB read    fragmented:  %8.0f ns/op  (%llu extents)\n",
              read_frag_ns, (unsigned long long)frag_blocks);
  for (std::size_t i = 0; i < mt_threads.size(); ++i)
    std::printf("4KB append  (%d threads): %8.0f ns/op aggregate (%.2f "
                "Mops/s)\n",
                mt_threads[i], mt_ns[i], 1000.0 / mt_ns[i]);

  // --- baseline comparison ---
  double base_append = std::nan(""), base_lines = std::nan("");
  double base_mt_last = std::nan("");
  bool have_baseline = false;
  std::string baseline_json;
  if (const char* bp = std::getenv("SIMURGH_BENCH_BASELINE_JSON")) {
    if (std::FILE* f = std::fopen(bp, "r")) {
      char chunk[4096];
      std::size_t got;
      while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        baseline_json.append(chunk, got);
      std::fclose(f);
      base_append = json_number(baseline_json, "append1_ns_per_op");
      base_lines = json_number(baseline_json, "append1_lines_per_op");
      const std::string mt_key =
          "append_mt_" + std::to_string(mt_threads.back()) + "_ns_per_op";
      base_mt_last = json_number(baseline_json, mt_key);
      have_baseline = base_append == base_append;  // not nan
    }
  }
  const double speedup = have_baseline ? base_append / append_ns : 0.0;
  const bool lines_reduced =
      have_baseline && append_pd.lines_per_op < base_lines;
  // Multi-thread bar: at the highest thread count the new code's aggregate
  // ns/op must not be worse than the old code's (scaling no worse).
  const bool mt_ok = !have_baseline || base_mt_last != base_mt_last ||
                     mt_ns.back() <= base_mt_last * 1.10;
  if (have_baseline) {
    std::printf("baseline append: %.0f ns/op -> speedup %.2fx  "
                "(bar >= 2x: %s)\n",
                base_append, speedup, speedup >= 2.0 ? "PASS" : "FAIL");
    std::printf("baseline lines/op: %.1f -> %.1f  (reduced: %s)\n",
                base_lines, append_pd.lines_per_op,
                lines_reduced ? "PASS" : "FAIL");
    std::printf("baseline mt append (%d thr): %.0f -> %.0f ns/op  "
                "(no worse: %s)\n",
                mt_threads.back(), base_mt_last, mt_ns.back(),
                mt_ok ? "PASS" : "FAIL");
  }

  std::FILE* out = std::fopen("BENCH_datapath.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    bench_env_fields(out);
    std::fprintf(out,
                 "  \"bench\": \"data_path\",\n"
                 "  \"block_bytes\": 4096,\n"
                 "  \"ops\": %llu,\n"
                 "  \"append1_ns_per_op\": %.1f,\n"
                 "  \"append1_lines_per_op\": %.2f,\n"
                 "  \"append1_fences_per_op\": %.2f,\n"
                 "  \"overwrite1_ns_per_op\": %.1f,\n"
                 "  \"overwrite1_lines_per_op\": %.2f,\n"
                 "  \"overwrite1_fences_per_op\": %.2f,\n"
                 "  \"read_seq_ns_per_op\": %.1f,\n"
                 "  \"read_frag_ns_per_op\": %.1f,\n"
                 "  \"read_frag_extents\": %llu,\n",
                 (unsigned long long)ops, append_ns, append_pd.lines_per_op,
                 append_pd.fences_per_op, ovw_ns, ovw_pd.lines_per_op,
                 ovw_pd.fences_per_op, read_seq_ns, read_frag_ns,
                 (unsigned long long)frag_blocks);
    for (std::size_t i = 0; i < mt_threads.size(); ++i)
      std::fprintf(out, "  \"append_mt_%d_ns_per_op\": %.1f,\n",
                   mt_threads[i], mt_ns[i]);
    if (have_baseline)
      std::fprintf(out,
                   "  \"baseline_append1_ns_per_op\": %.1f,\n"
                   "  \"baseline_append1_lines_per_op\": %.2f,\n"
                   "  \"baseline_append_mt_%d_ns_per_op\": %.1f,\n"
                   "  \"append1_speedup\": %.2f,\n"
                   "  \"pass_speedup_2x\": %s,\n"
                   "  \"pass_lines_reduced\": %s,\n"
                   "  \"pass_mt_no_worse\": %s,\n",
                   base_append, base_lines, mt_threads.back(), base_mt_last,
                   speedup, speedup >= 2.0 ? "true" : "false",
                   lines_reduced ? "true" : "false",
                   mt_ok ? "true" : "false");
    std::fprintf(out, "  \"smoke\": %s\n}\n", smoke ? "true" : "false");
    std::fclose(out);
  }
  if (smoke || !have_baseline) return 0;
  return speedup >= 2.0 && lines_reduced && mt_ok ? 0 : 1;
}
