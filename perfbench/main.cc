// perfbench: the repository's wall-clock benchmark of the real file system.
//
//   perfbench --workload mail_meta|data_rw|wal_group|wal_append --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Each run builds kInstances fresh file systems one after another.  Each
// instance is set up (devices allocated and prefaulted, format, populate,
// warm-up: the `setup_s` metric), measured for S / kInstances seconds by
// kClients closed-loop client threads, then checked (crash where the
// workload asks for it, unmount, remount, fsck, model comparison).
//
// --trace 0 reports the end-to-end metrics.  --trace 1 splits each
// instance's window in two: an untraced half, whose counter deltas give
// the per-layer ratios, and a traced half with the nvmm::StoreTracer
// installed and a span per Process call; then it replays the layers'
// public functions on the workload's own inputs.  The spans and store
// events are kept in memory and written to --trace-out at exit.
//
// Output: one "metric <name> <value> <unit> n=<samples>" line per metric,
// then, as the last line, a JSON object with every metric.  perfbench/run.py
// turns that into the result line BENCHMARK.json defines.  Exit status: 0
// when every call and every check passed, 1 when one failed, 2 on a usage
// error or when a SIMURGH_* variable would change the program's defaults.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_env.h"
#include "core/write_behind.h"
#include "harness.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr unsigned kInstances = 3;
constexpr unsigned kTraceSlices = 4;  // untraced/traced pairs per instance
constexpr std::uint64_t kWarmupSteps = 20000;  // per client
constexpr std::size_t kShmBytes = 64ull << 20;
constexpr std::size_t kReplayInputs = 4096;
constexpr int kReplayBatches = 5;
constexpr std::uint64_t kReplayBatchNs = 50'000'000;
constexpr std::size_t kMaxDumpSpans = 1 << 17;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::uint64_t corrupt_read = 0;  // the benchmark's own negative test
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload")
      a->workload = v;
    else if (k == "--seed")
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds")
      a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace")
      a->trace = v == "1";
    else if (k == "--trace-out")
      a->trace_out = v;
    else if (k == "--corrupt-read")
      a->corrupt_read = std::strtoull(v.c_str(), nullptr, 10);
    else
      return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "mail_meta") return make_mail_meta(seed);
  if (name == "data_rw") return make_data_rw(seed);
  if (name == "wal_group") return make_wal_group(seed);
  if (name == "wal_append") return make_wal_append(seed);
  return nullptr;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---- counter snapshots of the layers' public stats ----

enum Ctr : unsigned {
  kLcHits, kLcMisses, kLcConflicts,
  kPcHits, kPcMisses, kPcConflicts,
  kExtHits, kExtMisses, kExtFills,
  kDirScoped, kDirFull, kDirProbes, kDirSplits,
  kBlkAllocs, kBlkReserveHits, kBlkSegmentHops,
  kObjCasRetries, kObjStripeSteals,
  kWbAbsorbed, kWbCommits, kWbBackpressure, kWbStagedWrites, kWbDrained,
  kLockFallback, kLockSteals, kShardInvalidations,
  kNumCtr,
};
using Counters = std::array<std::uint64_t, kNumCtr>;

Counters snapshot(core::FileSystem& fs) {
  Counters c{};
  const core::LookupCacheStats lc = fs.lookup_cache().stats();
  const core::LookupCacheStats pc = fs.path_cache().stats();
  c[kLcHits] = lc.hits;
  c[kLcMisses] = lc.misses;
  c[kLcConflicts] = lc.conflicts;
  c[kPcHits] = pc.hits;
  c[kPcMisses] = pc.misses;
  c[kPcConflicts] = pc.conflicts;
  const core::ExtentCacheStats ec = fs.extent_cache().stats();
  c[kExtHits] = ec.hits;
  c[kExtMisses] = ec.misses;
  c[kExtFills] = ec.fills;
  const core::DirOps::Stats ds = fs.dirops().stats();
  c[kDirScoped] = ds.epoch_bumps_scoped;
  c[kDirFull] = ds.epoch_bumps_full;
  c[kDirProbes] = ds.block_probes;
  c[kDirSplits] = ds.splits;
  alloc::BlockAllocStats& bs = fs.blocks().stats();
  c[kBlkAllocs] = bs.allocs.load(std::memory_order_relaxed);
  c[kBlkReserveHits] = bs.reserve_hits.load(std::memory_order_relaxed);
  c[kBlkSegmentHops] = bs.segment_hops.load(std::memory_order_relaxed);
  for (unsigned p = 0; p < core::kNumPools; ++p) {
    alloc::ObjAllocStats& os = fs.pool(static_cast<core::PoolId>(p)).stats();
    c[kObjCasRetries] += os.claim_cas_retries.load(std::memory_order_relaxed);
    c[kObjStripeSteals] += os.stripe_steals.load(std::memory_order_relaxed);
  }
  if (core::WriteBehind* wb = fs.write_behind()) {
    const core::WriteBehind::Counters wc = wb->counters();
    c[kWbAbsorbed] = wc.fsyncs_absorbed;
    c[kWbCommits] = wc.group_commits;
    c[kWbBackpressure] = wc.backpressure_hits;
    c[kWbStagedWrites] = wc.staged_writes;
    c[kWbDrained] = wc.drained_bytes;
  }
  const core::FsStat st = fs.fsstat();
  c[kLockFallback] = st.lock_fallback_hits;
  c[kLockSteals] = st.lock_lease_steals;
  c[kShardInvalidations] = st.shard_invalidations;
  return c;
}

// ---- replays of the layers' public functions ----

struct Replays {
  double resolve_ns = 0;
  double dir_lookup_ns = 0;
  double block_alloc_ns = 0;
  double obj_alloc_ns = 0;
  double nt_copy_4k_ns = 0;
  double block_crc_ns = 0;
};

// Median over kReplayBatches of the mean time per call of fn(i), i < n.
// A batch stops early after kReplayBatchNs, so a layer whose cost grows
// with the workload's state (a long free list) still replays in bounded
// time.
template <typename F>
double time_per_call(std::size_t n, F&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < kReplayBatches; ++b) {
    const std::uint64_t t0 = now_ns();
    std::size_t i = 0;
    while (i < n && (i % 16 != 0 || now_ns() - t0 < kReplayBatchNs)) fn(i++);
    per_call.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(i));
  }
  return median(per_call);
}

bool run_replays(core::FileSystem& fs, Workload& w, std::uint64_t seed,
                 Replays* out, std::string* why) {
  Rng rng(seed ^ 0x7265706cull);
  const std::vector<std::string> paths = w.sample_paths(rng, kReplayInputs);
  const protsec::Credentials cred{kUid, kUid};
  std::vector<core::ResolveResult> where(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    auto r = fs.walker().resolve(cred, paths[i]);
    if (!r.is_ok()) {
      *why = "replay: resolve " + paths[i] + ": " + errc_str(r.code());
      return false;
    }
    where[i] = *r;
  }
  volatile std::uint64_t sink = 0;
  out->resolve_ns = time_per_call(paths.size(), [&](std::size_t i) {
    sink = sink + fs.walker().resolve(cred, paths[i])->inode_off;
  });
  out->dir_lookup_ns = time_per_call(paths.size(), [&](std::size_t i) {
    sink = sink + fs.dirops()
                      .lookup(*fs.inode_at(where[i].parent_off),
                              where[i].leaf())
                      .value_or(0);
  });
  bool alloc_ok = true;
  out->block_alloc_ns = time_per_call(paths.size(), [&](std::size_t i) {
    auto b = fs.blocks().alloc(1, where[i].inode_off);
    if (!b.is_ok()) {
      alloc_ok = false;
      return;
    }
    fs.blocks().free(*b, 1);
  });
  alloc::ObjectAllocator& entries = fs.pool(core::kPoolFileEntry);
  out->obj_alloc_ns = time_per_call(paths.size(), [&](std::size_t) {
    auto o = entries.alloc();
    if (!o.is_ok()) {
      alloc_ok = false;
      return;
    }
    entries.commit(*o);
    entries.free(*o);
  });
  // Copies of the workload's tagged 4 KiB blocks into 16 device blocks.
  constexpr std::size_t kRing = 16;
  std::vector<char> src(kRing * kBlock);
  std::uint64_t dst[kRing] = {};
  for (std::size_t i = 0; i < kRing; ++i) {
    fill_block(src.data() + i * kBlock, where[i].inode_off, i, 0);
    auto b = fs.blocks().alloc(1, where[i].inode_off);
    if (!b.is_ok()) {
      alloc_ok = false;
      break;
    }
    dst[i] = *b;
  }
  if (alloc_ok)
    out->nt_copy_4k_ns = time_per_call(paths.size(), [&](std::size_t i) {
      nvmm::nt_copy(fs.dev().at(dst[i % kRing]),
                    src.data() + (i % kRing) * kBlock, kBlock);
    });
  for (std::uint64_t b : dst)
    if (b != 0) fs.blocks().free(b, 1);
  out->block_crc_ns = time_per_call(paths.size(), [&](std::size_t i) {
    sink = sink +
           core::CrcTable::block_crc(src.data() + (i % kRing) * kBlock);
  });
  if (!alloc_ok) *why = "replay: allocation failed";
  return alloc_ok;
}

// ---- one run ----

struct Totals {
  // Untraced measured windows.
  Histogram hist[kNumOps];
  std::uint64_t calls = 0;
  double seconds = 0;
  std::uint64_t written_bytes = 0;
  Counters ctr{};
  // Traced windows.
  std::uint64_t traced_calls = 0;
  double traced_seconds = 0;
  std::uint64_t lines[kNumOps] = {};
  std::uint64_t fences[kNumOps] = {};
  std::uint64_t nt_bytes[kNumOps] = {};
  std::uint64_t span_count[kNumOps] = {};
  std::uint64_t span_ns[kNumOps] = {};
  std::vector<Span> spans;
  std::uint64_t spans_dropped = 0;
  Replays replays;
  // Whole run.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;
  std::vector<double> nvmm_ratio;
  bool verified = true;
  std::string why;
};

using Clients = std::vector<std::unique_ptr<Client>>;

struct Window {
  std::uint64_t calls = 0;
  double seconds = 0;
};

// Pins client i to a CPU of its own when the process may use more CPUs
// than there are clients: the rest stay free for the mount's heartbeat and
// write-behind persister threads, and clients do not migrate mid-run.
void pin_client(unsigned i) {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) v.push_back(c);
    return v;
  }();
  if (cpus.size() <= kClients) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[i], &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

// Runs every client's step loop on its own thread until `seconds` pass.
Window run_window(Workload& w, Clients& cs, double seconds, bool traced) {
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false}, stop{false};
  std::uint64_t before = 0;
  for (auto& c : cs) before += c->attempted;
  std::vector<std::thread> threads;
  for (auto& c : cs)
    threads.emplace_back([&, cl = c.get()] {
      pin_client(cl->idx);
      cl->traced = traced;
      cl->measuring = !traced;
      if (traced) t_trace_tag = &cl->tag;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) w.step(*cl);
      t_trace_tag = nullptr;
      cl->traced = false;
      cl->measuring = false;
    });
  while (ready.load() < cs.size()) std::this_thread::yield();
  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  Window win;
  win.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  for (auto& c : cs) win.calls += c->attempted;
  win.calls -= before;
  return win;
}

void warm_up(Workload& w, Clients& cs) {
  std::vector<std::thread> threads;
  for (auto& c : cs)
    threads.emplace_back([&w, cl = c.get()] {
      pin_client(cl->idx);
      for (std::uint64_t i = 0; i < kWarmupSteps; ++i) w.step(*cl);
    });
  for (auto& t : threads) t.join();
}

void run_instance(const Args& a, unsigned k, Tracer& tracer, Totals& tot) {
  const std::uint64_t seed = a.seed * kInstances + k;
  std::unique_ptr<Workload> w = make_workload(a.workload, seed);
  Instance inst;
  const std::uint64_t t0 = now_ns();
  // Prefault both devices: a DAX mapping has no demand paging.
  inst.nvmm = std::make_unique<nvmm::Device>(w->nvmm_bytes());
  inst.shm = std::make_unique<nvmm::Device>(kShmBytes);
  inst.nvmm->wipe();
  inst.shm->wipe();
  inst.fs = core::FileSystem::format(*inst.nvmm, *inst.shm);
  w->populate(*inst.fs->open_process(kUid, kUid));
  Clients cs;
  for (unsigned i = 0; i < kClients; ++i) {
    cs.push_back(std::make_unique<Client>(i, seed));
    cs[i]->proc = inst.fs->open_process(kUid, kUid);
    if (i == 0 && k == 0) cs[i]->corrupt_at_read = a.corrupt_read;
    w->attach(*cs[i]);
  }
  warm_up(*w, cs);
  tot.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);

  // The traced run alternates untraced and traced slices, so both halves
  // see the file system at the same ages (mail_meta's free lists, for one,
  // fragment as it runs).
  const unsigned slices = a.trace ? kTraceSlices : 1;
  const double slice = a.seconds / kInstances / slices / (a.trace ? 2 : 1);
  for (unsigned s = 0; s < slices; ++s) {
    const Counters c0 = snapshot(*inst.fs);
    const Window u = run_window(*w, cs, slice, false);
    const Counters c1 = snapshot(*inst.fs);
    tot.calls += u.calls;
    tot.seconds += u.seconds;
    for (unsigned i = 0; i < kNumCtr; ++i) tot.ctr[i] += c1[i] - c0[i];
    if (!a.trace) continue;
    nvmm::set_store_tracer(&tracer);
    const Window t = run_window(*w, cs, slice, true);
    nvmm::set_store_tracer(nullptr);
    tot.traced_calls += t.calls;
    tot.traced_seconds += t.seconds;
  }
  std::string why;
  if (a.trace && k + 1 == kInstances &&
      !run_replays(*inst.fs, *w, seed, &tot.replays, &why)) {
    tot.verified = false;
    tot.why = why;
  }
  const core::FsStat st = inst.fs->fsstat();
  tot.nvmm_ratio.push_back(
      ratio(static_cast<double>((st.total_blocks - st.free_blocks) *
                                st.block_size),
            static_cast<double>(w->live_user_bytes())));

  for (auto& c : cs) {
    w->detach(*c);
    c->proc.reset();
    for (unsigned op = 0; op < kNumOps; ++op) {
      tot.hist[op].merge(c->hist[op]);
      tot.lines[op] += c->tag.lines[op];
      tot.fences[op] += c->tag.fences[op];
      tot.nt_bytes[op] += c->tag.nt_bytes[op];
      tot.span_count[op] += c->span_count[op];
      tot.span_ns[op] += c->span_ns[op];
    }
    tot.written_bytes += c->written_bytes;
    tot.attempted += c->attempted;
    tot.failed += c->failed;
    for (const Span& s : c->spans)
      if (tot.spans.size() < kMaxDumpSpans)
        tot.spans.push_back(s);
      else
        ++tot.spans_dropped;
    tot.spans_dropped += c->spans_dropped;
  }
  if (!w->verify(inst, &why) && tot.verified) {
    tot.verified = false;
    tot.why = why;
  }
}

// ---- environment stamp ----

struct Steal {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

// Aggregate "cpu" line of /proc/stat: user nice system idle iowait irq
// softirq steal ...
Steal read_steal() {
  Steal s;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    s.total += v;
    if (i == 7) s.steal = v;
  }
  return s;
}

std::string env_stamp(const Steal& s0, const Steal& s1) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  bench_env_fields(mem);
  std::fclose(mem);
  std::string fields(buf, len);
  std::free(buf);
  std::replace(fields.begin(), fields.end(), '\n', ' ');
  char tail[160];
  std::snprintf(tail, sizeof tail,
                " \"build_type\": \"%s\", \"steal_ticks\": %llu, "
                "\"steal_share\": %.6f",
                PERFBENCH_BUILD_TYPE,
                static_cast<unsigned long long>(s1.steal - s0.steal),
                ratio(static_cast<double>(s1.steal - s0.steal),
                      static_cast<double>(s1.total - s0.total)));
  return "{" + fields + tail + "}";
}

// ---- output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;
};

void print_result(const Totals& tot, const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("metric %-34s %16.6f %-10s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  const bool correct = tot.verified && tot.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tot.attempted),
              static_cast<unsigned long long>(tot.failed));
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                "\"samples\": %llu}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str(),
                static_cast<unsigned long long>(ms[i].samples));
  std::printf("}}\n");
}

std::vector<Metric> end_to_end(const Totals& tot) {
  std::vector<Metric> ms;
  ms.push_back({"ops_per_s", ratio(static_cast<double>(tot.calls),
                                   tot.seconds),
                "ops/s", tot.calls});
  ms.push_back({"failed_op_ratio",
                ratio(static_cast<double>(tot.failed),
                      static_cast<double>(tot.attempted)),
                "ratio", tot.attempted});
  // Latency of every Process call ("op"), then by op class.
  Histogram all;
  for (const Histogram& h : tot.hist) all.merge(h);
  ms.push_back({"op_p50_ns", all.percentile(0.50), "ns", all.count()});
  ms.push_back({"op_p99_ns", all.percentile(0.99), "ns", all.count()});
  for (unsigned cls = 0; cls < kNumCls; ++cls) {
    Histogram h;
    for (unsigned op = 0; op < kNumOps; ++op)
      if (kOpCls[op] == cls) h.merge(tot.hist[op]);
    const std::string base = kClsName[cls];
    ms.push_back({base + "_p50_ns", h.percentile(0.50), "ns", h.count()});
    ms.push_back({base + "_p99_ns", h.percentile(0.99), "ns", h.count()});
  }
  ms.push_back({"nvmm_bytes_per_user_byte", median(tot.nvmm_ratio), "ratio",
                tot.nvmm_ratio.size()});
  ms.push_back({"setup_s", median(tot.setup_s), "s", tot.setup_s.size()});
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ms.push_back({"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                "MiB", 1});
  return ms;
}

std::vector<Metric> per_layer(const Totals& tot, const Tracer& tracer) {
  const auto& c = tot.ctr;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double ops = d(tot.calls);
  const std::uint64_t n = tot.calls;
  const double lc_all = d(c[kLcHits] + c[kLcMisses] + c[kLcConflicts]);
  const double pc_all = d(c[kPcHits] + c[kPcMisses] + c[kPcConflicts]);
  const double ext_all = d(c[kExtHits] + c[kExtMisses]);
  const std::uint64_t fsyncs = tot.hist[kFsync].count();
  const Replays& r = tot.replays;
  std::vector<Metric> ms = {
      {"path.lookup_hit_ratio", ratio(d(c[kLcHits]), lc_all), "ratio",
       c[kLcHits] + c[kLcMisses] + c[kLcConflicts]},
      {"path.pathcache_hit_ratio", ratio(d(c[kPcHits]), pc_all), "ratio",
       c[kPcHits] + c[kPcMisses] + c[kPcConflicts]},
      {"path.lookup_conflicts_per_op",
       ratio(d(c[kLcConflicts] + c[kPcConflicts]), ops), "count/op", n},
      {"path.resolve_ns", r.resolve_ns, "ns", kReplayInputs},
      {"dir.lookup_ns", r.dir_lookup_ns, "ns", kReplayInputs},
      {"dir.epoch_bumps_scoped_per_op", ratio(d(c[kDirScoped]), ops),
       "count/op", n},
      {"dir.epoch_bumps_full_per_op", ratio(d(c[kDirFull]), ops), "count/op",
       n},
      {"dir.block_probes_per_op", ratio(d(c[kDirProbes]), ops), "count/op",
       n},
      {"dir.splits", d(c[kDirSplits]), "count", n},
      {"extent.hit_ratio", ratio(d(c[kExtHits]), ext_all), "ratio",
       c[kExtHits] + c[kExtMisses]},
      {"extent.fills_per_op", ratio(d(c[kExtFills]), ops), "count/op", n},
      {"block.allocs_per_op", ratio(d(c[kBlkAllocs]), ops), "count/op", n},
      {"block.reserve_hit_ratio",
       ratio(d(c[kBlkReserveHits]), d(c[kBlkAllocs])), "ratio",
       c[kBlkAllocs]},
      {"block.segment_hops_per_alloc",
       ratio(d(c[kBlkSegmentHops]), d(c[kBlkAllocs])), "count/alloc",
       c[kBlkAllocs]},
      {"block.alloc_ns", r.block_alloc_ns, "ns", kReplayInputs},
      {"obj.cas_retries_per_op", ratio(d(c[kObjCasRetries]), ops),
       "count/op", n},
      {"obj.stripe_steals_per_op", ratio(d(c[kObjStripeSteals]), ops),
       "count/op", n},
      {"obj.alloc_ns", r.obj_alloc_ns, "ns", kReplayInputs},
  };
  // Store events per Process call, by op class, from the traced windows.
  for (unsigned cls = 0; cls < kNumCls; ++cls) {
    std::uint64_t calls = 0, lines = 0, fences = 0, nt = 0;
    for (unsigned op = 0; op < kNumOps; ++op)
      if (kOpCls[op] == cls) {
        calls += tot.span_count[op];
        lines += tot.lines[op];
        fences += tot.fences[op];
        nt += tot.nt_bytes[op];
      }
    const std::string sfx = std::string(".") + kClsName[cls];
    ms.push_back({"nvmm.lines_per_op" + sfx, ratio(d(lines), d(calls)),
                  "lines/op", calls});
    ms.push_back({"nvmm.fences_per_op" + sfx, ratio(d(fences), d(calls)),
                  "fences/op", calls});
    ms.push_back({"nvmm.nt_bytes_per_op" + sfx, ratio(d(nt), d(calls)),
                  "B/op", calls});
  }
  const double traced_s = tot.traced_seconds;
  ms.push_back({"nvmm.bg_lines_per_s",
                ratio(d(tracer.bg_lines.load()), traced_s), "lines/s",
                tracer.bg_lines.load()});
  ms.push_back({"nvmm.nt_copy_4k_ns", r.nt_copy_4k_ns, "ns", kReplayInputs});
  ms.push_back({"crc.block_crc_ns", r.block_crc_ns, "ns", kReplayInputs});
  ms.push_back({"wb.fsyncs_absorbed_ratio",
                ratio(d(c[kWbAbsorbed]), d(fsyncs)), "ratio", fsyncs});
  ms.push_back({"wb.group_commits_per_s", ratio(d(c[kWbCommits]),
                                                tot.seconds),
                "1/s", c[kWbCommits]});
  ms.push_back({"wb.bytes_per_commit",
                ratio(d(c[kWbDrained]), d(c[kWbCommits])), "B",
                c[kWbCommits]});
  ms.push_back({"wb.backpressure_ratio",
                ratio(d(c[kWbBackpressure]), d(c[kWbStagedWrites])), "ratio",
                c[kWbStagedWrites]});
  ms.push_back({"wb.drained_bytes_per_user_byte",
                ratio(d(c[kWbDrained]), d(tot.written_bytes)), "ratio",
                tot.written_bytes});
  ms.push_back({"lock.fallback_hits_per_op", ratio(d(c[kLockFallback]), ops),
                "count/op", n});
  ms.push_back({"lock.lease_steals", d(c[kLockSteals]), "count", n});
  ms.push_back({"coord.shard_invalidations", d(c[kShardInvalidations]),
                "count", n});
  for (unsigned op = 0; op < kNumOps; ++op) {
    const std::string base = std::string("fs.") + kOpName[op];
    ms.push_back({base + ".spans", d(tot.span_count[op]), "count",
                  tot.span_count[op]});
    ms.push_back({base + ".span_ns",
                  ratio(d(tot.span_ns[op]), d(tot.span_count[op])), "ns",
                  tot.span_count[op]});
  }
  ms.push_back({"trace.overhead_ratio",
                ratio(ratio(d(tot.traced_calls), traced_s),
                      ratio(ops, tot.seconds)),
                "ratio", tot.traced_calls});
  return ms;
}

// Spans and store events, as kept in memory, one per line.
bool dump_trace(const std::string& path, const Args& a, const std::string& env,
                const Totals& tot, const Tracer& tracer) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "# perfbench trace workload=%s seed=%llu env=%s\n"
               "# spans=%zu spans_dropped=%llu events=%zu "
               "events_dropped=%llu\n"
               "# S <span id> <parent id> <name> <start ns> <duration ns>\n"
               "# E <op id, 0 = background> <op> <p|n|f> <bytes>\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               env.c_str(), tot.spans.size(),
               static_cast<unsigned long long>(tot.spans_dropped),
               tracer.logged(),
               static_cast<unsigned long long>(tracer.dropped()));
  for (const Span& s : tot.spans)
    std::fprintf(f, "S %llx %llx %s %llu %llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns - s.start_ns));
  for (std::size_t i = 0; i < tracer.logged(); ++i) {
    const Event& e = tracer.event(i);
    std::fprintf(f, "E %llx %s %c %u\n",
                 static_cast<unsigned long long>(e.op_id),
                 e.op < kNumOps ? kOpName[e.op] : "background", e.kind,
                 e.len);
  }
  return std::fclose(f) == 0;
}

int run(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a) || !make_workload(a.workload, 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload mail_meta|data_rw|wal_group|wal_append "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  // Measure the program's defaults only.
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "SIMURGH_", 8) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: the benchmark "
                   "measures the program's defaults\n",
                   *e);
      return 2;
    }
  const Steal s0 = read_steal();
  Tracer tracer;
  Totals tot;
  try {
    for (unsigned k = 0; k < kInstances; ++k) run_instance(a, k, tracer, tot);
  } catch (const SetupError& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }
  const std::string env = env_stamp(s0, read_steal());
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("env %s\n", env.c_str());
  if (!tot.verified)
    std::printf("check FAILED: %s\n", tot.why.c_str());
  if (a.trace && !a.trace_out.empty()) {
    if (!dump_trace(a.trace_out, a, env, tot, tracer)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   a.trace_out.c_str());
      return 1;
    }
    std::printf("trace written to %s\n", a.trace_out.c_str());
  }
  print_result(tot, a.trace ? per_layer(tot, tracer) : end_to_end(tot));
  std::fflush(stdout);
  return tot.verified && tot.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
