// perfbench harness: the pieces every workload shares.
//
// A run drives one fresh file system per instance through the public
// core::Process API from three closed-loop client threads.  Every Process
// call goes through Client::call(), which counts it, times it into a
// per-operation histogram and, in the traced run only, tags the NVMM store
// events it issues and records a span for it.  Layers are observed only
// from outside: counter snapshots of their public stats, the store tracer,
// and timed replays of their public functions (main.cc).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/fs.h"
#include "nvmm/device.h"
#include "nvmm/persist.h"

namespace perfbench {

using namespace simurgh;

constexpr unsigned kClients = 3;
constexpr std::uint32_t kUid = 1000;

// ---- operation types and the classes latency is reported by ----

enum Op : unsigned {
  kStat,
  kOpen,
  kClose,
  kCreate,  // open with O_CREAT|O_EXCL
  kUnlink,
  kRename,
  kSetDurability,
  kRead,
  kPread,
  kWrite,
  kPwrite,
  kAppend,  // write on an O_APPEND descriptor
  kFsync,
  kNumOps,
};

enum Cls : unsigned { kMeta, kReadCls, kWriteCls, kFsyncCls, kNumCls };

inline constexpr const char* kOpName[kNumOps] = {
    "stat", "open",  "close", "create", "unlink", "rename", "set_durability",
    "read", "pread", "write", "pwrite", "append", "fsync"};
inline constexpr Cls kOpCls[kNumOps] = {
    kMeta,    kMeta,     kMeta,      kMeta,      kMeta,      kMeta,    kMeta,
    kReadCls, kReadCls,  kWriteCls,  kWriteCls,  kWriteCls,  kFsyncCls};
inline constexpr const char* kClsName[kNumCls] = {"meta", "read", "write",
                                                  "fsync"};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- latency histogram ----
//
// Log-linear: values below 128 ns are exact, above that each power of two
// is split into 64 buckets (1.6% wide).  Percentiles interpolate by rank
// inside the bucket, so two runs never read identically just because they
// landed in the same bucket.
class Histogram {
 public:
  void add(std::uint64_t v) {
    ++b_[index(v)];
    ++n_;
  }
  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) b_[i] += o.b_[i];
    n_ += o.n_;
  }
  [[nodiscard]] std::uint64_t count() const { return n_; }
  // q in [0, 1]; 0 when empty.
  [[nodiscard]] double percentile(double q) const;

 private:
  static constexpr unsigned kExact = 128;
  static constexpr unsigned kSub = 64;
  static constexpr std::size_t kBuckets = kExact + 40 * kSub;
  static std::size_t index(std::uint64_t v);
  static void bounds(std::size_t i, double* lo, double* width);

  std::vector<std::uint64_t> b_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t n_ = 0;
};

// ---- traced run: store-event tagging and spans ----

// What one client thread's current Process call is, for the tracer.
struct TraceTag {
  unsigned op = kNumOps;  // kNumOps: between calls
  std::uint64_t op_id = 0;
  std::uint64_t lines[kNumOps] = {};
  std::uint64_t fences[kNumOps] = {};
  std::uint64_t nt_bytes[kNumOps] = {};
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // the workload step that issued the call
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  const char* name = nullptr;
};

struct Event {
  std::uint64_t op_id = 0;  // 0: background (persister, heartbeat)
  std::uint32_t len = 0;
  char kind = 0;  // 'p' persist, 'n' nt_store, 'f' fence
  std::uint8_t op = kNumOps;
};

// Process-wide nvmm::StoreTracer.  Client threads point t_trace_tag at
// their TraceTag; events from any other thread count as background.
// Aggregates cover every event; the event log keeps the first kMaxEvents
// for the dump.
class Tracer final : public nvmm::StoreTracer {
 public:
  static constexpr std::size_t kMaxEvents = 1 << 18;

  Tracer() : events_(kMaxEvents) {}
  void on_persist(const void* p, std::size_t len) override;
  void on_nt_store(const void* dst, std::size_t len) override;
  void on_fence(std::uint64_t epoch) override;

  std::atomic<std::uint64_t> bg_lines{0};  // flushed by background threads

  [[nodiscard]] std::size_t logged() const;
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] const Event& event(std::size_t i) const { return events_[i]; }

 private:
  void log(char kind, std::size_t len, const TraceTag* tag);
  std::vector<Event> events_;
  std::atomic<std::uint64_t> cursor_{0};
  // Written only once the log is full; on its own line so counting drops
  // does not slow the cursor's readers.
  alignas(64) std::atomic<std::uint64_t> dropped_{0};
};

inline thread_local TraceTag* t_trace_tag = nullptr;

// ---- one client ----

struct Client {
  static constexpr std::size_t kMaxSpans = 1 << 16;

  unsigned idx = 0;
  std::unique_ptr<core::Process> proc;
  Rng rng;
  bool measuring = false;  // record latencies (off during warm-up)
  bool traced = false;     // tag store events and record spans
  Histogram hist[kNumOps];
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t written_bytes = 0;  // user bytes acked while measuring
  // Fault injection for the benchmark's own test: flip one byte of the
  // Nth verified read buffer (0 = never).
  std::uint64_t corrupt_at_read = 0;
  std::uint64_t reads_verified = 0;

  // Traced-run state.
  TraceTag tag;
  std::uint64_t span_count[kNumOps] = {};
  std::uint64_t span_ns[kNumOps] = {};
  std::vector<Span> spans;       // first kMaxSpans call and step spans
  std::uint64_t spans_dropped = 0;
  std::uint64_t step_id = 0;     // id of the current workload step
  const char* step_name = nullptr;
  std::uint64_t step_start = 0;

  explicit Client(unsigned i, std::uint64_t seed)
      : idx(i), rng(seed * 0x9e3779b97f4a7c15ull + i + 1) {}

  // Times one Process call.
  template <typename F>
  auto call(Op op, F&& f) -> decltype(f()) {
    ++attempted;
    if (traced) {
      tag.op = op;
      tag.op_id = (static_cast<std::uint64_t>(idx + 1) << 48) | attempted;
    }
    const std::uint64_t t0 = now_ns();
    auto r = f();
    const std::uint64_t t1 = now_ns();
    if (measuring) hist[op].add(t1 - t0);
    if (traced) {
      tag.op = kNumOps;
      ++span_count[op];
      span_ns[op] += t1 - t0;
      record_span(tag.op_id, step_id, t0, t1, kOpName[op]);
    }
    return r;
  }

  // Brackets one workload step (several Process calls) as a parent span.
  void begin_step(const char* name) {
    if (!traced) return;
    step_id = (static_cast<std::uint64_t>(idx + 1) << 48) | (1ull << 47) |
              ++step_seq_;
    step_name = name;
    step_start = now_ns();
  }
  void end_step() {
    if (traced) record_span(step_id, 0, step_start, now_ns(), step_name);
  }

  // A call returned an unexpected status or wrong data.
  void fail(const char* what, const std::string& detail);

  // Verified-read hook: true for the one read whose buffer the caller
  // must corrupt before checking it.
  bool inject_corruption() {
    return corrupt_at_read != 0 && ++reads_verified == corrupt_at_read;
  }

 private:
  void record_span(std::uint64_t id, std::uint64_t parent, std::uint64_t t0,
                   std::uint64_t t1, const char* name) {
    if (spans.size() < kMaxSpans)
      spans.push_back(Span{id, parent, t0, t1, name});
    else
      ++spans_dropped;
  }
  std::uint64_t step_seq_ = 0;
};

// ---- one file-system instance ----

struct Instance {
  std::unique_ptr<nvmm::Device> nvmm;
  std::unique_ptr<nvmm::Device> shm;
  std::unique_ptr<core::FileSystem> fs;

  // Clean unmount, then mount again over the same image (shm is volatile
  // and starts empty, as after a reboot).
  void remount_clean();
  // Destroys the mount WITHOUT unmount() — staged write-behind state is
  // lost, as in a crash — and mounts again, running recovery.
  void remount_after_crash();
};

// ---- workloads ----

// Set-up could not build the workload's initial state.
struct SetupError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::size_t nvmm_bytes() const = 0;
  // Creates the workload's initial files in the freshly formatted FS.
  virtual void populate(core::Process& p) = 0;
  // Per-client preparation before warm-up (open descriptors, logs).
  virtual void attach(Client& c) = 0;
  // One step of the mix: one or more Process calls, each through c.call().
  virtual void step(Client& c) = 0;
  // Releases what attach() opened (not timed).
  virtual void detach(Client& c) = 0;
  // End-of-instance checks on the quiescent FS: unmount/remount, fsck and
  // the model comparison.  Returns false with `why` on any mismatch.
  virtual bool verify(Instance& inst, std::string* why) = 0;
  // Bytes of live user data the model holds.
  [[nodiscard]] virtual std::uint64_t live_user_bytes() const = 0;
  // Workload paths for the layer replays, drawn like the workload draws.
  virtual std::vector<std::string> sample_paths(Rng& rng, std::size_t n) = 0;
};

std::unique_ptr<Workload> make_mail_meta(std::uint64_t seed);
std::unique_ptr<Workload> make_data_rw(std::uint64_t seed);
std::unique_ptr<Workload> make_wal_group(std::uint64_t seed);
std::unique_ptr<Workload> make_wal_append(std::uint64_t seed);

// ---- tagged data ----
//
// Every 4 KiB block the workloads write starts with a tag naming the file,
// the block and its version, and the rest is a pattern derived from the
// tag, so a read that returns a foreign inode's or block's bytes, a stale
// version or a torn block fails the comparison.
constexpr std::size_t kBlock = 4096;
void fill_block(void* buf, std::uint64_t file, std::uint64_t block,
                std::uint64_t version);
// Empty string when `buf` is exactly the tagged block; otherwise a
// description of the mismatch.
std::string check_block(const void* buf, std::uint64_t file,
                        std::uint64_t block, std::uint64_t version);

// Name of an error code, for failure messages.
std::string errc_str(Errc e);

}  // namespace perfbench
