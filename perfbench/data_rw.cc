// data_rw: 4 KiB random I/O through held-open descriptors (the paper's
// Fig. 6/7 data-path shape, with reads beside writes).
//
// 512 files x 1 MiB, each opened by every client.  Mix: 70% pread, 30%
// pwrite, uniform over files and blocks.  It walks no paths and allocates
// nothing: every pwrite overwrites an allocated block.  512 inodes fit the
// 1024-slot ExtentCache.
//
// Clients share files, so the per-file exclusive write lock runs against
// lock-free readers of the same file; a per-block busy flag keeps two
// clients off the same 4 KiB block at once, so every pread has exactly one
// expected version.
#include <atomic>
#include <cstdio>
#include <vector>

#include "core/check.h"
#include "harness.h"

namespace perfbench {
namespace {

constexpr unsigned kFiles = 512;
constexpr unsigned kBlocksPerFile = 256;  // 1 MiB
constexpr std::size_t kFileBytes = kBlocksPerFile * kBlock;
constexpr unsigned kChunkBlocks = 16;     // populate/verify I/O size

struct Path {
  char s[16];
  explicit Path(unsigned file) { std::snprintf(s, sizeof s, "/d/f%03u", file); }
  operator std::string_view() const { return s; }  // NOLINT implicit
};

class DataRw final : public Workload {
 public:
  DataRw()
      : busy_(new std::atomic<bool>[kFiles * kBlocksPerFile]),
        version_(kFiles * kBlocksPerFile, 0) {
    for (unsigned i = 0; i < kFiles * kBlocksPerFile; ++i) busy_[i] = false;
  }

  std::size_t nvmm_bytes() const override { return 640ull << 20; }

  void populate(core::Process& p) override {
    std::vector<char> buf(kChunkBlocks * kBlock);
    expect(p.mkdir("/d").is_ok(), "mkdir");
    for (unsigned f = 0; f < kFiles; ++f) {
      auto fd = p.open(Path(f), core::kOpenCreate | core::kOpenWrite);
      expect(fd.is_ok(), "create");
      for (unsigned b = 0; b < kBlocksPerFile; b += kChunkBlocks) {
        for (unsigned i = 0; i < kChunkBlocks; ++i)
          fill_block(buf.data() + i * kBlock, f, b + i, 0);
        expect(p.pwrite(*fd, buf.data(), buf.size(), b * kBlock)
                       .value_or(0) == buf.size(),
               "populate write");
      }
      expect(p.close(*fd).is_ok(), "close");
    }
  }

  void attach(Client& c) override {
    std::vector<int>& fds = fds_[c.idx];
    for (unsigned f = 0; f < kFiles; ++f) {
      auto fd = c.proc->open(Path(f), core::kOpenRead | core::kOpenWrite);
      expect(fd.is_ok(), "open");
      fds.push_back(*fd);
    }
  }

  void detach(Client& c) override {
    for (unsigned f = 0; f < fds_[c.idx].size(); ++f)
      if (!c.proc->close(fds_[c.idx][f]).is_ok())
        c.fail("close", Path(f).s);
    fds_[c.idx].clear();
  }

  void step(Client& c) override {
    unsigned f = 0, b = 0;
    std::atomic<bool>* busy = nullptr;
    for (;;) {
      f = static_cast<unsigned>(c.rng.below(kFiles));
      b = static_cast<unsigned>(c.rng.below(kBlocksPerFile));
      busy = &busy_[f * kBlocksPerFile + b];
      bool idle = false;
      if (busy->compare_exchange_strong(idle, true, std::memory_order_acquire))
        break;
    }
    std::uint64_t& version = version_[f * kBlocksPerFile + b];
    const int fd = fds_[c.idx][f];
    alignas(64) char buf[kBlock];
    if (c.rng.below(10) < 7) {
      c.begin_step("data.pread");
      auto n = c.call(kPread, [&] {
        return c.proc->pread(fd, buf, kBlock, std::uint64_t{b} * kBlock);
      });
      if (n.value_or(0) != kBlock) {
        c.fail("pread", std::string(Path(f).s) + ": short read");
      } else {
        if (c.inject_corruption()) buf[kBlock / 2] ^= 1;
        if (std::string bad = check_block(buf, f, b, version); !bad.empty())
          c.fail("pread", std::string(Path(f).s) + ": " + bad);
      }
    } else {
      c.begin_step("data.pwrite");
      fill_block(buf, f, b, ++version);
      auto n = c.call(kPwrite, [&] {
        return c.proc->pwrite(fd, buf, kBlock, std::uint64_t{b} * kBlock);
      });
      if (n.value_or(0) != kBlock)
        c.fail("pwrite", std::string(Path(f).s) + ": short write");
      else if (c.measuring)
        c.written_bytes += kBlock;
    }
    c.end_step();
    busy->store(false, std::memory_order_release);
  }

  bool verify(Instance& inst, std::string* why) override {
    inst.remount_clean();
    const core::CheckReport rep = core::check_fs(*inst.fs);
    if (!rep.ok()) {
      *why = "fsck after remount: " + rep.summary();
      return false;
    }
    auto p = inst.fs->open_process(kUid, kUid);
    std::vector<char> buf(kChunkBlocks * kBlock);
    for (unsigned f = 0; f < kFiles; ++f) {
      const Path path(f);
      auto st = p->stat(path);
      if (!st.is_ok() || st->size != kFileBytes) {
        *why = std::string("size of ") + path.s + " is not 1 MiB";
        return false;
      }
      auto fd = p->open(path, core::kOpenRead);
      if (!fd.is_ok()) {
        *why = std::string("open ") + path.s;
        return false;
      }
      for (unsigned b = 0; b < kBlocksPerFile; b += kChunkBlocks) {
        if (p->pread(*fd, buf.data(), buf.size(), b * kBlock).value_or(0) !=
            buf.size()) {
          *why = std::string(path.s) + ": short read";
          return false;
        }
        for (unsigned i = 0; i < kChunkBlocks; ++i) {
          const std::string bad =
              check_block(buf.data() + i * kBlock, f, b + i,
                          version_[f * kBlocksPerFile + b + i]);
          if (!bad.empty()) {
            *why = std::string(path.s) + ": " + bad;
            return false;
          }
        }
      }
      if (!p->close(*fd).is_ok()) {
        *why = std::string("close ") + path.s;
        return false;
      }
    }
    p.reset();
    inst.fs->unmount();
    return true;
  }

  std::uint64_t live_user_bytes() const override {
    return std::uint64_t{kFiles} * kFileBytes;
  }

  std::vector<std::string> sample_paths(Rng& rng, std::size_t n) override {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < n; ++i)
      out.emplace_back(Path(static_cast<unsigned>(rng.below(kFiles))).s);
    return out;
  }

 private:
  static void expect(bool ok, const char* what) {
    if (!ok) throw SetupError(std::string("data_rw: ") + what);
  }

  std::unique_ptr<std::atomic<bool>[]> busy_;
  std::vector<std::uint64_t> version_;  // guarded by the block's busy flag
  std::vector<int> fds_[kClients];
};

}  // namespace

std::unique_ptr<Workload> make_data_rw(std::uint64_t /*seed*/) {
  return std::make_unique<DataRw>();
}

}  // namespace perfbench
