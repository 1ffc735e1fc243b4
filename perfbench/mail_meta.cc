// mail_meta: Filebench varmail/fileserver-shaped namespace churn (the
// paper's Fig. 8 traffic).
//
// 16 directories x 2048 files of 4 KiB, shared by all clients, picked
// zipfian (theta 0.99).  Mix: 40% stat, 25% open+read 4 KiB+close, 20%
// unlink+create(O_EXCL)+write 4 KiB+fsync+close, 10% open+append 4 KiB+
// fsync+close, 5% cross-directory rename.  32768 names exceed both the
// PathCache (4096 slots) and the LookupCache (16384 slots); the zipfian hot
// set fits.
//
// Fileset discipline (Filebench's): a file is in use by at most one client
// at a time, through a per-file busy flag, so the model below is exact.
// One stat in eight targets the file's name in a directory it is not in,
// where not_found is the expected answer.  stat takes the busy flag too:
// a lookup racing an unlink of the same name is the known DirOps::lookup
// race (README.md, "Not covered"), which this workload does not exercise.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>

#include "core/check.h"
#include "harness.h"

namespace perfbench {
namespace {

constexpr unsigned kDirs = 16;
constexpr unsigned kFilesPerDir = 2048;
constexpr unsigned kFiles = kDirs * kFilesPerDir;

struct FileState {
  std::atomic<bool> busy{false};
  // Guarded by `busy`.
  unsigned dir = 0;
  std::uint64_t gen = 0;     // bumped by every unlink+create
  std::uint64_t blocks = 1;  // file size in 4 KiB blocks
};

struct Path {
  char s[32];
  Path(unsigned dir, unsigned file) {
    std::snprintf(s, sizeof s, "/m%02u/f%05u", dir, file);
  }
  operator std::string_view() const { return s; }  // NOLINT implicit
};

class MailMeta final : public Workload {
 public:
  explicit MailMeta(std::uint64_t seed) : files_(new FileState[kFiles]) {
    // Zipf rank -> file: a seeded permutation, so hot files are spread
    // over every directory.
    perm_.resize(kFiles);
    for (unsigned i = 0; i < kFiles; ++i) perm_[i] = i;
    Rng rng(seed ^ 0x6d61696cull);
    for (unsigned i = kFiles - 1; i > 0; --i)
      std::swap(perm_[i], perm_[rng.below(i + 1)]);
  }

  std::size_t nvmm_bytes() const override { return 512ull << 20; }

  void populate(core::Process& p) override {
    alignas(64) char buf[kBlock];
    for (unsigned d = 0; d < kDirs; ++d) {
      char dir[8];
      std::snprintf(dir, sizeof dir, "/m%02u", d);
      expect(p.mkdir(dir).is_ok(), "mkdir");
    }
    for (unsigned f = 0; f < kFiles; ++f) {
      FileState& s = files_[f];
      s.dir = f % kDirs;
      auto fd = p.open(Path(s.dir, f), core::kOpenCreate | core::kOpenWrite);
      expect(fd.is_ok(), "populate create");
      fill_block(buf, f, 0, s.gen);
      expect(p.write(*fd, buf, kBlock).value_or(0) == kBlock,
             "populate write");
      expect(p.close(*fd).is_ok(), "populate close");
    }
  }

  void attach(Client&) override {}
  void detach(Client&) override {}

  void step(Client& c) override {
    const std::uint64_t dice = c.rng.below(100);
    const unsigned f = pick(c);
    if (dice < 40)
      stat_file(c, f);
    else if (dice < 65)
      read_file(c, f);
    else if (dice < 85)
      recreate_file(c, f);
    else if (dice < 95)
      append_file(c, f);
    else
      rename_file(c, f);
    files_[f].busy.store(false, std::memory_order_release);
  }

  bool verify(Instance& inst, std::string* why) override {
    inst.remount_clean();
    const core::CheckReport rep = core::check_fs(*inst.fs);
    if (!rep.ok()) {
      *why = "fsck after remount: " + rep.summary();
      return false;
    }
    auto p = inst.fs->open_process(kUid, kUid);
    // The namespace equals the model, directory by directory.
    for (unsigned d = 0; d < kDirs; ++d) {
      char dir[8];
      std::snprintf(dir, sizeof dir, "/m%02u", d);
      auto ents = p->readdir(dir);
      if (!ents.is_ok()) {
        *why = std::string("readdir ") + dir + ": " + errc_str(ents.code());
        return false;
      }
      std::vector<std::string> got, want;
      for (const core::DirEntry& e : *ents)
        if (e.name != "." && e.name != "..") got.push_back(e.name);
      for (unsigned f = 0; f < kFiles; ++f)
        if (files_[f].dir == d) {
          char name[16];
          std::snprintf(name, sizeof name, "f%05u", f);
          want.emplace_back(name);
        }
      std::sort(got.begin(), got.end());
      if (got != want) {
        *why = std::string("namespace of ") + dir + " differs from the model";
        return false;
      }
    }
    // Every file holds exactly its tagged blocks.
    alignas(64) char buf[kBlock];
    for (unsigned f = 0; f < kFiles; ++f) {
      const FileState& s = files_[f];
      const Path path(s.dir, f);
      auto st = p->stat(path);
      if (!st.is_ok() || st->size != s.blocks * kBlock) {
        *why = std::string("size of ") + path.s + " differs from the model";
        return false;
      }
      auto fd = p->open(path, core::kOpenRead);
      if (!fd.is_ok()) {
        *why = std::string("open ") + path.s;
        return false;
      }
      for (std::uint64_t b = 0; b < s.blocks; ++b) {
        const std::string bad =
            p->pread(*fd, buf, kBlock, b * kBlock).value_or(0) == kBlock
                ? check_block(buf, f, b, s.gen)
                : "short read";
        if (!bad.empty()) {
          *why = std::string(path.s) + ": " + bad;
          return false;
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
    std::uint64_t blocks = 0;
    for (unsigned f = 0; f < kFiles; ++f) blocks += files_[f].blocks;
    return blocks * kBlock;
  }

  std::vector<std::string> sample_paths(Rng& rng, std::size_t n) override {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned f = perm_[rng.zipf(kFiles)];
      out.emplace_back(Path(files_[f].dir, f).s);
    }
    return out;
  }

 private:
  static void expect(bool ok, const char* what) {
    if (!ok) throw SetupError(std::string("mail_meta: ") + what);
  }

  // Claims a zipf-drawn file that no other client is using.
  unsigned pick(Client& c) {
    for (;;) {
      const unsigned f = perm_[c.rng.zipf(kFiles)];
      bool idle = false;
      if (files_[f].busy.compare_exchange_strong(idle, true,
                                                 std::memory_order_acquire))
        return f;
    }
  }

  void stat_file(Client& c, unsigned f) {
    const FileState& s = files_[f];
    c.begin_step("mail.stat");
    unsigned d = s.dir;
    const bool present = c.rng.below(8) != 0;
    if (!present)
      d = static_cast<unsigned>((s.dir + 1 + c.rng.below(kDirs - 1)) % kDirs);
    const Path path(d, f);
    auto st = c.call(kStat, [&] { return c.proc->stat(path); });
    if (present) {
      if (!st.is_ok())
        c.fail("stat", std::string(path.s) + ": " + errc_str(st.code()));
      else if (st->size != s.blocks * kBlock)
        c.fail("stat", std::string(path.s) + ": size differs from the model");
    } else if (st.code() != Errc::not_found) {
      c.fail("stat", std::string(path.s) + ": expected not_found");
    }
    c.end_step();
  }

  void read_file(Client& c, unsigned f) {
    const FileState& s = files_[f];
    c.begin_step("mail.read");
    const Path path(s.dir, f);
    auto fd = c.call(kOpen,
                     [&] { return c.proc->open(path, core::kOpenRead); });
    if (!fd.is_ok()) {
      c.fail("open", std::string(path.s) + ": " + errc_str(fd.code()));
      return c.end_step();
    }
    alignas(64) char buf[kBlock];
    auto n = c.call(kRead, [&] { return c.proc->read(*fd, buf, kBlock); });
    if (n.value_or(0) != kBlock) {
      c.fail("read", std::string(path.s) + ": short read");
    } else {
      if (c.inject_corruption()) buf[kBlock / 2] ^= 1;
      if (std::string bad = check_block(buf, f, 0, s.gen); !bad.empty())
        c.fail("read", std::string(path.s) + ": " + bad);
    }
    close_fd(c, *fd, path);
    c.end_step();
  }

  void recreate_file(Client& c, unsigned f) {
    FileState& s = files_[f];
    c.begin_step("mail.recreate");
    const Path path(s.dir, f);
    if (Status st = c.call(kUnlink, [&] { return c.proc->unlink(path); });
        !st.is_ok())
      c.fail("unlink", std::string(path.s) + ": " + errc_str(st.code()));
    ++s.gen;
    s.blocks = 0;
    auto fd = c.call(kCreate, [&] {
      return c.proc->open(path, core::kOpenCreate | core::kOpenExcl |
                                    core::kOpenWrite);
    });
    if (!fd.is_ok()) {
      c.fail("create", std::string(path.s) + ": " + errc_str(fd.code()));
      return c.end_step();
    }
    write_block(c, kWrite, *fd, f, path);
    close_fd(c, *fd, path);
    c.end_step();
  }

  void append_file(Client& c, unsigned f) {
    const FileState& s = files_[f];
    c.begin_step("mail.append");
    const Path path(s.dir, f);
    auto fd = c.call(kOpen, [&] {
      return c.proc->open(path, core::kOpenWrite | core::kOpenAppend);
    });
    if (!fd.is_ok()) {
      c.fail("open", std::string(path.s) + ": " + errc_str(fd.code()));
      return c.end_step();
    }
    write_block(c, kAppend, *fd, f, path);
    close_fd(c, *fd, path);
    c.end_step();
  }

  void rename_file(Client& c, unsigned f) {
    FileState& s = files_[f];
    c.begin_step("mail.rename");
    const auto to_dir =
        static_cast<unsigned>((s.dir + 1 + c.rng.below(kDirs - 1)) % kDirs);
    const Path from(s.dir, f), to(to_dir, f);
    if (Status st = c.call(kRename, [&] { return c.proc->rename(from, to); });
        st.is_ok())
      s.dir = to_dir;
    else
      c.fail("rename", std::string(from.s) + ": " + errc_str(st.code()));
    c.end_step();
  }

  // Writes the file's next tagged block, then fsyncs.
  void write_block(Client& c, Op op, int fd, unsigned f, const Path& path) {
    FileState& s = files_[f];
    alignas(64) char buf[kBlock];
    fill_block(buf, f, s.blocks, s.gen);
    auto n = c.call(op, [&] { return c.proc->write(fd, buf, kBlock); });
    if (n.value_or(0) != kBlock) {
      c.fail(kOpName[op], std::string(path.s) + ": short write");
      return;
    }
    ++s.blocks;
    if (c.measuring) c.written_bytes += kBlock;
    if (Status st = c.call(kFsync, [&] { return c.proc->fsync(fd); });
        !st.is_ok())
      c.fail("fsync", std::string(path.s) + ": " + errc_str(st.code()));
  }

  static void close_fd(Client& c, int fd, const Path& path) {
    if (Status st = c.call(kClose, [&] { return c.proc->close(fd); });
        !st.is_ok())
      c.fail("close", std::string(path.s) + ": " + errc_str(st.code()));
  }

  std::unique_ptr<FileState[]> files_;
  std::vector<unsigned> perm_;
};

}  // namespace

std::unique_ptr<Workload> make_mail_meta(std::uint64_t seed) {
  return std::make_unique<MailMeta>(seed);
}

}  // namespace perfbench
