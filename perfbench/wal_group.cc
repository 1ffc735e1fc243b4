// wal_group: a LevelDB write-ahead log with sync=true (the paper's Fig. 9
// YCSB traffic).
//
// Each client appends 1 KiB records (sequence number + CRC32C) to its own
// log in the `group` durability class and fsyncs after each record; every
// 64th step preads an earlier record instead.  A log rolls over at 64 MiB
// like LevelDB's log rotation: close, unlink, create the next one.  It is
// the only workload that puts write-behind staging, group commit and the
// drain through write_file_bytes.
//
// wal_append is the same log without the read-back steps, which LevelDB
// itself does only at recovery (the crash check below).  Its checks pass
// while wal_group's read-back fails: a pread racing the group commit of
// the record it reads can return zeros (README.md, "Known defect found by
// this benchmark").
//
// The end-of-instance check crashes first: the mount is destroyed without
// unmount() and mounted again, and every log must then be an intact prefix
// of the records acked to its client.
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <set>
#include <vector>

#include "common/hash.h"
#include "core/check.h"
#include "harness.h"

namespace perfbench {
namespace {

constexpr std::size_t kRecord = 1024;
constexpr std::uint64_t kRollBytes = 64ull << 20;
constexpr std::uint64_t kReadEvery = 64;
constexpr std::uint32_t kRecordMagic = 0x57414c31;  // "WAL1"

struct Path {
  char s[32];
  Path(unsigned client, std::uint64_t gen) {
    std::snprintf(s, sizeof s, "/wal/c%u.%06llu", client,
                  static_cast<unsigned long long>(gen));
  }
  operator std::string_view() const { return s; }  // NOLINT implicit
};

// Record layout: magic, client, log generation, sequence number, a payload
// derived from them, and a CRC32C over everything before it.
struct Record {
  std::uint32_t magic;
  std::uint32_t client;
  std::uint64_t gen;
  std::uint64_t seq;
  std::uint64_t payload[(kRecord - 32) / 8];
  std::uint32_t crc;
  std::uint32_t pad;
};
static_assert(sizeof(Record) == kRecord);

void fill_record(Record* r, unsigned client, std::uint64_t gen,
                 std::uint64_t seq) {
  r->magic = kRecordMagic;
  r->client = client;
  r->gen = gen;
  r->seq = seq;
  const std::uint64_t s = mix64(mix64(client ^ (gen << 8)) ^ seq);
  for (std::size_t i = 0; i < std::size(r->payload); ++i)
    r->payload[i] = s + i * 0x9e3779b97f4a7c15ull;
  r->crc = crc32c(r, offsetof(Record, crc));
  r->pad = 0;
}

std::string check_record(const Record& r, unsigned client, std::uint64_t gen,
                         std::uint64_t seq) {
  Record want;
  fill_record(&want, client, gen, seq);
  if (std::memcmp(&r, &want, kRecord) == 0) return {};
  char msg[160];
  std::snprintf(msg, sizeof msg,
                "want record (client %u, log %llu, seq %llu), got (client "
                "%u, log %llu, seq %llu)%s",
                client, static_cast<unsigned long long>(gen),
                static_cast<unsigned long long>(seq), r.client,
                static_cast<unsigned long long>(r.gen),
                static_cast<unsigned long long>(r.seq),
                r.crc == crc32c(&r, offsetof(Record, crc)) ? ""
                                                           : ", bad crc");
  return msg;
}

struct Log {
  int fd = -1;
  std::uint64_t gen = 0;
  std::uint64_t records = 0;  // acked records in the current log
  std::uint64_t steps = 0;
};

class WalGroup final : public Workload {
 public:
  explicit WalGroup(bool read_back) : read_back_(read_back) {}

  std::size_t nvmm_bytes() const override { return 512ull << 20; }

  void populate(core::Process& p) override {
    expect(p.mkdir("/wal").is_ok(), "mkdir");
  }

  void attach(Client& c) override {
    Log& log = logs_[c.idx];
    auto fd = c.proc->open(Path(c.idx, log.gen), kLogFlags);
    expect(fd.is_ok(), "create log");
    log.fd = *fd;
    expect(c.proc->set_durability(log.fd, core::Durability::group).is_ok(),
           "set_durability");
  }

  // The log stays open: verify() crashes the mount, as a crashing
  // process would leave it.
  void detach(Client&) override {}

  void step(Client& c) override {
    Log& log = logs_[c.idx];
    Record rec;
    if (read_back_ && ++log.steps % kReadEvery == 0 && log.records > 0) {
      c.begin_step("wal.pread");
      const std::uint64_t seq = c.rng.below(log.records);
      auto n = c.call(kPread, [&] {
        return c.proc->pread(log.fd, &rec, kRecord, seq * kRecord);
      });
      if (n.value_or(0) != kRecord) {
        c.fail("pread", std::string(Path(c.idx, log.gen).s) + ": short read");
      } else {
        if (c.inject_corruption()) rec.payload[7] ^= 1;
        if (std::string bad = check_record(rec, c.idx, log.gen, seq);
            !bad.empty())
          c.fail("pread", bad);
      }
      return c.end_step();
    }
    c.begin_step("wal.append");
    fill_record(&rec, c.idx, log.gen, log.records);
    auto n = c.call(kAppend,
                    [&] { return c.proc->write(log.fd, &rec, kRecord); });
    if (n.value_or(0) != kRecord) {
      c.fail("append", std::string(Path(c.idx, log.gen).s) + ": short write");
      return c.end_step();
    }
    ++log.records;
    if (c.measuring) c.written_bytes += kRecord;
    if (Status st = c.call(kFsync, [&] { return c.proc->fsync(log.fd); });
        !st.is_ok())
      c.fail("fsync", errc_str(st.code()));
    c.end_step();
    if (log.records * kRecord >= kRollBytes) roll_over(c, log);
  }

  bool verify(Instance& inst, std::string* why) override {
    inst.remount_after_crash();
    auto p = inst.fs->open_process(kUid, kUid);
    // Exactly the current logs survive: every unlink of a rolled-over log
    // was synchronous.
    auto ents = p->readdir("/wal");
    if (!ents.is_ok()) {
      *why = "readdir /wal: " + errc_str(ents.code());
      return false;
    }
    std::set<std::string> got, want;
    for (const core::DirEntry& e : *ents)
      if (e.name != "." && e.name != "..") got.insert("/wal/" + e.name);
    for (unsigned i = 0; i < kClients; ++i)
      want.insert(Path(i, logs_[i].gen).s);
    if (got != want) {
      *why = "after the crash, /wal does not hold exactly the current logs";
      return false;
    }
    std::vector<Record> buf(64);
    for (unsigned i = 0; i < kClients; ++i) {
      const Log& log = logs_[i];
      const Path path(i, log.gen);
      auto st = p->stat(path);
      if (!st.is_ok() || st->size % kRecord != 0 ||
          st->size / kRecord > log.records) {
        *why = std::string(path.s) +
               ": recovered size is not a whole prefix of the acked records";
        return false;
      }
      auto fd = p->open(path, core::kOpenRead);
      if (!fd.is_ok()) {
        *why = std::string("open ") + path.s;
        return false;
      }
      const std::uint64_t n = st->size / kRecord;
      for (std::uint64_t seq = 0; seq < n; seq += buf.size()) {
        const std::uint64_t k = std::min<std::uint64_t>(buf.size(), n - seq);
        if (p->pread(*fd, buf.data(), k * kRecord, seq * kRecord)
                .value_or(0) != k * kRecord) {
          *why = std::string(path.s) + ": short read";
          return false;
        }
        for (std::uint64_t j = 0; j < k; ++j)
          if (std::string bad = check_record(buf[j], i, log.gen, seq + j);
              !bad.empty()) {
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
    core::CheckReport rep = core::check_fs(*inst.fs);
    if (!rep.ok()) {
      *why = "fsck after the crash: " + rep.summary();
      return false;
    }
    inst.remount_clean();
    rep = core::check_fs(*inst.fs);
    if (!rep.ok()) {
      *why = "fsck after remount: " + rep.summary();
      return false;
    }
    inst.fs->unmount();
    return true;
  }

  std::uint64_t live_user_bytes() const override {
    std::uint64_t records = 0;
    for (const Log& log : logs_) records += log.records;
    return records * kRecord;
  }

  std::vector<std::string> sample_paths(Rng& rng, std::size_t n) override {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<unsigned>(rng.below(kClients));
      out.emplace_back(Path(c, logs_[c].gen).s);
    }
    return out;
  }

 private:
  static constexpr int kLogFlags = core::kOpenCreate | core::kOpenExcl |
                                   core::kOpenRead | core::kOpenWrite |
                                   core::kOpenAppend;

  static void expect(bool ok, const char* what) {
    if (!ok) throw SetupError(std::string("wal_group: ") + what);
  }

  // LevelDB-style rotation: the full log is closed and deleted, the next
  // one is created in the same durability class.
  void roll_over(Client& c, Log& log) {
    c.begin_step("wal.roll_over");
    const Path old_path(c.idx, log.gen);
    if (Status st = c.call(kClose, [&] { return c.proc->close(log.fd); });
        !st.is_ok())
      c.fail("close", old_path.s);
    if (Status st = c.call(kUnlink, [&] { return c.proc->unlink(old_path); });
        !st.is_ok())
      c.fail("unlink", old_path.s);
    ++log.gen;
    log.records = 0;
    const Path path(c.idx, log.gen);
    auto fd = c.call(kCreate, [&] { return c.proc->open(path, kLogFlags); });
    if (!fd.is_ok()) {
      c.fail("create", std::string(path.s) + ": " + errc_str(fd.code()));
      return c.end_step();
    }
    log.fd = *fd;
    if (Status st = c.call(kSetDurability, [&] {
          return c.proc->set_durability(log.fd, core::Durability::group);
        });
        !st.is_ok())
      c.fail("set_durability", path.s);
    c.end_step();
  }

  const bool read_back_;
  Log logs_[kClients];
};

}  // namespace

std::unique_ptr<Workload> make_wal_group(std::uint64_t /*seed*/) {
  return std::make_unique<WalGroup>(true);
}

std::unique_ptr<Workload> make_wal_append(std::uint64_t /*seed*/) {
  return std::make_unique<WalGroup>(false);
}

}  // namespace perfbench
