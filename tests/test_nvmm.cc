#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "nvmm/device.h"
#include "nvmm/persist.h"
#include "nvmm/pptr.h"
#include "nvmm/shadow.h"

namespace simurgh::nvmm {
namespace {

TEST(Device, AnonymousMappingIsZeroed) {
  Device dev(1 << 20);
  ASSERT_NE(dev.base(), nullptr);
  EXPECT_GE(dev.size(), 1u << 20);
  for (std::size_t i = 0; i < dev.size(); i += 4096)
    EXPECT_EQ(std::to_integer<int>(dev.base()[i]), 0);
}

TEST(Device, RoundsUpToPageSize) {
  Device dev(100);
  EXPECT_EQ(dev.size(), 4096u);
}

TEST(Device, OffsetTranslation) {
  Device dev(1 << 20);
  EXPECT_EQ(dev.at(0), nullptr);  // offset 0 is null
  std::byte* p = dev.at(64);
  EXPECT_EQ(dev.offset_of(p), 64u);
  EXPECT_TRUE(dev.contains(p));
  EXPECT_FALSE(dev.contains(&p));
}

TEST(Device, WipeZeroes) {
  Device dev(1 << 16);
  std::memset(dev.base(), 0xAB, dev.size());
  dev.wipe();
  EXPECT_EQ(std::to_integer<int>(dev.base()[123]), 0);
}

TEST(Device, FileBackedPersistsAcrossMappings) {
  const std::string path = ::testing::TempDir() + "/simurgh_dev_test.img";
  {
    Device dev(path, 1 << 16);
    EXPECT_TRUE(dev.file_backed());
    std::memcpy(dev.base(), "simurgh", 7);
  }
  {
    Device dev(path, 1 << 16);
    EXPECT_EQ(std::memcmp(dev.base(), "simurgh", 7), 0);
  }
  ::unlink(path.c_str());
}

TEST(Device, MoveTransfersOwnership) {
  Device a(1 << 16);
  std::byte* base = a.base();
  Device b(std::move(a));
  EXPECT_EQ(b.base(), base);
  EXPECT_EQ(a.base(), nullptr);
}

constexpr std::size_t kHugePage = 2u << 20;

// Whether [p, p+len) is mapped: mincore fails with ENOMEM on any gap.
bool mapped(const void* p, std::size_t len) {
  std::vector<unsigned char> vec((len + 4095) / 4096);
  return ::mincore(const_cast<void*>(p), len, vec.data()) == 0;
}

std::string thp_mode() {
  std::ifstream f("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(f, line);
  return line;
}

// AnonHugePages of the /proc/self/smaps mapping that contains `p`, in kB.
std::uint64_t anon_huge_kb(const void* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream f("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(f, line)) {
    std::uintptr_t lo = 0, hi = 0;
    char dash = 0;
    std::istringstream head(line);
    if (head >> std::hex >> lo >> dash >> hi && dash == '-') {
      inside = lo <= addr && addr < hi;
    } else if (inside && line.rfind("AnonHugePages:", 0) == 0) {
      return std::stoull(line.substr(14));
    }
  }
  return 0;
}

TEST(Device, AnonymousMappingIsHugePageAligned) {
  for (Sharing sh : {Sharing::private_mapping, Sharing::shared_mapping}) {
    Device dev((8u << 20) + 4096, sh);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(dev.base()) % kHugePage, 0u);
    EXPECT_EQ(dev.size(), (8u << 20) + 4096);
    EXPECT_TRUE(mapped(dev.base(), dev.size()));
  }
}

TEST(Device, MoveAndDestroyUnmapExactlyOnce) {
  std::byte* a_base = nullptr;
  std::byte* c_base = nullptr;
  {
    Device a(4u << 20);
    a_base = a.base();
    a_base[100] = std::byte{0x5a};
    Device b(std::move(a));
    { Device sink(std::move(a)); }  // a moved-from device owns nothing
    EXPECT_TRUE(mapped(a_base, 4u << 20));
    Device c(2u << 20);
    c_base = c.base();
    c = std::move(b);  // unmaps c's old range, takes b's
    EXPECT_FALSE(mapped(c_base, 2u << 20));
    EXPECT_EQ(c.base(), a_base);
    EXPECT_EQ(c.size(), 4u << 20);
    EXPECT_EQ(std::to_integer<int>(c.base()[100]), 0x5a);
  }
  EXPECT_FALSE(mapped(a_base, 4u << 20));
}

TEST(Device, FileBackedMappingIsUnchanged) {
  const std::string path = ::testing::TempDir() + "/simurgh_dev_map.img";
  {
    Device dev(path, (4u << 20) + 100);
    EXPECT_TRUE(dev.file_backed());
    EXPECT_EQ(dev.size(), (4u << 20) + 4096);
    EXPECT_TRUE(mapped(dev.base(), dev.size()));
    std::memset(dev.base(), 0x11, dev.size());
  }
  struct stat st {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(static_cast<std::size_t>(st.st_size), (4u << 20) + 4096);
  ::unlink(path.c_str());
}

TEST(Device, PrivateDeviceIsBackedByHugePagesWhenThpIsOn) {
  const std::string mode = thp_mode();
  if (mode.empty() || mode.find("[never]") != std::string::npos)
    GTEST_SKIP() << "transparent huge pages unavailable: '" << mode << "'";
  Device dev(64u << 20);
  dev.wipe();
  EXPECT_GT(anon_huge_kb(dev.base()), 0u) << "THP mode: " << mode;
}

TEST(Pptr, NullSemantics) {
  pptr<int> p;
  EXPECT_TRUE(p.is_null());
  EXPECT_FALSE(p);
  Device dev(1 << 16);
  EXPECT_EQ(p.in(dev), nullptr);
}

TEST(Pptr, RoundTrip) {
  Device dev(1 << 16);
  auto* obj = reinterpret_cast<int*>(dev.at(128));
  *obj = 77;
  auto p = pptr<int>::to(dev, obj);
  EXPECT_EQ(p.raw(), 128u);
  EXPECT_EQ(*p.in(dev), 77);
}

TEST(Pptr, SurvivesRemapping) {
  // The core property (§4.1): offsets stay valid when the mapping address
  // changes.  Simulate by copying the device contents to a second device.
  Device a(1 << 16);
  *reinterpret_cast<int*>(a.at(256)) = 99;
  pptr<int> p(256);
  Device b(1 << 16);
  std::memcpy(b.base(), a.base(), a.size());
  EXPECT_EQ(*p.in(b), 99);
}

TEST(AtomicPptr, CompareExchange) {
  atomic_pptr<int> cell;
  pptr<int> expected;
  EXPECT_TRUE(cell.compare_exchange(expected, pptr<int>(64)));
  EXPECT_EQ(cell.load().raw(), 64u);
  expected = pptr<int>(1);
  EXPECT_FALSE(cell.compare_exchange(expected, pptr<int>(128)));
  EXPECT_EQ(expected.raw(), 64u);  // observed value reported back
}

TEST(Persist, CountsFlushedLines) {
  FlushCounter fc;
  alignas(64) char buf[256];
  persist(buf, 1);
  EXPECT_EQ(fc.persist_lines(), 1u);
  persist(buf, 65);  // spans two lines
  EXPECT_EQ(fc.persist_lines(), 3u);
  EXPECT_EQ(fc.persist_calls(), 2u);
}

TEST(Persist, NtCopyCountsBytes) {
  FlushCounter fc;
  char src[100];
  alignas(64) char dst[100];
  std::memset(src, 5, sizeof src);
  nt_copy(dst, src, sizeof src);
  EXPECT_EQ(fc.nt_stores(), 1u);
  EXPECT_EQ(fc.nt_lines(), 2u);  // 100 bytes from a line boundary
  EXPECT_EQ(fc.persist_lines(), 0u);
  EXPECT_EQ(std::memcmp(src, dst, sizeof src), 0);
}

// Records the sequence numbers fence() hands its tracer.
class FenceSeqRecorder final : public StoreTracer {
 public:
  FenceSeqRecorder() : prev_(set_store_tracer(this)) {}
  ~FenceSeqRecorder() { set_store_tracer(prev_); }
  void on_persist(const void*, std::size_t) override {}
  void on_nt_store(const void*, std::size_t) override {}
  void on_fence(std::uint64_t seq) override { seqs.push_back(seq); }

  std::vector<std::uint64_t> seqs;

 private:
  StoreTracer* prev_;
};

TEST(Persist, FenceSeqNumbersThisThreadsTracedFences) {
  FenceSeqRecorder rec;
  fence();
  fence();
  std::thread([] { fence(); }).join();  // its own count starts at 1
  ASSERT_EQ(rec.seqs.size(), 3u);
  EXPECT_EQ(rec.seqs[1], rec.seqs[0] + 1);
  EXPECT_EQ(rec.seqs[2], 1u);
}

}  // namespace
}  // namespace simurgh::nvmm
