#include "nvmm/device.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace simurgh::nvmm {

namespace {
constexpr std::size_t kHugePage = 2u << 20;

std::size_t round_up_page(std::size_t n) {
  const std::size_t page = 4096;
  return (n + page - 1) / page * page;
}
}  // namespace

Device::Device(std::size_t size, Sharing sharing)
    : size_(round_up_page(size)) {
  const int visibility =
      sharing == Sharing::shared_mapping ? MAP_SHARED : MAP_PRIVATE;
  // Over-map by one huge page, keep the 2 MiB-aligned window and return
  // the slack on either side, so base_ is aligned like a devdax namespace.
  void* p = ::mmap(nullptr, size_ + kHugePage, PROT_READ | PROT_WRITE,
                   visibility | MAP_ANONYMOUS, -1, 0);
  SIMURGH_CHECK(p != MAP_FAILED);
  auto* raw = static_cast<std::byte*>(p);
  const std::size_t head =
      (kHugePage - reinterpret_cast<std::uintptr_t>(raw) % kHugePage) %
      kHugePage;
  if (head != 0) ::munmap(raw, head);
  base_ = raw + head;
  ::munmap(base_ + size_, kHugePage - head);
  // Best-effort: without THP (or on shmem, i.e. MAP_SHARED, unless the
  // host's shmem_enabled allows it) the range stays on 4 KiB pages.
  (void)::madvise(base_, size_, MADV_HUGEPAGE);
}

Device::Device(const std::string& path, std::size_t size)
    : size_(round_up_page(size)) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  SIMURGH_CHECK(fd_ >= 0);
  SIMURGH_CHECK(::ftruncate(fd_, static_cast<off_t>(size_)) == 0);
  void* p = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_SHARED, fd_, 0);
  SIMURGH_CHECK(p != MAP_FAILED);
  base_ = static_cast<std::byte*>(p);
}

Device::~Device() { unmap(); }

Device::Device(Device&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      fd_(std::exchange(other.fd_, -1)) {}

Device& Device::operator=(Device&& other) noexcept {
  if (this != &other) {
    unmap();
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Device::wipe() noexcept {
  if (base_ != nullptr) std::memset(base_, 0, size_);
}

void Device::unmap() noexcept {
  if (base_ != nullptr) ::munmap(base_, size_);
  if (fd_ >= 0) ::close(fd_);
  base_ = nullptr;
  size_ = 0;
  fd_ = -1;
}

}  // namespace simurgh::nvmm
