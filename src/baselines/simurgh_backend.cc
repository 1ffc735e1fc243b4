#include "baselines/simurgh_backend.h"

#include <algorithm>

namespace simurgh::bench {

SimurghBackend::SimurghBackend(sim::SimWorld& world, bool relaxed_writes,
                               std::size_t device_size)
    : SimurghBackend(world, [&] {
        SimurghModelOptions o;
        o.relaxed_writes = relaxed_writes;
        o.device_size = device_size;
        return o;
      }()) {}

SimurghBackend::SimurghBackend(sim::SimWorld& world,
                               const SimurghModelOptions& opts)
    : world_(world),
      opts_(opts),
      relaxed_(opts.relaxed_writes),
      dev_(opts.device_size),
      shm_(64ull << 20),
      scratch_(1 << 20, '\0'),
      nvmm_read_(world.bandwidth("nvmm.read", kCosts.nvmm_read_bpc,
                                 kCosts.nvmm_read_lat)),
      nvmm_write_(world.bandwidth("nvmm.write", kCosts.nvmm_write_bpc,
                                  kCosts.nvmm_write_lat)),
      cache_read_(world.bandwidth("cpu.cache", kCosts.cache_read_bpc, 30)) {
  fs_ = core::FileSystem::format(dev_, shm_);
  fs_->set_lookup_cache_enabled(opts.path_cache);
  proc_ = fs_->open_process(1000, 1000);
  root_proc_ = fs_->open_process(0, 0);
}

void SimurghBackend::walk_cost(sim::SimThread& t, const std::string& path) {
  const auto comps = split_path(path);
  const auto n = static_cast<std::uint32_t>(comps.size());
  if (!opts_.path_cache) {
    t.cpu(n * kCosts.sim_component);
    return;
  }
  // Per-component: charge the DRAM hit cost for prefixes the shared cache
  // already holds, the full hash-block probe for the rest.  Warming happens
  // only after the operation succeeds (warm_path).
  std::string prefix;
  std::uint32_t cycles = 0;
  for (const auto& c : comps) {
    prefix += '/';
    prefix += c;
    cycles += warm_paths_.count(prefix) != 0 ? kCosts.sim_cache_hit
                                             : kCosts.sim_component;
  }
  t.cpu(cycles);
}

namespace {
// The "/a/b" form walk_cost builds its keys in.
std::string canon_path(const std::string& path) {
  std::string canon;
  for (const auto& c : split_path(path)) {
    canon += '/';
    canon += c;
  }
  return canon;
}
}  // namespace

void SimurghBackend::warm_path(const std::string& path, bool leaf) {
  if (!opts_.path_cache) return;
  const auto comps = split_path(path);
  std::string prefix;
  for (std::size_t i = 0; i < comps.size(); ++i) {
    prefix += '/';
    prefix += comps[i];
    if (i + 1 < comps.size() || leaf) warm_paths_.insert(prefix);
  }
}

void SimurghBackend::cool_path(const std::string& path) {
  if (!opts_.path_cache) return;
  const std::string canon = canon_path(path);
  warm_paths_.erase(canon);
  const std::string subtree = canon + '/';
  for (auto it = warm_paths_.begin(); it != warm_paths_.end();) {
    if (it->compare(0, subtree.size(), subtree) == 0)
      it = warm_paths_.erase(it);
    else
      ++it;
  }
}

void SimurghBackend::cool_dir_children(const std::string& dir) {
  if (!opts_.path_cache) return;
  const std::string prefix = canon_path(dir) + '/';
  for (auto it = warm_paths_.begin(); it != warm_paths_.end();) {
    const std::string& w = *it;
    if (w.size() > prefix.size() &&
        w.compare(0, prefix.size(), prefix) == 0 &&
        w.find('/', prefix.size()) == std::string::npos)
      it = warm_paths_.erase(it);
    else
      ++it;
  }
}

void SimurghBackend::line_critical(sim::SimThread& t, const std::string& dir,
                                   const std::string& leaf,
                                   std::uint32_t hold) {
  // Same hash -> same line as the on-media layout, so the virtual lock has
  // exactly the granularity of the real busy-line flag.  (The ablation
  // knob folds lines together, down to one lock per directory.)
  const unsigned line = core::line_of(leaf) %
                        std::max(1u, opts_.lock_lines);
  sim::Resource& r =
      world_.mutex("simline:" + dir + ":" + std::to_string(line));
  t.acquire(r);
  t.cpu(hold);
  t.release(r);
}

void SimurghBackend::segment_critical(sim::SimThread& t,
                                      const std::string& path,
                                      std::uint32_t hold) {
  const std::uint32_t n_segs = std::max(1u, opts_.alloc_segments);
  const std::uint32_t seg =
      static_cast<std::uint32_t>(fnv1a64(path) % n_segs);
  sim::Resource& r = world_.mutex("simseg:" + std::to_string(seg));
  // Real behaviour: a busy segment is skipped, not waited on; model the
  // hop as trying up to three segments before queueing.
  for (std::uint32_t i = 0; i < 3; ++i) {
    sim::Resource& cand =
        world_.mutex("simseg:" + std::to_string((seg + i) % n_segs));
    if (t.try_acquire(cand)) {
      t.cpu(hold);
      t.release(cand);
      return;
    }
    t.cpu(20);  // hop cost
  }
  t.acquire(r);
  t.cpu(hold);
  t.release(r);
}

Result<int> SimurghBackend::cached_fd(const std::string& path, bool create) {
  auto it = fds_.find(path);
  if (it != fds_.end()) return it->second;
  const int flags = core::kOpenRead | core::kOpenWrite |
                    (create ? core::kOpenCreate : 0);
  auto fd = proc_->open(path, flags);
  if (!fd.is_ok() && fds_.size() > 3000) {
    for (auto& [p, f] : fds_) (void)proc_->close(f);
    fds_.clear();
    fd = proc_->open(path, flags);
  }
  if (!fd.is_ok()) return fd.status();
  fds_[path] = *fd;
  return *fd;
}

void SimurghBackend::evict_fd(const std::string& path) {
  auto it = fds_.find(path);
  if (it != fds_.end()) {
    (void)proc_->close(it->second);
    fds_.erase(it);
  }
}

Status SimurghBackend::create(sim::SimThread& t, const std::string& path) {
  entry_cost(t);
  walk_cost(t, path);
  // Fine-grained design: only the slot publish runs under the line lock.
  // The coarse ablation (lock_lines < kLines) mimics a VFS-style directory
  // lock: the whole modification path is serialized.
  const bool coarse = opts_.lock_lines < core::kLines;
  if (!coarse) t.cpu(kCosts.sim_create);
  line_critical(t, parent_of(path), split_path(path).back(),
                kCosts.sim_line_hold + (coarse ? kCosts.sim_create : 0));
  t.transfer(nvmm_write_, kCosts.sim_meta_create);
  auto fd = proc_->open(path, core::kOpenCreate | core::kOpenExcl |
                                  core::kOpenWrite);
  if (!fd.is_ok()) return fd.status();
  // The insert bumped the parent's epoch: every binding held in it stops
  // validating.  The walk verified the parent chain; the new leaf itself
  // stays cold until something resolves it.
  cool_dir_children(parent_of(path));
  warm_path(path, /*leaf=*/false);
  return proc_->close(*fd);
}

Status SimurghBackend::mkdir(sim::SimThread& t, const std::string& path) {
  entry_cost(t);
  walk_cost(t, path);
  t.cpu(kCosts.sim_create + 800);  // + first hash block
  line_critical(t, parent_of(path), split_path(path).back(),
                kCosts.sim_line_hold);
  t.transfer(nvmm_write_, 4096 + kCosts.sim_meta_create);
  SIMURGH_RETURN_IF_ERROR(proc_->mkdir(path));
  cool_dir_children(parent_of(path));
  warm_path(path, /*leaf=*/false);
  return Status::ok();
}

Status SimurghBackend::unlink(sim::SimThread& t, const std::string& path) {
  entry_cost(t);
  walk_cost(t, path);
  const bool coarse = opts_.lock_lines < core::kLines;
  if (!coarse) t.cpu(kCosts.sim_unlink);
  line_critical(t, parent_of(path), split_path(path).back(),
                kCosts.sim_line_hold + (coarse ? kCosts.sim_unlink : 0));
  t.transfer(nvmm_write_, kCosts.sim_meta_unlink);
  evict_fd(path);
  SIMURGH_RETURN_IF_ERROR(proc_->unlink(path));
  cool_path(path);
  cool_dir_children(parent_of(path));
  warm_path(path, /*leaf=*/false);
  return Status::ok();
}

Status SimurghBackend::rename(sim::SimThread& t, const std::string& from,
                              const std::string& to) {
  entry_cost(t);
  walk_cost(t, from);
  walk_cost(t, to);
  t.cpu(kCosts.sim_rename);
  line_critical(t, parent_of(from), split_path(from).back(),
                kCosts.sim_line_hold);
  line_critical(t, parent_of(to), split_path(to).back(),
                kCosts.sim_line_hold);
  t.transfer(nvmm_write_, kCosts.sim_meta_rename);
  evict_fd(from);
  evict_fd(to);
  SIMURGH_RETURN_IF_ERROR(proc_->rename(from, to));
  cool_path(from);
  cool_path(to);
  cool_dir_children(parent_of(from));
  cool_dir_children(parent_of(to));
  warm_path(from, /*leaf=*/false);
  warm_path(to, /*leaf=*/false);
  return Status::ok();
}

Status SimurghBackend::resolve(sim::SimThread& t, const std::string& path) {
  entry_cost(t);
  walk_cost(t, path);
  t.cpu(120);  // permission bits + attribute read, straight off NVMM
  SIMURGH_RETURN_IF_ERROR(proc_->stat(path).status());
  warm_path(path, /*leaf=*/true);
  return Status::ok();
}

Result<std::uint64_t> SimurghBackend::file_size(sim::SimThread& t,
                                                const std::string& path) {
  SIMURGH_RETURN_IF_ERROR(resolve(t, path));
  return proc_->stat(path)->size;
}

Result<std::vector<std::string>> SimurghBackend::readdir(
    sim::SimThread& t, const std::string& path) {
  entry_cost(t);
  walk_cost(t, path);
  SIMURGH_ASSIGN_OR_RETURN(auto entries, proc_->readdir(path));
  warm_path(path, /*leaf=*/true);
  t.cpu(static_cast<std::uint32_t>(30 * entries.size()));
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (auto& e : entries) names.push_back(std::move(e.name));
  return names;
}

Status SimurghBackend::read(sim::SimThread& t, const std::string& path,
                            std::uint64_t off, std::uint64_t len) {
  entry_cost(t);
  if (!fd_workload_) walk_cost(t, path);
  t.cpu(kCosts.sim_read);
  // The per-file rwlock's shared acquire is one cheap atomic.
  sim::Resource& r = world_.mutex("simfile:" + path,
                                  kCosts.sim_filelock_bounce);
  t.acquire_shared(r);
  {
    sim::SimThread::Scope copy(t, sim::SimThread::Attr::data_copy);
    t.transfer(cached_reads_ ? cache_read_ : nvmm_read_, len);
  }
  t.release_shared(r);
  SIMURGH_ASSIGN_OR_RETURN(const int fd, cached_fd(path, false));
  std::uint64_t done = 0;
  while (done < len) {
    const std::size_t chunk =
        std::min<std::uint64_t>(len - done, scratch_.size());
    SIMURGH_ASSIGN_OR_RETURN(
        const std::size_t got,
        proc_->pread(fd, scratch_.data(), chunk, off + done));
    done += got;
    if (got < chunk) break;  // EOF
  }
  if (!fd_workload_) warm_path(path, /*leaf=*/true);
  return Status::ok();
}

Status SimurghBackend::write(sim::SimThread& t, const std::string& path,
                             std::uint64_t off, std::uint64_t len) {
  entry_cost(t);
  if (!fd_workload_) walk_cost(t, path);
  if (opts_.durability_class != core::Durability::strict) {
    // Staged ack: DRAM copy into the epoch buffer, no NVMM transfer and no
    // exclusive hold on the application clock — the background persister
    // pays the writeback off-thread (its NVMM bandwidth use is modeled as
    // absorbed into idle device time at these write rates).
    t.cpu(kCosts.sim_write_staged);
    t.cpu(static_cast<std::uint32_t>(len / 16));  // memcpy at DRAM speed
  } else {
    t.cpu(kCosts.sim_write);
    auto do_copy = [&] {
      sim::SimThread::Scope copy(t, sim::SimThread::Attr::data_copy);
      t.transfer(nvmm_write_, len);
    };
    if (relaxed_) {
      do_copy();
    } else {
      sim::Resource& r = world_.mutex("simfile:" + path,
                                      kCosts.sim_filelock_bounce);
      t.acquire(r);
      t.cpu(kCosts.sim_write_hold);
      do_copy();
      t.release(r);
    }
  }
  SIMURGH_ASSIGN_OR_RETURN(const int fd, cached_fd(path, true));
  std::uint64_t done = 0;
  while (done < len) {
    const std::size_t chunk =
        std::min<std::uint64_t>(len - done, scratch_.size());
    SIMURGH_ASSIGN_OR_RETURN(
        const std::size_t put,
        proc_->pwrite(fd, scratch_.data(), chunk, off + done));
    done += put;
  }
  if (!fd_workload_) warm_path(path, /*leaf=*/true);
  return Status::ok();
}

Status SimurghBackend::append(sim::SimThread& t, const std::string& path,
                              std::uint64_t len) {
  entry_cost(t);
  if (!fd_workload_) walk_cost(t, path);
  SIMURGH_ASSIGN_OR_RETURN(const int fd0, cached_fd(path, true));
  SIMURGH_ASSIGN_OR_RETURN(const auto st0, proc_->fstat(fd0));
  // A tail append inside the current block touches only the inode's size
  // and extent tail; crossing a block boundary allocates (Fig. 7g path).
  const bool allocates = st0.size % 4096 + len > 4096 || st0.size % 4096 == 0;
  if (allocates) {
    t.cpu(kCosts.sim_append);
    // Thread-local reservations: only every reserve_chunk-th allocating
    // append pays the segment-lock carve; the others are served from the
    // thread's chunk with a DRAM pointer bump.
    if (opts_.reserve_chunk > 1) {
      std::uint64_t& left = reserve_left_[&t];
      if (left == 0) {
        segment_critical(t, path, 120);  // chunk carve
        left = opts_.reserve_chunk;
      } else {
        t.cpu(kCosts.sim_reserve_serve);
      }
      --left;
    } else {
      segment_critical(t, path, 120);  // block allocation
    }
  } else {
    t.cpu(kCosts.sim_append_small);
  }
  auto do_copy = [&] {
    sim::SimThread::Scope copy(t, sim::SimThread::Attr::data_copy);
    t.transfer(nvmm_write_, len);
  };
  if (relaxed_) {
    do_copy();
  } else {
    sim::Resource& r = world_.mutex("simfile:" + path,
                                    kCosts.sim_filelock_bounce);
    t.acquire(r);
    do_copy();
    t.release(r);
  }
  std::uint64_t done = 0;
  while (done < len) {
    const std::size_t chunk =
        std::min<std::uint64_t>(len - done, scratch_.size());
    SIMURGH_ASSIGN_OR_RETURN(
        const std::size_t put,
        proc_->pwrite(fd0, scratch_.data(), chunk, st0.size + done));
    done += put;
  }
  if (!fd_workload_) warm_path(path, /*leaf=*/true);
  return Status::ok();
}

Status SimurghBackend::fallocate(sim::SimThread& t, const std::string& path,
                                 std::uint64_t len) {
  entry_cost(t);
  walk_cost(t, path);
  t.cpu(kCosts.sim_fallocate);
  // First-fit range carve + free-list persists happen inside the segment.
  segment_critical(t, path, kCosts.sim_falloc_hold);
  t.transfer(nvmm_write_, kCosts.sim_meta_fallocate);  // extent map only (no zeroing)
  SIMURGH_ASSIGN_OR_RETURN(const int fd, cached_fd(path, true));
  SIMURGH_ASSIGN_OR_RETURN(const auto st, proc_->fstat(fd));
  SIMURGH_RETURN_IF_ERROR(proc_->fallocate(fd, st.size, len));
  warm_path(path, /*leaf=*/true);
  return Status::ok();
}

Status SimurghBackend::fsync(sim::SimThread& t, const std::string& path) {
  entry_cost(t);
  if (opts_.durability_class == core::Durability::group) {
    // Absorbed into the epoch cadence: class lookup + counter bump, no
    // fence (the persister's group commit provides durability within T).
    t.cpu(kCosts.sim_fsync_absorbed);
  } else {
    // strict: sfence + bookkeeping (everything is already persistent).
    t.cpu(100);
  }
  auto it = fds_.find(path);
  if (it != fds_.end()) return proc_->fsync(it->second);
  return Status::ok();
}

Status SimurghBackend::chmod(sim::SimThread& t, const std::string& path,
                             std::uint32_t mode) {
  entry_cost(t);
  walk_cost(t, path);
  t.cpu(120);  // permission check + mode word update
  auto st = proc_->stat(path);
  if (!st.is_ok()) return st.status();
  t.transfer(nvmm_write_, 64);  // one flushed line for the mode word
  SIMURGH_RETURN_IF_ERROR(proc_->chmod(path, mode));
  warm_path(path, /*leaf=*/true);
  // A directory's mode gates traversal, so the real chmod bumps its epoch
  // and every binding held in it stops validating.
  if (st->is_dir()) cool_dir_children(path);
  return Status::ok();
}

Status SimurghBackend::chown(sim::SimThread& t, const std::string& path,
                             std::uint32_t uid, std::uint32_t gid) {
  entry_cost(t);
  walk_cost(t, path);
  t.cpu(120);
  auto st = proc_->stat(path);
  if (!st.is_ok()) return st.status();
  t.transfer(nvmm_write_, 64);
  SIMURGH_RETURN_IF_ERROR(root_proc_->chown(path, uid, gid));
  warm_path(path, /*leaf=*/true);
  // Same as chmod: ownership decides which permission triple applies
  // during traversal of a directory.
  if (st->is_dir()) cool_dir_children(path);
  return Status::ok();
}

}  // namespace simurgh::bench
