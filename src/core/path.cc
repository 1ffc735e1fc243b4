#include "core/path.h"

#include <string>

namespace simurgh::core {

bool may_access(const Inode& ino, const Credentials& cred,
                unsigned want) noexcept {
  if (cred.euid == 0) {
    // root: exec still requires some x bit on regular files (Linux rule),
    // but for simplicity (and because the workloads never exec) root may
    // do anything.
    return true;
  }
  const std::uint32_t mode = ino.perms();
  unsigned granted;
  if (cred.euid == ino.uid.load(std::memory_order_relaxed))
    granted = (mode >> 6) & 7;
  else if (cred.egid == ino.gid.load(std::memory_order_relaxed))
    granted = (mode >> 3) & 7;
  else granted = mode & 7;
  return (granted & want) == want;
}

namespace {
constexpr int kMaxSymlinkDepth = 8;
}  // namespace

Result<PathWalker::ChildRef> PathWalker::lookup_child(
    std::uint64_t dir_off, Inode& dir, std::string_view name) const {
  LookupCache* cache = cache_;
  std::uint64_t epoch = 0;
  if (cache != nullptr && LookupCache::cacheable(name)) {
    // The epoch is loaded (acquire) before the probe; a hit is only valid
    // against this snapshot, and a fill only happens when the epoch did not
    // move across the slow probe.  name_epoch routes to the bucket head
    // governing `name` once the directory is split, so mutations in other
    // buckets neither invalidate this binding nor block its fill.
    epoch = dirops_.name_epoch(dir, name).epoch;
    if (epoch != ~0ull) {
      LookupCache::Binding b;
      if (cache->get(dir_off, name, epoch, b))
        return ChildRef{b.fentry_off, b.inode_off};
    } else {
      cache = nullptr;  // directory being torn down: never cache
    }
  } else {
    cache = nullptr;
  }

  std::uint64_t child_off = 0;
  SIMURGH_ASSIGN_OR_RETURN(const std::uint64_t fe_off,
                           dirops_.lookup(dir, name, &child_off));
  if (child_off == 0) return Errc::not_found;  // racing delete
  if (cache != nullptr && dirops_.name_epoch(dir, name).epoch == epoch)
    cache->put(dir_off, name, epoch, fe_off, child_off);
  return ChildRef{fe_off, child_off};
}

bool PathWalker::dir_epoch_now(std::uint64_t ino_off, std::uint32_t bucket,
                               std::uint64_t& out) const noexcept {
  // Chain entries were recorded in the past: the inode may have been freed
  // since (pool memory is only ever reused for inodes, so the read itself
  // stays typed), and a rewritten `dir` field may hold any block offset.
  // Reject anything that cannot be a live, in-bounds first block before
  // dereferencing.
  if (ino_off == 0 || (ino_off & 7) != 0 ||
      ino_off + sizeof(Inode) > dev_.size())
    return false;
  const Inode* d = inode_at(ino_off);
  const std::uint64_t blk = d->dir.load().raw();
  if (blk == 0 || (blk & 7) != 0 || blk + sizeof(DirBlock) > dev_.size())
    return false;
  const auto* b = reinterpret_cast<const DirBlock*>(dev_.at(blk));
  const std::uint64_t depth = b->depth.load(std::memory_order_acquire);
  if (depth == 0) {
    // A bucket recorded against a since-unsplit directory compares safely
    // here: unsplitting re-stamps the anchor epoch above every retired
    // head epoch, so the comparison simply fails.
    out = b->epoch.load(std::memory_order_acquire);
    return true;
  }
  if (depth > kMaxBucketBits) return false;  // recycled/torn memory
  if (bucket >= (1u << depth)) return false;
  const std::uint64_t hoff = b->bucket_heads[bucket].load().raw();
  if (hoff == 0 || (hoff & 7) != 0 || hoff + sizeof(DirBlock) > dev_.size())
    return false;
  out = reinterpret_cast<const DirBlock*>(dev_.at(hoff))
            ->epoch.load(std::memory_order_acquire);
  return true;
}

bool PathWalker::chain_matches(const std::uint64_t* dirs,
                               const std::uint64_t* epochs,
                               const std::uint32_t* buckets,
                               std::uint32_t n) const noexcept {
  // Reverse order (leaf-most first, root last) makes one pass sound
  // against recycled directories: removing or moving dirs[i] out of
  // dirs[i-1] bumps dirs[i-1]'s epoch *before* dirs[i] can be freed, and
  // reading the parent after the child means that bump — which postdates
  // the recorded epoch, taken while the chain was intact — is visible by
  // the time dirs[i-1] is checked.  A freed dirs[i] can therefore match
  // only if its parent then mismatches; induction anchors at the
  // never-recycled root.
  for (std::uint32_t i = n; i-- > 0;) {
    std::uint64_t e;
    if (!dir_epoch_now(dirs[i], buckets[i], e) || e != epochs[i])
      return false;
  }
  return true;
}

Result<ResolveResult> PathWalker::walk(const Credentials& cred,
                                       std::string_view path,
                                       bool follow_symlink, bool want_parent,
                                       int depth, WalkTrace* trace) const {
  if (path.empty()) return Errc::not_found;  // POSIX: "" is ENOENT
  if (depth > kMaxSymlinkDepth) return Errc::too_many_links;

  // Fixed-size ancestor stack for ".." — no heap on the hot path.
  std::uint64_t stack[kMaxWalkDepth];
  unsigned sp = 0;
  stack[sp++] = root_off_;

  ResolveResult res;
  res.parent_off = root_off_;
  res.inode_off = root_off_;
  res.set_leaf("/");

  const std::size_t n = path.size();
  std::size_t i = 0;
  while (i < n) {
    while (i < n && path[i] == '/') ++i;
    std::size_t j = i;
    while (j < n && path[j] != '/') ++j;
    if (j == i) break;  // only trailing slashes remained
    const std::string_view comp = path.substr(i, j - i);
    if (comp.size() > kMaxName) return Errc::invalid;
    // Last component iff nothing but slashes follows.
    std::size_t k = j;
    while (k < n && path[k] == '/') ++k;
    const bool last = k >= n;
    i = j;

    const std::uint64_t cur_off = stack[sp - 1];
    Inode* cur = inode_at(cur_off);
    if (trace != nullptr && trace->ok) {
      // The epoch is recorded *before* this directory's permission check
      // and probe, so a chmod/mutation racing the walk leaves the recorded
      // value behind the final epoch and the fill-side re-check refuses it.
      std::uint64_t e = ~0ull;
      std::uint32_t bkt = 0;
      if (cur->is_dir()) {
        // The epoch governing *this component* in cur: the bucket head's
        // once cur is split, so only mutations of that bucket invalidate
        // the chain link.
        const DirOps::NameEpoch ne = dirops_.name_epoch(*cur, comp);
        e = ne.epoch;
        bkt = ne.bucket;
      }
      if (e == ~0ull || trace->n == PathCache::kMaxChain) {
        trace->ok = false;
      } else {
        trace->dirs[trace->n] = cur_off;
        trace->epochs[trace->n] = e;
        trace->buckets[trace->n] = bkt;
        ++trace->n;
      }
    }
    if (!cur->is_dir()) return Errc::not_dir;
    // Traversal needs execute permission on each directory.
    if (!may_access(*cur, cred, kMayExec)) return Errc::permission;

    if (comp == ".") {
      if (trace != nullptr) trace->ok = false;  // not a plain descent
      if (last) {
        res.parent_off = sp > 1 ? stack[sp - 2] : root_off_;
        res.inode_off = cur_off;
        res.set_leaf(".");
      }
      continue;
    }
    if (comp == "..") {
      if (trace != nullptr) trace->ok = false;  // not a plain descent
      if (sp > 1) --sp;  // "/.." clamps at the root (POSIX)
      if (last) {
        res.inode_off = stack[sp - 1];
        res.parent_off = sp > 1 ? stack[sp - 2] : root_off_;
        res.set_leaf("..");
      }
      continue;
    }

    auto child = lookup_child(cur_off, *cur, comp);
    if (!child.is_ok()) {
      if (child.code() == Errc::not_found && last && want_parent) {
        res.parent_off = cur_off;
        res.inode_off = 0;
        res.set_leaf(comp);
        return res;
      }
      return child.status();
    }
    const std::uint64_t child_off = child->inode_off;
    Inode* child_ino = inode_at(child_off);

    // Symlinks poison the trace whether followed (the restart walks a
    // different string) or returned (the same path means two different
    // things depending on follow_symlink).
    if (child_ino->is_symlink() && trace != nullptr) trace->ok = false;

    if (child_ino->is_symlink() && (follow_symlink || !last)) {
      // Restart against the link target.  One pre-sized buffer holds
      // target + the unconsumed remainder of the path; recursion is capped
      // by an explicit depth test (self-loops terminate with EMLINK-style
      // too_many_links rather than smashing the stack).
      if (depth + 1 > kMaxSymlinkDepth) return Errc::too_many_links;
      const std::uint64_t tlen =
          child_ino->size.load(std::memory_order_acquire);
      const char* tdata =
          tlen <= kInlineSymlinkMax
              ? child_ino->symlink
              : reinterpret_cast<const char*>(
                    dev_.at(child_ino->extents[0].dev_off));
      const std::string_view rest =
          last ? std::string_view{} : path.substr(k);
      std::string restart;
      restart.reserve(tlen + rest.size() + 1);
      restart.assign(tdata, tlen);
      if (!rest.empty()) {
        restart.push_back('/');
        restart.append(rest);
      }
      if (tlen > 0 && tdata[0] == '/') {
        return walk(cred, restart, follow_symlink, want_parent, depth + 1);
      }
      // Relative link: walk from the containing directory via a sub-walker
      // rooted there (the prefix cannot be rebuilt textually).
      PathWalker sub(dev_, dirops_, cur_off, cache_);
      return sub.walk(cred, restart, follow_symlink, want_parent, depth + 1);
    }

    if (last) {
      res.parent_off = cur_off;
      res.inode_off = child_off;
      res.set_leaf(comp);
      if (trace != nullptr && trace->ok) {
        trace->leaf_pos =
            static_cast<std::uint32_t>(comp.data() - path.data());
        trace->leaf_len = static_cast<std::uint32_t>(comp.size());
      }
      return res;
    }
    if (sp == kMaxWalkDepth) return Errc::name_too_long;
    stack[sp++] = child_off;
  }

  // Path was "/" or equivalent.
  return res;
}

Result<ResolveResult> PathWalker::resolve(const Credentials& cred,
                                          std::string_view path,
                                          bool follow_symlink) const {
  PathCache* pc = pcache_;
  if (pc == nullptr || !PathCache::cacheable(path))
    return walk(cred, path, follow_symlink, /*want_parent=*/false, 0);

  const std::uint64_t cred_key =
      (static_cast<std::uint64_t>(cred.euid) << 32) | cred.egid;
  PathCache::Entry e;
  if (pc->get(cred_key, path, e)) {
    // One child-before-parent pass (see chain_matches) revalidates the
    // whole traversal: bindings and permission outcomes replay identically
    // while every chained epoch stands.
    if (static_cast<std::size_t>(e.leaf_pos) + e.leaf_len <= path.size() &&
        e.leaf_len <= kMaxName &&
        chain_matches(e.dirs, e.epochs, e.buckets, e.n_dirs)) {
      ResolveResult res;
      res.parent_off = e.parent_off;
      res.inode_off = e.inode_off;
      res.set_leaf(path.substr(e.leaf_pos, e.leaf_len));
      pc->note_hit();
      return res;
    }
    pc->note_conflict();
  }

  WalkTrace tr;
  auto r = walk(cred, path, follow_symlink, /*want_parent=*/false, 0, &tr);
  if (r.is_ok() && r->inode_off != 0 && tr.ok && tr.n > 0 &&
      // Fill only when every traversed directory still carries the epoch
      // recorded before it was checked: then bindings *and* permission
      // outcomes replay identically until some chained epoch moves.
      chain_matches(tr.dirs, tr.epochs, tr.buckets, tr.n)) {
    PathCache::Entry fill;
    fill.parent_off = r->parent_off;
    fill.inode_off = r->inode_off;
    fill.leaf_pos = tr.leaf_pos;
    fill.leaf_len = tr.leaf_len;
    fill.n_dirs = tr.n;
    for (std::uint32_t i = 0; i < tr.n; ++i) {
      fill.dirs[i] = tr.dirs[i];
      fill.epochs[i] = tr.epochs[i];
      fill.buckets[i] = tr.buckets[i];
    }
    pc->put(cred_key, path, fill);
  }
  return r;
}

Result<ResolveResult> PathWalker::resolve_parent(
    const Credentials& cred, std::string_view path) const {
  auto r = walk(cred, path, /*follow_symlink=*/false, /*want_parent=*/true, 0);
  if (r.is_ok() && r->leaf() == "/")
    return Errc::invalid;  // cannot re-create root
  return r;
}

}  // namespace simurgh::core
