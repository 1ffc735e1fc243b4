// End-to-end security architecture tests (Fig. 2 integration): the mounted
// file system registers protected entry points through the bootstrap model
// and all privilege rules hold at the FS level.
#include "fs_fixture.h"
#include "protsec/cyclemodel.h"

namespace simurgh::testing {
namespace {

using core::kOpenCreate;
using core::kOpenWrite;
using protsec::Cpl;
using protsec::Fault;

TEST_F(FsTest, MountRegistersProtectedLibrary) {
  const auto& h = fs_->prot_handle();
  EXPECT_EQ(h.n_entries, 3u);
  EXPECT_NE(h.base_vaddr, 0u);
  // Entry 0 (fs_identify) returns the superblock magic with privilege.
  std::uint64_t r = 0;
  EXPECT_EQ(fs_->gateway().jmpp(h.entry(0), nullptr, &r), Fault::none);
  EXPECT_EQ(r, core::kSuperblockMagic);
}

TEST_F(FsTest, ProtectedStatEntryResolvesPaths) {
  ASSERT_TRUE(p().open("/guarded", kOpenCreate | kOpenWrite).is_ok());
  const auto& h = fs_->prot_handle();
  char path[] = "/guarded";
  std::uint64_t inode = 0;
  EXPECT_EQ(fs_->gateway().jmpp(h.entry(1), path, &inode), Fault::none);
  EXPECT_EQ(inode, p().stat("/guarded")->inode);
  char missing[] = "/missing";
  EXPECT_EQ(fs_->gateway().jmpp(h.entry(1), missing, &inode), Fault::none);
  EXPECT_EQ(inode, 0u);
}

TEST_F(FsTest, NestedProtectedCallWorks) {
  const auto& h = fs_->prot_handle();
  std::uint64_t r = 0;
  EXPECT_EQ(fs_->gateway().jmpp(h.entry(2), nullptr, &r), Fault::none);
  EXPECT_EQ(r, core::kSuperblockMagic);
  EXPECT_EQ(fs_->gateway().nesting(), 0);
  EXPECT_EQ(fs_->gateway().current_cpl(), Cpl::user);
}

TEST_F(FsTest, JmppIntoMiddleOfProtectedFunctionFaults) {
  // The Fig. 1 rule: only fixed entry offsets are valid jmpp targets.
  const auto& h = fs_->prot_handle();
  EXPECT_EQ(fs_->gateway().jmpp(h.base_vaddr + 0x10, nullptr),
            Fault::bad_entry_offset);
  // The page holds four fixed slots: three are registered (identify, stat,
  // nested call) and the fourth is empty.  Probing four strides in lands
  // on the next, unmapped page and must fault in the walk.
  EXPECT_EQ(fs_->gateway().jmpp(h.base_vaddr + 4 * protsec::kEntryStride,
                                nullptr),
            Fault::not_present);
}

TEST_F(FsTest, UserModeCannotForgeProtectedMappings) {
  auto& pt = fs_->gateway().page_table();
  // Attempt to remap the protected page writable from user mode.
  protsec::Pte attack;
  attack.writable = true;
  attack.user = true;
  EXPECT_EQ(pt.remap(Cpl::user, fs_->prot_handle().base_vaddr, attack),
            Fault::privileged_bit);
  // Attempt to mark an arbitrary page executable-protected from user mode.
  protsec::Pte ep_page;
  ep_page.ep = true;
  EXPECT_EQ(pt.map(Cpl::user, 0xdead000, ep_page), Fault::privileged_bit);
}

TEST_F(FsTest, CredentialsArePinnedAtBootstrapNotForgeable) {
  // The kernel module records euid/egid inside protected state at preload;
  // permission checks use that copy, so a different process handle with
  // different creds sees different outcomes for the same call sequence.
  ASSERT_TRUE(p().open("/mine", kOpenCreate | kOpenWrite, 0600).is_ok());
  auto intruder = fs_->open_process(4444, 4444);
  EXPECT_EQ(intruder->open("/mine", core::kOpenRead).code(),
            Errc::permission);
  EXPECT_EQ(intruder->chmod("/mine", 0777).code(), Errc::permission);
  EXPECT_EQ(intruder->unlink("/mine").code(), Errc::ok)
      << "root dir is world-writable: unlink is a *directory* write";
}

TEST_F(FsTest, StickyDefaultsCanBeTightened) {
  // After chmod-ing the root to 0755 (owned by uid 0 at format), other
  // users can no longer create files in it.
  auto root = fs_->open_process(0, 0);
  ASSERT_TRUE(root->chmod("/", 0755).is_ok());
  EXPECT_EQ(p().open("/nope", kOpenCreate | kOpenWrite).code(),
            Errc::permission);
  EXPECT_TRUE(root->open("/yes", kOpenCreate | kOpenWrite).is_ok());
}

TEST_F(FsTest, JmppDeltaIsWhatTheEvaluationCharges) {
  // §5.1: "we added 46 cycles (the difference between normal and jmpp
  // calls) to each Simurgh call."  The gateway's accounting must match.
  auto& gw = fs_->gateway();
  gw.reset_cycles();
  std::uint64_t r = 0;
  ASSERT_EQ(gw.jmpp(fs_->prot_handle().entry(0), nullptr, &r), Fault::none);
  EXPECT_EQ(gw.cycles(),
            protsec::kCycleModel.call + protsec::kCycleModel.jmpp_delta());
}

}  // namespace
}  // namespace simurgh::testing
