// The one idle policy every waiting thread in the serving stack follows:
// spin, then park.
//
// The paper's waiters are O(1) RMR because they spin locally on a word that
// changes once instead of blocking (Mellor-Crummey and Scott's local-spin
// principle).  The serving threads apply the same choice at the OS level:
// a worker on an empty queue, the NetServer event loop with nothing to do
// and a KvClient waiting on its response keep probing for `grace_ns` after
// their last progress — the work usually arrives within a few microseconds,
// and a probe is far cheaper than a sleep plus a wake-up — and only then
// block in the kernel (futex, epoll_wait, poll) until woken.
//
// IdlePolicy is the timing half of that, as a pure state machine: it makes
// no syscall and reads no clock.  The caller probes, reports progress, and
// asks whether to park with a timestamp it took itself (the free now_ns(),
// never an injectable ClockSource, so a frozen virtual clock cannot pin a
// thread in its spin phase).  What a probe is, how the caller relaxes
// between probes and how it parks stay with the caller.
#pragma once

#include <cstdint>

namespace bjrw {

// How long an idle thread keeps probing before it blocks: the default of
// ServeConfig::park_grace_ns and the fixed grace of a KvClient's wait.
// Too short puts a wake-up back on every closed-loop round trip; too long
// keeps idle spinners hot.  100us is a few thousand failed probes.
inline constexpr std::uint64_t kDefaultParkGraceNs = 100'000;

class IdlePolicy {
 public:
  explicit IdlePolicy(std::uint64_t grace_ns) : grace_ns_(grace_ns) {}

  // The last probe found work (or the caller just woke from a park): the
  // next idle probe starts a fresh grace.  Reads no clock, so the busy
  // path pays nothing for it.
  void progressed() { idle_ = false; }

  // Called after a probe that found nothing, with the current time: true
  // once `grace_ns` has passed since the first such probe after the last
  // progress.  The first idle probe stamps the start.
  bool should_park(std::uint64_t now_ns) {
    if (!idle_) {
      idle_ = true;
      idle_since_ = now_ns;
    }
    return now_ns - idle_since_ >= grace_ns_;
  }

 private:
  std::uint64_t grace_ns_;
  std::uint64_t idle_since_ = 0;
  bool idle_ = false;
};

}  // namespace bjrw
