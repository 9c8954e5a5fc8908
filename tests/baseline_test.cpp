// White-box tests for the baseline reader-writer locks.  The baselines are
// load-bearing for the experiments (they are the contrast class for the
// paper's O(1) claims), so their semantics need the same scrutiny.
#include <gtest/gtest.h>

#include <atomic>

#include "src/baseline/big_reader.hpp"
#include "src/baseline/centralized_rw.hpp"
#include "src/baseline/phase_fair.hpp"
#include "src/harness/thread_coord.hpp"

namespace bjrw {
namespace {

// ---------- centralized, writer preference ----------

TEST(CentralizedWriterPref, WaitingWriterBlocksNewReaders) {
  // Reader holds; writer arrives (sets the waiting bit); a late reader must
  // not get in before the writer.
  CentralizedWriterPrefRwLock<> l(3);
  std::atomic<int> phase{0};
  std::atomic<bool> late_reader_in{false};

  run_threads(3, [&](std::size_t tid) {
    if (tid == 0) {  // pinning reader
      l.read_lock(0);
      phase.store(1);
      spin_until<YieldSpin>([&] { return phase.load() == 2; });
      // Writer is waiting now; give the late reader a window to misbehave.
      for (int i = 0; i < 300; ++i) std::this_thread::yield();
      EXPECT_FALSE(late_reader_in.load())
          << "reader overtook a waiting writer under writer preference";
      l.read_unlock(0);
    } else if (tid == 1) {  // writer
      spin_until<YieldSpin>([&] { return phase.load() == 1; });
      phase.store(2);
      l.write_lock(1);
      EXPECT_FALSE(late_reader_in.load());
      l.write_unlock(1);
    } else {  // late reader
      spin_until<YieldSpin>([&] { return phase.load() == 2; });
      for (int i = 0; i < 50; ++i) std::this_thread::yield();
      l.read_lock(2);
      late_reader_in.store(true);
      l.read_unlock(2);
    }
  });
  EXPECT_TRUE(late_reader_in.load());
}

TEST(CentralizedReaderPref, ReadersStreamPastWaitingWriter) {
  CentralizedReaderPrefRwLock<> l(3);
  std::atomic<int> phase{0};
  std::atomic<bool> writer_in{false};
  std::atomic<int> late_reads{0};

  run_threads(3, [&](std::size_t tid) {
    if (tid == 0) {  // pinning reader
      l.read_lock(0);
      phase.store(1);
      spin_until<YieldSpin>([&] { return late_reads.load() >= 3; });
      EXPECT_FALSE(writer_in.load());
      l.read_unlock(0);
    } else if (tid == 1) {  // writer
      spin_until<YieldSpin>([&] { return phase.load() == 1; });
      phase.store(2);
      l.write_lock(1);
      writer_in.store(true);
      l.write_unlock(1);
    } else {  // reader barging repeatedly while the writer waits
      spin_until<YieldSpin>([&] { return phase.load() == 2; });
      for (int i = 0; i < 200; ++i) std::this_thread::yield();
      for (int i = 0; i < 5; ++i) {
        l.read_lock(2);
        late_reads.fetch_add(1);
        l.read_unlock(2);
      }
    }
  });
  EXPECT_TRUE(writer_in.load());
  EXPECT_GE(late_reads.load(), 3);
}

// ---------- phase-fair ticket lock ----------

TEST(PhaseFair, WriterPhaseAdmitsPrecedingReadersOnly) {
  // Exact count check: the writer must wait for exactly the readers that
  // entered before it, and its release must free the ones that arrived
  // during its phase.
  PhaseFairRwLock<> l(4);
  std::uint64_t counter = 0;
  run_threads(4, [&](std::size_t tid) {
    for (int i = 0; i < 1000; ++i) {
      if (tid == 0) {
        l.write_lock(0);
        ++counter;
        l.write_unlock(0);
      } else {
        l.read_lock(static_cast<int>(tid));
        (void)counter;
        l.read_unlock(static_cast<int>(tid));
      }
    }
  });
  EXPECT_EQ(counter, 1000u);
}

TEST(PhaseFair, AlternatesPhasesUnderWriterPressure) {
  // Two writers and one reader: phase fairness admits the reader between
  // writer phases, so the reader finishes its quota even under a steady
  // writer stream (a reader-starvation regression test).
  PhaseFairRwLock<> l(3);
  std::atomic<bool> reader_done{false};
  std::atomic<std::uint64_t> writes{0};
  run_threads(3, [&](std::size_t tid) {
    if (tid == 0) {
      for (int i = 0; i < 200; ++i) {
        l.read_lock(0);
        l.read_unlock(0);
      }
      reader_done.store(true);
    } else {
      while (!reader_done.load()) {
        l.write_lock(static_cast<int>(tid));
        writes.fetch_add(1);
        l.write_unlock(static_cast<int>(tid));
      }
    }
  });
  EXPECT_TRUE(reader_done.load());
}

TEST(PhaseFair, SequentialMixedUse) {
  PhaseFairRwLock<> l(1);
  for (int i = 0; i < 500; ++i) {
    l.read_lock(0);
    l.read_unlock(0);
    l.write_lock(0);
    l.write_unlock(0);
  }
}

// ---------- big-reader lock ----------

TEST(BigReader, WriterDrainsEveryReaderSlot) {
  constexpr int kReaders = 5;
  BigReaderLock<> l(kReaders + 1);
  std::atomic<int> inside{0};
  std::atomic<bool> writer_in{false};
  std::atomic<int> released{0};

  run_threads(kReaders + 1, [&](std::size_t tid) {
    if (tid < kReaders) {
      l.read_lock(static_cast<int>(tid));
      inside.fetch_add(1);
      // All readers hold their slots until everyone is in, then release
      // one by one; the writer may enter only after the LAST release.
      spin_until<YieldSpin>(
          [&] { return inside.load() == kReaders; });
      spin_until<YieldSpin>(
          [&] { return released.load() == static_cast<int>(tid); });
      EXPECT_FALSE(writer_in.load())
          << "writer entered while reader " << tid << " held its slot";
      l.read_unlock(static_cast<int>(tid));
      released.fetch_add(1);
    } else {
      spin_until<YieldSpin>([&] { return inside.load() == kReaders; });
      l.write_lock(static_cast<int>(tid));
      writer_in.store(true);
      l.write_unlock(static_cast<int>(tid));
    }
  });
  EXPECT_TRUE(writer_in.load());
  EXPECT_EQ(released.load(), kReaders);
}

TEST(BigReader, ReaderStandsDownForActiveWriter) {
  BigReaderLock<> l(2);
  std::atomic<bool> writer_holds{false};
  std::atomic<bool> reader_in{false};
  run_threads(2, [&](std::size_t tid) {
    if (tid == 0) {
      l.write_lock(0);
      writer_holds.store(true);
      for (int i = 0; i < 200; ++i) std::this_thread::yield();
      EXPECT_FALSE(reader_in.load());
      l.write_unlock(0);
    } else {
      // Arrive only once the writer is inside, however the two threads
      // are scheduled: a reader that got in first would be legal.
      spin_until<YieldSpin>([&] { return writer_holds.load(); });
      l.read_lock(1);
      reader_in.store(true);
      l.read_unlock(1);
    }
  });
  EXPECT_TRUE(reader_in.load());
}

}  // namespace
}  // namespace bjrw
