// Fault-injection layer: deterministic FaultPlan decisions, message
// faults (drop/duplicate/reorder/delay) recovered by the comm layer,
// deadline-bounded receives/barriers, dead-rank fail-fast, and
// corruption-detecting container I/O (CRC32 bit-flip fuzz).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "bqtree/compressed_raster.hpp"
#include "cluster/comm.hpp"
#include "cluster/fault.hpp"
#include "common/crc32.hpp"
#include "io/bq_file.hpp"
#include "io/zgrid.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- plans

TEST(FaultPlan, EmptyPlanInjectsNothing) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(plan.action_for(0, 1, 7, i).any());
  }
}

TEST(FaultPlan, ActionsAreDeterministicPerSeed) {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop_prob = 0.3;
  plan.duplicate_prob = 0.2;
  plan.reorder_prob = 0.25;
  plan.delay_prob = 0.2;

  // Same (src, dst, tag, index) -> identical decision, every time.
  int faulted = 0;
  for (RankId src = 0; src < 3; ++src) {
    for (RankId dst = 0; dst < 3; ++dst) {
      for (std::uint64_t i = 0; i < 64; ++i) {
        const FaultAction a = plan.action_for(src, dst, 5, i);
        const FaultAction b = plan.action_for(src, dst, 5, i);
        EXPECT_EQ(a.drop, b.drop);
        EXPECT_EQ(a.duplicate, b.duplicate);
        EXPECT_EQ(a.reorder, b.reorder);
        EXPECT_EQ(a.delay_ms, b.delay_ms);
        if (a.any()) ++faulted;
        // A dropped message has no other fate.
        if (a.drop) {
          EXPECT_FALSE(a.duplicate || a.reorder || a.delay_ms > 0);
        }
      }
    }
  }
  EXPECT_GT(faulted, 0);

  // A different seed produces a different schedule somewhere.
  FaultPlan other = plan;
  other.seed = 43;
  bool differs = false;
  for (std::uint64_t i = 0; i < 64 && !differs; ++i) {
    differs = plan.action_for(0, 1, 5, i).drop !=
              other.action_for(0, 1, 5, i).drop;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, ParsesFullSpec) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=7,drop=0.1,dup=0.05,reorder=0.15,delay=0.2,delay_ms=50,"
      "crash=2@partition_done#1");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.drop_prob, 0.1);
  EXPECT_DOUBLE_EQ(plan.duplicate_prob, 0.05);
  EXPECT_DOUBLE_EQ(plan.reorder_prob, 0.15);
  EXPECT_DOUBLE_EQ(plan.delay_prob, 0.2);
  EXPECT_EQ(plan.delay_ms, 50u);
  EXPECT_EQ(plan.crash.rank, 2u);
  EXPECT_EQ(plan.crash.point, CrashPoint::kPartitionDone);
  EXPECT_EQ(plan.crash.occurrence, 1u);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultPlan::parse("bogus=1"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("drop"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("drop=notanumber"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("crash=1"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("crash=1@no_such_point"),
               InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("abort=no_such_point"),
               InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("abort=startup#x"), InvalidArgument);
}

TEST(FaultPlan, ParsesAbortSpec) {
  const FaultPlan plan = FaultPlan::parse("abort=journal_record#2");
  EXPECT_EQ(plan.abort.point, CrashPoint::kJournalRecord);
  EXPECT_EQ(plan.abort.occurrence, 2u);
  EXPECT_FALSE(plan.empty());  // an abort alone is a non-empty plan

  const FaultPlan bare = FaultPlan::parse("abort=partition_done");
  EXPECT_EQ(bare.abort.point, CrashPoint::kPartitionDone);
  EXPECT_EQ(bare.abort.occurrence, 0u);

  EXPECT_EQ(to_string(CrashPoint::kJournalRecord), "journal_record");
}

/// Asserts the COMPLETE error text: problem, byte offset of the failing
/// token, the full spec, and the grammar -- so a user (and a test) can
/// locate a typo in a long spec without counting commas.
void expect_parse_error(std::string_view spec, std::size_t offset,
                        std::string_view problem) {
  const std::string expect = detail::format_parts(
      "fault plan: ", problem, " at byte ", offset, " of '", spec, "' (",
      FaultPlan::kGrammar, ")");
  try {
    (void)FaultPlan::parse(spec);
    FAIL() << "spec '" << spec << "' was not rejected";
  } catch (const InvalidArgument& e) {
    EXPECT_EQ(e.what(), expect);
  }
}

TEST(FaultPlan, ParseErrorsPinpointByteOffsetAndGrammar) {
  expect_parse_error("bogus=1", 0, "unknown key 'bogus'");
  expect_parse_error("drop=0.1,oops", 9, "expected key=value, got 'oops'");
  expect_parse_error("drop=1.5", 5,
                     "key 'drop' needs a probability in [0,1], got '1.5'");
  expect_parse_error("seed=3,dup=x", 11,
                     "key 'dup' needs a probability in [0,1], got 'x'");
  expect_parse_error("seed=abc", 5,
                     "key 'seed' needs a non-negative integer, got 'abc'");
  expect_parse_error(
      "crash=1", 6,
      "key 'crash' needs <rank>@<point>[#<occurrence>], got '1'");
  expect_parse_error("crash=1@nope", 8, "unknown crash point 'nope'");
  expect_parse_error("abort=nope", 6, "unknown crash point 'nope'");
  expect_parse_error(
      "abort=startup#x", 14,
      "key 'abort occurrence' needs a non-negative integer, got 'x'");
}

// --------------------------------------------------- retry backoff jitter

TEST(FaultPlan, DecorrelatedBackoffIsDeterministicAndBounded) {
  // Decorrelated jitter: each attempt draws uniformly from
  // [base, 3 * previous], keyed by (seed, receiver, src, tag, attempt) --
  // so replays with the same seed reproduce the same retry schedule
  // byte for byte.
  const std::int64_t base = 10;
  std::int64_t prev = base;
  for (std::uint32_t attempt = 0; attempt < 24; ++attempt) {
    const std::int64_t a =
        decorrelated_backoff_ms(7, 0, 2, 101, attempt, base, prev);
    const std::int64_t b =
        decorrelated_backoff_ms(7, 0, 2, 101, attempt, base, prev);
    EXPECT_EQ(a, b) << "attempt " << attempt;  // deterministic
    EXPECT_GE(a, base);
    EXPECT_LE(a, std::max(base, 3 * prev));
    prev = a;
  }
}

TEST(FaultPlan, DecorrelatedBackoffDecorrelatesStreams) {
  // Different receivers, sources, tags, attempts, or seeds must not march
  // in lockstep -- synchronized retry storms are what jitter prevents.
  const std::int64_t base = 10;
  const std::int64_t prev = 1000;  // wide range: collisions unlikely
  const std::int64_t ref = decorrelated_backoff_ms(1, 0, 1, 5, 3, base, prev);
  int differs = 0;
  differs += decorrelated_backoff_ms(2, 0, 1, 5, 3, base, prev) != ref;
  differs += decorrelated_backoff_ms(1, 3, 1, 5, 3, base, prev) != ref;
  differs += decorrelated_backoff_ms(1, 0, 2, 5, 3, base, prev) != ref;
  differs += decorrelated_backoff_ms(1, 0, 1, 6, 3, base, prev) != ref;
  differs += decorrelated_backoff_ms(1, 0, 1, 5, 4, base, prev) != ref;
  EXPECT_GE(differs, 4);  // allow one accidental collision, not a pattern
}

TEST(FaultPlan, DecorrelatedBackoffHandlesDegenerateInputs) {
  // Zero/negative base or previous must still produce a sane wait.
  EXPECT_GE(decorrelated_backoff_ms(1, 0, 1, 5, 0, 0, 0), 1);
  EXPECT_GE(decorrelated_backoff_ms(1, 0, 1, 5, 0, -5, -5), 1);
  const std::int64_t v = decorrelated_backoff_ms(1, 0, 1, 5, 9, 1, 1);
  EXPECT_GE(v, 1);
  EXPECT_LE(v, 3);
}

// ----------------------------------------------------- message faults

TEST(CommFault, DroppedMessagesRecoveredByRetry) {
  ClusterOptions opts;
  opts.faults.seed = 11;
  opts.faults.drop_prob = 1.0;  // every message lost in transit
  run_cluster(2, opts, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<std::uint32_t> payload = {1, 2, 3, 4};
      comm.send<std::uint32_t>(1, 7, payload);
    } else {
      // The retry path triggers retransmission of the dropped message.
      const auto got = comm.recv<std::uint32_t>(0, 7);
      EXPECT_EQ(got, (std::vector<std::uint32_t>{1, 2, 3, 4}));
    }
  });
}

TEST(CommFault, DuplicatedMessagesMatchByTag) {
  ClusterOptions opts;
  opts.faults.seed = 5;
  opts.faults.duplicate_prob = 1.0;
  run_cluster(2, opts, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send<std::uint32_t>(1, 1, std::vector<std::uint32_t>{10});
      comm.send<std::uint32_t>(1, 2, std::vector<std::uint32_t>{20});
    } else {
      EXPECT_EQ(comm.recv<std::uint32_t>(0, 2),
                (std::vector<std::uint32_t>{20}));
      EXPECT_EQ(comm.recv<std::uint32_t>(0, 1),
                (std::vector<std::uint32_t>{10}));
      // The duplicates are still there, identical to the originals.
      EXPECT_EQ(comm.recv<std::uint32_t>(0, 1),
                (std::vector<std::uint32_t>{10}));
      EXPECT_EQ(comm.recv<std::uint32_t>(0, 2),
                (std::vector<std::uint32_t>{20}));
    }
  });
}

TEST(CommFault, ReorderedAndDelayedMessagesStillArrive) {
  ClusterOptions opts;
  opts.faults.seed = 3;
  opts.faults.reorder_prob = 1.0;
  opts.faults.delay_prob = 1.0;
  opts.faults.delay_ms = 10;
  run_cluster(2, opts, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (std::uint32_t i = 0; i < 8; ++i) {
        comm.send<std::uint32_t>(1, static_cast<int>(i),
                                 std::vector<std::uint32_t>{i});
      }
    } else {
      for (std::uint32_t i = 8; i-- > 0;) {
        EXPECT_EQ(comm.recv<std::uint32_t>(0, static_cast<int>(i)),
                  (std::vector<std::uint32_t>{i}));
      }
    }
  });
}

// --------------------------------------------- deadlines and dead ranks

TEST(CommFault, RecvTimesOutOnSilence) {
  run_cluster(2, [](Communicator& comm) {
    if (comm.rank() == 1) {
      std::vector<std::byte> out;
      const Status s =
          comm.recv_bytes(0, 9, Deadline::after_ms(80), out);
      EXPECT_EQ(s.code(), StatusCode::kTimeout);
    }
    comm.barrier();  // keeps rank 0 alive while rank 1 waits
  });
}

TEST(CommFault, RecvFromDeadRankFailsFast) {
  run_cluster(2, [](Communicator& comm) {
    if (comm.rank() == 0) return;  // exits immediately -> marked dead
    const auto start = Clock::now();
    std::vector<std::byte> out;
    const Status s =
        comm.recv_bytes(0, 4, Deadline::after_ms(10000), out);
    EXPECT_EQ(s.code(), StatusCode::kRankDead);
    // Fail-fast: nowhere near the 10 s deadline.
    EXPECT_LT(Clock::now() - start, std::chrono::seconds(5));
  });
}

TEST(CommFault, InFlightMessageFromDeadRankStillReceivable) {
  run_cluster(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send<std::uint32_t>(1, 3, std::vector<std::uint32_t>{77});
      return;  // dies right after sending
    }
    const auto got = comm.recv<std::uint32_t>(0, 3);
    EXPECT_EQ(got, (std::vector<std::uint32_t>{77}));
    EXPECT_TRUE(comm.rank_dead(0) ||
                !comm.rank_dead(0));  // query is always safe
  });
}

TEST(CommFault, BarrierTimesOutWhenARankStaysAway) {
  run_cluster(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      // Never enters the barrier; waits for rank 1's go-ahead instead.
      (void)comm.recv<std::uint32_t>(1, 1);
    } else {
      const Status s = comm.barrier(Deadline::after_ms(60));
      EXPECT_EQ(s.code(), StatusCode::kTimeout);
      comm.send<std::uint32_t>(0, 1, std::vector<std::uint32_t>{1});
    }
  });
}

TEST(CommFault, BarrierReportsDeadRank) {
  ClusterOptions opts;
  run_cluster(2, opts, [](Communicator& comm) {
    if (comm.rank() == 0) return;  // dies; the barrier can never complete
    const Status s = comm.barrier(Deadline::after_ms(10000));
    EXPECT_EQ(s.code(), StatusCode::kRankDead);
  });
}

TEST(CommFault, RecvRejectsMisalignedPayloadWithProvenance) {
  run_cluster(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_bytes(1, 7, std::vector<std::byte>(3));
    } else {
      std::vector<std::uint32_t> out;
      const Status s =
          comm.recv<std::uint32_t>(0, 7, Deadline::after_ms(5000), out);
      EXPECT_EQ(s.code(), StatusCode::kCorrupt);
      EXPECT_NE(s.message().find("from rank 0"), std::string::npos)
          << s.message();
      EXPECT_NE(s.message().find("tag 7"), std::string::npos)
          << s.message();
      EXPECT_NE(s.message().find("3 bytes"), std::string::npos)
          << s.message();
    }
  });
}

TEST(CommFault, ScriptedCrashPropagatesWhenNotTolerated) {
  ClusterOptions opts;
  opts.faults.crash = {1, CrashPoint::kStartup, 0};
  EXPECT_THROW(run_cluster(2, opts,
                           [](Communicator& comm) {
                             comm.checkpoint(CrashPoint::kStartup);
                           }),
               RankCrash);
}

TEST(CommFault, ToleratedCrashKillsOnlyThatRank) {
  ClusterOptions opts;
  opts.faults.crash = {1, CrashPoint::kStartup, 0};
  opts.tolerate_rank_crash = true;
  run_cluster(2, opts, [](Communicator& comm) {
    comm.checkpoint(CrashPoint::kStartup);
    EXPECT_NE(comm.rank(), 1u);  // rank 1 never gets here
  });
}

// -------------------------------------------------- corruption-detecting I/O

class CorruptIoFault : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("zh_fault_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::vector<char> slurp(const std::string& p) {
    std::ifstream is(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
  }

  static void spit(const std::string& p, const std::vector<char>& bytes) {
    std::ofstream os(p, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
};

TEST_F(CorruptIoFault, Crc32KnownAnswerAndIncremental) {
  const char* msg = "123456789";
  EXPECT_EQ(crc32(msg, 9), 0xCBF43926u);  // IEEE 802.3 check value
  Crc32 inc;
  inc.update(msg, 4);
  inc.update(msg + 4, 5);
  EXPECT_EQ(inc.value(), 0xCBF43926u);
  EXPECT_EQ(crc32(msg, 0), 0u);
}

TEST_F(CorruptIoFault, Crc32SplitAtAnyOffsetMatchesOneShot) {
  // Slice-by-8 takes eight bytes per step: every split point 0-16 of a
  // buffer starting one byte past alignment must agree with the one-shot
  // CRC, whatever the head/tail byte counts on either side.
  std::vector<unsigned char> storage(1 + 301);
  std::mt19937 rng(23);
  for (auto& b : storage) b = static_cast<unsigned char>(rng());
  const unsigned char* data = storage.data() + 1;
  const std::size_t size = storage.size() - 1;
  const std::uint32_t whole = crc32(data, size);
  for (std::size_t split = 0; split <= 16; ++split) {
    Crc32 inc;
    inc.update(data, split);
    inc.update(data + split, size - split);
    EXPECT_EQ(inc.value(), whole) << "split at " << split;
  }
}

TEST_F(CorruptIoFault, ZgridDetectsEverySingleBitFlip) {
  const DemRaster r = test::random_raster(6, 5, 21, 4000);
  write_zgrid(path("v2.zgrid"), r);
  const std::vector<char> good = slurp(path("v2.zgrid"));
  ASSERT_FALSE(good.empty());
  // Sanity: the unmodified file round-trips.
  EXPECT_EQ(read_zgrid(path("v2.zgrid")), r);

  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<char> bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      spit(path("flip.zgrid"), bad);
      EXPECT_THROW((void)read_zgrid(path("flip.zgrid")), IoError)
          << "bit flip at byte " << byte << " bit " << bit
          << " was not detected";
    }
  }
}

TEST_F(CorruptIoFault, BqDetectsEverySingleBitFlip) {
  const DemRaster r = test::random_raster(20, 14, 9, 255);
  write_bq(path("v2.bq"), BqCompressedRaster::encode(r, 8));
  const std::vector<char> good = slurp(path("v2.bq"));
  ASSERT_FALSE(good.empty());
  EXPECT_EQ(read_bq(path("v2.bq")).decode_all(), r);

  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<char> bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      spit(path("flip.bq"), bad);
      EXPECT_THROW((void)read_bq(path("flip.bq")), IoError)
          << "bit flip at byte " << byte << " bit " << bit
          << " was not detected";
    }
  }
}

TEST_F(CorruptIoFault, ZgridTruncationAtEveryLengthDetected) {
  const DemRaster r = test::random_raster(4, 4, 2, 100);
  write_zgrid(path("full.zgrid"), r);
  const std::vector<char> good = slurp(path("full.zgrid"));
  for (std::size_t len = 0; len < good.size(); ++len) {
    spit(path("trunc.zgrid"),
         std::vector<char>(good.begin(),
                           good.begin() + static_cast<std::ptrdiff_t>(len)));
    EXPECT_THROW((void)read_zgrid(path("trunc.zgrid")), IoError)
        << "truncation to " << len << " bytes was not detected";
  }
}

TEST_F(CorruptIoFault, ZgridRejectsOldVersionWithClearMessage) {
  // Hand-build a version-1 header (pre-checksum format).
  std::vector<char> v1 = {'Z', 'G', 'R', 'D', 1, 0, 0, 0};
  v1.resize(v1.size() + 59, 0);
  spit(path("old.zgrid"), v1);
  try {
    (void)read_zgrid(path("old.zgrid"));
    FAIL() << "version-1 zgrid was not rejected";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST_F(CorruptIoFault, BqRejectsLegacyFormatWithReencodeHint) {
  std::vector<char> legacy = {'Z', 'B', 'Q', '1'};
  legacy.resize(64, 0);
  spit(path("legacy.bq"), legacy);
  try {
    (void)read_bq(path("legacy.bq"));
    FAIL() << "legacy ZBQ1 file was not rejected";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("re-encode"), std::string::npos)
        << e.what();
  }
}

TEST_F(CorruptIoFault, BqRejectsAbsurdTileCountWithoutAllocating) {
  // A valid prefix whose header claims 2^60 tiles must be rejected by the
  // size check, not by attempting the allocation.
  const DemRaster r = test::random_raster(8, 8, 3, 50);
  write_bq(path("tiny.bq"), BqCompressedRaster::encode(r, 8));
  std::vector<char> bytes = slurp(path("tiny.bq"));
  // tile count lives at offset 4 (magic) + 4 (version) + 3*8 + 4*8.
  const std::size_t off = 4 + 4 + 24 + 32;
  ASSERT_LT(off + 8, bytes.size());
  const std::uint64_t absurd = std::uint64_t{1} << 60;
  std::memcpy(bytes.data() + off, &absurd, sizeof(absurd));
  spit(path("absurd.bq"), bytes);
  EXPECT_THROW((void)read_bq(path("absurd.bq")), IoError);
}

}  // namespace
}  // namespace zh
