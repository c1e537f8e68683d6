// ObservationLog suite (ctest labels: online, fast, fault). Covers the
// checksummed line codec, append/replay bit-exactness, crash recovery
// (torn tail truncated, mid-file corruption = kDataLoss, contiguous
// sequence numbers), width enforcement, tail windowing equivalence with
// ts::SlidingBuffer, and the online.append fault site.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "online/observation_log.h"
#include "ts/window.h"

namespace emaf::online {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<double> Row(int64_t seq, int64_t width) {
  std::vector<double> row(width);
  for (int64_t v = 0; v < width; ++v) {
    row[static_cast<size_t>(v)] = 0.1 * static_cast<double>(seq) +
                                  1e-3 * static_cast<double>(v) + 1.0 / 3.0;
  }
  return row;
}

TEST(ObservationLineTest, RoundTripsBitExactly) {
  const std::vector<double> values = {1.0 / 3.0, -2.718281828459045, 0.0,
                                      1e-300};
  const std::string line = EncodeObservationLine(41, values);
  Result<DecodedObservation> decoded = DecodeObservationLine(line);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().sequence, 41u);
  ASSERT_EQ(decoded.value().values.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(decoded.value().values[i], values[i]) << "value " << i;
  }
}

// The on-disk bytes of one row, as written before the journal framing
// moved to common/journal.h: existing logs must keep loading.
TEST(ObservationLineTest, EncodedBytesArePinned) {
  EXPECT_EQ(EncodeObservationLine(41, std::vector<double>{1.0 / 3,
                                                          -2.718281828459045,
                                                          0.0, 1e-300}),
            "e8b97d4d|v1|41|0.33333333333333331|-2.7182818284590451|0|"
            "1e-300");
}

TEST(ObservationLineTest, RejectsCorruptionByField) {
  const std::string line = EncodeObservationLine(7, std::vector<double>{1.0});
  // Flip one payload byte: CRC mismatch.
  std::string corrupt = line;
  corrupt[line.size() - 1] ^= 1;
  EXPECT_EQ(DecodeObservationLine(corrupt).status().code(),
            StatusCode::kDataLoss);
  // Break the CRC field itself: as much data loss as a CRC mismatch.
  EXPECT_EQ(DecodeObservationLine("zzzz|v1|1|1.0").status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeObservationLine("no-delimiter").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ObservationLogTest, AppendsAndRepliesBitExactly) {
  const std::string dir = FreshDir("obslog_roundtrip");
  Result<ObservationLog> opened = ObservationLog::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ObservationLog& log = opened.value();
  for (int64_t seq = 1; seq <= 5; ++seq) {
    Result<uint64_t> assigned = log.Append("p01", Row(seq, 3));
    ASSERT_TRUE(assigned.ok()) << assigned.status().ToString();
    EXPECT_EQ(assigned.value(), static_cast<uint64_t>(seq));
  }
  EXPECT_EQ(log.rows("p01"), 5);
  EXPECT_EQ(log.last_sequence("p01"), 5u);
  Result<tensor::Tensor> replayed = log.Replay("p01");
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ASSERT_EQ(replayed.value().dim(0), 5);
  ASSERT_EQ(replayed.value().dim(1), 3);
  for (int64_t seq = 1; seq <= 5; ++seq) {
    const std::vector<double> expected = Row(seq, 3);
    for (int64_t v = 0; v < 3; ++v) {
      EXPECT_EQ(replayed.value().data()[(seq - 1) * 3 + v],
                expected[static_cast<size_t>(v)])
          << "row " << seq << " var " << v;
    }
  }
  EXPECT_EQ(log.Replay("nobody").status().code(), StatusCode::kNotFound);
}

TEST(ObservationLogTest, RecoveryReplaysIdentically) {
  const std::string dir = FreshDir("obslog_recovery");
  {
    Result<ObservationLog> opened = ObservationLog::Open(dir);
    ASSERT_TRUE(opened.ok());
    for (int64_t seq = 1; seq <= 8; ++seq) {
      ASSERT_TRUE(opened.value().Append("p02", Row(seq, 4)).ok());
    }
  }
  Result<ObservationLog> reopened = ObservationLog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().rows("p02"), 8);
  EXPECT_EQ(reopened.value().last_sequence("p02"), 8u);
  // Appends continue the recovered sequence, not restart it.
  Result<uint64_t> next = reopened.value().Append("p02", Row(9, 4));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 9u);
  Result<tensor::Tensor> replayed = reopened.value().Replay("p02");
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().dim(0), 9);
}

TEST(ObservationLogTest, TornTailIsTruncatedAndCounted) {
  const std::string dir = FreshDir("obslog_torn");
  {
    Result<ObservationLog> opened = ObservationLog::Open(dir);
    ASSERT_TRUE(opened.ok());
    for (int64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(opened.value().Append("p03", Row(seq, 2)).ok());
    }
  }
  // Simulate a crash mid-append: half a line at the end of the file.
  {
    std::ofstream out(dir + "/p03.obslog", std::ios::app);
    out << "deadbeef|v1|4|0.5";  // no newline, wrong CRC
  }
  Result<ObservationLog> recovered = ObservationLog::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().rows("p03"), 3);
  EXPECT_EQ(recovered.value().torn_tails_recovered(), 1);
  // The torn bytes are gone from disk: a new append lands cleanly and a
  // third recovery sees 4 intact rows.
  Result<uint64_t> next = recovered.value().Append("p03", Row(4, 2));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 4u);
  Result<ObservationLog> again = ObservationLog::Open(dir);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().rows("p03"), 4);
  EXPECT_EQ(again.value().torn_tails_recovered(), 0);
}

TEST(ObservationLogTest, MidFileCorruptionIsDataLoss) {
  const std::string dir = FreshDir("obslog_corrupt");
  {
    Result<ObservationLog> opened = ObservationLog::Open(dir);
    ASSERT_TRUE(opened.ok());
    for (int64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(opened.value().Append("p04", Row(seq, 2)).ok());
    }
  }
  // Flip a byte in the middle line.
  const std::string path = dir + "/p04.obslog";
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  all[all.size() / 2] ^= 1;
  std::ofstream(path, std::ios::trunc) << all;
  Result<ObservationLog> recovered = ObservationLog::Open(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(recovered.status().message().find("p04"), std::string::npos);
}

TEST(ObservationLogTest, EnforcesRowWidthAndIds) {
  const std::string dir = FreshDir("obslog_width");
  Result<ObservationLog> opened =
      ObservationLog::Open(dir, ObservationLogOptions{.num_variables = 3});
  ASSERT_TRUE(opened.ok());
  ObservationLog& log = opened.value();
  EXPECT_EQ(log.Append("p05", Row(1, 2)).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(log.Append("p05", Row(1, 3)).ok());
  EXPECT_EQ(log.Append("p05", Row(2, 4)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(log.Append("", Row(1, 3)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(log.Append("../escape", Row(1, 3)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(log.Append("p05", std::vector<double>{}).status().code(),
            StatusCode::kInvalidArgument);
  // The failed appends left no trace.
  EXPECT_EQ(log.rows("p05"), 1);
  EXPECT_EQ(log.individual_ids(), std::vector<std::string>{"p05"});
}

TEST(ObservationLogTest, TailMatchesSlidingBuffer) {
  const std::string dir = FreshDir("obslog_tail");
  Result<ObservationLog> opened = ObservationLog::Open(dir);
  ASSERT_TRUE(opened.ok());
  ObservationLog& log = opened.value();
  ts::SlidingBuffer buffer(4, 3);
  for (int64_t seq = 1; seq <= 10; ++seq) {
    const std::vector<double> row = Row(seq, 3);
    ASSERT_TRUE(log.Append("p06", row).ok());
    buffer.Push(row);
  }
  Result<tensor::Tensor> tail = log.Tail("p06", 4);
  ASSERT_TRUE(tail.ok());
  const tensor::Tensor windowed = buffer.ToTensor();
  ASSERT_EQ(tail.value().dim(0), windowed.dim(0));
  ASSERT_EQ(tail.value().dim(1), windowed.dim(1));
  EXPECT_EQ(tail.value().ToVector(), windowed.ToVector());
  EXPECT_EQ(log.Tail("p06", 0).status().code(), StatusCode::kInvalidArgument);
}

TEST(ObservationLogTest, AppendFaultSiteFailsCleanly) {
  if (!fault::kFaultInjectionEnabled) GTEST_SKIP();
  const std::string dir = FreshDir("obslog_fault");
  Result<ObservationLog> opened = ObservationLog::Open(dir);
  ASSERT_TRUE(opened.ok());
  ObservationLog& log = opened.value();
  ASSERT_TRUE(log.Append("p07", Row(1, 2)).ok());
  ASSERT_TRUE(fault::Configure("online.append/p07=1", 1).ok());
  Result<uint64_t> faulted = log.Append("p07", Row(2, 2));
  EXPECT_EQ(faulted.status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(fault::Configure("", 0).ok());
  // Nothing was written; the next append takes the faulted row's slot.
  EXPECT_EQ(log.rows("p07"), 1);
  Result<uint64_t> retried = log.Append("p07", Row(2, 2));
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value(), 2u);
}

}  // namespace
}  // namespace emaf::online
