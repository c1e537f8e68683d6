// End-to-end fault-tolerance tests for the experiment grid (ISSUE
// acceptance criteria):
//
//  * Crash/resume determinism: a child process runs a seeded 2x2 grid
//    with EMAF_FAULT_SPEC=checkpoint.post_append=1:1, which hard-kills it
//    (exit 86) right after the first cell is journaled. A --resume run
//    then skips the journaled cell, re-runs the rest, and its report CSV
//    must match the uninterrupted run BYTE FOR BYTE — at 1 and 2 threads.
//  * Graceful degradation: forcing one cell's trainer to diverge on every
//    attempt (trainer.step/<label>=1) must not abort the grid; the failed
//    cell becomes a structured row (status code + retry count) and the
//    other cells' numerics are identical to a fault-free run.
//
// The child grid re-enters this same binary via --child-grid (see main()
// below), so the crash path exercises the real lazy EMAF_FAULT_SPEC /
// EMAF_FAULT_SEED environment configuration, not a test-only hook.

#include <sys/wait.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/experiment.h"
#include "core/report.h"
#include "data/generator.h"

namespace emaf {

// Path of this test binary (argv[0]), for re-spawning in child mode.
std::string g_self_path;

namespace {

core::ExperimentConfig GridConfig() {
  core::ExperimentConfig config;
  config.generator.num_individuals = 2;
  config.generator.num_variables = 8;
  config.generator.days = 7;
  config.generator.seed = 20240612;
  config.train.epochs = 3;
  config.knn_k = 3;
  config.seed = 20240612;
  return config;
}

// 2x2 grid: {LSTM, A3TGCN} x {input_length 2, 3}. One graph-free and one
// graph model so both training paths cross the checkpoint boundary.
std::vector<core::CellSpec> Grid2x2() {
  std::vector<core::CellSpec> grid;
  for (int64_t input_length : {2, 3}) {
    core::CellSpec lstm;
    lstm.model = core::ModelKind::kLstm;
    lstm.input_length = input_length;
    grid.push_back(lstm);
    core::CellSpec a3tgcn;
    a3tgcn.model = core::ModelKind::kA3tgcn;
    a3tgcn.metric = graph::GraphMetric::kCorrelation;
    a3tgcn.gdt = 0.4;
    a3tgcn.input_length = input_length;
    grid.push_back(a3tgcn);
  }
  return grid;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// The records journaled at `path`.
std::vector<core::JournalRecord> JournaledRecords(const std::string& path) {
  std::vector<core::JournalRecord> records;
  Result<core::CheckpointJournal> journal =
      core::CheckpointJournal::Open(path, &records);
  EXPECT_TRUE(journal.ok()) << journal.status().ToString();
  return records;
}

// Runs this binary in --child-grid mode via /bin/sh and returns the
// child's exit code (-1 if it did not exit normally). `env_prefix` is a
// shell fragment like "EMAF_FAULT_SPEC='...' EMAF_NUM_THREADS=2".
int RunChildGrid(const std::string& env_prefix, const std::string& journal,
                 const std::string& csv, bool resume) {
  std::string cmd = StrCat(env_prefix, " '", g_self_path, "' --child-grid '",
                           journal, "' '", csv, "'", resume ? " --resume" : "");
  int status = std::system(cmd.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

class FaultRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::kFaultInjectionEnabled) {
      GTEST_SKIP() << "fault injection compiled out";
    }
    ASSERT_TRUE(fault::Configure("", 0).ok());
  }
  void TearDown() override {
    if (fault::kFaultInjectionEnabled) {
      ASSERT_TRUE(fault::Configure("", 0).ok());
    }
  }
};

TEST_F(FaultRecoveryTest, CrashAfterFirstCellThenResumeIsByteIdentical) {
  ASSERT_FALSE(g_self_path.empty());
  for (int threads : {1, 2}) {
    SCOPED_TRACE(StrCat("threads=", threads));
    std::string tag = StrCat("t", threads);
    std::string env = StrCat("EMAF_NUM_THREADS=", threads);
    std::string clean_journal = TempPath(StrCat("clean_", tag, ".journal"));
    std::string clean_csv = TempPath(StrCat("clean_", tag, ".csv"));
    std::string crash_journal = TempPath(StrCat("crash_", tag, ".journal"));
    std::string crash_csv = TempPath(StrCat("crash_", tag, ".csv"));
    std::string resume_csv = TempPath(StrCat("resume_", tag, ".csv"));
    std::remove(clean_journal.c_str());
    std::remove(crash_journal.c_str());

    // Uninterrupted reference run.
    ASSERT_EQ(RunChildGrid(env, clean_journal, clean_csv, false), 0);

    // Crash right after the first cell's journal append.
    ASSERT_EQ(RunChildGrid(
                  StrCat(env, " EMAF_FAULT_SPEC='checkpoint.post_append=1:1'"),
                  crash_journal, crash_csv, false),
              fault::kCrashExitCode);
    // The crash left a journal with exactly the completed prefix.
    ASSERT_EQ(JournaledRecords(crash_journal).size(), 1u);

    // Resume skips the journaled cell and reproduces the reference bytes.
    ASSERT_EQ(RunChildGrid(env, crash_journal, resume_csv, true), 0);
    EXPECT_EQ(ReadFile(resume_csv), ReadFile(clean_csv))
        << "resumed grid CSV diverged from uninterrupted run";
  }
}

TEST_F(FaultRecoveryTest, ResumeWithCompleteJournalRunsNothingNew) {
  ASSERT_FALSE(g_self_path.empty());
  std::string journal = TempPath("complete.journal");
  std::string csv_a = TempPath("complete_a.csv");
  std::string csv_b = TempPath("complete_b.csv");
  std::remove(journal.c_str());
  ASSERT_EQ(RunChildGrid("EMAF_NUM_THREADS=1", journal, csv_a, false), 0);
  // All four cells are journaled; a resume reloads them all and must
  // still emit the same report.
  ASSERT_EQ(RunChildGrid("EMAF_NUM_THREADS=1", journal, csv_b, true), 0);
  EXPECT_EQ(ReadFile(csv_b), ReadFile(csv_a));
  // Resume appends nothing new for already-recorded cells.
  EXPECT_EQ(JournaledRecords(journal).size(), Grid2x2().size());
}

// A crash mid-append leaves a torn final record. Resuming must cut it off
// before appending: otherwise the next record lands on the torn line, and
// a second resume either drops that cell or finds mid-file corruption.
TEST_F(FaultRecoveryTest, ResumeAfterTornAppendCanResumeAgain) {
  ASSERT_FALSE(g_self_path.empty());
  const std::string env = "EMAF_NUM_THREADS=1";
  std::string clean_journal = TempPath("torn_clean.journal");
  std::string clean_csv = TempPath("torn_clean.csv");
  std::string journal = TempPath("torn.journal");
  std::string csv_a = TempPath("torn_a.csv");
  std::string csv_b = TempPath("torn_b.csv");
  std::remove(clean_journal.c_str());
  ASSERT_EQ(RunChildGrid(env, clean_journal, clean_csv, false), 0);

  // One good record plus the first half of the next, with no newline.
  const std::string clean = ReadFile(clean_journal);
  const size_t first_end = clean.find('\n') + 1;
  const size_t second_end = clean.find('\n', first_end) + 1;
  std::ofstream(journal, std::ios::binary | std::ios::trunc)
      << clean.substr(0, first_end)
      << clean.substr(first_end, (second_end - first_end) / 2);

  // The first resume re-runs the three unjournaled cells...
  ASSERT_EQ(RunChildGrid(env, journal, csv_a, true), 0);
  EXPECT_EQ(ReadFile(csv_a), ReadFile(clean_csv));
  // ...and a second resume reads every record back and runs nothing:
  // each cell is journaled exactly once, byte for byte as in a clean run.
  ASSERT_EQ(RunChildGrid(env, journal, csv_b, true), 0);
  EXPECT_EQ(ReadFile(csv_b), ReadFile(clean_csv));
  EXPECT_EQ(ReadFile(journal), clean);
}

TEST_F(FaultRecoveryTest, GracefulDegradationIsolatesFailedCell) {
  core::ExperimentConfig config = GridConfig();
  std::vector<core::CellSpec> grid = Grid2x2();

  // Fault-free reference.
  core::ExperimentRunner clean_runner(data::GenerateCohort(config.generator),
                                      config);
  core::GridResult clean = clean_runner.RunGrid(grid);
  ASSERT_EQ(clean.num_failed, 0);

  // Force every training attempt of one cell (both individuals, all
  // retries) to hit a non-finite loss. Scoped by CellKey so the other
  // A3TGCN cell (same label, different input length) is untouched.
  const core::CellSpec& victim = grid[1];
  ASSERT_TRUE(
      fault::Configure(StrCat("trainer.step/", core::CellKey(victim), "=1"), 0)
          .ok());
  core::ExperimentRunner faulty_runner(data::GenerateCohort(config.generator),
                                       config);
  core::GridResult faulty = faulty_runner.RunGrid(grid);
  ASSERT_TRUE(fault::Configure("", 0).ok());

  ASSERT_EQ(faulty.cells.size(), clean.cells.size());
  EXPECT_EQ(faulty.num_failed, 1);
  for (size_t i = 0; i < faulty.cells.size(); ++i) {
    SCOPED_TRACE(faulty.cells[i].spec.Label());
    if (i == 1) {
      // The victim fails with a structured outcome: divergence recovery
      // exhausted its budget after max_train_retries extra attempts.
      EXPECT_FALSE(faulty.cells[i].status.ok());
      EXPECT_EQ(faulty.cells[i].status.code(), StatusCode::kAborted);
      EXPECT_GE(faulty.cells[i].retries, config.max_train_retries);
      EXPECT_TRUE(faulty.cells[i].result.per_individual_mse.empty());
    } else {
      // Every other cell is numerically untouched by the injected fault.
      ASSERT_TRUE(faulty.cells[i].status.ok())
          << faulty.cells[i].status.ToString();
      EXPECT_EQ(faulty.cells[i].result.per_individual_mse,
                clean.cells[i].result.per_individual_mse);
      EXPECT_EQ(faulty.cells[i].retries, 0);
    }
  }

  // The failed cell renders as a structured report row, not an abort:
  // status code name and retry count in the row, empty numeric columns.
  core::TablePrinter table =
      core::GridReportTable(faulty, config.generator.num_individuals);
  std::string csv = TempPath("degraded.csv");
  ASSERT_TRUE(table.WriteCsv(csv).ok());
  std::string contents = ReadFile(csv);
  EXPECT_NE(contents.find("ABORTED"), std::string::npos) << contents;
}

}  // namespace

// Child mode: run the 2x2 grid against a journal and write the report
// CSV. Invoked by the tests above via RunChildGrid().
int ChildGridMain(int argc, char** argv, int first_arg) {
  if (argc - first_arg < 2) {
    std::fprintf(stderr,
                 "usage: %s --child-grid <journal> <csv> [--resume]\n",
                 argv[0]);
    return 2;
  }
  core::GridOptions options;
  options.journal_path = argv[first_arg];
  std::string csv_path = argv[first_arg + 1];
  for (int i = first_arg + 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--resume") == 0) options.resume = true;
  }
  core::ExperimentConfig config = GridConfig();
  core::ExperimentRunner runner(data::GenerateCohort(config.generator),
                                config);
  core::GridResult result = runner.RunGrid(Grid2x2(), options);
  Status written =
      core::GridReportTable(result, config.generator.num_individuals)
          .WriteCsv(csv_path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 3;
  }
  return result.num_failed == 0 ? 0 : 4;
}

}  // namespace emaf

int main(int argc, char** argv) {
  emaf::g_self_path = argv[0];
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--child-grid") == 0) {
      return emaf::ChildGridMain(argc, argv, i + 1);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
