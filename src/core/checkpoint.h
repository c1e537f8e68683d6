// Crash-tolerant checkpoint journal for experiment grids.
//
// A journal is an append-only text file with one checksummed record per
// completed grid cell. RunGrid appends each cell's outcome right after it
// finishes, so a crash (power loss, OOM kill, injected fault) loses at
// most the cell in flight; `--resume` reloads the journal, skips every
// recorded cell, and — because all training is deterministically seeded —
// reproduces the uninterrupted run byte-for-byte (fault_recovery_test
// proves this against the golden harness).
//
// Record format (one line, '|'-separated, framed by common/journal.h):
//
//   <crc32-hex>|v1|<cell-key>|<status-code>|<message>|<retries>|<n>|m0|..|r0|..
//
// where the CRC covers everything after the first '|', `m*` are the
// per-individual MSEs (17 significant digits — round-trip exact), and
// `r*` the per-individual retry counts. The message is percent-escaped so
// it can carry arbitrary bytes. Torn-tail and corruption handling are the
// shared journal's (common/journal.h): a torn final record is truncated
// at Open, a corrupt record anywhere earlier is kDataLoss.

#ifndef EMAF_CORE_CHECKPOINT_H_
#define EMAF_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/journal.h"
#include "common/status.h"

namespace emaf::core {

// One journaled cell outcome, keyed by CellKey(spec) (see experiment.h).
// The spec itself is not stored: resume matches grid cells to records by
// key, and the grid's own spec is canonical.
struct JournalRecord {
  std::string key;
  Status cell_status;  // the *cell's* outcome — failed cells are journaled
                       // too, so a resume does not silently retry them
  int64_t retries = 0;
  std::vector<double> per_individual_mse;
  std::vector<int64_t> per_individual_retries;
};

// Serialized line for one record (no trailing newline) and its inverse.
// Exposed for tests; RunGrid uses the journal class below.
std::string EncodeJournalRecord(const JournalRecord& record);
Result<JournalRecord> DecodeJournalRecord(std::string_view line);

class CheckpointJournal {
 public:
  // Opens `path` for appending, creating it if missing, and stores every
  // record already in it into `records`, in file order. A record that
  // frames but does not decode, or corruption before the final line, is
  // kDataLoss naming the line.
  static Result<CheckpointJournal> Open(const std::string& path,
                                        std::vector<JournalRecord>* records);

  // Appends one record and flushes it to the OS, so a subsequent hard
  // crash of this process cannot tear it.
  Status Append(const JournalRecord& record);

 private:
  explicit CheckpointJournal(LineJournal journal)
      : journal_(std::move(journal)) {}

  LineJournal journal_;
};

}  // namespace emaf::core

#endif  // EMAF_CORE_CHECKPOINT_H_
