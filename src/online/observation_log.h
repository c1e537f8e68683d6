// Append-only observation journal for streaming EMA ingestion (DESIGN.md,
// "Online ingestion & hot-swap").
//
// One file per individual (`<dir>/<id>.obslog`), one observation row per
// line, framed by the shared CRC line journal (common/journal.h):
//
//   <crc32-hex>|v1|<seq>|<val0>|<val1>|...|<valN-1>
//
// The CRC-32 covers everything after the first '|'; values are
// 17-significant-digit doubles (FormatExact), so a replayed row is
// bit-for-bit the appended row. Sequence numbers are assigned by the log,
// start at 1 per individual, and are strictly contiguous — a gap means
// lost data and fails recovery with kDataLoss naming the file and line.
//
// Crash tolerance is the shared journal's: a torn final line (the process
// died mid-append) is truncated away at Open and counted; a corrupt record
// anywhere earlier is kDataLoss naming the file and line.
//
// Determinism: the in-memory row store is populated only by recovery and
// by Append, in order, so Tail/Replay are pure functions of the log-file
// prefix — the property the windowed graph builder and fine-tune pipeline
// lean on for bitwise-reproducible rebuilds.
//
// Concurrency: one mutex over the whole log. Appends are rare (EMA
// cadence is prompts-per-day), so sharding would buy nothing.
//
// Instrumentation: online.log.appends_total / torn_tails_total (counters),
// online.log.individuals (gauge). Fault site online.append/<id> fails one
// Append with kUnavailable before any bytes are written.

#ifndef EMAF_ONLINE_OBSERVATION_LOG_H_
#define EMAF_ONLINE_OBSERVATION_LOG_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

namespace emaf::online {

struct ObservationLogOptions {
  // Expected row width. > 0 enforces it on every append and recovered
  // file; 0 lets each individual's first row fix its own width.
  int64_t num_variables = 0;
};

class ObservationLog {
 public:
  // Opens (creating if needed) the log directory and recovers every
  // existing `*.obslog` file in it. kDataLoss on mid-file corruption or a
  // sequence gap; kInvalidArgument when a recovered row does not decode or
  // its width contradicts `options.num_variables`.
  static Result<ObservationLog> Open(const std::string& dir,
                                     const ObservationLogOptions& options = {});

  ObservationLog(ObservationLog&&) noexcept;
  ObservationLog& operator=(ObservationLog&&) noexcept;
  ~ObservationLog();

  // Appends one observation row for `id` (creating its file on first use),
  // flushes it to the OS, and returns the assigned sequence number.
  //   kInvalidArgument — empty id, id with path separators, empty row, or
  //                      width mismatch with the individual's prior rows;
  //   kUnavailable     — fault site online.append/<id> fired (nothing
  //                      written);
  //   kInternal        — the file could not be opened or written.
  Result<uint64_t> Append(const std::string& id, std::span<const double> row);

  // Every recovered-or-appended row for `id`, oldest first, as [N, V].
  // kNotFound for an unknown id, kFailedPrecondition when it has no rows.
  Result<tensor::Tensor> Replay(const std::string& id) const;

  // The most recent min(max_rows, rows(id)) rows, oldest first, as [N, V]
  // — the windowed builder's input. Same errors as Replay; max_rows >= 1.
  Result<tensor::Tensor> Tail(const std::string& id, int64_t max_rows) const;

  // Ids with at least one row (sorted).
  std::vector<std::string> individual_ids() const;
  // Rows held for `id` (0 for unknown ids).
  int64_t rows(const std::string& id) const;
  // Highest sequence number assigned to `id` (0 for unknown ids).
  uint64_t last_sequence(const std::string& id) const;
  // Torn trailing lines truncated during Open (one per file at most).
  int64_t torn_tails_recovered() const;

  const std::string& dir() const;

 private:
  struct Impl;
  ObservationLog();

  std::unique_ptr<Impl> impl_;
};

// Serialized line for one observation (no trailing newline) and its
// inverse. Exposed for tests and for offline tooling that wants to read a
// log without an ObservationLog instance.
std::string EncodeObservationLine(uint64_t sequence,
                                  std::span<const double> values);
struct DecodedObservation {
  uint64_t sequence = 0;
  std::vector<double> values;
};
Result<DecodedObservation> DecodeObservationLine(std::string_view line);

}  // namespace emaf::online

#endif  // EMAF_ONLINE_OBSERVATION_LOG_H_
