// Checksummed append-only line journals (DESIGN.md, "Checkpoint/resume"
// and "Observation journal").
//
// The experiment grid's checkpoint journal (core/checkpoint) and the online
// observation log (online/observation_log) share one on-disk framing: one
// record per line,
//
//   <crc32 as 8 lowercase hex digits>|<payload>
//
// where the CRC-32 covers the payload bytes. Those modules only encode and
// decode payloads; the framing, the file handling and the crash policy
// live here, once.
//
// Torn-tail policy: a crash mid-append can only damage the final line, so
// a final line that fails framing or lacks its '\n' is truncated away at
// Open (and reported via torn_tail()) before the file is reopened for
// appending — later appends then start on a fresh line and can never bury
// the torn bytes mid-file. A line that fails framing anywhere earlier is
// real corruption: kDataLoss naming `path:line`, because silently dropping
// acknowledged records would break the replay contract.

#ifndef EMAF_COMMON_JOURNAL_H_
#define EMAF_COMMON_JOURNAL_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace emaf {

// CRC-32 (IEEE 802.3, reflected) of `data`. Also the wire-frame checksum
// (serve/protocol).
uint32_t Crc32(std::string_view data);

// `<crc>|<payload>` — one journal line, without its trailing newline.
std::string FrameLine(std::string_view payload);

// The payload of a framed line (a view into `line`). kInvalidArgument when
// the line has no '|'; kDataLoss when the CRC field is not exactly 8
// lowercase hex digits or does not match the payload.
Result<std::string_view> UnframeLine(std::string_view line);

class LineJournal {
 public:
  // Called once per intact payload at Open, in file order; the view is
  // valid only during the call. An error stops the replay and is returned
  // from Open, keeping its code, prefixed with `path:line: `.
  using ReplayFn = std::function<Status(std::string_view payload)>;

  // Replays every intact payload already in `path` (a missing file is an
  // empty journal), applies the torn-tail policy above, and opens the file
  // for appending, creating it if needed. kInternal when it cannot be
  // opened or the torn tail cannot be truncated.
  static Result<LineJournal> Open(const std::string& path,
                                  const ReplayFn& replay);

  // Writes `<crc>|<payload>\n` and flushes it to the OS, so a later hard
  // crash of this process cannot tear it.
  Status Append(std::string_view payload);

  // True when Open truncated a torn final line.
  bool torn_tail() const { return torn_tail_; }

 private:
  LineJournal(std::string path, std::ofstream out, bool torn_tail)
      : path_(std::move(path)), out_(std::move(out)), torn_tail_(torn_tail) {}

  std::string path_;
  std::ofstream out_;
  bool torn_tail_ = false;
};

}  // namespace emaf

#endif  // EMAF_COMMON_JOURNAL_H_
