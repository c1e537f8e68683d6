#include "core/checkpoint.h"

#include <cctype>

#include "common/string_util.h"

namespace emaf::core {

namespace {

constexpr std::string_view kVersionTag = "v1";

// Percent-escapes '%', '|', newline and carriage return so a field can
// carry arbitrary status-message bytes on one '|'-separated line.
std::string EscapeField(std::string_view field) {
  std::string out;
  out.reserve(field.size());
  for (char c : field) {
    if (c == '%' || c == '|' || c == '\n' || c == '\r') {
      static constexpr char kHex[] = "0123456789ABCDEF";
      out.push_back('%');
      out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
      out.push_back(kHex[static_cast<unsigned char>(c) & 0xf]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

Result<std::string> UnescapeField(std::string_view field) {
  std::string out;
  out.reserve(field.size());
  for (size_t i = 0; i < field.size(); ++i) {
    if (field[i] != '%') {
      out.push_back(field[i]);
      continue;
    }
    if (i + 2 >= field.size() ||
        !std::isxdigit(static_cast<unsigned char>(field[i + 1])) ||
        !std::isxdigit(static_cast<unsigned char>(field[i + 2]))) {
      return Status::DataLoss("bad percent escape in journal field");
    }
    auto nibble = [](char c) -> unsigned {
      if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
      if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
      return static_cast<unsigned>(c - 'A' + 10);
    };
    out.push_back(static_cast<char>((nibble(field[i + 1]) << 4) |
                                    nibble(field[i + 2])));
    i += 2;
  }
  return out;
}

// Everything after the CRC field.
std::string EncodePayload(const JournalRecord& record) {
  std::vector<std::string> fields;
  fields.emplace_back(kVersionTag);
  fields.push_back(EscapeField(record.key));
  fields.emplace_back(StatusCodeName(record.cell_status.code()));
  fields.push_back(EscapeField(record.cell_status.message()));
  fields.push_back(StrCat(record.retries));
  fields.push_back(StrCat(record.per_individual_mse.size()));
  for (double v : record.per_individual_mse) {
    fields.push_back(FormatExact(v));
  }
  for (int64_t r : record.per_individual_retries) {
    fields.push_back(StrCat(r));
  }
  return StrJoin(fields, "|");
}

Result<JournalRecord> DecodePayload(std::string_view payload) {
  std::vector<std::string> fields = StrSplit(payload, '|');
  if (fields.size() < 6 || fields[0] != kVersionTag) {
    return Status::DataLoss("journal record has a bad header");
  }
  JournalRecord record;
  Result<std::string> key = UnescapeField(fields[1]);
  if (!key.ok()) return key.status();
  record.key = std::move(key.value());
  std::optional<StatusCode> code = StatusCodeFromName(fields[2]);
  if (!code.has_value()) {
    return Status::DataLoss(
        StrCat("journal record has unknown status code '", fields[2], "'"));
  }
  Result<std::string> message = UnescapeField(fields[3]);
  if (!message.ok()) return message.status();
  record.cell_status = *code == StatusCode::kOk
                           ? Status::Ok()
                           : Status(*code, std::move(message.value()));
  long long retries = 0;
  long long n = 0;
  if (!ParseInt64(fields[4], &retries) || !ParseInt64(fields[5], &n) ||
      retries < 0 || n < 0) {
    return Status::DataLoss("journal record has bad counters");
  }
  record.retries = retries;
  if (fields.size() != 6 + 2 * static_cast<size_t>(n)) {
    return Status::DataLoss(
        StrCat("journal record field count mismatch (", fields.size(),
               " fields for n=", n, ")"));
  }
  for (long long i = 0; i < n; ++i) {
    double v = 0.0;
    if (!ParseDouble(fields[6 + static_cast<size_t>(i)], &v)) {
      return Status::DataLoss("journal record has a malformed MSE value");
    }
    record.per_individual_mse.push_back(v);
  }
  for (long long i = 0; i < n; ++i) {
    long long r = 0;
    if (!ParseInt64(fields[6 + static_cast<size_t>(n + i)], &r) || r < 0) {
      return Status::DataLoss("journal record has a malformed retry count");
    }
    record.per_individual_retries.push_back(r);
  }
  return record;
}

}  // namespace

std::string EncodeJournalRecord(const JournalRecord& record) {
  return FrameLine(EncodePayload(record));
}

Result<JournalRecord> DecodeJournalRecord(std::string_view line) {
  Result<std::string_view> payload = UnframeLine(line);
  if (!payload.ok()) return payload.status();
  return DecodePayload(payload.value());
}

Result<CheckpointJournal> CheckpointJournal::Open(
    const std::string& path, std::vector<JournalRecord>* records) {
  Result<LineJournal> journal =
      LineJournal::Open(path, [records](std::string_view payload) -> Status {
        Result<JournalRecord> record = DecodePayload(payload);
        if (!record.ok()) return record.status();
        records->push_back(std::move(record).value());
        return Status::Ok();
      });
  if (!journal.ok()) return journal.status();
  return CheckpointJournal(std::move(journal).value());
}

Status CheckpointJournal::Append(const JournalRecord& record) {
  return journal_.Append(EncodePayload(record));
}

}  // namespace emaf::core
