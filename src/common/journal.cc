#include "common/journal.h"

#include <array>
#include <cstdio>
#include <filesystem>

#include "common/logging.h"
#include "common/string_util.h"

namespace emaf {

namespace {

constexpr size_t kCrcDigits = 8;

const std::array<uint32_t, 256>& Crc32Table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

// The CRC field of `payload`, NUL-terminated: the only spelling a reader
// accepts, so checking a line's field is one comparison against it.
std::array<char, kCrcDigits + 1> CrcField(std::string_view payload) {
  std::array<char, kCrcDigits + 1> field{};
  std::snprintf(field.data(), field.size(), "%08x", Crc32(payload));
  return field;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  const std::array<uint32_t, 256>& table = Crc32Table();
  uint32_t crc = 0xffffffffu;
  for (char c : data) {
    crc = table[(crc ^ static_cast<unsigned char>(c)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::string FrameLine(std::string_view payload) {
  return StrCat(CrcField(payload).data(), "|", payload);
}

Result<std::string_view> UnframeLine(std::string_view line) {
  const size_t bar = line.find('|');
  if (bar == std::string_view::npos) {
    return Status::InvalidArgument("journal line has no CRC field");
  }
  const std::string_view crc_text = line.substr(0, bar);
  const std::string_view payload = line.substr(bar + 1);
  if (crc_text != CrcField(payload).data()) {
    return Status::DataLoss(StrCat("journal line CRC field \"", crc_text,
                                   "\" does not match its payload"));
  }
  return payload;
}

Result<LineJournal> LineJournal::Open(const std::string& path,
                                      const ReplayFn& replay) {
  bool torn = false;
  // Byte length of the intact prefix, so a torn tail can be cut off.
  uintmax_t intact_bytes = 0;
  {
    std::ifstream in(path, std::ios::binary);
    std::string line;
    int64_t line_number = 0;
    while (std::getline(in, line)) {
      ++line_number;
      Result<std::string_view> payload = UnframeLine(line);
      // eof() here means getline ran out of bytes before a '\n': the
      // append that wrote this line never completed.
      if (!payload.ok() || in.eof()) {
        if (in.peek() != std::ifstream::traits_type::eof()) {
          return Status::DataLoss(StrCat(path, ":", line_number, ": ",
                                         payload.status().message()));
        }
        torn = true;
        EMAF_LOG(WARNING) << "journal " << path << ": truncating torn line "
                          << line_number;
        break;
      }
      Status replayed = replay(payload.value());
      if (!replayed.ok()) {
        return Status(replayed.code(), StrCat(path, ":", line_number, ": ",
                                              replayed.message()));
      }
      intact_bytes += line.size() + 1;
    }
  }
  if (torn) {
    std::error_code ec;
    std::filesystem::resize_file(path, intact_bytes, ec);
    if (ec) {
      return Status::Internal(StrCat("cannot truncate torn tail of ", path,
                                     ": ", ec.message()));
    }
  }
  std::ofstream out(path, std::ios::app);
  if (!out.is_open()) {
    return Status::Internal(
        StrCat("cannot open journal for appending: ", path));
  }
  return LineJournal(path, std::move(out), torn);
}

Status LineJournal::Append(std::string_view payload) {
  out_ << CrcField(payload).data() << '|' << payload << '\n' << std::flush;
  if (!out_) {
    return Status::Internal(StrCat("journal append failed: ", path_));
  }
  return Status::Ok();
}

}  // namespace emaf
