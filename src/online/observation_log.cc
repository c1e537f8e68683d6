#include "online/observation_log.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <optional>

#include "common/fault_injection.h"
#include "common/journal.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "tensor/tensor.h"

namespace emaf::online {

namespace {

constexpr char kLogExtension[] = ".obslog";
constexpr char kLineVersion[] = "v1";

// Everything after the CRC field: `v1|<seq>|<val0>|...`.
std::string EncodePayload(uint64_t sequence, std::span<const double> values) {
  std::string payload = StrCat(kLineVersion, "|", sequence);
  for (double v : values) {
    payload += '|';
    payload += FormatExact(v);
  }
  return payload;
}

Result<DecodedObservation> DecodePayload(std::string_view payload) {
  const std::vector<std::string> fields = StrSplit(payload, '|');
  if (fields.size() < 3) {
    return Status::InvalidArgument(StrCat(
        "observation line has ", fields.size(),
        " fields after the CRC; expected at least version|seq|value"));
  }
  if (fields[0] != kLineVersion) {
    return Status::InvalidArgument(
        StrCat("observation line version \"", fields[0], "\" (expected ",
               kLineVersion, ")"));
  }
  DecodedObservation out;
  long long seq = 0;
  if (!ParseInt64(fields[1], &seq) || seq <= 0) {
    return Status::InvalidArgument(
        StrCat("observation line sequence \"", fields[1],
               "\" is not a positive integer"));
  }
  out.sequence = static_cast<uint64_t>(seq);
  out.values.reserve(fields.size() - 2);
  for (size_t i = 2; i < fields.size(); ++i) {
    double value = 0.0;
    if (!ParseDouble(fields[i], &value)) {
      return Status::InvalidArgument(
          StrCat("observation line value ", i - 2, " \"", fields[i],
                 "\" is not a double"));
    }
    out.values.push_back(value);
  }
  return out;
}

}  // namespace

std::string EncodeObservationLine(uint64_t sequence,
                                  std::span<const double> values) {
  return FrameLine(EncodePayload(sequence, values));
}

Result<DecodedObservation> DecodeObservationLine(std::string_view line) {
  Result<std::string_view> payload = UnframeLine(line);
  if (!payload.ok()) return payload.status();
  return DecodePayload(payload.value());
}

// --- ObservationLog --------------------------------------------------------

struct ObservationLog::Impl {
  struct Individual {
    std::optional<LineJournal> journal;  // opened at recovery / first use
    uint64_t last_seq = 0;
    int64_t num_variables = 0;
    std::vector<double> rows;  // row-major [rows, num_variables]
    int64_t num_rows = 0;

    // kInvalidArgument unless a `width`-wide row matches this individual's
    // earlier rows or, before the first one, `configured` (when > 0).
    Status CheckWidth(int64_t width, int64_t configured) const {
      const int64_t expected = num_variables > 0 ? num_variables : configured;
      if (expected > 0 && width != expected) {
        return Status::InvalidArgument(
            StrCat("row width ", width, " != expected ", expected));
      }
      return Status::Ok();
    }
  };

  std::string dir;
  ObservationLogOptions options;
  mutable std::mutex mu;
  std::map<std::string, Individual> individuals;
  int64_t torn_tails = 0;

  std::string PathFor(const std::string& id) const {
    return (std::filesystem::path(dir) / StrCat(id, kLogExtension)).string();
  }

  // Opens `id`'s journal, recovering every row already in it into `ind`.
  Status OpenJournal(const std::string& id, Individual* ind) {
    Result<LineJournal> journal = LineJournal::Open(
        PathFor(id), [&](std::string_view payload) -> Status {
          Result<DecodedObservation> decoded = DecodePayload(payload);
          if (!decoded.ok()) return decoded.status();
          const DecodedObservation& obs = decoded.value();
          if (obs.sequence != ind->last_seq + 1) {
            return Status::DataLoss(StrCat("sequence ", obs.sequence,
                                           " after ", ind->last_seq,
                                           " (must be contiguous)"));
          }
          const int64_t width = static_cast<int64_t>(obs.values.size());
          EMAF_RETURN_IF_ERROR(ind->CheckWidth(width, options.num_variables));
          ind->num_variables = width;
          ind->last_seq = obs.sequence;
          ind->rows.insert(ind->rows.end(), obs.values.begin(),
                           obs.values.end());
          ++ind->num_rows;
          return Status::Ok();
        });
    if (!journal.ok()) return journal.status();
    if (journal.value().torn_tail()) {
      ++torn_tails;
      EMAF_METRIC_COUNTER_ADD("online.log.torn_tails_total", 1);
    }
    ind->journal.emplace(std::move(journal).value());
    return Status::Ok();
  }
};

ObservationLog::ObservationLog() : impl_(std::make_unique<Impl>()) {}
ObservationLog::ObservationLog(ObservationLog&&) noexcept = default;
ObservationLog& ObservationLog::operator=(ObservationLog&&) noexcept = default;
ObservationLog::~ObservationLog() = default;

Result<ObservationLog> ObservationLog::Open(
    const std::string& dir, const ObservationLogOptions& options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec || !fs::is_directory(dir)) {
    return Status::Internal(
        StrCat("cannot create observation log directory ", dir));
  }
  ObservationLog log;
  Impl& impl = *log.impl_;
  impl.dir = dir;
  impl.options = options;

  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == kLogExtension) {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    return Status::Internal(StrCat("cannot list observation log directory ",
                                   dir, ": ", ec.message()));
  }
  std::sort(files.begin(), files.end());

  for (const fs::path& path : files) {
    const std::string id = path.stem().string();
    Impl::Individual ind;
    EMAF_RETURN_IF_ERROR(impl.OpenJournal(id, &ind));
    impl.individuals.emplace(id, std::move(ind));
  }
  EMAF_METRIC_GAUGE_SET("online.log.individuals",
                        static_cast<double>(impl.individuals.size()));
  return log;
}

Result<uint64_t> ObservationLog::Append(const std::string& id,
                                        std::span<const double> row) {
  if (id.empty() || id.find('/') != std::string::npos ||
      id.find('\\') != std::string::npos) {
    return Status::InvalidArgument(
        StrCat("invalid observation log id: \"", id, "\""));
  }
  if (row.empty()) {
    return Status::InvalidArgument("observation row is empty");
  }
  if (EMAF_FAULT_SHOULD_FAIL(StrCat("online.append/", id))) {
    return Status::Unavailable(StrCat("injected fault: online.append/", id));
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto [it, inserted] = impl_->individuals.try_emplace(id);
  Impl::Individual& ind = it->second;
  const int64_t width = static_cast<int64_t>(row.size());
  Status fits = ind.CheckWidth(width, impl_->options.num_variables);
  if (!fits.ok()) {
    if (inserted) impl_->individuals.erase(it);
    return Status(fits.code(), StrCat("observation ", fits.message(),
                                      " for individual ", id));
  }
  if (!ind.journal.has_value()) {
    Status opened = impl_->OpenJournal(id, &ind);
    if (!opened.ok()) {
      if (inserted) impl_->individuals.erase(it);
      return opened;
    }
    if (inserted) {
      EMAF_METRIC_GAUGE_SET("online.log.individuals",
                            static_cast<double>(impl_->individuals.size()));
    }
  }
  const uint64_t seq = ind.last_seq + 1;
  EMAF_RETURN_IF_ERROR(ind.journal->Append(EncodePayload(seq, row)));
  ind.last_seq = seq;
  ind.num_variables = width;
  ind.rows.insert(ind.rows.end(), row.begin(), row.end());
  ++ind.num_rows;
  EMAF_METRIC_COUNTER_ADD("online.log.appends_total", 1);
  return seq;
}

Result<tensor::Tensor> ObservationLog::Replay(const std::string& id) const {
  return Tail(id, std::numeric_limits<int64_t>::max());
}

Result<tensor::Tensor> ObservationLog::Tail(const std::string& id,
                                            int64_t max_rows) const {
  if (max_rows < 1) {
    return Status::InvalidArgument(
        StrCat("Tail(", id, "): max_rows must be >= 1, got ", max_rows));
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->individuals.find(id);
  if (it == impl_->individuals.end()) {
    return Status::NotFound(StrCat("no observations for individual: ", id));
  }
  const Impl::Individual& ind = it->second;
  if (ind.num_rows == 0) {
    return Status::FailedPrecondition(
        StrCat("individual ", id, " has no observation rows"));
  }
  const int64_t n = std::min(max_rows, ind.num_rows);
  tensor::Tensor out = tensor::Tensor::Zeros(tensor::Shape{n, ind.num_variables});
  const double* src =
      ind.rows.data() + (ind.num_rows - n) * ind.num_variables;
  std::copy(src, src + n * ind.num_variables, out.data());
  return out;
}

std::vector<std::string> ObservationLog::individual_ids() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::string> ids;
  ids.reserve(impl_->individuals.size());
  for (const auto& [id, ind] : impl_->individuals) {
    if (ind.num_rows > 0) ids.push_back(id);
  }
  return ids;
}

int64_t ObservationLog::rows(const std::string& id) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->individuals.find(id);
  return it == impl_->individuals.end() ? 0 : it->second.num_rows;
}

uint64_t ObservationLog::last_sequence(const std::string& id) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->individuals.find(id);
  return it == impl_->individuals.end() ? 0 : it->second.last_seq;
}

int64_t ObservationLog::torn_tails_recovered() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->torn_tails;
}

const std::string& ObservationLog::dir() const { return impl_->dir; }

}  // namespace emaf::online
