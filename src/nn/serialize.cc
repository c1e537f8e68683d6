#include "nn/serialize.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <vector>

#include "common/string_util.h"

namespace emaf::nn {

namespace {

constexpr char kMagic[4] = {'E', 'M', 'A', 'F'};
// Config blobs are small text (a ModelConfig is well under a kilobyte even
// with an embedded adjacency for V ~ 100); anything larger is corruption.
constexpr uint64_t kMaxConfigBytes = 64ULL << 20;

void WriteU32(std::ofstream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteU64(std::ofstream& out, uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteI64(std::ofstream& out, int64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadU32(std::ifstream& in, uint32_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}
bool ReadU64(std::ifstream& in, uint64_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}
bool ReadI64(std::ifstream& in, int64_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

// Reads magic, version and the config blob (into `config` when non-null,
// skipped otherwise). Leaves `in` positioned at the parameter count.
Status ReadHeader(std::ifstream& in, const std::string& path,
                  std::string* config) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in.good() || std::string(magic, 4) != std::string(kMagic, 4)) {
    return Status::InvalidArgument(StrCat("bad checkpoint magic in ", path));
  }
  uint32_t version = 0;
  if (!ReadU32(in, &version)) {
    return Status::InvalidArgument(StrCat("truncated checkpoint: ", path));
  }
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        StrCat("unsupported snapshot version ", version, " in ", path,
               "; only version ", kSnapshotVersion, " is readable"));
  }
  uint64_t config_len = 0;
  if (!ReadU64(in, &config_len) || config_len > kMaxConfigBytes) {
    return Status::InvalidArgument(StrCat("corrupt checkpoint: ", path));
  }
  if (config != nullptr) {
    config->assign(config_len, '\0');
    in.read(config->data(), static_cast<std::streamsize>(config_len));
  } else {
    in.ignore(static_cast<std::streamsize>(config_len));
  }
  if (!in.good()) {
    return Status::InvalidArgument(StrCat("truncated checkpoint: ", path));
  }
  return Status::Ok();
}

}  // namespace

Status SaveParameters(Module* module, const std::string& path) {
  return SaveParameters(module, path, std::string_view());
}

Status SaveParameters(Module* module, const std::string& path,
                      std::string_view config) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::NotFound(StrCat("cannot open for writing: ", path));
  }
  std::vector<NamedParameter> params = module->NamedParameters();
  out.write(kMagic, sizeof(kMagic));
  WriteU32(out, kSnapshotVersion);
  WriteU64(out, config.size());
  out.write(config.data(), static_cast<std::streamsize>(config.size()));
  WriteU64(out, params.size());
  for (const NamedParameter& p : params) {
    WriteU64(out, p.name.size());
    out.write(p.name.data(), static_cast<std::streamsize>(p.name.size()));
    const uint8_t dtype_byte = static_cast<uint8_t>(tensor::DType::kF64);
    out.write(reinterpret_cast<const char*>(&dtype_byte), 1);
    const tensor::Shape& shape = p.value->shape();
    WriteU64(out, static_cast<uint64_t>(shape.rank()));
    for (int64_t d : shape.dims()) WriteI64(out, d);
    out.write(reinterpret_cast<const char*>(p.value->raw_data()),
              static_cast<std::streamsize>(p.value->byte_size()));
  }
  out.flush();
  if (!out.good()) return Status::Internal(StrCat("write failed: ", path));
  return Status::Ok();
}

Status LoadParameters(Module* module, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound(StrCat("cannot open for reading: ", path));
  }
  EMAF_RETURN_IF_ERROR(ReadHeader(in, path, /*config=*/nullptr));
  uint64_t count = 0;
  if (!ReadU64(in, &count)) {
    return Status::InvalidArgument(StrCat("truncated checkpoint: ", path));
  }

  std::map<std::string, tensor::Tensor*> by_name;
  std::set<std::string> loaded;
  for (const NamedParameter& p : module->NamedParameters()) {
    by_name[p.name] = p.value;
  }
  if (count != by_name.size()) {
    return Status::InvalidArgument(
        StrCat("checkpoint has ", count, " parameters, module has ",
               by_name.size()));
  }

  for (uint64_t i = 0; i < count; ++i) {
    uint64_t name_len = 0;
    if (!ReadU64(in, &name_len) || name_len > 4096) {
      return Status::InvalidArgument(StrCat("corrupt checkpoint: ", path));
    }
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    if (!in.good()) {
      return Status::InvalidArgument(StrCat("corrupt checkpoint: ", path));
    }
    uint8_t dtype_byte = 0;
    in.read(reinterpret_cast<char*>(&dtype_byte), 1);
    if (!in.good() || !tensor::IsValidDType(dtype_byte)) {
      return Status::InvalidArgument(
          StrCat("corrupt checkpoint: invalid dtype byte ",
                 static_cast<int>(dtype_byte), " for parameter ", name,
                 " in ", path));
    }
    uint64_t rank = 0;
    if (!ReadU64(in, &rank) || rank > 16) {
      return Status::InvalidArgument(StrCat("corrupt checkpoint: ", path));
    }
    std::vector<int64_t> dims(rank);
    for (uint64_t d = 0; d < rank; ++d) {
      if (!ReadI64(in, &dims[d])) {
        return Status::InvalidArgument(StrCat("corrupt checkpoint: ", path));
      }
    }
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::InvalidArgument(
          StrCat("checkpoint parameter not in module: ", name));
    }
    // The count matches the module's, so a repeated record would leave
    // some other parameter at its initial values.
    if (!loaded.insert(name).second) {
      return Status::InvalidArgument(StrCat(
          "corrupt checkpoint: parameter ", name, " repeated in ", path));
    }
    tensor::Shape file_shape{std::vector<int64_t>(dims)};
    if (file_shape != it->second->shape()) {
      return Status::InvalidArgument(
          StrCat("shape mismatch for ", name, ": checkpoint ",
                 file_shape.ToString(), " vs module ",
                 it->second->shape().ToString()));
    }
    tensor::Tensor* param = it->second;
    if (dtype_byte == static_cast<uint8_t>(tensor::DType::kF32)) {
      // A 4-byte payload (older builds wrote them), widened element-wise.
      std::vector<float> staged(static_cast<size_t>(param->NumElements()));
      in.read(reinterpret_cast<char*>(staged.data()),
              static_cast<std::streamsize>(staged.size() * sizeof(float)));
      std::copy(staged.begin(), staged.end(), param->data());
    } else {
      in.read(reinterpret_cast<char*>(param->raw_data()),
              static_cast<std::streamsize>(param->byte_size()));
    }
    if (!in.good()) {
      return Status::InvalidArgument(StrCat("truncated checkpoint: ", path));
    }
  }
  return Status::Ok();
}

Result<std::string> ReadSnapshotConfig(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound(StrCat("cannot open for reading: ", path));
  }
  std::string config;
  EMAF_RETURN_IF_ERROR(ReadHeader(in, path, &config));
  return config;
}

}  // namespace emaf::nn
