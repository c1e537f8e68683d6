#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "graph/adjacency.h"
#include "models/registry.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace emaf::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

class SmallNet : public Module {
 public:
  explicit SmallNet(Rng* rng) {
    fc1_ = RegisterModule("fc1", std::make_unique<Linear>(3, 4, true, rng));
    fc2_ = RegisterModule("fc2", std::make_unique<Linear>(4, 2, true, rng));
  }
  Tensor Forward(const Tensor& x) {
    return fc2_->Forward(tensor::Relu(fc1_->Forward(x)));
  }
  Linear* fc1_;
  Linear* fc2_;
};

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(SerializeTest, RoundTripRestoresExactValues) {
  Rng rng_a(1);
  SmallNet net_a(&rng_a);
  std::string path = TempPath("roundtrip.emaf");
  ASSERT_TRUE(SaveParameters(&net_a, path).ok());

  Rng rng_b(99);  // different init
  SmallNet net_b(&rng_b);
  ASSERT_TRUE(LoadParameters(&net_b, path).ok());

  Rng data_rng(3);
  Tensor x = Tensor::Uniform(Shape{5, 3}, -1, 1, &data_rng);
  EXPECT_EQ(net_a.Forward(x).ToVector(), net_b.Forward(x).ToVector());
}

TEST(SerializeTest, MissingFileIsNotFound) {
  Rng rng(1);
  SmallNet net(&rng);
  Status status = LoadParameters(&net, TempPath("does_not_exist.emaf"));
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(SerializeTest, RejectsWrongMagic) {
  std::string path = TempPath("bad_magic.emaf");
  std::ofstream out(path, std::ios::binary);
  out << "JUNKJUNKJUNKJUNK";
  out.close();
  Rng rng(1);
  SmallNet net(&rng);
  Status status = LoadParameters(&net, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RejectsTruncatedFile) {
  Rng rng(1);
  SmallNet net(&rng);
  std::string path = TempPath("truncated.emaf");
  ASSERT_TRUE(SaveParameters(&net, path).ok());
  // Truncate to half.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  int64_t size = in.tellg();
  in.seekg(0);
  std::string content(static_cast<size_t>(size / 2), '\0');
  in.read(content.data(), size / 2);
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  out.close();
  EXPECT_FALSE(LoadParameters(&net, path).ok());
}

TEST(SerializeTest, RejectsArchitectureMismatch) {
  Rng rng(1);
  SmallNet net(&rng);
  std::string path = TempPath("mismatch.emaf");
  ASSERT_TRUE(SaveParameters(&net, path).ok());

  class OtherNet : public Module {
   public:
    explicit OtherNet(Rng* rng) {
      RegisterModule("fc1", std::make_unique<Linear>(3, 4, true, rng));
    }
  };
  OtherNet other(&rng);
  Status status = LoadParameters(&other, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RejectsShapeMismatch) {
  Rng rng(1);
  class NetA : public Module {
   public:
    explicit NetA(Rng* rng) {
      RegisterModule("fc", std::make_unique<Linear>(3, 4, true, rng));
    }
  };
  class NetB : public Module {
   public:
    explicit NetB(Rng* rng) {
      RegisterModule("fc", std::make_unique<Linear>(4, 3, true, rng));
    }
  };
  NetA a(&rng);
  std::string path = TempPath("shape_mismatch.emaf");
  ASSERT_TRUE(SaveParameters(&a, path).ok());
  NetB b(&rng);
  Status status = LoadParameters(&b, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("shape mismatch"), std::string::npos);
}

TEST(SerializeTest, SaveToUnwritablePathFails) {
  Rng rng(1);
  SmallNet net(&rng);
  Status status = SaveParameters(&net, "/nonexistent_dir/x.emaf");
  EXPECT_FALSE(status.ok());
}

// --- v3 version word, dtype byte and config embedding ----------------------

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Returns `bytes` with the snapshot version word set to `version`.
std::string WithVersion(std::string bytes, uint32_t version) {
  EXPECT_GE(bytes.size(), 8u);
  std::memcpy(bytes.data() + 4, &version, sizeof(version));
  return bytes;
}

TEST(SerializeTest, SaveAlwaysWritesV3) {
  Rng rng(1);
  SmallNet net(&rng);
  std::string path = TempPath("v3_version.emaf");
  ASSERT_TRUE(SaveParameters(&net, path).ok());
  std::string bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), 8u);
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  EXPECT_EQ(version, 3u);
  EXPECT_EQ(version, kSnapshotVersion);
}

// v3 is the only readable version: the v1 (no config) and v2 (no dtype
// byte) layouts, and any future one, are rejected on the version word
// with a message naming the file and the version.
TEST(SerializeTest, RejectsEveryVersionButV3) {
  Rng rng(1);
  SmallNet net(&rng);
  std::string v3_path = TempPath("version_v3.emaf");
  ASSERT_TRUE(SaveParameters(&net, v3_path, "family=TEST\n").ok());
  for (uint32_t version : {0u, 1u, 2u, 4u}) {
    SCOPED_TRACE(version);
    std::string path = TempPath("version_other.emaf");
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << WithVersion(ReadFileBytes(v3_path), version);
    for (const Status& status :
         {LoadParameters(&net, path), ReadSnapshotConfig(path).status()}) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(status.message().find(path), std::string::npos)
          << status.message();
      EXPECT_NE(status.message().find(StrCat("version ", version)),
                std::string::npos)
          << status.message();
    }
  }
}

// The dtype byte is load-bearing: a value outside the enum must be
// rejected with a message naming the field and the parameter, not read as
// a garbage element width.
TEST(SerializeTest, RejectsInvalidDtypeByte) {
  Rng rng(1);
  SmallNet net(&rng);
  std::string path = TempPath("bad_dtype.emaf");
  ASSERT_TRUE(SaveParameters(&net, path).ok());
  std::string bytes = ReadFileBytes(path);
  // First parameter record sits right after the count: its dtype byte
  // follows the 8-byte name length and the name itself.
  size_t pos = 8;  // magic + version
  uint64_t config_len = 0;
  std::memcpy(&config_len, bytes.data() + pos, sizeof(config_len));
  pos += 8 + config_len + 8;  // config, count
  uint64_t name_len = 0;
  std::memcpy(&name_len, bytes.data() + pos, sizeof(name_len));
  pos += 8 + name_len;
  ASSERT_EQ(bytes[pos], '\0');
  bytes[pos] = 7;  // not a DType
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  Status status = LoadParameters(&net, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("dtype"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("fc1.weight"), std::string::npos)
      << status.message();
}

// Start offsets of every parameter record in a snapshot of f64 payloads,
// followed by the end of the file.
std::vector<size_t> RecordOffsets(const std::string& bytes) {
  auto u64 = [&bytes](size_t pos) {
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + pos, sizeof(v));
    return v;
  };
  size_t pos = 8;            // magic + version
  pos += 8 + u64(pos);       // config
  const uint64_t count = u64(pos);
  pos += 8;
  std::vector<size_t> offsets;
  for (uint64_t i = 0; i < count; ++i) {
    offsets.push_back(pos);
    pos += 8 + u64(pos) + 1;  // name, dtype byte
    const uint64_t rank = u64(pos);
    pos += 8;
    uint64_t numel = 1;
    for (uint64_t d = 0; d < rank; ++d, pos += 8) numel *= u64(pos);
    pos += 8 * numel;
  }
  offsets.push_back(pos);
  return offsets;
}

// The parameter count still matches the module's when a record repeats a
// name, so accepting it would leave some other parameter at its initial
// values.
TEST(SerializeTest, RejectsRepeatedParameterRecord) {
  Rng rng(1);
  SmallNet net(&rng);
  std::string path = TempPath("repeated_record.emaf");
  ASSERT_TRUE(SaveParameters(&net, path).ok());
  const std::string bytes = ReadFileBytes(path);
  const std::vector<size_t> at = RecordOffsets(bytes);
  ASSERT_EQ(at.size(), 5u);  // four records, then the end of the file
  ASSERT_EQ(at.back(), bytes.size());
  // Record 1 (fc1.bias) becomes a second copy of record 0 (fc1.weight).
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, at[1]) << bytes.substr(at[0], at[1] - at[0])
      << bytes.substr(at[2]);
  Status status = LoadParameters(&net, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("fc1.weight"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.message();
}

// A record with dtype byte 1 carries a 4-byte payload, which the reader
// widens into the f64 parameter. Nothing writes byte 1 any more, so the
// file is built by hand.
TEST(SerializeTest, WidensF32PayloadOnLoad) {
  Rng rng_a(1);
  SmallNet source(&rng_a);
  std::string bytes = "EMAF";
  auto append = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  append(kSnapshotVersion);
  append(uint64_t{0});  // config length
  std::vector<NamedParameter> params = source.NamedParameters();
  append(static_cast<uint64_t>(params.size()));
  std::vector<std::vector<double>> expected;
  for (const NamedParameter& p : params) {
    append(static_cast<uint64_t>(p.name.size()));
    bytes += p.name;
    append(static_cast<uint8_t>(tensor::DType::kF32));
    append(static_cast<uint64_t>(p.value->rank()));
    for (int64_t d : p.value->shape().dims()) append(d);
    std::vector<double> widened;
    for (double v : p.value->ToVector()) {
      const float f = static_cast<float>(v);
      append(f);
      widened.push_back(static_cast<double>(f));
    }
    expected.push_back(widened);
  }
  std::string path = TempPath("f32_payload.emaf");
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  Rng rng_b(99);
  SmallNet net(&rng_b);
  ASSERT_TRUE(LoadParameters(&net, path).ok());
  std::vector<NamedParameter> loaded = net.NamedParameters();
  ASSERT_EQ(loaded.size(), expected.size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].value->ToVector(), expected[i]) << loaded[i].name;
  }
}

TEST(SerializeTest, ReadSnapshotConfigReturnsEmbeddedBlob) {
  Rng rng(1);
  SmallNet net(&rng);
  std::string path = TempPath("with_config.emaf");
  const std::string blob = "family=TEST\nanswer=42\n";
  ASSERT_TRUE(SaveParameters(&net, path, blob).ok());
  Result<std::string> read_back = ReadSnapshotConfig(path);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), blob);
  // The embedded blob must not disturb parameter loading.
  EXPECT_TRUE(LoadParameters(&net, path).ok());
}

// --- Forecaster snapshots across all five families -------------------------

constexpr int64_t kVars = 5;
constexpr int64_t kSteps = 3;

models::ModelConfig FamilyConfig(const std::string& family) {
  models::ModelConfig config;
  config.family = family;
  config.num_variables = kVars;
  config.input_length = kSteps;
  config.lstm.hidden_units = 8;
  config.a3tgcn.hidden_units = 8;
  config.astgcn.hidden_units = 8;
  config.astgcn.num_blocks = 2;
  config.mtgnn.residual_channels = 8;
  config.mtgnn.conv_channels = 8;
  config.mtgnn.skip_channels = 8;
  config.mtgnn.end_channels = 16;
  config.mtgnn.embedding_dim = 4;
  if (family != "LSTM" && family != "VAR") {
    graph::AdjacencyMatrix adj(kVars);
    for (int64_t i = 0; i + 1 < kVars; ++i) {
      adj.set(i, i + 1, 0.1 + static_cast<double>(i) / 3.0);
      adj.set(i + 1, i, 0.7 - static_cast<double>(i) / 7.0);
    }
    config.adjacency = adj;
  }
  return config;
}

class SnapshotFamilyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SnapshotFamilyTest, SnapshotRoundTripsToByteIdenticalForecaster) {
  models::ModelConfig config = FamilyConfig(GetParam());
  Rng rng(7);
  std::unique_ptr<models::Forecaster> original =
      models::CreateForecasterOrDie(config, &rng);
  std::string path = TempPath(("snapshot_" + GetParam() + ".snapshot").c_str());
  ASSERT_TRUE(
      models::SaveForecasterSnapshot(original.get(), config, path).ok());

  // The loader learns everything from the file: family, dims, adjacency.
  Rng load_rng(1234);  // deliberately different stream
  Result<std::unique_ptr<models::Forecaster>> restored =
      models::LoadForecasterSnapshot(path, &load_rng);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->name(), GetParam());

  original->SetTraining(false);
  restored.value()->SetTraining(false);
  Rng data_rng(8);
  Tensor window = Tensor::Uniform(Shape{3, kSteps, kVars}, -1, 1, &data_rng);
  EXPECT_EQ(original->Forward(window).ToVector(),
            restored.value()->Forward(window).ToVector());
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, SnapshotFamilyTest,
                         ::testing::Values("LSTM", "VAR", "A3TGCN", "ASTGCN",
                                           "MTGNN"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(SnapshotTest, LoadIntoRejectsMismatchedEmbeddedConfig) {
  models::ModelConfig written = FamilyConfig("LSTM");
  Rng rng(9);
  std::unique_ptr<models::Forecaster> model =
      models::CreateForecasterOrDie(written, &rng);
  std::string path = TempPath("config_mismatch.snapshot");
  ASSERT_TRUE(models::SaveForecasterSnapshot(model.get(), written, path).ok());

  models::ModelConfig expected = written;
  expected.lstm.dropout = 0.123;  // differs from the embedded config
  Rng other_rng(10);
  std::unique_ptr<models::Forecaster> target =
      models::CreateForecasterOrDie(expected, &other_rng);
  Status status = models::LoadForecasterInto(target.get(), expected, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("config mismatch"), std::string::npos);
  // With the matching config it loads fine.
  EXPECT_TRUE(models::LoadForecasterInto(target.get(), written, path).ok());
}

TEST(SnapshotTest, LoadForecasterSnapshotRejectsV1Files) {
  models::ModelConfig config = FamilyConfig("LSTM");
  Rng rng(11);
  std::unique_ptr<models::Forecaster> model =
      models::CreateForecasterOrDie(config, &rng);
  // SaveParameters without a config writes a snapshot with no family to
  // rebuild from; with its version word set to 1 it is a pre-registry file.
  std::string v3_path = TempPath("headless_v3.snapshot");
  ASSERT_TRUE(SaveParameters(model.get(), v3_path).ok());
  std::string v1_path = TempPath("headless_v1.snapshot");
  std::ofstream(v1_path, std::ios::binary | std::ios::trunc)
      << WithVersion(ReadFileBytes(v3_path), 1);
  Rng load_rng(12);
  // The serve path surfaces these to operators, so each message must say
  // which file is bad and why.
  Result<std::unique_ptr<models::Forecaster>> restored =
      models::LoadForecasterSnapshot(v1_path, &load_rng);
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find(v1_path), std::string::npos)
      << restored.status().message();
  EXPECT_NE(restored.status().message().find("version 1"), std::string::npos)
      << restored.status().message();
  Result<std::unique_ptr<models::Forecaster>> headless =
      models::LoadForecasterSnapshot(v3_path, &load_rng);
  EXPECT_EQ(headless.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(headless.status().message().find(v3_path), std::string::npos)
      << headless.status().message();
  EXPECT_NE(headless.status().message().find("empty embedded model config"),
            std::string::npos)
      << headless.status().message();
}

}  // namespace
}  // namespace emaf::nn
