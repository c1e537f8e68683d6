// Binary checkpointing of module parameters.
//
// Format v3 (little-endian):
//   magic "EMAF"  | uint32 version | uint64 config length | config bytes |
//   uint64 parameter count
//   per parameter: uint64 name length | name bytes | uint8 dtype |
//                  uint64 rank | int64 dims[rank] | data[numel]
//
// The dtype byte is the tensor::DType enum value (0 = f64, 1 = f32) and
// governs the element width of the data payload that follows. The writer
// always emits f64; the reader widens an f32 payload (written by older
// builds) to f64. The config blob is an opaque string (the model registry
// stores a serialized ModelConfig there) so a serving process can rebuild
// the module before loading its weights. This module is the only reader
// and writer of the format, and v3 is the only version it reads: files of
// any other version (v1 had no config, v2 no dtype byte) are rejected with
// kInvalidArgument naming the file and the version.

#ifndef EMAF_NN_SERIALIZE_H_
#define EMAF_NN_SERIALIZE_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "nn/module.h"

namespace emaf::nn {

// The snapshot format version written and read (see the format comment
// above).
inline constexpr uint32_t kSnapshotVersion = 3;

// Writes every named parameter of `module` to `path` (empty config).
Status SaveParameters(Module* module, const std::string& path);

// As above, embedding `config` verbatim in the snapshot header.
Status SaveParameters(Module* module, const std::string& path,
                      std::string_view config);

// Loads a snapshot into `module`. Every parameter in the file must exist
// in the module with an identical shape, and vice versa; a record that
// repeats a name is kInvalidArgument. f32 payloads are widened to f64.
// The embedded config is ignored here — use ReadSnapshotConfig.
Status LoadParameters(Module* module, const std::string& path);

// Returns the config blob embedded in a snapshot; empty for a file saved
// without a config.
Result<std::string> ReadSnapshotConfig(const std::string& path);

}  // namespace emaf::nn

#endif  // EMAF_NN_SERIALIZE_H_
