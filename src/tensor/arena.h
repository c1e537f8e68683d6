// InferenceArena: a storage pool that recycles tensor buffers of matching
// byte size, so steady-state inference performs zero heap allocation after
// warm-up (DESIGN.md, "Serving layer").
//
// Mechanics: while an ArenaScope is active on a thread, MakeUninitialized
// asks the scoped arena for storage instead of the heap. The arena keeps a
// free list per byte count; a request that finds a pooled buffer of the
// exact size reuses it (hit), otherwise the buffer is heap-allocated once
// (miss) and joins the pool when its last Tensor reference drops — the
// storage shared_ptr carries a custom deleter that returns the vector to
// the arena instead of freeing it. After the first request through a model
// (the warm-up), every later request with the same shapes is served
// entirely from the pool.
//
// Contracts:
//   - Recycled buffers hold stale values. MakeUninitialized is already
//     specified as uninitialized; Tensor::Zeros explicitly clears its
//     buffer when an arena is active (tensor.cc), so no caller observes
//     the difference.
//   - The arena may be shared by several threads (the server
//     shares one across its worker pool); Acquire and the deleter take a
//     short mutex. Arena use never changes numerics — it only changes
//     where a buffer's bytes live.
//   - Buffers may outlive the InferenceArena handle and even the scope:
//     the pool state is shared_ptr-owned and kept alive by every
//     outstanding buffer's deleter.

#ifndef EMAF_TENSOR_ARENA_H_
#define EMAF_TENSOR_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace emaf::tensor {

class InferenceArena {
 public:
  InferenceArena();

  struct Stats {
    uint64_t hits = 0;         // requests served from the pool
    uint64_t misses = 0;       // requests that heap-allocated
    uint64_t outstanding = 0;  // buffers currently lent out
    uint64_t pooled = 0;       // buffers resting in the free lists
  };
  Stats stats() const;
  // Zeroes hits/misses (outstanding/pooled reflect live state).
  void ResetStats();
  // Frees every pooled buffer; outstanding buffers still return and pool.
  void Clear();

  // Storage for `bytes` bytes, recycled when a matching buffer is pooled.
  // Called by MakeUninitialized under an active ArenaScope.
  std::shared_ptr<std::vector<std::byte>> Acquire(int64_t bytes);

 private:
  struct State;
  std::shared_ptr<State> state_;
};

// RAII: routes MakeUninitialized on the current thread through `arena`.
// Scopes nest; the innermost active scope wins and the previous routing is
// restored on destruction. Passing nullptr suspends arena routing inside
// an outer scope.
class ArenaScope {
 public:
  explicit ArenaScope(InferenceArena* arena);
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;
  ~ArenaScope();

 private:
  InferenceArena* previous_;
};

// The arena routing MakeUninitialized on this thread; nullptr = plain heap.
InferenceArena* CurrentArena();

}  // namespace emaf::tensor

#endif  // EMAF_TENSOR_ARENA_H_
