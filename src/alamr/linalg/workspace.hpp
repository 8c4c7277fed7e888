#pragma once

// Monotonic workspace arena for the AL inner loop (DESIGN.md §10).
//
// Every temporary the steady-state pass needs — candidate feature tiles,
// batched posterior means/variances, triangular-solve scratch — is carved
// out of one per-trajectory Workspace instead of the heap. Allocation is a
// pointer bump; deallocation is a rewind to a checkpoint taken at the top
// of the pass. After a warm-up pass has sized the arena, a steady-state
// pass touches the allocator not at all: chunk growth only happens when
// the high-water mark rises, and the AL active set shrinks monotonically,
// so the first full pass is the high-water mark for the trajectory.
//
// The arena hands out raw double spans (the only scalar type the hot loop
// uses). Alignment is alignof(double) == the chunk allocation alignment,
// so no padding bookkeeping is needed. Not thread-safe: one Workspace per
// trajectory, used only from the thread driving that trajectory (the
// thread-pool engine gives each trajectory to exactly one worker).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace alamr::linalg {

class Workspace {
 public:
  /// Default chunk size (in doubles) for the first heap chunk; later
  /// chunks double geometrically. 4096 doubles = 32 KiB, comfortably
  /// covering small trajectories in one allocation.
  static constexpr std::size_t kMinChunkDoubles = 4096;

  Workspace() = default;
  /// Pre-sizes the first chunk (in doubles) so even the first pass can be
  /// allocation-free when the caller knows the bound.
  explicit Workspace(std::size_t initial_doubles);

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Bump-allocates `n` doubles. Contents unspecified (like operator new).
  /// Only allocates from the heap when no existing chunk has room.
  std::span<double> alloc(std::size_t n);

  /// Bump-allocates `n` doubles and zero-fills them.
  std::span<double> zeros(std::size_t n);

  /// Opaque position marker. Rewinding to a mark frees (for reuse) every
  /// span handed out after it was taken; the spans' memory stays mapped,
  /// so stale reads are bugs the same way use-after-free is.
  struct Mark {
    std::size_t chunk = 0;
    std::size_t used = 0;
    std::size_t in_use = 0;
  };

  Mark mark() const noexcept;
  void rewind(const Mark& m) noexcept;
  /// Rewinds to empty, keeping all chunks for reuse.
  void reset() noexcept;

  /// RAII checkpoint: rewinds on destruction. The pass loop opens one
  /// Scope per pass, so every exit path — normal advance, censored
  /// `continue`, retry — releases the pass's arena memory without
  /// explicit bookkeeping (ISSUE 5 satellite: kRetryNextCandidate must
  /// not leak checkpoints).
  class Scope {
   public:
    explicit Scope(Workspace& ws) noexcept : ws_(ws), mark_(ws.mark()) {
      ++ws_.open_scopes_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      --ws_.open_scopes_;
      ws_.rewind(mark_);
    }

   private:
    Workspace& ws_;
    Mark mark_;
  };

  /// Doubles currently handed out (since the last full reset/rewind).
  std::size_t doubles_in_use() const noexcept { return in_use_; }
  /// High-water mark of doubles_in_use() over the arena's lifetime, or
  /// since the last restart_peak().
  std::size_t doubles_peak() const noexcept { return peak_; }
  /// Restarts the high-water mark from the current use, so a capacity
  /// pre-warm (alloc + reset) does not count as use.
  void restart_peak() noexcept { peak_ = in_use_; }
  /// bytes variants, for the `arena.bytes_peak` trace counter.
  std::size_t bytes_in_use() const noexcept { return in_use_ * sizeof(double); }
  std::size_t bytes_peak() const noexcept { return peak_ * sizeof(double); }
  /// Number of heap chunk allocations performed so far. Stable across
  /// steady-state passes once the arena has warmed up.
  std::size_t heap_allocations() const noexcept { return heap_allocations_; }
  /// Currently-open Scope count; 0 between passes unless a checkpoint
  /// leaked.
  std::size_t open_scopes() const noexcept { return open_scopes_; }
  /// Total doubles of chunk capacity owned.
  std::size_t capacity_doubles() const noexcept;

 private:
  struct Chunk {
    std::unique_ptr<double[]> data;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  /// Makes chunks_[active_] (possibly a fresh chunk) able to hold `n` more
  /// doubles.
  void ensure_room(std::size_t n);

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;
  std::size_t in_use_ = 0;
  std::size_t peak_ = 0;
  std::size_t heap_allocations_ = 0;
  std::size_t open_scopes_ = 0;
};

}  // namespace alamr::linalg
