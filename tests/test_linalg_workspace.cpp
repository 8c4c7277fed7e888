// Tests for the workspace arena and the in-place shape operations it
// relies on (DESIGN.md §10): Matrix grow/shrink/push_row/remove_column,
// the in-place Cholesky extend, solve_in_place, and the strided
// solve_lower_block_to — each checked bitwise against the copy-based
// recipe it replaced.

#include "alamr/linalg/workspace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "alamr/linalg/cholesky.hpp"
#include "alamr/linalg/matrix.hpp"
#include "alamr/stats/rng.hpp"

namespace {

using namespace alamr::linalg;
using alamr::stats::Rng;

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.uniform(-2.0, 2.0);
  }
  return m;
}

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix spd = aat(random_matrix(n, n, rng));
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 0.5;
  return spd;
}

TEST(Workspace, AllocBumpsWithinOneChunk) {
  Workspace ws;
  const auto a = ws.alloc(10);
  const auto b = ws.alloc(20);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(b.size(), 20u);
  // Same chunk: b starts exactly where a ended.
  EXPECT_EQ(b.data(), a.data() + 10);
  EXPECT_EQ(ws.doubles_in_use(), 30u);
  EXPECT_EQ(ws.heap_allocations(), 1u);
}

TEST(Workspace, ZerosIsZeroFilled) {
  Workspace ws;
  const auto z = ws.zeros(64);
  EXPECT_TRUE(std::all_of(z.begin(), z.end(), [](double v) { return v == 0.0; }));
}

TEST(Workspace, RewindReusesMemoryWithoutAllocating) {
  Workspace ws;
  const auto mark = ws.mark();
  const auto first = ws.alloc(100);
  ws.rewind(mark);
  EXPECT_EQ(ws.doubles_in_use(), 0u);
  const auto second = ws.alloc(100);
  EXPECT_EQ(second.data(), first.data());
  EXPECT_EQ(ws.heap_allocations(), 1u);
}

TEST(Workspace, GrowsByChunksAndKeepsOldSpansValid) {
  Workspace ws;
  const auto small = ws.alloc(10);
  small[0] = 42.0;
  // Larger than the first chunk's remaining room: forces a second chunk.
  const auto big = ws.alloc(3 * Workspace::kMinChunkDoubles);
  EXPECT_EQ(big.size(), 3 * Workspace::kMinChunkDoubles);
  EXPECT_EQ(ws.heap_allocations(), 2u);
  EXPECT_EQ(small[0], 42.0);  // first chunk untouched
  EXPECT_GE(ws.capacity_doubles(), 3 * Workspace::kMinChunkDoubles + 10);
}

TEST(Workspace, PeakTracksHighWaterAcrossRewinds) {
  Workspace ws;
  const auto mark = ws.mark();
  ws.alloc(500);
  ws.rewind(mark);
  ws.alloc(100);
  EXPECT_EQ(ws.doubles_in_use(), 100u);
  EXPECT_EQ(ws.doubles_peak(), 500u);
  EXPECT_EQ(ws.bytes_peak(), 500u * sizeof(double));
  ws.restart_peak();
  EXPECT_EQ(ws.doubles_peak(), 100u);
  ws.alloc(50);
  EXPECT_EQ(ws.doubles_peak(), 150u);
}

TEST(Workspace, PreSizedArenaFirstPassIsHeapFree) {
  Workspace ws(1000);
  EXPECT_EQ(ws.heap_allocations(), 1u);
  ws.alloc(600);
  ws.alloc(400);
  EXPECT_EQ(ws.heap_allocations(), 1u);  // fit in the pre-sized chunk
}

TEST(Workspace, ScopeRewindsOnEveryExitPath) {
  Workspace ws;
  EXPECT_EQ(ws.open_scopes(), 0u);
  {
    const Workspace::Scope outer(ws);
    ws.alloc(10);
    EXPECT_EQ(ws.open_scopes(), 1u);
    {
      const Workspace::Scope inner(ws);
      ws.alloc(20);
      EXPECT_EQ(ws.open_scopes(), 2u);
      EXPECT_EQ(ws.doubles_in_use(), 30u);
    }
    EXPECT_EQ(ws.doubles_in_use(), 10u);  // inner's allocs released
  }
  EXPECT_EQ(ws.open_scopes(), 0u);
  EXPECT_EQ(ws.doubles_in_use(), 0u);
}

TEST(Workspace, ScopeReleasesOnEarlyReturnLikeExit) {
  // Mimics the simulator's censored-`continue` path: the pass Scope must
  // release its memory even when the pass bails out mid-way.
  Workspace ws;
  for (int pass = 0; pass < 5; ++pass) {
    const Workspace::Scope scope(ws);
    ws.alloc(100);
    if (pass % 2 == 0) continue;  // early exit, Scope still rewinds
    ws.alloc(50);
  }
  EXPECT_EQ(ws.doubles_in_use(), 0u);
  EXPECT_EQ(ws.open_scopes(), 0u);
}

TEST(Workspace, ResetKeepsCapacity) {
  Workspace ws;
  ws.alloc(2 * Workspace::kMinChunkDoubles);
  const std::size_t cap = ws.capacity_doubles();
  const std::size_t allocs = ws.heap_allocations();
  ws.reset();
  EXPECT_EQ(ws.doubles_in_use(), 0u);
  EXPECT_EQ(ws.capacity_doubles(), cap);
  ws.alloc(2 * Workspace::kMinChunkDoubles);
  EXPECT_EQ(ws.heap_allocations(), allocs);  // reused, not re-allocated
}

// --- Matrix in-place shape operations --------------------------------

TEST(MatrixInPlace, PushRowMatchesCopyAppend) {
  Rng rng(11);
  const Matrix base = random_matrix(5, 3, rng);
  const Matrix extra = random_matrix(1, 3, rng);

  // Copy-based reference: rebuild with the row appended.
  Matrix expect(6, 3);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 3; ++j) expect(i, j) = base(i, j);
  }
  for (std::size_t j = 0; j < 3; ++j) expect(5, j) = extra(0, j);

  Matrix got = base;
  got.push_row(extra.row(0));
  EXPECT_EQ(max_abs_diff(got, expect), 0.0);
}

TEST(MatrixInPlace, PushRowOntoEmptySetsShape) {
  Matrix m;
  const std::vector<double> row{1.0, 2.0, 3.0};
  m.push_row(row);
  ASSERT_EQ(m.rows(), 1u);
  ASSERT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(0, 2), 3.0);
}

TEST(MatrixInPlace, PushRowRejectsWidthMismatch) {
  Matrix m(2, 3);
  const std::vector<double> row{1.0, 2.0};
  EXPECT_THROW(m.push_row(row), std::invalid_argument);
}

TEST(MatrixInPlace, RemoveColumnMatchesCopyErase) {
  Rng rng(12);
  const Matrix base = random_matrix(4, 6, rng);
  for (std::size_t col = 0; col < 6; ++col) {
    Matrix expect(4, 5);
    for (std::size_t i = 0; i < 4; ++i) {
      std::size_t k = 0;
      for (std::size_t j = 0; j < 6; ++j) {
        if (j != col) expect(i, k++) = base(i, j);
      }
    }
    Matrix got = base;
    got.remove_column(col);
    ASSERT_EQ(got.cols(), 5u);
    EXPECT_EQ(max_abs_diff(got, expect), 0.0) << "col " << col;
  }
}

TEST(MatrixInPlace, RemoveColumnRejectsOutOfRange) {
  Matrix m(2, 3);
  EXPECT_THROW(m.remove_column(3), std::invalid_argument);
}

TEST(MatrixInPlace, GrowZeroFillsAndPreservesPrefix) {
  Rng rng(13);
  const Matrix base = random_matrix(3, 2, rng);
  Matrix got = base;
  got.grow(5, 4);
  ASSERT_EQ(got.rows(), 5u);
  ASSERT_EQ(got.cols(), 4u);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      const double expect = (i < 3 && j < 2) ? base(i, j) : 0.0;
      EXPECT_EQ(got(i, j), expect) << i << "," << j;
    }
  }
  EXPECT_THROW(got.grow(4, 4), std::invalid_argument);  // shrinking via grow
}

TEST(MatrixInPlace, ShrinkKeepsTopLeftBlock) {
  Rng rng(14);
  const Matrix base = random_matrix(5, 4, rng);
  Matrix got = base;
  got.shrink(3, 2);
  ASSERT_EQ(got.rows(), 3u);
  ASSERT_EQ(got.cols(), 2u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 2; ++j) EXPECT_EQ(got(i, j), base(i, j));
  }
  EXPECT_THROW(got.shrink(4, 2), std::invalid_argument);  // growing via shrink
}

TEST(MatrixInPlace, GrowShrinkRoundTripIsIdentity) {
  Rng rng(15);
  const Matrix base = random_matrix(4, 4, rng);
  Matrix got = base;
  got.grow(7, 7);
  got.shrink(4, 4);
  EXPECT_EQ(max_abs_diff(got, base), 0.0);
}

TEST(MatrixInPlace, ReserveMakesPushRowAllocationStable) {
  Matrix m(1, 8);
  m.reserve(64, 8);
  const std::size_t cap = m.capacity();
  const std::vector<double> row(8, 1.5);
  for (int i = 0; i < 63; ++i) m.push_row(row);
  EXPECT_EQ(m.capacity(), cap);
}

// --- Cholesky in-place paths -----------------------------------------

TEST(CholeskyInPlace, ExtendMatchesFromScratchFactor) {
  Rng rng(21);
  const std::size_t n = 9;
  const Matrix full = random_spd(n, rng);

  Matrix head(n - 1, n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = 0; j + 1 < n; ++j) head(i, j) = full(i, j);
  }
  auto grown = CholeskyFactor::factor(head);
  ASSERT_TRUE(grown.has_value());
  std::vector<double> row(n - 1);
  for (std::size_t j = 0; j + 1 < n; ++j) row[j] = full(n - 1, j);
  ASSERT_TRUE(grown->extend(row, full(n - 1, n - 1)));

  const auto direct = CholeskyFactor::factor(full);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(max_abs_diff(grown->lower(), direct->lower()), 0.0);
}

TEST(CholeskyInPlace, RejectedExtendLeavesFactorUsable) {
  Rng rng(22);
  const std::size_t n = 6;
  const Matrix spd = random_spd(n, rng);
  auto factor = CholeskyFactor::factor(spd);
  ASSERT_TRUE(factor.has_value());
  const Matrix lower_before = factor->lower();

  // A new row identical to row 0 with its diagonal lowered makes the
  // extended matrix strictly indefinite (the exactly-singular case,
  // diagonal == spd(0, 0), lands on d == 0 only in the bit-exact scalar
  // chain — SIMD rounding can tip it either way): the extension must be
  // rejected.
  std::vector<double> row(n);
  for (std::size_t j = 0; j < n; ++j) row[j] = spd(0, j);
  EXPECT_FALSE(factor->extend(row, spd(0, 0) - 1.0));

  // In-place rollback: factor is bit-for-bit the pre-extend one.
  EXPECT_EQ(factor->size(), n);
  EXPECT_EQ(max_abs_diff(factor->lower(), lower_before), 0.0);
  const Vector x = factor->solve(std::vector<double>(n, 1.0));
  EXPECT_EQ(x.size(), n);
}

TEST(CholeskyInPlace, SolveInPlaceMatchesSolve) {
  Rng rng(23);
  const std::size_t n = 12;
  const auto factor = CholeskyFactor::factor(random_spd(n, rng));
  ASSERT_TRUE(factor.has_value());
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);

  const Vector expect = factor->solve(b);
  std::vector<double> got = b;
  factor->solve_in_place(got);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], expect[i]) << i;
}

TEST(CholeskyInPlace, SolveLowerBlockToMatchesSolveLowerBlock) {
  Rng rng(24);
  const std::size_t n = 10;
  const std::size_t m = 7;
  const auto factor = CholeskyFactor::factor(random_spd(n, rng));
  ASSERT_TRUE(factor.has_value());
  const Matrix b = random_matrix(n, m, rng);

  // Whole block, strided into a wider destination: columns [1, 1 + m) of
  // an n x (m + 3) buffer — the layout predict_batch uses when a thread
  // chunk writes its stripe of the shared scratch.
  const Matrix expect = factor->solve_lower_block(b, 0, m);
  Matrix wide(n, m + 3);
  factor->solve_lower_block_to(b, 0, m, wide.data().data() + 1, m + 3);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(wide(i, j + 1), expect(i, j)) << i << "," << j;
    }
  }

  // Partial column ranges, written tightly at their own offset, agree
  // with the allocating API's sub-blocks.
  for (std::size_t begin = 0; begin < m; begin += 3) {
    const std::size_t end = std::min(begin + 3, m);
    const Matrix part = factor->solve_lower_block(b, begin, end);
    Matrix dst(n, m);
    factor->solve_lower_block_to(b, begin, end, dst.data().data() + begin, m);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = begin; j < end; ++j) {
        EXPECT_EQ(dst(i, j), part(i, j - begin));
      }
    }
  }
}

}  // namespace
