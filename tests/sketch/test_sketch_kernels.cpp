// Differential suite for the sketch cell kernels: the AVX2 backend must
// agree bit-for-bit with the portable scalar loops on every primitive,
// over every sketch shape the repo configures plus adversarial lengths
// (odd widths, sub-lane tails, unaligned bases). Skips cleanly when the
// AVX2 kernel is not compiled in or the CPU lacks it — the portable
// kernel needs no oracle, it IS the oracle.
#include "sketch/sketch_kernel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace eyw::sketch {
namespace {

/// Cell counts covering the repo's configured geometries (depth x width
/// from tests, scenarios, the paper parameterization 17x2719 and the
/// quickstart 4x256) plus edges: empty, single lane, one under/over the
/// 8-lane AVX2 width, one under/over a full 256-key min-scan block.
const std::vector<std::size_t>& interesting_sizes() {
  static const std::vector<std::size_t> sizes = {
      0,    1,    3,       7,       8,       9,       15,      16,
      17,   31,   33,      57,      64,      65,      100,     127,
      255,  256,  257,     2 * 32,  3 * 16,  4 * 57,  4 * 65,  4 * 128,
      4 * 256, 5 * 256, 8 * 4096, 17 * 2719};
  return sizes;
}

std::vector<std::uint32_t> random_cells(util::Rng& rng, std::size_t n) {
  std::vector<std::uint32_t> cells(n);
  // Full 32-bit range: wrapping overflow paths must agree too.
  for (std::uint32_t& c : cells)
    c = static_cast<std::uint32_t>(rng.next());
  return cells;
}

class SketchKernelDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    avx2_ = avx2_sketch_kernel();
    if (avx2_ == nullptr)
      GTEST_SKIP() << "AVX2 sketch kernel unavailable (not compiled in or "
                      "CPU lacks AVX2) — portable kernel is the only "
                      "backend, nothing to differentiate";
  }

  const SketchKernel* avx2_ = nullptr;
  const SketchKernel& portable_ = portable_sketch_kernel();
};

TEST_F(SketchKernelDifferential, AddCellsAgreesOnEveryShape) {
  util::Rng rng(11);
  for (const std::size_t n : interesting_sizes()) {
    const std::vector<std::uint32_t> src = random_cells(rng, n);
    const std::vector<std::uint32_t> base = random_cells(rng, n);
    std::vector<std::uint32_t> want = base;
    std::vector<std::uint32_t> got = base;
    portable_.add_cells(want.data(), src.data(), n);
    avx2_->add_cells(got.data(), src.data(), n);
    EXPECT_EQ(want, got) << "n=" << n;
  }
}

TEST_F(SketchKernelDifferential, SubCellsAgreesOnEveryShape) {
  util::Rng rng(12);
  for (const std::size_t n : interesting_sizes()) {
    const std::vector<std::uint32_t> src = random_cells(rng, n);
    const std::vector<std::uint32_t> base = random_cells(rng, n);
    std::vector<std::uint32_t> want = base;
    std::vector<std::uint32_t> got = base;
    portable_.sub_cells(want.data(), src.data(), n);
    avx2_->sub_cells(got.data(), src.data(), n);
    EXPECT_EQ(want, got) << "n=" << n;
  }
}

TEST_F(SketchKernelDifferential, RowMinAgreesOnEveryShape) {
  util::Rng rng(14);
  for (const std::size_t n : interesting_sizes()) {
    if (n == 0) continue;  // an empty row has nothing to gather from
    const std::vector<std::uint32_t> row = random_cells(rng, n);
    // Key batches both shorter and longer than the row, indices across
    // the whole row (31-bit constraint holds: n < 2^31 everywhere here).
    for (const std::size_t keys : {std::size_t{1}, std::size_t{7}, n,
                                   n + 5, std::size_t{256}}) {
      std::vector<std::uint32_t> idx(keys);
      for (std::uint32_t& i : idx)
        i = static_cast<std::uint32_t>(rng.next() % n);
      std::vector<std::uint32_t> want = random_cells(rng, keys);
      std::vector<std::uint32_t> got = want;
      portable_.row_min(want.data(), row.data(), idx.data(), keys);
      avx2_->row_min(got.data(), row.data(), idx.data(), keys);
      EXPECT_EQ(want, got) << "n=" << n << " keys=" << keys;
    }
  }
}

TEST_F(SketchKernelDifferential, UnalignedBasesAgree) {
  // Slide the working window one element at a time across a 32-byte
  // boundary: every base alignment mod 32 must produce identical bytes
  // (the kernels use unaligned loads; this is the test that keeps it so).
  util::Rng rng(15);
  constexpr std::size_t kN = 61;  // odd length: head + vector body + tail
  const std::vector<std::uint32_t> backing_src = random_cells(rng, kN + 16);
  const std::vector<std::uint32_t> backing_base = random_cells(rng, kN + 16);
  for (std::size_t off = 0; off < 8; ++off) {
    std::vector<std::uint32_t> want = backing_base;
    std::vector<std::uint32_t> got = backing_base;
    portable_.add_cells(want.data() + off, backing_src.data() + off, kN);
    avx2_->add_cells(got.data() + off, backing_src.data() + off, kN);
    EXPECT_EQ(want, got) << "offset=" << off;

    want = backing_base;
    got = backing_base;
    portable_.sub_cells(want.data() + off, backing_src.data() + off, kN);
    avx2_->sub_cells(got.data() + off, backing_src.data() + off, kN);
    EXPECT_EQ(want, got) << "offset=" << off;
  }
}

TEST(SketchKernelSelection, ActiveKernelRespectsEnvOverride) {
  // The suite runs under both CI legs (default and
  // EYW_SKETCH_KERNEL=portable); whatever was selected must be one of the
  // two real backends and honor an explicit portable override.
  const SketchKernel& active = active_sketch_kernel();
  const char* env = ::getenv("EYW_SKETCH_KERNEL");
  if (env != nullptr && std::string_view(env) == "portable")
    EXPECT_STREQ(active.name, "portable");
  else
    EXPECT_TRUE(std::string_view(active.name) == "portable" ||
                std::string_view(active.name) == "avx2");
  if (std::string_view(active.name) == "avx2")
    EXPECT_NE(avx2_sketch_kernel(), nullptr);
}

}  // namespace
}  // namespace eyw::sketch
