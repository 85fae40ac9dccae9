#include "crypto/blinding.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <string_view>

#include "crypto/sha256.hpp"
#include "crypto/sha256_kernel.hpp"
#include "util/thread_pool.hpp"

namespace eyw::crypto {
namespace {

struct Roster {
  DhGroup group;
  std::vector<DhKeyPair> keys;
  std::vector<Bignum> publics;
  std::vector<BlindingParticipant> participants;
};

Roster make_roster(std::size_t n, std::uint64_t seed) {
  static const DhGroup group = [] {
    util::Rng rng(5150);
    return DhGroup::generate(rng, 128);
  }();
  Roster r{.group = group, .keys = {}, .publics = {}, .participants = {}};
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    r.keys.push_back(dh_keygen(group, rng));
    r.publics.push_back(r.keys.back().public_key);
  }
  for (std::size_t i = 0; i < n; ++i)
    r.participants.emplace_back(group, i, r.keys[i],
                                std::span<const Bignum>(r.publics));
  return r;
}

TEST(Blinding, SharesOfZeroCancel) {
  const Roster r = make_roster(5, 1);
  const std::size_t cells = 16;
  std::vector<BlindCell> sum(cells, 0);
  for (const auto& p : r.participants) {
    const auto b = p.blinding_vector(cells, /*round=*/0);
    for (std::size_t m = 0; m < cells; ++m) sum[m] += b[m];
  }
  for (std::size_t m = 0; m < cells; ++m) EXPECT_EQ(sum[m], 0u) << "cell " << m;
}

TEST(Blinding, TwoParticipantsCancel) {
  const Roster r = make_roster(2, 2);
  const auto b0 = r.participants[0].blinding_vector(8, 3);
  const auto b1 = r.participants[1].blinding_vector(8, 3);
  for (std::size_t m = 0; m < 8; ++m)
    EXPECT_EQ(static_cast<BlindCell>(b0[m] + b1[m]), 0u);
}

TEST(Blinding, AggregationRecoversPlaintextSum) {
  const Roster r = make_roster(4, 3);
  const std::size_t cells = 10;
  std::vector<std::vector<BlindCell>> plain(4);
  std::vector<std::vector<BlindCell>> reports;
  for (std::size_t i = 0; i < 4; ++i) {
    plain[i].resize(cells);
    for (std::size_t m = 0; m < cells; ++m)
      plain[i][m] = static_cast<BlindCell>(i * 100 + m);
    reports.push_back(r.participants[i].blind(plain[i], /*round=*/7));
  }
  const auto agg = aggregate_blinded(reports);
  for (std::size_t m = 0; m < cells; ++m) {
    BlindCell expected = 0;
    for (std::size_t i = 0; i < 4; ++i) expected += plain[i][m];
    EXPECT_EQ(agg[m], expected);
  }
}

TEST(Blinding, SingleBlindedReportLooksRandom) {
  // A lone blinded report must not equal the plaintext (overwhelming prob.).
  const Roster r = make_roster(3, 4);
  const std::vector<BlindCell> plain(32, 5);
  const auto blinded = r.participants[0].blind(plain, 0);
  std::size_t equal = 0;
  for (std::size_t m = 0; m < plain.size(); ++m)
    if (blinded[m] == plain[m]) ++equal;
  EXPECT_LT(equal, 3u);
}

TEST(Blinding, RoundsAreIndependent) {
  const Roster r = make_roster(3, 5);
  const auto b0 = r.participants[0].blinding_vector(8, /*round=*/1);
  const auto b1 = r.participants[0].blinding_vector(8, /*round=*/2);
  EXPECT_NE(b0, b1);
}

TEST(Blinding, MissingClientLeavesResidue) {
  const Roster r = make_roster(5, 6);
  const std::size_t cells = 8;
  // Client 2 never reports.
  std::vector<std::vector<BlindCell>> reports;
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == 2) continue;
    reports.push_back(
        r.participants[i].blind(std::vector<BlindCell>(cells, 1), 0));
  }
  auto agg = aggregate_blinded(reports);
  // Aggregate without adjustment is garbage: != 4 in at least one cell.
  bool any_wrong = false;
  for (std::size_t m = 0; m < cells; ++m) any_wrong |= agg[m] != 4u;
  EXPECT_TRUE(any_wrong);
}

TEST(Blinding, AdjustmentRoundCancelsMissingClients) {
  const Roster r = make_roster(6, 7);
  const std::size_t cells = 12;
  const std::vector<std::size_t> missing{1, 4};
  std::vector<std::vector<BlindCell>> reports;
  std::vector<std::size_t> reporters;
  for (std::size_t i = 0; i < 6; ++i) {
    if (i == 1 || i == 4) continue;
    reporters.push_back(i);
    reports.push_back(
        r.participants[i].blind(std::vector<BlindCell>(cells, 2), 9));
  }
  auto agg = aggregate_blinded(reports);
  for (std::size_t i : reporters) {
    const auto adj = r.participants[i].adjustment_for_missing(
        cells, 9, std::span<const std::size_t>(missing));
    apply_adjustment(agg, adj);
  }
  for (std::size_t m = 0; m < cells; ++m)
    EXPECT_EQ(agg[m], 8u) << "cell " << m;  // 4 reporters x 2
}

TEST(Blinding, AdjustmentRejectsSelf) {
  const Roster r = make_roster(3, 8);
  const std::vector<std::size_t> missing{0};
  EXPECT_THROW(r.participants[0].adjustment_for_missing(4, 0, missing),
               std::invalid_argument);
}

TEST(Blinding, AdjustmentRejectsUnknownIndex) {
  const Roster r = make_roster(3, 9);
  const std::vector<std::size_t> missing{7};
  EXPECT_THROW(r.participants[0].adjustment_for_missing(4, 0, missing),
               std::invalid_argument);
}

TEST(Blinding, ConstructorValidatesRoster) {
  const Roster r = make_roster(3, 10);
  EXPECT_THROW(BlindingParticipant(r.group, 5, r.keys[0],
                                   std::span<const Bignum>(r.publics)),
               std::invalid_argument);
  // Index/key mismatch.
  EXPECT_THROW(BlindingParticipant(r.group, 1, r.keys[0],
                                   std::span<const Bignum>(r.publics)),
               std::invalid_argument);
}

TEST(Blinding, AggregateRejectsMismatchedSizes) {
  std::vector<std::vector<BlindCell>> reports{{1, 2}, {1, 2, 3}};
  EXPECT_THROW(aggregate_blinded(reports), std::invalid_argument);
}

// Known-answer blinding: blind(), blinding_vector() and
// adjustment_for_missing() against a reference written from the formula
// in crypto/blinding.hpp with nothing but the incremental Sha256 class —
// no expansion helper, no kernel entry. CMakeLists.txt runs this suite
// once per SHA-256 backend through EYW_SHA256_KERNEL, so no kernel can
// change a pad bit unnoticed (pads are a cross-version interop
// invariant).
class BlindingKnownAnswer : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* env = std::getenv("EYW_SHA256_KERNEL");
    const std::string_view want = env != nullptr ? env : "auto";
    if (want != "auto" && want != active_sha256_kernel().name)
      GTEST_SKIP() << "SHA-256 backend '" << want
                   << "' unavailable on this host";
  }

  /// P_ij[m] for m in [0, cells): big-endian word m of the stream
  /// SHA-256(seed || c), seed = SHA-256(k_ij || round).
  static std::vector<BlindCell> reference_pad(const Digest& pair_key,
                                              std::uint64_t round,
                                              std::size_t cells) {
    Sha256 seed_hash;
    seed_hash.update(pair_key);
    seed_hash.update_u64(round);
    const Digest seed = seed_hash.finish();
    std::vector<BlindCell> pad(cells);
    Digest block{};
    for (std::size_t m = 0; m < cells; ++m) {
      if (m % 8 == 0) {
        Sha256 h;
        h.update(seed);
        h.update_u64(m / 8);
        block = h.finish();
      }
      const std::size_t b = 4 * (m % 8);
      pad[m] = (static_cast<BlindCell>(block[b]) << 24) |
               (static_cast<BlindCell>(block[b + 1]) << 16) |
               (static_cast<BlindCell>(block[b + 2]) << 8) |
               static_cast<BlindCell>(block[b + 3]);
    }
    return pad;
  }

  /// sum over j in `peers` of (i > j ? +P_ij : -P_ij).
  static std::vector<BlindCell> reference_sum(
      const Roster& r, std::size_t i, std::span<const std::size_t> peers,
      std::size_t cells, std::uint64_t round) {
    std::vector<BlindCell> out(cells, 0);
    for (const std::size_t j : peers) {
      const Digest key = dh_secret_to_key(
          dh_shared_secret(r.group, r.keys[i].private_key, r.publics[j]));
      const auto pad = reference_pad(key, round, cells);
      for (std::size_t m = 0; m < cells; ++m)
        out[m] = i > j ? out[m] + pad[m] : out[m] - pad[m];
    }
    return out;
  }
};

TEST_F(BlindingKnownAnswer, MatchesReferenceFormula) {
  constexpr std::size_t kN = 4;
  const Roster r = make_roster(kN, 11);
  // The same roster on a one-thread pool (pads folded straight into the
  // result) and on a four-thread pool (chunked private accumulators).
  util::ThreadPool serial(1);
  util::ThreadPool wide(4);
  std::vector<BlindingParticipant> on_serial, on_wide;
  for (std::size_t i = 0; i < kN; ++i) {
    on_serial.emplace_back(r.group, i, r.keys[i],
                           std::span<const Bignum>(r.publics), &serial);
    on_wide.emplace_back(r.group, i, r.keys[i],
                         std::span<const Bignum>(r.publics), &wide);
  }
  for (const std::size_t cells :
       {1u, 7u, 8u, 9u, 127u, 128u, 129u, 1024u, 1031u}) {
    for (const std::uint64_t round : {0ull, 0x0123456789abcdefull}) {
      for (std::size_t i = 0; i < kN; ++i) {
        std::vector<std::size_t> others;
        for (std::size_t j = 0; j < kN; ++j)
          if (j != i) others.push_back(j);
        const auto want = reference_sum(r, i, others, cells, round);
        std::vector<BlindCell> plain(cells);
        for (std::size_t m = 0; m < cells; ++m)
          plain[m] = static_cast<BlindCell>(0x9e3779b9u * (m + 1) + i);
        std::vector<BlindCell> want_blind(cells);
        for (std::size_t m = 0; m < cells; ++m)
          want_blind[m] = plain[m] + want[m];
        // The missing set: the two participants after i (wrapping).
        const std::vector<std::size_t> missing{(i + 1) % kN, (i + 2) % kN};
        const auto want_adjust =
            reference_sum(r, i, missing, cells, round);
        for (const auto* ps : {&on_serial, &on_wide}) {
          const BlindingParticipant& p = (*ps)[i];
          const std::string where = "cells " + std::to_string(cells) +
                                    " round " + std::to_string(round) +
                                    " participant " + std::to_string(i) +
                                    (ps == &on_serial ? " serial" : " wide");
          EXPECT_EQ(p.blinding_vector(cells, round), want) << where;
          EXPECT_EQ(p.blind(plain, round), want_blind) << where;
          EXPECT_EQ(p.adjustment_for_missing(cells, round, missing),
                    want_adjust)
              << where;
        }
      }
    }
  }
}

TEST(Blinding, RosterBytesScalesQuadratically) {
  const DhGroup g = DhGroup::rfc3526_2048();
  EXPECT_EQ(roster_bytes(g, 0), 0u);
  EXPECT_EQ(roster_bytes(g, 1), 256u);
  // n elements up + n(n-1) down.
  EXPECT_EQ(roster_bytes(g, 10), (10 + 90) * 256u);
}

}  // namespace
}  // namespace eyw::crypto
