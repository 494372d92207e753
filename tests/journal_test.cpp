// Write-ahead journal unit tests: the CRC32C checksum against a bitwise
// reference, record round-trips, group commit and crash visibility, snapshot + compaction equivalence, CRC rejection,
// recovery idempotence — and the torn-write corpus: the durable log
// truncated at EVERY byte offset and flipped at EVERY bit, with recovery
// required to (a) never crash, (b) recover exactly the longest valid
// record prefix, and (c) never resurrect records that were not durable.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "journal/crc32c.h"
#include "journal/journal.h"
#include "sim/storage.h"
#include "wire/codec.h"

namespace gsalert::journal {
namespace {

constexpr std::uint8_t kSet = 1;
constexpr std::uint8_t kErase = 2;

/// Toy replayable state machine over the journal: a string -> u64 map.
struct ToyState {
  std::map<std::string, std::uint64_t> kv;

  void apply(std::uint8_t type, wire::Reader& r) {
    if (type == kSet) {
      std::string key = r.str();
      const std::uint64_t value = r.u64();
      if (r.ok()) kv[key] = value;
    } else if (type == kErase) {
      std::string key = r.str();
      if (r.ok()) kv.erase(key);
    }
  }

  void snapshot(wire::Writer& w) const {
    w.u32(static_cast<std::uint32_t>(kv.size()));
    for (const auto& [key, value] : kv) {
      w.str(key);
      w.u64(value);
    }
  }

  void load(wire::Reader& r) {
    kv.clear();
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      std::string key = r.str();
      const std::uint64_t value = r.u64();
      if (r.ok()) kv[key] = value;
    }
  }
};

/// Harness pairing a Journal with a ToyState.
struct Toy {
  sim::Storage& storage;
  JournalPolicy policy;
  Journal journal;
  ToyState state;

  Toy(sim::Storage& s, JournalPolicy p = {})
      : storage(s), policy(p), journal(s, "toy", "test-node", p) {
    journal.set_snapshot_writer(
        [this](wire::Writer& w) { state.snapshot(w); });
  }

  void set(const std::string& key, std::uint64_t value) {
    wire::Writer w;
    w.reserve(4 + key.size() + 8);
    w.str(key);
    w.u64(value);
    journal.append(kSet, std::move(w));
    state.kv[key] = value;
  }

  void erase(const std::string& key) {
    wire::Writer w;
    w.reserve(4 + key.size());
    w.str(key);
    journal.append(kErase, std::move(w));
    state.kv.erase(key);
  }

  RecoveryResult recover() {
    return journal.recover(
        [this](wire::Reader& r) { state.load(r); },
        [this](std::uint8_t type, wire::Reader& r, std::uint64_t /*lsn*/) {
          state.apply(type, r);
        });
  }
};

/// Copy of the durable log image (recovery only ever sees durable bytes).
std::vector<std::byte> durable_log(const sim::Storage& storage,
                                   const std::string& file) {
  const auto span = storage.read(file);
  return {span.begin(), span.end()};
}

/// Fresh storage holding `image` as the durable contents of `file`.
void install_log(sim::Storage& storage, const std::string& file,
                 std::span<const std::byte> image) {
  storage.append(file, image);
  storage.flush(file);
}

TEST(Journal, RoundTripReplaysCommittedRecords) {
  sim::Storage storage;
  {
    Toy writer{storage};
    writer.set("alpha", 1);
    writer.set("beta", 2);
    writer.erase("alpha");
    writer.set("gamma", 3);
    writer.journal.commit();
  }
  Toy reader{storage};
  const RecoveryResult result = reader.recover();
  EXPECT_FALSE(result.snapshot_loaded);
  EXPECT_EQ(result.records_applied, 4u);
  EXPECT_EQ(result.torn_bytes_dropped, 0u);
  const std::map<std::string, std::uint64_t> want{{"beta", 2}, {"gamma", 3}};
  EXPECT_EQ(reader.state.kv, want);
  // Lsns continue past what was recovered — never reused.
  EXPECT_EQ(reader.journal.next_lsn(), 5u);
}

TEST(Journal, UncommittedRecordsDoNotSurviveCrash) {
  sim::Storage storage;
  Rng rng{7};
  {
    Toy writer{storage};
    writer.set("durable", 1);
    writer.journal.commit();
    writer.set("volatile", 2);  // appended, never committed
  }
  storage.on_crash(rng, sim::StorageFaults{});  // honest fsync: tail gone
  Toy reader{storage};
  reader.recover();
  const std::map<std::string, std::uint64_t> want{{"durable", 1}};
  EXPECT_EQ(reader.state.kv, want)
      << "an unacked (uncommitted) record was resurrected";
}

TEST(Journal, SnapshotCompactionEquivalence) {
  // The same operation sequence through an aggressively compacting
  // journal and a never-compacting one must recover identical state.
  sim::Storage compacting_storage;
  sim::Storage plain_storage;
  JournalPolicy tiny;
  tiny.compact_threshold_bytes = 64;  // compact almost every commit
  JournalPolicy never;
  never.compact_threshold_bytes = 0;
  {
    Toy compacting{compacting_storage, tiny};
    Toy plain{plain_storage, never};
    Rng rng{42};
    for (int i = 0; i < 200; ++i) {
      const std::string key = "k" + std::to_string(rng.uniform_int(0, 12));
      if (rng.chance(0.25)) {
        compacting.erase(key);
        plain.erase(key);
      } else {
        const auto value = static_cast<std::uint64_t>(i);
        compacting.set(key, value);
        plain.set(key, value);
      }
      if (i % 3 == 0) {
        compacting.journal.commit();
        plain.journal.commit();
      }
    }
    compacting.journal.commit();
    plain.journal.commit();
    EXPECT_GT(compacting.journal.stats().compactions, 0u);
    EXPECT_EQ(plain.journal.stats().compactions, 0u);
    // Compaction's whole point: the log stays near the threshold.
    EXPECT_LT(compacting.journal.log_bytes(), 4u * 64u + 256u);
    EXPECT_GT(plain.journal.log_bytes(), compacting.journal.log_bytes());
  }
  Toy a{compacting_storage, tiny};
  Toy b{plain_storage, never};
  const RecoveryResult ra = a.recover();
  const RecoveryResult rb = b.recover();
  EXPECT_TRUE(ra.snapshot_loaded);
  EXPECT_FALSE(rb.snapshot_loaded);
  EXPECT_EQ(a.state.kv, b.state.kv);
}

TEST(Journal, RejectsCorruptTrailingRecords) {
  sim::Storage storage;
  {
    Toy writer{storage};
    writer.set("good", 1);
    writer.journal.commit();
  }
  // Garbage appended after the valid records (a torn multi-record write
  // whose tail is junk) must be dropped and truncated away.
  const std::vector<std::byte> junk(13, std::byte{0xA5});
  install_log(storage, "toy.log", junk);
  Toy reader{storage};
  const RecoveryResult result = reader.recover();
  EXPECT_EQ(result.records_applied, 1u);
  EXPECT_EQ(result.torn_bytes_dropped, junk.size());
  const std::map<std::string, std::uint64_t> want{{"good", 1}};
  EXPECT_EQ(reader.state.kv, want);
  // The tail was repaired: appends after recovery commit cleanly.
  reader.set("after", 2);
  reader.journal.commit();
  Toy again{storage};
  again.recover();
  EXPECT_EQ(again.state.kv.at("after"), 2u);
}

TEST(Journal, RecoveryIsIdempotent) {
  sim::Storage storage;
  {
    Toy writer{storage, [] {
                 JournalPolicy p;
                 p.compact_threshold_bytes = 96;
                 return p;
               }()};
    for (int i = 0; i < 40; ++i) {
      writer.set("key" + std::to_string(i % 5),
                 static_cast<std::uint64_t>(i));
      writer.journal.commit();
    }
  }
  Toy first{storage};
  const RecoveryResult r1 = first.recover();
  const auto state1 = first.state.kv;

  Toy second{storage};
  const RecoveryResult r2 = second.recover();
  EXPECT_EQ(state1, second.state.kv);
  EXPECT_EQ(r1.snapshot_loaded, r2.snapshot_loaded);
  EXPECT_EQ(r1.snapshot_lsn, r2.snapshot_lsn);
  EXPECT_EQ(r1.last_lsn, r2.last_lsn);
  EXPECT_EQ(r1.records_applied, r2.records_applied);
  EXPECT_EQ(r1.records_skipped, r2.records_skipped);
}

TEST(Journal, StraySnapshotTmpIsIgnoredAndDeleted) {
  sim::Storage storage;
  {
    Toy writer{storage};
    writer.set("x", 1);
    writer.journal.commit();
  }
  // A crash mid-compaction can leave a half-written scratch snapshot.
  const std::vector<std::byte> junk(21, std::byte{0x5A});
  install_log(storage, "toy.snap.tmp", junk);
  Toy reader{storage};
  reader.recover();
  EXPECT_EQ(reader.state.kv.at("x"), 1u);
  EXPECT_FALSE(storage.exists("toy.snap.tmp"));
}

TEST(Journal, CorruptSnapshotFallsBackToLog) {
  sim::Storage storage;
  {
    Toy writer{storage};
    writer.set("a", 1);
    writer.journal.commit();
    writer.journal.compact();
    writer.set("b", 2);
    writer.journal.commit();
  }
  // Flip one bit in the snapshot: its CRC must reject it, and recovery
  // must still come back up on whatever the log alone provides — without
  // crashing and without inventing state.
  auto snap = durable_log(storage, "toy.snap");
  ASSERT_FALSE(snap.empty());
  snap[snap.size() / 2] ^= std::byte{0x10};
  sim::Storage corrupted;
  install_log(corrupted, "toy.snap", snap);
  install_log(corrupted, "toy.log", durable_log(storage, "toy.log"));
  Toy reader{corrupted};
  const RecoveryResult result = reader.recover();
  EXPECT_FALSE(result.snapshot_loaded);
  // "a" lived only in the snapshot (the log was truncated behind it);
  // media corruption may lose it, but post-snapshot records still replay.
  EXPECT_EQ(reader.state.kv.count("b"), 1u);
  EXPECT_EQ(reader.state.kv.count("a"), 0u);
}

// --- torn-write corpus ------------------------------------------------------

struct Corpus {
  std::vector<std::byte> image;          // full durable log
  std::vector<std::size_t> record_ends;  // byte offset after each record
  std::vector<std::uint64_t> lsns;       // lsn of each record, in order
};

Corpus build_corpus() {
  sim::Storage storage;
  Toy writer{storage};
  for (int i = 0; i < 12; ++i) {
    writer.set("key" + std::to_string(i), static_cast<std::uint64_t>(i));
    if (i % 3 == 2) writer.erase("key" + std::to_string(i - 1));
    writer.journal.commit();
  }
  Corpus corpus;
  corpus.image = durable_log(storage, "toy.log");
  std::size_t offset = 0;
  scan_records(corpus.image,
               [&](std::uint8_t /*type*/, std::span<const std::byte> payload,
                   std::uint64_t lsn) {
                 offset += record_wire_size(payload.size());
                 corpus.record_ends.push_back(offset);
                 corpus.lsns.push_back(lsn);
               });
  return corpus;
}

TEST(JournalTornCorpus, EveryTruncationRecoversLongestValidPrefix) {
  const Corpus corpus = build_corpus();
  ASSERT_GT(corpus.record_ends.size(), 4u);
  for (std::size_t cut = 0; cut <= corpus.image.size(); ++cut) {
    // Complete records entirely below the cut survive; everything after
    // (a record torn mid-frame) must be dropped, never resurrected.
    std::size_t want = 0;
    while (want < corpus.record_ends.size() &&
           corpus.record_ends[want] <= cut) {
      ++want;
    }
    sim::Storage storage;
    install_log(storage, "toy.log",
                std::span<const std::byte>{corpus.image.data(), cut});
    Toy reader{storage};
    std::vector<std::uint64_t> replayed;
    const RecoveryResult result = reader.journal.recover(
        [&](wire::Reader& r) { reader.state.load(r); },
        [&](std::uint8_t type, wire::Reader& r, std::uint64_t lsn) {
          replayed.push_back(lsn);
          reader.state.apply(type, r);
        });
    ASSERT_EQ(result.records_applied, want) << "cut at byte " << cut;
    ASSERT_EQ(replayed.size(), want) << "cut at byte " << cut;
    for (std::size_t i = 0; i < want; ++i) {
      ASSERT_EQ(replayed[i], corpus.lsns[i]) << "cut at byte " << cut;
    }
    // The torn tail is truncated: the durable log is exactly the prefix.
    ASSERT_EQ(storage.durable_size("toy.log"),
              want == 0 ? 0 : corpus.record_ends[want - 1])
        << "cut at byte " << cut;
  }
}

TEST(JournalTornCorpus, EveryBitFlipRecoversAPrefixWithoutCrashing) {
  const Corpus corpus = build_corpus();
  for (std::size_t byte = 0; byte < corpus.image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto image = corpus.image;
      image[byte] ^= std::byte{static_cast<unsigned char>(1 << bit)};
      sim::Storage storage;
      install_log(storage, "toy.log", image);
      Toy reader{storage};
      std::vector<std::uint64_t> replayed;
      reader.journal.recover(
          [&](wire::Reader& r) { reader.state.load(r); },
          [&](std::uint8_t type, wire::Reader& r, std::uint64_t lsn) {
            replayed.push_back(lsn);
            reader.state.apply(type, r);
          });
      // CRC32C detects every single-bit error, so the record containing
      // the flipped byte cannot replay; recovery stops at or before it.
      std::size_t flipped_record = 0;
      while (flipped_record < corpus.record_ends.size() &&
             corpus.record_ends[flipped_record] <= byte) {
        ++flipped_record;
      }
      ASSERT_LE(replayed.size(), flipped_record)
          << "byte " << byte << " bit " << bit
          << ": a corrupted record replayed anyway";
      // And what did replay is an exact prefix — no skips, no inventions.
      for (std::size_t i = 0; i < replayed.size(); ++i) {
        ASSERT_EQ(replayed[i], corpus.lsns[i])
            << "byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(JournalTornCorpus, TornStorageCrashNeverBreaksRecovery) {
  // End to end through the storage fault model: write, crash with a
  // lying fsync, recover, write again — across many seeds, recovery must
  // always succeed and never resurrect an uncommitted record.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng{seed};
    sim::Storage storage;
    sim::StorageFaults faults;
    faults.torn_write = 1.0;
    faults.bit_flip = 0.5;
    std::uint64_t next_value = 1;
    for (int round = 0; round < 4; ++round) {
      Toy toy{storage};
      toy.recover();
      for (const auto& [key, value] : toy.state.kv) {
        // No invented state: every recovered value was actually appended.
        // (A torn append may legally land a pending record in full — an
        // unfsynced write reaching the platter — so `<= committed` would
        // be too strict here; the honest-fsync test covers that bound.)
        ASSERT_LT(value, next_value)
            << "seed " << seed << " round " << round
            << " recovered a value never written to " << key;
      }
      for (int i = 0; i < 6; ++i) {
        toy.set("k" + std::to_string(next_value % 7), next_value);
        ++next_value;
      }
      toy.journal.commit();
      toy.set("torn", next_value);  // pending at crash time
      ++next_value;
      storage.on_crash(rng, faults);
    }
  }
}

// scan_records is total on arbitrary input (also fuzzed in fuzz_test).
TEST(JournalScan, ArbitraryBytesNeverMatchAsRecords) {
  Rng rng{99};
  for (int i = 0; i < 200; ++i) {
    std::vector<std::byte> junk(
        static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : junk) {
      b = static_cast<std::byte>(rng.uniform_int(0, 255));
    }
    const ScanResult result = scan_records(junk);
    // A CRC-framed record surviving 0..64 random bytes is ~2^-32 — treat
    // any hit as a framing bug.
    EXPECT_EQ(result.records, 0u);
    EXPECT_EQ(result.valid_bytes, 0u);
  }
}

// --- CRC32C -------------------------------------------------------------------

/// Bit-at-a-time CRC32C over `bytes`, continuing from a raw (not yet
/// inverted) `state`: the definition the table code must reproduce.
std::uint32_t reference_update(std::uint32_t state,
                               std::span<const std::byte> bytes) {
  for (const std::byte b : bytes) {
    state ^= static_cast<std::uint8_t>(b);
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1u) ? (state >> 1) ^ 0x82F63B78u : state >> 1;
    }
  }
  return state;
}

std::uint32_t reference_crc(std::span<const std::byte> bytes) {
  return ~reference_update(0xFFFFFFFFu, bytes);
}

std::vector<std::byte> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.uniform_int(0, 255));
  return out;
}

TEST(Crc32cTest, KnownAnswer) {
  const std::string check = "123456789";
  const auto bytes = std::as_bytes(std::span{check.data(), check.size()});
  EXPECT_EQ(crc32c(bytes), 0xE3069283u);
  EXPECT_EQ(reference_crc(bytes), 0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
}

// Every length 0..257 at every start offset 0..7: covers the empty input,
// tails of 1..7 bytes, whole 8-byte blocks and unaligned starts.
TEST(Crc32cTest, SliceBy8MatchesBytewiseAtEveryLengthAndOffset) {
  Rng rng{2005};
  const std::vector<std::byte> buf = random_bytes(rng, 257 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const std::span<const std::byte> view{buf.data() + offset, len};
      ASSERT_EQ(crc32c(view), reference_crc(view))
          << "offset " << offset << " length " << len;
    }
  }
}

// The framed-record fields arrive through u8/u32/u64 and payloads through
// update(), in any mix; the result must equal one pass over the same
// little-endian bytes.
TEST(Crc32cTest, StreamingMixMatchesOnePass) {
  Rng rng{77};
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::byte> all;
    Crc32c crc;
    const int pieces = static_cast<int>(rng.uniform_int(0, 12));
    for (int i = 0; i < pieces; ++i) {
      switch (rng.uniform_int(0, 3)) {
        case 0: {
          const auto v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
          crc.u8(v);
          all.push_back(static_cast<std::byte>(v));
          break;
        }
        case 1: {
          const auto v = static_cast<std::uint32_t>(rng.engine()());
          crc.u32(v);
          for (int b = 0; b < 4; ++b) {
            all.push_back(static_cast<std::byte>(v >> (8 * b)));
          }
          break;
        }
        case 2: {
          const std::uint64_t v = rng.engine()();
          crc.u64(v);
          for (int b = 0; b < 8; ++b) {
            all.push_back(static_cast<std::byte>(v >> (8 * b)));
          }
          break;
        }
        default: {
          const std::vector<std::byte> chunk = random_bytes(
              rng, static_cast<std::size_t>(rng.uniform_int(0, 40)));
          crc.update(chunk);
          all.insert(all.end(), chunk.begin(), chunk.end());
          break;
        }
      }
    }
    ASSERT_EQ(crc.value(), reference_crc(all)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace gsalert::journal
