// Binary snapshot format: round trips are bit-identical (table, tombstone
// state, categorical columns, grouping, insert-routing provenance and the
// maintained skyline state), and every corruption class is strict-rejected
// with its typed Status — truncation and bit flips as IOError, non-snapshot
// bytes as InvalidArgument, future format versions as Unimplemented,
// structurally invalid payloads (resealed checksums included) as
// InvalidArgument — without crashing or partially constructing.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/catalog.h"
#include "api/session.h"
#include "api/solver.h"
#include "common/random.h"
#include "data/dataset.h"
#include "data/grouping.h"
#include "data/snapshot.h"
#include "fairness/group_bounds.h"
#include "skyline/incremental.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

/// A serving state that exercises every snapshot section: categorical
/// provenance grouping, inserts that opened a new group, tombstones (one
/// emptying that whole combination, so its route survives only through the
/// serialized combination table) and a maintained skyline index.
struct Served {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<Grouping> grouping;
  std::unique_ptr<SolverSession> session;
};

std::unique_ptr<Served> MakeServed() {
  auto served = std::make_unique<Served>();
  served->data = std::make_unique<Dataset>(3);
  served->data->AddCategoricalColumn("region", {"north", "south"});
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    served->data->AddRow({rng.Uniform(), rng.Uniform(), rng.Uniform()},
                         {i % 2});
  }
  served->grouping = std::make_unique<Grouping>(
      GroupByCategoricalProduct(*served->data, {"region"}).value());
  auto session = SolverSession::CreateDynamic(served->data.get(),
                                              served->grouping.get(),
                                              {"region"});
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  served->session = std::make_unique<SolverSession>(std::move(*session));
  served->data->AddCategoricalLabel(0, "west");
  EXPECT_TRUE(served->session->Insert({0.9, 0.1, 0.4}, {2}).ok());
  EXPECT_TRUE(served->session->Insert({0.2, 0.8, 0.6}, {0}).ok());
  // Row 40 is the only "west" row: erasing it empties that group.
  EXPECT_TRUE(served->session->Erase({1, 3, 40}).ok());
  EXPECT_TRUE(served->session->EnsureIndex().ok());
  return served;
}

Snapshot MakeSnapshot(Served* served) {
  auto snapshot = SnapshotSession(served->session.get());
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return std::move(*snapshot);
}

void ExpectDatasetsEqual(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.dim(), b.dim());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.live_size(), b.live_size());
  EXPECT_EQ(a.version(), b.version());
  EXPECT_EQ(a.attr_names(), b.attr_names());
  EXPECT_EQ(a.LiveRows(), b.LiveRows());
  for (size_t i = 0; i < a.size(); ++i) {
    for (int j = 0; j < a.dim(); ++j) {
      // Bit-identity, not approximation: serialized doubles round-trip raw.
      EXPECT_EQ(a.at(i, j), b.at(i, j)) << "row " << i << " dim " << j;
    }
  }
  ASSERT_EQ(a.num_categorical(), b.num_categorical());
  for (int c = 0; c < a.num_categorical(); ++c) {
    EXPECT_EQ(a.categorical(c).name, b.categorical(c).name);
    EXPECT_EQ(a.categorical(c).labels, b.categorical(c).labels);
    EXPECT_EQ(a.categorical(c).codes, b.categorical(c).codes);
  }
}

void ExpectStatesEqual(const IncrementalSkylineState& a,
                       const IncrementalSkylineState& b) {
  EXPECT_EQ(a.skyline, b.skyline);
  EXPECT_EQ(a.dominated, b.dominated);
}

TEST(SnapshotTest, RoundTripIsBitIdentical) {
  auto served = MakeServed();
  const Snapshot snapshot = MakeSnapshot(served.get());

  const std::string bytes = SerializeSnapshot(snapshot);
  auto parsed = ParseSnapshot(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  ExpectDatasetsEqual(snapshot.data, parsed->data);
  EXPECT_EQ(snapshot.grouping.group_of, parsed->grouping.group_of);
  EXPECT_EQ(snapshot.grouping.num_groups, parsed->grouping.num_groups);
  EXPECT_EQ(snapshot.grouping.names, parsed->grouping.names);
  EXPECT_EQ(snapshot.grouping.version, parsed->grouping.version);
  EXPECT_EQ(snapshot.group_columns, parsed->group_columns);
  EXPECT_EQ(snapshot.combo_to_group, parsed->combo_to_group);
  ASSERT_TRUE(parsed->has_index);
  ExpectStatesEqual(snapshot.index.global, parsed->index.global);
  ASSERT_EQ(snapshot.index.per_group.size(), parsed->index.per_group.size());
  for (size_t g = 0; g < snapshot.index.per_group.size(); ++g) {
    ExpectStatesEqual(snapshot.index.per_group[g], parsed->index.per_group[g]);
  }

  // Serialization is deterministic: same state, same bytes.
  EXPECT_EQ(bytes, SerializeSnapshot(*parsed));
}

TEST(SnapshotTest, FileRoundTripAndMissingFile) {
  auto served = MakeServed();
  const Snapshot snapshot = MakeSnapshot(served.get());

  const std::string path = testing::UniqueTempPath("fairhms_snapshot_rt");
  ASSERT_TRUE(WriteSnapshotFile(snapshot, path).ok());
  auto read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(SerializeSnapshot(snapshot), SerializeSnapshot(*read));
  std::remove(path.c_str());

  auto missing = ReadSnapshotFile(path + ".does_not_exist");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, TruncationRejectedAsIOError) {
  auto served = MakeServed();
  const std::string bytes = SerializeSnapshot(MakeSnapshot(served.get()));

  // Every strict prefix must be rejected; spot-check the interesting
  // boundaries: empty, mid-header, header-only, mid-payload, one short.
  for (const size_t len :
       {size_t{0}, size_t{10}, kSnapshotPayloadOffset, bytes.size() / 2,
        bytes.size() - 1}) {
    auto parsed = ParseSnapshot(std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(parsed.ok()) << "prefix length " << len;
    EXPECT_EQ(parsed.status().code(), StatusCode::kIOError)
        << "prefix length " << len << ": " << parsed.status().ToString();
  }
}

TEST(SnapshotTest, BadMagicRejectedAsInvalidArgument) {
  auto served = MakeServed();
  std::string bytes = SerializeSnapshot(MakeSnapshot(served.get()));
  bytes[kSnapshotMagicOffset] = 'X';
  auto parsed = ParseSnapshot(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, BitFlipAnywhereRejectedAsIOError) {
  auto served = MakeServed();
  const std::string clean = SerializeSnapshot(MakeSnapshot(served.get()));

  // Flip one bit at a spread of positions across header-after-magic (a
  // magic flip is InvalidArgument, tested above), payload and trailer; the
  // CRC — or, for the payload-size field, the length cross-check — must
  // catch every one of them before any payload byte is interpreted.
  for (size_t pos = kSnapshotVersionOffset; pos < clean.size();
       pos += clean.size() / 13 + 1) {
    std::string bytes = clean;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x20);
    auto parsed = ParseSnapshot(bytes);
    ASSERT_FALSE(parsed.ok()) << "bit flip at " << pos << " was accepted";
    EXPECT_EQ(parsed.status().code(), StatusCode::kIOError)
        << "bit flip at " << pos << ": " << parsed.status().ToString();
  }
}

/// Overwrites the u32 at `offset` and reseals the CRC trailer, so the
/// parser's verdict is about the patched field, not the checksum.
std::string PatchU32AndReseal(std::string bytes, size_t offset,
                              uint32_t value) {
  for (size_t i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
  }
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  for (size_t i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFFu);
  }
  return bytes;
}

TEST(SnapshotTest, FutureFormatVersionRejectedAsUnimplemented) {
  auto served = MakeServed();
  const std::string bytes =
      PatchU32AndReseal(SerializeSnapshot(MakeSnapshot(served.get())),
                        kSnapshotVersionOffset, kSnapshotFormatVersion + 1);
  auto parsed = ParseSnapshot(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kUnimplemented);
}

TEST(SnapshotTest, WrongDimensionPayloadRejectedAsInvalidArgument) {
  auto served = MakeServed();
  // The payload's first field is the dataset dimension; inflating it (CRC
  // resealed, so the reject is structural) desynchronizes every following
  // section — the parser must fail cleanly, not crash or misparse.
  const std::string bytes =
      PatchU32AndReseal(SerializeSnapshot(MakeSnapshot(served.get())),
                        kSnapshotPayloadOffset, 64);
  auto parsed = ParseSnapshot(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, StructurallyInvalidStatesRejectedAsInvalidArgument) {
  auto served = MakeServed();
  const Snapshot base = MakeSnapshot(served.get());

  {
    // Group id out of range.
    Snapshot bad = base;
    bad.grouping.group_of[0] = bad.grouping.num_groups + 3;
    auto parsed = ParseSnapshot(SerializeSnapshot(bad));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Grouping that does not cover the table.
    Snapshot bad = base;
    Dataset smaller(3);
    smaller.AddCategoricalColumn("region", {"north"});
    smaller.AddRow({0.1, 0.2, 0.3}, {0});
    bad.data = std::move(smaller);
    auto parsed = ParseSnapshot(SerializeSnapshot(bad));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Combination arity disagreeing with the group-column count.
    Snapshot bad = base;
    bad.combo_to_group.push_back({{0, 1}, 0});
    auto parsed = ParseSnapshot(SerializeSnapshot(bad));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Unknown group-column name.
    Snapshot bad = base;
    bad.group_columns = {"no_such_column"};
    bad.combo_to_group.clear();
    auto parsed = ParseSnapshot(SerializeSnapshot(bad));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Skyline state referencing a dead row: SkylineIndex::Restore is the
    // validating layer for row-level index state (ParseSnapshot checks
    // structure, Restore checks coverage against the table).
    Snapshot parsed = ParseSnapshot(SerializeSnapshot(base)).value();
    SkylineIndexState state = parsed.index;
    ASSERT_FALSE(state.global.skyline.empty());
    state.global.skyline.back() = 1;  // Row 1 was tombstoned in MakeServed.
    auto restored =
        SkylineIndex::Restore(&parsed.data, &parsed.grouping, state);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SnapshotTest, FailedCatalogLoadNeverPartiallyMutates) {
  auto served = MakeServed();
  const Snapshot snapshot = MakeSnapshot(served.get());
  const std::string good_path =
      testing::UniqueTempPath("fairhms_snapshot_good");
  const std::string bad_path = testing::UniqueTempPath("fairhms_snapshot_bad");
  ASSERT_TRUE(WriteSnapshotFile(snapshot, good_path).ok());
  {
    // A truncated copy of a valid snapshot.
    const std::string bytes = SerializeSnapshot(snapshot);
    std::FILE* f = std::fopen(bad_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size() - 12, f);
    std::fclose(f);
  }

  DatasetCatalog catalog;
  ASSERT_TRUE(catalog.Load("good", good_path).ok());
  const uint64_t version_before = catalog.version();

  EXPECT_FALSE(catalog.Load("bad", bad_path).ok());
  EXPECT_FALSE(catalog.Load("good", good_path).ok());  // Duplicate name.
  EXPECT_EQ(catalog.version(), version_before);
  EXPECT_EQ(catalog.List(), std::vector<std::string>{"good"});

  // The surviving entry still serves.
  SolverRequest request;
  request.algorithm = "rdp_greedy";
  request.bounds = GroupBounds::Proportional(
      4, snapshot.grouping.LiveCounts(snapshot.data), 0.5);
  request.threads = 1;
  auto result = catalog.Solve("good", request);
  EXPECT_TRUE(result.ok()) << result.status().ToString();

  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

}  // namespace
}  // namespace fairhms
