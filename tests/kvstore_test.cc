// Unit tests for the multi-version key-value store — the paper §2.2
// contract: atomic read/write/checkAndWrite over multi-version rows —
// plus the copy-on-write representation guarantees of design note D5
// (docs/ARCHITECTURE.md): shared snapshots are immutable and survive both
// later writes and garbage collection.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/random.h"
#include "kvstore/store.h"

namespace paxoscp::kvstore {
namespace {

using AttrMap = AttributeMap;

// GCC 12 at -O2/-O3 emits a spurious -Wrestrict through libstdc++'s
// char_traits memcpy when `"lit" + std::to_string(n)` is fully inlined
// (GCC PR 105651); appending instead of concatenating sidesteps it.
template <typename N>
std::string Cat(const char* prefix, N n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

TEST(StoreTest, ReadMissingKeyIsNotFound) {
  MultiVersionStore store;
  EXPECT_TRUE(store.Read("nope").status().IsNotFound());
  EXPECT_FALSE(store.Contains("nope"));
}

TEST(StoreTest, WriteThenReadLatest) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "1"}}).ok());
  Result<RowVersion> row = store.Read("k");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->attributes->at("a"), "1");
  EXPECT_EQ(row->timestamp, 1);
}

TEST(StoreTest, AutoTimestampsIncrease) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "1"}}).ok());
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "2"}}).ok());
  Result<RowVersion> row = store.Read("k");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->timestamp, 2);
  EXPECT_EQ(row->attributes->at("a"), "2");
  EXPECT_EQ(store.VersionCount("k"), 2u);
}

TEST(StoreTest, SnapshotReadsSeeOldVersions) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "v10"}}, 10).ok());
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "v20"}}, 20).ok());
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "v30"}}, 30).ok());

  EXPECT_TRUE(store.Read("k", 5).status().IsNotFound());
  EXPECT_EQ(store.Read("k", 10)->attributes->at("a"), "v10");
  EXPECT_EQ(store.Read("k", 15)->attributes->at("a"), "v10");
  EXPECT_EQ(store.Read("k", 20)->attributes->at("a"), "v20");
  EXPECT_EQ(store.Read("k", 29)->attributes->at("a"), "v20");
  EXPECT_EQ(store.Read("k", 1000)->attributes->at("a"), "v30");
  EXPECT_EQ(store.Read("k")->attributes->at("a"), "v30");
}

TEST(StoreTest, ExplicitTimestampConflictsBelowLatest) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "1"}}, 10).ok());
  EXPECT_TRUE(store.Write("k", AttrMap{{"a", "0"}}, 5).IsConflict());
  EXPECT_TRUE(store.Write("k", AttrMap{{"a", "0"}}, 10).IsConflict());
  EXPECT_TRUE(store.Write("k", AttrMap{{"a", "2"}}, 11).ok());
}

TEST(StoreTest, ReadAttrFindsAttribute) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "1"}, {"b", "2"}}).ok());
  EXPECT_EQ(*store.ReadAttr("k", "b"), "2");
  EXPECT_TRUE(store.ReadAttr("k", "c").status().IsNotFound());
  EXPECT_TRUE(store.ReadAttr("zzz", "a").status().IsNotFound());
}

TEST(StoreTest, ReadAttrViewBorrowsWithoutCopy) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "payload"}}).ok());
  Result<AttrView> view = store.ReadAttrView("k", "a");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->value, "payload");
  // The view aliases the shared version's storage, not a copy.
  EXPECT_EQ(view->value.data(), view->version->at("a").data());
  // The borrowed value stays valid across later writes to the key.
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "other"}}).ok());
  EXPECT_EQ(view->value, "payload");
}

TEST(StoreTest, CheckAndWriteSucceedsOnMatch) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"bal", "7"}}).ok());
  EXPECT_TRUE(store.CheckAndWrite("k", "bal", "7",
                                  AttrMap{{"bal", "8"}}).ok());
  EXPECT_EQ(*store.ReadAttr("k", "bal"), "8");
}

TEST(StoreTest, CheckAndWriteFailsOnMismatch) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"bal", "7"}}).ok());
  EXPECT_TRUE(store.CheckAndWrite("k", "bal", "6", AttrMap{{"bal", "8"}})
                  .IsConflict());
  EXPECT_EQ(*store.ReadAttr("k", "bal"), "7");
  EXPECT_EQ(store.VersionCount("k"), 1u);
}

TEST(StoreTest, CheckAndWriteMissingRowComparesEmpty) {
  MultiVersionStore store;
  EXPECT_TRUE(store.CheckAndWrite("new", "flag", "",
                                  AttrMap{{"flag", "1"}}).ok());
  EXPECT_TRUE(store.CheckAndWrite("new", "flag", "",
                                  AttrMap{{"flag", "2"}}).IsConflict());
  EXPECT_EQ(*store.ReadAttr("new", "flag"), "1");
}

TEST(StoreTest, CheckAndWriteMissingAttributeComparesEmpty) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"other", "x"}}).ok());
  EXPECT_TRUE(store.CheckAndWrite("k", "flag", "",
                                  AttrMap{{"flag", "1"}}).ok());
}

TEST(StoreTest, CheckAndWriteTestsLatestVersion) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "old"}}, 1).ok());
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "new"}}, 2).ok());
  EXPECT_TRUE(
      store.CheckAndWrite("k", "a", "old", AttrMap{{"a", "x"}}).IsConflict());
  EXPECT_TRUE(store.CheckAndWrite("k", "a", "new", AttrMap{{"a", "x"}}).ok());
}

TEST(StoreTest, MergeWritePreservesUntouchedAttributes) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "1"}, {"b", "2"}}, 1).ok());
  ASSERT_TRUE(store.MergeWrite("k", AttrMap{{"a", "9"}}, 5).ok());
  Result<RowVersion> row = store.Read("k");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->attributes->at("a"), "9");
  EXPECT_EQ(row->attributes->at("b"), "2");
  EXPECT_EQ(row->timestamp, 5);
}

TEST(StoreTest, MergeWriteIsIdempotentViaConflict) {
  MultiVersionStore store;
  ASSERT_TRUE(store.MergeWrite("k", AttrMap{{"a", "1"}}, 5).ok());
  EXPECT_TRUE(store.MergeWrite("k", AttrMap{{"a", "1"}}, 5).IsConflict());
  EXPECT_TRUE(store.MergeWrite("k", AttrMap{{"a", "0"}}, 3).IsConflict());
  EXPECT_EQ(store.VersionCount("k"), 1u);
}

TEST(StoreTest, MergeWriteAddsAndOverwritesInterleavedAttributes) {
  // Exercises every branch of the ordered-merge construction: update-only
  // keys before, between, and after base keys, plus overwritten ones.
  MultiVersionStore store;
  ASSERT_TRUE(
      store.Write("k", AttrMap{{"b", "b0"}, {"d", "d0"}, {"f", "f0"}}, 1)
          .ok());
  ASSERT_TRUE(store
                  .MergeWrite("k",
                              AttrMap{{"a", "a1"},
                                      {"d", "d1"},
                                      {"e", "e1"},
                                      {"g", "g1"}},
                              2)
                  .ok());
  Result<RowVersion> row = store.Read("k");
  ASSERT_TRUE(row.ok());
  const AttrMap expected{{"a", "a1"}, {"b", "b0"}, {"d", "d1"},
                         {"e", "e1"}, {"f", "f0"}, {"g", "g1"}};
  EXPECT_EQ(*row->attributes, expected);
}

TEST(StoreTest, MergeWriteWithEmptyUpdatesSharesSnapshot) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "1"}}, 1).ok());
  ASSERT_TRUE(store.MergeWrite("k", AttrMap{}, 2).ok());
  Result<RowVersion> v1 = store.Read("k", 1);
  Result<RowVersion> v2 = store.Read("k", 2);
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v1->attributes.get(), v2->attributes.get());  // shared, not copied
}

// ------------------------------------------------------ COW representation

TEST(StoreTest, SnapshotsAreImmutableAcrossLaterWrites) {
  // A Read handed out before later writes/merges must keep observing its
  // version's exact bytes (the old deep-copy semantics).
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "1"}, {"b", "2"}}, 1).ok());
  Result<RowVersion> snapshot = store.Read("k", 1);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(store.MergeWrite("k", AttrMap{{"a", "9"}, {"c", "3"}}, 2).ok());
  ASSERT_TRUE(store.Write("k", AttrMap{{"z", "z"}}, 3).ok());
  const AttrMap expected{{"a", "1"}, {"b", "2"}};
  EXPECT_EQ(*snapshot->attributes, expected);
}

TEST(StoreTest, CowReadsMatchDeepCopySemantics) {
  // Property test: run a random op sequence against the COW store and an
  // eager deep-copy reference model; every snapshot read must observe
  // identical bytes.
  Rng rng(20260730);
  MultiVersionStore store;
  std::map<Timestamp, AttrMap> model;  // reference: full copy per version
  AttrMap latest;
  Timestamp ts = 0;
  for (int op = 0; op < 500; ++op) {
    const int kind = static_cast<int>(rng.Uniform(3));
    const std::string attr = Cat("a", rng.Uniform(8));
    const std::string value = Cat("v", rng.Uniform(1000));
    ++ts;
    if (kind == 0) {
      AttrMap row{{attr, value}};
      ASSERT_TRUE(store.Write("k", row, ts).ok());
      latest = row;
    } else if (kind == 1) {
      ASSERT_TRUE(store.MergeWrite("k", AttrMap{{attr, value}}, ts).ok());
      latest[attr] = value;
    } else {
      ASSERT_TRUE(store
                      .MergeWrite("k", AttrMap{{attr, value}, {"x", value}},
                                  ts)
                      .ok());
      latest[attr] = value;
      latest["x"] = value;
    }
    model[ts] = latest;
    // Probe a random historical snapshot against the reference model.
    const Timestamp probe = 1 + static_cast<Timestamp>(rng.Uniform(ts));
    Result<RowVersion> row = store.Read("k", probe);
    ASSERT_TRUE(row.ok());
    auto it = model.upper_bound(probe);
    ASSERT_NE(it, model.begin());
    --it;
    EXPECT_EQ(*row->attributes, it->second) << "probe ts=" << probe;
  }
}

// ----------------------------------------------------- GC vs. snapshots

TEST(StoreTest, TruncateKeepsSnapshotAtWatermark) {
  MultiVersionStore store;
  for (Timestamp ts = 1; ts <= 10; ++ts) {
    ASSERT_TRUE(
        store.Write("k", AttrMap{{"a", std::to_string(ts)}}, ts).ok());
  }
  const size_t removed = store.TruncateVersions("k", 7);
  EXPECT_EQ(removed, 6u);  // versions 1..6 go; 7 stays readable
  EXPECT_EQ(*store.ReadAttr("k", "a", 7), "7");
  EXPECT_EQ(*store.ReadAttr("k", "a", 8), "8");
  EXPECT_TRUE(store.Read("k", 6).status().IsNotFound());
}

TEST(StoreTest, TruncateWatermarkBetweenVersionsKeepsNewestBelow) {
  MultiVersionStore store;
  for (Timestamp ts : {2, 4, 6, 8}) {
    ASSERT_TRUE(store.Write("k", AttrMap{{"a", std::to_string(ts)}}, ts).ok());
  }
  // Watermark 5 falls between versions 4 and 6: version 4 is the newest
  // version <= watermark and must stay readable; only 2 is collectable.
  EXPECT_EQ(store.TruncateVersions("k", 5), 1u);
  EXPECT_EQ(*store.ReadAttr("k", "a", 5), "4");
  EXPECT_EQ(*store.ReadAttr("k", "a", 4), "4");
  EXPECT_TRUE(store.Read("k", 3).status().IsNotFound());
  EXPECT_EQ(store.VersionCount("k"), 3u);
}

TEST(StoreTest, TruncateBelowOldestVersionRemovesNothing) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("k", AttrMap{{"a", "1"}}, 10).ok());
  EXPECT_EQ(store.TruncateVersions("k", 5), 0u);
  EXPECT_EQ(store.VersionCount("k"), 1u);
}

TEST(StoreTest, HeldSnapshotSurvivesTruncation) {
  // GC drops chain entries, but a snapshot already handed out shares the
  // attribute map and must stay readable and unchanged (D5 invariant).
  MultiVersionStore store;
  for (Timestamp ts = 1; ts <= 8; ++ts) {
    ASSERT_TRUE(store.Write("k", AttrMap{{"a", std::to_string(ts)}}, ts).ok());
  }
  Result<RowVersion> held = store.Read("k", 3);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(store.TruncateVersions("k", 8), 7u);
  EXPECT_EQ(held->timestamp, 3);
  EXPECT_EQ(held->attributes->at("a"), "3");
  // The store itself no longer serves the collected version...
  EXPECT_TRUE(store.Read("k", 3).status().IsNotFound());
  // ...but the surviving watermark version is intact.
  EXPECT_EQ(*store.ReadAttr("k", "a", 8), "8");
}

TEST(StoreTest, LatestWithPrefix) {
  MultiVersionStore store;
  ASSERT_TRUE(store.Write("!log/g/000002", AttrMap{{"e", "y"}}).ok());
  ASSERT_TRUE(store.Write("!log/g/000001", AttrMap{{"e", "x"}}).ok());
  ASSERT_TRUE(store.Write("!log/g/000001", AttrMap{{"e", "x2"}}).ok());
  ASSERT_TRUE(store.Write("!log/h/000001", AttrMap{{"e", "z"}}).ok());
  ASSERT_TRUE(store.Write("d/g/row", AttrMap{{"a", "1"}}).ok());
  const auto rows = store.LatestWithPrefix("!log/g/");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "!log/g/000001");
  EXPECT_EQ(rows[0].second.timestamp, 2u);
  EXPECT_EQ(rows[0].second.attributes->at("e"), "x2");  // newest version
  EXPECT_EQ(rows[1].first, "!log/g/000002");
  EXPECT_EQ(rows[1].second.attributes->at("e"), "y");
  EXPECT_TRUE(store.LatestWithPrefix("!log/x/").empty());
  EXPECT_EQ(store.KeyCount(), 4u);
}

TEST(StoreTest, ConcurrentCheckAndWriteGrantsExactlyOne) {
  // The store must be independently thread-safe (it is the substrate the
  // "stateless service processes" share). N threads race a leader claim;
  // exactly one may win.
  MultiVersionStore store;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> wins{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&store, &wins, i] {
      if (store
              .CheckAndWrite("claim", "owner", "",
                             AttrMap{{"owner", std::to_string(i)}})
              .ok()) {
        wins.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wins.load(), 1);
}

TEST(StoreTest, ConcurrentWritersKeepVersionOrder) {
  MultiVersionStore store;
  constexpr int kThreads = 4;
  constexpr int kWritesEach = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store] {
      for (int i = 0; i < kWritesEach; ++i) {
        (void)store.Write("k", AttrMap{{"a", "x"}});  // auto timestamps
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.VersionCount("k"), size_t{kThreads * kWritesEach});
  // Timestamps must be strictly increasing.
  Timestamp prev = 0;
  for (Timestamp ts = 1; ts <= kThreads * kWritesEach; ++ts) {
    Result<RowVersion> row = store.Read("k", ts);
    ASSERT_TRUE(row.ok());
    EXPECT_GT(row->timestamp, prev);
    prev = row->timestamp;
  }
}

}  // namespace
}  // namespace paxoscp::kvstore
