// Regressions for the datasets= fan-out (DESIGN.md §16): the deterministic
// top-k merge orders equal-distance candidates by (dataset, series, start,
// length) so the merged answer is bitwise identical for ANY shard assignment
// or arrival order, and a one-node coordinator answers every fan-out exactly
// like the plain single-node executor.

#include "onex/net/cluster_merge.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "onex/engine/engine.h"
#include "onex/json/json.h"
#include "onex/net/cluster.h"
#include "onex/net/protocol.h"

namespace onex::net {
namespace {

ShardMatch Candidate(const std::string& dataset, double ndtw, int series,
                     int start, int length) {
  ShardMatch c;
  c.dataset = dataset;
  json::Value m = json::Value::MakeObject();
  m.Set("dataset", dataset);
  m.Set("normalized_dtw", ndtw);
  m.Set("series", series);
  m.Set("start", start);
  m.Set("length", length);
  c.match = std::move(m);
  c.values = {static_cast<double>(series), static_cast<double>(start)};
  return c;
}

std::string DumpOrder(const std::vector<ShardMatch>& merged) {
  std::string out;
  for (const ShardMatch& c : merged) out += c.match.Dump() + "\n";
  return out;
}

TEST(ClusterMerge, DistanceOrdersFirst) {
  std::vector<ShardMatch> cands;
  cands.push_back(Candidate("b", 0.50, 0, 0, 32));
  cands.push_back(Candidate("a", 0.25, 9, 9, 32));
  cands.push_back(Candidate("c", 0.75, 1, 1, 32));
  MergeTopK(&cands, 3);
  EXPECT_EQ(cands[0].dataset, "a");
  EXPECT_EQ(cands[1].dataset, "b");
  EXPECT_EQ(cands[2].dataset, "c");
}

TEST(ClusterMerge, EqualDistanceBreaksTiesStructurally) {
  // All candidates share the exact same distance; the ordering must come
  // entirely from (dataset, series, start, length).
  std::vector<ShardMatch> cands;
  cands.push_back(Candidate("b", 0.5, 0, 0, 16));
  cands.push_back(Candidate("a", 0.5, 2, 0, 16));
  cands.push_back(Candidate("a", 0.5, 1, 7, 16));
  cands.push_back(Candidate("a", 0.5, 1, 3, 16));
  cands.push_back(Candidate("a", 0.5, 1, 3, 8));
  MergeTopK(&cands, 5);
  const std::string order = DumpOrder(cands);
  EXPECT_EQ(cands[0].dataset, "a");
  EXPECT_EQ(cands[0].match["series"].as_number(), 1);
  EXPECT_EQ(cands[0].match["start"].as_number(), 3);
  EXPECT_EQ(cands[0].match["length"].as_number(), 8);
  EXPECT_EQ(cands[4].dataset, "b");
  // The same candidates in any permutation (any shard assignment / arrival
  // order) must merge to the byte-identical order.
  std::vector<std::size_t> idx(cands.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::vector<ShardMatch> base = cands;
  do {
    std::vector<ShardMatch> perm;
    for (std::size_t i : idx) perm.push_back(base[i]);
    MergeTopK(&perm, perm.size());
    EXPECT_EQ(DumpOrder(perm), order);
  } while (std::next_permutation(idx.begin(), idx.end()));
}

TEST(ClusterMerge, PermutedShardAssignmentsMergeIdentically) {
  // Simulates 3 shards: candidates are partitioned by dataset, each shard
  // returns its list already distance-sorted, and the coordinator merges in
  // whatever order shard responses land. Every assignment of datasets to
  // shards and every response arrival order must yield the same top-k.
  std::vector<ShardMatch> all;
  for (int d = 0; d < 3; ++d) {
    const std::string name(1, static_cast<char>('a' + d));
    for (int s = 0; s < 4; ++s) {
      // Collisions on purpose: distances drawn from a tiny set of exact
      // doubles so cross-dataset ties are guaranteed.
      all.push_back(Candidate(name, 0.25 * ((s + d) % 3), s, 10 * d + s, 24));
    }
  }
  std::vector<ShardMatch> expected = all;
  MergeTopK(&expected, 5);
  const std::string want = DumpOrder(expected);

  std::vector<std::size_t> arrival = {0, 1, 2};
  do {
    // Arrival permutation: concatenate per-dataset groups in this order.
    std::vector<ShardMatch> merged;
    for (std::size_t which : arrival) {
      const std::string name(1, static_cast<char>('a' + which));
      for (const ShardMatch& c : all) {
        if (c.dataset == name) merged.push_back(c);
      }
    }
    MergeTopK(&merged, 5);
    EXPECT_EQ(DumpOrder(merged), want);
  } while (std::next_permutation(arrival.begin(), arrival.end()));
}

TEST(ClusterMerge, TruncatesToK) {
  std::vector<ShardMatch> cands;
  for (int i = 0; i < 10; ++i) cands.push_back(Candidate("a", i * 0.1, i, 0, 8));
  MergeTopK(&cands, 3);
  ASSERT_EQ(cands.size(), 3u);
  EXPECT_EQ(cands[2].match["series"].as_number(), 2);
}

TEST(ClusterMerge, ValuesTravelWithTheirMatch) {
  std::vector<ShardMatch> cands;
  cands.push_back(Candidate("a", 0.9, 5, 50, 8));
  cands.push_back(Candidate("b", 0.1, 7, 70, 8));
  MergeTopK(&cands, 2);
  EXPECT_EQ(cands[0].values, (std::vector<double>{7, 70}));
  EXPECT_EQ(cands[1].values, (std::vector<double>{5, 50}));
}

TEST(ClusterMerge, AccumulateStatsSumsFieldwise) {
  json::Value a = json::Value::MakeObject();
  a.Set("dtw_evals", 3);
  a.Set("pruned_kim", 5);
  json::Value b = json::Value::MakeObject();
  b.Set("dtw_evals", 4);
  b.Set("groups_total", 2);
  json::Value total = json::Value::MakeObject();
  AccumulateStats(&total, a);
  AccumulateStats(&total, b);
  EXPECT_EQ(total["dtw_evals"].as_number(), 7);
  EXPECT_EQ(total["pruned_kim"].as_number(), 5);
  EXPECT_EQ(total["groups_total"].as_number(), 2);
}

TEST(ClusterMerge, ParseDatasetsOption) {
  auto names = ParseDatasetsOption("a, b ,c");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_FALSE(ParseDatasetsOption("a,,b").ok());
  EXPECT_FALSE(ParseDatasetsOption("a,b,a").ok());
  EXPECT_FALSE(ParseDatasetsOption("").ok());
}

void ScrubElapsed(json::Value* v) {
  if (v->is_object()) {
    v->mutable_object().erase("elapsed_ms");
    for (auto& entry : v->mutable_object()) ScrubElapsed(&entry.second);
  } else if (v->is_array()) {
    for (auto& entry : v->mutable_array()) ScrubElapsed(&entry);
  }
}

struct Answer {
  json::Value body;
  std::vector<double> values;
};

/// One request through ExecuteCommand, routed by `cluster` when non-null.
Answer Ask(Engine* engine, ClusterNode* cluster, const std::string& line) {
  Answer answer;
  Result<Command> cmd = ParseCommandLine(line);
  EXPECT_TRUE(cmd.ok()) << cmd.status();
  if (!cmd.ok()) return answer;
  Session session;
  ExecContext ctx;
  ctx.cluster = cluster;
  ctx.out_values = &answer.values;
  answer.body = ExecuteCommand(engine, &session, *cmd, ctx);
  ScrubElapsed(&answer.body);
  return answer;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// A one-node coordinator runs every shard locally, so it needs no Start()
// and no peers; whatever it answers for a datasets= request must be what
// the plain executor answers on the same engine, body and value section.
TEST(FanOutDifferential, OneNodeCoordinatorMatchesTheExecutor) {
  Engine engine;
  for (const char* line :
       {"GEN a sine num=6 len=24 seed=3", "PREPARE a st=0.2 maxlen=12",
        "GEN b walk num=6 len=24 seed=5", "PREPARE b st=0.2 maxlen=12"}) {
    ASSERT_TRUE(Ask(&engine, nullptr, line).body["ok"].as_bool()) << line;
  }
  ClusterNode::Options options;
  options.nodes = {"127.0.0.1:1"};
  options.self = 0;
  ClusterNode node(&engine, options);

  struct Case {
    const char* line;
    bool ok;
  };
  const Case cases[] = {
      // Over the result-volume cap (2 queries x 2 datasets x 50000), but
      // each is already malformed; the parse error must win on both paths.
      {"BATCH datasets=a,b q=0:0:8;bad k=50000", false},
      {"BATCH datasets=a,b q=0:0:8;1:2:8 window=zz k=50000", false},
      {"BATCH datasets=a,b q=0:0:8;1:2:8 threads=-1 k=50000", false},
      {"BATCH datasets=a,b q=0:0:8;1:2:8 deadline_ms=-5 k=50000", false},
      {"BATCH datasets=a,b q=0:0:8;1:2:8 k=50000", false},
      {"KNN datasets=a,b q=0:0:8 k=0", false},
      {"MATCH datasets=a,b", false},
      {"MATCH datasets=a,,b q=0:0:8", false},
      {"MATCH datasets=a,b q=0:2:8", true},
      {"MATCH datasets=b,a q=3:1:10 k=zz", true},
      {"KNN datasets=a,b q=1:0:10 k=4", true},
      {"KNN datasets=b,a q=2:4:9", true},
      {"BATCH datasets=b,a q=0:0:8;2:3:9 k=3", true},
      {"BATCH datasets=a,b q=5:0:12", true},
      // A missing dataset in the middle of the list: the first shard error
      // in dataset order is the answer.
      {"MATCH datasets=a,missing,b q=0:0:8", false},
      {"KNN datasets=a,missing,b q=0:0:8 k=2", false},
      {"BATCH datasets=a,missing,b q=0:0:8 k=2", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.line);
    const Answer single = Ask(&engine, nullptr, c.line);
    const Answer routed = Ask(&engine, &node, c.line);
    EXPECT_EQ(single.body["ok"].as_bool(), c.ok) << single.body.Dump();
    EXPECT_EQ(routed.body.Dump(), single.body.Dump());
    EXPECT_TRUE(SameBits(routed.values, single.values));
    if (c.ok) {
      EXPECT_FALSE(single.values.empty());
    }
  }
}

}  // namespace
}  // namespace onex::net
