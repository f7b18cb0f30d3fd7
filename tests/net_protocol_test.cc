#include "onex/net/protocol.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/string_utils.h"

namespace onex::net {
namespace {

TEST(ParseCommandTest, VerbIsUppercased) {
  Result<Command> cmd = ParseCommandLine("ping");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->verb, "PING");
  EXPECT_TRUE(cmd->args.empty());
  EXPECT_TRUE(cmd->options.empty());
}

TEST(ParseCommandTest, PositionalAndKeyValueArguments) {
  Result<Command> cmd =
      ParseCommandLine("PREPARE mydata st=0.15 minlen=6 norm=zscore");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->args, (std::vector<std::string>{"mydata"}));
  EXPECT_EQ(cmd->options.at("st"), "0.15");
  EXPECT_EQ(cmd->options.at("minlen"), "6");
  EXPECT_EQ(cmd->options.at("norm"), "zscore");
}

TEST(ParseCommandTest, LeadingEqualsIsPositional) {
  Result<Command> cmd = ParseCommandLine("CMD =weird");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->args, (std::vector<std::string>{"=weird"}));
}

TEST(ParseCommandTest, EmptyLineIsParseError) {
  EXPECT_FALSE(ParseCommandLine("").ok());
  EXPECT_FALSE(ParseCommandLine("   \t ").ok());
}

TEST(ProtocolTest, PingPong) {
  Engine engine;
  const json::Value v =
      ExecuteCommand(&engine, *ParseCommandLine("PING"));
  EXPECT_TRUE(v["ok"].as_bool());
  EXPECT_TRUE(v["pong"].as_bool());
}

TEST(ProtocolTest, UnknownVerb) {
  Engine engine;
  const json::Value v =
      ExecuteCommand(&engine, *ParseCommandLine("FROBNICATE x"));
  EXPECT_FALSE(v["ok"].as_bool());
  EXPECT_EQ(v["code"].as_string(), "InvalidArgument");
}

TEST(ProtocolTest, GenPrepareStatsFlow) {
  Engine engine;
  json::Value v = ExecuteCommand(
      &engine, *ParseCommandLine("GEN walks walk num=5 len=16 seed=3"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();

  v = ExecuteCommand(&engine, *ParseCommandLine("LIST"));
  ASSERT_TRUE(v["ok"].as_bool());
  ASSERT_EQ(v["datasets"].as_array().size(), 1u);
  EXPECT_EQ(v["datasets"][0].as_string(), "walks");

  v = ExecuteCommand(&engine,
                     *ParseCommandLine("PREPARE walks st=0.2 maxlen=8"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_GT(v["groups"].as_number(), 0.0);
  EXPECT_GT(v["subsequences"].as_number(), v["groups"].as_number() - 1);

  v = ExecuteCommand(&engine, *ParseCommandLine("STATS walks"));
  ASSERT_TRUE(v["ok"].as_bool());
  EXPECT_TRUE(v["prepared"].as_bool());
  EXPECT_DOUBLE_EQ(v["series"].as_number(), 5.0);
  EXPECT_DOUBLE_EQ(v["st"].as_number(), 0.2);
}

TEST(ProtocolTest, GenValidatesArguments) {
  Engine engine;
  EXPECT_FALSE(ExecuteCommand(&engine, *ParseCommandLine("GEN x"))["ok"]
                   .as_bool());
  EXPECT_FALSE(
      ExecuteCommand(&engine, *ParseCommandLine("GEN x nosuchkind"))["ok"]
          .as_bool());
  EXPECT_FALSE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("GEN x walk num=0"))["ok"]
          .as_bool());
  EXPECT_FALSE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("GEN x walk num=abc"))["ok"]
          .as_bool());
}

TEST(ProtocolTest, MatchQueryFlow) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=6 len=18"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine, *ParseCommandLine(
                                  "PREPARE s st=0.2 maxlen=10"))["ok"]
          .as_bool());
  const json::Value v =
      ExecuteCommand(&engine, *ParseCommandLine("MATCH s q=0:2:8 exhaustive=1"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  const json::Value& m = v["match"];
  EXPECT_NEAR(m["normalized_dtw"].as_number(), 0.0, 1e-9);
  EXPECT_FALSE(m["series_name"].as_string().empty());
  EXPECT_FALSE(m["path"].as_array().empty());
}

TEST(ProtocolTest, MatchValidatesQuerySyntax) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=4 len=16"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=8"))["ok"]
          .as_bool());
  EXPECT_FALSE(
      ExecuteCommand(&engine, *ParseCommandLine("MATCH s"))["ok"].as_bool());
  EXPECT_FALSE(ExecuteCommand(&engine, *ParseCommandLine(
                                           "MATCH s q=0:2"))["ok"]
                   .as_bool());
  EXPECT_FALSE(ExecuteCommand(&engine, *ParseCommandLine(
                                           "MATCH s q=a:b:c"))["ok"]
                   .as_bool());
  EXPECT_FALSE(ExecuteCommand(&engine, *ParseCommandLine(
                                           "MATCH s q=-1:0:5"))["ok"]
                   .as_bool());
}

TEST(ProtocolTest, KnnReturnsRequestedCount) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=8 len=20"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=10"))["ok"]
          .as_bool());
  const json::Value v =
      ExecuteCommand(&engine, *ParseCommandLine("KNN s q=0:0:8 k=4"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_EQ(v["matches"].as_array().size(), 4u);
}

// MATCH/KNN/BATCH responses carry the per-query cascade attribution and
// STATS the engine-wide cumulative counters plus the active kernel table
// (DESIGN.md §14).
TEST(ProtocolTest, QueryResponsesCarryCascadeStats) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=8 len=20"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=10"))["ok"]
          .as_bool());

  const auto check_stats = [](const json::Value& s) {
    ASSERT_TRUE(s.is_object());
    // Attribution invariants: every lower-bound prune is credited to
    // exactly one cascade stage, and dtw_evals counts every DP that ran.
    EXPECT_DOUBLE_EQ(
        s["pruned_kim"].as_number() + s["pruned_keogh"].as_number(),
        s["groups_pruned_lb"].as_number() + s["members_pruned_lb"].as_number());
    EXPECT_DOUBLE_EQ(s["dtw_evals"].as_number(),
                     s["rep_dtw_evaluations"].as_number() +
                         s["member_dtw_evaluations"].as_number());
    EXPECT_GE(s["dtw_evals"].as_number(), 1.0);
    EXPECT_GT(s["groups_total"].as_number(), 0.0);
  };

  json::Value v = ExecuteCommand(&engine, *ParseCommandLine("MATCH s q=0:2:8"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  check_stats(v["stats"]);

  v = ExecuteCommand(&engine, *ParseCommandLine("KNN s q=0:0:8 k=3"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  check_stats(v["stats"]);

  v = ExecuteCommand(&engine, *ParseCommandLine("BATCH s q=0:0:8;1:2:8 k=2"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  ASSERT_EQ(v["results"].as_array().size(), 2u);
  for (const json::Value& entry : v["results"].as_array()) {
    check_stats(entry["stats"]);
  }

  // 4 queries so far (MATCH + KNN + 2 BATCH entries); STATS accumulates
  // them engine-wide and names the kernel table answering them.
  v = ExecuteCommand(&engine, *ParseCommandLine("STATS s"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_DOUBLE_EQ(v["queries"].as_number(), 4.0);
  EXPECT_GE(v["dtw_evals"].as_number(), 4.0);
  EXPECT_GE(v["pruned_kim"].as_number() + v["pruned_keogh"].as_number(), 0.0);
  EXPECT_FALSE(v["kernel"].as_string().empty());
}

TEST(ProtocolTest, SeasonalFlow) {
  Engine engine;
  ASSERT_TRUE(
      ExecuteCommand(&engine,
                     *ParseCommandLine(
                         "GEN e electricity num=1 len=240"))["ok"]
          .as_bool());
  ASSERT_TRUE(ExecuteCommand(
                  &engine,
                  *ParseCommandLine(
                      "PREPARE e st=0.12 minlen=24 maxlen=24"))["ok"]
                  .as_bool());
  const json::Value v = ExecuteCommand(
      &engine, *ParseCommandLine("SEASONAL e series=0 length=24"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  ASSERT_FALSE(v["patterns"].as_array().empty());
  const json::Value& top = v["patterns"][0];
  EXPECT_GE(top["occurrences"].as_number(), 2.0);
}

TEST(ProtocolTest, OverviewAndThreshold) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=6 len=18"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=10"))["ok"]
          .as_bool());
  json::Value v =
      ExecuteCommand(&engine, *ParseCommandLine("OVERVIEW s top=5"));
  ASSERT_TRUE(v["ok"].as_bool());
  EXPECT_LE(v["overview"]["cells"].as_array().size(), 5u);

  v = ExecuteCommand(&engine, *ParseCommandLine("THRESHOLD s pairs=200"));
  ASSERT_TRUE(v["ok"].as_bool());
  EXPECT_FALSE(v["recommendations"].as_array().empty());
}

TEST(ProtocolTest, DropAndErrors) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s walk num=3 len=12"))["ok"]
                  .as_bool());
  EXPECT_TRUE(
      ExecuteCommand(&engine, *ParseCommandLine("DROP s"))["ok"].as_bool());
  const json::Value v = ExecuteCommand(&engine, *ParseCommandLine("DROP s"));
  EXPECT_FALSE(v["ok"].as_bool());
  EXPECT_EQ(v["code"].as_string(), "NotFound");
  // Operations on missing datasets surface NotFound, not crashes.
  EXPECT_EQ(ExecuteCommand(&engine,
                           *ParseCommandLine("MATCH s q=0:0:4"))["code"]
                .as_string(),
            "NotFound");
}

TEST(ProtocolTest, LoadMissingFileFails) {
  Engine engine;
  const json::Value v = ExecuteCommand(
      &engine, *ParseCommandLine("LOAD x /no/such/file.tsv"));
  EXPECT_FALSE(v["ok"].as_bool());
  EXPECT_EQ(v["code"].as_string(), "IoError");
}

TEST(ProtocolTest, ResponsesAreSingleLineJson) {
  Engine engine;
  const std::string wire =
      FormatResponse(ExecuteCommand(&engine, *ParseCommandLine("PING")));
  ASSERT_FALSE(wire.empty());
  EXPECT_EQ(wire.back(), '\n');
  EXPECT_EQ(std::count(wire.begin(), wire.end(), '\n'), 1);
  EXPECT_TRUE(json::Parse(wire.substr(0, wire.size() - 1)).ok());
}

TEST(ProtocolTest, QuitAcknowledges) {
  Engine engine;
  const json::Value v = ExecuteCommand(&engine, *ParseCommandLine("QUIT"));
  EXPECT_TRUE(v["ok"].as_bool());
  EXPECT_TRUE(v["bye"].as_bool());
}


TEST(ProtocolTest, CatalogFlow) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=5 len=20"))["ok"]
                  .as_bool());
  const json::Value v =
      ExecuteCommand(&engine, *ParseCommandLine("CATALOG s points=6"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  ASSERT_EQ(v["series"].as_array().size(), 5u);
  EXPECT_EQ(v["series"][0]["preview"].as_array().size(), 6u);
  EXPECT_FALSE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("CATALOG s points=0"))["ok"]
          .as_bool());
}

TEST(ProtocolTest, AppendFlow) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=4 len=12"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=8"))["ok"]
          .as_bool());
  const json::Value v = ExecuteCommand(
      &engine, *ParseCommandLine(
                   "APPEND s series=novel v=0.1,0.2,0.4,0.3,0.2,0.1,0.0,0.1,"
                   "0.3,0.5,0.4,0.2"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_DOUBLE_EQ(v["series"].as_number(), 5.0);
  EXPECT_GT(v["groups"].as_number(), 0.0);
}

TEST(ProtocolTest, AppendValidatesValues) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=4 len=12"))["ok"]
                  .as_bool());
  EXPECT_FALSE(
      ExecuteCommand(&engine, *ParseCommandLine("APPEND s"))["ok"].as_bool());
  EXPECT_FALSE(ExecuteCommand(&engine, *ParseCommandLine(
                                           "APPEND s v=1,abc"))["ok"]
                   .as_bool());
  EXPECT_FALSE(ExecuteCommand(&engine, *ParseCommandLine(
                                           "APPEND s v=1"))["ok"]
                   .as_bool());
}

TEST(ProtocolTest, ExtendFlow) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=4 len=12"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=8"))["ok"]
          .as_bool());
  const json::Value v = ExecuteCommand(
      &engine, *ParseCommandLine("EXTEND s series=1 points=0.4,0.5,0.3"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_DOUBLE_EQ(v["series"].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v["length"].as_number(), 15.0);
  EXPECT_DOUBLE_EQ(v["points_appended"].as_number(), 3.0);
  EXPECT_GT(v["new_members"].as_number(), 0.0);
  EXPECT_FALSE(v["drift"].as_array().empty());
  EXPECT_GE(v["max_drift"].as_number(), 0.0);

  // The grown tail is immediately searchable over the same session.
  const json::Value m = ExecuteCommand(
      &engine, *ParseCommandLine("MATCH s q=1:7:8 exhaustive=1"));
  ASSERT_TRUE(m["ok"].as_bool()) << m.Dump();
  EXPECT_NEAR(m["match"]["normalized_dtw"].as_number(), 0.0, 1e-9);
}

TEST(ProtocolTest, ExtendResolvesSeriesByName) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=3 len=12"))["ok"]
                  .as_bool());
  // GEN sine names series sine_family_<i>; resolve the second one by name.
  const json::Value v = ExecuteCommand(
      &engine,
      *ParseCommandLine("EXTEND s series=sine_family_1 points=0.1,0.2"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_DOUBLE_EQ(v["series"].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v["length"].as_number(), 14.0);
}

TEST(ProtocolTest, ExtendValidatesArguments) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=3 len=12"))["ok"]
                  .as_bool());
  for (const char* line : {
           "EXTEND s",                              // missing series + points
           "EXTEND s series=0",                     // missing points
           "EXTEND s points=1,2",                   // missing series
           "EXTEND s series=0 points=1,abc",        // malformed number
           "EXTEND s series=-1 points=1,2",         // negative index
           "EXTEND s series=99 points=1,2",         // out of range
           "EXTEND s series=nosuch points=1,2",     // unknown name
           "EXTEND nosuchset series=0 points=1,2",  // unknown dataset
       }) {
    const json::Value v = ExecuteCommand(&engine, *ParseCommandLine(line));
    EXPECT_FALSE(v["ok"].as_bool()) << line;
  }
}

TEST(ProtocolTest, DriftReportsAndSetsThreshold) {
  Engine engine;
  Session session;
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN s sine num=4 len=12"))["ok"]
                  .as_bool());

  // Unprepared: the report carries counters but no per-class scan.
  json::Value v = ExecuteCommand(&engine, &session, *ParseCommandLine("DRIFT s"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_FALSE(v["prepared"].as_bool());
  EXPECT_DOUBLE_EQ(v["threshold"].as_number(), 0.0);

  ASSERT_TRUE(
      ExecuteCommand(&engine, &session,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=8"))["ok"]
          .as_bool());
  // threshold= sets the registry-wide trigger; USE makes DRIFT sessionable.
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("USE s"))["ok"]
                  .as_bool());
  v = ExecuteCommand(&engine, &session,
                     *ParseCommandLine("DRIFT threshold=0.3"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_TRUE(v["prepared"].as_bool());
  EXPECT_DOUBLE_EQ(v["threshold"].as_number(), 0.3);
  EXPECT_DOUBLE_EQ(engine.registry().drift_threshold(), 0.3);
  ASSERT_FALSE(v["classes"].as_array().empty());
  const json::Value& row = v["classes"][0];
  EXPECT_GT(row["members"].as_number(), 0.0);
  EXPECT_GE(row["fraction"].as_number(), 0.0);
  EXPECT_GE(v["max_drift"].as_number(), 0.0);

  // Bad thresholds — and a good threshold aimed at a bad dataset — fail
  // clean and leave the registry-wide trigger untouched.
  for (const char* line :
       {"DRIFT s threshold=-0.1", "DRIFT s threshold=2", "DRIFT s threshold=nan",
        "DRIFT s threshold=abc", "DRIFT nosuch threshold=0.9"}) {
    const json::Value bad = ExecuteCommand(&engine, &session,
                                           *ParseCommandLine(line));
    EXPECT_FALSE(bad["ok"].as_bool()) << line;
  }
  EXPECT_DOUBLE_EQ(engine.registry().drift_threshold(), 0.3);

  // STATS surfaces the maintenance counters.
  v = ExecuteCommand(&engine, &session, *ParseCommandLine("STATS s"));
  ASSERT_TRUE(v["ok"].as_bool());
  EXPECT_TRUE(v["last_max_drift"].is_number());
  EXPECT_FALSE(v["regrouping"].as_bool());
}

TEST(ProtocolTest, AnalyticsVerbsAnswerOverTheWire) {
  Engine engine;
  Session session;
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN a sine num=6 len=24 seed=3"))
                  ["ok"]
                      .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine, &session,
                     *ParseCommandLine("PREPARE a st=0.2 maxlen=12"))["ok"]
          .as_bool());
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("USE a"))["ok"]
                  .as_bool());

  json::Value v = ExecuteCommand(&engine, &session,
                                 *ParseCommandLine("ANOMALY top=5 minpts=2"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_GT(v["members_scanned"].as_number(), 0.0);
  ASSERT_FALSE(v["findings"].as_array().empty());
  const json::Value& f = v["findings"][0];
  EXPECT_TRUE(f["score"].is_number());
  EXPECT_TRUE(f["outlier"].is_bool());
  EXPECT_GE(f["length"].as_number(), 4.0);
  ASSERT_FALSE(v["drift"].as_array().empty());
  // Findings arrive sorted by descending score.
  double prev = v["findings"][0]["score"].as_number();
  for (const json::Value& row : v["findings"].as_array()) {
    EXPECT_LE(row["score"].as_number(), prev + 1e-12);
    prev = row["score"].as_number();
  }

  v = ExecuteCommand(
      &engine, &session,
      *ParseCommandLine("CHANGEPOINT series=0 hazard=0.05 maxrun=64 probs=1"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_EQ(v["evaluated"].as_number(), 24.0);
  EXPECT_GE(v["error_bound"].as_number(), 0.0);
  EXPECT_EQ(v["probabilities"].as_array().size(), 24u);
  // By name, against the generated series naming.
  const json::Value by_name = ExecuteCommand(
      &engine, &session,
      *ParseCommandLine("CHANGEPOINT series=sine_family_0 last=8"));
  ASSERT_TRUE(by_name["ok"].as_bool()) << by_name.Dump();
  EXPECT_EQ(by_name["evaluated"].as_number(), 8.0);

  v = ExecuteCommand(&engine, &session,
                     *ParseCommandLine("MOTIF top=3 discords=2"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  ASSERT_FALSE(v["classes"].as_array().empty());
  for (const json::Value& cls : v["classes"].as_array()) {
    EXPECT_GT(cls["length"].as_number(), 0.0);
    ASSERT_LE(cls["densest"].as_array().size(), 3u);
    ASSERT_LE(cls["discords"].as_array().size(), 2u);
    if (cls.as_object().contains("motif")) {
      EXPECT_GE(cls["motif"]["distance"].as_number(), 0.0);
    }
  }

  v = ExecuteCommand(&engine, &session,
                     *ParseCommandLine("FORECAST series=1 horizon=4 k=2"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_EQ(v["values"].as_array().size(), 4u);
  EXPECT_EQ(v["values_norm"].as_array().size(), 4u);
  EXPECT_EQ(v["neighbors"].as_array().size(), 2u);
  EXPECT_EQ(v["tail_length"].as_number(), 12.0);

  v = ExecuteCommand(
      &engine, &session,
      *ParseCommandLine("FORECAST series=0 horizon=3 method=seasonal period=6"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_EQ(v["period"].as_number(), 6.0);
  EXPECT_EQ(v["values"].as_array().size(), 3u);

  // Validation failures stay clean errors, never crashes.
  for (const char* line : {
           "ANOMALY top=0",
           "ANOMALY top=9999999",
           "ANOMALY minpts=0",
           "ANOMALY eps=-1",
           "CHANGEPOINT",               // missing series
           "CHANGEPOINT series=0 hazard=0",
           "CHANGEPOINT series=0 hazard=1.5",
           "CHANGEPOINT series=0 maxrun=1",
           "CHANGEPOINT series=0 maxrun=9999999",
           "CHANGEPOINT series=0 threshold=2",
           "MOTIF top=9999999",
           "MOTIF discords=9999999",
           "FORECAST",                  // missing series
           "FORECAST series=0 horizon=0",
           "FORECAST series=0 horizon=9999999",
           "FORECAST series=0 k=0",
           "FORECAST series=0 method=oracle",
       }) {
    const json::Value bad = ExecuteCommand(&engine, &session,
                                           *ParseCommandLine(line));
    EXPECT_FALSE(bad["ok"].as_bool()) << line;
    EXPECT_EQ(bad["code"].as_string(), "InvalidArgument") << line;
  }
  // Resolution failures carry their own codes but stay clean errors too.
  for (const char* line : {
           "ANOMALY length=13",         // no such length class (NotFound)
           "CHANGEPOINT series=99",     // out of range
           "FORECAST series=0 length=13",
           "ANOMALY dataset=nosuch",
       }) {
    const json::Value bad = ExecuteCommand(&engine, &session,
                                           *ParseCommandLine(line));
    EXPECT_FALSE(bad["ok"].as_bool()) << line;
  }

  // An already-expired deadline (request arrived long ago, deadline_ms
  // counts from arrival) stops each verb with DeadlineExceeded.
  ExecContext stale;
  stale.arrival =
      std::chrono::steady_clock::now() - std::chrono::seconds(10);
  for (const char* line : {
           "ANOMALY deadline_ms=1",
           "CHANGEPOINT series=0 deadline_ms=1",
           "MOTIF deadline_ms=1",
           "FORECAST series=0 deadline_ms=1",
       }) {
    const json::Value bad =
        ExecuteCommand(&engine, &session, *ParseCommandLine(line), stale);
    EXPECT_FALSE(bad["ok"].as_bool()) << line;
    EXPECT_EQ(bad["code"].as_string(), "DeadlineExceeded") << line;
  }
  // And a negative deadline is malformed input, rejected up front.
  const json::Value neg = ExecuteCommand(&engine, &session,
                                         *ParseCommandLine("MOTIF deadline_ms=-1"));
  EXPECT_FALSE(neg["ok"].as_bool());
  EXPECT_EQ(neg["code"].as_string(), "InvalidArgument");
}

/// Regression (wire-input hardening): "nan"/"inf" in any numeric option and
/// NaN/Inf float64s in binary value payloads are rejected at parse time.
/// Pre-fix, EXTEND points=nan and APPEND v=nan were accepted — the poisoned
/// values joined the base and silently broke every later distance
/// comparison (NaN compares false against any cutoff).
TEST(ProtocolTest, NonFiniteNumericWireInputIsRejected) {
  Engine engine;
  Session session;
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN s sine num=3 len=12"))["ok"]
                  .as_bool());
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("USE s"))["ok"]
                  .as_bool());

  for (const char* line : {
           "EXTEND series=0 points=1,nan,2",
           "EXTEND series=0 points=inf",
           "EXTEND series=0 points=-inf",
           "EXTEND series=0 points=NaN",
           "APPEND v=0.5,nan",
           "APPEND v=infinity",
           "ANOMALY eps=nan",
           "CHANGEPOINT series=0 hazard=nan",
           "CHANGEPOINT series=0 threshold=inf",
           "DRIFT threshold=nan",
       }) {
    const json::Value bad = ExecuteCommand(&engine, &session,
                                           *ParseCommandLine(line));
    EXPECT_FALSE(bad["ok"].as_bool()) << line;
    EXPECT_EQ(bad["code"].as_string(), "InvalidArgument") << line;
  }

  // Binary dialect: the same contract for raw float64 payloads.
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double poison : {qnan, inf, -inf}) {
    Command extend;
    extend.verb = "EXTEND";
    extend.options["series"] = "0";
    extend.payload = {0.25, poison, 0.5};
    const json::Value bad = ExecuteCommand(&engine, &session, extend);
    EXPECT_FALSE(bad["ok"].as_bool());
    EXPECT_EQ(bad["code"].as_string(), "InvalidArgument");

    Command append;
    append.verb = "APPEND";
    append.payload = {poison};
    const json::Value bad2 = ExecuteCommand(&engine, &session, append);
    EXPECT_FALSE(bad2["ok"].as_bool());
    EXPECT_EQ(bad2["code"].as_string(), "InvalidArgument");
  }

  // Nothing leaked into the dataset: the series kept its original length.
  const json::Value stats =
      ExecuteCommand(&engine, &session, *ParseCommandLine("CATALOG points=1"));
  ASSERT_TRUE(stats["ok"].as_bool());
  for (const json::Value& row : stats["series"].as_array()) {
    EXPECT_EQ(row["length"].as_number(), 12.0);
  }
}

TEST(ProtocolTest, UseSetsSessionDefaultDataset) {
  Engine engine;
  Session session;
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN s sine num=6 len=18"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine, &session,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=10"))["ok"]
          .as_bool());

  // Without USE and without a name, dataset-scoped verbs must fail clean.
  json::Value v =
      ExecuteCommand(&engine, &session, *ParseCommandLine("MATCH q=0:2:8"));
  EXPECT_FALSE(v["ok"].as_bool());
  EXPECT_EQ(v["code"].as_string(), "InvalidArgument");

  v = ExecuteCommand(&engine, &session, *ParseCommandLine("USE s"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_EQ(v["dataset"].as_string(), "s");

  // Now the bare forms resolve against the session dataset.
  EXPECT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("MATCH q=0:2:8"))["ok"]
                  .as_bool());
  EXPECT_TRUE(
      ExecuteCommand(&engine, &session, *ParseCommandLine("STATS"))["ok"]
          .as_bool());
  EXPECT_TRUE(
      ExecuteCommand(&engine, &session,
                     *ParseCommandLine("KNN q=0:0:8 k=2"))["ok"]
          .as_bool());

  // USE of a missing dataset must not poison the session.
  v = ExecuteCommand(&engine, &session, *ParseCommandLine("USE nope"));
  EXPECT_FALSE(v["ok"].as_bool());
  EXPECT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("MATCH q=0:2:8"))["ok"]
                  .as_bool());

  // Dropping the session dataset clears the default.
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("DROP name=s"))["ok"]
                  .as_bool());
  v = ExecuteCommand(&engine, &session, *ParseCommandLine("MATCH q=0:2:8"));
  EXPECT_FALSE(v["ok"].as_bool());
  EXPECT_EQ(v["code"].as_string(), "InvalidArgument");
}

TEST(ProtocolTest, DatasetOptionOverridesSession) {
  Engine engine;
  Session session;
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN a sine num=4 len=16"))["ok"]
                  .as_bool());
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN b walk num=4 len=16"))["ok"]
                  .as_bool());
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("PREPARE dataset=a st=0.2 "
                                               "maxlen=8"))["ok"]
                  .as_bool());
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("USE b"))["ok"]
                  .as_bool());
  // dataset= beats the session default (b is not prepared; a is).
  const json::Value v = ExecuteCommand(
      &engine, &session, *ParseCommandLine("MATCH dataset=a q=0:2:8"));
  EXPECT_TRUE(v["ok"].as_bool()) << v.Dump();
  // The session default still points at b, which must fail as unprepared.
  const json::Value unprepared =
      ExecuteCommand(&engine, &session, *ParseCommandLine("MATCH q=0:2:8"));
  EXPECT_FALSE(unprepared["ok"].as_bool());
  EXPECT_EQ(unprepared["code"].as_string(), "FailedPrecondition");
}

// The cluster routes by ResolveDataset and the executor acts on it, so the
// table pins each verb family's rule.
TEST(ProtocolTest, ResolveDatasetFollowsEachVerbsRule) {
  Session used;
  used.dataset = "u";
  struct Case {
    const char* line;
    const Session* session;
    const char* want;  ///< nullptr: unroutable (InvalidArgument).
  };
  const Session none;
  const Case cases[] = {
      {"MATCH a q=0:0:8", &used, "a"},
      {"STATS dataset=b", &used, "b"},
      {"STATS c dataset=b", &none, "c"},
      {"STATS", &used, "u"},
      {"KNN q=0:0:8", &none, nullptr},
      {"STATS name=b", &none, nullptr},
      {"GEN g sine", &used, "g"},
      {"GEN dataset=b", &used, nullptr},
      {"LOAD l /tmp/x", &used, "l"},
      {"LOAD name=l path=/tmp/x", &used, "l"},
      {"LOAD name= path=/tmp/x", &used, nullptr},
      {"LOAD dataset=l path=/tmp/x", &used, nullptr},
      {"USE name=n", &none, "n"},
      {"USE dataset=d", &none, "d"},
      {"USE", &used, nullptr},
      {"DROP x", &used, "x"},
      {"DROP", &used, nullptr},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.line);
    const Result<std::string> got =
        ResolveDataset(*ParseCommandLine(c.line), *c.session);
    if (c.want == nullptr) {
      ASSERT_FALSE(got.ok()) << *got;
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    } else {
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, c.want);
    }
  }
}

void ScrubElapsed(json::Value* v) {
  if (v->is_object()) {
    v->mutable_object().erase("elapsed_ms");
    for (auto& entry : v->mutable_object()) ScrubElapsed(&entry.second);
  } else if (v->is_array()) {
    for (auto& entry : v->mutable_array()) ScrubElapsed(&entry);
  }
}

// A two-dataset BATCH answers each query with the per-dataset KNN lists
// merged by hand: tagged with their dataset, ordered by normalized_dtw then
// (dataset, series, start, length), cut to k, stats summed.
TEST(ProtocolTest, FanOutBatchIsThePerDatasetKnnMergedByHand) {
  Engine engine;
  for (const char* line :
       {"GEN a sine num=6 len=24 seed=3", "PREPARE a st=0.2 maxlen=12",
        "GEN b walk num=6 len=24 seed=5", "PREPARE b st=0.2 maxlen=12"}) {
    ASSERT_TRUE(
        ExecuteCommand(&engine, *ParseCommandLine(line))["ok"].as_bool());
  }
  const std::vector<std::string> queries = {"0:0:8", "2:3:9", "4:1:12"};
  json::Value batch = ExecuteCommand(
      &engine,
      *ParseCommandLine("BATCH datasets=a,b q=0:0:8;2:3:9;4:1:12 k=3"));
  ASSERT_TRUE(batch["ok"].as_bool()) << batch.Dump();
  ScrubElapsed(&batch);
  ASSERT_EQ(batch["results"].as_array().size(), queries.size());

  const auto key = [](const json::Value& m) {
    return std::make_tuple(m["normalized_dtw"].as_number(),
                           m["dataset"].as_string(), m["series"].as_number(),
                           m["start"].as_number(), m["length"].as_number());
  };
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SCOPED_TRACE(queries[q]);
    std::vector<json::Value> matches;
    json::Value stats = json::Value::MakeObject();
    for (const std::string ds : {"a", "b"}) {
      json::Value knn = ExecuteCommand(
          &engine, *ParseCommandLine("KNN " + ds + " q=" + queries[q] + " k=3"));
      ASSERT_TRUE(knn["ok"].as_bool()) << knn.Dump();
      ScrubElapsed(&knn);
      for (json::Value m : knn["matches"].as_array()) {
        m.Set("dataset", ds);
        matches.push_back(std::move(m));
      }
      for (const auto& [field, value] : knn["stats"].as_object()) {
        stats.Set(field, stats[field].as_number() + value.as_number());
      }
    }
    std::stable_sort(matches.begin(), matches.end(),
                     [&](const json::Value& x, const json::Value& y) {
                       return key(x) < key(y);
                     });
    matches.resize(3);
    json::Value want = json::Value::MakeObject();
    json::Value arr = json::Value::MakeArray();
    for (json::Value& m : matches) arr.Append(std::move(m));
    want.Set("matches", std::move(arr));
    want.Set("stats", std::move(stats));
    EXPECT_EQ(batch["results"].as_array()[q].Dump(), want.Dump());
  }
}

// The first failing shard is the fan-out's answer, so the shards after it
// are never run: the engine's query counter moves by the shards before it.
TEST(ProtocolTest, FanOutStopsAtTheFirstFailingShard) {
  Engine engine;
  for (const char* line :
       {"GEN a sine num=6 len=24 seed=3", "PREPARE a st=0.2 maxlen=12",
        "GEN b walk num=6 len=24 seed=5", "PREPARE b st=0.2 maxlen=12"}) {
    ASSERT_TRUE(
        ExecuteCommand(&engine, *ParseCommandLine(line))["ok"].as_bool());
  }
  const auto queries = [&] {
    return ExecuteCommand(&engine, *ParseCommandLine("STATS a"))["queries"]
        .as_number();
  };
  const double before = queries();
  const json::Value failed = ExecuteCommand(
      &engine, *ParseCommandLine("KNN datasets=a,missing,b q=0:0:8 k=2"));
  EXPECT_FALSE(failed["ok"].as_bool());
  EXPECT_EQ(failed["code"].as_string(), "NotFound") << failed.Dump();
  EXPECT_EQ(queries() - before, 1.0) << "only shard a may run";

  const json::Value ok = ExecuteCommand(
      &engine, *ParseCommandLine("KNN datasets=a,b q=0:0:8 k=2"));
  ASSERT_TRUE(ok["ok"].as_bool()) << ok.Dump();
  EXPECT_EQ(queries() - before, 3.0);
}

// PREPARE reports the leader-clustering scan's work beside the group count:
// every candidate centroid was either measured or skipped by the bound.
TEST(ProtocolTest, PrepareReportsTheClusteringScanCounters) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine,
                             *ParseCommandLine("GEN w walk num=8 len=64"))
                  ["ok"].as_bool());
  const json::Value v = ExecuteCommand(
      &engine, *ParseCommandLine("PREPARE w st=0.2 minlen=8 maxlen=24"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  const ScanCounters scan = (*engine.Get("w"))->base->stats().scan;
  EXPECT_EQ(v["centroid_evals"].as_number(),
            static_cast<double>(scan.centroid_evals));
  EXPECT_EQ(v["bound_skips"].as_number(),
            static_cast<double>(scan.bound_skips));
  EXPECT_GT(scan.centroid_evals, 0u);
  EXPECT_GT(scan.bound_skips, 0u);
}

TEST(ProtocolTest, DatasetsReportsSlotDetailAndBudget) {
  Engine engine;
  Session session;
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN a sine num=4 len=16"))["ok"]
                  .as_bool());
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN b walk num=4 len=16"))["ok"]
                  .as_bool());
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("PREPARE a st=0.2 maxlen=8"))
                  ["ok"]
                      .as_bool());
  const json::Value v =
      ExecuteCommand(&engine, &session, *ParseCommandLine("DATASETS"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  ASSERT_EQ(v["datasets"].as_array().size(), 2u);
  EXPECT_GT(v["prepared_bytes"].as_number(), 0.0);
  EXPECT_DOUBLE_EQ(v["budget"].as_number(), 0.0);
  for (const json::Value& row : v["datasets"].as_array()) {
    if (row["name"].as_string() == "a") {
      EXPECT_TRUE(row["prepared"].as_bool());
      EXPECT_GT(row["bytes"].as_number(), 0.0);
    } else {
      EXPECT_FALSE(row["prepared"].as_bool());
      EXPECT_FALSE(row["evicted"].as_bool());
    }
  }
}

TEST(ProtocolTest, BudgetVerbDrivesLruEviction) {
  Engine engine;
  Session session;
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN a sine num=4 len=16"))["ok"]
                  .as_bool());
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("PREPARE a st=0.2 maxlen=8"))
                  ["ok"]
                      .as_bool());
  json::Value v =
      ExecuteCommand(&engine, &session, *ParseCommandLine("BUDGET"));
  ASSERT_TRUE(v["ok"].as_bool());
  EXPECT_GT(v["prepared_bytes"].as_number(), 0.0);

  // A one-byte budget evicts the resident base...
  v = ExecuteCommand(&engine, &session, *ParseCommandLine("BUDGET bytes=1"));
  ASSERT_TRUE(v["ok"].as_bool());
  EXPECT_DOUBLE_EQ(v["budget"].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v["prepared_bytes"].as_number(), 0.0);

  // ...and a query on the evicted dataset transparently re-prepares it.
  v = ExecuteCommand(&engine, &session, *ParseCommandLine("MATCH a q=0:2:8"));
  EXPECT_TRUE(v["ok"].as_bool()) << v.Dump();

  EXPECT_FALSE(ExecuteCommand(&engine, &session,
                              *ParseCommandLine("BUDGET bytes=-5"))["ok"]
                   .as_bool());
}

TEST(ProtocolTest, LoadAcceptsKeyValueForm) {
  Engine engine;
  const json::Value v = ExecuteCommand(
      &engine, *ParseCommandLine("LOAD name=x path=/no/such/file.tsv"));
  EXPECT_FALSE(v["ok"].as_bool());
  EXPECT_EQ(v["code"].as_string(), "IoError");  // name/path were resolved
  // Mixed form: positional name + path= option resolves too.
  EXPECT_EQ(ExecuteCommand(&engine, *ParseCommandLine(
                               "LOAD y path=/no/such/file.tsv"))["code"]
                .as_string(),
            "IoError");
  EXPECT_FALSE(
      ExecuteCommand(&engine, *ParseCommandLine("LOAD name=x"))["ok"]
          .as_bool());
  EXPECT_FALSE(ExecuteCommand(&engine, *ParseCommandLine("LOAD"))["ok"]
                   .as_bool());
}

/// The answer fields a reload must reproduce, distances printed at %.17g
/// so every bit counts.
std::string AnswerFingerprint(const json::Value& v) {
  std::string out;
  auto one = [&out](const json::Value& m) {
    out += StrFormat("%s %.17g:%.17g:%.17g g%.17g %.17g %.17g %.17g;",
                     m["series_name"].as_string().c_str(),
                     m["series"].as_number(), m["start"].as_number(),
                     m["length"].as_number(), m["group"].as_number(),
                     m["dtw"].as_number(), m["normalized_dtw"].as_number(),
                     m["rep_dtw"].as_number());
  };
  if (v["match"].is_object()) one(v["match"]);
  for (const json::Value& m : v["matches"].as_array()) one(m);
  return out;
}

/// MATCH and KNN answers for `name`, cascade on and exhaustive.
std::vector<std::string> Answers(Engine* engine, const std::string& name) {
  std::vector<std::string> out;
  for (const char* query :
       {"MATCH # q=0:2:8", "MATCH # q=3:1:6 exhaustive=1",
        "KNN # q=0:0:8 k=3", "KNN # q=2:4:7 k=5 exhaustive=1"}) {
    std::string line = query;
    line.replace(line.find('#'), 1, name);
    const json::Value v = ExecuteCommand(engine, *ParseCommandLine(line));
    EXPECT_TRUE(v["ok"].as_bool()) << line << ": " << v.Dump();
    out.push_back(AnswerFingerprint(v));
    EXPECT_FALSE(out.back().empty()) << line;
  }
  return out;
}

TEST(ProtocolTest, SaveAndLoadBaseFlow) {
  const std::string path = ::testing::TempDir() + "/onex_proto_base.onex";
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=4 len=12"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=8"))["ok"]
          .as_bool());
  const json::Value saved = ExecuteCommand(
      &engine, *ParseCommandLine("SAVEBASE s " + path));
  ASSERT_TRUE(saved["ok"].as_bool()) << saved.Dump();

  const json::Value loaded = ExecuteCommand(
      &engine, *ParseCommandLine("LOADBASE restored " + path));
  ASSERT_TRUE(loaded["ok"].as_bool()) << loaded.Dump();
  const json::Value stats =
      ExecuteCommand(&engine, *ParseCommandLine("STATS restored"));
  EXPECT_TRUE(stats["prepared"].as_bool());

  // The reload answers exactly as the original and carries the original
  // raw values bit for bit (an arena stores them verbatim).
  EXPECT_EQ(Answers(&engine, "restored"), Answers(&engine, "s"));
  Result<std::shared_ptr<const PreparedDataset>> a = engine.Get("s");
  Result<std::shared_ptr<const PreparedDataset>> b = engine.Get("restored");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ((*a)->raw->size(), (*b)->raw->size());
  for (std::size_t s = 0; s < (*a)->raw->size(); ++s) {
    const std::vector<double>& want = (*(*a)->raw)[s].values();
    const std::vector<double>& got = (*(*b)->raw)[s].values();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << "series " << s;
  }
  std::remove(path.c_str());
}

/// Regression: SAVEBASE used to stream into the target through an unchecked
/// ofstream, so a failed write reported Ok and left the previous save
/// truncated. It now writes a temp file, flushes, fsyncs and renames: a
/// write that hits the file-size limit returns IoError, the previous save
/// still loads to the original answers, and no temp file is left behind.
TEST(ProtocolTest, FailedSaveBaseKeepsThePreviousFile) {
  const std::string dir = ::testing::TempDir() + "/onex_proto_savefail";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const std::string path = dir + "/base.onex";
  Engine engine;
  for (const char* line :
       {"GEN s sine num=6 len=48 seed=5", "PREPARE s st=0.2 maxlen=16"}) {
    const json::Value v = ExecuteCommand(&engine, *ParseCommandLine(line));
    ASSERT_TRUE(v["ok"].as_bool()) << line << ": " << v.Dump();
  }
  const std::vector<std::string> answers = Answers(&engine, "s");
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine("SAVEBASE s " + path))
                  ["ok"]
                      .as_bool());
  const auto good_size = std::filesystem::file_size(path);
  ASSERT_GT(good_size, 1024u);

  // The over-limit save runs in a child so the file-size limit never
  // touches this process; SIGXFSZ ignored turns the limit into EFBIG.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit limit{static_cast<rlim_t>(good_size / 2),
                       static_cast<rlim_t>(good_size / 2)};
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(3);
    const json::Value v =
        ExecuteCommand(&engine, *ParseCommandLine("SAVEBASE s " + path));
    if (v["ok"].as_bool()) ::_exit(1);
    ::_exit(v["code"].as_string() == "IoError" ? 0 : 2);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "child status " << wstatus;
  EXPECT_EQ(WEXITSTATUS(wstatus), 0)
      << "1: SAVEBASE reported Ok, 2: wrong error code, 3: setrlimit failed";

  EXPECT_EQ(std::filesystem::file_size(path), good_size);
  const json::Value loaded = ExecuteCommand(
      &engine, *ParseCommandLine("LOADBASE restored " + path));
  ASSERT_TRUE(loaded["ok"].as_bool()) << loaded.Dump();
  EXPECT_EQ(Answers(&engine, "restored"), answers);
  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    left.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(left, std::vector<std::string>{"base.onex"});
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace onex::net
