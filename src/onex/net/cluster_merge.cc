#include "onex/net/cluster_merge.h"

#include <algorithm>
#include <cstddef>
#include <set>
#include <utility>

#include "onex/common/string_utils.h"
#include "onex/net/protocol.h"

namespace onex::net {

namespace {

double NumberKey(const json::Value& match, const std::string& field) {
  return match[field].as_number();
}

/// One query's candidates from every dataset and their summed stats.
struct MergedQuery {
  std::vector<ShardMatch> cands;
  json::Value stats = json::Value::MakeObject();
  bool any_stats = false;
};

/// Adds one shard entry ({"matches":[...],"stats":{...}}) of `dataset` to
/// `query`; `*cursor` walks the shard's value section in match order.
void Absorb(MergedQuery* query, const std::string& dataset,
            const json::Value& entry, const std::vector<double>& values,
            std::size_t* cursor) {
  const json::Value::Array& matches = entry["matches"].as_array();
  for (const json::Value& m : matches) {
    ShardMatch c;
    c.dataset = dataset;
    c.match = m;
    c.match.Set("dataset", dataset);
    const std::size_t begin = std::min(*cursor, values.size());
    const std::size_t end = std::min(
        begin + static_cast<std::size_t>(m["length"].as_number()),
        values.size());
    c.values.assign(values.begin() + static_cast<std::ptrdiff_t>(begin),
                    values.begin() + static_cast<std::ptrdiff_t>(end));
    *cursor = end;
    query->cands.push_back(std::move(c));
  }
  if (!matches.empty()) {
    AccumulateStats(&query->stats, entry["stats"]);
    query->any_stats = true;
  }
}

/// Merges `query` down to `k` and returns its match array, appending the
/// values to `out_values` in the same order.
json::Value MergedMatches(MergedQuery* query, std::size_t k,
                          std::vector<double>* out_values) {
  MergeTopK(&query->cands, k);
  json::Value arr = json::Value::MakeArray();
  for (const ShardMatch& c : query->cands) {
    arr.Append(c.match);
    if (out_values != nullptr) {
      out_values->insert(out_values->end(), c.values.begin(), c.values.end());
    }
  }
  return arr;
}

}  // namespace

bool ShardMatchBefore(const ShardMatch& a, const ShardMatch& b) {
  const double da = NumberKey(a.match, "normalized_dtw");
  const double db = NumberKey(b.match, "normalized_dtw");
  if (da != db) return da < db;
  if (a.dataset != b.dataset) return a.dataset < b.dataset;
  const double sa = NumberKey(a.match, "series");
  const double sb = NumberKey(b.match, "series");
  if (sa != sb) return sa < sb;
  const double oa = NumberKey(a.match, "start");
  const double ob = NumberKey(b.match, "start");
  if (oa != ob) return oa < ob;
  return NumberKey(a.match, "length") < NumberKey(b.match, "length");
}

void MergeTopK(std::vector<ShardMatch>* candidates, std::size_t k) {
  std::stable_sort(candidates->begin(), candidates->end(), ShardMatchBefore);
  if (candidates->size() > k) candidates->resize(k);
}

void AccumulateStats(json::Value* total, const json::Value& stats) {
  if (!stats.is_object()) return;
  for (const auto& [key, value] : stats.as_object()) {
    if (!value.is_number()) continue;
    (*total).Set(key, (*total)[key].as_number() + value.as_number());
  }
}

json::Value MergeFanOut(const std::string& verb, std::size_t k,
                        const std::vector<std::string>& names,
                        const std::vector<WireResponse>& responses,
                        std::vector<double>* out_values) {
  for (const WireResponse& r : responses) {
    if (!r.body["ok"].as_bool()) return r.body;
  }
  const bool batch = verb == "BATCH";
  std::vector<MergedQuery> queries(batch ? 0 : 1);
  for (std::size_t i = 0; i < names.size() && i < responses.size(); ++i) {
    const WireResponse& r = responses[i];
    std::size_t cursor = 0;
    if (!batch) {
      Absorb(&queries[0], names[i], r.body, r.values, &cursor);
      continue;
    }
    const json::Value::Array& entries = r.body["results"].as_array();
    if (queries.size() < entries.size()) queries.resize(entries.size());
    for (std::size_t q = 0; q < entries.size(); ++q) {
      Absorb(&queries[q], names[i], entries[q], r.values, &cursor);
    }
  }

  json::Value v = json::Value::MakeObject();
  v.Set("ok", true);
  if (batch) {
    json::Value results = json::Value::MakeArray();
    for (MergedQuery& query : queries) {
      json::Value entry = json::Value::MakeObject();
      entry.Set("matches", MergedMatches(&query, k, out_values));
      if (query.any_stats) entry.Set("stats", std::move(query.stats));
      results.Append(std::move(entry));
    }
    v.Set("results", std::move(results));
    return v;
  }
  json::Value matches = MergedMatches(&queries[0], k, out_values);
  if (verb == "MATCH") {
    if (matches.as_array().empty()) {
      return ErrorResponse(
          Status::NotFound("no match in any of the named datasets"));
    }
    v.Set("match", matches.as_array().front());
  } else {
    v.Set("matches", std::move(matches));
  }
  if (queries[0].any_stats) v.Set("stats", std::move(queries[0].stats));
  return v;
}

Result<std::vector<std::string>> ParseDatasetsOption(const std::string& value) {
  std::vector<std::string> names;
  std::set<std::string> seen;
  for (const std::string& part : SplitKeepEmpty(value, ',')) {
    const std::string name(TrimString(part));
    if (name.empty()) {
      return Status::InvalidArgument(
          "datasets= entries must be non-empty names");
    }
    if (!seen.insert(name).second) {
      return Status::InvalidArgument("datasets= lists '" + name + "' twice");
    }
    names.push_back(name);
  }
  if (names.empty()) {
    return Status::InvalidArgument("datasets= names at least one dataset");
  }
  return names;
}

}  // namespace onex::net
