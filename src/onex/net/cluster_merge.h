#ifndef ONEX_NET_CLUSTER_MERGE_H_
#define ONEX_NET_CLUSTER_MERGE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "onex/common/result.h"
#include "onex/json/json.h"
#include "onex/net/client.h"

namespace onex::net {

/// Deterministic top-k merge of the `datasets=` fan-out (DESIGN.md §16),
/// run by single nodes and cluster coordinators alike. A cluster answer is
/// bitwise equal to the single-node one because the merge does not depend on
/// which shard answered first, how datasets were assigned to nodes, or
/// thread scheduling.

/// One candidate match from one dataset. `match` is the per-match response
/// object (MatchToJson shape) with a "dataset" field added; `values` is the
/// side-band normalized subsequence for binary clients, carried alongside so
/// the merged value stream lines up with the merged match order.
struct ShardMatch {
  std::string dataset;
  json::Value match;
  std::vector<double> values;
};

/// Strict weak order over candidates: ascending normalized_dtw, ties broken
/// by (dataset, series, start, length). Distance ties are real — symmetric
/// generators and repeated series produce exactly-equal doubles — and without
/// the structural tie-break the merged order would depend on shard
/// assignment. The keys are read from the match JSON itself so the
/// coordinator (which only has JSON) and the local path (which built the
/// JSON) order by literally the same bytes.
bool ShardMatchBefore(const ShardMatch& a, const ShardMatch& b);

/// Stable-sorts `candidates` with ShardMatchBefore and truncates to `k`.
/// Stability keeps engine-produced within-dataset order for fully equal keys.
void MergeTopK(std::vector<ShardMatch>* candidates, std::size_t k);

/// Field-wise sum of cascade stats objects (StatsToJson shape): every numeric
/// field of `stats` is added into `*total`, missing fields start at zero.
/// Callers accumulate in user-given dataset order so both paths sum in the
/// same sequence (double addition is order-sensitive; these are counters, but
/// the discipline keeps the contract exact).
void AccumulateStats(json::Value* total, const json::Value& stats);

/// Merges the per-dataset shard answers of a MATCH, KNN or BATCH fan-out
/// (`responses[i]` answers a KNN or BATCH on `names[i]`) into the response
/// body of `verb`. The first failing body in dataset order is the answer.
/// Otherwise every match gains a "dataset" field and takes its values from
/// its response's value section, cut by the match's "length"; stats are
/// summed in dataset order and each query's candidates go through MergeTopK
/// with `k`. MATCH answers the best match ("match" and "stats", NotFound
/// when no dataset has one), KNN its "matches" (and "stats"), BATCH one such
/// entry per query under "results". When `out_values` is non-null the
/// merged matches' values are appended to it in response order.
json::Value MergeFanOut(const std::string& verb, std::size_t k,
                        const std::vector<std::string>& names,
                        const std::vector<WireResponse>& responses,
                        std::vector<double>* out_values);

/// Parses a `datasets=a,b,c` option value: comma-separated, order-preserving.
/// Empty entries and duplicates are InvalidArgument — a duplicate would
/// double-count stats and return the same subsequences twice.
Result<std::vector<std::string>> ParseDatasetsOption(const std::string& value);

}  // namespace onex::net

#endif  // ONEX_NET_CLUSTER_MERGE_H_
