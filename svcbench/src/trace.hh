/**
 * @file
 * The traced replay (README.md, "Per-layer metrics"): the request
 * stream of a broker run, replayed through the same public calls the
 * broker makes -- Session build / elaborate / contentHash / run,
 * resultToJson, ResultCache lookup / insert -- plus one balanceDesign
 * and one analyzeTiming per generated design, each wrapped in a span
 * recorded from this file.  Spans stay in per-thread memory until the
 * replay ends; then they are written out and folded into per-layer
 * self times.
 */

#ifndef USFQ_SVCBENCH_TRACE_HH
#define USFQ_SVCBENCH_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hh"

namespace svcbench
{

/** The layer call a span wraps. */
enum class Layer : std::uint8_t
{
    Request,   ///< the whole broker-equivalent pipeline of one request
    Build,     ///< api::Session::build
    Elaborate, ///< api::Session::elaborate
    Hash,      ///< api::Session::contentHash
    Lookup,    ///< svc::ResultCache::lookup
    Run,       ///< api::Session::run
    Serialize, ///< api::resultToJson
    Insert,    ///< svc::ResultCache::insert
    Balance,   ///< gen::balanceDesign (generated designs only)
    Analyze,   ///< api::Session::analyzeTiming (generated designs only)
};

const char *layerName(Layer layer);

/** One timed call. */
struct Span
{
    std::uint64_t request = 0; ///< ticket of the replayed request
    std::uint32_t id = 0;      ///< 1-based, unique within the replay
    std::uint32_t parent = 0;  ///< 0 = a root span
    Layer layer = Layer::Request;
    std::uint64_t startNs = 0; ///< steady clock, from replay start
    std::uint64_t durNs = 0;
};

/** Per-request facts the folding needs beside the spans. */
struct Facts
{
    std::uint64_t request = 0;
    usfq::api::WorkloadKind kind = usfq::api::WorkloadKind::Dpu;
    usfq::Backend backend = usfq::Backend::Functional;
    bool ok = true;
    bool ran = false;        ///< missed the cache and ran
    long long epochs = 0;    ///< epochs the run evaluated
    int balanceIterations = 0;
    int insertedJJ = 0;
};

struct Replay
{
    std::vector<Span> spans;
    std::vector<Facts> facts; ///< one per replayed request
    std::size_t failed = 0;   ///< requests with a non-Ok status
};

/**
 * Replay tickets [0, count) of @p workload on @p threads threads
 * against a fresh result cache warmed with the workload's warm set.
 */
Replay replay(const Workload &workload, std::uint64_t count, int threads);

/** Write @p r as JSON lines (one span per line) to @p path. */
bool writeSpans(const Replay &r, const std::string &path);

/** One per-layer metric. */
struct LayerMetric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Fold the replay's spans into self times per layer: a span's self
 * time is its duration minus the part its children cover.
 */
std::vector<LayerMetric> foldReplay(const Replay &r);

} // namespace svcbench

#endif // USFQ_SVCBENCH_TRACE_HH
