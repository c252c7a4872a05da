/**
 * @file
 * The benchmark's workloads (README.md, "Workloads"): each is an
 * endless request stream that is a pure function of (seed, ticket),
 * cut into rounds of equal size so every run attempts whole rounds,
 * plus the requests that warm the broker during set-up.
 */

#ifndef USFQ_SVCBENCH_WORKLOADS_HH
#define USFQ_SVCBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "svc/broker.hh"

namespace svcbench
{

struct Workload
{
    /** Requests per round; a run attempts a whole number of rounds. */
    std::size_t roundSize = 1;

    /** Result-cache capacity of the broker under test. */
    std::size_t cacheCapacity = 64;

    /**
     * Most requests per second the timed loop keeps outcomes for: it
     * holds a fixed buffer of maxRatePerS x seconds of them, and a run
     * that fills it ends early, at a round boundary.
     */
    double maxRatePerS = 10000;

    /** True when every timed request must be a cache hit. */
    bool allHits = false;

    /** Request number @p ticket of the timed stream. */
    std::function<usfq::svc::Request(std::uint64_t ticket)> at;

    /**
     * True for the tickets of the requests kept although a fault of the
     * program makes their checks fail every time (README.md, "Known
     * faults"): their inputs do not depend on the seed, so they fail the
     * same share of every run and count as failed, not as wrong.
     */
    std::function<bool(std::uint64_t ticket)> knownFault;

    /** Requests run to completion during set-up. */
    std::vector<usfq::svc::Request> warm;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name for @p seed; throws on an unknown name. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

} // namespace svcbench

#endif // USFQ_SVCBENCH_WORKLOADS_HH
