/**
 * @file
 * Response checks (README.md, "Checks").  The timed loop keeps only a
 * fingerprint of each response document; the checks recompute every
 * response outside the broker, require the broker's bytes to match the
 * recomputation, and grade the recomputed counts independently:
 *
 *  - DPU and PE counts against the reference arithmetic
 *    (reference.hh) over the same seeded operands;
 *  - pulse-level FIR, NoC, gen and inverter counts against the
 *    functional engine within the bounds of docs/functional.md
 *    (FIR: one pulse per counting-tree level after the warm-up
 *    epochs; NoC and gen: exact; inverter: clock_count pulses);
 *  - the first epoch of functional NoC and gen responses against the
 *    pulse-level engine (exact);
 *  - every gen design through Session::analyzeTiming with no unwaived
 *    finding.
 */

#ifndef USFQ_SVCBENCH_CHECKS_HH
#define USFQ_SVCBENCH_CHECKS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.hh"

namespace svcbench
{

/** FNV-1a over a response document (the timed loop's fingerprint). */
std::uint64_t fingerprint(std::string_view doc);

/**
 * What the timed loop keeps of one request, in the slot numbered by its
 * ticket.  Fixed size, so the loop's own memory does not grow with the
 * number of responses.
 */
struct Outcome
{
    std::uint64_t docHash = 0;
    float latencyMs = -1.0f; ///< submit to response; < 0: not answered
    std::uint32_t docBytes = 0;
    usfq::api::Status status = usfq::api::Status::Ok;
    usfq::Backend backend = usfq::Backend::Functional;
    bool cacheHit = false;
};

/** Checks the responses of one workload; thread-safe. */
class Checker
{
  public:
    explicit Checker(const Workload &workload) : w(workload) {}

    /**
     * Check one successful response.  Returns an empty string when it
     * passes, else what is wrong.
     */
    std::string check(std::uint64_t ticket, const Outcome &o);

  private:
    /** Recompute and grade (request, resolved params) once. */
    std::string recompute(const usfq::svc::Request &req,
                          const usfq::api::RunParams &params,
                          std::uint64_t &hash, std::size_t &bytes);

    const Workload &w;

    struct Expected
    {
        std::string error;
        std::uint64_t hash = 0;
        std::size_t bytes = 0;
    };
    std::mutex mu; ///< guards memo
    std::map<std::string, Expected> memo; ///< allHits workloads only
};

/** Result of checking a whole run. */
struct CheckSummary
{
    std::size_t failed = 0; ///< broker status != Ok, or known fault
    std::size_t wrong = 0;  ///< Ok responses that failed a check
    std::size_t knownFault = 0; ///< of failed: the workload's known fault
    std::vector<std::string> messages; ///< first few diagnostics
};

/** Check @p outcomes, indexed by ticket, on @p threads threads. */
CheckSummary checkAll(const Workload &workload,
                      const std::vector<Outcome> &outcomes, int threads);

} // namespace svcbench

#endif // USFQ_SVCBENCH_CHECKS_HH
