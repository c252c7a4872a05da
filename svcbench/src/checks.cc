#include "checks.hh"

#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>

#include "api/facade.hh"
#include "reference.hh"
#include "sim/sweep.hh"
#include "util/random.hh"

namespace svcbench
{

using usfq::Backend;
using usfq::api::RunParams;
using usfq::api::RunResult;
using usfq::api::Status;
using usfq::api::WorkloadKind;

std::uint64_t
fingerprint(std::string_view doc)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : doc) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace
{

std::string
describe(const usfq::svc::Request &req, const RunParams &params)
{
    return std::string(usfq::api::workloadKindName(req.spec.kind)) + " '" +
           req.spec.name + "' " + usfq::backendName(params.backend) +
           " seed " + std::to_string(params.seed);
}

/** Run (spec, params) outside the broker; empty string on success. */
std::string
runDirect(const usfq::api::NetlistSpec &spec, const RunParams &params,
          RunResult &out)
{
    usfq::api::Session session(spec);
    if (session.run(params, out) != Status::Ok)
        return "direct run failed: " + session.lastError();
    return {};
}

std::string
checkDpu(const usfq::api::NetlistSpec &spec, const RunParams &params,
         const RunResult &r)
{
    const int slots = 1 << spec.bits;
    for (std::size_t e = 0; e < r.counts.size(); ++e) {
        // The facade's operand draw: per tap a stream count, then an
        // RL id, from the epoch's shard seed.
        usfq::Rng rng(usfq::shardSeed(params.seed, e));
        std::vector<int> streams, ids;
        for (int i = 0; i < spec.taps; ++i) {
            streams.push_back(static_cast<int>(rng.uniformInt(0, slots)));
            ids.push_back(static_cast<int>(rng.uniformInt(0, slots)));
        }
        const int want = ref::dpuCount(spec.mode == usfq::DpuMode::Bipolar,
                                       streams, ids, slots);
        if (r.counts[e] != want)
            return "epoch " + std::to_string(e) + " count " +
                   std::to_string(r.counts[e]) + ", reference " +
                   std::to_string(want);
    }
    return {};
}

std::string
checkPe(const usfq::api::NetlistSpec &spec, const RunParams &params,
        const RunResult &r)
{
    const int slots = 1 << spec.bits;
    for (std::size_t e = 0; e < r.counts.size(); ++e) {
        usfq::Rng rng(usfq::shardSeed(params.seed, e));
        const int in1 = static_cast<int>(rng.uniformInt(0, slots));
        const int in2 = static_cast<int>(rng.uniformInt(0, slots));
        const int in3 = static_cast<int>(rng.uniformInt(0, slots));
        const int want = ref::peSlot(in1, in2, in3, slots);
        if (r.counts[e] != want)
            return "epoch " + std::to_string(e) + " slot " +
                   std::to_string(r.counts[e]) + ", reference " +
                   std::to_string(want);
    }
    return {};
}

/** Counting-tree levels of a FIR: ceil(log2(taps)), at least one. */
long long
firLevels(int taps)
{
    long long levels = 1;
    while ((1 << levels) < taps)
        ++levels;
    return levels;
}

/** Pulse-level counts against the functional engine's. */
std::string
checkAgainstFunctional(const usfq::api::NetlistSpec &spec,
                       const RunParams &params, const RunResult &pulse)
{
    RunParams fp = params;
    fp.backend = Backend::Functional;
    fp.batch = 1;
    RunResult func;
    if (std::string err = runDirect(spec, fp, func); !err.empty())
        return "functional twin: " + err;
    if (func.counts.size() != pulse.counts.size())
        return "functional twin has a different epoch count";
    // FIR: the pulse-level delay line starts in its reset state, so the
    // first `taps` epochs are warm-up (fig19 excludes them too).
    const bool fir = spec.kind == WorkloadKind::Fir;
    const long long tolerance = fir ? firLevels(spec.taps) : 0;
    const std::size_t from = fir ? static_cast<std::size_t>(spec.taps) : 0;
    for (std::size_t e = from; e < pulse.counts.size(); ++e)
        if (std::llabs(pulse.counts[e] - func.counts[e]) > tolerance)
            return "epoch " + std::to_string(e) + " pulse " +
                   std::to_string(pulse.counts[e]) + " vs functional " +
                   std::to_string(func.counts[e]) + " (tolerance " +
                   std::to_string(tolerance) + ")";
    return {};
}

/** First functional epoch against the pulse-level engine. */
std::string
checkFirstEpochAtPulseLevel(const usfq::api::NetlistSpec &spec,
                            const RunParams &params, const RunResult &func)
{
    RunParams pp = params;
    pp.backend = Backend::PulseLevel;
    pp.epochs = 1;
    pp.batch = 1;
    RunResult pulse;
    if (std::string err = runDirect(spec, pp, pulse); !err.empty())
        return "pulse twin: " + err;
    if (pulse.counts.size() != 1 || func.counts.empty() ||
        pulse.counts[0] != func.counts[0])
        return "epoch 0 differs from the pulse-level engine";
    return {};
}

std::string
checkTiming(const usfq::api::NetlistSpec &spec)
{
    usfq::api::Session session(spec);
    if (session.analyzeTiming() != Status::Ok)
        return "analyzeTiming: " + session.lastError();
    for (const usfq::LintFinding &f : session.findings())
        if (!f.waived)
            return "analyzeTiming: unwaived finding " + f.message;
    return {};
}

std::string
grade(const usfq::svc::Request &req, const RunParams &params,
      const RunResult &r)
{
    const usfq::api::NetlistSpec &spec = req.spec;
    const bool pulse = params.backend == Backend::PulseLevel;
    const std::size_t epochs =
        spec.kind == WorkloadKind::Inverter
            ? 1
            : static_cast<std::size_t>(params.epochs);
    if (r.counts.size() != epochs)
        return "wrong epoch count";
    switch (spec.kind) {
    case WorkloadKind::Dpu:
        return checkDpu(spec, params, r);
    case WorkloadKind::Pe:
        return checkPe(spec, params, r);
    case WorkloadKind::Fir:
        return pulse ? checkAgainstFunctional(spec, params, r)
                     : std::string();
    case WorkloadKind::Inverter:
        if (spec.clockPeriodPs < 9.0)
            return "inverter period below 9 ps";
        if (r.counts[0] != spec.clockCount)
            return "inverter delivered " + std::to_string(r.counts[0]) +
                   " of " + std::to_string(spec.clockCount) + " pulses";
        return {};
    case WorkloadKind::NocMesh:
        return pulse ? checkAgainstFunctional(spec, params, r)
                     : checkFirstEpochAtPulseLevel(spec, params, r);
    case WorkloadKind::Gen:
        if (std::string err = checkTiming(spec); !err.empty())
            return err;
        return pulse ? checkAgainstFunctional(spec, params, r)
                     : checkFirstEpochAtPulseLevel(spec, params, r);
    }
    return "unknown kind";
}

} // namespace

std::string
Checker::recompute(const usfq::svc::Request &req, const RunParams &params,
                   std::uint64_t &hash, std::size_t &bytes)
{
    RunResult r;
    if (std::string err = runDirect(req.spec, params, r); !err.empty())
        return err;
    const std::string doc = usfq::api::resultToJson(req.spec, params, r);
    hash = fingerprint(doc);
    bytes = doc.size();
    return grade(req, params, r);
}

std::string
Checker::check(std::uint64_t ticket, const Outcome &o)
{
    const usfq::svc::Request req = w.at(ticket);
    RunParams params = req.params;
    params.backend = usfq::svc::Broker::resolveBackend(req);
    const std::string what = describe(req, params) + ": ";
    if (o.backend != params.backend)
        return what + "ran on the wrong backend";
    if (w.allHits && !o.cacheHit)
        return what + "expected a cache hit";

    Expected want;
    if (w.allHits) {
        // Repeated requests: grade each distinct one once.
        const std::string key = usfq::api::specToJson(req.spec) +
                                usfq::api::runParamsToJson(params);
        std::lock_guard<std::mutex> lock(mu);
        auto it = memo.find(key);
        if (it == memo.end()) {
            Expected e;
            e.error = recompute(req, params, e.hash, e.bytes);
            it = memo.emplace(key, std::move(e)).first;
        }
        want = it->second;
    } else {
        want.error = recompute(req, params, want.hash, want.bytes);
    }
    if (!want.error.empty())
        return what + want.error;
    if (o.docHash != want.hash || o.docBytes != want.bytes)
        return what + (o.cacheHit ? "cache hit" : "response") +
               " differs from the uncached recomputation";
    return {};
}

CheckSummary
checkAll(const Workload &workload, const std::vector<Outcome> &outcomes,
         int threads)
{
    Checker checker(workload);
    std::vector<std::string> verdicts(outcomes.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&] {
            for (std::size_t i = next++; i < outcomes.size(); i = next++) {
                if (outcomes[i].status != Status::Ok)
                    continue;
                try {
                    verdicts[i] = checker.check(i, outcomes[i]);
                } catch (const std::exception &e) {
                    verdicts[i] = std::string("check threw: ") + e.what();
                }
            }
        });
    for (std::thread &t : pool)
        t.join();

    CheckSummary s;
    std::set<std::string> faults; // each known fault reported once
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        if (!verdicts[i].empty() && workload.knownFault &&
            workload.knownFault(i) && faults.insert(verdicts[i]).second)
            s.messages.push_back("known fault, ticket " + std::to_string(i) +
                                 ": " + verdicts[i]);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        std::string msg;
        if (outcomes[i].status != Status::Ok) {
            ++s.failed;
            msg = usfq::api::statusName(outcomes[i].status);
        } else if (!verdicts[i].empty()) {
            if (workload.knownFault && workload.knownFault(i)) {
                ++s.failed;
                ++s.knownFault;
                continue; // reported once, above
            }
            ++s.wrong;
            msg = verdicts[i];
        }
        if (!msg.empty() && s.messages.size() < 10)
            s.messages.push_back("ticket " + std::to_string(i) + ": " + msg);
    }
    return s;
}

} // namespace svcbench
