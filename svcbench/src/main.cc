// usfq_svcbench: the service benchmark (README.md).
//
//   usfq_svcbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                 [--trace-dir DIR]
//
// Sets the broker up (several times; the median is setup_s), drives it
// closed-loop from four client threads for S seconds in whole rounds of
// the workload's request stream, then checks every response outside the
// timed loop.  --trace 1 runs the same loop with the broker's request
// tracing on, replays the stream through span-wrapped layer calls
// (trace.hh) and reports per-layer metrics instead of end-to-end ones.
// The last line of stdout is one JSON object: correct, attempted,
// failed, metrics.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hh"
#include "obs/phase.hh"
#include "obs/trace.hh"
#include "reference.hh"
#include "svc/broker.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace svcbench;
using Clock = std::chrono::steady_clock;

namespace
{

constexpr int kClients = 4;
constexpr int kWorkers = 4;
constexpr int kSetups = 21;
constexpr int kCheckThreads = 4;
constexpr std::uint64_t kReplayCap = 20000;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceDir = ".";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "usfq_svcbench: %s\nusage: usfq_svcbench --workload "
                 "<serve_hot|serve_cold|audit_pulse|compile_sweep> "
                 "[--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            if (*end != '\0')
                usage("--seed needs an unsigned integer");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0)
                usage("--seconds needs a number in (0, 600]");
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace needs 0 or 1");
            a.trace = v[0] == '1';
        } else if (flag == "--trace-dir") {
            a.traceDir = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("--workload names no workload");
    return a;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds(const rusage &ru)
{
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

/** Nearest-rank percentile of an ascending vector. */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return percentile(v, 0.5);
}

/**
 * Hands out tickets in whole rounds until the deadline has passed or
 * the next round would not fit in the outcome buffer.
 */
class Dispenser
{
  public:
    Dispenser(std::size_t roundSize, std::size_t capacity,
              Clock::time_point deadline)
        : round(roundSize), cap(capacity), until(deadline)
    {
    }

    bool
    next(std::uint64_t &ticket)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!stopped && issued % round == 0) {
            full = issued + round > cap;
            stopped = full || Clock::now() >= until;
        }
        if (stopped)
            return false;
        ticket = issued++;
        return true;
    }

    /** Tickets issued, and whether the buffer ended the run. */
    std::pair<std::uint64_t, bool>
    result()
    {
        std::lock_guard<std::mutex> lock(mu);
        return {issued, full};
    }

  private:
    std::mutex mu; ///< guards issued, stopped and full
    std::uint64_t issued = 0;
    bool stopped = false;
    bool full = false;
    const std::size_t round;
    const std::size_t cap;
    const Clock::time_point until;
};

/** A broker with the workload's warm set run to completion. */
std::unique_ptr<usfq::svc::Broker>
setUp(const Workload &w)
{
    usfq::svc::BrokerOptions opts;
    opts.workers = kWorkers;
    opts.queueCapacity = 64;
    opts.cacheCapacity = w.cacheCapacity;
    auto broker = std::make_unique<usfq::svc::Broker>(opts);
    std::deque<std::future<usfq::svc::Response>> pending;
    const auto finishOldest = [&pending] {
        if (pending.empty())
            throw std::runtime_error("warm-up request refused");
        const usfq::svc::Response r = pending.front().get();
        pending.pop_front();
        if (r.status != usfq::api::Status::Ok)
            throw std::runtime_error("warm-up request failed: " + r.error);
    };
    for (const usfq::svc::Request &req : w.warm) {
        std::optional<std::future<usfq::svc::Response>> f;
        // A full queue: wait for the oldest request rather than spin a
        // fifth thread against the four workers.
        while (!(f = broker->submit(req)))
            finishOldest();
        pending.push_back(std::move(*f));
    }
    while (!pending.empty())
        finishOldest();
    return broker;
}

struct Timed
{
    std::vector<Outcome> outcomes; ///< indexed by ticket
    std::vector<std::pair<std::uint64_t, std::string>> errors; ///< first few
    bool full = false; ///< the outcome buffer ended the run
    double wallS = 0.0;  ///< through the last response
    double peakRssMb = 0.0;
    double ratePerS = 0.0;
    double cpuMsPerRequest = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
};

/**
 * The closed loop: kClients clients, each waiting for its response
 * before it sends the next request.  Every figure is the run's own,
 * over all of its requests: throughput is requests over wall time to
 * the last response, CPU is the process's user + system time over the
 * loop per request, and p50/p99 are nearest-rank over every latency.
 * The outcome buffer is allocated and touched before the clock starts,
 * so the loop's own memory in peak_rss_mb does not depend on how many
 * requests it served.
 */
Timed
drive(usfq::svc::Broker &broker, const Workload &w, double seconds)
{
    Timed out;
    const auto capacity = std::max<std::size_t>(
        w.roundSize, static_cast<std::size_t>(w.maxRatePerS * seconds));
    out.outcomes.assign(capacity, Outcome{});
    std::mutex errorsMu; // guards out.errors

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double cpu0 = cpuSeconds(ru);
    const Clock::time_point t0 = Clock::now();
    Dispenser dispenser(w.roundSize, capacity,
                        t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds)));
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&] {
            std::uint64_t ticket = 0;
            while (dispenser.next(ticket)) {
                const usfq::svc::Request req = w.at(ticket);
                const Clock::time_point sent = Clock::now();
                std::optional<std::future<usfq::svc::Response>> f;
                while (!(f = broker.submit(req)))
                    std::this_thread::yield(); // backpressure: resubmit
                const usfq::svc::Response r = f->get();
                Outcome &o = out.outcomes[ticket];
                o.latencyMs = static_cast<float>(secondsSince(sent) * 1e3);
                o.status = r.status;
                o.backend = r.backend;
                o.cacheHit = r.cacheHit;
                o.docHash = fingerprint(r.json);
                o.docBytes = static_cast<std::uint32_t>(r.json.size());
                if (r.status != usfq::api::Status::Ok) {
                    std::lock_guard<std::mutex> lock(errorsMu);
                    if (out.errors.size() < 10)
                        out.errors.emplace_back(ticket, r.error);
                }
            }
        });
    for (std::thread &t : clients)
        t.join();
    out.wallS = secondsSince(t0);
    getrusage(RUSAGE_SELF, &ru);
    out.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    const auto [n, full] = dispenser.result();
    out.full = full;
    out.outcomes.resize(n);
    out.ratePerS = static_cast<double>(n) / out.wallS;
    out.cpuMsPerRequest = (cpuSeconds(ru) - cpu0) * 1e3 /
                          static_cast<double>(n);
    std::vector<double> latencies;
    latencies.reserve(n);
    for (const Outcome &o : out.outcomes)
        latencies.push_back(o.latencyMs);
    std::sort(latencies.begin(), latencies.end());
    out.p50Ms = percentile(latencies, 0.5);
    out.p99Ms = percentile(latencies, 0.99);
    return out;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    const std::vector<std::string> refFailures = ref::selfTest();
    for (const std::string &f : refFailures)
        std::fprintf(stderr, "reference self-test: %s\n", f.c_str());

    // Set-up, several times: the median is setup_s; the last broker
    // serves the timed loop.
    std::vector<double> setups;
    std::unique_ptr<usfq::svc::Broker> broker;
    std::unique_ptr<Workload> w;
    try {
        for (int i = 0; i < kSetups; ++i) {
            broker.reset();
            const Clock::time_point t0 = Clock::now();
            w = std::make_unique<Workload>(
                makeWorkload(args.workload, args.seed));
            broker = setUp(*w);
            setups.push_back(secondsSince(t0));
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "usfq_svcbench: set-up failed: %s\n", e.what());
        return 1;
    }

    if (args.trace)
        usfq::obs::setTracingEnabled(true);
    usfq::obs::TraceLog::global().clear();
    const std::size_t phaseSpans0 =
        args.trace ? usfq::obs::PhaseLog::global().snapshot().size() : 0;
    const usfq::svc::BrokerStats stats0 = broker->stats();
    const usfq::svc::CacheStats cache0 = broker->cacheStats();

    const Timed timed = drive(*broker, *w, args.seconds);
    const std::size_t n = timed.outcomes.size();

    double bytes = 0.0;
    for (const Outcome &o : timed.outcomes)
        bytes += static_cast<double>(o.docBytes);
    std::fprintf(stderr,
                 "usfq_svcbench: %s seed %llu%s: %zu requests in %.3f s%s "
                 "(%.1f req/s, p50 %.4f ms, p99 %.4f ms), set-ups %.4f s "
                 "median\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 args.trace ? " (traced)" : "", n, timed.wallS,
                 timed.full ? ", cut short by the outcome buffer" : "",
                 timed.ratePerS, timed.p50Ms, timed.p99Ms, median(setups));
    for (const auto &[ticket, error] : timed.errors)
        std::fprintf(stderr, "usfq_svcbench: ticket %llu failed: %s\n",
                     static_cast<unsigned long long>(ticket), error.c_str());

    std::vector<Metric> metrics;
    bool traceOk = true;
    if (!args.trace) {
        metrics = {
            {"setup_s", median(setups), "s"},
            {"requests_per_s", timed.ratePerS, "req/s"},
            {"latency_p50_ms", timed.p50Ms, "ms"},
            {"latency_p99_ms", timed.p99Ms, "ms"},
            {"cpu_ms_per_request", timed.cpuMsPerRequest, "ms"},
            {"peak_rss_mb", timed.peakRssMb, "MB"},
        };
    } else {
        const usfq::svc::BrokerStats stats1 = broker->stats();
        const usfq::svc::CacheStats cache1 = broker->cacheStats();
        const std::size_t phaseSpans1 =
            usfq::obs::PhaseLog::global().snapshot().size();
        std::vector<double> waits;
        for (const usfq::obs::TraceSpan &s :
             usfq::obs::TraceLog::global().snapshot())
            if (s.name == "queue_wait")
                waits.push_back(static_cast<double>(s.durUs));
        usfq::obs::setTracingEnabled(false);
        double busy = 0.0, total = 0.0;
        for (std::size_t i = 0; i < stats1.workerUtil.size(); ++i) {
            const double b = static_cast<double>(stats1.workerUtil[i].busyUs -
                                                 stats0.workerUtil[i].busyUs);
            busy += b;
            total += b + static_cast<double>(stats1.workerUtil[i].idleUs -
                                             stats0.workerUtil[i].idleUs);
        }
        const double hits = static_cast<double>(cache1.hits - cache0.hits);
        const double misses =
            static_cast<double>(cache1.misses - cache0.misses);
        const double perReq = std::max<double>(1.0, static_cast<double>(n));
        metrics = {
            {"svc.cache_hits", hits, "count"},
            {"svc.cache_misses", misses, "count"},
            {"svc.cache_evictions",
             static_cast<double>(cache1.evictions - cache0.evictions),
             "count"},
            {"svc.cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
            {"svc.queue_wait_us_p50", median(waits), "us"},
            {"svc.worker_busy_share", total > 0 ? busy / total : 0.0,
             "share"},
            {"api.response_bytes", bytes / perReq, "bytes"},
            {"obs.phase_spans_per_request",
             static_cast<double>(phaseSpans1 - phaseSpans0) / perReq,
             "count"},
        };

        const Clock::time_point r0 = Clock::now();
        const Replay rep =
            replay(*w, std::min<std::uint64_t>(n, kReplayCap), kClients);
        std::fprintf(stderr,
                     "usfq_svcbench: replayed %zu requests (%zu spans) in "
                     "%.3f s\n",
                     rep.facts.size(), rep.spans.size(), secondsSince(r0));
        if (rep.failed != 0) {
            std::fprintf(stderr, "usfq_svcbench: %zu replayed requests "
                                 "failed\n",
                         rep.failed);
            traceOk = false;
        }
        std::error_code ec;
        std::filesystem::create_directories(args.traceDir, ec);
        const std::string path = args.traceDir + "/" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".jsonl";
        if (writeSpans(rep, path))
            std::fprintf(stderr, "usfq_svcbench: spans written to %s\n",
                         path.c_str());
        else
            std::fprintf(stderr, "usfq_svcbench: could not write %s\n",
                         path.c_str());
        for (const LayerMetric &m : foldReplay(rep))
            metrics.push_back({m.name, m.value, m.unit});
    }
    broker.reset();

    const Clock::time_point c0 = Clock::now();
    const CheckSummary checks = checkAll(*w, timed.outcomes, kCheckThreads);
    for (const std::string &m : checks.messages)
        std::fprintf(stderr, "check: %s\n", m.c_str());
    std::fprintf(stderr,
                 "usfq_svcbench: checked %zu responses in %.3f s: %zu "
                 "failed (%zu of them the known fault), %zu wrong\n",
                 n, secondsSince(c0), checks.failed, checks.knownFault,
                 checks.wrong);

    const bool correct = refFailures.empty() && checks.wrong == 0 && traceOk;
    printResult(correct, n, checks.failed, metrics);
    return 0;
}
