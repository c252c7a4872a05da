#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <thread>

#include "api/facade.hh"
#include "gen/balance.hh"
#include "svc/cache.hh"

namespace svcbench
{

using usfq::api::Status;
using usfq::api::WorkloadKind;

const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::Request:
        return "request";
    case Layer::Build:
        return "api.build";
    case Layer::Elaborate:
        return "api.elaborate";
    case Layer::Hash:
        return "api.hash";
    case Layer::Lookup:
        return "svc.cache_lookup";
    case Layer::Run:
        return "api.run";
    case Layer::Serialize:
        return "api.serialize";
    case Layer::Insert:
        return "svc.cache_insert";
    case Layer::Balance:
        return "gen.balance";
    case Layer::Analyze:
        return "sta.analyze";
    }
    return "?";
}

namespace
{

using Clock = std::chrono::steady_clock;

/** Span recorder of one replay thread (local ids, renumbered later). */
class ThreadTrace
{
  public:
    explicit ThreadTrace(Clock::time_point origin) : t0(origin) {}

    /** Run @p call inside a span; returns what it returns. */
    template <typename F>
    auto
    timed(std::uint64_t request, Layer layer, std::uint32_t parent,
          F &&call)
    {
        const std::uint32_t id = open(request, layer, parent);
        struct Closer
        {
            ThreadTrace &t;
            std::uint32_t id;
            ~Closer() { t.close(id); }
        } closer{*this, id};
        return call();
    }

    std::uint32_t
    open(std::uint64_t request, Layer layer, std::uint32_t parent)
    {
        Span s;
        s.request = request;
        s.id = static_cast<std::uint32_t>(spans.size() + 1);
        s.parent = parent;
        s.layer = layer;
        s.startNs = sinceOrigin();
        spans.push_back(s);
        return s.id;
    }

    void
    close(std::uint32_t id)
    {
        Span &s = spans[id - 1];
        s.durNs = sinceOrigin() - s.startNs;
    }

    std::vector<Span> spans;

  private:
    std::uint64_t
    sinceOrigin() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
    }

    Clock::time_point t0;
};

/** The broker's per-request pipeline (svc/broker.cc), span-wrapped. */
Facts
replayOne(const usfq::svc::Request &req, std::uint64_t ticket,
          usfq::svc::ResultCache &cache, ThreadTrace &trace)
{
    Facts f;
    f.request = ticket;
    f.kind = req.spec.kind;
    usfq::api::RunParams params = req.params;
    params.backend = usfq::svc::Broker::resolveBackend(req);
    f.backend = params.backend;

    usfq::api::Session session(req.spec);
    const std::uint32_t root = trace.open(ticket, Layer::Request, 0);
    [&] {
        const auto step = [&](Layer layer, auto &&call) {
            return trace.timed(ticket, layer, root, call);
        };
        if (step(Layer::Build, [&] { return session.build(); }) !=
                Status::Ok ||
            step(Layer::Elaborate, [&] { return session.elaborate(); }) !=
                Status::Ok) {
            f.ok = false;
            return;
        }
        usfq::svc::CacheKey key;
        if (step(Layer::Hash, [&] {
                return session.contentHash(key.structural);
            }) != Status::Ok) {
            f.ok = false;
            return;
        }
        key.spec = usfq::api::specHash(req.spec);
        key.params = usfq::api::runParamsKeyHash(params);
        key.backend = params.backend;
        key.seed = params.seed;
        if (step(Layer::Lookup, [&] { return cache.lookup(key); }))
            return;

        usfq::api::RunResult result;
        f.ran = true;
        if (step(Layer::Run, [&] { return session.run(params, result); }) !=
            Status::Ok) {
            f.ok = false;
            return;
        }
        f.epochs = static_cast<long long>(result.counts.size());
        std::string doc = step(Layer::Serialize, [&] {
            return usfq::api::resultToJson(req.spec, params, result);
        });
        step(Layer::Insert, [&] {
            cache.insert(key, std::move(doc));
            return 0;
        });
    }();
    trace.close(root);

    if (f.ok && req.spec.kind == WorkloadKind::Gen) {
        // The balance every build of this design runs, timed on its own
        // (the session's call is inside Session::build), and one STA of
        // the balanced design.
        const usfq::gen::BalanceOutcome bo =
            trace.timed(ticket, Layer::Balance, 0, [&] {
                return usfq::gen::balanceDesign(req.spec.gen);
            });
        f.balanceIterations = bo.iterations;
        f.insertedJJ = bo.insertedJJ;
        trace.timed(ticket, Layer::Analyze, 0,
                    [&] { return session.analyzeTiming(); });
    }
    return f;
}

} // namespace

Replay
replay(const Workload &workload, std::uint64_t count, int threads)
{
    usfq::svc::ResultCache cache(workload.cacheCapacity);
    const Clock::time_point t0 = Clock::now();
    {
        ThreadTrace discard(t0);
        for (const usfq::svc::Request &req : workload.warm)
            replayOne(req, 0, cache, discard);
    }

    std::atomic<std::uint64_t> next{0};
    std::vector<ThreadTrace> traces(static_cast<std::size_t>(threads),
                                    ThreadTrace(t0));
    std::vector<std::vector<Facts>> facts(traces.size());
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < traces.size(); ++t)
        pool.emplace_back([&, t] {
            for (std::uint64_t i = next++; i < count; i = next++)
                facts[t].push_back(
                    replayOne(workload.at(i), i, cache, traces[t]));
        });
    for (std::thread &t : pool)
        t.join();

    Replay r;
    for (std::size_t t = 0; t < traces.size(); ++t) {
        const auto offset = static_cast<std::uint32_t>(r.spans.size());
        for (Span s : traces[t].spans) {
            s.id += offset;
            if (s.parent != 0)
                s.parent += offset;
            r.spans.push_back(s);
        }
        for (const Facts &f : facts[t]) {
            r.failed += f.ok ? 0 : 1;
            r.facts.push_back(f);
        }
    }
    return r;
}

bool
writeSpans(const Replay &r, const std::string &path)
{
    std::ofstream out(path);
    for (const Span &s : r.spans)
        out << "{\"request\":" << s.request << ",\"span\":" << s.id
            << ",\"parent\":" << s.parent << ",\"layer\":\""
            << layerName(s.layer) << "\",\"start_ns\":" << s.startNs
            << ",\"dur_ns\":" << s.durNs << "}\n";
    return static_cast<bool>(out);
}

namespace
{

/** Nanoseconds of [lo, hi) covered by the union of @p parts. */
std::uint64_t
covered(std::vector<std::pair<std::uint64_t, std::uint64_t>> parts,
        std::uint64_t lo, std::uint64_t hi)
{
    std::sort(parts.begin(), parts.end());
    std::uint64_t total = 0, reach = lo;
    for (auto [a, b] : parts) {
        a = std::max(a, reach);
        b = std::min(b, hi);
        if (b > a) {
            total += b - a;
            reach = b;
        }
    }
    return total;
}

const char *
kindKey(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::Dpu:
        return "dpu";
    case WorkloadKind::Pe:
        return "pe";
    case WorkloadKind::Fir:
        return "fir";
    case WorkloadKind::Inverter:
        return "inverter";
    case WorkloadKind::NocMesh:
        return "noc";
    case WorkloadKind::Gen:
        return "gen";
    }
    return "?";
}

} // namespace

std::vector<LayerMetric>
foldReplay(const Replay &r)
{
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children(r.spans.size() + 1);
    for (const Span &s : r.spans)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.startNs, s.startNs + s.durNs);

    std::map<std::uint64_t, const Facts *> factsOf;
    for (const Facts &f : r.facts)
        factsOf[f.request] = &f;

    std::map<std::string, double> selfUs; // per layer (run: per kind)
    double pulseRunS = 0.0, funcRunS = 0.0;
    for (const Span &s : r.spans) {
        const std::uint64_t self =
            s.durNs - covered(children[s.id], s.startNs, s.startNs + s.durNs);
        std::string key = layerName(s.layer);
        if (s.layer == Layer::Run) {
            const Facts &f = *factsOf.at(s.request);
            key += std::string(".") + kindKey(f.kind);
            (f.backend == usfq::Backend::PulseLevel ? pulseRunS : funcRunS) +=
                static_cast<double>(s.durNs) * 1e-9;
        }
        selfUs[key] += static_cast<double>(self) * 1e-3;
    }

    double pulseEpochs = 0.0, funcEpochs = 0.0;
    double balances = 0.0, iterations = 0.0, insertedJJ = 0.0;
    for (const Facts &f : r.facts) {
        (f.backend == usfq::Backend::PulseLevel ? pulseEpochs : funcEpochs) +=
            static_cast<double>(f.epochs);
        if (f.kind == WorkloadKind::Gen && f.ok) {
            balances += 1.0;
            iterations += f.balanceIterations;
            insertedJJ += f.insertedJJ;
        }
    }

    const double n = std::max<double>(1.0, static_cast<double>(r.facts.size()));
    const auto perRequest = [&](const std::string &layer) {
        const auto it = selfUs.find(layer);
        return it == selfUs.end() ? 0.0 : it->second / n;
    };
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    std::vector<LayerMetric> m = {
        {"svc.cache_lookup_us", perRequest("svc.cache_lookup"), "us"},
        {"svc.cache_insert_us", perRequest("svc.cache_insert"), "us"},
        {"api.build_us", perRequest("api.build"), "us"},
        {"api.elaborate_us", perRequest("api.elaborate"), "us"},
        {"api.hash_us", perRequest("api.hash"), "us"},
        {"api.serialize_us", perRequest("api.serialize"), "us"},
    };
    for (const char *kind : {"dpu", "pe", "fir", "inverter", "noc", "gen"})
        m.push_back({std::string("api.run_us.") + kind,
                     perRequest(std::string("api.run.") + kind), "us"});
    m.push_back({"gen.balance_us", perRequest("gen.balance"), "us"});
    m.push_back(
        {"gen.balance_iterations", ratio(iterations, balances), "count"});
    m.push_back({"gen.inserted_jj", ratio(insertedJJ, balances), "JJ"});
    m.push_back({"sta.analyze_us", perRequest("sta.analyze"), "us"});
    m.push_back({"sim.epochs_per_s", ratio(pulseEpochs, pulseRunS), "1/s"});
    m.push_back(
        {"func.lane_epochs_per_s", ratio(funcEpochs, funcRunS), "1/s"});
    return m;
}

} // namespace svcbench
