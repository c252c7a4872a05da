#include "workloads.hh"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "gen/spec.hh"
#include "sim/sweep.hh"
#include "util/random.hh"

namespace svcbench
{

using usfq::DpuMode;
using usfq::api::WorkloadKind;
using usfq::svc::Request;
using usfq::svc::RequestIntent;

namespace
{

// Seed domains: every derived stream gets its own, so warm-up
// requests never share a cache line with timed ones.
enum Domain : std::uint64_t
{
    kOrder = 1,
    kTemplateSeed,
    kRequestSeed,
    kWarmSeed,
    kDesign,
    kWarmDesign,
};

std::uint64_t
mix(std::uint64_t seed, Domain domain, std::uint64_t i)
{
    return usfq::shardSeed(usfq::shardSeed(seed, domain), i);
}

/**
 * Rounds of warm-up per set-up: enough requests that set-up time is
 * their sum over four workers rather than the one slowest request.
 */
constexpr int kWarmRounds = 8;

Request
base(WorkloadKind kind, const std::string &name, int epochs, int batch,
     RequestIntent intent)
{
    Request r;
    r.spec.kind = kind;
    r.spec.name = name;
    r.params.epochs = epochs;
    r.params.batch = batch;
    r.params.threads = 1; // every request runs on one sweep thread
    r.intent = intent;
    return r;
}

Request
dpu(const std::string &name, int taps, int bits, DpuMode mode, int epochs,
    int batch, RequestIntent intent)
{
    Request r = base(WorkloadKind::Dpu, name, epochs, batch, intent);
    r.spec.taps = taps;
    r.spec.bits = bits;
    r.spec.mode = mode;
    return r;
}

Request
pe(const std::string &name, int bits, int epochs, int batch,
   RequestIntent intent)
{
    Request r = base(WorkloadKind::Pe, name, epochs, batch, intent);
    r.spec.bits = bits;
    return r;
}

Request
fir(const std::string &name, int taps, int bits, DpuMode mode, int epochs,
    int batch, RequestIntent intent)
{
    Request r = base(WorkloadKind::Fir, name, epochs, batch, intent);
    r.spec.taps = taps;
    r.spec.bits = bits;
    r.spec.mode = mode;
    return r;
}

Request
mesh(const std::string &name, int rows, int cols, int taps, int bits,
     int epochs, int batch, RequestIntent intent)
{
    Request r = base(WorkloadKind::NocMesh, name, epochs, batch, intent);
    r.spec.gridRows = rows;
    r.spec.gridCols = cols;
    r.spec.taps = taps;
    r.spec.bits = bits;
    return r;
}

Request
datapath(const std::string &name, int lanes, int bits, int periodPs,
         usfq::gen::TreeKind tree, int epochs, int batch,
         RequestIntent intent)
{
    Request r = base(WorkloadKind::Gen, name, epochs, batch, intent);
    r.spec.gen.lanes = lanes;
    r.spec.gen.bits = bits;
    r.spec.gen.clockPeriodPs = periodPs;
    r.spec.gen.tree = tree;
    r.spec.gen.shape = usfq::gen::LaneShape::Skewed;
    return r;
}

Request
inverter(const std::string &name, double periodPs, int count,
         RequestIntent intent)
{
    Request r = base(WorkloadKind::Inverter, name, 1, 1, intent);
    r.spec.clockPeriodPs = periodPs;
    r.spec.clockCount = count;
    return r;
}

/** Seeded order of the requests inside round @p round. */
std::vector<std::size_t>
roundOrder(std::uint64_t seed, std::uint64_t round, std::size_t size)
{
    std::vector<std::size_t> order(size);
    std::iota(order.begin(), order.end(), std::size_t{0});
    usfq::Rng rng(mix(seed, kOrder, round));
    for (std::size_t i = size; i > 1; --i)
        std::swap(order[i - 1],
                  order[static_cast<std::size_t>(rng.uniformInt(
                      0, static_cast<std::int64_t>(i) - 1))]);
    return order;
}

/**
 * A round-robin over @p mix in seeded order, fresh seed per ticket --
 * except the entries named in @p knownFaults, which keep their own
 * fixed seeds.
 */
Workload
freshSeedMix(std::uint64_t seed, std::vector<Request> mix_,
             std::size_t cacheCapacity,
             std::vector<std::size_t> knownFaults = {})
{
    const auto isFault = [knownFaults](std::size_t j) {
        return std::find(knownFaults.begin(), knownFaults.end(), j) !=
               knownFaults.end();
    };
    Workload w;
    w.roundSize = mix_.size();
    w.cacheCapacity = cacheCapacity;
    for (std::size_t j = 0; j < kWarmRounds * mix_.size(); ++j) {
        Request r = mix_[j % mix_.size()];
        if (!isFault(j % mix_.size()))
            r.params.seed = mix(seed, kWarmSeed, j);
        w.warm.push_back(std::move(r));
    }
    const auto entry = [seed, size = mix_.size()](std::uint64_t t) {
        return roundOrder(seed, t / size, size)[t % size];
    };
    if (!knownFaults.empty())
        w.knownFault = [entry, isFault](std::uint64_t t) {
            return isFault(entry(t));
        };
    w.at = [seed, entry, isFault, mix_ = std::move(mix_)](std::uint64_t t) {
        const std::size_t j = entry(t);
        Request r = mix_[j];
        if (!isFault(j))
            r.params.seed = mix(seed, kRequestSeed, t);
        return r;
    };
    return w;
}

// serve_hot: the usfq_serve mix -- all six kinds, both intents, a batch
// twin that shares its cache line and a seed twin that does not.  The
// seed twin is a gen datapath here, not usfq_serve's DPU: a gen hit
// appends 11 PhaseLog spans where other hits append 2, which keeps the
// log's growth over a run between two of its vector doublings
// (README.md, "Faults the workloads expose").  The
// pulse-level FIR audit of usfq_serve is swapped for a DPU audit: at a
// seeded draw its counts leave the documented bound on some seeds
// (README.md, "Known faults"); audit_pulse keeps it at a fixed seed.
Workload
serveHot(std::uint64_t seed)
{
    constexpr auto kThr = RequestIntent::Throughput;
    constexpr auto kAudit = RequestIntent::Audit;
    using usfq::gen::TreeKind;
    std::vector<Request> t = {
        dpu("dpu16", 16, 6, DpuMode::Bipolar, 32, 1, kThr),
        dpu("dpu16", 16, 6, DpuMode::Bipolar, 32, 8, kThr),
        dpu("dpu8u", 8, 5, DpuMode::Unipolar, 24, 1, kThr),
        pe("pe5", 5, 24, 1, kThr),
        fir("fir4", 4, 6, DpuMode::Unipolar, 24, 4, kThr),
        inverter("inv111", 12.0, 64, RequestIntent::Default),
        mesh("mesh4x4", 4, 4, 2, 4, 8, 4, kThr),
        datapath("gen8x5", 8, 5, 20, TreeKind::Merger, 16, 4, kThr),
        datapath("gen8x5", 8, 5, 20, TreeKind::Merger, 16, 4, kThr),
        dpu("dpu4a", 4, 4, DpuMode::Bipolar, 4, 1, kAudit),
        pe("pe4a", 4, 3, 1, kAudit),
        dpu("dpu16ua", 16, 5, DpuMode::Unipolar, 4, 1, kAudit),
        inverter("inv111", 12.0, 64, kAudit),
        datapath("gen4x4a", 4, 4, 24, TreeKind::Balancer, 4, 1, kAudit),
        mesh("mesh2x2a", 2, 2, 2, 4, 2, 1, kAudit),
    };
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i].params.seed = mix(seed, kTemplateSeed, i);
    t[1].params.seed = t[0].params.seed; // batch twin: same cache line

    Workload w;
    w.roundSize = t.size();
    w.cacheCapacity = 64;
    w.maxRatePerS = 80000;
    w.allHits = true;
    // Hits are short, so serve_hot warms with more rounds than the miss
    // workloads to give its set-up a comparable length.
    for (int round = 0; round < 4 * kWarmRounds; ++round)
        w.warm.insert(w.warm.end(), t.begin(), t.end());
    w.at = [seed, t = std::move(t)](std::uint64_t ticket) {
        const std::size_t size = t.size();
        return t[roundOrder(seed, ticket / size, size)[ticket % size]];
    };
    return w;
}

// serve_cold: functional-engine throughput requests, hundreds to
// thousands of epochs, batch widths 1..64; every ticket a fresh seed.
Workload
serveCold(std::uint64_t seed)
{
    constexpr auto kThr = RequestIntent::Throughput;
    using usfq::gen::TreeKind;
    return freshSeedMix(
        seed,
        {
            dpu("dpu16b", 16, 8, DpuMode::Bipolar, 1024, 64, kThr),
            dpu("dpu64u", 64, 6, DpuMode::Unipolar, 256, 16, kThr),
            dpu("dpu8b", 8, 4, DpuMode::Bipolar, 512, 1, kThr),
            pe("pe8", 8, 2048, 64, kThr),
            pe("pe5", 5, 256, 1, kThr),
            fir("fir8u", 8, 8, DpuMode::Unipolar, 1024, 32, kThr),
            fir("fir16b", 16, 6, DpuMode::Bipolar, 256, 4, kThr),
            mesh("mesh4x4", 4, 4, 2, 4, 256, 16, kThr),
            mesh("mesh2x2", 2, 2, 4, 5, 128, 1, kThr),
            datapath("gen8m", 8, 5, 20, TreeKind::Merger, 1024, 64, kThr),
            datapath("gen16b", 16, 6, 24, TreeKind::Balancer, 256, 8,
                     kThr),
        },
        8);
}

// audit_pulse: pulse-level requests of every kind the event kernel
// runs; every ticket a fresh seed, except the two known faults, whose
// seeds are fixed (README.md, "Known faults"): a 16-tap bipolar DPU
// whose counts disagree with the functional engine and the reference
// arithmetic, and a 3-tap FIR whose window reaches full scale twice.
Workload
auditPulse(std::uint64_t seed)
{
    constexpr auto kAudit = RequestIntent::Audit;
    using usfq::gen::TreeKind;
    Request dpuFault = dpu("dpu16b", 16, 6, DpuMode::Bipolar, 8, 1, kAudit);
    dpuFault.params.seed = 0x5eedULL;
    Request firFault = fir("fir3u", 3, 5, DpuMode::Unipolar, 8, 1, kAudit);
    firFault.params.seed = 0x22b7936dcf461dd5ULL; // epoch 4: 1 pulse, not 4
    return freshSeedMix(
        seed,
        {
            dpuFault,
            firFault,
            dpu("dpu64b", 64, 6, DpuMode::Bipolar, 2, 1, kAudit),
            dpu("dpu16u", 16, 5, DpuMode::Unipolar, 8, 1, kAudit),
            dpu("dpu4b", 4, 4, DpuMode::Bipolar, 16, 1, kAudit),
            pe("pe5", 5, 16, 1, kAudit),
            pe("pe7", 7, 8, 1, kAudit),
            mesh("mesh2x2", 2, 2, 2, 4, 2, 1, kAudit),
            mesh("mesh3x3", 3, 3, 2, 4, 2, 1, kAudit),
            mesh("mesh4x4", 4, 4, 2, 4, 1, 1, kAudit),
            datapath("gen4b", 4, 4, 24, TreeKind::Balancer, 4, 1, kAudit),
            datapath("gen8m", 8, 5, 20, TreeKind::Merger, 4, 1, kAudit),
            inverter("inv12", 12.0, 64, kAudit),
            inverter("inv9", 9.0, 256, kAudit),
        },
        8, {0, 1});
}

Request
designRequest(std::uint64_t designSeed, std::uint64_t runSeed)
{
    usfq::Rng rng(designSeed);
    Request r = base(WorkloadKind::Gen, "design", 1, 1,
                     RequestIntent::Throughput);
    r.spec.gen = usfq::gen::randomDesignSpec(rng);
    r.params.seed = runSeed;
    return r;
}

// compile_sweep: a distinct generated design per ticket, one
// functional epoch each -- the balancer is the request.
Workload
compileSweep(std::uint64_t seed)
{
    Workload w;
    w.roundSize = 16;
    w.cacheCapacity = 8;
    // The warm designs do not depend on the seed, so neither does the
    // set-up work (design sizes vary widely); their run seeds do.
    for (std::uint64_t j = 0; j < kWarmRounds * w.roundSize; ++j)
        w.warm.push_back(designRequest(mix(0, kWarmDesign, j),
                                       mix(seed, kWarmSeed, j)));
    w.at = [seed](std::uint64_t t) {
        return designRequest(mix(seed, kDesign, t),
                             mix(seed, kRequestSeed, t));
    };
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "serve_hot", "serve_cold", "audit_pulse", "compile_sweep"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "serve_hot")
        return serveHot(seed);
    if (name == "serve_cold")
        return serveCold(seed);
    if (name == "audit_pulse")
        return auditPulse(seed);
    if (name == "compile_sweep")
        return compileSweep(seed);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace svcbench
