#include "reference.hh"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace svcbench::ref
{

std::vector<bool>
streamSlots(int n, int slots)
{
    std::vector<bool> fired(static_cast<std::size_t>(slots), false);
    for (int i = 0; i < slots; ++i) {
        const std::int64_t before = std::int64_t{i} * n / slots;
        const std::int64_t after = std::int64_t{i + 1} * n / slots;
        fired[static_cast<std::size_t>(i)] = after > before;
    }
    return fired;
}

int
unipolarProduct(int n, int id, int slots)
{
    // The Euclidean prefix of length id holds floor(id * n / N)
    // pulses: the per-slot increments telescope.
    return static_cast<int>(std::int64_t{id} * n / slots);
}

int
bipolarProduct(int n, int id, int slots)
{
    // A and B: stream pulses before the RL boundary.  Not A and not B:
    // the slots at or after the boundary minus the stream pulses there.
    const int both = unipolarProduct(n, id, slots);
    const int neither = (slots - id) - (n - both);
    return both + neither;
}

int
treeCount(std::vector<int> counts)
{
    if (counts.empty() || (counts.size() & (counts.size() - 1)) != 0)
        throw std::invalid_argument("treeCount: need 2^k inputs");
    while (counts.size() > 1) {
        for (std::size_t i = 0; i < counts.size() / 2; ++i)
            counts[i] = (counts[2 * i] + counts[2 * i + 1] + 1) / 2;
        counts.resize(counts.size() / 2);
    }
    return counts.front();
}

int
dpuCount(bool bipolar, const std::vector<int> &streams,
         const std::vector<int> &ids, int slots)
{
    std::size_t width = 2;
    while (width < streams.size())
        width *= 2;
    std::vector<int> products(width, 0);
    for (std::size_t i = 0; i < streams.size(); ++i)
        products[i] = bipolar ? bipolarProduct(streams[i], ids[i], slots)
                              : unipolarProduct(streams[i], ids[i], slots);
    return treeCount(std::move(products));
}

int
peSlot(int in1Id, int in2Count, int in3Count, int slots)
{
    const int product = unipolarProduct(in2Count, in1Id, slots);
    return std::min(treeCount({product, in3Count}), slots);
}

namespace
{

/** Slot-walk forms of the two products (the closed forms' oracle). */
int
walkUnipolar(int n, int id, int slots)
{
    const std::vector<bool> a = streamSlots(n, slots);
    return static_cast<int>(std::count(a.begin(), a.begin() + id, true));
}

int
walkBipolar(int n, int id, int slots)
{
    const std::vector<bool> a = streamSlots(n, slots);
    int count = 0;
    for (int i = 0; i < slots; ++i) {
        const bool b = i < id; // RL operand: high until its arrival
        count += a[static_cast<std::size_t>(i)] == b ? 1 : 0;
    }
    return count;
}

void
expect(std::vector<std::string> &failures, const std::string &what,
       int got, int want)
{
    if (got != want)
        failures.push_back(what + ": got " + std::to_string(got) +
                           ", want " + std::to_string(want));
}

} // namespace

std::vector<std::string>
selfTest()
{
    std::vector<std::string> failures;

    // Fig. 3b, first example: N = 8, stream 0.5 (slots 1,3,5,7) gated
    // by an RL pulse at 0.25 (boundary 2) passes only slot 1.
    expect(failures, "fig3b N=8 0.5*0.25", unipolarProduct(4, 2, 8), 1);
    // Fig. 3b, second example: N = 16, 0.75 * 0.5 = 6/16.
    expect(failures, "fig3b N=16 0.75*0.5", unipolarProduct(12, 8, 16),
           6);

    // Bipolar, N = 8: A = +0.5 (n = 6, slots 1,2,3,5,6,7), B = -0.5
    // (RL boundary 2, high on slots 0,1).  A&B = {1}; !A = {0,4} and
    // !B = {2..7}, so !A&!B = {4}: two pulses.
    expect(failures, "bipolar N=8 n=6 id=2", bipolarProduct(6, 2, 8), 2);
    // Sign table of the XNOR product at the range ends.
    expect(failures, "bipolar (+1)(+1)", bipolarProduct(8, 8, 8), 8);
    expect(failures, "bipolar (-1)(-1)", bipolarProduct(0, 0, 8), 8);
    expect(failures, "bipolar (-1)(+1)", bipolarProduct(0, 8, 8), 0);
    expect(failures, "bipolar (+1)(-1)", bipolarProduct(8, 0, 8), 0);

    // Balancer halving with ceiling (Fig. 6d): the Y1 chain takes the
    // first pulse of every pair.
    expect(failures, "tree {5,4}", treeCount({5, 4}), 5);
    expect(failures, "tree {4,4}", treeCount({4, 4}), 4);
    expect(failures, "tree {3,0,5,2}", treeCount({3, 0, 5, 2}), 3);

    // Two-tap unipolar DPU, N = 8: 4 pulses below boundary 2 -> 1,
    // 6 pulses below boundary 4 -> 3, one balancer -> ceil(4/2) = 2.
    expect(failures, "dpu 2 taps", dpuCount(false, {4, 6}, {2, 4}, 8), 2);
    // Three taps pad to four with an empty input: {8,8,8,0} -> 6.
    expect(failures, "dpu 3 taps padded",
           dpuCount(false, {8, 8, 8}, {8, 8, 8}, 8), 6);

    // PE, N = 8: in1 = 0.5 gates in2 = 0.75 -> 3 pulses, averaged with
    // in3 = 5 -> ceil(8/2) = slot 4, i.e. (0.375 + 0.625) / 2.
    expect(failures, "pe 0.5*0.75 (+) 0.625", peSlot(4, 6, 5, 8), 4);
    expect(failures, "pe full scale", peSlot(8, 8, 8, 8), 8);

    // Closed forms against the slot walk over every operand pair.
    for (int slots = 2; slots <= 64; slots *= 2)
        for (int n = 0; n <= slots; ++n)
            for (int id = 0; id <= slots; ++id) {
                const std::string at = " N=" + std::to_string(slots) +
                                       " n=" + std::to_string(n) +
                                       " id=" + std::to_string(id);
                expect(failures, "unipolar walk" + at,
                       unipolarProduct(n, id, slots),
                       walkUnipolar(n, id, slots));
                expect(failures, "bipolar walk" + at,
                       bipolarProduct(n, id, slots),
                       walkBipolar(n, id, slots));
            }
    return failures;
}

} // namespace svcbench::ref
