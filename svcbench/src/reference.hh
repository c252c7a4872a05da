/**
 * @file
 * Reference arithmetic of the U-SFQ blocks, written apart from
 * core/encoding.cc so the benchmark's DPU and PE checks do not grade
 * the engines against their own counting model.
 *
 * Every function takes the epoch's slot count N = 2^bits directly.
 * The closed forms are cross-checked inside selfTest() against a
 * slot-by-slot walk of the Euclidean stream layout and against
 * examples worked by hand from the paper's figures.
 */

#ifndef USFQ_SVCBENCH_REFERENCE_HH
#define USFQ_SVCBENCH_REFERENCE_HH

#include <string>
#include <vector>

namespace svcbench::ref
{

/**
 * Euclidean layout of an n-pulse stream on an N-slot grid: slot i
 * holds a pulse iff floor((i+1)n/N) > floor(i n/N).  One flag per slot.
 */
std::vector<bool> streamSlots(int n, int slots);

/**
 * Unipolar product (paper §4.1): the stream pulses an NDRO passes
 * before the race-logic pulse arriving at slot boundary @p id,
 * floor(id * n / N).
 */
int unipolarProduct(int n, int id, int slots);

/**
 * Bipolar product: |A and B| + |not A and not B| over the N slots,
 * with A the stream and B the race-logic operand (slots below @p id).
 */
int bipolarProduct(int n, int id, int slots);

/**
 * Balancer counting tree over a power-of-two number of input counts:
 * each level halves a pair's sum, taking the ceiling.
 */
int treeCount(std::vector<int> counts);

/**
 * Dot-product unit output count: per-element products (unipolar or
 * bipolar) padded with zero counts to a power of two (at least two),
 * reduced by treeCount().
 */
int dpuCount(bool bipolar, const std::vector<int> &streams,
             const std::vector<int> &ids, int slots);

/**
 * Processing-element result slot: the unipolar product of in2 gated
 * by the race-logic in1, averaged with in3 by one balancer, clamped to
 * the integrator's N ceiling.
 */
int peSlot(int in1Id, int in2Count, int in3Count, int slots);

/**
 * Check the closed forms against slot walks and hand-worked examples.
 * Returns one line per failed case (empty when every case holds).
 */
std::vector<std::string> selfTest();

} // namespace svcbench::ref

#endif // USFQ_SVCBENCH_REFERENCE_HH
