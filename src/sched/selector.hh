/**
 * @file
 * Deterministic suite partitioning for distributed runs.
 *
 * A SpecSelector names one worker's share of a suite: "--select i/n"
 * keeps every spec whose manifest position is congruent to i mod n
 * (round-robin).  For a fixed n, the selections 0/n .. n-1/n are
 * disjoint and complete, so the per-worker result stores merge back
 * into exactly the single-host store (`merlin_cli store merge`).
 */

#ifndef MERLIN_SCHED_SELECTOR_HH
#define MERLIN_SCHED_SELECTOR_HH

#include <cstdint>
#include <string>

namespace merlin::sched
{

struct SpecSelector
{
    std::uint64_t index = 0;
    std::uint64_t count = 1;

    /**
     * Parse "i/n".  fatal() on anything that is not two strict
     * unsigned integers joined by one '/', on n == 0, and on i >= n —
     * an out-of-range worker would silently run nothing.
     */
    static SpecSelector parse(const std::string &text);

    /** "0/3" — for reports and diagnostics. */
    std::string describe() const;
};

} // namespace merlin::sched

#endif // MERLIN_SCHED_SELECTOR_HH
