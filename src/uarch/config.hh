/**
 * @file
 * Microarchitecture configuration (the paper's Table 1).
 *
 * Defaults model the evaluated out-of-order x86-class machine: 256-entry
 * physical integer register file, 32-entry issue queue, 100-entry ROB,
 * 64+64 load/store queue, 6 simple + 2 complex integer units, 2 memory
 * ports, 32KB L1I, 64KB L1D, 1MB L2, tournament predictor with a 4K-entry
 * direct-mapped BTB.
 */

#ifndef MERLIN_UARCH_CONFIG_HH
#define MERLIN_UARCH_CONFIG_HH

#include <cstdint>
#include <string>

#include "isa/isa.hh"

namespace merlin::uarch
{

/**
 * Width of the entry field of a packed fault key (faultsim::faultKey):
 * it bounds the L1D sizes validL1dKb() accepts.
 */
inline constexpr unsigned kFaultEntryBits = 18;

/** Geometry and timing of one cache level. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t ways = 4;
    std::uint32_t lineSize = 64;
    std::uint32_t hitLatency = 3;

    std::uint32_t
    numSets() const
    {
        return sizeBytes / (ways * lineSize);
    }
    std::uint32_t
    wordsPerLine() const
    {
        return lineSize / 8;
    }
    /** Number of 8-byte words in the data array (MeRLiN entries). */
    std::uint32_t
    totalWords() const
    {
        return sizeBytes / 8;
    }
    /** A geometry the cache model can build: at least one set, lines
     *  of whole 8-byte words. */
    bool
    validGeometry() const
    {
        return ways > 0 && lineSize > 0 && numSets() > 0 &&
               lineSize % 8 == 0;
    }
};

/** Full core configuration. */
struct CoreConfig
{
    // Storage structures (the paper's fault-injection targets).
    unsigned numPhysIntRegs = 256;
    unsigned sqEntries = 64;
    unsigned lqEntries = 64;

    // Window.
    unsigned robEntries = 100;
    unsigned iqEntries = 32;

    // Widths.
    unsigned fetchWidth = 4;
    unsigned renameWidth = 4;
    unsigned issueWidth = 8;
    unsigned commitWidth = 4;

    // Functional units.
    unsigned intAluCount = 6;
    unsigned complexCount = 2; ///< mul/div units
    unsigned memPorts = 2;

    // Latencies (cycles).
    unsigned aluLatency = 1;
    unsigned mulLatency = 3;
    unsigned divLatency = 20;
    unsigned forwardLatency = 2;  ///< store-to-load forward
    unsigned frontendDepth = 3;   ///< fetch-to-rename delay
    unsigned redirectPenalty = 2; ///< squash-to-refetch delay
    unsigned memLatency = 80;     ///< DRAM access beyond L2

    CacheConfig l1i{32 * 1024, 4, 64, 1};
    CacheConfig l1d{64 * 1024, 4, 64, 3};
    CacheConfig l2{1024 * 1024, 16, 64, 12};

    // Branch prediction.
    unsigned localPredictorEntries = 2048;
    unsigned globalPredictorEntries = 4096;
    unsigned chooserEntries = 4096;
    unsigned btbEntries = 4096;
    unsigned rasEntries = 16;

    // Watchdogs.
    std::uint64_t maxCycles = 2'000'000'000ULL;
    std::uint64_t deadlockCycles = 20'000;

    /** Stop committing after this many macro instructions (0 = off). */
    std::uint64_t instructionWindowEnd = 0;

    /**
     * Register-file sizes the core can rename with: more physical than
     * renameable architectural registers, and every index below the
     * 16-bit "no register" tag.
     */
    static constexpr bool
    validPhysIntRegs(std::uint64_t n)
    {
        return n > isa::NUM_RENAMEABLE_REGS && n <= 0xffff;
    }
    /** Store-queue sizes the core can slot stores into. */
    static constexpr bool
    validSqEntries(std::uint64_t n)
    {
        return n > 0;
    }
    /** L1D sizes (KB) the cache model can build at the default
     *  associativity and line size, with every 8-byte word nameable by
     *  a fault key (at most 2 MB). */
    static bool
    validL1dKb(std::uint64_t kb)
    {
        return kb <= (8ULL << kFaultEntryBits) / 1024 &&
               CoreConfig{}.withL1dKb(static_cast<unsigned>(kb))
                   .l1d.validGeometry();
    }

    // Fluent size variants used throughout the evaluation.
    CoreConfig
    withRegisterFile(unsigned regs) const
    {
        CoreConfig c = *this;
        c.numPhysIntRegs = regs;
        return c;
    }
    CoreConfig
    withStoreQueue(unsigned entries) const
    {
        CoreConfig c = *this;
        c.sqEntries = entries;
        c.lqEntries = entries;
        return c;
    }
    CoreConfig
    withL1dKb(unsigned kb) const
    {
        CoreConfig c = *this;
        c.l1d.sizeBytes = kb * 1024;
        return c;
    }

    /** One-line summary for bench headers. */
    std::string summary() const;
};

} // namespace merlin::uarch

#endif // MERLIN_UARCH_CONFIG_HH
