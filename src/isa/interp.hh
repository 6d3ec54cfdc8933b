/**
 * @file
 * Functional reference interpreter for MRL-64.
 *
 * Executes macro instructions directly (no timing, no speculation).  It is
 * the semantic oracle: workload outputs are validated against C++
 * reference implementations through it, and the out-of-order core is
 * differentially tested against it.
 */

#ifndef MERLIN_ISA_INTERP_HH
#define MERLIN_ISA_INTERP_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/memory.hh"
#include "isa/program.hh"
#include "isa/traps.hh"

namespace merlin::isa
{

/** Architectural outcome of a run (identical fields for interp and core). */
struct ArchResult
{
    TerminateReason reason = TerminateReason::Halted;
    int exitCode = 0;
    std::vector<std::uint8_t> output;
    std::vector<TrapEvent> traps;
    std::uint64_t instret = 0;   ///< committed macro instructions
    std::uint64_t uopsRetired = 0;

    /** Architectural equivalence (used by the outcome classifier). */
    bool
    sameArchOutcome(const ArchResult &o) const
    {
        return reason == o.reason && exitCode == o.exitCode &&
               output == o.output && traps == o.traps;
    }

    /** Exact equality, all fields. */
    bool operator==(const ArchResult &) const = default;

    /**
     * Every field equal, the output in length only: the reconvergence
     * diff (uarch::Core::diff) carries differing output bytes in its
     * delta.  Keep in step with the fields above.
     */
    bool
    sameUpToOutputBytes(const ArchResult &o) const
    {
        return reason == o.reason && exitCode == o.exitCode &&
               output.size() == o.output.size() && traps == o.traps &&
               instret == o.instret && uopsRetired == o.uopsRetired;
    }
};

/** Functional interpreter state + driver. */
class Interpreter
{
  public:
    explicit Interpreter(const Program &prog);

    /** Run until HALT, trap, or @p max_instr retired. */
    ArchResult run(std::uint64_t max_instr = 500'000'000);

    /** Single-step one macro instruction; false when the run ended. */
    bool step();

    const ArchResult &result() const { return result_; }
    std::uint64_t reg(unsigned idx) const { return regs_[idx]; }
    void setReg(unsigned idx, std::uint64_t v) { regs_[idx] = v; }
    Addr pc() const { return pc_; }
    SegmentedMemory &memory() { return mem_; }

  private:
    void raiseTrap(TrapKind kind);

    SegmentedMemory mem_;
    std::array<std::uint64_t, NUM_ARCH_REGS> regs_{};
    Addr pc_;
    bool done_ = false;
    ArchResult result_;
};

/** Convenience: assemble-free full run of a program. */
ArchResult interpret(const Program &prog,
                     std::uint64_t max_instr = 500'000'000);

} // namespace merlin::isa

#endif // MERLIN_ISA_INTERP_HH
