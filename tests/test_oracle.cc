/**
 * @file
 * Differential oracle for the injection engine.
 *
 * Both engine settings of faultsim::InjectionRunner — the plain run
 * (checkpointInterval 0) and the checkpointed one, whose reconvergence
 * step decides a run or resumes it at the next read of its corrupted
 * bytes, at the flip and at every checkpoint past it, and whose empty
 * diffs end runs early — are checked against a reference injector
 * that shares only uarch::Core and InjectionRunner::classify with it:
 * a fresh core at cycle 0, the bit flipped at the fault cycle, a run
 * under the paper's timeout budget, then classification.
 *
 * The fault space is exhaustive in (structure, entry, byte) on a
 * shrunk machine (48 registers, a 4-entry SQ, a 1 KB L1D) running
 * small random programs, with a checkpoint every 16 cycles so that
 * resumes happen inside runs of ~1,000 cycles.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/threadpool.hh"
#include "faultsim/runner.hh"
#include "masm/asm.hh"
#include "profile/ace.hh"
#include "workloads/random_program.hh"

namespace merlin::faultsim
{
namespace
{

using uarch::Structure;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/** Golden record and injector that use nothing of the engine's
 *  checkpoints, traces or reconvergence. */
class ReferenceInjector
{
  public:
    ReferenceInjector(const isa::Program &prog, const uarch::CoreConfig &cfg)
        : prog_(prog), cfg_(cfg),
          ace_(cfg.numPhysIntRegs, cfg.sqEntries, cfg.l1d.totalWords())
    {
        uarch::Core core(prog_, cfg_, &ace_);
        golden_.arch = core.run();
        golden_.stats = core.stats();
        ace_.finalize();
    }

    const GoldenRun &golden() const { return golden_; }

    /** No vulnerable interval covers @p f: MeRLiN prunes it Masked. */
    bool
    acePruned(const Fault &f) const
    {
        return ace_.profile(f.structure).find(f.entry, f.cycle) == nullptr;
    }

    Outcome
    inject(const Fault &f) const
    {
        uarch::CoreConfig cfg = cfg_;
        cfg.maxCycles = InjectionRunner::timeoutBudget(
            golden_.stats.cycles, RunnerOptions::kDefaultTimeoutFactor);
        uarch::Core core(prog_, cfg);
        try {
            while (core.cycle() < f.cycle && core.tick()) {
            }
            if (!core.finished())
                core.flipBit(f.structure, f.entry, f.bit);
            core.run();
        } catch (const SimAssertError &) {
            return Outcome::Assert;
        } catch (const std::exception &) {
            return Outcome::Crash;
        }
        return InjectionRunner::classify(core.result(), core, golden_);
    }

  private:
    const isa::Program &prog_;
    uarch::CoreConfig cfg_;
    profile::AceProfiler ace_;
    GoldenRun golden_;
};

/** Every (entry, byte) of @p s at every @p stride-th cycle, one bit
 *  per byte, the bit walking through the byte with entry and cycle.
 *  One list per structure: a fault key names no structure. */
std::vector<Fault>
enumerateFaults(Structure s, const uarch::CoreConfig &cfg,
                Cycle golden_cycles, Cycle stride)
{
    std::vector<Fault> faults;
    const unsigned entries = uarch::structureEntries(s, cfg);
    for (Cycle c = 1; c < golden_cycles; c += stride) {
        for (EntryIndex e = 0; e < entries; ++e) {
            for (unsigned byte = 0; byte < 8; ++byte) {
                Fault f;
                f.structure = s;
                f.entry = e;
                f.bit = static_cast<std::uint8_t>(8 * byte +
                                                  (e + c / stride) % 8);
                f.cycle = c;
                faults.push_back(f);
            }
        }
    }
    return faults;
}

std::string
describe(const Fault &f)
{
    return std::string(uarch::structureName(f.structure)) + " entry " +
           std::to_string(f.entry) + " bit " + std::to_string(f.bit) +
           " cycle " + std::to_string(f.cycle);
}

/**
 * Run @p faults through InjectionRunner under every engine setting
 * (checkpoint interval {16, 0} x jobs {1, 4}) and compare with
 * @p want; the reconvergence counters of the checkpointed setting go
 * to @p total.
 */
void
compareEngines(const isa::Program &prog, const uarch::CoreConfig &cfg,
               const std::vector<Fault> &faults,
               const std::vector<Outcome> &want, unsigned seed,
               InjectionStats &total)
{
    for (const Cycle interval : {16u, 0u}) {
        RunnerOptions opts;
        opts.checkpointInterval = interval;
        for (const unsigned jobs : {1u, 4u}) {
            InjectionRunner runner(prog, cfg, opts);
            const GoldenRun g = runner.golden();
            base::ThreadPool pool(jobs);
            base::TaskGroup group(pool);
            const std::vector<Outcome> got =
                runner.injectBatch(faults, g, group);
            ASSERT_EQ(got.size(), want.size());
            unsigned shown = 0;
            for (std::size_t i = 0; i < got.size(); ++i) {
                if (got[i] != want[i] && shown++ < 5) {
                    ADD_FAILURE()
                        << "seed " << seed << " interval " << interval
                        << " jobs " << jobs << ": " << describe(faults[i])
                        << " engine " << outcomeName(got[i])
                        << ", reference " << outcomeName(want[i]);
                }
            }
            const InjectionStats st = runner.injectionStats();
            if (interval == 0) {
                EXPECT_EQ(st.replayMasked + st.earlyExits +
                              st.deltaResumes + st.deltaDecided,
                          0u);
                continue;
            }
            total.replayMasked += st.replayMasked;
            total.deltaResumes += st.deltaResumes;
            total.deltaDecided += st.deltaDecided;
            total.deltaCyclesSkipped += st.deltaCyclesSkipped;
        }
    }
}

TEST(Oracle, EveryEngineSettingMatchesTheReferenceInjector)
{
    // Under a sanitizer the core runs several times slower: one
    // program and a coarser cycle stride keep the same code paths.
    const unsigned programs = kSanitized ? 1 : 3;
    const Cycle stride = kSanitized ? 199 : 67;

    const uarch::CoreConfig cfg = uarch::CoreConfig{}
                                      .withRegisterFile(48)
                                      .withStoreQueue(4)
                                      .withL1dKb(1);
    workloads::RandomProgramOptions gen;
    gen.loops = 2;
    gen.loopIterations = 6;
    gen.bodyOps = 10;

    InjectionStats total;
    std::uint64_t pruned = 0;
    for (unsigned seed = 1; seed <= programs; ++seed) {
        const isa::Program prog = masm::assemble(
            workloads::generateRandomProgram(seed, gen),
            "oracle" + std::to_string(seed));
        const ReferenceInjector ref(prog, cfg);
        ASSERT_EQ(ref.golden().arch.reason, isa::TerminateReason::Halted);
        for (Structure s : {Structure::RegisterFile, Structure::StoreQueue,
                            Structure::L1DCache}) {
            const std::vector<Fault> faults =
                enumerateFaults(s, cfg, ref.golden().stats.cycles, stride);
            std::vector<Outcome> want;
            want.reserve(faults.size());
            for (const Fault &f : faults) {
                want.push_back(ref.inject(f));
                // The ACE analysis is sound: a fault outside every
                // vulnerable interval can change nothing the program
                // observes.  No exception is needed on this space.
                if (ref.acePruned(f)) {
                    ++pruned;
                    EXPECT_EQ(want.back(), Outcome::Masked)
                        << "seed " << seed << ": ACE-pruned "
                        << describe(f);
                }
            }
            compareEngines(prog, cfg, faults, want, seed, total);
        }
    }
    // The space reaches every kind of reconvergence step.
    EXPECT_GT(pruned, 0u);
    EXPECT_GT(total.replayMasked, 0u);
    EXPECT_GT(total.deltaResumes, 0u);
    EXPECT_GT(total.deltaDecided, 0u);
    EXPECT_GT(total.deltaCyclesSkipped, 0u);
}

} // namespace
} // namespace merlin::faultsim
