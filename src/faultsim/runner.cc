#include "faultsim/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <numeric>
#include <optional>

#include "base/logging.hh"
#include "base/threadpool.hh"
#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace merlin::faultsim
{

using isa::TerminateReason;
using isa::TrapKind;

namespace
{

/**
 * Registry instruments for the injection hot path, resolved once per
 * process instead of per injection (the registry lookup takes a
 * mutex; the instruments themselves are lock-free shards).
 */
struct InjectMetrics
{
    obs::Counter &runs = obs::Registry::global().counter("inject.runs");
    obs::Counter &earlyExits =
        obs::Registry::global().counter("inject.early_exits");
    obs::Counter &quarantined =
        obs::Registry::global().counter("inject.quarantined");
    obs::Counter &memoHits =
        obs::Registry::global().counter("inject.memo_hits");
    obs::Counter &replayMasked =
        obs::Registry::global().counter("inject.replay_masked");
    obs::Counter &deltaResumes =
        obs::Registry::global().counter("inject.delta_resumes");
    obs::Counter &deltaDecided =
        obs::Registry::global().counter("inject.delta_decided");
    obs::Counter &deltaSkipped =
        obs::Registry::global().counter("inject.delta_cycles_skipped");
    obs::Histogram &replaySkipped =
        obs::Registry::global().histogram("inject.replay_cycles_skipped");
    obs::Histogram &replayDivergence =
        obs::Registry::global().histogram("inject.replay_divergence_cycle");
    obs::Gauge &traceBytes =
        obs::Registry::global().gauge("replay.trace_bytes");
    obs::Gauge &traceEvents =
        obs::Registry::global().gauge("replay.trace_events");
    obs::Counter &dedupAliases =
        obs::Registry::global().counter("inject.dedup_aliases");
    obs::Histogram &wallUs =
        obs::Registry::global().histogram("inject.wall_us");
    obs::Histogram &captureUs =
        obs::Registry::global().histogram("snapshot.capture_us");
    obs::Counter &captureCopied =
        obs::Registry::global().counter("snapshot.capture_bytes_copied");
    obs::Counter &captureShared =
        obs::Registry::global().counter("snapshot.capture_bytes_shared");
    obs::Histogram &restoreUs =
        obs::Registry::global().histogram("snapshot.restore_us");
    obs::Counter &restoreCopied =
        obs::Registry::global().counter("snapshot.restore_bytes_copied");
    obs::Counter &restoreShared =
        obs::Registry::global().counter("snapshot.restore_bytes_shared");
};

InjectMetrics &
injectMetrics()
{
    static InjectMetrics m;
    return m;
}

/** Observes the elapsed microseconds on every exit path of a scope. */
struct ScopeTimer
{
    obs::Histogram &h;
    obs::TimePoint t0 = obs::now();
    ~ScopeTimer() { h.observe(obs::microsSince(t0)); }
};

/** Adds a local count to @p sink on every exit path of a scope. */
struct ScopeTally
{
    std::atomic<std::uint64_t> &sink;
    std::uint64_t n = 0;
    ~ScopeTally() { sink.fetch_add(n, std::memory_order_relaxed); }
};

constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

void
bump(std::atomic<std::uint64_t> &a, std::uint64_t n)
{
    a.fetch_add(n, std::memory_order_relaxed);
}

/** What the golden effect trace says about a delta (see
 *  "Reconvergence" in runner.hh). */
struct Step
{
    /** No delta byte is read again, and none stays live to a window
     *  end: the run's outcome is known. */
    bool decided = false;
    Outcome outcome = Outcome::Masked; ///< when decided
    /** First golden read of any delta byte (kNever: none). */
    Cycle firstRead = kNever;
};

/** The first golden touch of each byte that word @p w corrupts, at or
 *  after cycle @p from, as f(byte mask, touch). */
template <typename F>
void
forEachTouch(const replay::EffectTrace &t, const uarch::StateDelta::Word &w,
             Cycle from, F &&f)
{
    for (unsigned b = 0; b < 8; ++b) {
        const std::uint64_t m = 0xffULL << (8 * b);
        if (w.mask & m)
            f(m, t.firstTouch(w.s, w.entry, 8 * b, from));
    }
}

/** The golden run is the faulty run XOR @p d from cycle @p at on. */
Step
reconverge(const replay::EffectTrace &t, const GoldenRun &ref,
           const uarch::StateDelta &d, Cycle at)
{
    Step st;
    bool untouched = false;
    for (const uarch::StateDelta::Word &w : d.words) {
        forEachTouch(t, w, at, [&](std::uint64_t, replay::FirstTouch ft) {
            if (ft.kind == replay::Touch::Diverged)
                st.firstRead = std::min(st.firstRead, ft.cycle);
            untouched |= ft.kind == replay::Touch::None;
        });
    }
    // A byte untouched to the end of a to-completion run never shows;
    // at a window end it is still compared (Table 4).
    st.decided = st.firstRead == kNever && !(untouched && ref.windowed);
    st.outcome = d.output.empty() ? Outcome::Masked : Outcome::SDC;
    return st;
}

/** Drop from @p d every byte the golden run overwrites, before any
 *  read, in cycles [from, to). */
void
dropKilled(const replay::EffectTrace &t, uarch::StateDelta &d, Cycle from,
           Cycle to)
{
    for (uarch::StateDelta::Word &w : d.words) {
        forEachTouch(t, w, from, [&](std::uint64_t m, replay::FirstTouch ft) {
            if (ft.kind == replay::Touch::Killed && ft.cycle < to)
                w.mask &= ~m;
        });
    }
    std::erase_if(d.words, [](const uarch::StateDelta::Word &w) {
        return w.mask == 0;
    });
}

} // namespace

const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Masked:  return "Masked";
      case Outcome::SDC:     return "SDC";
      case Outcome::DUE:     return "DUE";
      case Outcome::Timeout: return "Timeout";
      case Outcome::Crash:   return "Crash";
      case Outcome::Assert:  return "Assert";
      case Outcome::Unknown: return "Unknown";
      default:               return "<bad>";
    }
}

// ---------------------------------------------------------- OutcomeMemo

OutcomeMemo::OutcomeMemo(std::size_t expected_faults)
{
    map_.reserve(expected_faults);
}

bool
OutcomeMemo::lookup(std::uint64_t key, Outcome &out) const
{
    auto it = map_.find(key);
    if (it == map_.end())
        return false;
    out = it->second;
    return true;
}

void
OutcomeMemo::insert(std::uint64_t key, Outcome o)
{
    map_.emplace(key, o);
}

// ------------------------------------------------------ InjectionRunner

InjectionRunner::InjectionRunner(const isa::Program &prog,
                                 const uarch::CoreConfig &cfg,
                                 const RunnerOptions &opts)
    : prog_(prog), cfg_(cfg), opts_(opts)
{
}

Cycle
InjectionRunner::timeoutBudget(Cycle golden_cycles, unsigned factor)
{
    if (factor == 0)
        factor = 1;
    constexpr Cycle kSlack = 1000;
    constexpr Cycle kMax = std::numeric_limits<Cycle>::max();
    if (golden_cycles > (kMax - kSlack) / factor)
        return kMax;
    return factor * golden_cycles + kSlack;
}

InjectionStats
InjectionRunner::injectionStats() const
{
    InjectionStats s;
    s.runs = runs_.load(std::memory_order_relaxed);
    s.earlyExits = earlyExits_.load(std::memory_order_relaxed);
    s.replayMasked = replayMasked_.load(std::memory_order_relaxed);
    s.replayCyclesSkipped =
        replayCyclesSkipped_.load(std::memory_order_relaxed);
    s.replayHeadCycles =
        replayHeadCycles_.load(std::memory_order_relaxed);
    s.deltaResumes = deltaResumes_.load(std::memory_order_relaxed);
    s.deltaDecided = deltaDecided_.load(std::memory_order_relaxed);
    s.deltaCyclesSkipped =
        deltaCyclesSkipped_.load(std::memory_order_relaxed);
    s.postFlipCycles = postFlipCycles_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(quarantineMu_);
        s.quarantined = quarantine_.size();
    }
    return s;
}

std::vector<QuarantineRecord>
InjectionRunner::quarantineRecords() const
{
    std::vector<QuarantineRecord> q;
    {
        std::lock_guard<std::mutex> lock(quarantineMu_);
        q = quarantine_;
    }
    std::sort(q.begin(), q.end());
    return q;
}

void
InjectionRunner::recordQuarantine(const Fault &fault, std::string reason,
                                  InjectDetail *detail) const
{
    if (opts_.quarantine == QuarantinePolicy::Fail) {
        fatal("injection quarantined (policy fail): fault key ",
              faultKey(fault), ", ", reason,
              " — rerun with --quarantine=continue to record the fault "
              "and keep the campaign going");
    }
    if (detail) {
        detail->quarantined = true;
        detail->reason = reason;
    }
    injectMetrics().quarantined.add();
    std::lock_guard<std::mutex> lock(quarantineMu_);
    quarantine_.push_back(QuarantineRecord{faultKey(fault),
                                           std::move(reason)});
}

GoldenRun
InjectionRunner::golden(uarch::Probe *probe) const
{
    obs::Span span("campaign", "golden " + prog_.name);
    InjectMetrics &m = injectMetrics();
    GoldenRun g;

    // A checkpointed golden run also records the effect trace the
    // reconvergence step reads, by the caller's recorder or by an
    // effect-only one.
    const bool record = opts_.checkpointInterval != 0;
    std::optional<uarch::Probe> own;
    if (record && !probe) {
        probe = &own.emplace(cfg_.numPhysIntRegs, cfg_.sqEntries,
                             cfg_.l1d.totalWords(), /*ace=*/false);
    }
    uarch::Core core(prog_, cfg_, probe);
    std::optional<obs::Span> tspan;
    if (record) {
        tspan.emplace("replay", "record " + prog_.name);
        probe->recordEffects();
    }

    if (!record) {
        g.arch = core.run();
    } else {
        // Snapshots are taken between ticks, exactly where inject()
        // applies flips, so a resumed run replays the original
        // cycle-for-cycle.  The probe does not influence timing or
        // architectural state, so checkpoints from a profiled golden
        // run are valid resume points for probe-free injections.
        Cycle interval = opts_.checkpointInterval;
        for (;;) {
            if (core.cycle() != 0 && core.cycle() % interval == 0) {
                if (g.checkpoints.size() >= kMaxCheckpoints) {
                    // Keep every other checkpoint (those at even
                    // multiples of the doubled interval) and coarsen.
                    std::vector<uarch::Core::Snapshot> kept;
                    kept.reserve(kMaxCheckpoints / 2 + 1);
                    for (std::size_t i = 1; i < g.checkpoints.size();
                         i += 2)
                        kept.push_back(std::move(g.checkpoints[i]));
                    g.checkpoints = std::move(kept);
                    interval *= 2;
                }
                if (core.cycle() % interval == 0) {
                    uarch::SnapshotStats st;
                    const obs::TimePoint t0 = obs::now();
                    g.checkpoints.push_back(core.snapshot(&st));
                    m.captureUs.observe(obs::microsSince(t0));
                    m.captureCopied.add(st.bytesCopied);
                    m.captureShared.add(st.bytesShared);
                }
            }
            if (!core.tick())
                break;
        }
        g.arch = core.result();
    }

    if (record) {
        auto trace =
            std::make_shared<replay::EffectTrace>(probe->takeEffects());
        m.traceBytes.set(static_cast<double>(trace->memoryBytes()));
        m.traceEvents.set(static_cast<double>(trace->numEvents()));
        g.trace = std::move(trace);
        tspan.reset();
    }

    g.stats = core.stats();
    g.windowed = cfg_.instructionWindowEnd != 0;
    if (g.arch.reason != TerminateReason::Halted &&
        g.arch.reason != TerminateReason::WindowEnd) {
        fatal("golden run did not terminate cleanly (reason ",
              static_cast<int>(g.arch.reason), ", workload '", prog_.name,
              "')");
    }
    if (g.windowed) {
        for (unsigned r = 0; r < isa::NUM_ARCH_REGS; ++r)
            g.archRegs[r] = core.archRegValue(r);
        g.archMem = std::make_shared<const isa::SegmentedMemory>(
            core.archMemoryView());
    }
    return g;
}

Outcome
InjectionRunner::classify(const isa::ArchResult &faulty,
                          const uarch::Core &core, const GoldenRun &ref)
{
    switch (faulty.reason) {
      case TerminateReason::CycleLimit:
      case TerminateReason::Deadlock:
        return Outcome::Timeout;

      case TerminateReason::Trapped: {
        MERLIN_ASSERT(!faulty.traps.empty(), "trap without trap log");
        const TrapKind kind = faulty.traps.back().kind;
        if (isa::isExceptionTrap(kind)) {
            // Golden runs are trap-free by construction, so any
            // exception-family trap is an extra detected event -> DUE.
            return Outcome::DUE;
        }
        return Outcome::Crash;
      }

      case TerminateReason::Halted: {
        if (faulty.output == ref.arch.output &&
            faulty.exitCode == ref.arch.exitCode) {
            return Outcome::Masked;
        }
        return Outcome::SDC;
      }

      case TerminateReason::WindowEnd: {
        // Table-4 classification: compare the architectural state at the
        // window boundary; a surviving difference is a latent fault.
        if (faulty.output != ref.arch.output)
            return Outcome::SDC;
        for (unsigned r = 0; r < isa::NUM_ARCH_REGS; ++r) {
            if (core.archRegValue(r) != ref.archRegs[r])
                return Outcome::Unknown;
        }
        if (!core.archMemoryView().contentEquals(*ref.archMem))
            return Outcome::Unknown;
        return Outcome::Masked;
      }

      default:
        panic("classify: unexpected termination reason");
    }
}

Outcome
InjectionRunner::inject(const Fault &fault, const GoldenRun &ref,
                        InjectDetail *detail) const
{
    uarch::CoreConfig cfg = cfg_;
    // The paper's timeout rule: timeoutFactor x the fault-free
    // execution time (saturating, never wrapping).
    cfg.maxCycles = timeoutBudget(ref.stats.cycles, opts_.timeoutFactor);
    bump(runs_, 1);

    InjectMetrics &m = injectMetrics();
    m.runs.add();
    obs::Span span("inject", "injection");
    const ScopeTimer timed{m.wallUs};
    ScopeTally post_flip{postFlipCycles_};

    try {
        const std::vector<uarch::Core::Snapshot> &cks = ref.checkpoints;
        // Checkpoints are sorted ascending by construction: the number
        // of them at or before cycle c.
        const auto upTo = [&](Cycle c) {
            return static_cast<std::size_t>(
                std::upper_bound(cks.begin(), cks.end(), c,
                                 [](Cycle x, const uarch::Core::Snapshot &s) {
                                     return x < s.cycle();
                                 }) -
                cks.begin());
        };
        std::optional<uarch::Core> core;
        const auto restore = [&](const uarch::Core::Snapshot &snap) {
            uarch::SnapshotStats rstats;
            const obs::TimePoint t0 = obs::now();
            core.emplace(prog_, cfg, snap, &rstats);
            m.restoreUs.observe(obs::microsBetween(t0, obs::now()));
            m.restoreCopied.add(rstats.bytesCopied);
            m.restoreShared.add(rstats.bytesShared);
        };

        // The faulty run is the golden run XOR `delta` from cycle `at`
        // on: the flipped bit from the flip cycle, to begin with.
        // `next` indexes the first checkpoint past `at`; `r0`, the
        // latest one at or before the flip, is where the plain run
        // resumes and what every head and skip figure counts from.
        MERLIN_ASSERT(fault.bit < 64, "flip bit out of range");
        uarch::StateDelta delta;
        delta.words.push_back(uarch::StateDelta::Word{
            fault.structure, fault.entry, 1ULL << fault.bit});
        Cycle at = fault.cycle;
        std::size_t next = upTo(at);
        const Cycle r0 = next ? cks[next - 1].cycle() : 0;
        const replay::EffectTrace *trace = ref.trace.get();
        MERLIN_ASSERT(trace || cks.empty(), "checkpoints without a trace");
        // On a checkpointed golden run, enter the reconvergence step at
        // the flip, before simulating anything.
        bool step = trace != nullptr;
        bool applied = false;
        for (;;) {
            if (step) {
                // The reconvergence step (see runner.hh); entered at
                // the flip, before there is a core.
                step = false;
                const bool at_flip = !core;
                const Cycle from = at_flip ? r0 : at;
                const Step st = reconverge(*trace, ref, delta, at);
                const std::size_t upto = upTo(st.firstRead);
                const bool resume = !st.decided && upto > next;
                Cycle skipped = st.decided ? ref.stats.cycles - from : 0;
                if (resume) {
                    // The latest checkpoint before the first read, with
                    // the delta XORed in.
                    next = upto;
                    const Cycle to = cks[next - 1].cycle();
                    dropKilled(*trace, delta, at, to);
                    restore(cks[next - 1]);
                    core->applyDelta(delta);
                    applied = true;
                    skipped = to - from;
                }
                if (at_flip) {
                    // A flip is decided only Masked: overwritten before
                    // any read, or never touched to completion.
                    bump(replayHeadCycles_,
                         std::min(st.firstRead, ref.stats.cycles) - r0);
                    bump(replayCyclesSkipped_, skipped);
                    bump(replayMasked_, st.decided);
                    m.replayMasked.add(st.decided);
                    m.replaySkipped.observe(skipped);
                    if (st.firstRead != kNever)
                        m.replayDivergence.observe(st.firstRead - at);
                } else {
                    bump(deltaCyclesSkipped_, skipped);
                    bump(deltaDecided_, st.decided);
                    bump(deltaResumes_, resume);
                    m.deltaSkipped.add(skipped);
                    m.deltaDecided.add(st.decided);
                    m.deltaResumes.add(resume);
                }
                if (st.decided)
                    return st.outcome;
            }
            if (!core) {
                // The plain run, from the latest checkpoint at or
                // before the flip.
                if (next)
                    restore(cks[next - 1]);
                else
                    core.emplace(prog_, cfg);
            }
            if (!applied && core->cycle() == fault.cycle) {
                core->applyDelta(delta);
                applied = true;
            }
            // At each checkpoint past the flip, one diff against the
            // golden snapshot: an empty delta is the golden future
            // itself, a non-empty one goes to the step.
            if (applied && next < cks.size() &&
                core->cycle() == cks[next].cycle()) {
                at = core->cycle();
                if (core->diff(cks[next++], delta)) {
                    if (delta.empty()) {
                        bump(earlyExits_, 1);
                        m.earlyExits.add();
                        return Outcome::Masked;
                    }
                    step = true;
                    continue;
                }
            }
            // Test hook: model a fault that corrupts the simulator
            // itself (throw).
            if (applied && opts_.injectHook)
                opts_.injectHook(fault, core->cycle());
            if (!core->tick())
                break;
            if (applied)
                ++post_flip.n;
        }
        return classify(core->result(), *core, ref);
    } catch (const SimAssertError &) {
        // A flipped bit drove the simulator into an invariant violation.
        return Outcome::Assert;
    } catch (const std::exception &e) {
        // Simulator-process failure: counted in the Crash class, like
        // GeFIN's "simulator crash" subcategory — and quarantined, so
        // the campaign records exactly which fault corrupted the
        // simulator (e.what() is deterministic for a deterministic
        // simulator, keeping the record byte-stable).
        recordQuarantine(fault,
                         std::string("simulator exception: ") + e.what(),
                         detail);
        return Outcome::Crash;
    } catch (...) {
        // A non-standard exception would previously have escaped the
        // pool worker and terminated the whole process.
        recordQuarantine(fault, "non-standard exception", detail);
        return Outcome::Crash;
    }
}

BatchPlan
InjectionRunner::planBatch(const std::vector<Fault> &faults,
                           const OutcomeMemo *memo) const
{
    BatchPlan plan;
    plan.outcomes.assign(faults.size(), Outcome::Masked);
    plan.keys.resize(faults.size());
    if (faults.empty())
        return plan;

    // Resolve memo hits and collapse duplicates: the first occurrence
    // of each key runs, later ones alias its slot afterwards.
    std::unordered_map<std::uint64_t, std::uint32_t, FaultKeyHash> first;
    first.reserve(faults.size());
    plan.work.reserve(faults.size());
    std::uint64_t memo_hits = 0;
    for (std::uint32_t i = 0; i < faults.size(); ++i) {
        // A fault key does not name the structure: one batch, one
        // structure, or distinct faults would alias one outcome.
        if (faults[i].structure != faults[0].structure) {
            fatal("planBatch: one batch mixes ",
                  uarch::structureName(faults[0].structure), " and ",
                  uarch::structureName(faults[i].structure),
                  " faults; inject one batch per structure");
        }
        plan.keys[i] = faultKey(faults[i]);
        Outcome cached;
        if (memo && memo->lookup(plan.keys[i], cached)) {
            plan.outcomes[i] = cached;
            ++memo_hits;
            continue;
        }
        auto [it, fresh] = first.emplace(plan.keys[i], i);
        if (fresh)
            plan.work.push_back(i);
        else
            plan.aliases.emplace_back(i, it->second);
    }
    if (memo_hits)
        injectMetrics().memoHits.add(memo_hits);
    if (!plan.aliases.empty())
        injectMetrics().dedupAliases.add(plan.aliases.size());

    // Cycle-sorted execution order: neighbouring runs resume from the
    // same checkpoint, so their pre-fault replay shares length.  The
    // tie-break keeps the order fully deterministic.
    std::sort(plan.work.begin(), plan.work.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return faults[a].cycle != faults[b].cycle
                             ? faults[a].cycle < faults[b].cycle
                             : a < b;
              });
    return plan;
}

void
InjectionRunner::finishBatch(BatchPlan &plan, OutcomeMemo *memo) const
{
    if (memo) {
        for (std::uint32_t i : plan.work)
            memo->insert(plan.keys[i], plan.outcomes[i]);
    }
    for (auto [dst, src] : plan.aliases)
        plan.outcomes[dst] = plan.outcomes[src];
}

std::vector<Outcome>
InjectionRunner::injectBatch(const std::vector<Fault> &faults,
                             const GoldenRun &ref, base::TaskGroup &group,
                             OutcomeMemo *memo,
                             const OutcomeCallback *on_outcome) const
{
    BatchPlan plan = planBatch(faults, memo);

    // One pool task per injection: the shared pool's queue interleaves
    // these with every other in-flight batch, which is exactly the
    // cross-campaign work stealing the suite scheduler relies on.  Each
    // task writes a slot derived from its fault, so any schedule yields
    // the same outcome vector.  The callback fires per completed fresh
    // injection (any thread, any order) — the journal hook.
    for (std::uint32_t w = 0;
         w < static_cast<std::uint32_t>(plan.work.size()); ++w) {
        group.submit([this, &plan, &faults, &ref, on_outcome, w] {
            const std::uint32_t i = plan.work[w];
            InjectDetail detail;
            plan.outcomes[i] = inject(faults[i], ref, &detail);
            if (on_outcome && *on_outcome)
                (*on_outcome)(plan.keys[i], plan.outcomes[i], detail);
        });
    }
    group.wait();

    finishBatch(plan, memo);
    return std::move(plan.outcomes);
}

} // namespace merlin::faultsim
