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
 * Raised by the in-run wall-clock watchdog.  Deliberately NOT derived
 * from std::exception: the quarantine guard must distinguish it from
 * ordinary simulator failures, and nothing else may swallow it.
 */
struct WallClockExceeded
{
};

/** How many simulated cycles between wall-clock watchdog checks. */
constexpr std::uint32_t kWallCheckMask = 255;

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
    obs::Counter &replayHandoffs =
        obs::Registry::global().counter("inject.replay_handoffs");
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
    if (opts_.maxCheckpoints == 0)
        opts_.maxCheckpoints = 1;
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
    s.replayHandoffs = replayHandoffs_.load(std::memory_order_relaxed);
    s.replayCyclesSkipped =
        replayCyclesSkipped_.load(std::memory_order_relaxed);
    s.replayHeadCycles =
        replayHeadCycles_.load(std::memory_order_relaxed);
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

    // The effect trace for the replay fast path is recorded on the same
    // run, by the caller's recorder or by an effect-only one; skipped
    // entirely under an injectHook, whose tests observe every simulated
    // cycle.
    const bool record = opts_.replay && !opts_.injectHook;
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

    if (opts_.checkpointInterval == 0) {
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
                if (g.checkpoints.size() >= opts_.maxCheckpoints) {
                    // Keep every other checkpoint (those at even
                    // multiples of the doubled interval) and coarsen.
                    std::vector<uarch::Core::Snapshot> kept;
                    kept.reserve(opts_.maxCheckpoints / 2 + 1);
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
    runs_.fetch_add(1, std::memory_order_relaxed);

    InjectMetrics &m = injectMetrics();
    m.runs.add();
    obs::Span span("inject", "injection");
    const ScopeTimer timed{m.wallUs};

    const bool watchdog = opts_.wallClockLimit > 0.0;
    const obs::TimePoint wall_start = timed.t0;
    std::uint32_t wall_tick = 0;

    try {
        // Checkpoints are sorted ascending by construction; `after`
        // is the first one past the flip, `prev(after)` the resume
        // point.
        auto after = std::upper_bound(
            ref.checkpoints.begin(), ref.checkpoints.end(), fault.cycle,
            [](Cycle c, const uarch::Core::Snapshot &s) {
                return c < s.cycle();
            });
        const uarch::Core::Snapshot *resume =
            after != ref.checkpoints.begin() ? &*std::prev(after)
                                             : nullptr;

        // Replay fast path: ask the golden effect trace for the flip's
        // first architectural consequence before simulating anything.
        const replay::EffectTrace *trace =
            (opts_.replay && !opts_.injectHook) ? ref.trace.get()
                                                : nullptr;
        bool flip_at_restore = false;
        if (trace) {
            // Classic resume cycle — the baseline every head/skip
            // figure is measured against.
            const Cycle r0 = resume ? resume->cycle() : 0;
            const replay::FirstTouch ft = trace->firstTouch(
                fault.structure, fault.entry, fault.bit, fault.cycle);

            if (ft.kind == replay::Touch::Killed ||
                (ft.kind == replay::Touch::None && !ref.windowed)) {
                // The flip is overwritten before any read (or never
                // touched in a to-completion run): the faulty run's
                // observable behaviour is the golden run's.  Masked,
                // zero cycles simulated.  Windowed never-touched flips
                // do NOT take this exit — they are still live at the
                // window end and must run the Table-4 comparison.
                obs::Span rspan("replay", "shortcut-masked");
                const Cycle head = ref.stats.cycles - r0;
                replayMasked_.fetch_add(1, std::memory_order_relaxed);
                replayCyclesSkipped_.fetch_add(
                    head, std::memory_order_relaxed);
                replayHeadCycles_.fetch_add(head,
                                            std::memory_order_relaxed);
                m.replayMasked.add();
                m.replaySkipped.observe(head);
                return Outcome::Masked;
            }

            // Diverged at ft.cycle: any checkpoint in [flip, ft.cycle]
            // holds state identical to the faulty run's except for the
            // flipped byte itself, so full simulation may start there
            // with the flip applied at restore.  Windowed never-touched
            // flips hand off the same way with no divergence bound
            // (latest checkpoint), keeping the window-end comparison.
            const Cycle limit = ft.kind == replay::Touch::Diverged
                                    ? ft.cycle
                                    : std::numeric_limits<Cycle>::max();
            auto ub = std::upper_bound(
                ref.checkpoints.begin(), ref.checkpoints.end(), limit,
                [](Cycle c, const uarch::Core::Snapshot &s) {
                    return c < s.cycle();
                });
            const uarch::Core::Snapshot *handoff =
                ub != ref.checkpoints.begin() ? &*std::prev(ub) : nullptr;
            Cycle skipped = 0;
            if (handoff && handoff->cycle() >= fault.cycle) {
                skipped = handoff->cycle() - r0;
                resume = handoff;
                after = ub;
                flip_at_restore = true;
            }
            // else: no checkpoint inside the head — classic path, with
            // the handoff still counted (skipped = 0).
            const Cycle head = (ft.kind == replay::Touch::Diverged
                                    ? ft.cycle
                                    : ref.stats.cycles) -
                               r0;
            replayHandoffs_.fetch_add(1, std::memory_order_relaxed);
            replayCyclesSkipped_.fetch_add(skipped,
                                           std::memory_order_relaxed);
            replayHeadCycles_.fetch_add(head, std::memory_order_relaxed);
            m.replayHandoffs.add();
            m.replaySkipped.observe(skipped);
            if (ft.kind == replay::Touch::Diverged)
                m.replayDivergence.observe(ft.cycle - fault.cycle);
        }

        uarch::SnapshotStats rstats;
        const obs::TimePoint restore_t0 = obs::now();
        uarch::Core core =
            resume ? uarch::Core(prog_, cfg, *resume, &rstats)
                   : uarch::Core(prog_, cfg);
        if (resume) {
            m.restoreUs.observe(obs::microsBetween(restore_t0,
                                                   obs::now()));
            m.restoreCopied.add(rstats.bytesCopied);
            m.restoreShared.add(rstats.bytesShared);
        }
        const auto applyFlip = [&](uarch::Core &c) {
            switch (fault.structure) {
              case uarch::Structure::RegisterFile:
                c.flipRegisterFileBit(fault.entry, fault.bit);
                break;
              case uarch::Structure::StoreQueue:
                c.flipStoreQueueBit(fault.entry, fault.bit);
                break;
              case uarch::Structure::L1DCache:
                c.flipL1dBit(fault.entry, fault.bit);
                break;
            }
        };
        bool applied = false;
        if (flip_at_restore) {
            // Handoff resume: the golden state at this checkpoint
            // differs from the faulty run's only in the flipped byte
            // (the trace proved nothing touched it since the flip), so
            // applying the flip here reconstructs it exactly.
            applyFlip(core);
            applied = true;
        }
        for (;;) {
            if (!applied && core.cycle() == fault.cycle) {
                applyFlip(core);
                applied = true;
            }
            // Test hook: model a fault that corrupts the simulator
            // itself (throw) or wedges it (burn wall clock).
            if (applied && opts_.injectHook)
                opts_.injectHook(fault, core.cycle());
            // Real-wall-clock watchdog, checked every few hundred
            // cycles: a livelocking simulator that keeps ticking is
            // quarantined instead of stalling the whole campaign.
            if (watchdog && (++wall_tick & kWallCheckMask) == 0 &&
                obs::secondsSince(wall_start) > opts_.wallClockLimit) {
                throw WallClockExceeded{};
            }
            // Golden-reconvergence early exit: at each checkpoint
            // cycle past the flip, a full state match proves the
            // faulty run's future is the golden run's future, whose
            // classification against itself is Masked by definition.
            // The compare is cheap when it fails (divergent registers
            // hit first) and chunk-identity-fast when memory is still
            // shared with the snapshot.
            if (applied && opts_.earlyExit &&
                after != ref.checkpoints.end() &&
                core.cycle() == after->cycle()) {
                if (core.stateEquals(*after)) {
                    earlyExits_.fetch_add(1, std::memory_order_relaxed);
                    m.earlyExits.add();
                    return Outcome::Masked;
                }
                ++after;
            }
            if (!core.tick())
                break;
        }
        return classify(core.result(), core, ref);
    } catch (const SimAssertError &) {
        // A flipped bit drove the simulator into an invariant violation.
        return Outcome::Assert;
    } catch (const WallClockExceeded &) {
        recordQuarantine(fault,
                         "wall-clock watchdog: run exceeded the real-time "
                         "limit while still ticking",
                         detail);
        return Outcome::Crash;
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
